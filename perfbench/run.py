"""Study-level benchmark for anisofem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the library is imported from
``src/``).  The workload's config is generated from the seed (see
``workloads.py``) and every study runs as a user runs it,
``anisofem run <config>`` through ``anisofem.cli.main``, in a fresh
workload process of its own (``child.py``), one process at a time, with
BLAS/OpenMP threads capped at the number of usable cores.

A run first starts ``SETUP_PROBES`` set-up-only processes, then repeats the
study while the next repetition is predicted to end within ``--seconds``
(at least once).  Each repetition's CSV is read back and checked.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):

    study_wall_s     wall time of the whole ``anisofem run``
    solve_time_s     sum of the CSV's wall_time_seconds column
    unknowns_per_s   free unknowns over all instances / study_wall_s
    peak_rss_mib     ru_maxrss of the workload process
    setup_s          import of anisofem + config load in a fresh process
    ok_frac          instances solved OK and passing the checks / attempted

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``tracing.py`` (per study run, median over traced
repetitions) plus ``trace.overhead_s``, the traced minus the untraced
median study wall time.

Only ``perf_counter``, ``getrusage`` and in-process wrappers are used: no
system-wide tracing, no cache dropping.  Outputs go to ``.perfbench_out/``
in the current directory.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from statistics import median
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 5
DEADLINE_S = 170           # a run must end within 180 s, whatever hangs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("study_wall_s", "s"), ("solve_time_s", "s"),
              ("unknowns_per_s", "1/s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"), ("ok_frac", "fraction"))
PER_LAYER = tracing.LAYER_METRICS + (("trace.overhead_s", "s"),)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    cores = len(os.sched_getaffinity(0))
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": cores, "python": platform.python_version(), **versions,
            "thread_caps": {v: str(cores) for v in THREAD_VARS},
            "timers": "perf_counter, getrusage and in-process wrappers only; "
                      "no system-wide tracing, no cache dropping"}


def _child(env, outdir, args, mode, tag, deadline):
    result = os.path.join(outdir, f"{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--config", os.path.join(outdir, "study.cfg"),
           "--mode", mode, "--result", result]
    if mode == "trace":
        cmd += ["--spans", os.path.join(outdir, f"{tag}.spans.jsonl")]
    with open(os.path.join(outdir, f"{tag}.log"), "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, timeout=deadline - time.perf_counter())
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"workload process ({mode}) exited with code "
                         f"{proc.returncode}; see {outdir}/{tag}.log")
    with open(result) as fh:
        return json.load(fh)


def measure(args, thread_caps) -> dict:
    if not os.path.isfile(os.path.join("src", "anisofem", "cli.py")):
        raise BenchError("run from the root of an anisofem checkout "
                         "(src/anisofem not found)")
    workload = workloads.WORKLOADS[args.workload]
    outdir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    workload.write_config(args.seed, outdir)
    env = dict(os.environ)
    env.update(thread_caps)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    setups = [_child(env, outdir, args, "setup", f"setup{i}", deadline)["setup_s"]
              for i in range(SETUP_PROBES)]
    modes = ("run", "trace") if args.trace else ("run",)
    reps, rep_s = [], []
    while True:
        mode = modes[len(reps) % len(modes)]
        t = time.perf_counter()
        rep = _child(env, outdir, args, mode, f"rep{len(reps)}", deadline)
        rep_s.append(time.perf_counter() - t)
        rep["mode"] = mode
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= len(modes) and elapsed + median(rep_s) > args.seconds:
            break
    return {"setups": setups, "reps": reps}


def metrics(args, data) -> dict:
    reps = data["reps"]
    plain = [r for r in reps if r["mode"] == "run"]
    if args.trace:
        traced = [r for r in reps if r["mode"] == "trace"]
        out = {name: median([r["layers"][name] for r in traced])
               for name, _ in tracing.LAYER_METRICS}
        out["trace.overhead_s"] = (median([r["study_wall_s"] for r in traced])
                                   - median([r["study_wall_s"] for r in plain]))
        return out
    return {
        "study_wall_s": median([r["study_wall_s"] for r in plain]),
        "solve_time_s": median([r["solve_time_s"] for r in plain]),
        "unknowns_per_s": median([r["unknowns"] / r["study_wall_s"] for r in plain]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
        "setup_s": median(data["setups"] + [r["setup_s"] for r in reps]),
        "ok_frac": sum(r["ok"] for r in plain) / sum(r["attempted"] for r in plain),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment()
    try:
        data = measure(args, env["thread_caps"])
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(env))
    reps = data["reps"]
    values = metrics(args, data)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for i, r in enumerate(reps):
        print(f"rep {i} ({r['mode']}): study_wall_s {r['study_wall_s']:.4f}, "
              f"{r['ok']}/{r['attempted']} ok, {r['failed']} failed")
        for msg in r["messages"]:
            print(f"  check: {msg}")
    print(f"set-up samples: {len(data['setups']) + len(reps)}, "
          f"study repetitions: {len(reps)}")
    for name, value in values.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}",
                           f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "args": vars(args), **data,
                   "metrics": values}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
