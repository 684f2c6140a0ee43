"""Steadiness mode: repeat the benchmark over seeds and report the spread.

    python3 perfbench/steady.py [--seeds 1-10] [--sets 1]

Runs ``run.py --trace 0`` once per (set, workload, seed) for every workload
of BENCHMARK.json at its ``run_seconds``, one process at a time, from the
current directory (a checkout root), and prints each run's elapsed time
next to its metrics.  For every workload and end-to-end metric it prints
the median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, flagged ``OVER`` when the spread exceeds the
metric's bound in BENCHMARK.json and ``WARN`` when it exceeds a third of
it.  With ``--sets 2`` the seeds run twice and the shift of the second
set's median against the first, in the metric's worse direction, is
checked against the bound too.  Any incorrect run is reported.  With one
seed and one set this is the single command that prints every end-to-end
metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in names}
    bad = 0
    for s in range(args.sets):
        for w in names:
            for seed in args.seeds:
                res, elapsed = _run(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                line = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                 for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed} ({elapsed:.1f} s): "
                      f"correct={res['correct']} "
                      f"{res['attempted'] - res['failed']}/{res['attempted']}; {line}",
                      flush=True)
                bad += not res["correct"]

    summary = {}
    print()
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(results[w]):
                vals = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(vals)
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                else:
                    q1 = q3 = vals[0]
                spread = (q3 - q1) / med if med else float("inf")
                flag = ("OVER" if spread > bound else
                        "WARN" if spread > bound / 3 else "ok")
                print(f"{w:16s} {name:16s} set {s}: median {med:.6g} {m['unit']}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.2%}"
                      f" (bound {bound:.0%}) {flag}")
                medians.append(med)
                summary.setdefault(w, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread})
            if len(medians) > 1:
                sign = 1.0 if m["better"] == "lower" else -1.0
                shift = max(sign * (x - medians[0]) / medians[0] for x in medians[1:])
                print(f"{w:16s} {name:16s} median shift {shift:+.2%} "
                      f"{'OVER' if shift > bound else 'ok'}")
    with open(os.path.join(".perfbench_out", "steady.json"), "w") as fh:
        json.dump({"args": vars(args), "summary": summary,
                   "runs": results}, fh, indent=1)
    if bad:
        print(f"{bad} incorrect run(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
