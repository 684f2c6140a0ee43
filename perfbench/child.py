"""One workload process: set up, run one study as a user does, check it.

    python3 perfbench/child.py --workload NAME --seed N --config CFG \
        --mode {setup,run,trace} --result OUT.json [--spans SPANS.jsonl]

Set-up is the fresh-process import of anisofem (numpy and scipy with it)
plus loading the config, timed from the top of this file.  ``setup`` mode
stops there.  ``run`` then calls ``anisofem.cli.main(["run", CFG])`` under
``perf_counter``, counting the rows of every block system the library
builds, reads the CSVs back with ``read_csv`` and checks every row;
``trace`` does the same with the span tracer of ``tracing.py``
installed.  The library is imported from ``src/`` of the current
directory and nowhere else.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _import_library():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import anisofem.cli
    if not os.path.abspath(anisofem.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"anisofem imported from {anisofem.cli.__file__}, "
                          f"not from {src}")


def _count_unknowns() -> list:
    """Make every block system the library builds add its size to a
    one-item list: the free unknowns of u plus the auxiliary block."""
    import tracing
    from anisofem import schemes

    total = [0]
    original = schemes.build_system

    def counted(*args, **kwargs):
        system = original(*args, **kwargs)
        total[0] += system.matrix.shape[0]
        return system

    tracing.rebind(original, counted)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    _import_library()
    from anisofem.config import load_config
    load_config(args.config)
    out = {"setup_s": time.perf_counter() - T0}
    if args.mode != "setup":
        out.update(_run(args))
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


def _run(args) -> dict:
    from anisofem.cli import main as cli_main
    from anisofem.studies import read_csv

    workload = workloads.WORKLOADS[args.workload]
    sections = workload.sections(args.seed)
    csvs = [workloads.csv_path(os.path.dirname(args.config), s) for s in sections]
    rows = [r for s in sections for r in s.rows]
    for path in csvs:
        if os.path.exists(path):
            os.remove(path)
    unknowns = _count_unknowns()
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    error = None
    t = time.perf_counter()
    try:
        code = cli_main(["run", args.config])
    except Exception:          # recorded and counted as failed rows
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"study_wall_s": wall, "peak_rss_mib": rss_mib, "attempted": len(rows)}
    if tracer is not None:
        # before the checks below, which call traced functions themselves
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    if error is None and code != 0:
        error = f"anisofem run exited with code {code}"
    recs = []
    if error is None:
        try:
            for path in csvs:
                recs += read_csv(path)
        except (OSError, ValueError) as exc:
            error = f"cannot read the study CSV: {exc}"
    if error is not None:
        failed, msgs = [True] * len(rows), [error]
    else:
        failed, msgs = workloads.check_records(workload, rows, recs)
    ok = sum(1 for f, r in zip(failed, recs) if not f and r.solve_status == "OK")
    out.update(failed=sum(failed), ok=ok, messages=msgs,
               solve_time_s=sum(r.wall_time_seconds for r in recs),
               unknowns=unknowns[0])
    return out


if __name__ == "__main__":
    sys.exit(main())
