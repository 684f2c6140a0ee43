"""Command-line entry point.

    anisofem run <config-file>    run the studies described in the file
    anisofem list-studies         show the available study kinds
    anisofem check                run the fast invariant suite

Exit codes: 0 success, 1 configuration error (or failed checks),
2 a solver reported a singular matrix inside a strict study, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .studies import STUDIES, emit_csv, emit_plot_script, run_study


def _run(args) -> int:
    try:
        studies = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return 3

    for item in studies:
        print(f"running [{item.name}] ({item.config.kind}) ...")
        result = run_study(item.config)
        header = STUDIES[item.config.kind].header
        if header is None:
            failures = sum(1 for r in result if r.solve_status != "OK")
            print(f"  {len(result)} records, {failures} solver failure(s)")
        else:
            failures = 0
            for row in result:
                print("  " + "  ".join(format(v, ".6g") if isinstance(v, float)
                                       else str(v) for v in row))
        try:
            if item.output:
                os.makedirs(os.path.dirname(item.output) or ".", exist_ok=True)
                emit_csv(result, item.output, header)
                print(f"  wrote {item.output}")
            if item.plot:
                emit_plot_script(result, item.plot, item.output)
                print(f"  wrote {item.plot}")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 3
        if item.strict and failures:
            print(f"  strict study [{item.name}] had solver failures", file=sys.stderr)
            return 2
    return 0


def _list_studies(_args) -> int:
    for kind, study in STUDIES.items():
        print(f"{kind:20s} {study.blurb}")
    return 0


def _check(_args) -> int:
    from .checks import run_checks

    return 0 if run_checks() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anisofem",
                                     description="asymptotic-preserving finite "
                                                 "elements for anisotropic "
                                                 "elliptic problems")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the studies in a config file")
    run_p.add_argument("config")
    run_p.set_defaults(func=_run)
    list_p = sub.add_parser("list-studies", help="list available study kinds")
    list_p.set_defaults(func=_list_studies)
    check_p = sub.add_parser("check", help="run the invariant suite")
    check_p.set_defaults(func=_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
