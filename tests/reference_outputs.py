"""Reference outputs of the eight default studies and of ``anisofem check``,
and the comparison against them.

``tests/reference/<kind>.csv`` holds what ``anisofem run`` writes for a
section that sets only ``study = <kind>``, without the
``wall_time_seconds`` column, and ``tests/reference/check.txt`` what
``anisofem check`` prints.  ``tests/reference/versions.json`` records
the Python, numpy and scipy that wrote them.

    python tests/reference_outputs.py [KIND ...]            compare
    python tests/reference_outputs.py --update [KIND ...]   rewrite

A KIND is a study kind or ``check``.  Both run the named outputs (all
nine by default; about 23 s on two cores) through ``anisofem.cli.main``
on the library in ``src/``.  The comparison reports a version mismatch
first, then, per study and column, how many values moved and the
largest relative move, each row whose ``solve_status`` changed, by its
grid point, and each line of the check that changed; a value whose text
changed but not its float is counted apart.  It exits with 1
if anything moved or changed.  ``run_defaults`` is the one producer of
the default outputs: the acceptance tests read their criteria from the
files it writes and compare all eight with their references, and
``test_cli_check_smoke`` compares the check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anisofem import cli  # noqa: E402
from anisofem.studies import STUDIES  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERSIONS = REFERENCE_DIR / "versions.json"
CHECK = "check"
CHECK_FILE = REFERENCE_DIR / "check.txt"
WALL_TIME = "wall_time_seconds"
STATUS = "solve_status"
GRID_POINT = ("scheme", "n", "eps", "sigma", "alpha")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def version_mismatch() -> list[str]:
    """One line per package whose version differs from the references'."""
    recorded = json.loads(VERSIONS.read_text())
    return [f"version mismatch: {name} {mine} here, {recorded.get(name)} in "
            f"the references" for name, mine in versions().items()
            if recorded.get(name) != mine]


def read_rows(path) -> list[list[str]]:
    """A CSV file as rows of fields, header first, without the wall time."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if WALL_TIME in rows[0]:
        i = rows[0].index(WALL_TIME)
        rows = [row[:i] + row[i + 1:] for row in rows]
    return rows


def run_defaults(kinds, directory) -> dict[str, str]:
    """Run ``anisofem run`` on one config section per kind that sets only
    its study; each writes ``<directory>/<kind>.csv``.  Returns the paths."""
    config = os.path.join(directory, "defaults.ini")
    paths = {kind: os.path.join(directory, f"{kind}.csv") for kind in kinds}
    with open(config, "w") as fh:
        for kind, path in paths.items():
            fh.write(f"[{kind}]\nstudy = {kind}\noutput = {path}\n\n")
    if cli.main(["run", config]) != 0:
        raise RuntimeError("anisofem run failed on the default studies")
    return paths


def check_output() -> str:
    """What ``anisofem check`` prints."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if cli.main([CHECK]) != 0:
            raise RuntimeError("anisofem check failed")
    return buffer.getvalue()


def compare_check(text: str) -> list[str]:
    """One line per line of the check's output that differs from its
    reference."""
    ref, new = CHECK_FILE.read_text().splitlines(), text.splitlines()
    if len(new) != len(ref):
        return [f"check: {len(new)} lines, reference {len(ref)} lines"]
    return [f"check: {a!r} is now {b!r}" for a, b in zip(ref, new) if a != b]


def _same_float(ref: str, new: str) -> bool:
    """Whether both texts parse to one float64, bit for bit."""
    try:
        return np.float64(ref).tobytes() == np.float64(new).tobytes()
    except ValueError:
        return False


def _relative_move(ref: str, new: str) -> float:
    """|new - ref| / |ref|: inf where ref is 0, nan for text or a nan value."""
    try:
        a, b = float(ref), float(new)
    except ValueError:
        return math.nan
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _grid_point(header, row) -> str:
    """The row's (scheme, n, eps, sigma, alpha), numbers in %g."""
    def text(value: str) -> str:
        try:
            return f"{float(value):g}"
        except ValueError:
            return value
    return ", ".join(f"{name} {text(row[header.index(name)])}" for name in GRID_POINT)


def compare(kind: str, rows) -> list[str]:
    """One line per column of kind's output that differs from its
    reference: how many values moved and the largest relative move, and
    how many changed in their text only (the same float, written
    otherwise), which is a difference too.  A changed solve_status adds
    one line per row that changed, naming its grid point."""
    ref = read_rows(REFERENCE_DIR / f"{kind}.csv")
    if rows[0] != ref[0] or len(rows) != len(ref):
        return [f"{kind}: header {rows[0]} and {len(rows) - 1} rows, reference "
                f"header {ref[0]} and {len(ref) - 1} rows"]
    lines, total = [], len(ref) - 1
    for j, name in enumerate(ref[0]):
        changed = [(a[j], b[j]) for a, b in zip(ref[1:], rows[1:]) if a[j] != b[j]]
        text_only = sum(_same_float(a, b) for a, b in changed)
        moves = [_relative_move(a, b) for a, b in changed if not _same_float(a, b)]
        parts = []
        if moves:
            numeric = [m for m in moves if not math.isnan(m)]
            largest = f"{max(numeric):.3g}" if numeric else "n/a (text or nan)"
            parts.append(f"{len(moves)} of {total} values moved, largest "
                         f"relative move {largest}")
        if text_only:
            parts.append(f"{text_only} of {total} values changed in text only, "
                         "not in value")
        if parts:
            lines.append(f"{kind}.{name}: " + "; ".join(parts))
        if name == STATUS:
            lines += [f"{kind}.{name}: {a[j]} -> {b[j]} at {_grid_point(ref[0], a)}"
                      for a, b in zip(ref[1:], rows[1:]) if a[j] != b[j]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    every = [*STUDIES, CHECK]
    parser.add_argument("kinds", nargs="*", metavar="KIND",
                        help=f"outputs to run (default: all of {', '.join(every)})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the references instead of comparing")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.kinds) - set(every))
    if unknown:
        parser.error(f"unknown KIND(s) {unknown}")
    kinds = args.kinds or every
    studies = [kind for kind in kinds if kind != CHECK]
    with tempfile.TemporaryDirectory() as tmp:
        paths = run_defaults(studies, tmp) if studies else {}
        outputs = {kind: read_rows(path) for kind, path in paths.items()}
    check = check_output() if CHECK in kinds else None
    if args.update:
        REFERENCE_DIR.mkdir(exist_ok=True)
        for kind, rows in outputs.items():
            with open(REFERENCE_DIR / f"{kind}.csv", "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        if check is not None:
            CHECK_FILE.write_text(check)
        VERSIONS.write_text(json.dumps(versions(), indent=2) + "\n")
        print(f"wrote {len(set(kinds))} reference(s) to {REFERENCE_DIR}")
        return 0
    moved = [line for kind, rows in outputs.items() for line in compare(kind, rows)]
    if check is not None:
        moved += compare_check(check)
    print("\n".join(version_mismatch() + moved
                    + [f"{len(set(kinds))} outputs compared, {len(moved)} moved "
                       "column(s) or line(s)"]))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
