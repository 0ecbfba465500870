"""Compare the CLI outputs of two checkouts byte for byte.

    python tools/cmp_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two hawkpair checkouts. Each call below
runs as `python -m hawkpair.cli ...` from each checkout's `src/`, with one
BLAS thread, in an empty working directory; its stdout, stderr and exit code
must be the same on both sides. Prints one line per call and exits 1 when any
call differs, 0 otherwise. Where both stdouts are JSON, a differing call is
followed by one line per key whose values moved: how many did, and the
largest move in ulps of the parent's value and relative to it. Uses only the
standard library.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the figure presets, an asymmetric sweep whose JSON gives the oracle's values
# at full precision (N from 8 to 190, and the cap note on stderr), a
# closed-only asymmetric sweep whose JSON gives the series at full precision
# out to r = 6 (60 asymmetric rows, Bob's N up to 2,186,951, where each side's
# marginal takes its own cutoff and the Euler-Maclaurin paths run), 40
# asymmetric points at one cutoff as JSON (the oracle's chunks of 18, 18 and 4
# and the series' batches at full precision), the seed-0 calls of the
# benchmark's oracle-sweep workload, and one call per error exit code
# (3, 3, 2, 4)
CALLS = (
    ("fig2",),
    ("fig2", "--format", "json"),
    ("fig3",),
    ("sweep", "--r-min", "0.05", "--r-max", "1.6", "--steps", "32", "--omega-ratio", "0.5", "--format", "json"),
    ("sweep", "--r-min", "0", "--r-max", "6", "--steps", "61", "--omega-ratio", "0.7", "--methods", "closed",
     "--format", "json"),
    ("sweep", "--r-min", "0.3", "--r-max", "1.3", "--steps", "40", "--omega-ratio", "1.5", "--nmax", "14",
     "--format", "json"),
    *(
        ("sweep", "--r-min", "0.4", "--r-max", "1.4", "--steps", "6", "--omega-ratio", "2.0", "--nmax", n)
        for n in ("8", "11", "14")
    ),
    ("compare", "--r", "0.9", "--nmax", "14"),
    ("point", "--mass", "0.025", "--omega", "1.0", "--omega-prime", "2.0", "--nmax", "14", "--format", "json"),
    ("point", "--r", "20", "--methods", "closed"),
    ("compare", "--r", "1.0", "--nmax", "201"),
    ("point", "--r", "-1"),
    ("point", "--r", "0.3", "--methods", "closed", "--out", "missing/out.csv"),
)


def run(root: Path, argv: tuple) -> tuple:
    """stdout, stderr and exit code of one CLI call from root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-m", "hawkpair.cli", *argv], cwd=cwd, env=env, capture_output=True, timeout=600
        )
    return done.stdout, done.stderr, done.returncode


def moved(before: bytes, after: bytes) -> list:
    """Per key of two JSON outputs (a row or a list of rows) whose values
    differ: (key, changed values, largest move in ulps of the parent's value,
    largest move relative to it), the last two over the numbers only (nan
    when no number moved). Empty when either side is not JSON rows or their
    row counts differ."""
    try:
        old, new = (rows if isinstance(rows, list) else [rows] for rows in map(json.loads, (before, after)))
    except ValueError:
        return []
    if len(old) != len(new) or not all(isinstance(row, dict) for row in old + new):
        return []
    report = []
    for key in {key: None for row in old + new for key in row}:
        pairs = [(a, b) for a, b in ((o.get(key), n.get(key)) for o, n in zip(old, new)) if a != b]
        moves = [(a, abs(b - a)) for a, b in pairs if _number(a) and _number(b)]
        ulps = max((move / math.ulp(a) for a, move in moves), default=math.nan)
        rel = max((move / abs(a) if a else math.inf for a, move in moves), default=math.nan)
        if pairs:
            report.append((key, len(pairs), ulps, rel))
    return report


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:])
    differ = 0
    for call in CALLS:
        before, after = run(parent, call), run(change, call)
        parts = [name for name, a, b in zip(("stdout", "stderr", "exit code"), before, after) if a != b]
        differ += bool(parts)
        status = f"DIFFERS in {', '.join(parts)}" if parts else f"same (exit {after[2]})"
        print(f"{status}: hawkpair {' '.join(call)}")
        if "stdout" in parts:
            for key, count, ulps, rel in moved(before[0], after[0]):
                print(f"    {key}: {count} moved, at most {ulps:.3g} ulp ({rel:.3g} relative)")
    print(f"{differ} of {len(CALLS)} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
