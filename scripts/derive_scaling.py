#!/usr/bin/env python3
"""Time ``Prover().derive`` on ``q^n s p^n |- s`` for each ``n`` given.

Run from the root of an hlc checkout:

    python3 scripts/derive_scaling.py 20 30 40 60

Each ``n`` is one run on a fresh prover, with the types of the string
grammar of ``hlc.fixtures.build_sgr``.  Its wall time is scaled as
``perfbench/run.py`` scales a query (imported from there, unchanged): by
``REFERENCE_SLICE_S`` over the mean of the ``calibration_slice`` taken just
before and just after it.  Repeat an ``n`` to run it again.  The tree is
checked with ``check_derivation`` outside the timed region.  The output is
one JSON object with the machine, the Python version, the git revision and
one entry per run.  The revision reads "<rev> plus uncommitted changes" when
``src`` differs from it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import calibration_slice, provenance, scale  # noqa: E402  perfbench/run.py

from hlc.calculus import DerivationTree, Prover, check_derivation  # noqa: E402
from hlc.fixtures import build_sgr  # noqa: E402
from hlc.graphs import string_graph  # noqa: E402
from hlc.hltypes import Sequent  # noqa: E402


def time_derive(n: int) -> dict:
    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    sequent = Sequent(string_graph([q] * n + [s] + [p] * n), sgr.distinguished)
    before = calibration_slice()
    start = time.perf_counter()
    result = Prover().derive(sequent)
    seconds = time.perf_counter() - start
    after = calibration_slice()
    if not isinstance(result, DerivationTree):
        raise SystemExit(f"derive_scaling: n = {n} gave {type(result).__name__}")
    report = check_derivation(result)
    if report is not None:
        raise SystemExit(f"derive_scaling: n = {n}: tree fails verification: {report}")
    return {
        "n": n,
        "scaled_s": round(scale(seconds, (before, after)), 4),
        "wall_s": round(seconds, 4),
        "tree_nodes": result.size(),
    }


def _source_dirty() -> bool:
    """Whether ``git status`` lists changes under ``src`` (False outside a git checkout)."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True
    )
    return status.returncode == 0 and bool(status.stdout.strip())


def source_provenance() -> dict:
    """``perfbench/run.py``'s provenance of this checkout, its revision marked
    when ``src`` has uncommitted changes."""
    record = provenance(ROOT)
    if record["git_revision"] and _source_dirty():
        record["git_revision"] += " plus uncommitted changes"
    return record


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdigit() and int(arg) > 0 for arg in argv):
        print("usage: derive_scaling.py N [N ...]  (positive integers)", file=sys.stderr)
        return 2
    record = source_provenance()
    record["runs"] = [time_derive(int(arg)) for arg in argv]
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
