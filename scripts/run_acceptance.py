#!/usr/bin/env python3
"""Run every acceptance suite and print a one-line verdict per criterion.

Criteria 4, 6, and 10 live only in tests/test_acceptance.py (they need the
shared corpus fixtures); this script covers the seven suite-backed criteria
and is the quick smoke for a fresh checkout.  ``--seed`` changes every
randomized suite at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hlc.suites import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", choices=list(SUITES), action="append")
    parser.add_argument("--out", metavar="DIR", help="also write one report per suite")
    args = parser.parse_args()
    names = args.only or list(SUITES)
    failures = 0
    for name in names:
        report = run_suite(name, seed=args.seed)
        verdict = "PASS" if report["failures"] == 0 else "FAIL"
        print(
            f"{name:<11} {verdict}  cases={report['cases']:<6} "
            f"failures={report['failures']:<3} elapsed={report['elapsed_s']}s"
        )
        if report["failures"]:
            failures += 1
            for item in report["discrepancies"]:
                print(f"  {item}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.json").write_text(json.dumps(report, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
