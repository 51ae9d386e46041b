#!/usr/bin/env python3
"""Benchmark a change against a parent revision in alternating pairs.

Run from the root of an hlc checkout:

    python3 scripts/bench_pairs.py PARENT derive@0 derive@12345 member@0 --out BENCH_9.json

Each ``WORKLOAD@SEED`` gets ten pairs of ``perfbench/run.py --trace 0`` runs
of ``BENCHMARK.json``'s ``run_seconds`` each, one on an extract of PARENT
(``git archive``, in a temporary directory) and one on the working tree, the
parent first in odd pairs and second in even ones, so that a drift in machine
speed falls on both sides alike.  Then each workload at seed 0 gets one
``--trace 1`` run per side for its per-layer counters.  The harness is the
one in each tree, unmodified.  The output lists every run, with the median
and quartiles (``statistics.quantiles(method='inclusive')``) per metric and
side, how many pairs the change won, and the provenance of both trees.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SECONDS = 1


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _extract(revision: str, into: Path) -> None:
    archive = into.with_suffix(".tar")
    _git("archive", "--format=tar", f"--output={archive}", revision)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One harness run in ``tree``: its record line and its result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    record, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": runs}


def _comparison(parent: dict, change: dict, better: str) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
    return {
        "change_better_pairs": wins,
        "median_ratio_change_over_parent": round(change["median"] / parent["median"], 4),
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
        "median_diff": round(change["median"] - parent["median"], 4),
    }


def _pairs(
    trees: dict[str, Path], workload: str, seed: int, spec: dict, provenance: dict
) -> dict:
    """Ten alternating pairs; ``provenance`` keeps each side's first record."""
    metrics = spec["end_to_end"]
    runs = {side: {m["name"]: [] for m in metrics} for side in trees}
    attempted = {side: [] for side in trees}
    correct = True
    for pair in range(1, PAIRS + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            record, result = _run(trees[side], workload, seed, spec["run_seconds"], 0)
            provenance.setdefault(side, record)
            print(f"{workload}@{seed} pair {pair} {side}: "
                  f"{result['metrics']['throughput_qps']['value']:.1f} qps", file=sys.stderr)
            correct = correct and result["correct"] and result["failed"] == 0
            attempted[side].append(result["attempted"])
            for m in metrics:
                runs[side][m["name"]].append(round(result["metrics"][m["name"]]["value"], 4))
    entry = {"workload": workload, "seed": seed, "pairs": PAIRS, "all_correct": correct,
             "attempted": attempted}
    for side in trees:
        entry[side] = {name: _summary(values) for name, values in runs[side].items()}
    entry["comparison"] = {
        m["name"]: _comparison(entry["parent"][m["name"]], entry["change"][m["name"]], m["better"])
        for m in metrics
    }
    return entry


def _traced_counts(trees: dict[str, Path], workload: str, spec: dict) -> dict:
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    counts = {}
    for side, tree in trees.items():
        _, result = _run(tree, workload, 0, TRACE_SECONDS, 1)
        counts[side] = {name: result["metrics"][name]["value"] for name in counters}
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent git revision")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD@SEED")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    targets = []
    for item in args.workloads:
        workload, _, seed = item.partition("@")
        if workload not in names or not seed.lstrip("-").isdigit():
            parser.error(f"not a WORKLOAD@SEED of BENCHMARK.json: {item}")
        targets.append((workload, int(seed)))
    parent_rev = _git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        _extract(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        provenance: dict[str, dict] = {}
        workloads = {
            f"{workload}_seed{seed}": _pairs(trees, workload, seed, spec, provenance)
            for workload, seed in targets
        }
        traced = {
            workload: _traced_counts(trees, workload, spec)
            for workload in dict.fromkeys(workload for workload, _ in targets)
        }
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--", "src"))
    out = {
        "what": (
            f"perfbench/run.py --workload W --seed S --seconds {spec['run_seconds']} --trace 0, "
            "unmodified, parent and change run in alternating order (odd pairs parent first); "
            "quartiles by statistics.quantiles(method='inclusive')"
        ),
        "machine": {"nproc": provenance["change"]["nproc"],
                    "cpu_model": provenance["change"]["cpu_model"]},
        "python": platform.python_version(),
        "parent": {"git_revision": parent_rev,
                   "source_sha1": provenance["parent"]["source_sha1"]},
        "change": {
            "git_revision": f"{head} plus uncommitted changes" if dirty else head,
            "source_sha1": provenance["change"]["source_sha1"],
        },
        "workloads": workloads,
        "traced_seed0_counts": {
            "what": f"perfbench/run.py --seed 0 --seconds {TRACE_SECONDS} --trace 1: "
                    "counters of the one traced pass",
            **traced,
        },
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
