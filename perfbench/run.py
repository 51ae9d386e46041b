"""hlc verdict benchmark: one closed-loop client, one process, one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload member --seed 0 --seconds 10 --trace 0

The workload's seeded queries are asked one at a time, each only after the
previous verdict returned, in the number of whole passes that comes closest
to ``--seconds`` (at least one, so every run sees the same query mix).  Every
verdict is checked outside the timed region.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes the same untraced passes, then one
traced pass, and reports the per-layer metrics of that pass (see
``layers.py``).  The last stdout line is the result object; the line before
it, and ``perfbench/out/``, hold the full record with its provenance.

Timings are wall clock scaled to a reference machine speed.  On a shared
host the CPU runs for tens of seconds at a time in states up to 1.7 times
apart, which no affordable run length averages out.  So a fixed slice of
interpreter work (``calibration_slice``, benchmark code that no library
change touches) runs between queries, and each query's wall time is scaled
by ``REFERENCE_SLICE_S`` over the mean of the slices taken just before and
after it: the reported milliseconds are those of a machine on which one
slice takes exactly ``REFERENCE_SLICE_S``.  The record keeps the unscaled
wall-clock figures beside them.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
MIN_BEYOND = 10  # a reported percentile needs this many samples above it
MAX_TRACEBACKS = 5
REFERENCE_SLICE_S = 0.001  # nominal duration of one calibration slice


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values) -> float:
    return percentile(values, 50)[0]


def error_rate(failed: int, attempted: int) -> float:
    """Failed verdicts over every query attempted, failures included."""
    if attempted < 1:
        raise ValueError("no queries attempted")
    return failed / attempted


def calibration_slice() -> float:
    """Seconds that a fixed slice of dict, tuple and list work takes right now."""
    gc.disable()  # a collection here would charge the library's heap to the slice
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i % 101, i % 7] = [i, (i, i + 1)]
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(seconds: float, slices) -> float:
    """``seconds`` of wall time at the speed where one slice takes REFERENCE_SLICE_S."""
    return seconds * REFERENCE_SLICE_S * len(slices) / sum(slices)


def _checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "hlc" / "__init__.py").is_file():
        sys.exit("perfbench: run from the root of an hlc checkout (src/hlc not found)")
    return root


def _timed_setup(root: Path, workload: str, seed: int):
    """Import the library from the checkout and build the workload's inputs;
    return the workload and the scaled set-up time."""
    slices = [calibration_slice() for _ in range(7)][2:]  # two to warm up
    start = time.perf_counter()
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import hlc
    import workloads

    if Path(hlc.__file__).resolve().parent != root / "src" / "hlc":
        sys.exit(f"perfbench: imported hlc from {hlc.__file__}, not from the checkout")
    bench = workloads.build(workload, seed)
    seconds = time.perf_counter() - start
    slices += [calibration_slice() for _ in range(5)]
    return bench, scale(seconds, slices)


def _child_setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _run_pass(bench, tracer=None):
    """Ask every query once; return (wall latencies, scaled latencies, failures)."""
    latencies, scaled, failures = [], [], 0
    ctx = bench.new_pass()
    before = calibration_slice()
    for qid, query in enumerate(bench.queries):
        inputs = query.build()
        problem = None
        if tracer is not None:
            tracer.query, tracer.phase = qid, "query"
        start = time.perf_counter()
        try:
            if tracer is None:
                verdict = bench.ask(ctx, query, inputs)
            else:
                with tracer.span("bench.query"):
                    verdict = bench.ask(ctx, query, inputs)
        except Exception:  # a query that raises is a failed verdict; keep measuring
            problem = traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        after = calibration_slice()
        scaled.append(scale(latencies[-1], (before, after)))
        before = after
        if problem is None:
            if tracer is not None:
                tracer.phase = "check"
            try:
                problem = bench.check(query, inputs, verdict)
            except Exception:
                problem = traceback.format_exc()
        if problem is not None:
            failures += 1
            if failures <= MAX_TRACEBACKS:
                print(f"perfbench: query {qid} ({query.kind}) failed: {problem}", file=sys.stderr)
    return latencies, scaled, failures


def _run_passes(bench, seconds: float):
    """Whole passes, as many as bring the run closest to ``seconds`` (at least one)."""
    latencies, scaled, failures, passes = [], [], 0, 0
    start = time.perf_counter()
    while True:
        lat, lat_scaled, fail = _run_pass(bench)
        latencies += lat
        scaled += lat_scaled
        failures += fail
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            return latencies, scaled, failures, passes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha1(root: Path) -> str:
    digest = hashlib.sha1()
    for path in sorted((root / "src" / "hlc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(root),
        "source_sha1": _source_sha1(root),
    }


def _timing_metrics(latencies) -> tuple[dict, int]:
    p50, _ = percentile(latencies, 50)
    p90, beyond = percentile(latencies, 90)
    if beyond < MIN_BEYOND:
        raise SystemExit(f"perfbench: only {beyond} samples beyond p90")
    return {
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_p90_ms": (p90 * 1000.0, "ms"),
        "throughput_qps": (len(latencies) / sum(latencies), "1/s"),
    }, beyond


def _end_to_end_metrics(latencies, scaled, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled figures and sample counts behind them."""
    timings, beyond = _timing_metrics(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (median(setups), "s"), **timings, "peak_rss_mb": (rss_mb, "MB")}
    wall = {name: value for name, (value, _) in _timing_metrics(latencies)[0].items()}
    samples = {
        "setup_samples_s": setups,
        "latency_p90": {"samples": len(scaled), "beyond": beyond},
        "wall_clock": wall,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples


def _traced_pass(bench, scaled, passes):
    """One traced pass over the same queries: (tracer, per-layer metrics, latencies, failures)."""
    import layers

    tracer = layers.Tracer()
    with layers.installed(tracer):
        traced, traced_scaled, failures = _run_pass(bench, tracer)
    overhead = sum(traced_scaled) / (sum(scaled) / passes)
    values = layers.layer_metrics(tracer, overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS}
    return tracer, metrics, traced, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("member", "derive", "iso", "models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = _checkout_root()
    if args.setup_only:
        _, seconds = _timed_setup(root, args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    # Byte-compile first so that every set-up sample imports from warm bytecode.
    compileall.compile_dir(root / "src" / "hlc", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    bench, own_setup = _timed_setup(root, args.workload, args.seed)
    latencies, scaled, failures, passes = _run_passes(bench, args.seconds)
    tracer = None
    if args.trace:
        tracer, metrics, traced, traced_failures = _traced_pass(bench, scaled, passes)
        latencies, failures = latencies + traced, failures + traced_failures
        samples = {}
    else:
        setups = [own_setup] + [
            _child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics, samples = _end_to_end_metrics(latencies, scaled, setups)
    result = {"correct": failures == 0, "attempted": len(latencies), "failed": failures}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "queries_per_pass": len(bench.queries),
        "passes": passes,
        **result,
        "error_rate": error_rate(failures, len(latencies)),
        **samples,
        **provenance(root),
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.tsv.gz")
    print(json.dumps(record))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
