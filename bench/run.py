"""Benchmark for the cohere engine.

Run from the repository root::

    python3 bench/run.py --workload entail-loops --seed 1 --seconds 25 --trace 0

The engine is imported from ``src/`` next to this directory.  With
``--trace 0`` the run times whole passes over the seed's query list, as many
as fit in ``--seconds`` (at least one), with tracing off, and reports the
end-to-end metrics with timings scaled to a reference machine speed (see
``calibrate``).  With ``--trace 1`` it runs a shorter list from the same
seed, each query once untraced and once under each of two tracers, fails
unless every count repeats exactly, and reports the per-layer metrics.
Every answer is checked against an independent reference after the timed
region.  The last line of standard output is one JSON object; a summary
with sample counts goes to standard error, and spans and a full report go
to ``bench/.out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_PROBES = 5
# Size of the traced runs' query list relative to the timed runs' list.
TRACE_SCALE = {"entail-loops": 1.0, "random-assess": 1 / 3, "wide-kb": 1 / 3}
# A run stops starting queries after this many multiples of --seconds, so a
# much slower engine still ends in time.
HARD_STOP = 4
# Seconds one calibration slice takes at the reference speed; see calibrate().
REFERENCE_SLICE_S = 0.005
PROBE_SLICES = 20
SLICE_WINDOW = 5


class SetupError(Exception):
    pass


def import_engine():
    """Import ``cohere`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cohere", "__init__.py")):
        raise SetupError(f"no engine sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cohere
    import cohere.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(cohere.__file__))) != SRC:
        raise SetupError(f"imported cohere from {cohere.__file__}, not from {SRC}")
    import workloads

    return workloads


def build(name: str, seed: int, workdir: str, scale: float = 1.0):
    workloads = import_engine()
    return workloads.WORKLOADS[name](seed, workdir, scale)


def calibrate() -> float:
    """Seconds for one fixed slice of interpreter work (rational arithmetic
    and dict stores, the engine's own mix) that shares no code with the
    engine.

    A shared virtual machine can change speed by a factor of 1.5 to 2 for
    tens of seconds at a time (measured on a 2-core one), which moves every
    timing of a run together.  Slices interleaved with the queries measure
    that speed, and every end-to-end timing is reported at the reference
    speed, at which a slice takes REFERENCE_SLICE_S: measured time divided
    by (mean nearby slice / REFERENCE_SLICE_S).  A change to the engine
    moves the timings and not the slices."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        table[i % 50] = total
    return time.perf_counter() - start


def slowdown(slices) -> float:
    return statistics.fmean(slices) / REFERENCE_SLICE_S


def at_reference_speed(lat, slices):
    """Each latency divided by the slowdown that the slices taken within
    SLICE_WINDOW queries of it measure, so that a change of machine speed in
    mid-run is followed."""
    out = []
    for i, x in enumerate(lat):
        near = slices[max(0, i - SLICE_WINDOW): i + SLICE_WINDOW + 1]
        out.append(x / slowdown(near))
    return out


def setup_probe(name: str, seed: int, scale: float) -> None:
    """Child-process entry: time import plus input generation, then print
    it with the process's slowdown."""
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        build(name, seed, workdir, scale)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed), repr(slowdown([calibrate() for _ in range(PROBE_SLICES)])))


def measure_setup(name: str, seed: int, scale: float) -> list[tuple[float, float]]:
    """(seconds, slowdown) of each set-up probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--scale", repr(scale), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        elapsed, factor = done.stdout.split()
        samples.append((float(elapsed), float(factor)))
    return samples


# ---------------------------------------------------------------------------
# Running queries
# ---------------------------------------------------------------------------


def run_one(i, q, tracer=None):
    """Run one query: (index, seconds, answer, error)."""
    if tracer is not None:
        tracer.request = i
        span = tracer.open("bench.query")
    start = time.perf_counter()
    try:
        answer, error = q.run(), None
    except Exception:  # a failing query is counted, not fatal
        answer, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
    return i, elapsed, answer, error


def timed_passes(queries, seconds):
    """Whole passes, as many as fit in ``seconds`` judged by the last pass,
    with a calibration slice after each query; returns the records and the
    slice times."""
    records, slices = [], []
    start = time.perf_counter()
    deadline = start + HARD_STOP * seconds
    while True:
        pass_start = time.perf_counter()
        for i, q in enumerate(queries):
            if time.perf_counter() > deadline:
                return records, slices
            records.append(run_one(i, q))
            slices.append(calibrate())
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return records, slices


def verify(queries, records):
    """Count failed executions: errors, wrong answers, and answers that
    differ from the first answer to the same query."""
    first = {}
    failed = 0
    shown = 0
    for i, _, answer, error in records:
        bad = error is not None
        if not bad:
            if i not in first:
                try:
                    ok = queries[i].verify(answer)
                except Exception:
                    ok, error = False, traceback.format_exc()
                first[i] = (answer, ok)
            ref, ok = first[i]
            bad = not ok or answer != ref
        if bad:
            failed += 1
            if shown < 3:
                shown += 1
                print(f"FAILED {queries[i].kind} [{queries[i].label}]: "
                      f"{error or repr(answer)}", file=sys.stderr)
    return failed


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_p50s(queries, records):
    out = {}
    for kind in ("check", "extend", "entail"):
        lat = [r[1] for r in records if queries[r[0]].kind == kind]
        out[kind] = (statistics.median(lat) * 1000 if lat else 0.0, len(lat))
    return out


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def end_to_end(name, seed, seconds, scale, workdir):
    setup = measure_setup(name, seed, scale)
    queries = build(name, seed, workdir, scale)
    records, slices = timed_passes(queries, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    failed = verify(queries, records)
    verify_s = time.perf_counter() - start
    lat = [r[1] for r in records]
    scaled = at_reference_speed(lat, slices)
    metrics = {
        "setup_s": (statistics.median(s / f for s, f in setup), "s"),
        "query_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "query_p90_ms": (quantile(scaled, 90) * 1000, "ms"),
        "queries_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "samples": {"setup_s": len(setup), "queries": len(lat),
                    "passes": len(lat) // len(queries), "distinct": len(queries)},
        "slowdown": {"queries": slowdown(slices), "setup": [f for _, f in setup]},
        "measured": {"setup_s": statistics.median(s for s, _ in setup),
                     "query_p50_ms": statistics.median(lat) * 1000,
                     "query_p90_ms": quantile(lat, 90) * 1000,
                     "queries_per_s": len(lat) / sum(lat)},
        "busy_s": sum(lat),
        "verify_s": verify_s,
        "kind_p50_ms": kind_p50s(queries, records),
        "error_rate": failed / len(records),
    }
    return len(records), failed, True, metrics, report


def traced(name, seed, scale, workdir):
    from cohere import simplex
    from tracer import Tracer, layer_metrics

    queries = build(name, seed, workdir, scale * TRACE_SCALE[name])

    # Each query runs untraced and under both tracers back to back, the
    # three taking turns at going first, so that neither drift in machine
    # speed nor the first run's warm-up lands on one side of the overhead.
    tracers = (Tracer(), Tracer())
    plain, passes = [], ([], [])
    rotations = ((None, 0, 1), (0, 1, None), (1, None, 0))
    for i, q in enumerate(queries):
        for which in rotations[i % 3]:
            if which is None:
                plain.append(run_one(i, q))
                continue
            with tracers[which]:
                passes[which].append(run_one(i, q, tracers[which]))
    plain_busy = sum(r[1] for r in plain)
    busy = [sum(r[1] for r in records) for records in passes]
    counts = [t.counts() for t in tracers]
    deterministic = counts[0] == counts[1]
    if not deterministic:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        print(f"NONDETERMINISTIC counts between traced passes: {diff}", file=sys.stderr)

    phase1_s = tracers[0].replay_phase1(simplex.solve_eq_lp)
    tracers[0].write(os.path.join(OUT, f"spans-{name}.jsonl"))

    records = plain + passes[0] + passes[1]
    failed = verify(queries, records)
    metrics = layer_metrics(tracers[0], counts[0], phase1_s)
    p50s = kind_p50s(queries, plain)
    for kind, (value, _) in p50s.items():
        metrics[f"query.{kind}_p50_ms"] = (value, "ms")
    overhead = 100 * (statistics.median(busy) - plain_busy) / plain_busy
    metrics["trace.overhead_pct"] = (overhead, "%")
    report = {
        "samples": {"queries_per_pass": len(queries), "spans": len(tracers[0].spans)},
        "busy_s": {"untraced": plain_busy, "traced": busy},
        "counts": counts[0],
        "deterministic": deterministic,
        "kind_p50_ms": p50s,
    }
    return len(records), failed, deterministic, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_SCALE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the query lists (the self-test uses this)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.scale)
            return 0
        import_engine()
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=OUT)
        try:
            if args.trace:
                result = traced(args.workload, args.seed, args.scale, workdir)
            else:
                result = end_to_end(args.workload, args.seed, args.seconds, args.scale, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed, consistent, metrics, report = result
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(OUT, f"report-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
