"""traceforms benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see bench/README.md): cubic-search, cubic-witness,
quartic-scan.

Set-up (importing the package and building the workload's inputs) runs
SETUPS times, half before the timed part and half after it, and reports
the median as `setup_s`.  The timed part makes whole closed-loop passes
over the inputs for about S seconds: a new pass starts only if the last
pass's duration still fits, and at least one pass runs.  Times are the
process's CPU time at a reference speed (speed.py): the workloads run in
one thread and never wait, so CPU time is their wall time minus the time
the machine gave the processor to others, and a speed probe that runs
alongside them scales out the drift of the machine's speed.  With
`--trace 0` it prints the end-to-end metrics.  With
`--trace 1` it makes one untraced pass and then traced passes, prints the
per-layer metrics of the last traced pass (pair latencies from the
untraced pass) and the tracing overhead, and writes that pass's spans to
bench/out/.

The line before the last is a report: output digest, failed check names
and, untraced, fail_ratio and the pair latencies with their percentile and
sample counts, and the raw CPU times with the probe's tick times.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 12
TAIL_PERCENTILES = (99.9, 99.5, 99, 95, 90, 75, 50)
MODULES = ("cli", "cubicsearch", "decide", "errors", "numberfield", "polys",
           "quadform", "raminv")


class Library:
    """The package's modules, from one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m.split(".")[0] == "traceforms"]:
            del sys.modules[name]
        importlib.import_module("traceforms")
        for name in MODULES:
            setattr(self, name, importlib.import_module("traceforms." + name))


def pair_latency(passes):
    """Pair-step latency over the passes: p50 in ms, and the highest
    percentile of TAIL_PERCENTILES with at least 10 samples beyond it, as
    (p50, percentile, value in ms, samples, samples beyond)."""
    ordered = sorted(ns for res in passes for ns in res.pair_ns)
    n = len(ordered)
    p50 = statistics.median(ordered) / 1e6
    for q in TAIL_PERCENTILES:
        rank = max(1, -(-round(q * 10) * n // 1000))  # nearest rank, 1-based
        if n - rank >= 10 or q == TAIL_PERCENTILES[-1]:
            return p50, q, ordered[rank - 1] / 1e6, n, n - rank


def end_to_end(passes, setup_s, peak_rss_mib, raw):
    pairs = [res.tally["pairs"] for res in passes]
    attempted = sum(res.checks.attempted for res in passes)
    failed = sum(res.checks.failed for res in passes)
    decided = sum(res.tally["decide.decided"] for res in passes)
    tried = sum(res.tally["decide.attempted"] for res in passes)
    p50, q, tail_ms, n, beyond = pair_latency(passes)
    metrics = {
        "ref_cpu_s": (statistics.median(res.cpu_s for res in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "pairs_per_s": (statistics.median(p / res.cpu_s for p, res in zip(pairs, passes)),
                        "pairs/s"),
        "decided_ratio": (decided / tried if tried else 1.0, "ratio"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    report = {"wall_s": [r.wall_s for r in passes], "pair_p50_ms": p50,
              "pair_tail_ms": tail_ms, "pair_tail_percentile": q, "pair_samples": n,
              "pair_samples_beyond_tail": beyond, "fail_ratio": failed / attempted,
              "checks_attempted": attempted, "checks_failed": failed,
              "decided": [decided, tried], **raw}
    return metrics, report


LAYER_TIMES = {
    "cubicsearch.enumerate_s": ("cubicsearch.enumerate",),
    "numberfield.build_s": ("numberfield.build",),
    "numberfield.trace_gram_s": ("numberfield.trace_gram",),
    "numberfield.profile_s": ("numberfield.ramification_profile",),
    "polys.filter_s": ("polys.discriminant", "polys.is_irreducible_int"),
    "raminv.check_s": ("raminv.first_ramification_factor", "raminv.nonresidue_odd_count",
                       "raminv.tame_diagonal_form", "raminv.local_trace_model"),
    "decide.busy_s": "decide.",
    "quadform.genus_equal_s": ("quadform.genus_equal",),
    "quadform.local_symbol_s": ("quadform.local_symbol", "quadform.signature"),
    "quadform.witness_s": ("quadform.witness",),
}
LAYER_COUNTS = (
    "cubicsearch.fields", "cubicsearch.groups", "cubicsearch.fields_missing",
    "cubicsearch.fields_extra", "numberfield.builds", "polys.candidates",
    "polys.irreducible", "raminv.checks", "raminv.checks_failed",
    "raminv.unsupported_splitting", "decide.calls", "decide.verdicts",
    "decide.skip_hypothesis", "decide.skip_tameness",
    "decide.skip_unsupported_splitting", "quadform.genus_equal_calls",
    "quadform.witness_groups", "quadform.witness_attempted",
    "quadform.witness_found",
)


def per_layer(res, spans, untraced, untraced_cpu, traced_cpu):
    """Layer metrics of the traced pass `res`; the pair-step latencies come
    from the untraced passes, so spans do not inflate them."""
    from tracing import self_seconds_by_name

    own = self_seconds_by_name(spans)
    p50, _, tail_ms, _, _ = pair_latency(untraced)
    metrics = {"pair_p50_ms": (p50, "ms"), "pair_tail_ms": (tail_ms, "ms")}
    for metric, names in LAYER_TIMES.items():
        if isinstance(names, str):
            value = sum(s for name, s in own.items() if name.startswith(names))
        else:
            value = sum(own[name] for name in names)
        metrics[metric] = (float(value), "s")
    for metric in LAYER_COUNTS:
        metrics[metric] = (res.tally[metric], "count")
    attempted = res.tally["quadform.witness_attempted"]
    metrics["quadform.witness_rate"] = (
        res.tally["quadform.witness_found"] / attempted if attempted else 0.0, "ratio")
    metrics["quadform.witness_group_max_s"] = (res.witness_group_max_s, "s")
    metrics["trace.overhead_s"] = (traced_cpu - untraced_cpu, "s")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


def timed_setups(setup, seed, spans, count):
    """Set up `count` times from a fresh import, appending each set-up's
    (start, end) process times to `spans`; returns the last library and
    inputs."""
    for _ in range(count):
        start = time.process_time()
        lib = Library()
        inputs = setup(lib, seed)
        spans.append((start, time.process_time()))
    return lib, inputs


def timed_pass(lib, run, inputs, tracer):
    start, cpu = time.perf_counter(), time.process_time()
    res = run(lib, inputs, tracer)
    res.cpu_span = (cpu, time.process_time())
    res.wall_s = time.perf_counter() - start
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traceforms benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "traceforms" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from speed import SpeedProbe
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run = WORKLOADS[args.workload]

    # The set-ups are split between two windows half a minute apart rather
    # than run back to back, so that they sample the machine's speed twice.
    setup_spans, passes, traced = [], [], []
    with SpeedProbe() as probe:
        lib, inputs = timed_setups(setup, args.seed, setup_spans, SETUPS // 2)
        begin = time.perf_counter()
        while True:
            if args.trace and passes:
                tracer = Tracer(f"{args.workload}-{args.seed}-{len(traced)}")
                res = timed_pass(lib, run, inputs, tracer)
                traced.append((res, tracer))
            else:
                res = timed_pass(lib, run, inputs, NullTracer())
                passes.append(res)
            elapsed = time.perf_counter() - begin
            if elapsed + res.wall_s > args.seconds and (traced or not args.trace):
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            timed_setups(setup, args.seed, setup_spans, SETUPS - SETUPS // 2)

    checked = passes + [t[0] for t in traced]
    for res in checked:
        res.cpu_s = probe.scaled_cpu(*res.cpu_span)
        res.pair_ns = [1e9 * probe.scaled_cpu(*span) for span in res.pair_cpu]
        res.witness_group_max_s = max(
            (probe.scaled_cpu(*span) for span in res.witness_cpu), default=0.0)
    digests = {res.digest() for res in checked}
    correct = len(digests) == 1
    report = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
              "traced_passes": len(traced), "digest": sorted(digests)}
    if args.trace:
        res, tracer = traced[-1]
        spans = tracer.spans()
        metrics = per_layer(res, spans, passes, statistics.median(r.cpu_s for r in passes),
                            statistics.median(t[0].cpu_s for t in traced))
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.jsonl")
    else:
        raw = {"raw_cpu_s": [probe.raw_cpu(*r.cpu_span) for r in passes],
               "raw_setup_s": statistics.median(probe.raw_cpu(*s) for s in setup_spans),
               "tick_ms": [round(1e3 * q, 4) for q in
                           statistics.quantiles(probe.costs, n=10)[::4]]}
        setup_s = statistics.median(probe.scaled_cpu(*s) for s in setup_spans)
        metrics, extra = end_to_end(passes, setup_s, peak_rss_mib, raw)
        report.update(extra)
    attempted = sum(r.checks.attempted for r in checked)
    failed = sum(r.checks.failed_exact for r in checked)
    report["failed_checks"] = sorted({name for r in checked for name in r.checks.failures})
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
