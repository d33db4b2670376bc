"""Self-tests of the benchmark's checks and span arithmetic.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import Checks, check_counts, completeness, det_int, witness_ok  # noqa: E402
from tracing import Tracer, covered, self_times  # noqa: E402
from workloads import KNOWN_MISSING, load_reference  # noqa: E402


def test_det_int():
    assert det_int([[2, 1], [1, 2]]) == 3
    assert det_int([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0


def test_witness_check_accepts_library_witness_and_rejects_corruption():
    from traceforms import FieldRecord, field_from_record, trace_gram
    from traceforms.quadform import pairwise_witnesses

    reference = load_reference(1000)
    polys = [(b, a, 0, 1) for a, b in reference[-972]]
    grams = [trace_gram(field_from_record(FieldRecord(label=str(p), poly=p)))
             for p in polys]
    u = pairwise_witnesses(grams, 8)[(0, 1)]
    g1, g2 = grams[0].entries, grams[1].entries
    assert witness_ok(g1, g2, u)
    for r in range(3):
        for c in range(3):
            bad = [row[:] for row in u]
            bad[r][c] += 1
            assert not witness_ok(g1, g2, bad), (r, c)
    assert not witness_ok(g1, g2, [row[:2] for row in u])


def test_witness_check_needs_unimodular_matrix():
    g1 = [[1, 0], [0, 1]]
    u = [[2, 0], [0, 2]]  # U^T G U = 4 G, det 4
    assert witness_ok(g1, [[4, 0], [0, 4]], [[1, 0], [0, 1]]) is False
    assert witness_ok(g1, [[4, 0], [0, 4]], u) is False
    assert witness_ok([[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[1, 0], [0, -1]])


def test_completeness_flags_a_field_removed_from_search_output():
    from traceforms import enumerate_cubic_fields

    limit = 1000
    reference = {d: len(v) for d, v in load_reference(limit).items()}
    classes = enumerate_cubic_fields(limit)
    found = Counter(c.disc for c in classes)
    assert all(want == got for _, want, got in completeness(found, reference, limit))
    dropped = classes[len(classes) // 2]
    found = Counter(c.disc for c in classes if c is not dropped)
    bad = [(d, want, got) for d, want, got in completeness(found, reference, limit)
           if want != got]
    assert bad == [(dropped.disc, reference[dropped.disc], reference[dropped.disc] - 1)]
    checks = Checks()
    check_counts(checks, found, reference, limit, KNOWN_MISSING)
    assert (checks.failed, checks.failed_exact) == (1, 1)


def test_completeness_flags_an_extra_field_and_respects_the_limit():
    reference = {-23: 1, -31: 1, 5000: 1}
    found = {-23: 2, -31: 1, 7000: 3}
    assert completeness(found, reference, 6000) == [(-31, 1, 1), (-23, 1, 2), (5000, 1, 0)]


def test_only_the_known_shortfalls_are_audit_failures():
    reference = {-3159: 2, -6183: 3, -6583: 2, -6600: 1}
    checks = Checks()
    check_counts(checks, {-3159: 1, -6183: 2, -6583: 1, -6600: 1}, reference, 6600,
                 KNOWN_MISSING)
    assert (checks.attempted, checks.failed, checks.failed_exact) == (4, 3, 0)
    for found in ({-3159: 1, -6183: 2, -6583: 1, -6600: 0},  # one more lost
                  {-3159: 0, -6183: 2, -6583: 1, -6600: 1},  # two lost at a known disc
                  {-3159: 3, -6183: 3, -6583: 2, -6600: 1},  # an extra field
                  {-3159: 2, -6183: 3, -6583: 2, -6600: 1, -23: 1}):  # a disc too many
        checks = Checks()
        check_counts(checks, found, reference, 6600, KNOWN_MISSING)
        assert checks.failed_exact == 1, found


def test_reference_totals():
    assert sum(len(v) for v in load_reference(20000).values()) == 4001
    assert sum(len(v) for v in load_reference(10000).values()) == 1902
    assert sum(1 for v in load_reference(20000).values() if len(v) > 1) == 111


def test_audit_failures_are_not_exact_failures():
    checks = Checks()
    checks.check(True, "a")
    checks.check(False, "b", audit=True)
    checks.check(False, "c")
    assert (checks.attempted, checks.failed, checks.failed_exact) == (3, 2, 1)
    assert checks.failures == ["b", "c"]


def test_covered_counts_overlaps_once():
    assert covered([]) == 0
    assert covered([(10, 30), (20, 50), (60, 70)]) == 50
    assert covered([(0, 10), (0, 10)]) == 10
    assert covered([(0, 100), (10, 20)]) == 100


def test_self_time_subtracts_overlapping_children():
    spans = [
        ("workload", 0, 100, None),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps a
        ("c", 90, 120, 0),  # runs past the parent's end
        ("d", 25, 28, 2),  # grandchild: counts against b only
    ]
    assert self_times(spans) == [100 - (40 + 10), 20, 30 - 3, 30, 3]


def test_tracer_nests_spans():
    tracer = Tracer("t")
    with tracer.span("workload"):
        with tracer.span("pair"):
            with tracer.span("decide.x"):
                pass
        with tracer.span("pair"):
            pass
    spans = tracer.spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("workload", None), ("pair", 0), ("decide.x", 1), ("pair", 0)]
    assert all(start <= end for _, start, end, _ in spans)
    durations = [end - start for _, start, end, _ in spans]
    own = self_times(spans)
    assert own[1] == durations[1] - durations[2]
    assert own[0] == durations[0] - durations[1] - durations[3]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quartic-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    import json

    import run
    from workloads import PassResult

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    res = PassResult()
    res.pair_ns = [1_000_000 + i for i in range(40)]
    res.tally["pairs"] = 40
    res.checks.check(True, "x")
    res.cpu_s = res.wall_s = 2.0
    metrics, _ = run.end_to_end([res], 0.5, 30.0, {})
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = run.per_layer(res, [("workload", 0, 10, None)], [res], 2.0, 2.1)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_tail_percentile_keeps_ten_samples_beyond():
    import run
    from workloads import PassResult

    res = PassResult()
    res.pair_ns = list(range(1, 2416))
    p50, q, value, n, beyond = run.pair_latency([res])
    assert (p50, q, n, beyond) == (1208 / 1e6, 99.5, 2415, 12)
    assert value == res.pair_ns[2415 - 12 - 1] / 1e6
    for n, q in ((68, 75), (110, 90)):
        res.pair_ns = list(range(n))
        assert run.pair_latency([res])[1] == q


def test_scaled_cpu_scales_each_stretch_by_its_local_tick():
    from speed import REF_TICK_S, SpeedProbe

    probe = SpeedProbe()
    # Ticks at process times 1..10: the first five take the reference
    # time, the last five twice that.
    probe.starts = [float(i) for i in range(1, 11)]
    probe.costs = [REF_TICK_S] * 5 + [2 * REF_TICK_S] * 5
    assert probe.raw_cpu(0.5, 3.5) == 3.0 - 3 * REF_TICK_S
    assert abs(probe.scaled_cpu(0.5, 3.5) - probe.raw_cpu(0.5, 3.5)) < 1e-12
    # Past the switch every stretch runs at half the reference speed.
    assert abs(probe.scaled_cpu(8.5, 9.5) - (1.0 - 2 * REF_TICK_S) / 2) < 1e-12
    # Before the first tick the nearest ticks set the speed.
    assert abs(probe.scaled_cpu(0.2, 0.7) - 0.5) < 1e-12
