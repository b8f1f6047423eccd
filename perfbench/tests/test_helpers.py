"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import statistics

import pytest

from perfbench.metrics import (
    Outcomes,
    brackets,
    check_brackets,
    check_digests,
    percentile,
    resolved_tail,
)
from perfbench.tracing import (
    Span,
    Tracer,
    covered_length,
    inclusive_times,
    layer_self_times,
    reconcile,
    self_times,
)


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(10, None), (1, None), (11, 9), (20, 50), (100, 90), (200, 95), (1000, 99)],
)
def test_resolved_tail_leaves_ten_samples_beyond(samples, expected):
    assert resolved_tail(samples) == expected


def test_resolved_tail_is_the_highest_such_percentile():
    for samples in range(11, 400):
        pct = resolved_tail(samples)
        rank = max(1, math.ceil(pct * samples / 100))
        assert samples - rank >= 10
        if pct < 99:
            assert samples - math.ceil((pct + 1) * samples / 100) < 10


def test_percentile_matches_statistics_inclusive():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(quartiles[0])
    assert percentile(values, 50) == pytest.approx(quartiles[1])
    assert percentile(values, 75) == pytest.approx(quartiles[2])
    assert percentile([4.0], 95) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- nested-span self-time arithmetic -----------------------------------


def make_spans(rows):
    """rows: (name, layer, parent, start, end)."""
    return [
        Span(index, name, layer, parent, start, end)
        for index, (name, layer, parent, start, end) in enumerate(rows)
    ]


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert covered_length([]) == 0


def test_self_time_subtracts_children_once():
    spans = make_spans(
        [
            ("root", "bench", None, 0.0, 10.0),
            ("replay", "harness.replay", 0, 1.0, 7.0),
            ("emulate", "cache.emulator", 1, 2.0, 6.0),
            ("probe", "cache.fastlru", 2, 2.5, 4.5),
            ("probe", "cache.fastlru", 2, 4.5, 5.0),
            ("capture", "core", 0, 8.0, 9.0),
        ]
    )
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.5, 3: 2.0, 4: 0.5, 5: 1.0})
    layers = layer_self_times(spans)
    assert layers["cache.fastlru"] == pytest.approx(2.5)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert reconcile(spans, spans[0]) == pytest.approx(0.0)
    assert inclusive_times(spans)["probe"] == pytest.approx(2.5)


def test_overlapping_children_break_reconciliation():
    # Two children overlapping in time (concurrent threads) leave the
    # parent's self time right but double-count the overlap in the sum.
    spans = make_spans(
        [
            ("root", "bench", None, 0.0, 4.0),
            ("a", "x", 0, 0.0, 3.0),
            ("b", "y", 0, 1.0, 4.0),
        ]
    )
    assert self_times(spans)[0] == pytest.approx(0.0)
    assert reconcile(spans, spans[0]) == pytest.approx(2.0)


def test_tracer_parents_other_threads_under_root():
    import threading

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.root_span("run") as root:
        with tracer.span("core", "capture") as inner:
            assert tracer.inside("capture")
        seen = {}

        def worker():
            with tracer.span("serve", "batch") as span:
                seen["parent"] = span.parent

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert inner.parent == root.id
    assert seen["parent"] == root.id
    assert not tracer.inside("capture")
    assert reconcile(tracer.spans, root) == pytest.approx(0.0)


# -- digest and bracket checks ------------------------------------------


def test_digest_check_records_mismatch():
    outcomes = Outcomes(attempted=2)
    assert check_digests("a", ["x", "y"], ["x", "y"], outcomes)
    assert not check_digests("b", ["x", "z"], ["x", "y"], outcomes)
    assert not check_digests("c", ["x"], ["x", "y"], outcomes)
    assert outcomes.mismatched == 2
    assert outcomes.error_rate == 1.0


def test_bracket_check():
    assert brackets(1.0, 0.1, 1.1)
    assert brackets(1.0, 0.1, 0.9)
    assert not brackets(1.0, 0.1, 1.2)
    outcomes = Outcomes(attempted=1)
    worst = check_brackets("ok", [(2.0, 0.2), (1.0, 0.05)], [2.1, 1.0], outcomes)
    assert outcomes.mismatched == 0
    assert worst == pytest.approx(0.1 / 2.1)
    worst = check_brackets("miss", [(2.0, 0.01)], [2.5], outcomes)
    assert outcomes.mismatched == 1
    assert worst == pytest.approx(0.2)
    check_brackets("short", [(2.0, 0.01)], [2.0, 3.0], outcomes)
    assert outcomes.mismatched == 2


# -- error_rate accounting ----------------------------------------------


def test_error_rate_counts_refused_and_failed():
    outcomes = Outcomes(attempted=8)
    outcomes.refuse(429, "queue full")
    outcomes.refuse(503, "draining")
    outcomes.fail("job failed")
    assert outcomes.refused == 2
    assert outcomes.failed == 1
    assert outcomes.errors == 3
    assert outcomes.error_rate == pytest.approx(3 / 8)
    with pytest.raises(ValueError):
        outcomes.refuse(400, "bad request is a failure, not a refusal")


def test_error_rate_of_nothing_attempted_is_zero():
    assert Outcomes().error_rate == 0.0
