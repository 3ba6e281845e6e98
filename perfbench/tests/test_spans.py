"""Self-time arithmetic and the span recorder."""

import pytest

import spans
from spans import Span, Tracer, self_times


def test_self_time_subtracts_covered_children():
    nest = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 7.0, 3, 0),
        Span("e", 7.5, 8.0, 3, 0),
    ]
    assert self_times(nest) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    # The self times of a nest add up to its root's duration.
    assert sum(self_times(nest)) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_count_once():
    nest = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 2.0, 6.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),
    ]
    assert self_times(nest)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrapped_calls_nest_under_the_op():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4  # inactive: passes through, records nothing
    assert tracer.spans == []
    with tracer.op("read"):
        assert outer(1) == 4
    tracer.scales = [1.0]
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("op.read", -1, 0), ("outer", 0, 0), ("inner", 1, 0)]
    rows = spans.breakdown(tracer)
    assert [row[:2] for row in sorted(rows)] == [("inner", 1), ("op.read", 1), ("outer", 1)]


def test_instrument_restores_every_entry_point():
    from repro.core import hippo
    from repro.core.hippo import HippoEngine

    before = (HippoEngine.consistent_answers, hippo.parse_query, hippo.detect_conflicts)
    restore = spans.instrument(Tracer())
    try:
        assert HippoEngine.consistent_answers is not before[0]
        assert hippo.parse_query is not before[1]
        assert hippo.detect_conflicts is not before[2]
    finally:
        restore()
    assert (HippoEngine.consistent_answers, hippo.parse_query, hippo.detect_conflicts) == before
