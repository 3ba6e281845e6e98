"""Each workload at tiny size, through the benchmark's own code path."""

import pytest

import run
import spans
import streams
from repro.core.hippo import HippoEngine
from repro.engine.database import Database
from repro.repairs.checker import ground_truth_consistent_answers
from test_streams import TINY
from workloads import WORKLOADS, DurableFollow, _load


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_is_correct(name, tmp_path):
    inputs = streams.BUILDERS[name](5, TINY[name])
    one = run.Pass(WORKLOADS[name], inputs, 0.05, 2, out=tmp_path)
    assert one.meter.failed == 0
    assert one.meter.attempted > inputs.round_length
    values = one.reported()
    assert all(values[metric] > 0 for metric in run.END_TO_END)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_pass_reports_every_layer(name, tmp_path):
    inputs = streams.BUILDERS[name](5, TINY[name])
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        one = run.Pass(WORKLOADS[name], inputs, 0.05, 1, tracer, out=tmp_path)
    finally:
        restore()
    assert one.meter.failed == 0
    layers = spans.layer_metrics(tracer, len(one.meter.samples.get("write", ())))
    assert tracer.ops == sum(len(s) for s in one.meter.samples.values())
    assert layers["conflicts.detect_ms"] > 0
    assert layers["core.envelope_ms"] > 0
    if name == "durable-follow":
        assert layers["conflicts.sync_ms"] > 0 and layers["engine.fsyncs_per_write"] > 0
    else:
        assert layers["conflicts.sync_ms"] == 0


def test_durable_follow_end_measures_do_not_depend_on_run_length(tmp_path):
    """Recovery and on-disk measures come from the snapshot round, not
    from wherever the run's time ran out."""
    inputs = streams.durable_follow(5, TINY["durable-follow"])
    workload = DurableFollow()
    workload.snapshot_round = 4
    short = run.Pass(workload, inputs, 0.0, 1, out=tmp_path)
    long = run.Pass(workload, inputs, 60.0, 1, out=tmp_path)
    assert short.meter.attempted < long.meter.attempted
    assert short.meter.failed == long.meter.failed == 0
    for extras in (short.extras, long.extras):
        del extras["recover_s"]
    assert short.extras == long.extras


def test_cqa_mix_answers_match_the_repair_oracle():
    """Every text of a tiny cqa-mix stream -- SJU included, which the
    rewriting check cannot cover -- against repair enumeration."""
    inputs = streams.cqa_mix(4, streams.Sizes(n=12, rounds=1))
    db = Database()
    _load(db, inputs)
    engine = HippoEngine(db, inputs.constraints)
    texts = sorted({op.sql for op in inputs.ops})
    assert any(" UNION " in text for text in texts)
    for text in texts:
        tree, _ = engine.parse(text)
        expected = ground_truth_consistent_answers(db, engine.hypergraph, tree)
        assert engine.consistent_answers(text).as_set() == expected, text
