"""Op streams are a function of the seed."""

import pytest

import streams
from streams import Sizes

TINY = {
    "cqa-mix": Sizes(n=40, rounds=3),
    "dml-churn": Sizes(n=80, rounds=50),
    "durable-follow": Sizes(n=60, rounds=40, batch=4, window=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_stream(name):
    build = streams.BUILDERS[name]
    first, second = build(7, TINY[name]), build(7, TINY[name])
    assert first.ops == second.ops
    assert [t.rows for t in first.tables] == [t.rows for t in second.tables]


@pytest.mark.parametrize("name", sorted(TINY))
def test_other_seed_other_stream(name):
    build = streams.BUILDERS[name]
    assert build(7, TINY[name]).ops != build(8, TINY[name]).ops


def test_cqa_rounds_hold_the_fixed_mix():
    inputs = streams.cqa_mix(3, TINY["cqa-mix"])
    length = inputs.round_length
    expected = sorted(kind for kind, count in streams.CQA_ROUND for _ in range(count))
    for start in range(0, len(inputs.ops), length):
        assert sorted(op.kind for op in inputs.ops[start : start + length]) == expected


def test_dml_churn_reads_every_fourth_op_and_reuses_keys():
    inputs = streams.dml_churn(3, TINY["dml-churn"])
    kinds = [op.kind for op in inputs.ops]
    assert kinds[3::4] == ["read"] * (len(kinds) // 4)
    assert {"insert", "delete", "update"} == set(kinds) - {"read"}
    # About half the inserts reuse a key that is already live: conflicts.
    initial = {row[0] for row in inputs.tables[0].rows}
    inserts = [op for op in inputs.ops if op.kind == "insert"]
    assert any(op.key in initial for op in inserts)
    assert any(op.key not in initial for op in inserts)


def test_durable_follow_retires_ingest_batches():
    sizes = TINY["durable-follow"]
    inputs = streams.durable_follow(3, sizes)
    ingests = [op for op in inputs.ops if op.kind == "ingest"]
    retires = [op for op in inputs.ops if op.kind == "retire"]
    assert all(len(op.rows) == sizes.batch for op in ingests)
    assert retires and (retires[0].lo, retires[0].hi) == (ingests[0].lo, ingests[0].hi)
    assert len(ingests) - len(retires) <= sizes.window
