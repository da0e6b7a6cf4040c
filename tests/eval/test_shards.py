"""Shard partitioning and the lockstep group orchestrator.

The cross-shard determinism harness lives in
``test_resume_equivalence.py``; this module covers the pieces it builds
on: the ownership partition (disjoint, complete, rotating), shard
config derivation, and one group run under a caller-chosen root.
"""

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.shards import ShardPlan, shard_config


def _shard_fuzzer(subject, shard_id, shard_count, rotate=200):
    return PFuzzer(
        subject,
        FuzzerConfig(
            seed=1,
            max_executions=100,
            shard_id=shard_id,
            shard_count=shard_count,
            shard_rotate_every=rotate,
        ),
    )


# --------------------------------------------------------------------- #
# The ownership partition
# --------------------------------------------------------------------- #


def test_partition_is_disjoint_and_complete(expr_subject):
    """At any fixed epoch, every candidate text is owned by exactly one
    of the group's shards."""
    shard_count = 3
    fuzzers = [
        _shard_fuzzer(expr_subject, shard_id, shard_count)
        for shard_id in range(shard_count)
    ]
    texts = [f"candidate-{index}" for index in range(200)]
    for text in texts:
        owners = [f._owns(text) for f in fuzzers]
        assert owners.count(True) == 1, text


def test_partition_rotates_so_no_text_is_orphaned(expr_subject):
    """Over ``shard_count`` consecutive epochs, every shard owns every
    text exactly once — rotation guarantees no candidate is permanently
    stuck on a shard that never schedules it."""
    shard_count = 4
    fuzzer = _shard_fuzzer(expr_subject, 0, shard_count, rotate=10)
    text = "some-candidate"
    owned_epochs = []
    for epoch in range(shard_count):
        fuzzer._result.executions = epoch * 10  # one execution per epoch
        if fuzzer._owns(text):
            owned_epochs.append(epoch)
    assert len(owned_epochs) == 1


def test_single_shard_owns_everything(expr_subject):
    fuzzer = _shard_fuzzer(expr_subject, 0, 1)
    assert all(fuzzer._owns(t) for t in ("", "a", "xyz", "\x00\xff"))
    # And its append pool is the full, unrotated character pool.
    pool = fuzzer._append_pool()
    fuzzer._result.executions = 10_000
    assert fuzzer._append_pool() == pool


def test_append_pool_slices_rotate_and_cover(expr_subject):
    shard_count = 2
    fuzzers = [
        _shard_fuzzer(expr_subject, shard_id, shard_count, rotate=10)
        for shard_id in range(shard_count)
    ]
    full = _shard_fuzzer(expr_subject, 0, 1)._append_pool()
    # At any epoch the two slices partition the full pool...
    slices = [f._append_pool() for f in fuzzers]
    assert sorted(slices[0] + slices[1]) == sorted(full)
    assert not set(slices[0]) & set(slices[1])
    # ...and a shard's slice changes across epochs (rotation).
    fuzzers[0]._result.executions = 10
    assert fuzzers[0]._append_pool() != slices[0]


def test_invalid_shard_config_raises(expr_subject):
    with pytest.raises(ValueError):
        _shard_fuzzer(expr_subject, 2, 2)
    with pytest.raises(ValueError):
        _shard_fuzzer(expr_subject, -1, 2)
    with pytest.raises(ValueError):
        PFuzzer(
            expr_subject,
            FuzzerConfig(shard_id=0, shard_count=2, shard_rotate_every=0),
        )


def test_shard_count_one_matches_unsharded_run(expr_subject):
    """``shard_count == 1`` must be byte-identical to a config that never
    mentions sharding — sharding is strictly opt-in."""
    from repro.eval.checkpoint import result_fingerprint
    from repro.runtime.arcs import arc_table_for

    table = arc_table_for(expr_subject)
    plain = PFuzzer(
        expr_subject, FuzzerConfig(seed=3, max_executions=300)
    ).run()
    sharded = PFuzzer(
        expr_subject,
        FuzzerConfig(seed=3, max_executions=300, shard_id=0, shard_count=1),
    ).run()
    assert result_fingerprint(sharded, table) == result_fingerprint(
        plain, table
    )


# --------------------------------------------------------------------- #
# shard_config: the orchestrator's per-shard derivation
# --------------------------------------------------------------------- #


def test_shard_config_derivation(tmp_path):
    plan = ShardPlan(
        subject="expr", budget=500, shards=3, base_seed=7,
        slice_executions=100,
    )
    config = shard_config(plan, 2, tmp_path)
    assert config.seed == 9  # base_seed + shard_id
    assert config.shard_id == 2 and config.shard_count == 3
    assert config.sync_store == str(tmp_path / "corpus.jsonl")
    assert config.sync_every == 100  # defaults to slice_executions
    assert config.checkpoint_dir == str(tmp_path / "shard-2")
    assert config.resume is True


def test_shard_config_honours_explicit_sync_every(tmp_path):
    plan = ShardPlan(subject="expr", budget=500, sync_every=42)
    assert shard_config(plan, 0, tmp_path).sync_every == 42


# --------------------------------------------------------------------- #
# run_sharded: one group under a caller-chosen root
# --------------------------------------------------------------------- #


def test_run_sharded_campaign_wrapper(tmp_path):
    from repro.eval.shards import run_sharded

    result = run_sharded(
        ShardPlan(
            "expr", budget=300, shards=2, base_seed=5, slice_executions=150
        ),
        tmp_path / "group",
    )
    assert len(result.shards) == 2
    assert [s.seed for s in result.shards] == [5, 6]
    assert all(s.executions == 300 for s in result.shards)
    assert result.rounds == 2
    assert (tmp_path / "group" / "corpus.jsonl").exists()
