"""Unit tests of the persistent forked-worker execution engine.

Covers the executor layer in isolation (campaign-level fingerprint
equivalence lives in ``tests/eval/test_executor_equivalence.py``):
wire-format round-trips, the primitive wire (no constructor in a result
message) and the per-worker arc translation, single-run field
equivalence against the inline path, batch ordering, worker-death
respawn, isolation modes, campaign speculation (predicted append runs
and their cached characters, ``batch_size=1``, hybrid floods, the
ready-cache bound), lifecycle, and the ``__slots__`` audit of the
hot-loop dataclasses.
"""

import pickle
import pickletools
import random
import sys
import uuid
from multiprocessing import get_context
from pathlib import Path

import pytest

import repro.runtime.executor as executor_module
from repro.core.candidate import Candidate
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.core.substitute import Substitution
from repro.runtime.executor import (
    EXECUTOR_MODES,
    ExecutorError,
    PooledExecutor,
    _resolve_isolation,
    rehydrate_run_result,
    serialize_run_result,
)
from repro.runtime.arcs import arc_table_for
from repro.runtime.harness import ExitStatus, run_subject
from repro.subjects.function import FunctionSubject
from repro.subjects.registry import load_subject, register_subject

#: Inputs spanning the interesting outcomes on the expr subject: valid,
#: rejected-at-EOF, rejected mid-input, empty.
EXPR_TEXTS = ["1+2", "(3*4)", "(1", "1+", "", "x", "((2))"]

#: Where the test plugin subjects live.
HELPERS = str(Path(__file__).resolve().parent.parent / "helpers")


@pytest.fixture
def pooled_expr():
    executor = PooledExecutor(load_subject("expr"), isolation="none")
    yield executor
    executor.close()


def _assert_results_match(inline, pooled):
    assert pooled.text == inline.text
    assert pooled.status is inline.status
    assert pooled.error == inline.error
    assert pooled.arcs == inline.arcs
    assert pooled.branches == inline.branches
    assert pooled.recorder.comparisons == inline.recorder.comparisons
    assert pooled.recorder.eof_events == inline.recorder.eof_events
    assert (
        pooled.recorder.last_compared_index()
        == inline.recorder.last_compared_index()
    )
    assert (
        pooled.recorder.average_stack_size()
        == inline.recorder.average_stack_size()
    )


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #


def test_serialize_rehydrate_round_trip():
    subject = load_subject("expr")
    for text in EXPR_TEXTS:
        inline = run_subject(subject, text)
        back = rehydrate_run_result(subject, text, serialize_run_result(inline))
        _assert_results_match(inline, back)


def test_wire_payload_is_pickleable():
    subject = load_subject("ini")
    payload = serialize_run_result(run_subject(subject, "[a]\nk=v"))
    assert pickle.loads(pickle.dumps(payload)) == payload


def test_result_message_pickles_without_constructors():
    """Status, kinds and events travel as primitives: unpickling a result
    message calls no Python-level constructor (no ``NEWOBJ`` per event,
    no ``REDUCE`` per enum member, no class looked up to call)."""
    subject = load_subject("json")
    results = [
        run_subject(subject, text, coverage_backend="ast")
        for text in ('{"a": [1, tru', "[1, 2]", "[1,", "nul")
    ]
    assert all(result.recorder.comparisons for result in results)
    assert any(result.recorder.eof_events for result in results)
    for result in results:
        message = ("res", 0, 0, serialize_run_result(result))
        opcodes = {
            opcode.name
            for opcode, _arg, _pos in pickletools.genops(
                pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            )
        }
        assert not opcodes & {"STACK_GLOBAL", "GLOBAL", "REDUCE", "NEWOBJ"}


# --------------------------------------------------------------------- #
# Single-run equivalence, both isolation modes
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("isolation", ["fork", "none"])
def test_pooled_matches_inline_per_run(isolation):
    subject = load_subject("expr")
    with PooledExecutor(subject, isolation=isolation) as executor:
        for text in EXPR_TEXTS:
            _assert_results_match(run_subject(subject, text), executor.execute(text))


def test_pooled_matches_inline_on_ast_backend():
    subject = load_subject("ini")
    texts = ["[s]\na=1", "[s", "", "x=y"]
    with PooledExecutor(
        subject, coverage_backend="ast", isolation="none"
    ) as executor:
        for text in texts:
            _assert_results_match(
                run_subject(subject, text, coverage_backend="ast"),
                executor.execute(text),
            )


def _fresh_crashy():
    """A registered plugin subject whose arc table nothing has used yet,
    so a worker interns arcs the parent has not (ids are per process)."""
    if HELPERS not in sys.path:
        sys.path.insert(0, HELPERS)
    from crashy_plugin import parse_crashy

    name = f"wire-{uuid.uuid4().hex[:8]}"
    register_subject(name, lambda: FunctionSubject(parse_crashy, name=name))
    return load_subject(name)


#: Valid, rejected, rejected at EOF, and crashing (nesting past the
#: planted depth) inputs of the crashy subject.
CRASHY_TEXTS = ["a", "(a)", "((a))", "(", "", "x", "(" * 14 + "a" + ")" * 14]


def _assert_same_run(inline, pooled):
    """Field by field, with the arcs compared as decoded tuples."""
    assert pooled.text == inline.text
    assert pooled.status is inline.status
    assert pooled.error == inline.error
    assert pooled.crash_signature == inline.crash_signature
    decode = inline.arc_table.arc
    assert {decode(arc): clock for arc, clock in pooled.arcs.items()} == {
        decode(arc): clock for arc, clock in inline.arcs.items()
    }
    assert pooled.path_signature() == inline.path_signature()
    assert pooled.recorder.comparisons == inline.recorder.comparisons
    assert pooled.recorder.eof_events == inline.recorder.eof_events


@pytest.mark.parametrize("isolation", ["none", "fork"])
def test_pooled_matches_inline_when_the_parent_interns_after_the_fork(
    isolation, monkeypatch
):
    """The worker and the parent intern the same arcs in different orders,
    so the worker's ids reach the parent only through its translation;
    under fork isolation every child announces its arcs again."""
    translated = []
    translate = executor_module.ArcTranslation.translate

    def recording_translate(translation, arcs):
        parent_arcs = translate(translation, arcs)
        translated.append(parent_arcs is not arcs)
        return parent_arcs

    monkeypatch.setattr(
        executor_module.ArcTranslation, "translate", recording_translate
    )
    subject = _fresh_crashy()
    with PooledExecutor(subject, isolation=isolation) as executor:
        # Reversed: the parent interns the arcs of the last texts first.
        inline = [run_subject(subject, text) for text in CRASHY_TEXTS[::-1]]
        for reference in inline[::-1]:
            _assert_same_run(reference, executor.execute(reference.text))
    assert ExitStatus.CRASH in {result.status for result in inline}
    assert any(translated)


def test_pooled_matches_inline_after_a_respawn():
    subject = _fresh_crashy()
    executor_module._TEST_WORKER_KILL_AFTER = 3
    try:
        with PooledExecutor(subject, isolation="none") as executor:
            results = executor.run_batch(CRASHY_TEXTS)
            assert executor.respawns >= 1
    finally:
        executor_module._TEST_WORKER_KILL_AFTER = None
    for pooled in results:
        _assert_same_run(run_subject(subject, pooled.text), pooled)


def test_pooled_matches_inline_on_the_spawn_context(monkeypatch):
    """A spawned worker shares no arcs with the parent: it announces every
    arc it interns."""
    monkeypatch.setattr(
        executor_module, "get_context", lambda method: get_context("spawn")
    )
    subject = load_subject("expr")
    with PooledExecutor(subject, isolation="none") as executor:
        assert executor._workers[0].arcs.ids == []
        for text in EXPR_TEXTS:
            _assert_same_run(run_subject(subject, text), executor.execute(text))


def test_translation_replaces_what_an_earlier_child_announced():
    table = arc_table_for(_fresh_crashy())
    translation = executor_module.ArcTranslation(shared=2)
    translation.learn(2, [("f", 1, 2), ("f", 2, 3)], table.intern)
    first = list(translation.ids)
    # The next fork child interned other arcs from the same id on.
    translation.learn(2, [("f", 2, 3)], table.intern)
    assert translation.ids == [0, 1, first[3]]
    assert translation.translate({2: 7}) == {first[3]: 7}
    with pytest.raises(ExecutorError, match="from id 5"):
        translation.learn(5, [("f", 9, 9)], table.intern)


# --------------------------------------------------------------------- #
# Batching
# --------------------------------------------------------------------- #


def test_run_batch_preserves_order(pooled_expr):
    results = pooled_expr.run_batch(EXPR_TEXTS)
    assert [result.text for result in results] == EXPR_TEXTS


def test_prefetch_then_execute_consumes_cache(pooled_expr):
    pooled_expr.prefetch(EXPR_TEXTS)
    subject = load_subject("expr")
    for text in EXPR_TEXTS:
        _assert_results_match(run_subject(subject, text), pooled_expr.execute(text))
    assert not pooled_expr._ready
    assert not pooled_expr._pending


def test_duplicate_prefetch_is_free(pooled_expr):
    pooled_expr.prefetch(["1+2", "1+2", "1+2"])
    pooled_expr.prefetch(["1+2"])
    assert pooled_expr.execute("1+2").text == "1+2"
    # One submission total: batch ids advanced once.
    assert pooled_expr._next_batch == 1


def test_ready_cache_eviction_reruns_transparently():
    subject = load_subject("expr")
    with PooledExecutor(subject, isolation="none", max_ready=2) as executor:
        executor.prefetch(EXPR_TEXTS)  # 7 results into a 2-slot cache
        for text in EXPR_TEXTS:  # evicted ones silently re-run
            _assert_results_match(run_subject(subject, text), executor.execute(text))


def test_multi_worker_batches_land_correctly():
    subject = load_subject("expr")
    with PooledExecutor(subject, workers=2, isolation="none") as executor:
        results = executor.run_batch(EXPR_TEXTS * 2)
        assert [result.text for result in results] == EXPR_TEXTS * 2


# --------------------------------------------------------------------- #
# Fault tolerance
# --------------------------------------------------------------------- #


def test_worker_death_respawns_and_resubmits():
    subject = load_subject("expr")
    executor_module._TEST_WORKER_KILL_AFTER = 3
    try:
        with PooledExecutor(subject, isolation="none") as executor:
            results = executor.run_batch(EXPR_TEXTS)
            assert [result.text for result in results] == EXPR_TEXTS
            assert executor.respawns >= 1
            for inline, pooled in zip(
                (run_subject(subject, text) for text in EXPR_TEXTS), results
            ):
                _assert_results_match(inline, pooled)
    finally:
        executor_module._TEST_WORKER_KILL_AFTER = None


def test_kill_hook_is_consumed_by_spawn():
    executor_module._TEST_WORKER_KILL_AFTER = 1
    try:
        with PooledExecutor(load_subject("expr"), isolation="none") as executor:
            assert executor_module._TEST_WORKER_KILL_AFTER is None
            # The respawned replacement runs clean: the whole batch lands.
            assert len(executor.run_batch(EXPR_TEXTS)) == len(EXPR_TEXTS)
    finally:
        executor_module._TEST_WORKER_KILL_AFTER = None


# --------------------------------------------------------------------- #
# Campaign speculation
# --------------------------------------------------------------------- #


def _batched_json(batch_size, budget=1_000):
    config = FuzzerConfig(
        seed=3,
        max_executions=budget,
        executor="pooled",
        batch_size=batch_size,
        executor_isolation="none",
    )
    return PFuzzer(load_subject("json"), config)


def test_batched_campaign_speculates_append_runs(monkeypatch):
    """Append runs are predicted, so executions rarely wait on a fresh
    submission; prediction never touches the campaign RNG; and
    ``batch_size=1`` still submits one text at a time.

    Algorithm 1 runs each candidate and then the candidate plus one
    random character.  ``_prefetch`` predicts that character on a copy of
    the campaign RNG, so the append run is already ready or pending when
    the loop asks for it; speculating only the queue's pops left about
    half of all executions to a synchronous round trip each.
    """
    cold = []
    execute = PooledExecutor.execute

    def counting_execute(pool, text):
        if text not in pool._ready and text not in pool._pending:
            cold.append(text)
        return execute(pool, text)

    rng_moved = []
    prefetch = PFuzzer._prefetch

    def checked_prefetch(fuzzer, head):
        before = fuzzer._rng.getstate()
        prefetch(fuzzer, head)
        rng_moved.append(fuzzer._rng.getstate() != before)

    sizes = []
    submit = PooledExecutor._submit

    def recording_submit(pool, worker_index, texts):
        sizes.append(len(texts))
        return submit(pool, worker_index, texts)

    monkeypatch.setattr(PooledExecutor, "execute", counting_execute)
    monkeypatch.setattr(PFuzzer, "_prefetch", checked_prefetch)
    result = _batched_json(batch_size=8).run()
    assert result.executions == 1_000
    assert rng_moved and not any(rng_moved)
    assert len(cold) <= 0.02 * result.executions, (
        f"{len(cold)} of {result.executions} executions were submitted "
        "only when the loop needed them"
    )

    monkeypatch.setattr(PooledExecutor, "_submit", recording_submit)
    result = _batched_json(batch_size=1, budget=300).run()
    assert result.executions == 300
    assert sizes and set(sizes) == {1}


def _sharded_batched_json(tmp_path, budget, resume=False):
    config = FuzzerConfig(
        seed=5,
        max_executions=budget,
        executor="pooled",
        batch_size=8,
        executor_isolation="none",
        shard_id=1,
        shard_count=2,
        shard_rotate_every=50,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=100,
        resume=resume,
    )
    return PFuzzer(load_subject("json"), config)


def test_cached_append_prediction_is_the_campaign_rngs_own(
    tmp_path, monkeypatch
):
    """The cached characters are what a fresh copy of the campaign RNG
    draws next, at every prefetch; each real append draw gets the
    character predicted for it whenever its pool is the one the
    prediction used.  Checked across 16 shard pool rotations and a
    checkpoint restore."""
    predictions = {}  # (fuzzer, draw number) -> (epoch, character)
    mismatches = []
    prefetch = PFuzzer._prefetch

    def checked_prefetch(fuzzer, head):
        prefetch(fuzzer, head)
        copy = random.Random()
        copy.setstate(fuzzer._rng.getstate())
        pool = fuzzer._append_pool()
        predicted = fuzzer._predicted
        assert predicted == [copy.choice(pool) for _ in predicted]
        epoch = fuzzer._shard_epoch()
        for offset, char in enumerate(predicted):
            predictions[id(fuzzer), fuzzer._draws + offset] = (epoch, char)

    draws = []
    random_char = PFuzzer._random_char

    def recorded_draw(fuzzer):
        char = random_char(fuzzer)
        predicted = predictions.get((id(fuzzer), fuzzer._draws - 1))
        if predicted is not None and predicted[0] == fuzzer._shard_epoch():
            draws.append(char)
            if predicted[1] != char:
                mismatches.append((fuzzer._draws, predicted, char))
        return char

    monkeypatch.setattr(PFuzzer, "_prefetch", checked_prefetch)
    monkeypatch.setattr(PFuzzer, "_random_char", recorded_draw)
    first = _sharded_batched_json(tmp_path, 400).run()
    resumed = _sharded_batched_json(tmp_path, 800, resume=True).run()
    assert (first.executions, resumed.executions, resumed.resumes) == (400, 800, 1)
    assert len(draws) > 200 and not mismatches


def test_restore_resyncs_a_warm_prediction_cache():
    fuzzer = _batched_json(batch_size=8, budget=300)
    fuzzer.run()
    payload = fuzzer.snapshot()
    fuzzer._random_char()  # the campaign RNG moves on, and the cache
    fuzzer._predicted_chars()  # with it, past the snapshot
    fuzzer.restore(payload)
    pool = fuzzer._append_pool()
    predicted = fuzzer._predicted_chars()
    predicted.extend(fuzzer._predictor.choice(pool) for _ in range(4))
    copy = random.Random()
    copy.setstate(fuzzer._rng.getstate())
    assert predicted == [copy.choice(pool) for _ in predicted]


def test_hybrid_floods_are_prefetched(monkeypatch):
    """A generation flood is known ahead, so its texts travel in
    ``batch_size`` windows instead of one round trip each."""
    cold = []
    execute = PooledExecutor.execute

    def counting_execute(pool, text):
        if text not in pool._ready and text not in pool._pending:
            cold.append(text)
        return execute(pool, text)

    monkeypatch.setattr(PooledExecutor, "execute", counting_execute)
    config = FuzzerConfig(
        seed=3,
        max_executions=1_500,
        coverage_backend="ast",
        hybrid=True,
        mine_after=200,
        executor="pooled",
        batch_size=8,
        executor_isolation="none",
    )
    result = PFuzzer(load_subject("json"), config).run()
    generated = {
        node.text for node in result.lineage.nodes.values() if node.op == "gen"
    }
    assert len(generated) > 2 * config.batch_size
    assert not generated & set(cold)
    assert len(cold) <= 0.02 * result.executions


def test_ready_cache_is_bounded_by_the_speculation_window(monkeypatch):
    bounds = []
    init = PooledExecutor.__init__

    def recording_init(pool, *args, **kwargs):
        init(pool, *args, **kwargs)
        bounds.append(pool.max_ready)

    monkeypatch.setattr(PooledExecutor, "__init__", recording_init)
    _batched_json(batch_size=8, budget=20).run()
    config = FuzzerConfig(
        max_executions=20,
        executor="pooled",
        executor_workers=6,
        executor_isolation="none",
    )
    PFuzzer(load_subject("expr"), config).run()
    # 4 windows of batch 8; with batch 1, never below one result per worker.
    assert bounds == [32, 6]


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


def test_close_is_idempotent_and_execute_after_close_raises(pooled_expr):
    pooled_expr.close()
    pooled_expr.close()
    with pytest.raises(ExecutorError):
        pooled_expr.execute("1")


def test_resolve_isolation():
    import os

    assert _resolve_isolation("none") == "none"
    expected = "fork" if hasattr(os, "fork") else "none"
    assert _resolve_isolation("auto") == expected
    assert _resolve_isolation("fork") == expected
    with pytest.raises(ValueError, match="unknown executor isolation"):
        _resolve_isolation("container")


def test_fuzzer_rejects_bad_engine_config():
    subject = load_subject("expr")
    with pytest.raises(ValueError, match="unknown executor"):
        PFuzzer(subject, FuzzerConfig(executor="warp"))
    with pytest.raises(ValueError, match="unknown executor isolation"):
        PFuzzer(subject, FuzzerConfig(executor_isolation="container"))
    with pytest.raises(ValueError, match="batch_size"):
        PFuzzer(subject, FuzzerConfig(batch_size=0))
    with pytest.raises(ValueError, match="executor_workers"):
        PFuzzer(subject, FuzzerConfig(executor_workers=0))
    assert "inline" in EXECUTOR_MODES and "pooled" in EXECUTOR_MODES


# --------------------------------------------------------------------- #
# __slots__ audit of the hot-loop dataclasses
# --------------------------------------------------------------------- #


def test_hot_loop_dataclasses_reject_stray_attributes():
    candidate = Candidate("x")
    with pytest.raises(AttributeError):
        candidate.stray = 1
    result = run_subject(load_subject("expr"), "1")
    with pytest.raises(AttributeError):
        result.stray = 1
    substitution = Substitution("a", "a", 0)
    with pytest.raises(AttributeError):  # FrozenInstanceError
        substitution.text = "b"
    # Stray assignment on a frozen+slots dataclass raises TypeError on
    # 3.11 (the generated __setattr__'s super(cls, self) quirk) and
    # AttributeError elsewhere; either way the attribute never lands.
    with pytest.raises((AttributeError, TypeError)):
        substitution.stray = 1
    for instance in (candidate, result, substitution):
        assert not hasattr(instance, "__dict__")
        assert hasattr(type(instance), "__slots__")
