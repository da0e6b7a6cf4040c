"""Engine equivalence: pooled/batched campaigns equal inline ones.

The correctness contract of the execution engine (ISSUE: hot-loop
execution engine): a campaign run through the persistent forked-worker
executor — any worker count, any batch size, either isolation mode —
must produce a :func:`result_fingerprint` identical to the inline
reference.  Speculative batching is safe because ``run_subject`` is a
pure function of the candidate text and all campaign bookkeeping happens
at consume time; these tests are the proof the design note points at.

Layers of evidence:

* quick split: inline vs pooled vs batched on two subjects x both
  coverage backends (the full six-subject matrix runs under ``slow``);
* mispredictions: batched campaigns whose predicted append runs can be
  wrong — a shard whose append pool rotates, and hybrid floods — still
  match inline;
* fault injection: a worker SIGKILLed mid-campaign is respawned and the
  campaign still matches the uninterrupted fingerprint;
* engine-switching resume: a checkpoint written by an inline campaign is
  resumed by a pooled one (and vice versa) — the executor fields are
  excluded from the config fingerprint exactly so this works;
* out-of-process: grid cells running the pooled engine, including cells
  SIGKILLed mid-campaign and resumed, match sequential inline references.
"""

import hashlib
import shutil

import pytest

import repro.runtime.executor as executor_module
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import list_generations, result_fingerprint
from repro.eval.parallel import RunSpec, RunStatus, run_grid
from repro.runtime.arcs import arc_table_for
from repro.subjects.registry import load_subject

QUICK_SUBJECTS = ("expr", "ini")
ALL_SUBJECTS = ("expr", "ini", "csv", "json", "tinyc", "mjs")
BACKENDS = ("settrace", "ast")


def _campaign(subject_name, backend, budget=300, **overrides):
    config = FuzzerConfig(
        seed=7, max_executions=budget, coverage_backend=backend, **overrides
    )
    return PFuzzer(load_subject(subject_name), config).run()


def _digest(subject_name, result):
    table = arc_table_for(load_subject(subject_name))
    return hashlib.sha256(
        result_fingerprint(result, table).encode("ascii")
    ).hexdigest()


def _assert_equivalent(subject_name, reference, other):
    table = arc_table_for(load_subject(subject_name))
    assert result_fingerprint(other, table) == result_fingerprint(
        reference, table
    )


# --------------------------------------------------------------------- #
# Inline vs pooled vs batched
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("subject_name", QUICK_SUBJECTS)
def test_engines_agree_quick(subject_name, backend):
    inline = _campaign(subject_name, backend)
    pooled = _campaign(
        subject_name, backend, executor="pooled", executor_isolation="none"
    )
    batched = _campaign(
        subject_name,
        backend,
        executor="pooled",
        batch_size=8,
        executor_isolation="none",
    )
    _assert_equivalent(subject_name, inline, pooled)
    _assert_equivalent(subject_name, inline, batched)


@pytest.mark.parametrize("subject_name", QUICK_SUBJECTS)
def test_fork_isolation_agrees(subject_name):
    if not hasattr(__import__("os"), "fork"):  # pragma: no cover - non-POSIX
        pytest.skip("fork isolation needs os.fork")
    inline = _campaign(subject_name, "settrace", budget=200)
    forked = _campaign(
        subject_name,
        "settrace",
        budget=200,
        executor="pooled",
        batch_size=4,
        executor_isolation="fork",
    )
    _assert_equivalent(subject_name, inline, forked)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("subject_name", ALL_SUBJECTS)
def test_engines_agree_full_matrix(subject_name, backend):
    inline = _campaign(subject_name, backend, budget=400)
    batched = _campaign(
        subject_name,
        backend,
        budget=400,
        executor="pooled",
        batch_size=8,
        executor_workers=2,
        executor_isolation="none",
    )
    _assert_equivalent(subject_name, inline, batched)


# --------------------------------------------------------------------- #
# Where a predicted append run can be wrong
# --------------------------------------------------------------------- #

#: Subjects of the two cases below; 1500 executions cross 30 shard-pool
#: rotations and at least one hybrid flood on each.
PREDICTION_SUBJECTS = ("json", "ini")
BATCHED = dict(executor="pooled", batch_size=8, executor_isolation="none")


@pytest.mark.parametrize("subject_name", PREDICTION_SUBJECTS)
def test_batched_agrees_when_shard_pool_rotates(subject_name):
    """A shard's append pool rotates every 50 executions, so some append
    characters are predicted from the pool of an epoch that has ended
    by the time the real draw happens."""
    shard = dict(shard_id=1, shard_count=2, shard_rotate_every=50)
    inline = _campaign(subject_name, "settrace", budget=1_500, **shard)
    batched = _campaign(
        subject_name, "settrace", budget=1_500, **shard, **BATCHED
    )
    _assert_equivalent(subject_name, inline, batched)


@pytest.mark.parametrize("subject_name", PREDICTION_SUBJECTS)
def test_batched_agrees_across_hybrid_floods(subject_name):
    """A flood injects generated candidates and resets ``vBr`` between
    a prefetch and the pops it predicted."""
    hybrid = dict(hybrid=True, mine_after=200)
    inline = _campaign(subject_name, "settrace", budget=1_500, **hybrid)
    assert any(
        node.op == "gen" for node in inline.lineage.nodes.values()
    ), "no flood fired; the budget is too small for this case"
    batched = _campaign(
        subject_name, "settrace", budget=1_500, **hybrid, **BATCHED
    )
    _assert_equivalent(subject_name, inline, batched)


# --------------------------------------------------------------------- #
# Fault injection: worker killed mid-campaign
# --------------------------------------------------------------------- #


def test_worker_killed_mid_campaign_matches_uninterrupted():
    inline = _campaign("ini", "settrace", budget=400)
    executor_module._TEST_WORKER_KILL_AFTER = 60
    try:
        survived = _campaign(
            "ini",
            "settrace",
            budget=400,
            executor="pooled",
            batch_size=4,
            executor_isolation="none",
        )
        # The hook was armed and consumed by the campaign's worker spawn:
        # a worker really did die mid-campaign and was respawned.
        assert executor_module._TEST_WORKER_KILL_AFTER is None
    finally:
        executor_module._TEST_WORKER_KILL_AFTER = None
    _assert_equivalent("ini", inline, survived)


# --------------------------------------------------------------------- #
# Engine-switching resume
# --------------------------------------------------------------------- #


def _checkpointed_reference(subject_name, tmp_path, budget=600, **engine):
    config = FuzzerConfig(
        seed=7,
        max_executions=budget,
        checkpoint_dir=str(tmp_path / "reference"),
        checkpoint_every=100,
        checkpoint_keep=1_000,
        **engine,
    )
    result = PFuzzer(load_subject(subject_name), config).run()
    generations = list_generations(config.checkpoint_dir)
    assert len(generations) >= 3, "budget too small to exercise checkpoints"
    return result, config, generations


def _resume(subject_name, config, generation, tmp_path, **engine):
    resume_dir = tmp_path / f"resume-{generation}"
    resume_dir.mkdir()
    name = f"ckpt-{generation:08d}.json"
    shutil.copy(f"{config.checkpoint_dir}/{name}", resume_dir / name)
    resumed_config = FuzzerConfig(
        seed=config.seed,
        max_executions=config.max_executions,
        checkpoint_dir=str(resume_dir),
        checkpoint_every=config.checkpoint_every,
        checkpoint_keep=config.checkpoint_keep,
        resume=True,
        **engine,
    )
    return PFuzzer(load_subject(subject_name), resumed_config).run()


def test_inline_checkpoint_resumes_under_pooled_engine(tmp_path):
    reference, config, generations = _checkpointed_reference("expr", tmp_path)
    resumed = _resume(
        "expr",
        config,
        generations[len(generations) // 2],
        tmp_path,
        executor="pooled",
        batch_size=8,
        executor_isolation="none",
    )
    _assert_equivalent("expr", reference, resumed)
    assert resumed.resumes == 1


def test_pooled_checkpoint_resumes_under_inline_engine(tmp_path):
    reference, config, generations = _checkpointed_reference(
        "ini",
        tmp_path,
        executor="pooled",
        batch_size=4,
        executor_isolation="none",
    )
    resumed = _resume("ini", config, generations[len(generations) // 2], tmp_path)
    _assert_equivalent("ini", reference, resumed)
    assert resumed.resumes == 1


# --------------------------------------------------------------------- #
# Out-of-process: the grid running the pooled engine
# --------------------------------------------------------------------- #


def test_grid_cells_with_pooled_engine_match_inline_references(tmp_path):
    specs = [RunSpec("pfuzzer", subject, 300, 7) for subject in QUICK_SUBJECTS]
    records = run_grid(
        specs,
        jobs=1,
        executor="pooled",
        batch_size=8,
        checkpoint_dir=tmp_path / "grid",
    )
    assert [record.status for record in records] == [RunStatus.OK] * len(specs)
    for spec, record in zip(specs, records):
        inline = _campaign(spec.subject, "settrace", budget=spec.budget)
        assert record.output.valid_inputs == inline.valid_inputs
        assert record.output.executions == inline.executions
        assert record.output.valid_signatures == list(inline.valid_signatures)


@pytest.mark.slow
def test_grid_sigkill_resume_with_pooled_engine_matches_reference(tmp_path):
    """A grid cell on the pooled engine, SIGKILLed mid-campaign, resumes
    from its snapshot and still equals the sequential inline reference."""
    spec = RunSpec("pfuzzer", "ini", 600, 7)
    records = run_grid(
        [spec],
        jobs=1,
        retries=3,
        checkpoint_dir=tmp_path / "grid",
        checkpoint_every=100,
        executor="pooled",
        batch_size=4,
        _test_fail_on={spec.fault_key(): "kill-at-150"},
    )
    (record,) = records
    assert record.status is RunStatus.OK
    assert record.output.resumes >= 1
    inline = _campaign("ini", "settrace", budget=600)
    assert record.output.valid_inputs == inline.valid_inputs
    assert record.output.executions == inline.executions
    assert record.output.valid_signatures == list(inline.valid_signatures)
