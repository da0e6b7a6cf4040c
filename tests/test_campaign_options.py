"""Campaign options: ``run_campaign``, ``run_grid`` and the service's job
specs forward a plain ``{FuzzerConfig field: value}`` mapping and check it
before any work runs.

The forwarding cases read the fingerprint of the snapshot each path leaves
behind, so they show the options reached the campaign itself — the
fingerprint keys ``hybrid``, ``mine_after`` and ``hunt_crashes`` only when
the campaign ran with them.
"""

import pytest

from repro.eval.campaign import run_campaign
from repro.eval.checkpoint import load_latest
from repro.eval.parallel import RunSpec, RunStatus, run_grid
from repro.service.jobs import JobError, JobSpec, fuzzer_options

KNOBS = dict(hybrid=True, mine_after=60, hunt_crashes=True)


def _snapshot_fingerprint(directory) -> dict:
    _generation, payload = load_latest(directory)
    return payload["fingerprint"]


def _assert_knobs_fingerprinted(fingerprint: dict) -> None:
    assert fingerprint["hybrid"] is True
    assert fingerprint["mine_after"] == 60
    assert fingerprint["hunt_crashes"] is True


def test_run_campaign_forwards_options_to_the_campaign(tmp_path):
    output = run_campaign(
        "pfuzzer", "expr", 150, seed=2,
        checkpoint_dir=str(tmp_path / "ckpt"), **KNOBS,
    )
    assert output.executions == 150
    _assert_knobs_fingerprinted(_snapshot_fingerprint(tmp_path / "ckpt"))


def test_run_grid_forwards_options_to_every_cell(tmp_path):
    (record,) = run_grid(
        [RunSpec("pfuzzer", "expr", 150, 2)],
        jobs=1,
        checkpoint_dir=tmp_path / "grid",
        **KNOBS,
    )
    assert record.status is RunStatus.OK
    _assert_knobs_fingerprinted(
        _snapshot_fingerprint(tmp_path / "grid" / "pfuzzer-expr-s2")
    )


@pytest.mark.parametrize("name", ("frobnicate", "max_executions"))
def test_run_campaign_rejects_options_it_does_not_take(name):
    # ``seed`` is run_campaign's own argument, so it never reaches options.
    with pytest.raises(ValueError) as excinfo:
        run_campaign("pfuzzer", "expr", 10, **{name: 1})
    message = str(excinfo.value)
    assert f"unexpected options: {name};" in message
    assert "valid options: max_valid_inputs," in message
    assert "checkpoint_dir" in message


@pytest.mark.parametrize(
    "name",
    ("frobnicate", "seed", "max_executions", "resume", "trace_path"),
)
def test_run_grid_rejects_options_it_does_not_take(tmp_path, name):
    # The grid's own checkpoint_dir is its snapshot root, a named argument;
    # the per-cell checkpoint_dir, resume and trace_path are set per cell.
    with pytest.raises(ValueError) as excinfo:
        run_grid([RunSpec("pfuzzer", "expr", 10, 0)], **{name: 1})
    message = str(excinfo.value)
    assert f"unexpected options: {name};" in message
    assert "valid options: max_valid_inputs," in message
    assert "checkpoint_dir," not in message
    assert "cull_every" in message


def test_hybrid_sub_knob_without_hybrid_mode_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="mine_after requires hybrid mode"):
        run_campaign("pfuzzer", "expr", 10, mine_after=60)
    with pytest.raises(ValueError, match="gen_depth requires hybrid mode"):
        run_grid([RunSpec("pfuzzer", "expr", 10, 0)], gen_depth=2)


def test_invalid_option_values_are_rejected_before_any_cell_runs(tmp_path):
    with pytest.raises(ValueError, match="batch_size must be a positive"):
        run_grid(
            [RunSpec("pfuzzer", "expr", 10, 0)],
            checkpoint_dir=tmp_path / "grid",
            batch_size=0,
        )
    assert not (tmp_path / "grid").exists()


def test_job_spec_forwards_its_knobs():
    spec = JobSpec(
        subject="expr", budget=300, seed=4, checkpoint_every=50,
        executor="pooled", batch_size=4, cull_every=40, **KNOBS,
    )
    assert fuzzer_options(spec.to_dict()) == {
        "coverage_backend": "settrace",
        "checkpoint_every": 50,
        "executor": "pooled",
        "batch_size": 4,
        "cull_every": 40,
        "hybrid": True,
        "mine_after": 60,
        "hunt_crashes": True,
    }


def test_only_shard_group_members_are_sharded():
    member = JobSpec(subject="expr", shards=3, shard_id=2, shard_group="g")
    options = fuzzer_options(member.to_dict())
    assert (options["shard_id"], options["shard_count"]) == (2, 3)
    lone = fuzzer_options(JobSpec(subject="expr", shards=3).to_dict())
    assert "shard_id" not in lone and "shard_count" not in lone


@pytest.mark.parametrize(
    "name", ("coverage_backend", "executor", "batch_size", "hybrid", "hunt_crashes")
)
def test_job_spec_rejects_null_where_the_field_has_a_value(name):
    # JSON null means "the fuzzer's default" only for fields whose spec
    # default is None; elsewhere it is malformed input.
    with pytest.raises(JobError, match=f"{name.replace('_', ' ')}|{name}"):
        JobSpec(subject="expr", **{name: None}).validate()


@pytest.mark.parametrize("tool", ("afl", "random"))
def test_a_baseline_rejects_the_pfuzzer_switches(tool):
    with pytest.raises(ValueError) as excinfo:
        run_campaign(tool, "expr", 60, seed=1, hybrid=True, hunt_crashes=True)
    message = str(excinfo.value)
    assert f"hybrid requires the pfuzzer tool, got {tool!r}" in message
    assert f"hunt_crashes requires the pfuzzer tool, got {tool!r}" in message
    # The service's job specs say the same.
    with pytest.raises(JobError, match="hybrid requires the pfuzzer tool"):
        JobSpec(subject="expr", tool=tool, hybrid=True).validate()


def test_run_grid_rejects_a_switch_for_a_baseline_before_any_cell_runs(
    tmp_path,
):
    with pytest.raises(
        ValueError, match="hunt_crashes requires the pfuzzer tool, got 'afl'"
    ):
        run_grid(
            [RunSpec("pfuzzer", "expr", 10, 0), RunSpec("afl", "expr", 10, 0)],
            checkpoint_dir=tmp_path / "grid",
            hunt_crashes=True,
        )
    assert not (tmp_path / "grid").exists()


def test_baselines_ignore_the_settings_every_cell_gets(tmp_path):
    # Checkpoint cadence, tracing and the engine are settings, not modes:
    # the grid passes them to every cell and a baseline runs without them.
    output = run_campaign(
        "afl", "expr", 60, seed=1, checkpoint_every=20, executor="pooled"
    )
    assert output.executions == 60
    (record,) = run_grid(
        [RunSpec("afl", "expr", 60, 1)],
        jobs=1,
        checkpoint_dir=tmp_path / "grid",
        checkpoint_every=20,
        trace_dir=tmp_path / "traces",
    )
    assert record.status is RunStatus.OK
    assert record.output.valid_inputs == output.valid_inputs
