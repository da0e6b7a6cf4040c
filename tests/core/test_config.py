"""Fuzzer configuration: defaults, weight plumbing, and the one
declaration of every knob — the fingerprint its roles generate and the
options check every layer shares."""

from dataclasses import asdict, fields

import pytest

from repro.core.config import (
    DEFAULT_CHARACTER_POOL,
    SWITCHES,
    UNKEYED,
    FuzzerConfig,
    HeuristicWeights,
    config_fingerprint,
    config_problems,
)
from repro.core.fuzzer import PFuzzer
from repro.subjects.registry import load_subject


def test_default_pool_contents():
    for char in "az09(){}<>;=+-\"'[] \t\n":
        assert char in DEFAULT_CHARACTER_POOL, repr(char)
    # Non-printable controls are not in the default pool.
    assert "\x00" not in DEFAULT_CHARACTER_POOL


def test_default_weights_match_paper_formula():
    weights = HeuristicWeights()
    assert weights.new_branches == 1.0
    assert weights.input_length == 1.0
    assert weights.replacement_length == 2.0  # the paper's 2x bonus
    assert weights.stack_size == 1.0
    assert weights.parents == -1.0  # prose reading (DESIGN.md §6)
    assert weights.path_repetition == 1.0


def test_config_defaults():
    config = FuzzerConfig()
    assert config.seed is None
    assert config.max_executions == 2_000
    assert config.max_valid_inputs is None
    assert config.trace_coverage
    assert config.initial_inputs == ()


def test_configs_do_not_share_weights():
    first = FuzzerConfig()
    second = FuzzerConfig()
    first.weights.parents = 99.0
    assert second.weights.parents == -1.0


# --------------------------------------------------------------------- #
# The fingerprint generated from the fields' roles
# --------------------------------------------------------------------- #


def _reference_fingerprint(fuzzer) -> dict:
    """The hand-written ``PFuzzer._config_fingerprint`` the roles replaced,
    kept verbatim as the reference: every existing snapshot is keyed by it,
    so the generated fingerprint must equal it on every config."""
    config = fuzzer.config
    fingerprint = {
        "subject": type(fuzzer.subject).__name__,
        "seed": config.seed,
        "trace_coverage": config.trace_coverage,
        "coverage_backend": config.coverage_backend,
        "max_input_length": config.max_input_length,
        "queue_limit": config.queue_limit,
        "character_pool": config.character_pool,
        "max_valid_inputs": config.max_valid_inputs,
        "initial_inputs": list(config.initial_inputs),
        "weights": asdict(config.weights),
        "shard_id": config.shard_id,
        "shard_count": config.shard_count,
        "shard_rotate_every": config.shard_rotate_every,
        "sync_every": fuzzer._sync_every if fuzzer._syncer else None,
    }
    if config.hybrid:
        fingerprint["hybrid"] = True
        fingerprint["mine_after"] = config.mine_after
        fingerprint["gen_batch"] = config.gen_batch
        fingerprint["gen_depth"] = config.gen_depth
    if config.hunt_crashes:
        fingerprint["hunt_crashes"] = True
    return fingerprint


#: Stands for a sync store path below the test's tmp_path.
STORE = object()

KEYED_CASES = {
    "defaults": {},
    "seeded": dict(seed=3),
    "hybrid": dict(hybrid=True, mine_after=123, gen_batch=9, gen_depth=7),
    "hunt_crashes": dict(hunt_crashes=True),
    "hybrid_and_hunting": dict(hybrid=True, hunt_crashes=True),
    "one_shard": dict(shard_id=0, shard_count=1),
    "one_shard_synced": dict(shard_id=0, shard_count=1, sync_store=STORE),
    "three_shards": dict(shard_id=2, shard_count=3, shard_rotate_every=50),
    "three_shards_synced": dict(shard_id=1, shard_count=3, sync_store=STORE),
    "synced_explicit_sync_every": dict(
        shard_id=1, shard_count=3, sync_store=STORE, sync_every=77
    ),
    "synced_checkpoint_cadence": dict(
        shard_count=3, sync_store=STORE, checkpoint_every=40
    ),
    "explicit_sync_every_unsynced": dict(sync_every=77),
    "custom_weights": dict(
        weights=HeuristicWeights(new_branches=2.0, parents=1.0)
    ),
    "initial_inputs": dict(initial_inputs=("1+1", "(2)")),
    "search_limits": dict(
        max_valid_inputs=5,
        max_input_length=40,
        queue_limit=300,
        character_pool="01+",
        trace_coverage=False,
        coverage_backend="ast",
    ),
}

#: Every environmental field with a non-default value: none may move the
#: fingerprint.  (The sync store is environmental too, but it switches the
#: keyed sync cadence on; the synced cases above cover it.)
ENVIRONMENT = {
    "max_executions": 7,
    "checkpoint_dir": "checkpoints",
    "checkpoint_every": 17,
    "checkpoint_keep": 5,
    "resume": True,
    "trace_path": "trace.ndjson",
    "executor": "pooled",
    "batch_size": 8,
    "executor_workers": 3,
    "executor_isolation": "none",
    "cull_every": 40,
}


def _fuzzer(tmp_path, **overrides):
    options = {
        name: str(tmp_path / "store.jsonl") if value is STORE else value
        for name, value in overrides.items()
    }
    for name in ("checkpoint_dir", "trace_path"):
        if name in options:
            options[name] = str(tmp_path / options[name])
    return PFuzzer(load_subject("expr"), FuzzerConfig(**options))


@pytest.mark.parametrize("overrides", KEYED_CASES.values(), ids=KEYED_CASES)
def test_generated_fingerprint_equals_the_reference(tmp_path, overrides):
    fuzzer = _fuzzer(tmp_path, **overrides)
    assert fuzzer._config_fingerprint() == _reference_fingerprint(fuzzer)
    assert config_fingerprint(fuzzer.config, "ExprSubject") == (
        _reference_fingerprint(fuzzer)
    )


@pytest.mark.parametrize("name", ENVIRONMENT)
def test_environmental_fields_leave_the_fingerprint_unchanged(tmp_path, name):
    fuzzer = _fuzzer(tmp_path, **{name: ENVIRONMENT[name]})
    try:
        assert fuzzer._config_fingerprint() == _reference_fingerprint(fuzzer)
        assert fuzzer._config_fingerprint() == (
            _fuzzer(tmp_path)._config_fingerprint()
        )
    finally:
        fuzzer._trace.close()  # the trace_path case opened its file


def test_roles_cover_every_field():
    roles = {
        spec.name: spec.metadata["role"] for spec in fields(FuzzerConfig)
    }
    assert {name for name, role in roles.items() if role == UNKEYED} == (
        set(ENVIRONMENT) | {"sync_store"}
    )
    assert SWITCHES == ("hybrid", "hunt_crashes")
    assert {name for name, role in roles.items() if role == "hybrid"} == {
        "hybrid", "mine_after", "gen_batch", "gen_depth"
    }


# --------------------------------------------------------------------- #
# The options check
# --------------------------------------------------------------------- #


def test_options_are_the_fields_set_away_from_their_defaults():
    assert FuzzerConfig().options() == {}
    config = FuzzerConfig(seed=4, hybrid=True, executor="inline")
    assert config.options() == {"seed": 4, "hybrid": True}


@pytest.mark.parametrize("name", ("mine_after", "gen_batch", "gen_depth"))
def test_hybrid_sub_knobs_require_hybrid_mode(name):
    assert config_problems({name: 5}) == [f"{name} requires hybrid mode"]
    assert config_problems({name: 5, "hybrid": True}) == []
    with pytest.raises(ValueError, match=f"{name} requires hybrid mode"):
        PFuzzer(load_subject("expr"), FuzzerConfig(**{name: 5}))


def test_unknown_and_reserved_options_list_the_valid_names():
    (problem,) = config_problems({"frobnicate": 1})
    assert "frobnicate" in problem
    assert "valid options: seed, max_executions," in problem
    (problem,) = config_problems({"seed": 1}, reserved=("seed",))
    assert problem.startswith("unexpected options: seed;")
    assert "valid options: max_executions," in problem


def test_every_problem_is_collected():
    problems = config_problems(
        {
            "executor": "warp",
            "batch_size": 0,
            "hunt_crashes": "yes",
            "coverage_backend": "magic",
            "shard_id": 3,
            "shard_count": 2,
            "cull_every": None,
            "seed": None,
        }
    )
    assert problems == [
        "unknown executor 'warp'; valid choices: inline, pooled",
        "batch_size must be a positive integer, got 0",
        "hunt_crashes must be a boolean, got 'yes'",
        "unknown coverage backend 'magic'; valid choices: settrace, ast",
        "shard_id 3 outside 0..shard_count-1",
    ]
