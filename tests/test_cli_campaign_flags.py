"""CLI: the campaign flags ``fuzz`` and ``submit`` share.

Each shared flag must reach the :class:`~repro.core.config.FuzzerConfig`
that ``repro fuzz`` builds and the job spec that ``repro submit`` sends;
a flag the chosen path would drop, or a hybrid sub-knob without
``--hybrid``, is a usage error (exit 2) instead of a silent no-op.
"""

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.fuzzer import FuzzingResult
from repro.service.jobs import JobError, JobSpec, fuzzer_options

#: (argv, FuzzerConfig field, expected value) for every shared flag.
FLAG_CASES = [
    (["--coverage-backend", "ast"], "coverage_backend", "ast"),
    (["--checkpoint-every", "70"], "checkpoint_every", 70),
    (["--executor", "pooled"], "executor", "pooled"),
    (["--batch-size", "4"], "batch_size", 4),
    (["--cull-every", "40"], "cull_every", 40),
    (["--hybrid"], "hybrid", True),
    (["--hybrid", "--mine-after", "60"], "mine_after", 60),
    (["--hybrid", "--gen-batch", "8"], "gen_batch", 8),
    (["--hybrid", "--gen-depth", "5"], "gen_depth", 5),
    (["--hunt-crashes"], "hunt_crashes", True),
]


class _RecordingFuzzer:
    configs = []

    def __init__(self, subject, config):
        self.configs.append(config)

    def run(self):
        return FuzzingResult()


class _RecordingClient:
    specs = []

    def __init__(self, url):
        self.url = url

    def submit(self, spec):
        self.specs.append(spec)
        return {"job_id": "job-0000", "state": "queued", "spec": spec}


@pytest.fixture
def fuzzer(monkeypatch):
    monkeypatch.setattr(cli, "PFuzzer", _RecordingFuzzer)
    _RecordingFuzzer.configs = []
    return _RecordingFuzzer


@pytest.fixture
def client(monkeypatch):
    import repro.service.client as client_module

    monkeypatch.setattr(client_module, "ServiceClient", _RecordingClient)
    _RecordingClient.specs = []
    return _RecordingClient


def test_flag_cases_cover_every_shared_flag():
    flags = {
        [arg for arg in argv if arg.startswith("--")][-1]
        for argv, _, _ in FLAG_CASES
    }
    assert flags == {flag for flag, _ in cli._CAMPAIGN_FLAGS}


@pytest.mark.parametrize(
    "argv, name, value", FLAG_CASES, ids=[case[1] for case in FLAG_CASES]
)
def test_shared_flag_reaches_the_fuzz_config(
    fuzzer, tmp_path, argv, name, value
):
    if name == "checkpoint_every":
        # A single campaign snapshots only into a directory (see below).
        argv = [*argv, "--checkpoint-dir", str(tmp_path)]
    assert main(["fuzz", "expr", "--budget", "10", *argv]) == 0
    (config,) = fuzzer.configs
    assert getattr(config, name) == value
    assert config.options()[name] == value


@pytest.mark.parametrize(
    "argv, name, value", FLAG_CASES, ids=[case[1] for case in FLAG_CASES]
)
def test_shared_flag_reaches_the_submitted_spec(client, capsys, argv, name, value):
    assert main(["submit", "expr", "--budget", "10", *argv]) == 0
    (spec,) = client.specs
    assert spec[name] == value
    # The service takes the spec as sent and forwards the knob to every
    # slice's FuzzerConfig.
    job = JobSpec.from_dict(spec)
    job.validate()
    assert fuzzer_options(job.to_dict())[name] == value


def test_unset_flags_are_not_forwarded(fuzzer, client, capsys):
    assert main(["fuzz", "expr", "--budget", "10"]) == 0
    assert fuzzer.configs[0].options() == {"seed": 0, "max_executions": 10}
    assert main(["submit", "expr"]) == 0
    assert set(client.specs[0]) == {"subject", "tool", "budget", "seed", "priority"}


@pytest.mark.parametrize(
    "argv, unapplied",
    [
        (
            ["--shards", "2", "--hybrid", "--hunt-crashes", "--executor",
             "pooled", "--batch-size", "4", "--trace", "{trace}",
             "--checkpoint-dir", "{group}"],
            ["--executor", "--batch-size", "--hybrid", "--hunt-crashes",
             "--trace"],
        ),
        (["--shards", "2", "--all-valid"], ["--all-valid"]),
        (["--shards", "2", "--cull-every", "40"], ["--cull-every"]),
        (["--shards", "2", "--trace", "{trace}"], ["--trace"]),
        (
            ["--shards", "2", "--hybrid", "--mine-after", "60", "--gen-batch",
             "8", "--gen-depth", "5"],
            ["--hybrid", "--mine-after", "--gen-batch", "--gen-depth"],
        ),
        (["--sync-every", "50"], ["--sync-every"]),
        (["--slice-executions", "100"], ["--slice-executions"]),
        (["--shards", "1", "--sync-every", "50"], ["--sync-every"]),
    ],
    ids=[
        "shards-engine-modes-trace",
        "shards-all-valid",
        "shards-cull",
        "shards-trace",
        "shards-hybrid-knobs",
        "sync-every-unsharded",
        "slice-executions-unsharded",
        "sync-every-one-shard",
    ],
)
def test_fuzz_rejects_flags_its_path_does_not_apply(
    tmp_path, capsys, argv, unapplied
):
    trace, group = tmp_path / "T.ndjson", tmp_path / "G"
    argv = [arg.format(trace=trace, group=group) for arg in argv]
    assert main(["fuzz", "expr", "--budget", "40", *argv]) == 2
    err = capsys.readouterr().err
    assert ", ".join(unapplied) in err
    assert not trace.exists() and not group.exists()


def test_checkpoint_every_without_a_directory_is_a_usage_error(
    fuzzer, tmp_path, monkeypatch, capsys
):
    assert main(["fuzz", "expr", "--budget", "60", "--checkpoint-every", "10"]) == 2
    assert "--checkpoint-every requires --checkpoint-dir" in capsys.readouterr().err
    assert fuzzer.configs == []
    # A sharded group keeps its temporary snapshot root.
    import tempfile

    root = tmp_path / "group"
    monkeypatch.setattr(
        tempfile, "mkdtemp", lambda prefix: root.mkdir() or str(root)
    )
    assert main(
        ["fuzz", "expr", "--shards", "2", "--budget", "100",
         "--slice-executions", "50", "--checkpoint-every", "25"]
    ) == 0
    assert (root / "corpus.jsonl").exists()


def test_sharded_fuzz_applies_its_own_campaign_options(tmp_path, capsys):
    assert main(
        ["fuzz", "expr", "--shards", "2", "--budget", "100",
         "--slice-executions", "50", "--sync-every", "50",
         "--checkpoint-every", "25", "--coverage-backend", "ast",
         "--checkpoint-dir", str(tmp_path / "group")]
    ) == 0
    assert "group fingerprint" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mine-after", "--gen-batch", "--gen-depth"])
def test_hybrid_sub_knob_without_hybrid_is_the_services_usage_error(
    fuzzer, client, capsys, flag
):
    name = flag[2:].replace("-", "_")
    message = f"{name} requires hybrid mode"
    with pytest.raises(JobError, match=message):
        JobSpec(subject="expr", **{name: 60}).validate()
    assert main(["fuzz", "expr", flag, "60"]) == 2
    assert message in capsys.readouterr().err
    assert main(["submit", "expr", flag, "60"]) == 2
    assert message in capsys.readouterr().err
    assert fuzzer.configs == [] and client.specs == []
