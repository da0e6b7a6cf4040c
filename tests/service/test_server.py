"""HTTP control plane: endpoints, event stream, Prometheus metrics."""

import threading

import pytest

from repro.eval.metrics import CampaignMetrics
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import SchedulerConfig
from repro.service.server import CampaignService, make_server


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(
        tmp_path / "state",
        SchedulerConfig(workers=2, slice_executions=60),
    )
    httpd = make_server(svc)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield svc, client
    finally:
        httpd.shutdown()
        httpd.server_close()
        svc.scheduler.shutdown()


def test_healthz_reports_states(service):
    svc, client = service
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["jobs"] == 0
    assert set(health["states"]) == {
        "queued", "running", "paused", "done", "failed", "cancelled",
    }


def test_submit_returns_created_record(service):
    svc, client = service
    record = client.submit({"subject": "expr", "budget": 100, "seed": 3})
    assert record["job_id"] == "job-0000"
    assert record["state"] == "queued"
    assert record["spec"]["subject"] == "expr"
    assert [r["job_id"] for r in client.jobs()] == ["job-0000"]
    assert client.job("job-0000")["spec"]["seed"] == 3


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"subject": "nope"}, "unknown subject"),
        ({"subject": "expr", "budget": 0}, "budget"),
        ({"subject": "expr", "frobnicate": 1}, "unknown job spec fields"),
        ({}, "subject"),
    ],
)
def test_invalid_specs_are_rejected_with_400(service, payload, fragment):
    svc, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.submit(payload)
    assert excinfo.value.status == 400
    assert fragment in excinfo.value.message


def test_unknown_job_and_endpoint_are_404(service):
    svc, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.job("job-9999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_cancel_queued_job_and_conflict_on_terminal(service):
    svc, client = service
    record = client.submit({"subject": "expr", "budget": 100})
    cancelled = client.cancel(record["job_id"])
    assert cancelled["state"] == "cancelled"
    with pytest.raises(ServiceError) as excinfo:
        client.cancel(record["job_id"])
    assert excinfo.value.status == 409
    with pytest.raises(ServiceError) as excinfo:
        client.cancel("job-9999")
    assert excinfo.value.status == 404


def test_events_stream_roundtrips_through_the_schema_reader(service):
    svc, client = service
    client.submit({"subject": "expr", "budget": 150, "checkpoint_every": 50})
    client.submit({"subject": "ini", "budget": 120, "checkpoint_every": 50})
    svc.run(until_idle=True)

    events = list(client.events())
    assert events, "completed slices must publish metrics events"
    assert all(isinstance(event, CampaignMetrics) for event in events)
    # Slice records: preempted slices stream as "paused", the final slice
    # of each job as "ok", with campaign-cumulative executions.
    assert {event.status for event in events} <= {"ok", "paused"}
    final = {
        event.subject: event
        for event in events
        if event.status == "ok"
    }
    assert final["expr"].executions == 150
    assert final["ini"].executions == 120
    assert all(event.hostname for event in events)
    assert all(event.peak_rss_kb > 0 for event in events)


def test_metrics_exposition_covers_the_documented_series(service):
    svc, client = service
    record = client.submit(
        {"subject": "expr", "budget": 150, "checkpoint_every": 50}
    )
    svc.run(until_idle=True)
    text = client.metrics()
    for series in (
        'repro_service_jobs{state="done"} 1',
        "repro_service_queue_depth 0",
        "repro_service_running_jobs 0",
        "repro_service_executions_total 150",
        "repro_service_resumes_total",
        "repro_service_slices_total 3",
        "repro_service_executions_per_second",
        "repro_service_phase_seconds",
        "repro_service_peak_rss_kb",
    ):
        assert series in text, series
    # Prometheus text format: every non-comment line is "name[{labels}] value".
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name.startswith("repro_service_")
        float(value)
    assert client.job(record["job_id"])["state"] == "done"


def test_metrics_export_resident_resumes_next_to_all_resumes(tmp_path):
    """One worker holds its only job between slices, so every resume
    continues the campaign from memory and both counters agree."""
    svc = CampaignService(
        tmp_path / "state", SchedulerConfig(workers=1, slice_executions=60)
    )
    (record,) = svc.submit(
        {"subject": "expr", "budget": 240, "seed": 3, "checkpoint_every": 60}
    )
    svc.run(until_idle=True)
    text = svc.metrics_text()
    assert "# TYPE repro_service_resident_resumes_total counter" in text
    values = dict(
        line.rsplit(" ", 1)
        for line in text.splitlines()
        if line.startswith("repro_service_resume")
        or line.startswith("repro_service_resident")
    )
    resumes = svc.store.get(record.job_id).resumes
    assert resumes >= 2
    assert float(values["repro_service_resumes_total"]) == resumes
    assert float(values["repro_service_resident_resumes_total"]) == resumes


def test_queue_depth_counts_queued_and_paused(service):
    svc, client = service
    client.submit({"subject": "expr", "budget": 100})
    client.submit({"subject": "ini", "budget": 100})
    text = client.metrics()
    assert "repro_service_queue_depth 2" in text


def test_traced_job_streams_events_and_counts(service):
    """A --trace job leaves an NDJSON artifact the service tails into
    /events?trace=1 and the repro_service_trace_events_total counters."""
    from repro.obs.lineage import LineageLog
    from repro.obs.trace import read_trace

    svc, client = service
    record = client.submit(
        {"subject": "expr", "budget": 150, "checkpoint_every": 50,
         "trace": True}
    )
    untraced = client.submit({"subject": "ini", "budget": 100})
    svc.run(until_idle=True)

    # The artifact sits next to the job's checkpoints and is valid NDJSON
    # whose lineage replays every emitted input — even though the job ran
    # as several preempted slices.
    path = svc.state_dir / "jobs" / record["job_id"] / "trace.ndjson"
    events = read_trace(path)
    assert any(e["type"] == "preempted" for e in events)
    lineage = LineageLog.from_trace_events(events)
    emitted = [e for e in events if e["type"] == "input_emitted"]
    assert emitted
    for event in emitted:
        assert lineage.replay(event["lineage"]) == event["text"]
    untraced_dir = svc.state_dir / "jobs" / untraced["job_id"]
    assert not (untraced_dir / "trace.ndjson").exists()

    # The service tailed the file at slice boundaries: counters and the
    # buffered event stream agree with the artifact.
    text = client.metrics()
    assert (
        'repro_service_trace_events_total{type="input_emitted"} '
        f"{len(emitted)}" in text
    )
    streamed = list(client.trace_events())
    assert len(streamed) == len(events)
    assert {e["job_id"] for e in streamed} == {record["job_id"]}
    assert [e["type"] for e in streamed] == [e["type"] for e in events]


@pytest.fixture
def adaptive_service(tmp_path):
    from repro.service.gain import GainConfig

    svc = CampaignService(
        tmp_path / "state",
        SchedulerConfig(
            workers=1,
            slice_executions=60,
            adaptive=True,
            # Park aggressively so one short job exercises the lifecycle.
            gain=GainConfig(
                decay=0.99, min_evidence=30.0, pause_threshold=0.5,
                probe_every=60,
            ),
        ),
    )
    httpd = make_server(svc)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield svc, client
    finally:
        httpd.shutdown()
        httpd.server_close()
        svc.scheduler.shutdown()


def test_adaptive_service_exposes_gain_gauges_and_events(adaptive_service):
    """Adaptive mode surfaces per-account gain posteriors as Prometheus
    gauges and interleaves synthesized gain_update events (one per
    completed slice) into the trace stream."""
    svc, client = adaptive_service
    record = client.submit(
        {"subject": "expr", "budget": 180, "checkpoint_every": 60}
    )
    svc.run(until_idle=True)

    text = client.metrics()
    account = record["job_id"]
    for series in (
        f'repro_service_gain_posterior{{account="{account}"}}',
        f'repro_service_gain_weight{{account="{account}"}}',
        f'repro_service_gain_parked{{account="{account}"}}',
        'repro_service_trace_events_total{type="gain_update"} 3',
    ):
        assert series in text, series

    updates = [
        event
        for event in client.trace_events()
        if event["type"] == "gain_update"
    ]
    assert len(updates) == 3  # one per completed 60-execution slice
    assert [event["executions"] for event in updates] == [60, 120, 180]
    for event in updates:
        assert event["job_id"] == account
        assert 0.0 < event["posterior"] < 1.0
        assert event["weight"] > 0.0
        assert isinstance(event["parked"], bool)


def test_cli_submit_status_cancel_round_trip(service, capsys):
    """The repro submit/status/cancel subcommands against a live server."""
    import json

    from repro.cli import main

    svc, client = service
    url = client.base_url
    assert main(["submit", "expr", "--url", url, "--budget", "150",
                 "--seed", "1", "--checkpoint-every", "50"]) == 0
    submitted = json.loads(capsys.readouterr().out)
    assert submitted["state"] == "queued"

    assert main(["submit", "ini", "--url", url, "--budget", "100"]) == 0
    capsys.readouterr()
    assert main(["cancel", "job-0001", "--url", url]) == 0
    assert json.loads(capsys.readouterr().out)["state"] == "cancelled"

    svc.run(until_idle=True)
    assert main(["status", "--url", url]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("job-0000\tdone\tpfuzzer:expr\t150/150")
    assert lines[1].startswith("job-0001\tcancelled")

    assert main(["status", "job-0000", "--url", url]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result_fingerprint"]

    assert main(["cancel", "job-0000", "--url", url]) == 1  # terminal: 409
    assert "illegal job transition" in capsys.readouterr().err
