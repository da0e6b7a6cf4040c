"""HTTP control plane for the campaign service (stdlib only).

:class:`CampaignService` owns the job store, the scheduler and the event
stream; :func:`make_server` wraps it in a ``ThreadingHTTPServer``.  The
scheduler runs in the caller's thread (:meth:`CampaignService.run`), HTTP
handlers run in daemon threads and only touch the thread-safe store and
the event buffer.

Endpoints::

    POST   /jobs        submit a JobSpec JSON -> job record (201); with
                        "shards": N > 1 the job expands into a gang-
                        scheduled shard group and the response carries
                        ``shard_group`` plus every member record
    GET    /jobs        every job record, submission order
    GET    /jobs/<id>   one job record
    DELETE /jobs/<id>   cancel (terminal; the job's snapshot is preserved)
    GET    /events      NDJSON stream of per-slice CampaignMetrics
                        records (add ?follow=1 to keep streaming; add
                        ?trace=1 for raw campaign trace events from
                        traced jobs instead)
    GET    /healthz     liveness + job counts
    GET    /metrics     Prometheus text format

Durability contract: all state that matters is in the journal and the
per-job checkpoint directories, both crash-safe.  SIGKILL the server at
any point, restart it on the same ``--state-dir``, and every unfinished
job resumes to a byte-identical result (same ``result_fingerprint``) —
the property ``tests/service/test_kill_restart.py`` asserts.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.eval.metrics import CampaignMetrics
from repro.runtime.limits import peak_rss_kb
from repro.service.jobs import (
    JobError,
    JobRecord,
    JobSpec,
    JobState,
    JobStateError,
    JobStore,
)
from repro.service.scheduler import CampaignScheduler, SchedulerConfig

_JOB_PATH_RE = re.compile(r"^/jobs/([A-Za-z0-9_-]+)$")

#: Per-slice metrics records kept for /events; old entries fall off.
_EVENT_BUFFER = 4096

#: Campaign trace events kept for /events?trace=1; old entries fall off.
_TRACE_BUFFER = 8192


class CampaignService:
    """The resident service: store + scheduler + event stream.

    Args:
        state_dir: holds ``journal.jsonl`` and per-job checkpoint
            directories under ``jobs/``; everything a restarted service
            needs to finish in-flight work deterministically.
        scheduler_config: worker pool size, slice length, retry policy.
    """

    def __init__(
        self,
        state_dir,
        scheduler_config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.state_dir / "journal.jsonl")
        self.scheduler = CampaignScheduler(
            self.store,
            self.state_dir,
            scheduler_config,
            on_slice=self._record_slice,
        )
        self._events: deque = deque(maxlen=_EVENT_BUFFER)
        self._events_seen = 0
        self._events_cond = threading.Condition()
        self._started = time.monotonic()
        self._slice_wall_total = 0.0
        self._slice_executions_total = 0
        self._worker_peak_rss_kb = 0
        #: Cumulative trace-event counts by type, across every traced job.
        self._trace_counts: Dict[str, int] = {}
        #: Byte offset already ingested from each traced job's trace file.
        self._trace_offsets: Dict[str, int] = {}
        self._trace_events: deque = deque(maxlen=_TRACE_BUFFER)
        self._trace_seen = 0

    # -- event stream ---------------------------------------------------- #

    def _ingest_trace(self, job_id: str) -> List[dict]:
        """New complete trace lines from the job's file since last slice.

        Workers append NDJSON to ``jobs/<id>/trace.ndjson``; the service
        tails it at slice boundaries, remembering the byte offset per job.
        A torn final line (the worker was killed mid-append) stays behind
        the offset and is retried — or skipped — on the next slice.
        """
        path = self.state_dir / "jobs" / job_id / "trace.ndjson"
        offset = self._trace_offsets.get(job_id, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return []
        end = data.rfind(b"\n")
        if end < 0:
            return []
        self._trace_offsets[job_id] = offset + end + 1
        events: List[dict] = []
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(event, dict):
                event["job_id"] = job_id
                events.append(event)
        return events

    def _record_slice(
        self,
        record: JobRecord,
        metrics: CampaignMetrics,
        delta_executions: int,
        slice_wall: float,
        trace_events: Optional[Dict[str, int]] = None,
    ) -> None:
        fresh_trace = self._ingest_trace(record.job_id) if trace_events else []
        gain = self.scheduler.gain_state(record)
        if gain is not None:
            # Synthesized service-side event: the adaptive scheduler's
            # posterior for this job after the slice, interleaved into
            # the trace stream so /events?trace=1 consumers see gain
            # moves next to the campaign events that caused them.
            from repro.obs.trace import TRACE_SCHEMA_VERSION

            fresh_trace.append(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "type": "gain_update",
                    "job_id": record.job_id,
                    "executions": record.executions,
                    "posterior": gain["posterior"],
                    "weight": gain["weight"],
                    "parked": gain["parked"],
                }
            )
        with self._events_cond:
            self._events.append(metrics)
            self._events_seen += 1
            self._slice_wall_total += slice_wall
            self._slice_executions_total += delta_executions
            self._worker_peak_rss_kb = max(
                self._worker_peak_rss_kb, metrics.peak_rss_kb
            )
            if trace_events:
                for kind, count in trace_events.items():
                    self._trace_counts[kind] = (
                        self._trace_counts.get(kind, 0) + count
                    )
            if gain is not None:
                self._trace_counts["gain_update"] = (
                    self._trace_counts.get("gain_update", 0) + 1
                )
            for event in fresh_trace:
                self._trace_events.append(event)
            self._trace_seen += len(fresh_trace)
            self._events_cond.notify_all()

    def events_snapshot(self) -> Tuple[int, List[CampaignMetrics]]:
        """(total events ever seen, buffered records oldest-first)."""
        with self._events_cond:
            return self._events_seen, list(self._events)

    def trace_snapshot(self) -> Tuple[int, List[dict]]:
        """(total trace events ever seen, buffered events oldest-first)."""
        with self._events_cond:
            return self._trace_seen, list(self._trace_events)

    def wait_for_events(self, seen: int, timeout: float) -> None:
        """Block until the event counter passes ``seen`` (or timeout)."""
        with self._events_cond:
            if self._events_seen <= seen:
                self._events_cond.wait(timeout)

    def wait_for_trace(self, seen: int, timeout: float) -> None:
        """Block until the trace counter passes ``seen`` (or timeout)."""
        with self._events_cond:
            if self._trace_seen <= seen:
                self._events_cond.wait(timeout)

    # -- control-plane operations ---------------------------------------- #

    def submit(self, payload: dict) -> List[JobRecord]:
        """Submit one job — or, with ``shards`` > 1, a shard group.

        Returns the created records (one per shard; a single record for
        ordinary jobs).  Raises :class:`JobError` on an invalid spec.
        """
        return self.store.submit_sharded(JobSpec.from_dict(payload))

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job; its snapshot directory is left untouched.

        Raises:
            JobError: unknown job.
            JobStateError: the job is already terminal.
        """
        return self.store.transition(job_id, JobState.CANCELLED)

    def health(self) -> dict:
        states = self.state_counts()
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "jobs": sum(states.values()),
            "states": states,
        }

    def state_counts(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for record in self.store.list():
            counts[record.state.value] += 1
        return counts

    def metrics_text(self) -> str:
        """Service gauges/counters in Prometheus text exposition format."""
        states = self.state_counts()
        records = self.store.list()
        executions = sum(record.executions for record in records)
        resumes = sum(record.resumes for record in records)
        slices = sum(record.slices for record in records)
        crashes = sum(record.crashes for record in records)
        with self._events_cond:
            wall = self._slice_wall_total
            sliced_execs = self._slice_executions_total
            worker_rss = self._worker_peak_rss_kb
            trace_counts = dict(self._trace_counts)
        execs_per_second = sliced_execs / wall if wall > 0 else 0.0
        # Sum the newest cumulative phase_times per job (not per slice —
        # slices report campaign-cumulative timings).
        newest_by_job: Dict[Tuple[str, str, int], Dict[str, float]] = {}
        for metrics in list(self._events):
            if metrics.phase_times:
                key = (metrics.tool, metrics.subject, metrics.seed)
                newest_by_job[key] = metrics.phase_times
        phase_totals: Dict[str, float] = {}
        for phases in newest_by_job.values():
            for phase, seconds in phases.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        lines = [
            "# HELP repro_service_jobs Jobs by lifecycle state.",
            "# TYPE repro_service_jobs gauge",
        ]
        for state in JobState:
            lines.append(
                f'repro_service_jobs{{state="{state.value}"}} {states[state.value]}'
            )
        queue_depth = states["queued"] + states["paused"]
        lines += [
            "# HELP repro_service_queue_depth Jobs waiting for a time slice.",
            "# TYPE repro_service_queue_depth gauge",
            f"repro_service_queue_depth {queue_depth}",
            "# HELP repro_service_running_jobs Jobs currently on a worker.",
            "# TYPE repro_service_running_jobs gauge",
            f"repro_service_running_jobs {states['running']}",
            "# HELP repro_service_executions_total Subject executions across all jobs.",
            "# TYPE repro_service_executions_total counter",
            f"repro_service_executions_total {executions}",
            "# HELP repro_service_resumes_total Resumes across all jobs, from a checkpoint or from memory.",
            "# TYPE repro_service_resumes_total counter",
            f"repro_service_resumes_total {resumes}",
            "# HELP repro_service_resident_resumes_total Resumes from a campaign a worker held in memory, since the service started.",
            "# TYPE repro_service_resident_resumes_total counter",
            f"repro_service_resident_resumes_total {self.scheduler.resident_resumes}",
            "# HELP repro_service_slices_total Completed time slices.",
            "# TYPE repro_service_slices_total counter",
            f"repro_service_slices_total {slices}",
            "# HELP repro_service_executions_per_second Throughput over completed slices.",
            "# TYPE repro_service_executions_per_second gauge",
            f"repro_service_executions_per_second {execs_per_second:.6f}",
        ]
        lines += [
            "# HELP repro_service_phase_seconds Campaign seconds by phase, summed over jobs.",
            "# TYPE repro_service_phase_seconds gauge",
        ]
        for phase in sorted(phase_totals):
            lines.append(
                f'repro_service_phase_seconds{{phase="{phase}"}} '
                f"{phase_totals[phase]:.6f}"
            )
        lines += [
            "# HELP repro_service_trace_events_total Campaign trace events by type, across traced jobs.",
            "# TYPE repro_service_trace_events_total counter",
        ]
        for kind in sorted(trace_counts):
            lines.append(
                f'repro_service_trace_events_total{{type="{kind}"}} '
                f"{trace_counts[kind]}"
            )
        gain = self.scheduler.gain_snapshot()
        if gain:
            lines += [
                "# HELP repro_service_gain_posterior Coverage-gain posterior per stride account.",
                "# TYPE repro_service_gain_posterior gauge",
            ]
            for account in sorted(gain):
                lines.append(
                    f'repro_service_gain_posterior{{account="{account}"}} '
                    f"{gain[account]['posterior']:.9f}"
                )
            lines += [
                "# HELP repro_service_gain_weight Dynamic stride weight per stride account.",
                "# TYPE repro_service_gain_weight gauge",
            ]
            for account in sorted(gain):
                lines.append(
                    f'repro_service_gain_weight{{account="{account}"}} '
                    f"{gain[account]['weight']:.9f}"
                )
            lines += [
                "# HELP repro_service_gain_parked Whether the account is parked (1) or schedulable (0).",
                "# TYPE repro_service_gain_parked gauge",
            ]
            for account in sorted(gain):
                lines.append(
                    f'repro_service_gain_parked{{account="{account}"}} '
                    f"{1 if gain[account]['parked'] else 0}"
                )
        hybrid_jobs = sum(1 for record in records if record.spec.hybrid)
        lines += [
            "# HELP repro_service_hybrid_jobs Jobs in hybrid mine/generate mode.",
            "# TYPE repro_service_hybrid_jobs gauge",
            f"repro_service_hybrid_jobs {hybrid_jobs}",
            "# HELP repro_service_hybrid_mines_total grammar_mined events across traced jobs.",
            "# TYPE repro_service_hybrid_mines_total counter",
            f"repro_service_hybrid_mines_total {trace_counts.get('grammar_mined', 0)}",
            "# HELP repro_service_hybrid_floods_total gen_phase events across traced jobs.",
            "# TYPE repro_service_hybrid_floods_total counter",
            f"repro_service_hybrid_floods_total {trace_counts.get('gen_phase', 0)}",
        ]
        hunting_jobs = sum(1 for record in records if record.spec.hunt_crashes)
        lines += [
            "# HELP repro_service_crash_hunting_jobs Jobs in crash-hunting mode.",
            "# TYPE repro_service_crash_hunting_jobs gauge",
            f"repro_service_crash_hunting_jobs {hunting_jobs}",
            "# HELP repro_service_crashes_total Subject crashes observed across all jobs.",
            "# TYPE repro_service_crashes_total counter",
            f"repro_service_crashes_total {crashes}",
            "# HELP repro_service_crash_sites_total crash_found events (distinct failure sites) across traced jobs.",
            "# TYPE repro_service_crash_sites_total counter",
            f"repro_service_crash_sites_total {trace_counts.get('crash_found', 0)}",
        ]
        lines += [
            "# HELP repro_service_peak_rss_kb High-water RSS of the server process (kB).",
            "# TYPE repro_service_peak_rss_kb gauge",
            f"repro_service_peak_rss_kb {peak_rss_kb()}",
            "# HELP repro_service_worker_peak_rss_kb Highest worker RSS seen in a slice (kB).",
            "# TYPE repro_service_worker_peak_rss_kb gauge",
            f"repro_service_worker_peak_rss_kb {worker_rss}",
        ]
        return "\n".join(lines) + "\n"

    # -- scheduler loop --------------------------------------------------- #

    def run(
        self,
        stop: Optional[threading.Event] = None,
        until_idle: bool = False,
        poll: float = 0.05,
    ) -> None:
        """Drive the scheduler until ``stop`` is set (or the queue drains).

        Runs in the calling thread — the service's main loop.  On exit the
        worker pool is torn down; in-flight slices lose at most one
        checkpoint interval, which the next start resumes.
        """
        try:
            while True:
                if stop is not None and stop.is_set():
                    return
                if until_idle and not self.scheduler.has_work():
                    return
                self.scheduler.step(drain_timeout=poll)
        finally:
            self.scheduler.shutdown()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the owning :class:`CampaignService`."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the control plane is quiet; metrics are the observability

    # -- helpers ---------------------------------------------------------- #

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, ensure_ascii=True).encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("empty request body; expected a job spec JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise JobError(f"malformed JSON body: {exc}") from None

    def _query_flag(self, name: str) -> bool:
        if "?" not in self.path:
            return False
        query = self.path.split("?", 1)[1]
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == name and value not in ("", "0", "false"):
                return True
        return False

    @property
    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    # -- verbs ------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        route = self._route
        if route == "/healthz":
            self._send_json(self.service.health())
        elif route == "/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif route == "/jobs":
            self._send_json(
                {"jobs": [r.to_dict() for r in self.service.store.list()]}
            )
        elif _JOB_PATH_RE.match(route):
            job_id = _JOB_PATH_RE.match(route).group(1)
            try:
                self._send_json(self.service.store.get(job_id).to_dict())
            except JobError as exc:
                self._send_error_json(str(exc), 404)
        elif route == "/events":
            self._stream_events(
                follow=self._query_flag("follow"),
                trace=self._query_flag("trace"),
            )
        else:
            self._send_error_json(f"no such endpoint: {route}", 404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._route != "/jobs":
            self._send_error_json(f"no such endpoint: {self._route}", 404)
            return
        try:
            records = self.service.submit(self._read_body_json())
        except JobError as exc:
            self._send_error_json(str(exc), 400)
            return
        if len(records) == 1 and records[0].spec.shard_group is None:
            # Ordinary jobs keep the original single-record response.
            self._send_json(records[0].to_dict(), status=201)
        else:
            self._send_json(
                {
                    "shard_group": records[0].spec.shard_group,
                    "jobs": [record.to_dict() for record in records],
                },
                status=201,
            )

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        match = _JOB_PATH_RE.match(self._route)
        if not match:
            self._send_error_json(f"no such endpoint: {self._route}", 404)
            return
        try:
            record = self.service.cancel(match.group(1))
        except JobStateError as exc:
            self._send_error_json(str(exc), 409)
            return
        except JobError as exc:
            self._send_error_json(str(exc), 404)
            return
        self._send_json(record.to_dict())

    # -- /events ----------------------------------------------------------- #

    def _stream_events(self, follow: bool, trace: bool = False) -> None:
        """NDJSON: the buffered backlog, then (with follow) live records.

        Default records are :meth:`CampaignMetrics.to_json_line` lines, so
        any consumer of campaign metrics JSONL files can read the stream
        unchanged; with ``trace`` they are raw campaign trace events (see
        :mod:`repro.obs.trace`) tagged with their ``job_id``.  Chunked
        transfer keeps HTTP/1.1 keep-alive correct for the open-ended
        follow mode.
        """
        if trace:
            snapshot = self.service.trace_snapshot
            wait = self.service.wait_for_trace
            encode = lambda event: json.dumps(  # noqa: E731
                event, ensure_ascii=True, separators=(",", ":")
            )
        else:
            snapshot = self.service.events_snapshot
            wait = self.service.wait_for_events
            encode = lambda metrics: metrics.to_json_line()  # noqa: E731
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(text: str) -> None:
            data = text.encode("utf-8")
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
            self.wfile.write(data + b"\r\n")
            self.wfile.flush()

        try:
            seen, backlog = snapshot()
            for record in backlog:
                write_chunk(encode(record) + "\n")
            while follow:
                wait(seen, timeout=0.25)
                total, buffered = snapshot()
                fresh = total - seen
                if fresh > 0:
                    for record in buffered[-fresh:]:
                        write_chunk(encode(record) + "\n")
                    seen = total
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the control plane; ``port=0`` picks a free port (see
    ``server_address`` for the bound one)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(
    state_dir,
    host: str = "127.0.0.1",
    port: int = 0,
    scheduler_config: Optional[SchedulerConfig] = None,
    *,
    stop: Optional[threading.Event] = None,
    until_idle: bool = False,
    on_bound=None,
) -> None:
    """Run the full service: HTTP in daemon threads, scheduler here.

    Blocks until ``stop`` is set (SIGTERM/SIGINT from the CLI) — or, with
    ``until_idle``, until every journalled job is terminal.  ``on_bound``
    is called with ``(host, port)`` once the socket is listening.
    """
    service = CampaignService(state_dir, scheduler_config)
    httpd = make_server(service, host, port)
    bound_host, bound_port = httpd.server_address[:2]
    if on_bound is not None:
        on_bound(bound_host, bound_port)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        service.run(stop=stop, until_idle=until_idle)
    finally:
        httpd.shutdown()
        httpd.server_close()
