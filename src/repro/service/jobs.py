"""Job model and crash-safe journal for the campaign service.

A *job* is one campaign owned by the service: a :class:`JobSpec` (what to
run) plus a :class:`JobRecord` (where it is).  Records move through a
small state machine::

    QUEUED ──> RUNNING ──> DONE
      │          │  ▲        FAILED
      │          ▼  │
      │        PAUSED        (preempted, snapshot on disk)
      │          │
      └──────────┴─────────> CANCELLED

``RUNNING -> QUEUED`` is also legal: a crashed worker re-queues its job
for another attempt.  Invalid transitions raise :class:`JobStateError`
rather than silently corrupting the table.

Durability is an append-only journal: every submission, state change and
progress update is one JSON line, flushed and fsynced, so the journal
survives SIGKILL with at most a torn trailing line (skipped on replay,
same contract as :mod:`repro.eval.corpus_store`).  :meth:`JobStore.compact`
rewrites the journal to its current state with the atomic
tmpfile+fsync+``os.replace`` discipline shared with
:func:`repro.eval.checkpoint.atomic_write_text`.  Replaying the journal
after a crash restores every record; jobs that were ``RUNNING`` when the
process died come back as ``QUEUED`` — their actual progress lives in the
per-job checkpoint directory, so re-running them resumes instead of
restarting.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.core.config import FuzzerConfig, config_problems
from repro.eval.campaign import switch_problems, validate_campaign
from repro.eval.checkpoint import atomic_write_text

PathLike = Union[str, Path]


class JobState(str, Enum):
    """Lifecycle state of one job."""

    QUEUED = "queued"
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Legal state-machine edges (see module docstring).
_TRANSITIONS = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {
            JobState.PAUSED,
            JobState.QUEUED,
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
        }
    ),
    JobState.PAUSED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


class JobError(Exception):
    """A job operation failed (unknown id, invalid spec)."""


class JobStateError(JobError):
    """An illegal state-machine transition was attempted."""


@dataclass(frozen=True)
class JobSpec:
    """What one job runs — immutable once submitted.

    Attributes:
        subject: registered subject name.
        tool: campaign tool (:data:`repro.eval.campaign.TOOLS`); only
            pFuzzer jobs are preemptible — baseline tools run their whole
            budget in a single slice.
        budget: execution budget for the whole campaign.
        seed: PRNG seed.
        priority: fair-share weight (>= 1); a priority-2 job receives
            twice the executions of a priority-1 job under contention.
        trace: record a structured NDJSON campaign trace (pFuzzer only) to
            ``trace.ndjson`` in the job's state directory; slices append to
            it, so the file spans the whole campaign across preemptions.
        shards: submit-time group size.  ``shards`` > 1 expands the
            submission into that many member jobs (one per shard, seeds
            ``seed + shard_id``) sharing a group corpus store under the
            service state directory (see :meth:`JobStore.submit_sharded`).
        shard_id: this member's shard index; assigned by the service on
            group expansion, never set by clients.
        shard_group: the group id shared by all members; assigned by the
            service on group expansion.
        coverage_backend, checkpoint_every, sync_every, executor,
            batch_size, cull_every, hybrid, mine_after, gen_batch,
            gen_depth, hunt_crashes: the
            :class:`~repro.core.config.FuzzerConfig` fields of the same
            name (pFuzzer jobs only; None is the fuzzer's default).
            Slice boundaries always snapshot, whatever
            ``checkpoint_every`` says, and fingerprinted knobs stay fixed
            across the job's slices because specs are immutable.
        subject_module: module imported (registering its plugin
            subjects via :func:`repro.subjects.registry.register_subject`)
            before the subject name is resolved — in every worker, since
            plugin registrations are per-process.
    """

    subject: str
    tool: str = "pfuzzer"
    budget: int = 2_000
    seed: int = 0
    priority: int = 1
    coverage_backend: str = "settrace"
    checkpoint_every: Optional[int] = None
    trace: bool = False
    shards: int = 1
    shard_id: Optional[int] = None
    shard_group: Optional[str] = None
    sync_every: Optional[int] = None
    executor: str = "inline"
    batch_size: int = 1
    cull_every: Optional[int] = None
    hybrid: bool = False
    mine_after: Optional[int] = None
    gen_batch: Optional[int] = None
    gen_depth: Optional[int] = None
    hunt_crashes: bool = False
    subject_module: Optional[str] = None

    def validate(self) -> None:
        """Raises :class:`JobError` naming every invalid field.

        The service's own fields are checked here; the campaign knobs by
        :func:`repro.core.config.config_problems`, on the options
        :func:`fuzzer_options` forwards to every slice.
        """
        problems: List[str] = []
        if self.subject_module is not None and (
            not isinstance(self.subject_module, str) or not self.subject_module
        ):
            problems.append(
                f"subject_module must be a non-empty string, "
                f"got {self.subject_module!r}"
            )
        elif self.subject_module is not None:
            # Import up front so plugin subjects the module registers are
            # visible to the subject-name check below; a module that fails
            # to import is a spec problem, not a worker crash later.
            from repro.subjects.registry import load_subject_module

            try:
                load_subject_module(self.subject_module)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                problems.append(
                    f"subject_module {self.subject_module!r} failed to "
                    f"import: {type(exc).__name__}: {exc}"
                )
        try:
            validate_campaign(self.tool, self.subject)
        except ValueError as exc:
            problems.append(str(exc))
        if not isinstance(self.budget, int) or self.budget < 1:
            problems.append(f"budget must be a positive integer, got {self.budget!r}")
        if not isinstance(self.seed, int):
            problems.append(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.priority, int) or self.priority < 1:
            problems.append(
                f"priority must be a positive integer, got {self.priority!r}"
            )
        if not isinstance(self.trace, bool):
            problems.append(f"trace must be a boolean, got {self.trace!r}")
        if not isinstance(self.shards, int) or self.shards < 1:
            problems.append(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        elif self.shards > 1 and self.tool != "pfuzzer":
            problems.append(
                f"sharding requires the pfuzzer tool, got {self.tool!r}"
            )
        if self.shard_id is not None and self.shard_group is None:
            problems.append("shard_id requires a shard_group")
        if self.shard_group is not None:
            if not isinstance(self.shard_group, str) or not self.shard_group:
                problems.append(
                    f"shard_group must be a non-empty string, "
                    f"got {self.shard_group!r}"
                )
            if self.shard_id is None:
                problems.append("shard_group requires a shard_id")
        options = fuzzer_options(self.to_dict())
        problems.extend(config_problems(options))
        problems.extend(switch_problems(self.tool, options))
        if problems:
            raise JobError("; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "JobSpec":
        """Build a spec from untrusted JSON; unknown keys are rejected.

        Raises:
            JobError: non-object payload, unknown fields, or a missing
                ``subject``.
        """
        if not isinstance(record, dict):
            raise JobError(f"job spec must be a JSON object, got {type(record).__name__}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py39 compat
        unknown = sorted(set(record) - known)
        if unknown:
            raise JobError(f"unknown job spec fields: {', '.join(unknown)}")
        if "subject" not in record:
            raise JobError("job spec is missing the required 'subject' field")
        return cls(**record)


#: The :class:`~repro.core.config.FuzzerConfig` fields a spec can set.
_CONFIG_FIELDS = frozenset(FuzzerConfig.__dataclass_fields__) - {"seed"}
#: Spec fields whose None means "the fuzzer's default".
_DEFAULTED = frozenset(
    name
    for name, spec_field in JobSpec.__dataclass_fields__.items()
    if spec_field.default is None
)


def fuzzer_options(spec: Mapping) -> Dict[str, object]:
    """The :class:`~repro.core.config.FuzzerConfig` options of a job spec's
    dict — or of a scheduler task, which adds ``checkpoint_dir`` and
    ``sync_store`` to it.

    ``seed`` and ``budget`` (``max_executions``) are the job's own fields,
    which every slice sets itself.  A None in a field that defaults to None
    is left out, so the fuzzer's default applies; a None anywhere else is
    kept, and the options check rejects it.  ``shards`` becomes
    ``shard_count`` for members of a shard group only.
    """
    options = {
        name: value
        for name, value in spec.items()
        if name in _CONFIG_FIELDS and not (value is None and name in _DEFAULTED)
    }
    if spec.get("shard_id") is not None:
        options["shard_count"] = spec["shards"]
    return options


@dataclass
class JobRecord:
    """Where one job is: state, progress counters, outcome.

    Progress counters are advisory (updated at slice boundaries); the
    authoritative campaign state lives in the job's checkpoint directory.
    """

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: Submission order; ties in the fair-share schedule break on this.
    seq: int = 0
    executions: int = 0
    valid_inputs: int = 0
    resumes: int = 0
    #: Completed time slices.
    slices: int = 0
    #: Consecutive failed slice attempts (crashes/timeouts); reset on any
    #: successful slice.
    failures: int = 0
    #: Subject-level crashes observed by the campaign so far (the
    #: *subject* raising, not the worker dying — that is ``failures``).
    crashes: int = 0
    wall_time: float = 0.0
    error: Optional[str] = None
    #: Canonical result fingerprint, set when the job reaches DONE
    #: (:func:`repro.eval.checkpoint.result_fingerprint`; pFuzzer only).
    result_fingerprint: Optional[str] = None

    def to_dict(self) -> dict:
        record = asdict(self)
        record["state"] = self.state.value
        record["spec"] = self.spec.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "JobRecord":
        fields = dict(record)
        fields["spec"] = JobSpec.from_dict(fields["spec"])
        fields["state"] = JobState(fields["state"])
        return cls(**fields)


def check_transition(old: JobState, new: JobState) -> None:
    """Raises :class:`JobStateError` when ``old -> new`` is not an edge."""
    if new not in _TRANSITIONS[old]:
        raise JobStateError(
            f"illegal job transition {old.value} -> {new.value}"
        )


class JobStore:
    """In-memory job table backed by the append-only journal.

    Thread-safe: the HTTP control plane reads and submits from handler
    threads while the scheduler transitions jobs from its own thread.
    """

    def __init__(self, journal_path: PathLike) -> None:
        self.journal_path = Path(journal_path)
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._next_seq = 0
        self._replay()

    # -- journal -------------------------------------------------------- #

    def _append_event(self, event: dict) -> None:
        """One JSON line, flushed and fsynced — survives SIGKILL."""
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(event, ensure_ascii=True, separators=(",", ":"))
        with open(self.journal_path, "a", encoding="ascii") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _apply_event(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "submit":
            spec = JobSpec.from_dict(event["spec"])
            record = JobRecord(
                job_id=event["job_id"], spec=spec, seq=int(event["seq"])
            )
            self._records[record.job_id] = record
            self._order.append(record.job_id)
            self._next_seq = max(self._next_seq, record.seq + 1)
        elif kind == "state":
            record = self._records.get(event["job_id"])
            if record is None:
                return
            record.state = JobState(event["state"])
            if event.get("error") is not None:
                record.error = event["error"]
            if event.get("fingerprint") is not None:
                record.result_fingerprint = event["fingerprint"]
        elif kind == "progress":
            record = self._records.get(event["job_id"])
            if record is None:
                return
            # "crashes" was added within the journal format; tolerant
            # replay keeps pre-crash-tracking journals loading (the key
            # is simply absent from their progress events).
            for name in (
                "executions",
                "valid_inputs",
                "resumes",
                "slices",
                "wall_time",
                "crashes",
            ):
                if name in event:
                    setattr(record, name, event[name])

    def _replay(self) -> None:
        """Rebuild the table from the journal; recover interrupted jobs.

        Malformed lines (the torn tail of a SIGKILLed append) and events
        for unknown jobs are skipped, never fatal.  Jobs left ``RUNNING``
        by a dead process are re-queued — their checkpoints make the
        re-run a resume, not a restart.
        """
        if not self.journal_path.exists():
            return
        with open(self.journal_path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(event, dict):
                    continue
                try:
                    self._apply_event(event)
                except (JobError, KeyError, TypeError, ValueError):
                    continue
        recovered = [
            record
            for record in self._records.values()
            if record.state in (JobState.RUNNING, JobState.PAUSED)
        ]
        for record in recovered:
            record.state = JobState.QUEUED
            self._append_event(
                {
                    "event": "state",
                    "job_id": record.job_id,
                    "state": JobState.QUEUED.value,
                }
            )

    def compact(self) -> int:
        """Atomically rewrite the journal to the current table state.

        Returns the number of journalled jobs.  Uses the checkpoint
        subsystem's tmpfile+fsync+``os.replace`` write, so a crash during
        compaction leaves the previous journal intact.
        """
        with self._lock:
            lines = []
            for job_id in self._order:
                record = self._records[job_id]
                lines.append(
                    json.dumps(
                        {
                            "event": "submit",
                            "job_id": record.job_id,
                            "seq": record.seq,
                            "spec": record.spec.to_dict(),
                        },
                        ensure_ascii=True,
                        separators=(",", ":"),
                    )
                )
                lines.append(
                    json.dumps(
                        {
                            "event": "state",
                            "job_id": record.job_id,
                            "state": record.state.value,
                            "error": record.error,
                            "fingerprint": record.result_fingerprint,
                        },
                        ensure_ascii=True,
                        separators=(",", ":"),
                    )
                )
                lines.append(
                    json.dumps(
                        {
                            "event": "progress",
                            "job_id": record.job_id,
                            "executions": record.executions,
                            "valid_inputs": record.valid_inputs,
                            "resumes": record.resumes,
                            "slices": record.slices,
                            "wall_time": record.wall_time,
                            "crashes": record.crashes,
                        },
                        ensure_ascii=True,
                        separators=(",", ":"),
                    )
                )
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.journal_path, "".join(line + "\n" for line in lines)
            )
            return len(self._order)

    # -- table operations ----------------------------------------------- #

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate, journal and enqueue one job; returns its record.

        Raises:
            JobError: the spec is invalid (nothing is journalled).
        """
        spec.validate()
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JobRecord(job_id=f"job-{seq:04d}", spec=spec, seq=seq)
            self._append_event(
                {
                    "event": "submit",
                    "job_id": record.job_id,
                    "seq": seq,
                    "spec": spec.to_dict(),
                }
            )
            self._records[record.job_id] = record
            self._order.append(record.job_id)
            return record

    def submit_sharded(self, spec: JobSpec) -> List[JobRecord]:
        """Submit a spec, expanding ``shards`` > 1 into a member group.

        A group submission creates ``spec.shards`` member jobs — shard
        ``i`` gets ``shard_id=i``, ``seed=spec.seed + i`` and the shared
        ``shard_group`` id — journalled as ordinary submits, so journal
        replay reconstructs the group with no extra event type.  A
        single-shard spec degenerates to :meth:`submit`.

        Raises:
            JobError: invalid spec, or a client-supplied ``shard_group``
                (group ids are assigned here, never by callers).
        """
        spec.validate()
        if spec.shard_group is not None:
            raise JobError("shard_group is assigned by the service")
        if spec.shards <= 1:
            return [self.submit(spec)]
        with self._lock:
            group = f"grp-{self._next_seq:04d}"
            return [
                self.submit(
                    replace(
                        spec,
                        shard_id=shard_id,
                        shard_group=group,
                        seed=spec.seed + shard_id,
                    )
                )
                for shard_id in range(spec.shards)
            ]

    def get(self, job_id: str) -> JobRecord:
        """Raises :class:`JobError` for unknown ids."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobError(f"unknown job {job_id!r}")
            return record

    def list(self) -> List[JobRecord]:
        """Every record, in submission order."""
        with self._lock:
            return [self._records[job_id] for job_id in self._order]

    def transition(
        self,
        job_id: str,
        state: JobState,
        *,
        error: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> JobRecord:
        """Move a job to ``state``, journalling the change.

        Raises:
            JobError: unknown job id.
            JobStateError: the transition is not a state-machine edge.
        """
        with self._lock:
            record = self.get(job_id)
            check_transition(record.state, state)
            record.state = state
            if error is not None:
                record.error = error
            if fingerprint is not None:
                record.result_fingerprint = fingerprint
            self._append_event(
                {
                    "event": "state",
                    "job_id": job_id,
                    "state": state.value,
                    "error": error,
                    "fingerprint": fingerprint,
                }
            )
            return record

    def update_progress(
        self,
        job_id: str,
        *,
        executions: int,
        valid_inputs: int,
        resumes: int,
        slices: int,
        wall_time: float,
        crashes: int = 0,
    ) -> JobRecord:
        """Record slice-boundary progress counters, journalling them."""
        with self._lock:
            record = self.get(job_id)
            record.executions = executions
            record.valid_inputs = valid_inputs
            record.resumes = resumes
            record.slices = slices
            record.wall_time = wall_time
            record.crashes = crashes
            self._append_event(
                {
                    "event": "progress",
                    "job_id": job_id,
                    "executions": executions,
                    "valid_inputs": valid_inputs,
                    "resumes": resumes,
                    "slices": slices,
                    "wall_time": wall_time,
                    "crashes": crashes,
                }
            )
            return record

    def active(self) -> List[JobRecord]:
        """Records not yet in a terminal state, in submission order."""
        return [
            record
            for record in self.list()
            if record.state not in TERMINAL_STATES
        ]
