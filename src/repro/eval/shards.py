"""Lockstep multi-shard campaigns over one shared corpus store.

:func:`run_sharded` is the deterministic reference orchestrator for
sharded campaigns (DESIGN.md §8): N shard-aware :class:`~repro.core.
fuzzer.PFuzzer` instances attack the same subject, each owning a rotating
slice of the candidate space, exchanging valid inputs through one shared
:class:`~repro.eval.corpus_store.CorpusStore` JSONL file.

Shards advance in **rounds**: round *k* runs each shard — in shard-id
order — up to the absolute execution target ``min(budget, (k+1) *
slice_executions)``.  Every slice runs in a forked child process (so a
SIGKILL mid-slice kills only that shard) with ``resume=True`` over the
shard's private checkpoint directory, and is retried on death; the retry
resumes from the last snapshot and finishes the *same* absolute target.
Because the target is absolute — not relative to where the resumed
process happened to start — a killed+resumed slice ends at exactly the
executions count an unkilled one would, which keeps every later sync
point on schedule.  That, plus the sync protocol's own invariants
(:mod:`repro.eval.sync`), makes the whole group a deterministic function
of ``(subject, seeds, schedule)``: the cross-shard harness in
``tests/eval/test_resume_equivalence.py`` asserts fingerprint equality
across reruns and across SIGKILLs of individual shards.

The sequential round-robin is deliberately the *reference* executor —
simple enough to reason about byte-for-byte.  The service layer
(:mod:`repro.service.scheduler`) runs the same shard configs
concurrently as a gang-scheduled job group; its smoke test checks it
against this module's fingerprints.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ShardPlan:
    """Schedule of one sharded campaign group.

    The plan *is* the determinism key: two runs of the same plan (same
    seeds, same slice/sync cadence) produce identical per-shard results.

    Attributes:
        subject: registry name of the subject under test.
        budget: per-shard execution budget.
        shards: number of shards (``shard_count``).
        base_seed: shard ``i`` runs with seed ``base_seed + i``.
        slice_executions: round length; shard slices end at absolute
            multiples of this.
        sync_every: corpus-sync cadence in executions (defaults to
            ``slice_executions`` so every round syncs at least once).
        checkpoint_every: snapshot cadence within a slice.
        shard_rotate_every: partition rotation cadence.
        coverage_backend: ``"settrace"`` or ``"ast"``.
    """

    subject: str
    budget: int
    shards: int = 2
    base_seed: int = 0
    slice_executions: int = 200
    sync_every: Optional[int] = None
    checkpoint_every: int = 100
    shard_rotate_every: int = 200
    coverage_backend: str = "settrace"


@dataclass
class ShardOutcome:
    """Terminal state of one shard."""

    shard_id: int
    seed: int
    executions: int
    valid_inputs: List[str]
    valid_signatures: List[int]
    queue_depth: int
    resumes: int
    #: False when the shard ran out of candidates before its budget (the
    #: campaign is over even though ``executions`` < budget).
    preempted: bool
    #: :func:`repro.eval.checkpoint.result_fingerprint` of the final
    #: result, computed in the shard's own process (arc ids are
    #: process-local).
    fingerprint: str


@dataclass
class ShardGroupResult:
    """Outcome of :func:`run_sharded`."""

    plan: ShardPlan
    shards: List[ShardOutcome]
    store_path: str
    rounds: int = 0
    kills: int = 0

    @property
    def group_fingerprint(self) -> str:
        """One sha256 over all shard fingerprints, in shard order."""
        digest = hashlib.sha256()
        for outcome in self.shards:
            digest.update(outcome.fingerprint.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def shard_config(plan: ShardPlan, shard_id: int, root: PathLike):
    """The :class:`~repro.core.config.FuzzerConfig` of one shard here.

    The service scheduler builds its own from the job spec, where an unset
    ``sync_every`` means the checkpoint cadence, not ``slice_executions``.
    """
    from repro.core.config import FuzzerConfig

    root = Path(root)
    return FuzzerConfig(
        seed=plan.base_seed + shard_id,
        max_executions=plan.budget,
        coverage_backend=plan.coverage_backend,
        shard_id=shard_id,
        shard_count=plan.shards,
        shard_rotate_every=plan.shard_rotate_every,
        sync_store=str(root / "corpus.jsonl"),
        sync_every=(
            plan.sync_every
            if plan.sync_every is not None
            else plan.slice_executions
        ),
        checkpoint_dir=str(root / f"shard-{shard_id}"),
        checkpoint_every=plan.checkpoint_every,
        resume=True,
    )


def _slice_child(conn, plan: ShardPlan, shard_id: int, root: str,
                 target: int, kill_at: Optional[int]) -> None:
    """Run one shard up to the absolute ``target`` and send the outcome.

    Runs in a forked child: a ``kill_at`` SIGKILL (the fault-injection
    hook) takes down only this slice, and arc interning stays
    process-local to the slice that fingerprints it.
    """
    import repro.core.fuzzer as fuzzer_module
    from repro.core.fuzzer import PFuzzer
    from repro.eval.checkpoint import result_fingerprint
    from repro.runtime.arcs import arc_table_for
    from repro.subjects.registry import load_subject

    fuzzer_module._TEST_KILL_AT = kill_at
    subject = load_subject(plan.subject)
    fuzzer = PFuzzer(
        subject,
        shard_config(plan, shard_id, root),
        # Absolute target: a resumed slice preempts at the same total
        # executions count an uninterrupted one would, keeping slice ends
        # — and therefore sync points — on the plan's schedule.
        should_preempt=lambda _run, total: total >= target,
    )
    result = fuzzer.run()
    conn.send(
        ShardOutcome(
            shard_id=shard_id,
            seed=plan.base_seed + shard_id,
            executions=result.executions,
            valid_inputs=list(result.valid_inputs),
            valid_signatures=list(result.valid_signatures),
            queue_depth=result.queue_depth,
            resumes=result.resumes,
            preempted=result.preempted,
            fingerprint=result_fingerprint(result, arc_table_for(subject)),
        )
    )
    conn.close()


def run_sharded(
    plan: ShardPlan,
    root: PathLike,
    kill_at: Optional[Dict[int, int]] = None,
    max_attempts: int = 4,
) -> ShardGroupResult:
    """Run a sharded campaign group to completion, lockstep rounds.

    Args:
        plan: the group's schedule (see :class:`ShardPlan`).
        root: working directory; holds ``corpus.jsonl`` (the shared
            store) and ``shard-<i>/`` checkpoint directories.  Rerunning
            on a used root resumes every shard from its snapshots.
        kill_at: fault injection — ``{shard_id: executions}`` SIGKILLs
            that shard's slice once it reaches the absolute execution
            count; the retry resumes from its last checkpoint and the
            final result must equal an unkilled run's (the harness's
            core assertion).
        max_attempts: attempts per slice before giving up.

    Raises:
        RuntimeError: a slice died ``max_attempts`` times in a row.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    pending_kills = dict(kill_at or {})
    outcomes: Dict[int, ShardOutcome] = {}
    done = [False] * plan.shards
    rounds = 0
    kills = 0
    while not all(done):
        rounds += 1
        target = min(plan.budget, rounds * plan.slice_executions)
        for shard_id in range(plan.shards):
            if done[shard_id]:
                continue
            outcome = None
            for _attempt in range(max_attempts):
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(
                    target=_slice_child,
                    args=(
                        send,
                        plan,
                        shard_id,
                        str(root),
                        target,
                        pending_kills.get(shard_id),
                    ),
                )
                child.start()
                send.close()
                try:
                    outcome = recv.recv()
                except EOFError:
                    outcome = None
                child.join()
                recv.close()
                if outcome is not None:
                    break
                # The slice died (injected SIGKILL or a real crash); the
                # fault fires once, then the retry resumes clean.
                kills += 1
                pending_kills.pop(shard_id, None)
            if outcome is None:
                raise RuntimeError(
                    f"shard {shard_id} died {max_attempts} times "
                    f"(round {rounds})"
                )
            outcomes[shard_id] = outcome
            # Done on budget exhaustion *or* a natural finish (candidate
            # space exhausted before the budget: not preempted).
            if outcome.executions >= plan.budget or not outcome.preempted:
                done[shard_id] = True
    return ShardGroupResult(
        plan=plan,
        shards=[outcomes[shard_id] for shard_id in range(plan.shards)],
        store_path=str(root / "corpus.jsonl"),
        rounds=rounds,
        kills=kills,
    )
