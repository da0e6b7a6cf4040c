"""Configuration of the parser-directed fuzzer.

:class:`FuzzerConfig` is the one declaration of every campaign knob.  Each
field declares its value check and its fingerprint role:

* :data:`KEYED` — part of the snapshot fingerprint on every campaign: the
  knob shapes the result, so a snapshot taken under another value must not
  restore;
* :data:`UNKEYED` — never keyed: the budget and the engine, cull,
  checkpoint, trace and sync-store settings change how, where or how far a
  campaign runs, never what it finds, so a resumed campaign may change them
  (resuming with a larger budget is how a finished campaign is extended;
  the equivalence suites assert that engines and culling never change a
  result);
* a *switch*'s name (``"hybrid"``, ``"hunt_crashes"``) — keyed only while
  that switch is on, so configs with the switch off keep the fingerprints
  they had before the mode existed, and a snapshot never restores across
  the switch because the key sets differ.  A field switched by another
  field (``mine_after`` by ``hybrid``) is an option only while its switch
  is on.

:func:`config_fingerprint` builds the fingerprint from these roles and
:func:`config_problems` checks an options mapping ``{field: value}``, the
form every other layer (campaign, grid, job spec, scheduler, CLI) forwards
instead of its own keyword list.  Adding a knob means one field here.
"""

from __future__ import annotations

import string
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.runtime.executor import EXECUTOR_MODES, ISOLATION_MODES
from repro.runtime.harness import COVERAGE_BACKENDS

#: Default pool the fuzzer appends random characters from: printable ASCII
#: plus the common whitespace control characters.  The paper uses "the set of
#: all ASCII characters"; restricting to printables only changes how often a
#: random append is immediately useless.
DEFAULT_CHARACTER_POOL = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n"
)


@dataclass
class HeuristicWeights:
    """Weights of the §3.1 search heuristic (Algorithm 1, Lines 47–51).

    The paper's formula is::

        cov  = |branches \\ vBr|
        cov -= len(input)
        cov += 2 * len(replacement)
        cov -= avgStackSize()
        cov += numParents          # but see `parents` below

    Attributes:
        new_branches: weight of newly covered branches (Line 48).
        input_length: penalty per input character (Line 49) — avoids
            coverage-driven depth-first blowup.
        replacement_length: bonus per replacement character (Line 49) —
            favours string-comparison substitutions, i.e. keywords.
        stack_size: penalty on the average stack size between the last two
            comparisons (Line 50) — favours inputs that close syntactic
            features.
        parents: weight of the substitution-chain length.  Algorithm 1
            literally *adds* numParents, but the prose says inputs with
            fewer parents should rank higher; we default to the prose
            (negative weight).  The ablation bench measures both signs.
        path_repetition: penalty per prior execution of the same branch
            path (§3.2: inputs covering already-taken paths rank lower).
    """

    new_branches: float = 1.0
    input_length: float = 1.0
    replacement_length: float = 2.0
    stack_size: float = 1.0
    parents: float = -1.0
    path_repetition: float = 1.0


#: Fingerprint roles (see the module docstring).
KEYED = "keyed"
UNKEYED = "unkeyed"


def _must_be(what: str, test):
    def check(name: str, value) -> Optional[str]:
        return None if test(value) else f"{name} must be {what}, got {value!r}"

    return check


_integer = _must_be("an integer", lambda value: isinstance(value, int))
_positive = _must_be(
    "a positive integer", lambda value: isinstance(value, int) and value >= 1
)
_non_negative = _must_be(
    "a non-negative integer", lambda value: isinstance(value, int) and value >= 0
)
_boolean = _must_be("a boolean", lambda value: isinstance(value, bool))
_text = _must_be(
    "a non-empty string", lambda value: isinstance(value, str) and value != ""
)


def _one_of(*choices: str):
    def check(name: str, value) -> Optional[str]:
        if value not in choices:
            return (
                f"unknown {name.replace('_', ' ')} {value!r}; "
                f"valid choices: {', '.join(choices)}"
            )
        return None

    return check


def _knob(
    default=MISSING, *, check=None, role=KEYED, factory=MISSING, keyed_as=None
):
    """A :class:`FuzzerConfig` field with its value check and fingerprint
    role; ``keyed_as(config)`` replaces the field's value in the
    fingerprint.  A field whose default is None also accepts None."""
    return field(
        default=default,
        default_factory=factory,
        metadata={"check": check, "role": role, "keyed_as": keyed_as},
    )


def _synced_cadence(config: "FuzzerConfig") -> Optional[int]:
    """The sync cadence is keyed only for a campaign that syncs; the store
    path itself is environmental."""
    return config.sync_cadence if config.sync_store is not None else None


@dataclass
class FuzzerConfig:
    """Runtime knobs of one fuzzing campaign.

    Each field declares its value check and fingerprint role with it (see
    the module docstring); :meth:`options` is the config in the form the
    other layers forward.

    Attributes:
        seed: PRNG seed; None draws entropy from the OS.
        max_executions: execution budget (each loop iteration costs up to
            two executions, §3.1).  The stand-in for the paper's 48 hours.
        max_valid_inputs: stop early after emitting this many new-coverage
            valid inputs (None = no cap).
        max_input_length: safety cap; longer candidates are not extended.
        queue_limit: maximum queue size; lowest-scored candidates are
            dropped beyond it.
        character_pool: characters used for random appends.
        weights: heuristic weights.
        trace_coverage: disable to skip branch tracing (the heuristic then
            degrades to comparisons only; used by ablations).
        coverage_backend: ``"settrace"`` (reference tracer) or ``"ast"``
            (compiled-in AST instrumentation, several times faster; see
            :mod:`repro.runtime.instrument`).  Both backends produce
            identical campaigns for the same seed.
        checkpoint_dir: directory for durable campaign snapshots (see
            :mod:`repro.eval.checkpoint`); None disables checkpointing.
        checkpoint_every: write a snapshot every N subject executions
            (checked at the iteration boundary, so the actual spacing can
            overshoot by one iteration's executions).
        checkpoint_keep: snapshot generations retained on disk; older ones
            are deleted after each successful write.
        resume: restore the newest valid snapshot from ``checkpoint_dir``
            before fuzzing; a resumed campaign is byte-identical (modulo
            timings) to an uninterrupted one with the same config.
        trace_path: write a structured NDJSON trace of the campaign to
            this file (see :mod:`repro.obs.trace`); None disables tracing
            (the null-recorder fast path).  Tracing never affects the
            campaign's result: lineage ids are assigned identically with
            tracing on or off, and ``trace_path`` is excluded from the
            snapshot fingerprint so a resumed campaign may toggle it.
        shard_id: this campaign's index within a sharded group (AFL's
            ``-M/-S`` model; see DESIGN.md §8).  With ``shard_count`` > 1
            the substitution/append candidate space is deterministically
            partitioned: a shard only queues the substitutions it owns
            and appends from its slice of the character pool.
        shard_count: number of shards in the group.  The default of 1
            disables partitioning entirely — a single-shard campaign is
            byte-identical to a pre-sharding one.
        shard_rotate_every: rotation cadence in executions.  Ownership is
            keyed on ``(hash(text) + epoch) % shard_count`` where
            ``epoch = executions // shard_rotate_every``, so the partition
            rotates over time and no candidate is permanently orphaned on
            a shard that never reaches it.
        sync_store: path of a shared :class:`~repro.eval.corpus_store.
            CorpusStore` JSONL file this shard pushes its valid inputs to
            and imports other shards' inputs from; None disables corpus
            sync.  Like ``checkpoint_dir``, the path is environmental and
            excluded from the snapshot fingerprint.
        sync_every: exchange inputs with ``sync_store`` every N subject
            executions, checked at the iteration boundary (the same
            cadence discipline as ``checkpoint_every``, which is also the
            default when None).  Determinism contract: sync points are a
            pure function of the executions counter, so a killed and
            resumed shard syncs at exactly the points the uninterrupted
            run would have.
        executor: execution engine — ``"inline"`` (run candidates in
            this process, the reference path) or ``"pooled"`` (persistent
            forked-worker executor, see :mod:`repro.runtime.executor`:
            the subject is loaded and instrumented once per worker and
            candidates are served over a pipe, AFL-forkserver style).
            Both engines produce byte-identical campaigns; like
            ``trace_path``, the choice is environmental and excluded from
            the snapshot fingerprint, so a resumed campaign may switch.
        batch_size: with ``executor="pooled"``, how many texts the
            fuzzer submits per speculative round-trip: the current pop
            and the queue's likely next pops, each followed by its
            predicted append run (predicted on a copy of the campaign
            RNG), all counting toward the batch.  1 disables
            speculation; results are cached by input text, so batching
            never changes the campaign result.
        executor_workers: persistent worker processes for the pooled
            engine.
        executor_isolation: ``"auto"`` (fork per candidate where
            ``os.fork`` exists), ``"fork"``, or ``"none"`` (same-process
            re-init fallback).  Fork isolation discards any state a run
            mutated; the in-process fallback relies on the harness's
            per-run reset and is equivalence-tested too.
        cull_every: run :meth:`repro.core.queue.CandidateQueue.cull`
            every N subject executions, checked at the iteration boundary
            (the same cadence discipline as ``checkpoint_every`` /
            ``sync_every``): dead entries (text already executed) and
            dominated duplicates are dropped, keeping long campaigns'
            re-scores proportional to the live frontier.  None disables
            culling.  Environmental like ``trace_path``: culling never
            changes the campaign result (the equivalence suite asserts
            fingerprint identity with culling on and off), so it is
            excluded from the snapshot fingerprint and a resumed campaign
            may toggle it.
        hybrid: run the campaign as a hybrid discover→learn→generate
            loop (see :mod:`repro.hybrid`): parser-directed search runs
            until the coverage-gain posterior plateaus, a grammar is
            mined from the accumulated valid inputs (token boundaries
            enriched from the lineage log), and the compiled generator
            floods candidates that re-seed the corpus as ``"gen"``
            lineage roots and reset ``vBr``.  Unlike the environmental
            knobs above, hybrid mode *changes the campaign result*, so
            it (and its three phase knobs) participates in the snapshot
            fingerprint and must match on resume.
        mine_after: decayed-execution evidence the gain estimator needs
            before a plateau can trigger a mining phase (see
            :class:`repro.hybrid.campaign.HybridConfig`); also the floor
            between consecutive mining phases.
        gen_batch: maximum generated candidates injected per generation
            flood.
        gen_depth: depth budget of the compiled generator during floods.
            Shallow floods (the default) produce corpus-scale re-seed
            roots whose structure deepens across mining rounds; subjects
            whose coverage lives in deep input structure (tinyC programs)
            benefit from flooding deeper directly.
        hunt_crashes: treat crashes as campaign findings: crashing inputs
            are recorded (deduplicated by failure-site signature, see
            :func:`repro.runtime.harness.failure_site`), emitted as
            ``crash_found`` trace events, and surface in
            ``FuzzingResult.crash_inputs`` for the corpus store.  Off,
            crashes are still counted and kept alive-but-ignored (the
            status fix) — hunting only changes what is *recorded*, but
            recorded findings join the result, so like ``hybrid`` the
            flag participates in the snapshot fingerprint and must match
            on resume.
    """

    seed: Optional[int] = _knob(None, check=_integer)
    max_executions: int = _knob(2_000, check=_positive, role=UNKEYED)
    max_valid_inputs: Optional[int] = _knob(None, check=_positive)
    max_input_length: int = _knob(200, check=_positive)
    queue_limit: int = _knob(5_000, check=_positive)
    character_pool: str = _knob(DEFAULT_CHARACTER_POOL, check=_text)
    weights: HeuristicWeights = _knob(factory=HeuristicWeights)
    trace_coverage: bool = _knob(True, check=_boolean)
    coverage_backend: str = _knob(
        "settrace", check=_one_of(*COVERAGE_BACKENDS)
    )
    checkpoint_dir: Optional[str] = _knob(None, role=UNKEYED)
    checkpoint_every: int = _knob(500, check=_positive, role=UNKEYED)
    checkpoint_keep: int = _knob(2, check=_positive, role=UNKEYED)
    resume: bool = _knob(False, check=_boolean, role=UNKEYED)
    trace_path: Optional[str] = _knob(None, role=UNKEYED)
    shard_id: int = _knob(0, check=_non_negative)
    shard_count: int = _knob(1, check=_positive)
    shard_rotate_every: int = _knob(200, check=_positive)
    sync_store: Optional[str] = _knob(None, role=UNKEYED)
    sync_every: Optional[int] = _knob(
        None, check=_positive, keyed_as=_synced_cadence
    )
    executor: str = _knob(
        "inline", check=_one_of(*EXECUTOR_MODES), role=UNKEYED
    )
    batch_size: int = _knob(1, check=_positive, role=UNKEYED)
    executor_workers: int = _knob(1, check=_positive, role=UNKEYED)
    executor_isolation: str = _knob(
        "auto", check=_one_of(*ISOLATION_MODES), role=UNKEYED
    )
    cull_every: Optional[int] = _knob(None, check=_positive, role=UNKEYED)
    hybrid: bool = _knob(False, check=_boolean, role="hybrid")
    mine_after: int = _knob(600, check=_positive, role="hybrid")
    gen_batch: int = _knob(32, check=_positive, role="hybrid")
    gen_depth: int = _knob(3, check=_positive, role="hybrid")
    hunt_crashes: bool = _knob(False, check=_boolean, role="hunt_crashes")
    #: Optional seed corpus.  pFuzzer needs none (the paper's point), but a
    #: previous campaign's corpus can be resumed from here; seeds are
    #: processed before the empty-string start.
    initial_inputs: tuple = _knob(())

    @property
    def sync_cadence(self) -> int:
        """``sync_every``, or ``checkpoint_every`` when that is None."""
        if self.sync_every is not None:
            return self.sync_every
        return self.checkpoint_every

    def options(self) -> Dict[str, object]:
        """This config as an options mapping: every field set away from
        its default."""
        return {
            name: getattr(self, name)
            for name, default in _DEFAULTS.items()
            if getattr(self, name) != default
        }


_FIELDS = {spec.name: spec for spec in fields(FuzzerConfig)}
_DEFAULTS = {
    name: spec.default_factory() if spec.default is MISSING else spec.default
    for name, spec in _FIELDS.items()
}

#: The switches: fields keyed only while they are on.
SWITCHES = tuple(
    name for name, spec in _FIELDS.items() if spec.metadata["role"] == name
)


def _plain(value):
    """A keyed value in the JSON form a snapshot stores."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def config_fingerprint(config: FuzzerConfig, subject: str) -> dict:
    """Everything a snapshot's config must match to be resumable: the
    ``subject`` class name plus every field its role keys (see the module
    docstring)."""
    fingerprint = {"subject": subject}
    for name, spec in _FIELDS.items():
        role = spec.metadata["role"]
        if role == UNKEYED or (role != KEYED and not getattr(config, role)):
            continue
        keyed_as = spec.metadata["keyed_as"]
        fingerprint[name] = _plain(
            keyed_as(config) if keyed_as else getattr(config, name)
        )
    return fingerprint


def config_problems(
    options: Mapping[str, object], reserved: Iterable[str] = ()
) -> List[str]:
    """Every problem with ``options``, a ``{FuzzerConfig field: value}``
    mapping; empty when it is valid.

    ``reserved`` names the fields the calling layer sets itself (say,
    ``seed`` and ``max_executions`` from its own arguments); like a name
    that is no field, they are reported with the list of valid options.
    A field switched by another field is a problem while its switch is off
    in ``options`` (``"mine_after requires hybrid mode"``).
    """
    reserved = set(reserved)
    problems = []
    stray = sorted(
        name for name in options if name not in _FIELDS or name in reserved
    )
    if stray:
        valid = [name for name in _FIELDS if name not in reserved]
        problems.append(
            f"unexpected options: {', '.join(stray)}; "
            f"valid options: {', '.join(valid)}"
        )
    for name, value in options.items():
        if name in stray:
            continue
        spec = _FIELDS[name]
        check = spec.metadata["check"]
        if check is not None and not (value is None and spec.default is None):
            problem = check(name, value)
            if problem is not None:
                problems.append(problem)
        role = spec.metadata["role"]
        if role not in (KEYED, UNKEYED, name) and not options.get(role):
            problems.append(f"{name} requires {role} mode")
    shard_id = options.get("shard_id", 0)
    shard_count = options.get("shard_count", 1)
    if (
        isinstance(shard_id, int)
        and isinstance(shard_count, int)
        and 0 < shard_count <= shard_id
    ):
        problems.append(f"shard_id {shard_id} outside 0..shard_count-1")
    return problems
