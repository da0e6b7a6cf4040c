"""Campaign plumbing: run one tool on one subject under a budget.

The paper runs every tool for 48 hours per subject, three repetitions, and
reports the best run.  Here budgets are execution counts (see DESIGN.md §2)
and repetitions vary the seed; :func:`best_of` picks the best repetition by
a caller-supplied metric, mirroring the paper's "we report the best run".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.afl import AFLConfig, AFLFuzzer
from repro.baselines.klee import KleeConfig, KleeExplorer
from repro.baselines.rand import RandomConfig, RandomFuzzer
from repro.baselines.driller import DrillerConfig, DrillerFuzzer
from repro.baselines.steelix import SteelixConfig, SteelixFuzzer
from repro.core.config import SWITCHES, FuzzerConfig, config_problems
from repro.core.fuzzer import PFuzzer
from repro.subjects.base import Subject
from repro.subjects.registry import (
    available_subjects,
    is_known_subject,
    load_subject,
    load_subject_module,
)


def _run_pfuzzer(subject: Subject, seed: int, budget: int, options: dict):
    config = FuzzerConfig(seed=seed, max_executions=budget, **options)
    return PFuzzer(subject, config).run()


def _run_afl(subject: Subject, seed: int, budget: int, options: dict):
    return AFLFuzzer(subject, AFLConfig(seed=seed, max_executions=budget)).run()


def _run_klee(subject: Subject, seed: int, budget: int, options: dict):
    return KleeExplorer(subject, KleeConfig(seed=seed, max_executions=budget)).run()


def _run_random(subject: Subject, seed: int, budget: int, options: dict):
    return RandomFuzzer(subject, RandomConfig(seed=seed, max_executions=budget)).run()


def _run_steelix(subject: Subject, seed: int, budget: int, options: dict):
    return SteelixFuzzer(subject, SteelixConfig(seed=seed, max_executions=budget)).run()


def _run_driller(subject: Subject, seed: int, budget: int, options: dict):
    return DrillerFuzzer(subject, DrillerConfig(seed=seed, max_executions=budget)).run()


#: tool name -> runner.  Every runner returns an object with
#: ``valid_inputs`` / ``executions`` / ``wall_time`` attributes.
_RUNNERS = {
    "pfuzzer": _run_pfuzzer,
    "afl": _run_afl,
    "klee": _run_klee,
    "random": _run_random,
    "steelix": _run_steelix,
    "driller": _run_driller,
}

#: Tool names accepted by :func:`run_campaign`.  "steelix" (AFL +
#: comparison progress) and "driller" (AFL + symbolic stints) are the §6.2
#: related-work baselines, not part of the paper's evaluation grid.
TOOLS: Tuple[str, ...] = ("pfuzzer", "afl", "klee", "random", "steelix", "driller")


@dataclass
class ToolOutput:
    """Normalised campaign output, whichever tool produced it."""

    tool: str
    subject: str
    seed: int
    valid_inputs: List[str] = field(default_factory=list)
    executions: int = 0
    wall_time: float = 0.0
    #: Final pFuzzer queue depth; ``None`` for tools without a queue.
    queue_depth: Optional[int] = None
    #: Seconds per campaign phase (pFuzzer reports "execute" / "rescore" /
    #: "substitute" / "checkpoint"); ``None`` for tools without a breakdown.
    phase_times: Optional[Dict[str, float]] = None
    #: Times the campaign was restored from a checkpoint (0 = never; only
    #: pFuzzer campaigns are checkpointable).
    resumes: int = 0
    #: Stable path signature per valid input (pFuzzer only; parallel with
    #: ``valid_inputs``), persisted by :mod:`repro.eval.corpus_store`.
    valid_signatures: Optional[List[int]] = None
    #: Subject executions that crashed (raised something other than the
    #: subject's declared rejection exceptions).  Always counted; the
    #: fields below are populated only in crash-hunting mode.
    crashes: int = 0
    #: Deduplicated crashing inputs (one per distinct failure site;
    #: pFuzzer crash-hunting mode only).
    crash_inputs: List[str] = field(default_factory=list)
    #: Failure-site signatures parallel with ``crash_inputs`` (see
    #: :func:`repro.runtime.harness.failure_site`).
    crash_signatures: List[tuple] = field(default_factory=list)
    #: Path signatures parallel with ``crash_inputs``, persisted as
    #: ``"crash"``-kind corpus records.
    crash_path_signatures: List[int] = field(default_factory=list)


def validate_campaign(tool: str, subject_name: str) -> None:
    """Reject unknown tools/subjects up front, naming the valid choices.

    Raises:
        ValueError: unknown ``tool`` or ``subject_name``; the message lists
            every valid choice for whichever argument was wrong.
    """
    problems = []
    if tool not in _RUNNERS:
        problems.append(f"unknown tool {tool!r}; valid tools: {', '.join(TOOLS)}")
    if not is_known_subject(subject_name):
        problems.append(
            f"unknown subject {subject_name!r}; valid subjects: "
            f"{', '.join(available_subjects())}"
        )
    if problems:
        raise ValueError("; ".join(problems))


def switch_problems(tool: str, options: Mapping[str, object]) -> List[str]:
    """The switches (:data:`repro.core.config.SWITCHES`) on in ``options``
    that ``tool`` cannot honour: only pFuzzer has hybrid phases and crash
    hunting."""
    if tool == "pfuzzer":
        return []
    return [
        f"{name} requires the pfuzzer tool, got {tool!r}"
        for name in SWITCHES
        if options.get(name)
    ]


def run_campaign(
    tool: str,
    subject_name: str,
    budget: int,
    seed: int = 0,
    *,
    corpus_path: Optional[str] = None,
    subject_module: Optional[str] = None,
    **options,
) -> ToolOutput:
    """Run ``tool`` on ``subject_name`` with an execution ``budget``.

    Args:
        tool: one of :data:`TOOLS`.
        subject_name: a registered subject.
        budget: execution budget for the run.
        seed: PRNG seed.
        corpus_path: append the run's valid inputs (with path signatures,
            when the tool reports them) to this
            :class:`~repro.eval.corpus_store.CorpusStore` file.
        subject_module: import this module before resolving
            ``subject_name``, so plugin subjects registered via
            :func:`repro.subjects.registry.register_subject` at import
            time are available (the ``--subject-module`` CLI flag).
        options: :class:`~repro.core.config.FuzzerConfig` fields for a
            pFuzzer campaign (``checkpoint_dir``, ``resume``,
            ``trace_path``, ``executor``, ...), except ``seed`` and
            ``max_executions``, which come from ``seed`` and ``budget``.
            The baselines ignore them: they have no resumable state worth
            snapshotting and restart from scratch instead.  A switch
            (``hybrid``, ``hunt_crashes``) is no such setting: it asks for
            a mode the baselines lack, so a baseline rejects it.

    Raises:
        ValueError: an unknown tool or subject, an option that is not
            a field, is set here, or fails its check (see
            :func:`repro.core.config.config_problems`), or a switch set
            for a tool other than pFuzzer (see :func:`switch_problems`).
    """
    if subject_module is not None:
        load_subject_module(subject_module)
    validate_campaign(tool, subject_name)
    problems = config_problems(options, reserved=("seed", "max_executions"))
    problems.extend(switch_problems(tool, options))
    if problems:
        raise ValueError("; ".join(problems))
    subject = load_subject(subject_name)
    outcome = _RUNNERS[tool](subject, seed, budget, options)
    output = ToolOutput(
        tool=tool,
        subject=subject_name,
        seed=seed,
        valid_inputs=list(outcome.valid_inputs),
        executions=outcome.executions,
        wall_time=outcome.wall_time,
        queue_depth=getattr(outcome, "queue_depth", None),
        phase_times=getattr(outcome, "phase_times", None),
        resumes=getattr(outcome, "resumes", 0),
        valid_signatures=list(getattr(outcome, "valid_signatures", None) or [])
        or None,
        crashes=getattr(outcome, "crashes", 0),
        crash_inputs=list(getattr(outcome, "crash_inputs", [])),
        crash_signatures=[
            tuple(sig) for sig in getattr(outcome, "crash_signatures", [])
        ],
        crash_path_signatures=list(
            getattr(outcome, "crash_path_signatures", [])
        ),
    )
    if corpus_path is not None:
        from repro.eval.corpus_store import CorpusStore

        CorpusStore(corpus_path).add_output(output)
    return output


def best_of(
    tool: str,
    subject_name: str,
    budget: int,
    metric: Callable[[ToolOutput], float],
    repetitions: int = 3,
    base_seed: int = 0,
) -> ToolOutput:
    """Best of N repetitions by ``metric`` (paper: "we report the best run")."""
    outputs = [
        run_campaign(tool, subject_name, budget, seed=base_seed + repetition)
        for repetition in range(repetitions)
    ]
    return max(outputs, key=metric)


def run_campaigns(
    subjects: Sequence[str],
    tools: Sequence[str],
    budgets: Optional[Dict[str, int]] = None,
    default_budget: int = 2_000,
    seed: int = 0,
) -> Dict[Tuple[str, str], ToolOutput]:
    """Run every (subject, tool) pair once; key the results by the pair."""
    results: Dict[Tuple[str, str], ToolOutput] = {}
    for subject_name in subjects:
        budget = (budgets or {}).get(subject_name, default_budget)
        for tool in tools:
            results[(subject_name, tool)] = run_campaign(
                tool, subject_name, budget, seed=seed
            )
    return results
