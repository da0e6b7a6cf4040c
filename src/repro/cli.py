"""Command-line interface.

Subcommands mirror the workflows in the paper's evaluation:

* ``fuzz``     — run pFuzzer on a subject and print the valid inputs;
* ``compare``  — run pFuzzer and the baselines with equal budgets and print
  the Figure 2 / Figure 3 style reports for one subject;
* ``tokens``   — print a subject's token inventory (Tables 2–4);
* ``mine``     — fuzz, mine a grammar from the valid inputs, and print it;
* ``subjects`` — list the available subjects (Table 1);
* ``corpus``   — persistent corpus stores: ``stats`` / ``list`` /
  ``compact`` / ``distill`` (greedy arc-coverage-preserving minimisation);
* ``trace``    — query a campaign's NDJSON trace: derivation lineage of an
  emitted input, Chrome-tracing export, or schema validation;
* ``serve``    — run the resident campaign service (job queue, preemptive
  scheduler, HTTP control plane);
* ``submit`` / ``status`` / ``cancel`` — talk to a running service.

Examples::

    python -m repro fuzz json --budget 2000 --seed 3
    python -m repro fuzz json --checkpoint-dir ck/ --resume --corpus corpus.jsonl
    python -m repro fuzz json --shards 4 --budget 2000 --checkpoint-dir group/
    python -m repro fuzz json --trace trace.ndjson
    python -m repro compare tinyc --budget 4000
    python -m repro compare json --jobs 4 --metrics metrics.jsonl
    python -m repro compare json --jobs 4 --checkpoint-dir ck/ --corpus corpus.jsonl
    python -m repro tokens mjs
    python -m repro mine expr
    python -m repro corpus stats corpus.jsonl
    python -m repro corpus compact corpus.jsonl --collapse-signatures
    python -m repro corpus distill corpus.jsonl --subject json
    python -m repro trace lineage trace.ndjson '(9)'
    python -m repro trace chrome trace.ndjson -o spans.json
    python -m repro trace validate trace.ndjson
    python -m repro serve --state-dir service/ --port 8321 --workers 4
    python -m repro submit json --budget 5000 --priority 2 --wait --trace
    python -m repro submit json --budget 5000 --shards 4 --sync-every 250

Exit codes: 0 on success, 1 when a parallel campaign cell failed or timed
out (the rest of the grid still completes and prints), 2 on usage errors
(argparse's, and campaign options that are invalid or that the chosen
path would not apply).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.config import FuzzerConfig, config_problems
from repro.core.fuzzer import PFuzzer
from repro.eval.campaign import TOOLS, run_campaign
from repro.eval.code_cov import coverage_of_inputs
from repro.eval.report import (
    render_figure2,
    render_figure3,
    render_table1,
    render_token_table,
)
from repro.eval.token_cov import figure3
from repro.runtime.executor import EXECUTOR_MODES
from repro.runtime.harness import COVERAGE_BACKENDS
from repro.subjects.registry import (
    SUBJECT_NAMES,
    available_subjects,
    is_known_subject,
    load_subject,
    load_subject_module,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the campaign grid (default: 1, sequential)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write one JSONL metrics record per campaign run to PATH",
    )
    parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-run wall-clock limit; timed-out runs are reported, not fatal",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="durable snapshots: every grid cell checkpoints into its own "
        "subdirectory of DIR and crashed/killed/timed-out cells resume "
        "from their last snapshot",
    )
    parser.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="snapshot cadence in executions (default: the fuzzer's own)",
    )
    parser.add_argument(
        "--resume-retries", type=_nonnegative_int, default=2, metavar="N",
        help="with --checkpoint-dir: extra resume attempts for timed-out "
        "cells (default: 2)",
    )
    parser.add_argument(
        "--corpus", metavar="PATH", default=None,
        help="append every run's valid inputs (with path signatures) to "
        "this persistent corpus store",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="write each pFuzzer cell's NDJSON campaign trace to "
        "<tool>-<subject>-s<seed>.ndjson under DIR",
    )


#: The :class:`~repro.core.config.FuzzerConfig` flags ``fuzz`` and
#: ``submit`` share, each stored under its field's name.  Every flag
#: defaults to None, "not given", so :func:`_campaign_options` forwards
#: exactly the flags on the command line.
_CAMPAIGN_FLAGS = (
    ("--coverage-backend", dict(
        choices=COVERAGE_BACKENDS,
        help="coverage tracer: settrace (reference, the default) or ast "
        "(compiled-in, faster)",
    )),
    ("--checkpoint-every", dict(
        type=_positive_int, metavar="N",
        help="snapshot cadence in executions (default: 500; 100 for "
        "'fuzz --shards')",
    )),
    ("--executor", dict(
        choices=EXECUTOR_MODES,
        help="execution engine: inline (reference, in-process, the "
        "default) or pooled (persistent forked-worker executor; identical "
        "results, lower per-candidate fixed cost — see DESIGN.md §9)",
    )),
    ("--batch-size", dict(
        type=_positive_int, metavar="N",
        help="with --executor pooled: speculative candidates submitted per "
        "round-trip (default: 1 — no speculation)",
    )),
    ("--cull-every", dict(
        type=_positive_int, metavar="N",
        help="drop dead/dominated queue entries every N executions "
        "(queue hygiene; never changes the campaign result — "
        "see DESIGN.md §10)",
    )),
    ("--hybrid", dict(
        action="store_true",
        help="hybrid campaign mode: mine a grammar whenever the "
        "coverage-gain posterior plateaus and flood compiled-generator "
        "candidates back into the corpus (DESIGN.md §11)",
    )),
    ("--mine-after", dict(
        type=_positive_int, metavar="N",
        help="with --hybrid: gain-evidence floor before a plateau may "
        "trigger a mining phase, and the floor between phases "
        "(default: 600)",
    )),
    ("--gen-batch", dict(
        type=_positive_int, metavar="N",
        help="with --hybrid: maximum generated candidates injected per "
        "generation flood (default: 32)",
    )),
    ("--gen-depth", dict(
        type=_positive_int, metavar="N",
        help="with --hybrid: compiled-generator depth budget during "
        "floods (default: 3; deeper floods suit subjects whose coverage "
        "lives in deep input structure)",
    )),
    ("--hunt-crashes", dict(
        action="store_true",
        help="record crashing inputs as findings: deduplicated by "
        "failure-site signature, stored as 'crash'-kind records by "
        "'fuzz --corpus', and emitted as crash_found trace events",
    )),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    for flag, keywords in _CAMPAIGN_FLAGS:
        parser.add_argument(flag, default=None, **keywords)


def _campaign_options(args: argparse.Namespace) -> dict:
    """The shared campaign flags given on the command line, as
    ``{FuzzerConfig field: value}`` options."""
    names = (flag[2:].replace("-", "_") for flag, _ in _CAMPAIGN_FLAGS)
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name) is not None
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parser-directed fuzzing (PLDI 2019) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run pFuzzer on a subject")
    # An open string, not choices=: plugin subjects (registered by
    # --subject-module or entry points) are validated after imports run.
    fuzz.add_argument(
        "subject", metavar="SUBJECT",
        help="a built-in subject "
        f"({', '.join(SUBJECT_NAMES + ('expr',))}) or a plugin subject "
        "(see --subject-module)",
    )
    fuzz.add_argument(
        "--subject-module", metavar="MODULE", default=None,
        help="import MODULE first; modules register plugin subjects via "
        "repro.subjects.registry.register_subject at import time",
    )
    fuzz.add_argument(
        "--budget", type=_positive_int, default=2_000, help="execution budget"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--all-valid",
        action="store_true",
        help="print every accepted input, not only new-coverage ones",
    )
    fuzz.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write durable campaign snapshots to DIR (see --resume)",
    )
    fuzz.add_argument(
        "--resume", action="store_true",
        help="restore the newest valid snapshot from --checkpoint-dir "
        "before fuzzing; the resumed campaign is byte-identical to an "
        "uninterrupted one",
    )
    fuzz.add_argument(
        "--corpus", metavar="PATH", default=None,
        help="append the run's valid inputs (with path signatures) to "
        "this persistent corpus store",
    )
    fuzz.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured NDJSON campaign trace to PATH "
        "(inspect it with 'repro trace ...')",
    )
    fuzz.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="run N shard-aware campaigns in deterministic lockstep rounds, "
        "sharing valid inputs through one corpus store (DESIGN.md §8); "
        "shard i uses seed SEED+i",
    )
    fuzz.add_argument(
        "--sync-every", type=_positive_int, default=None, metavar="N",
        help="with --shards: corpus-sync cadence in executions "
        "(default: once per round)",
    )
    fuzz.add_argument(
        "--slice-executions", type=_positive_int, default=None, metavar="N",
        help="with --shards: round length in executions (default: 200)",
    )
    _add_campaign_options(fuzz)

    compare = sub.add_parser("compare", help="pFuzzer vs AFL vs KLEE on one subject")
    compare.add_argument("subject", choices=SUBJECT_NAMES)
    compare.add_argument("--budget", type=_positive_int, default=2_000)
    compare.add_argument("--seed", type=int, default=3)
    compare.add_argument(
        "--tools", nargs="+", choices=TOOLS, default=["afl", "klee", "pfuzzer"]
    )
    _add_parallel_options(compare)

    tokens = sub.add_parser("tokens", help="print a subject's token inventory")
    tokens.add_argument("subject", choices=SUBJECT_NAMES)

    mine = sub.add_parser("mine", help="fuzz, then mine a grammar (§7.4)")
    mine.add_argument("subject", choices=SUBJECT_NAMES + ("expr",))
    mine.add_argument("--budget", type=_positive_int, default=800)
    mine.add_argument("--seed", type=int, default=1)
    mine.add_argument("--generate", type=int, default=0, metavar="N",
                      help="also generate N inputs from the mined grammar")
    mine.add_argument(
        "--coverage-backend",
        choices=COVERAGE_BACKENDS,
        default="settrace",
        help="coverage tracer: settrace (reference) or ast (compiled-in, faster)",
    )

    sub.add_parser("subjects", help="list available subjects (Table 1)")

    report = sub.add_parser(
        "report", help="run the full evaluation and print a markdown report"
    )
    report.add_argument("--budget", type=_positive_int, default=None,
                        help="override every subject's execution budget")
    report.add_argument("--subjects", nargs="+", choices=SUBJECT_NAMES,
                        default=list(SUBJECT_NAMES))
    report.add_argument("--tools", nargs="+", choices=TOOLS,
                        default=["afl", "klee", "pfuzzer"])
    report.add_argument("--seeds", nargs="+", type=int, default=[0, 3, 8])
    report.add_argument("--no-code-coverage", action="store_true")
    _add_parallel_options(report)

    corpus = sub.add_parser(
        "corpus", help="inspect, compact, or distill a persistent corpus store"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_stats = corpus_sub.add_parser(
        "stats",
        help="per-subject record / distinct-input / distinct-signature counts",
    )
    corpus_stats.add_argument("path", metavar="PATH", help="corpus store JSONL file")
    # --subject is an open string for all corpus subcommands: stores may
    # hold records for plugin subjects the current process never imported.
    corpus_stats.add_argument(
        "--subject", default=None, metavar="SUBJECT",
        help="restrict to one subject",
    )

    corpus_list = corpus_sub.add_parser(
        "list", help="print one line per stored record"
    )
    corpus_list.add_argument("path", metavar="PATH", help="corpus store JSONL file")
    corpus_list.add_argument(
        "--subject", default=None, metavar="SUBJECT",
        help="restrict to one subject",
    )
    corpus_list.add_argument(
        "--crashes", action="store_true",
        help="list only crash findings (records written by --hunt-crashes), "
        "with their failure-site signatures",
    )

    corpus_compact = corpus_sub.add_parser(
        "compact",
        help="drop duplicate (subject, input) records, keeping the first",
    )
    corpus_compact.add_argument(
        "path", metavar="PATH", help="corpus store JSONL file"
    )
    corpus_compact.add_argument(
        "--collapse-signatures", action="store_true",
        help="also keep only the first record per (subject, path signature): "
        "different inputs that drive the parser down the same decision "
        "path collapse to one representative",
    )

    corpus_distill = corpus_sub.add_parser(
        "distill",
        help="shrink each subject's records to a greedy minimal set "
        "covering the same union of execution arcs",
    )
    corpus_distill.add_argument(
        "path", metavar="PATH", help="corpus store JSONL file"
    )
    corpus_distill.add_argument(
        "--subject", default=None, metavar="SUBJECT",
        help="distill only this subject (default: every subject in the store)",
    )
    corpus_distill.add_argument(
        "--coverage-backend", choices=COVERAGE_BACKENDS, default="settrace",
        help="tracer used to re-execute stored inputs (default: settrace)",
    )
    corpus_distill.add_argument(
        "--subject-module", metavar="MODULE", default=None,
        help="import MODULE first so plugin subjects in the store resolve "
        "for the re-executions",
    )

    trace = sub.add_parser(
        "trace", help="query a campaign's NDJSON trace file"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_lineage = trace_sub.add_parser(
        "lineage",
        help="print the derivation chain of an emitted input "
        "(or every emitted input)",
    )
    trace_lineage.add_argument("trace_path", metavar="TRACE")
    trace_lineage.add_argument(
        "input", nargs="?", default=None, metavar="INPUT",
        help="the emitted input to explain; omit for all emitted inputs",
    )
    trace_fmt = trace_lineage.add_mutually_exclusive_group()
    trace_fmt.add_argument(
        "--dot", action="store_true",
        help="emit the chains as a Graphviz DOT graph",
    )
    trace_fmt.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the chains as a JSON document",
    )

    trace_chrome = trace_sub.add_parser(
        "chrome",
        help="export span/marker events as chrome://tracing JSON",
    )
    trace_chrome.add_argument("trace_path", metavar="TRACE")
    trace_chrome.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the JSON there instead of stdout",
    )

    trace_validate = trace_sub.add_parser(
        "validate",
        help="check every event against the trace schema; print counts",
    )
    trace_validate.add_argument("trace_path", metavar="TRACE")
    trace_validate.add_argument(
        "--strict", action="store_true",
        help="also fail on a torn final line (interrupted append)",
    )

    serve = sub.add_parser(
        "serve", help="run the campaign service (job queue + HTTP control plane)"
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="journal and per-job checkpoints live here; restarting on the "
        "same DIR resumes every unfinished job deterministically",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_nonnegative_int, default=8321, metavar="PORT",
        help="control-plane port (0 picks a free one; default: 8321)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="worker processes for campaign slices (default: 2)",
    )
    serve.add_argument(
        "--slice-executions", type=_positive_int, default=250, metavar="N",
        help="preempt a job after N executions per slice (default: 250)",
    )
    serve.add_argument(
        "--slice-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock limit per slice (default: none)",
    )
    serve.add_argument(
        "--until-idle", action="store_true",
        help="exit once every journalled job is terminal (for scripts/tests)",
    )
    serve.add_argument(
        "--adaptive", action="store_true",
        help="weight each job's fair share by its coverage-gain posterior "
        "and park plateaued jobs, probing them periodically "
        "(DESIGN.md §10)",
    )
    serve.add_argument(
        "--gain-threshold", type=_positive_float, default=None,
        metavar="RATE",
        help="with --adaptive: park a job once its posterior "
        "discoveries-per-execution falls below RATE (default: 0.005)",
    )
    serve.add_argument(
        "--probe-every", type=_positive_int, default=None, metavar="N",
        help="with --adaptive: grant a parked job one probe slice after "
        "the fleet advances N executions (default: 2000)",
    )
    serve.add_argument(
        "--gain-decay", type=_positive_float, default=None, metavar="FACTOR",
        help="with --adaptive: per-execution evidence decay in (0, 1] "
        "(default: 0.999)",
    )

    submit = sub.add_parser("submit", help="submit a campaign job to a service")
    # Open string like `fuzz`: plugin subjects are validated server-side
    # (the spec's subject_module is imported before validation).
    submit.add_argument(
        "subject", metavar="SUBJECT",
        help="a built-in subject "
        f"({', '.join(SUBJECT_NAMES + ('expr',))}) or a plugin subject "
        "(see --subject-module)",
    )
    submit.add_argument(
        "--subject-module", metavar="MODULE", default=None,
        help="module the service must import before resolving SUBJECT "
        "(must be importable inside the service's workers)",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8321",
                        help="service base URL (default: %(default)s)")
    submit.add_argument("--tool", choices=TOOLS, default="pfuzzer")
    submit.add_argument("--budget", type=_positive_int, default=2_000)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=_positive_int, default=1,
        help="fair-share weight; higher gets proportionally more slices",
    )
    submit.add_argument(
        "--trace", action="store_true",
        help="record an NDJSON campaign trace in the job's state directory "
        "(pFuzzer jobs only)",
    )
    submit.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="submit a gang-scheduled group of N shard-aware jobs sharing "
        "one corpus store (pFuzzer only); shard i uses seed SEED+i",
    )
    submit.add_argument(
        "--sync-every", type=_positive_int, default=None, metavar="N",
        help="corpus-sync cadence in executions for sharded jobs "
        "(default: the job's checkpoint cadence)",
    )
    _add_campaign_options(submit)
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit.add_argument(
        "--wait-timeout", type=_positive_float, default=300.0, metavar="SECONDS"
    )

    status = sub.add_parser(
        "status", help="show service jobs (all, or one job's full record)"
    )
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--url", default="http://127.0.0.1:8321")

    cancel = sub.add_parser("cancel", help="cancel a service job")
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default="http://127.0.0.1:8321")
    return parser


def _cmd_fuzz_sharded(args: argparse.Namespace, options: dict) -> int:
    """The --shards N>1 path: lockstep sharded group (DESIGN.md §8).
    ``options`` holds only the campaign options a :class:`ShardPlan` takes."""
    import tempfile

    from repro.eval.shards import ShardPlan, run_sharded

    root = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-shards-")
    plan = ShardPlan(
        subject=args.subject,
        budget=args.budget,
        shards=args.shards,
        base_seed=args.seed,
        slice_executions=args.slice_executions or ShardPlan.slice_executions,
        sync_every=args.sync_every,
        **options,
    )
    group = run_sharded(plan, root)
    for shard in group.shards:
        print(
            f"# shard {shard.shard_id}: seed {shard.seed}, "
            f"{shard.executions} executions -> "
            f"{len(shard.valid_inputs)} valid inputs"
            + (f", {shard.resumes} resumes" if shard.resumes else ""),
            file=sys.stderr,
        )
    print(
        f"# {group.rounds} rounds, store {group.store_path}, "
        f"group fingerprint {group.group_fingerprint[:12]}",
        file=sys.stderr,
    )
    if args.corpus is not None and args.corpus != group.store_path:
        from repro.eval.corpus_store import CorpusStore

        CorpusStore(args.corpus).add_records(
            list(CorpusStore(group.store_path).records())
        )
    seen = set()
    for shard in group.shards:
        for text in shard.valid_inputs:
            if text not in seen:
                seen.add(text)
                print(repr(text))
    return 0


def _unapplied_fuzz_flags(args: argparse.Namespace, options: dict) -> List[str]:
    """The given ``fuzz`` flags its chosen path would drop: the lockstep
    sharded path takes only the options a ``ShardPlan`` holds, and a single
    campaign has no rounds to slice or sync."""
    from repro.eval.shards import ShardPlan

    if args.shards > 1:
        given = [*options, *(n for n in ("trace", "all_valid") if getattr(args, n))]
        return [
            _flag(name) for name in given if name not in ShardPlan.__dataclass_fields__
        ]
    return [
        _flag(name)
        for name in ("sync_every", "slice_executions")
        if getattr(args, name) is not None
    ]


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.subject_module is not None:
        load_subject_module(args.subject_module)
    if not is_known_subject(args.subject):
        print(
            f"# unknown subject {args.subject!r}; available subjects: "
            f"{', '.join(available_subjects())}",
            file=sys.stderr,
        )
        return 2
    options = _campaign_options(args)
    problems = config_problems(options)
    if args.resume and args.checkpoint_dir is None:
        problems.append("--resume requires --checkpoint-dir")
    if (
        args.shards <= 1
        and args.checkpoint_every is not None
        and args.checkpoint_dir is None
    ):
        # A sharded group snapshots into a temporary root by default; a
        # single campaign without a directory would take no snapshot.
        problems.append("--checkpoint-every requires --checkpoint-dir")
    unapplied = _unapplied_fuzz_flags(args, options)
    if unapplied and args.shards > 1:
        problems.append(f"--shards does not apply {', '.join(unapplied)}")
    elif unapplied:
        problems.append(f"{', '.join(unapplied)} apply only with --shards N > 1")
    if problems:
        for problem in problems:
            print(f"# {problem}", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _cmd_fuzz_sharded(args, options)
    subject = load_subject(args.subject)
    if args.checkpoint_dir is not None:
        options.update(checkpoint_dir=args.checkpoint_dir, resume=args.resume)
    config = FuzzerConfig(
        seed=args.seed, max_executions=args.budget, trace_path=args.trace, **options
    )
    result = PFuzzer(subject, config).run()
    print(
        f"# {result.executions} executions, {result.rejected} rejected, "
        f"{result.hangs} hangs, {result.wall_time:.1f}s"
        + (f", {result.resumes} resumes" if result.resumes else "")
        + (f", {result.crashes} crashes" if result.crashes else ""),
        file=sys.stderr,
    )
    if args.corpus is not None:
        from repro.eval.corpus_store import CorpusRecord, CorpusStore

        records = [
            CorpusRecord(
                subject=args.subject,
                tool="pfuzzer",
                seed=args.seed,
                input=text,
                path_signature=signature,
            )
            for text, signature in zip(
                result.valid_inputs, result.valid_signatures
            )
        ]
        records.extend(
            CorpusRecord(
                subject=args.subject,
                tool="pfuzzer",
                seed=args.seed,
                input=text,
                path_signature=signature,
                kind="crash",
                crash_signature=tuple(crash_signature),
            )
            for text, signature, crash_signature in zip(
                result.crash_inputs,
                result.crash_path_signatures,
                result.crash_signatures,
            )
        )
        CorpusStore(args.corpus).add_records(records)
    outputs = result.all_valid if args.all_valid else result.valid_inputs
    for text in outputs:
        print(repr(text))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    corpora = {}
    failed = 0
    if (
        args.jobs > 1
        or args.metrics
        or args.timeout
        or args.checkpoint_dir
        or args.corpus
        or args.trace_dir
    ):
        from repro.eval.parallel import RunSpec, run_grid

        specs = [
            RunSpec(tool, args.subject, args.budget, args.seed)
            for tool in args.tools
        ]
        records = run_grid(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            metrics_path=args.metrics,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_retries=args.resume_retries,
            corpus_path=args.corpus,
            trace_dir=args.trace_dir,
        )
        for record in records:
            tool = record.spec.tool
            if record.output is None:
                failed += 1
                corpora[(args.subject, tool)] = []
                print(
                    f"# {tool}: {record.status.value} ({record.error})",
                    file=sys.stderr,
                )
                continue
            output = record.output
            corpora[(args.subject, tool)] = output.valid_inputs
            print(
                f"# {tool}: {output.executions} executions -> "
                f"{len(output.valid_inputs)} valid inputs ({output.wall_time:.1f}s)",
                file=sys.stderr,
            )
    else:
        for tool in args.tools:
            output = run_campaign(tool, args.subject, args.budget, seed=args.seed)
            corpora[(args.subject, tool)] = output.valid_inputs
            print(
                f"# {tool}: {output.executions} executions -> "
                f"{len(output.valid_inputs)} valid inputs ({output.wall_time:.1f}s)",
                file=sys.stderr,
            )
    coverages = figure3(corpora, [args.subject], args.tools)
    print(render_figure3(coverages, [args.subject], args.tools))
    grid = {
        key: coverage_of_inputs(args.subject, inputs)
        for key, inputs in corpora.items()
    }
    print()
    print(render_figure2(grid, [args.subject], args.tools))
    return 1 if failed else 0


def _cmd_tokens(args: argparse.Namespace) -> int:
    print(render_token_table(args.subject, max_examples=30))
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.miner.generate import GrammarFuzzer
    from repro.miner.mine import mine_grammar

    subject = load_subject(args.subject)
    config = FuzzerConfig(
        seed=args.seed,
        max_executions=args.budget,
        coverage_backend=args.coverage_backend,
    )
    result = PFuzzer(subject, config).run()
    # Ties broken lexicographically, not by set order: the mined grammar
    # must be a pure function of the campaign, not of PYTHONHASHSEED.
    corpus = sorted(set(result.all_valid), key=lambda t: (len(t), t))[-40:]
    print(f"# mined from {len(corpus)} valid inputs", file=sys.stderr)
    grammar = mine_grammar(subject, corpus)
    print(grammar)
    if args.generate:
        generator = GrammarFuzzer(grammar, seed=args.seed)
        print()
        for text in generator.generate_many(args.generate):
            marker = "ok " if subject.accepts(text) else "BAD"
            print(f"# {marker} {text!r}")
    return 0


def _cmd_subjects(args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.experiments import render_markdown, run_all

    budgets = None
    if args.budget is not None:
        budgets = {subject: args.budget for subject in args.subjects}
    report = run_all(
        budgets=budgets,
        tools=args.tools,
        subjects=args.subjects,
        seeds=args.seeds,
        measure_code_coverage=not args.no_code_coverage,
        jobs=args.jobs,
        timeout=args.timeout,
        metrics_path=args.metrics,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume_retries=args.resume_retries,
        corpus_path=args.corpus,
        trace_dir=args.trace_dir,
    )
    print(render_markdown(report))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.eval.corpus_store import CorpusStore

    store = CorpusStore(args.path)

    if args.corpus_command == "list":
        kind = "crash" if args.crashes else None
        for record in store.records(subject=args.subject, kind=kind):
            signature = (
                f"{record.path_signature:#x}"
                if record.path_signature is not None
                else "-"
            )
            line = (
                f"{record.subject}\t{record.tool}\t{record.seed}\t"
                f"{signature}\t{record.input!r}"
            )
            if record.kind != "valid":
                site = (
                    ":".join(str(part) for part in record.crash_signature)
                    if record.crash_signature
                    else "-"
                )
                line += f"\t{record.kind}\t{site}"
            print(line)
        return 0

    if args.corpus_command == "compact":
        kept, dropped = store.compact(
            collapse_signatures=args.collapse_signatures
        )
        print(f"# compacted: kept {kept}, dropped {dropped}", file=sys.stderr)
        _print_corpus_stats(store, subject=None)
        return 0

    if args.corpus_command == "distill":
        from repro.eval.distill import distill_store

        if args.subject_module is not None:
            load_subject_module(args.subject_module)
        try:
            results = distill_store(
                store,
                subject=args.subject,
                coverage_backend=args.coverage_backend,
            )
        except KeyError as error:
            print(f"# {error.args[0]}", file=sys.stderr)
            return 2
        for result in results:
            print(
                f"# {result.subject}: kept {result.kept}, "
                f"dropped {result.dropped}, {result.arcs} arcs preserved",
                file=sys.stderr,
            )
        if not results:
            print("# nothing to distill", file=sys.stderr)
        _print_corpus_stats(store, subject=args.subject)
        return 0

    # stats
    _print_corpus_stats(store, subject=args.subject)
    return 0


def _print_corpus_stats(store, subject: Optional[str]) -> None:
    """The ``repro corpus stats`` table: per-subject record / distinct
    input / distinct path-signature counts."""
    stats = store.stats()
    if subject is not None:
        stats = {name: row for name, row in stats.items() if name == subject}
    total = {"records": 0, "inputs": 0, "signatures": 0, "crashes": 0}
    for name in sorted(stats):
        row = stats[name]
        line = (
            f"{name}\trecords={row['records']}\tinputs={row['inputs']}\t"
            f"signatures={row['signatures']}"
        )
        if row.get("crashes"):
            line += f"\tcrashes={row['crashes']}"
        print(line)
        for key in total:
            total[key] += row.get(key, 0)
    print(f"records:              {total['records']}")
    print(f"distinct inputs:      {total['inputs']}")
    print(f"distinct signatures:  {total['signatures']}")
    if total["crashes"]:
        print(f"distinct crash sites: {total['crashes']}")
    print(
        f"subjects:             "
        f"{', '.join(sorted(stats)) if stats else '-'}"
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import read_trace

    try:
        events = read_trace(
            args.trace_path, strict=getattr(args, "strict", False)
        )
    except OSError as exc:
        print(f"# cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"# invalid trace: {exc}", file=sys.stderr)
        return 1

    if args.trace_command == "validate":
        counts: dict = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        for kind in sorted(counts):
            print(f"{kind}\t{counts[kind]}")
        print(f"# {len(events)} events, schema ok", file=sys.stderr)
        return 0

    if args.trace_command == "chrome":
        from repro.obs.export import chrome_trace

        document = json.dumps(chrome_trace(events), ensure_ascii=True)
        if args.output is not None:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(document + "\n")
            print(f"# wrote {args.output}", file=sys.stderr)
        else:
            print(document)
        return 0

    # lineage
    from repro.obs.export import lineage_dot, lineage_json
    from repro.obs.lineage import LineageError, LineageLog

    log = LineageLog.from_trace_events(events)
    emitted = [
        event for event in events if event.get("type") == "input_emitted"
    ]
    if args.input is not None:
        node_ids = [
            event["lineage"] for event in emitted if event["text"] == args.input
        ]
        if not node_ids:
            # Fall back to any lineage node with that text (inputs that
            # executed but were never emitted still have a chain).
            node_ids = log.find_by_text(args.input)
        if not node_ids:
            print(f"# no lineage for input {args.input!r}", file=sys.stderr)
            return 1
        node_ids = node_ids[:1]
    else:
        node_ids = [event["lineage"] for event in emitted]
        if not node_ids:
            print("# trace contains no emitted inputs", file=sys.stderr)
            return 1
    try:
        if args.dot:
            sys.stdout.write(lineage_dot(log, node_ids))
            return 0
        if args.as_json:
            sys.stdout.write(lineage_json(log, node_ids))
            return 0
        for node_id in node_ids:
            chain = log.chain(node_id)
            replayed = log.replay(node_id)
            print(f"# input {chain[-1].text!r} (node {node_id})")
            for node in chain:
                if node.op == "seed":
                    detail = f"seed {node.replacement!r}"
                elif node.op == "append":
                    detail = f"append {node.replacement!r}"
                else:
                    detail = (
                        f"substitute @{node.at_index} {node.replacement!r}"
                        + (f" ({node.cmp_kind})" if node.cmp_kind else "")
                    )
                print(f"  #{node.node_id} {detail} -> {node.text!r}")
            status = "ok" if replayed == chain[-1].text else "MISMATCH"
            print(f"  replay: {status}")
    except LineageError as exc:
        print(f"# broken lineage: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.gain import GainConfig
    from repro.service.scheduler import SchedulerConfig
    from repro.service.server import serve

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    serve(
        args.state_dir,
        host=args.host,
        port=args.port,
        scheduler_config=SchedulerConfig(
            workers=args.workers,
            slice_executions=args.slice_executions,
            slice_timeout=args.slice_timeout,
            adaptive=args.adaptive,
            gain=GainConfig(
                **{
                    name: value
                    for name, value in (
                        ("pause_threshold", args.gain_threshold),
                        ("probe_every", args.probe_every),
                        ("decay", args.gain_decay),
                    )
                    if value is not None
                }
            ),
        ),
        stop=stop,
        until_idle=args.until_idle,
        on_bound=lambda host, port: print(
            f"# serving on http://{host}:{port} (state: {args.state_dir})",
            file=sys.stderr,
            flush=True,
        ),
    )
    return 0


def _print_job(record: dict) -> None:
    import json

    print(json.dumps(record, indent=2, sort_keys=True))


def _service_call(url: str, operation) -> int:
    """Run one client call; map service/connection errors to exit 1."""
    import urllib.error

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url)
    try:
        return operation(client)
    except ServiceError as exc:
        print(f"# {exc}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, ConnectionError, OSError) as exc:
        print(f"# cannot reach service at {url}: {exc}", file=sys.stderr)
        return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    options = _campaign_options(args)
    problems = config_problems(options)
    if problems:
        for problem in problems:
            print(f"# {problem}", file=sys.stderr)
        return 2
    spec = {
        "subject": args.subject,
        "tool": args.tool,
        "budget": args.budget,
        "seed": args.seed,
        "priority": args.priority,
        **options,
    }
    if args.trace:
        spec["trace"] = True
    if args.shards > 1:
        spec["shards"] = args.shards
    if args.sync_every is not None:
        spec["sync_every"] = args.sync_every
    if args.subject_module is not None:
        spec["subject_module"] = args.subject_module

    def run(client) -> int:
        response = client.submit(spec)
        # Sharded submissions expand into a gang-scheduled group: the
        # service answers {"shard_group": ..., "jobs": [...]}.
        records = response["jobs"] if "jobs" in response else [response]
        if args.wait:
            records = [
                client.wait(record["job_id"], timeout=args.wait_timeout)
                for record in records
            ]
        if "jobs" in response:
            _print_job({"shard_group": response["shard_group"],
                        "jobs": records})
        else:
            _print_job(records[0])
        return (
            0
            if all(
                record["state"] in ("queued", "running", "done")
                for record in records
            )
            else 1
        )

    return _service_call(args.url, run)


def _cmd_status(args: argparse.Namespace) -> int:
    def run(client) -> int:
        if args.job_id is not None:
            _print_job(client.job(args.job_id))
            return 0
        for record in client.jobs():
            fingerprint = record.get("result_fingerprint") or "-"
            print(
                f"{record['job_id']}\t{record['state']}\t"
                f"{record['spec']['tool']}:{record['spec']['subject']}\t"
                f"{record['executions']}/{record['spec']['budget']}\t"
                f"slices={record['slices']}\t{fingerprint[:12]}"
            )
        return 0

    return _service_call(args.url, run)


def _cmd_cancel(args: argparse.Namespace) -> int:
    def run(client) -> int:
        _print_job(client.cancel(args.job_id))
        return 0

    return _service_call(args.url, run)


_COMMANDS = {
    "fuzz": _cmd_fuzz,
    "compare": _cmd_compare,
    "tokens": _cmd_tokens,
    "mine": _cmd_mine,
    "subjects": _cmd_subjects,
    "report": _cmd_report,
    "corpus": _cmd_corpus,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # `repro corpus list ... | head` closes stdout early; die the
        # conventional way (128 + SIGPIPE) without a traceback.  stdout
        # is re-pointed at devnull so the interpreter's exit-time flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
