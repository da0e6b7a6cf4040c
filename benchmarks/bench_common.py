"""Shared campaign plumbing for the benchmark suite.

Campaigns are expensive (thousands of instrumented executions), so results
are cached per (tool, subject) and shared between the Figure 2 and Figure 3
benchmarks within one pytest session.

Budgets are the DESIGN.md §2 substitution for the paper's 48 CPU-hours:
execution counts sized for minutes of laptop time.  pFuzzer runs best-of-N
seeds, mirroring the paper's "all tests were run three times; we report the
best run".

The mechanism benches track their numbers in committed ``BENCH_*.json``
trajectories at the repository root; :func:`load_trajectory` and
:func:`append_trajectory_entry` are the one reader and writer of that
format (``{"schema": 1, "trajectory": [entry, ...]}``, each entry
carrying the git rev, a UTC timestamp, the CPU count, the Python version
and the bench's ``rates``).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.eval.campaign import run_campaign
from repro.eval.token_cov import token_coverage

#: Where the committed ``BENCH_*.json`` trajectories live.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Paper subjects in Table 1 order.
SUBJECTS: Tuple[str, ...] = ("ini", "csv", "json", "tinyc", "mjs")

#: Tools compared in §5.
TOOLS: Tuple[str, ...] = ("afl", "klee", "pfuzzer")

#: Execution budgets per subject (every tool gets the same budget, as every
#: tool got the same 48 hours in the paper).
BUDGETS: Dict[str, int] = {
    "ini": 6_000,
    "csv": 4_000,
    "json": 8_000,
    "tinyc": 12_000,
    "mjs": 20_000,
}

#: Seeds for the best-of-N repetition (paper: 3 repetitions).
SEEDS: Tuple[int, ...] = (0, 3, 8)


@functools.lru_cache(maxsize=None)
def campaign_inputs(tool: str, subject: str) -> Tuple[str, ...]:
    """Valid inputs of the best repetition of ``tool`` on ``subject``.

    "Best" is by token coverage, the metric Figure 3 reports; the same
    corpus then feeds the Figure 2 coverage measurement.
    """
    budget = BUDGETS[subject]
    best: Tuple[str, ...] = ()
    best_score = -1.0
    for seed in SEEDS:
        output = run_campaign(tool, subject, budget, seed=seed)
        coverage = token_coverage(subject, output.valid_inputs)
        score = coverage.total_found + coverage.percent() / 1000.0
        if score > best_score:
            best_score = score
            best = tuple(output.valid_inputs)
    return best


def all_campaigns() -> Dict[Tuple[str, str], List[str]]:
    """Every (subject, tool) corpus, computing lazily through the cache."""
    return {
        (subject, tool): list(campaign_inputs(tool, subject))
        for subject in SUBJECTS
        for tool in TOOLS
    }


def git_rev() -> str:
    """Short hash of the checked-out commit, with ``-dirty`` appended when
    tracked files differ from it (the measured code is not that commit's),
    or ``"unknown"``."""
    try:
        return (
            subprocess.run(
                ["git", "describe", "--always", "--dirty", "--abbrev=7",
                 "--exclude", "*"],
                cwd=REPO_ROOT,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: Path) -> List[dict]:
    """The committed entries of the trajectory at ``path``, oldest first."""
    if not path.exists():
        return []
    return json.loads(path.read_text())["trajectory"]


def append_trajectory_entry(path: Path, rates: dict, **extra) -> dict:
    """Append one entry for the current checkout to ``path``; return it.

    ``extra`` adds bench-specific top-level fields after ``rates`` (the
    throughput bench's ``ratios``).
    """
    entry = {
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "rates": rates,
        **extra,
    }
    document = (
        json.loads(path.read_text())
        if path.exists()
        else {"schema": 1, "trajectory": []}
    )
    document["trajectory"].append(entry)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"  appended trajectory entry {entry['git_rev']} to {path}")
    return entry
