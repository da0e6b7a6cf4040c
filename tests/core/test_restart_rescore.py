"""Regressions: queue-restart behaviour and rescore cache consistency.

Two latent defects in the restart / rescore interaction, pinned here:

* ``_restart_candidate`` used to give up after 64 colliding RNG draws and
  end the campaign even though the character pool still held unseen
  characters — the deterministic pool-scan fallback fixes that;
* the incremental ``new_count`` cache maintained by
  :meth:`CandidateQueue.rescore` must stay equal to the reference
  ``len(parent_branches - vBr)`` across emits, restarts and compactions,
  or cached scores silently diverge from
  :func:`repro.core.heuristic.heuristic_score`.

Pop order depends on the exact stored floats, so the priority each push
stores is pinned bit for bit against the reference as well.
"""

import pytest

from repro.core.candidate import Candidate
from repro.core.config import FuzzerConfig, HeuristicWeights
from repro.core.fuzzer import PFuzzer
from repro.core.heuristic import heuristic_score
from repro.core.queue import CandidateQueue
from repro.subjects.registry import load_subject


# --------------------------------------------------------------------- #
# _restart_candidate fallback
# --------------------------------------------------------------------- #


def test_restart_falls_back_to_pool_scan_when_rng_draws_collide(monkeypatch):
    fuzzer = PFuzzer(load_subject("expr"), FuzzerConfig(seed=0))
    pool = fuzzer.config.character_pool
    # Everything except one pool character has been executed already...
    unseen = pool[len(pool) // 2]
    fuzzer._seen = {char for char in pool if char != unseen}
    # ...and the RNG insists on drawing an already-seen character forever.
    monkeypatch.setattr(fuzzer, "_random_char", lambda: pool[0])
    candidate = fuzzer._restart_candidate()
    assert candidate is not None
    assert candidate.text == unseen


def test_restart_returns_none_only_when_pool_is_exhausted():
    fuzzer = PFuzzer(load_subject("expr"), FuzzerConfig(seed=0))
    fuzzer._seen = set(fuzzer.config.character_pool)
    assert fuzzer._restart_candidate() is None


def test_campaign_ends_early_only_when_search_space_is_exhausted():
    """A tiny max_input_length forces many restarts.  The campaign may end
    with budget left only once the queue is empty AND every pool character
    has been seen — never because 64 RNG draws happened to collide (the
    old fallback-less behaviour)."""
    config = FuzzerConfig(seed=11, max_executions=400, max_input_length=2)
    fuzzer = PFuzzer(load_subject("expr"), config)
    result = fuzzer.run()
    if result.executions < config.max_executions:
        assert len(fuzzer._queue) == 0
        unseen = [c for c in config.character_pool if c not in fuzzer._seen]
        assert unseen == []


# --------------------------------------------------------------------- #
# rescore cache consistency
# --------------------------------------------------------------------- #


def _assert_cache_consistent(queue, vbr, path_counts, weights):
    vbr_frozen = frozenset(vbr)
    for candidate in queue:
        reference = heuristic_score(candidate, vbr_frozen, path_counts, weights)
        cached_count = candidate.new_count
        assert cached_count is None or cached_count == len(
            candidate.branch_set() - vbr_frozen
        ), (
            f"cached new_count {cached_count} != reference "
            f"{len(candidate.branch_set() - vbr_frozen)} "
            f"for {candidate.text!r}"
        )
        if cached_count is not None and candidate.static_score is not None:
            cached_score = (
                weights.new_branches * cached_count
                + candidate.static_score
                - weights.path_repetition
                * path_counts.get(candidate.path_signature, 0)
            )
            assert abs(cached_score - reference) < 1e-9


def test_rescore_keeps_new_count_consistent_after_restarts():
    """Restart-heavy campaign: after every emit-triggered rescore (and the
    restarts in between), every queued candidate's cached ``new_count``
    matches the reference set difference against the current vBr."""
    config = FuzzerConfig(seed=3, max_executions=500, max_input_length=3)
    fuzzer = PFuzzer(load_subject("expr"), config)

    checks = []

    def on_emit(executions, text):
        _assert_cache_consistent(
            fuzzer._queue,
            fuzzer._valid_branches,
            fuzzer._path_counts,
            config.weights,
        )
        checks.append(executions)

    fuzzer.on_emit = on_emit
    fuzzer.run()
    assert checks, "campaign emitted nothing; test exercised no rescans"
    _assert_cache_consistent(
        fuzzer._queue, fuzzer._valid_branches, fuzzer._path_counts, config.weights
    )


def test_rescore_does_not_resurrect_zero_counts():
    """A candidate whose cached count already hit 0 must stay at 0 even
    when later-added branches overlap its parents again (the None/0 guard
    in CandidateQueue.rescore)."""
    weights = HeuristicWeights()
    vbr = set()

    def score(candidate):
        count = candidate.new_count
        if count is None:
            count = len(candidate.branch_set() - frozenset(vbr))
            candidate.new_count = count
        return float(count)

    queue = CandidateQueue(score, limit=100)
    branches = frozenset({1, 2})
    queue.push(Candidate("x", parent_branches=branches))
    # First emit covers both parent arcs: cached count drops 2 -> 0.
    vbr.update({1, 2})
    queue.rescore(frozenset({1, 2}))
    (candidate,) = list(queue)
    assert candidate.new_count == 0
    # A second rescore whose added arcs overlap the same parents must not
    # drive the count negative (or worse, treat 0 as "unscored").
    queue.rescore(frozenset({1, 3}))
    assert candidate.new_count == 0


def test_unscored_candidates_score_fresh_against_current_vbr():
    """new_count is None until first scored; rescore must leave None alone
    so the next scoring computes against the *current* vBr."""
    scored_with = []

    def score(candidate):
        count = candidate.new_count
        if count is None:
            count = len(candidate.branch_set() - frozenset(vbr))
            candidate.new_count = count
            scored_with.append(set(vbr))
        return float(count)

    vbr = set()
    queue = CandidateQueue(score, limit=100)
    candidate = Candidate("y", parent_branches=frozenset({5, 6}))
    candidate.new_count = None  # simulate a never-scored cache
    queue._heap.append((0.0, 0, candidate))  # bypass push's scoring
    queue._note_arcs(candidate)  # ...but keep the rescore bitmap sized
    vbr.update({5})
    queue.rescore(frozenset({5}))
    assert candidate.new_count == 1  # scored fresh against vBr={5}


def _stored_priority(queue, order):
    """Stored priority of the just-pushed entry with FIFO counter ``order``.

    ``heappush`` appends and sifts up, so the entry sits on the path from
    the last slot to the root, unless the push compacted the queue.  None
    when that compaction dropped it.
    """
    heap = queue._heap
    index = len(heap) - 1
    while index >= 0:
        if heap[index][1] == order:
            return heap[index][0]
        index = (index - 1) // 2 if index else -1
    for priority, counter, _ in heap:
        if counter == order:
            return priority
    return None


#: Weights whose terms round when summed, so a change in the order of the
#: score's float operations changes stored priorities (the default
#: weights are small integers, whose sums are exact).
_ROUNDING_WEIGHTS = HeuristicWeights(
    new_branches=0.7,
    input_length=0.3,
    replacement_length=1.1,
    stack_size=0.9,
    parents=-0.35,
    path_repetition=0.2,
)


@pytest.mark.parametrize(
    "subject, weights",
    [
        ("json", HeuristicWeights()),
        ("url", HeuristicWeights()),
        ("url", _ROUNDING_WEIGHTS),
    ],
)
def test_stored_priorities_equal_reference_score_bit_for_bit(
    subject, weights, monkeypatch
):
    """Every stored priority is exactly ``-heuristic_score`` of the pushed
    candidate against vBr and the path counts at push time, whichever
    push path computed it (siblings scored together, or the queue's score
    function)."""
    config = FuzzerConfig(
        seed=5, max_executions=1000, coverage_backend="ast", weights=weights
    )
    fuzzer = PFuzzer(load_subject(subject), config)
    push = CandidateQueue.push
    checked = []

    def pinned(queue, candidate, score=None):
        expected = -heuristic_score(
            candidate,
            frozenset(fuzzer._valid_branches),
            fuzzer._path_counts,
            config.weights,
        )
        push(queue, candidate, score)
        stored = _stored_priority(queue, queue._counter)
        if stored is not None:
            assert stored == expected, candidate
            checked.append(stored)

    monkeypatch.setattr(CandidateQueue, "push", pinned)
    fuzzer.run()
    assert len(checked) > 1000
