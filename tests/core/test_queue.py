"""Priority queue: ordering, re-scoring, capping."""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate import Candidate
from repro.core.config import HeuristicWeights
from repro.core.heuristic import heuristic_score
from repro.core.queue import CandidateQueue, _dominance_key


def test_pop_highest_score():
    queue = CandidateQueue(lambda c: float(len(c.text)))
    queue.push(Candidate("a"))
    queue.push(Candidate("abc"))
    queue.push(Candidate("ab"))
    assert queue.pop().text == "abc"
    assert queue.pop().text == "ab"
    assert queue.pop().text == "a"
    assert queue.pop() is None


def test_fifo_tiebreak_on_equal_scores():
    queue = CandidateQueue(lambda c: 0.0)
    queue.push(Candidate("first"))
    queue.push(Candidate("second"))
    assert queue.pop().text == "first"


def test_len_and_iter():
    queue = CandidateQueue(lambda c: 0.0)
    queue.push(Candidate("a"))
    queue.push(Candidate("b"))
    assert len(queue) == 2
    assert {c.text for c in queue} == {"a", "b"}


def test_rescore_changes_order():
    bias = {"value": 1.0}

    def score(candidate):
        return bias["value"] * len(candidate.text)

    queue = CandidateQueue(score)
    queue.push(Candidate("a"))
    queue.push(Candidate("abc"))
    bias["value"] = -1.0
    queue.rescore()
    assert queue.pop().text == "a"


def test_limit_drops_lowest_on_overflow():
    # Capacity is enforced lazily: once the queue exceeds 2x its limit it
    # is compacted down to the best `limit` candidates.
    queue = CandidateQueue(lambda c: float(len(c.text)), limit=1)
    queue.push(Candidate("a"))
    queue.push(Candidate("ab"))
    queue.push(Candidate("abc"))  # 3 > 2*1 -> compact to best 1
    assert queue.pop().text == "abc"
    assert queue.pop() is None


def test_limit_enforced_on_rescore():
    queue = CandidateQueue(lambda c: float(len(c.text)), limit=2)
    for text in ("a", "ab", "abc", "abcd"):
        queue.push(Candidate(text))
    queue.rescore()
    assert len(queue) == 2
    assert queue.pop().text == "abcd"
    assert queue.pop().text == "abc"


def test_incremental_rescore_matches_reference_scoring():
    """The new_count cache updated via rescore(added) must track the exact
    |parent_branches \\ vBr| that heuristic_score computes from scratch."""
    rng = random.Random(7)
    weights = HeuristicWeights()
    valid = set()

    def cached_score(candidate):
        # Mirrors PFuzzer._score: use the cache, fall back to a fresh diff.
        if candidate.new_count is None:
            candidate.new_count = len(candidate.branch_set() - valid)
        return (
            weights.new_branches * candidate.new_count
            + weights.replacement_length * len(candidate.replacement)
            - weights.input_length * len(candidate.text)
            - weights.stack_size * candidate.avg_stack
            + weights.parents * candidate.parents
        )

    queue = CandidateQueue(cached_score)
    candidates = []
    for index in range(60):
        branches = frozenset(rng.sample(range(40), rng.randint(0, 12)))
        candidate = Candidate(
            text="x" * rng.randint(0, 5),
            replacement="y" * rng.randint(0, 3),
            parents=rng.randint(0, 4),
            parent_branches=branches,
            avg_stack=float(rng.randint(0, 6)),
        )
        candidates.append(candidate)
        queue.push(candidate)

    for _ in range(5):
        added = frozenset(rng.sample(range(40), rng.randint(1, 8))) - valid
        valid |= added
        queue.rescore(frozenset(added))
        for candidate in candidates:
            expected = heuristic_score(
                candidate, frozenset(valid), {}, weights
            )
            assert cached_score(candidate) == expected


def test_rescore_without_arguments_still_rebuilds():
    """rescore() with no added branches stays a full re-sort (legacy API)."""
    bias = {"value": 1.0}
    queue = CandidateQueue(lambda c: bias["value"] * len(c.text))
    queue.push(Candidate("a"))
    queue.push(Candidate("abcd"))
    bias["value"] = -1.0
    queue.rescore()
    assert queue.pop().text == "a"


def test_interleaved_push_pop():
    queue = CandidateQueue(lambda c: float(len(c.text)))
    queue.push(Candidate("ab"))
    assert queue.pop().text == "ab"
    queue.push(Candidate("a"))
    queue.push(Candidate("abcd"))
    assert queue.pop().text == "abcd"


# --------------------------------------------------------------------- #
# Queue hygiene: cull() and live_depth() (DESIGN.md §10)
# --------------------------------------------------------------------- #


def test_cull_drops_dead_entries():
    queue = CandidateQueue(lambda c: float(len(c.text)))
    queue.push(Candidate("seen"))
    queue.push(Candidate("fresh"))
    stats = queue.cull({"seen"})
    assert (stats.dead, stats.dominated, stats.kept) == (1, 0, 1)
    assert [c.text for c in queue] == ["fresh"]


def test_cull_keeps_earliest_of_identical_metadata_duplicates():
    queue = CandidateQueue(lambda c: 0.0)
    first = Candidate("dup", replacement="r", parent_branches={1, 2})
    second = Candidate("dup", replacement="r", parent_branches={1, 2})
    queue.push(first)
    queue.push(second)
    stats = queue.cull(set())
    assert (stats.dead, stats.dominated, stats.kept) == (0, 1, 1)
    assert queue.pop() is first


def test_cull_keeps_same_text_with_distinct_metadata():
    # Same text but different replacement/branches: distinct work items
    # until one of them executes — neither dominates the other.
    queue = CandidateQueue(lambda c: 0.0)
    queue.push(Candidate("x", replacement="a", parent_branches={1}))
    queue.push(Candidate("x", replacement="b", parent_branches={2}))
    stats = queue.cull(set())
    assert (stats.dead, stats.dominated, stats.kept) == (0, 0, 2)


def test_live_depth_counts_without_mutating():
    queue = CandidateQueue(lambda c: 0.0)
    queue.push(Candidate("seen"))
    queue.push(Candidate("dup"))
    queue.push(Candidate("dup"))
    queue.push(Candidate("fresh"))
    assert queue.live_depth({"seen"}) == 2  # dup (once) + fresh
    assert len(queue) == 4  # untouched
    stats = queue.cull({"seen"})
    assert stats.kept == 2
    assert queue.live_depth({"seen"}) == len(queue) == 2


def test_cull_on_clean_queue_is_a_noop():
    queue = CandidateQueue(lambda c: float(len(c.text)))
    for text in ("a", "ab", "abc"):
        queue.push(Candidate(text))
    entries_before, counter_before = queue.dump_entries()
    stats = queue.cull(set())
    assert (stats.dead, stats.dominated, stats.kept) == (0, 0, 3)
    entries_after, counter_after = queue.dump_entries()
    assert entries_after == entries_before
    assert counter_after == counter_before


def test_cull_preserves_returned_pop_sequence():
    """The safety contract: the sequence of pops the fuzzer *executes* is
    identical with and without a cull.  Models the real pop loop — an
    executed text joins the seen set, so later entries for it are skipped
    whether or not a cull already removed them."""
    rng = random.Random(13)
    params = []
    for i in range(24):
        params.append(
            (
                f"t{i % 12}",
                "r" * rng.randint(0, 2),
                rng.randint(0, 3),
                frozenset(rng.sample(range(8), 2)),
            )
        )
    # Guarantee identical-metadata duplicates (dominated entries).
    params.extend(params[::4])
    seen = {f"t{i}" for i in range(0, 12, 3)}

    def build():
        queue = CandidateQueue(lambda c: float(c.parents))
        for text, replacement, parents, branches in params:
            queue.push(
                Candidate(
                    text,
                    replacement=replacement,
                    parents=parents,
                    parent_branches=branches,
                )
            )
        return queue

    plain = build()
    culled = build()
    stats = culled.cull(seen)
    assert stats.dominated > 0 and stats.dead > 0

    def executed_pops(queue):
        executed = set(seen)
        pops = []
        while True:
            candidate = queue.pop()
            if candidate is None:
                return pops
            if candidate.text in executed:
                continue  # what the fuzzer's pop loop discards
            executed.add(candidate.text)
            pops.append(
                (candidate.text, candidate.replacement, candidate.parents)
            )
        return pops

    assert executed_pops(culled) == executed_pops(plain)


# --------------------------------------------------------------------- #
# Compaction against the full-scan reference
# --------------------------------------------------------------------- #


class _FullScanQueue(CandidateQueue):
    """Compaction as the full hygiene scan plus ``heapq.nsmallest``: the
    reference the precheck and single-sort truncation must reproduce."""

    def _compact(self, bound=None):
        bound = self._limit if bound is None else bound
        heap = self._heap
        if self.seen is not None:
            winners, dead, dominated = self._live_entries(self.seen)
            if dead or dominated:
                heap = winners
            if len(heap) > bound:
                heap = heapq.nsmallest(self._limit, heap)
        elif len(heap) > self._limit:
            heap = heapq.nsmallest(self._limit, heap)
        self._heap = heap
        heapq.heapify(self._heap)

    def _live_entries(self, seen):
        dead = 0
        winners = {}
        for entry in self._heap:
            candidate = entry[2]
            if candidate.text in seen:
                dead += 1
                continue
            key = _dominance_key(candidate)
            kept = winners.get(key)
            if kept is None or entry[1] < kept[1]:
                winners[key] = entry
        dominated = len(self._heap) - dead - len(winners)
        return list(winners.values()), dead, dominated


#: Few texts and little metadata, so heaps hold dead texts, same-text
#: entries with different metadata, and identical-metadata duplicates.
_pushes = st.lists(
    st.tuples(
        st.sampled_from("abcdef"),
        st.sampled_from(["", "x"]),
        st.integers(0, 2),
        st.sampled_from([(), (1,), (1, 2)]),
        st.integers(-3, 3),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    pushes=_pushes,
    executed=st.sets(st.sampled_from("abcdef")),
    limit=st.integers(1, 8),
    hygienic=st.booleans(),
)
def test_compaction_matches_full_scan_reference(pushes, executed, limit, hygienic):
    """Push-triggered (``bound=2 * limit``) and rescore-triggered
    (``bound=limit``) compactions leave the same heap, in the same order,
    as the full scan with ``heapq.nsmallest``; so do ``cull`` and
    ``live_depth``."""
    candidates = [
        Candidate(text, replacement=replacement, parents=parents, parent_branches=arcs)
        for text, replacement, parents, arcs, _ in pushes
    ]

    def score(candidate):
        return float(candidate.parents - len(candidate.replacement))

    queues = [
        queue_class(score, limit=limit, seen=set(executed) if hygienic else None)
        for queue_class in (CandidateQueue, _FullScanQueue)
    ]
    for queue in queues:
        for candidate, (*_, given_score) in zip(candidates, pushes):
            # Both push paths: the caller's score (nonzero draws), and the
            # score function (zero).
            queue.push(candidate, float(given_score) if given_score else None)
    fast, reference = queues
    assert fast._heap == reference._heap
    seen = set(executed)
    assert fast.live_depth(seen) == reference.live_depth(seen)
    for queue in queues:
        queue.rescore()
    assert fast._heap == reference._heap
    assert fast.cull(seen) == reference.cull(seen)
    assert fast._heap == reference._heap
