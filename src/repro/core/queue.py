"""The fuzzer's priority queue with cheap re-scoring.

After every newly emitted valid input the set of valid-covered branches
``vBr`` grows, which changes every queued candidate's score.  Re-running
queued inputs would be far too slow (§3.2), so candidates carry the
information needed to re-compute their score and the queue re-scores from
that stored metadata.

Implementation: a binary heap (scores negated for max-priority).  Pushes
and pops are O(log n); a re-score (which only happens when a new valid
input is emitted) recomputes every priority and re-heapifies in O(n).
Capacity is enforced lazily: a push that takes the queue past
``2 * limit`` entries, or a re-score that leaves it above ``limit``,
compacts it to the best ``limit`` candidates with one sort.

Re-scoring is vectorised over the interned arc ids: candidates store
their parent branches as sorted ``array('I')`` buffers
(:class:`~repro.core.candidate.Candidate`), the freshly added arcs become
a ``bytearray`` bitmap indexed by arc id, and each candidate's overlap
with the new arcs is ``sum(map(bitmap.__getitem__, branches))`` — a
single C-level pass per candidate, no per-arc set hashing.  The queue
tracks the largest arc id it has ever stored so the bitmap is sized once
per re-score, in O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.candidate import Candidate

ScoreFn = Callable[[Candidate], float]

#: Heap entries: (negated score, FIFO counter, candidate).
_Entry = Tuple[float, int, Candidate]

_candidate_of = itemgetter(2)
_text_of = attrgetter("text")


@dataclass(frozen=True)
class CullStats:
    """What one :meth:`CandidateQueue.cull` pass removed and kept."""

    #: Entries whose text had already executed — pop would skip them.
    dead: int
    #: Later duplicates of an identical-metadata entry still queued.
    dominated: int
    #: Entries remaining in the queue after the pass.
    kept: int


def _dominance_key(candidate: Candidate) -> tuple:
    """Everything that determines a candidate's score, now and forever.

    Two entries sharing this key are the same work item: every rescore
    gives them equal scores, so the one with the earliest FIFO counter
    always pops first, executes, and turns the rest into dead entries
    (``text`` enters the seen set).  ``lineage`` is deliberately absent —
    it never feeds the score, and the earliest entry's lineage is the one
    an uncull'd campaign would have propagated anyway.
    """
    return (
        candidate.text,
        candidate.replacement,
        candidate.parents,
        candidate.avg_stack,
        candidate.path_signature,
        candidate.parent_branches.tobytes(),
    )


class CandidateQueue:
    """Max-priority queue of :class:`~repro.core.candidate.Candidate`."""

    def __init__(
        self,
        score_fn: ScoreFn,
        limit: int = 5_000,
        seen: Optional[AbstractSet[str]] = None,
    ) -> None:
        self._score_fn = score_fn
        self._limit = limit
        #: Texts already executed, shared (and mutated) by the owner.
        #: When provided, capacity compaction becomes hygiene-aware: it
        #: drops dead and dominated entries *before* truncating to the
        #: best ``limit``, so capacity is never wasted on entries that
        #: could not produce an execution anyway — and an explicit
        #: :meth:`cull` pass stays result-invariant even across lossy
        #: compactions (both the culled and unculled campaign compact to
        #: the same live winner set).  None keeps the raw truncation.
        self.seen = seen
        self._heap: List[_Entry] = []
        self._counter = 0  # FIFO tiebreak for equal scores
        #: Largest interned arc id any stored candidate references — the
        #: bitmap bound for :meth:`rescore`.  Never shrinks on pop; an
        #: over-sized bitmap is only slack bytes.
        self._max_arc = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Candidate]:
        for _, _, candidate in self._heap:
            yield candidate

    def _note_arcs(self, candidate: Candidate) -> None:
        branches = candidate.parent_branches
        if branches and branches[-1] > self._max_arc:
            self._max_arc = branches[-1]

    def push(self, candidate: Candidate, score: Optional[float] = None) -> None:
        """Insert a candidate.

        ``score`` is the candidate's current score when the caller has
        already computed it (the fuzzer scores a parent's siblings
        together); None scores it with the current score function.
        """
        self._counter += 1
        self._note_arcs(candidate)
        if score is None:
            score = self._score_fn(candidate)
        heapq.heappush(self._heap, (-score, self._counter, candidate))
        if len(self._heap) > 2 * self._limit:
            self._compact(bound=2 * self._limit)

    def pop(self) -> Optional[Candidate]:
        """Remove and return the highest-scored candidate (None if empty)."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def peek_texts(self, count: int) -> List[str]:
        """Texts of (approximately) the next ``count`` candidates to pop.

        Used for speculative batched execution: the executor warms these
        while the current candidate's results are processed.  Exactness is
        deliberately traded for cost — the true top-k of a binary heap can
        sit anywhere in its first k levels, so this looks only at a
        bounded window of the backing array.  A wrong guess costs a wasted
        speculative execution, never a wrong campaign result (executions
        are a pure function of the text).
        """
        if count <= 0 or not self._heap:
            return []
        window = self._heap[: max(64, 4 * count)]
        return [entry[2].text for entry in heapq.nsmallest(count, window)]

    def rescore(self, added_branches: Optional[Iterable[int]] = None) -> None:
        """Re-compute every score (Algorithm 1, Lines 40–43).

        ``added_branches`` are the arcs the last emitted input newly added
        to ``vBr``.  When given, each candidate's cached new-branch count
        (``Candidate.new_count``) is decremented by its overlap with the
        added arcs, so the score function never has to redo the
        ``parent_branches - vBr`` set difference — the overlap is a bitmap
        count over the candidate's sorted arc array.  The heap itself is
        still rebuilt (the path-repetition penalty can shift any entry), but
        each score is now O(1).
        """
        if added_branches:
            # Bitmap of the added arcs, sized to cover both the additions
            # and every arc id stored in the queue.  Arcs can enter vBr
            # with ids older than anything queued (first covered by an
            # invalid run long ago), so the bound takes the max of both.
            limit = max(self._max_arc, max(added_branches)) + 1
            added_map = bytearray(limit)
            for arc in added_branches:
                added_map[arc] = 1
            lookup = added_map.__getitem__
            for _, _, candidate in self._heap:
                count = candidate.new_count
                if count is None or count == 0:
                    # None: never scored against any vBr, so there is
                    # nothing to decrement — the score function computes it
                    # fresh against the *current* vBr during the rebuild
                    # below.  0: cannot decrease further.  The two cases
                    # must stay distinct: decrementing a None would crash,
                    # and treating a 0 as unscored would resurrect branches
                    # the candidate no longer covers newly.
                    continue
                overlap = sum(map(lookup, candidate.parent_branches))
                if overlap:
                    candidate.new_count = count - overlap
        self._heap = [
            (-self._score_fn(candidate), order, candidate)
            for _, order, candidate in self._heap
        ]
        heapq.heapify(self._heap)
        if len(self._heap) > self._limit:
            self._compact()

    def rescore_full(self) -> None:
        """Invalidate every cached new-branch count and rescore from zero.

        The hybrid campaign's generation phase resets ``vBr`` so
        parser-directed search re-measures progress against the flooded
        corpus roots; incremental decrements are meaningless across such
        a reset, so every candidate is re-scored fresh against the new
        (empty) valid-branch set.
        """
        for _, _, candidate in self._heap:
            candidate.new_count = None
        self.rescore()

    def _compact(self, bound: Optional[int] = None) -> None:
        """Enforce capacity; ``bound`` is the trigger that fired (the
        rescore limit by default, ``2 * limit`` from :meth:`push`).

        Without a ``seen`` set: truncate to the best ``limit`` entries
        (the legacy lossy compaction).  With one, compaction is
        hygiene-first: dead and dominated entries go before anything
        live is sacrificed, and the lossy truncation to ``limit``
        happens only if the *live* winner set itself exceeds ``bound``.

        That live-exceeds-bound condition is what makes an explicit
        :meth:`cull` cadence result-invariant across compactions.  The
        culled and unculled campaign always share one live winner set;
        raw heap lengths (what the push/rescore triggers test) are at
        least the live count in either run, so whenever the live set
        outgrows ``bound`` both runs' triggers fire on the same push or
        rescore and both truncate the *same* live set to the same best
        ``limit``.  When only the dead-inflated raw length crossed the
        trigger, hygiene alone shrinks the heap and nothing live is
        lost — in either run.
        """
        bound = self._limit if bound is None else bound
        heap = self._heap
        if self.seen is not None:
            winners, dead, dominated = self._live_entries(self.seen)
            if dead or dominated:
                heap = winners
            truncate = len(heap) > bound
        else:
            truncate = len(heap) > self._limit
        if truncate:
            # Entries never tie (FIFO counters are unique), so this is
            # ``heapq.nsmallest(limit, heap)`` without its Python-level
            # loop; a sorted list is already a heap.
            self._heap = sorted(heap)[: self._limit]
        elif heap is not self._heap:
            heapq.heapify(heap)
            self._heap = heap

    # ------------------------------------------------------------------ #
    # Queue hygiene (DESIGN.md §10)
    # ------------------------------------------------------------------ #

    def _live_entries(
        self, seen: AbstractSet[str]
    ) -> Tuple[List[_Entry], int, int]:
        """(winning entries, dead count, dominated count) — no mutation.

        *Dead* entries (text already executed) are exactly what
        :meth:`pop` callers skip; *dominated* entries are later pushes of
        an identical-metadata candidate (see :func:`_dominance_key`) —
        provably never the returned pop, because scores-from-metadata are
        equal after every rescore and monotonically staler in between, so
        the earliest FIFO counter wins every time.
        """
        heap = self._heap
        # Every dominance key starts with the text, so when no queued
        # text has executed and none is queued twice nothing can be
        # dropped.  Both checks run in C; the dead one stops at the first
        # dead text, so a heap that needs the full scan below barely
        # pays for them.
        if seen.isdisjoint(map(_text_of, map(_candidate_of, heap))) and len(
            set(map(_text_of, map(_candidate_of, heap)))
        ) == len(heap):
            return list(heap), 0, 0
        dead = 0
        winners: Dict[tuple, _Entry] = {}
        for entry in heap:
            candidate = entry[2]
            if candidate.text in seen:
                dead += 1
                continue
            key = _dominance_key(candidate)
            kept = winners.get(key)
            if kept is None or entry[1] < kept[1]:
                winners[key] = entry
        dominated = len(heap) - dead - len(winners)
        return list(winners.values()), dead, dominated

    def live_depth(self, seen: AbstractSet[str]) -> int:
        """Candidates that could still produce an execution.

        The non-mutating count :meth:`cull` would leave behind — the
        queue's *frontier*.  ``FuzzingResult.queue_depth`` reports this
        instead of the raw heap length so campaigns with and without
        culling enabled finish with identical result fingerprints.
        """
        winners, _, _ = self._live_entries(seen)
        return len(winners)

    def cull(self, seen: AbstractSet[str]) -> CullStats:
        """Drop entries that can never become a returned pop.

        Removes *dead* entries (``text in seen`` — the pop loop discards
        them unexecuted) and *dominated* duplicates (identical-metadata
        entries beyond the earliest-pushed one, which always pops first
        and kills its siblings by executing their shared text).  Stored
        priorities, FIFO counters and the push counter are untouched, so
        the sequence of *returned* pops — and therefore the campaign
        result — is exactly what the uncull'd queue would have produced.
        This holds across capacity compactions too, because a queue with
        a ``seen`` set compacts hygiene-first (see :meth:`_compact`):
        lossy truncation only ever applies to the live winner set, which
        culling does not change.
        """
        winners, dead, dominated = self._live_entries(seen)
        if dead or dominated:
            self._heap = winners
            heapq.heapify(self._heap)
        return CullStats(dead=dead, dominated=dominated, kept=len(self._heap))

    # ------------------------------------------------------------------ #
    # Durable-campaign support (see repro.eval.checkpoint)
    # ------------------------------------------------------------------ #

    def dump_entries(self) -> Tuple[List[_Entry], int]:
        """The raw heap entries and FIFO counter, verbatim.

        Snapshots must capture the *stored* priorities, not re-derive them:
        a heap entry's priority is the score at its push/rescore time, and
        the path-repetition penalty drifts between re-scores, so re-scoring
        on restore would reorder pops and break the resumed-equals-
        uninterrupted contract.
        """
        return list(self._heap), self._counter

    def restore_entries(self, entries: List[_Entry], counter: int) -> None:
        """Replace the heap with previously dumped entries.

        ``entries`` must be a valid heap (any ``dump_entries`` output is);
        priorities and FIFO order numbers are restored verbatim so pop
        order, tie-breaks and future compactions are byte-identical to the
        campaign the snapshot was taken from.
        """
        self._heap = list(entries)
        self._counter = counter
        for _, _, candidate in self._heap:
            self._note_arcs(candidate)
