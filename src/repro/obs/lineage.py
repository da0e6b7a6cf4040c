"""Candidate lineage: every input as a replayable derivation chain.

The paper's walkthrough (Figure 1) derives ``"while"`` from the empty
input through a chain of appends and comparison-driven substitutions.
:class:`LineageLog` records exactly that chain for *every* input the
fuzzer creates: one :class:`LineageNode` per input, carrying its parent
node and the operation that produced it —

* ``"seed"`` — a root: an initial input, the empty-string start, or a
  random restart character.  ``replacement`` holds the full text.
* ``"append"`` — the random-character extension of the parent input;
  ``replacement`` is the appended character.
* ``"substitute"`` — a comparison-driven splice (Algorithm 1
  ``addInputs``): ``parent_text[:at_index] + replacement``, where
  ``cmp_kind`` names the comparison kind (``strcmp``, ``==``, ``in``,
  ...) that produced it.
* ``"sync"`` — a root imported from another shard's corpus during a
  sync point (see :mod:`repro.eval.sync`).  Like ``"seed"``,
  ``replacement`` holds the full text; ``cmp_kind`` carries the shared
  store's provenance tag so cross-shard chains stay explainable.
* ``"gen"`` — a root flooded by the compiled grammar generator during a
  hybrid campaign's generation phase (see :mod:`repro.hybrid`).  Like
  ``"seed"``, ``replacement`` holds the full text; ``cmp_kind`` carries
  the generation phase tag (``"phase-N"``) so corpus entries remain
  attributable to the grammar that produced them.

Because every operation is a pure function of the parent's text,
:meth:`LineageLog.replay` can re-derive any node's input bytes from its
root — the acceptance check that a lineage chain really *explains* its
input.  The log serialises into campaign snapshots
(:meth:`to_payload` / :meth:`from_payload`), so chains survive
checkpoint/resume, and reconstructs from a trace file's
``candidate_scheduled`` events (:meth:`from_trace_events`), so the
``repro trace lineage`` query needs only the NDJSON artifact.

Lineage ids are assigned deterministically (a monotonic counter advanced
in loop order), independent of whether a trace recorder is attached —
a resumed campaign allocates the same ids an uninterrupted one would,
with or without tracing enabled.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional


class LineageError(Exception):
    """A lineage query failed (unknown node, broken chain, bad replay)."""


class LineageNode(NamedTuple):
    """One input's provenance: parent plus the operation that made it.

    :class:`LineageLog` stores each node's fields as a plain tuple, one
    for every queued candidate and every executed input, and builds the
    ``NamedTuple`` when a node is read.
    """

    node_id: int
    parent_id: Optional[int]
    op: str  # "seed" | "append" | "substitute" | "sync" | "gen"
    text: str
    replacement: str = ""
    at_index: int = 0
    cmp_kind: str = ""

    def derive(self, parent_text: str) -> str:
        """Apply this node's operation to its parent's text."""
        if self.op in ("seed", "sync", "gen"):
            return self.replacement
        if self.op == "append":
            return parent_text + self.replacement
        if self.op == "substitute":
            return parent_text[: self.at_index] + self.replacement
        raise LineageError(f"unknown lineage op {self.op!r}")


class _NodeTable(MutableMapping):
    """Node id -> :class:`LineageNode`, stored as plain tuples.

    CPython's collector untracks a plain tuple of atomic values at its
    first collection but never a tuple subclass, so ``LineageNode`` rows
    would stay tracked and every full collection would walk all of them;
    a campaign records one per queued candidate.  Reads build the
    ``LineageNode`` on the way out.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Dict[int, tuple]) -> None:
        self.rows = rows

    def __getitem__(self, node_id: int) -> LineageNode:
        return LineageNode._make(self.rows[node_id])

    def __setitem__(self, node_id: int, node: LineageNode) -> None:
        self.rows[node_id] = tuple(node)

    def __delitem__(self, node_id: int) -> None:
        del self.rows[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class LineageLog:
    """Append-only table of lineage nodes with chain queries."""

    def __init__(self) -> None:
        #: Node id -> the node's fields as a plain tuple (see
        #: :class:`_NodeTable`); ``nodes`` is the same table as
        #: :class:`LineageNode` values.
        self._rows: Dict[int, tuple] = {}
        self.nodes: MutableMapping[int, LineageNode] = _NodeTable(self._rows)
        self.next_id = 0

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def new_node(
        self,
        parent_id: Optional[int],
        op: str,
        text: str,
        replacement: str = "",
        at_index: int = 0,
        cmp_kind: str = "",
    ) -> int:
        """Allocate the next node id and record the node; returns the id."""
        node_id = self.next_id
        self.next_id = node_id + 1
        self._rows[node_id] = (
            node_id, parent_id, op, text, replacement, at_index, cmp_kind
        )
        return node_id

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def get(self, node_id: int) -> LineageNode:
        row = self._rows.get(node_id)
        if row is None:
            raise LineageError(f"unknown lineage node {node_id}")
        return LineageNode._make(row)

    def chain(self, node_id: int) -> List[LineageNode]:
        """The derivation chain root-first, ending at ``node_id``.

        Raises:
            LineageError: the node (or any ancestor) is missing, or the
                parent links cycle.
        """
        out: List[LineageNode] = []
        seen = set()
        current: Optional[int] = node_id
        while current is not None:
            if current in seen:
                raise LineageError(f"lineage cycle at node {current}")
            seen.add(current)
            node = self.get(current)
            out.append(node)
            current = node.parent_id
        out.reverse()
        return out

    def replay(self, node_id: int) -> str:
        """Re-derive the node's input bytes by folding the chain's ops."""
        text = ""
        for node in self.chain(node_id):
            text = node.derive(text)
        return text

    def find_by_text(self, text: str) -> List[int]:
        """Node ids whose recorded text equals ``text``, in id order."""
        return sorted(
            node_id for node_id, node in self.nodes.items() if node.text == text
        )

    # ------------------------------------------------------------------ #
    # Snapshot serialisation (see repro.eval.checkpoint)
    # ------------------------------------------------------------------ #

    def to_payload(self) -> dict:
        """JSON-safe form for campaign snapshots (nodes in id order)."""
        return {
            "next_id": self.next_id,
            "nodes": [list(self._rows[key]) for key in sorted(self._rows)],
        }

    @classmethod
    def from_payload(cls, payload: Optional[dict]) -> "LineageLog":
        """Rebuild from :meth:`to_payload` (None/missing -> empty log)."""
        log = cls()
        if not payload:
            return log
        for record in payload["nodes"]:
            node = LineageNode(*record)
            log.nodes[node.node_id] = node
        log.next_id = payload["next_id"]
        return log

    # ------------------------------------------------------------------ #
    # Trace reconstruction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_trace_events(cls, events: Iterable[dict]) -> "LineageLog":
        """Rebuild the lineage tree from a trace's NDJSON events.

        ``candidate_scheduled`` events carry the tree structure; matching
        ``substitution_applied`` events (same ``lineage`` id) refine
        substitute nodes with the splice position and comparison kind.
        """
        log = cls()
        details: Dict[int, dict] = {}
        scheduled: List[dict] = []
        for event in events:
            kind = event.get("type")
            if kind == "candidate_scheduled":
                scheduled.append(event)
            elif kind == "substitution_applied":
                details[event["lineage"]] = event
        for event in scheduled:
            node_id = event["lineage"]
            detail = details.get(node_id, {})
            node = LineageNode(
                node_id=node_id,
                parent_id=event["parent"],
                op=event["op"],
                text=event["text"],
                replacement=detail.get(
                    "replacement",
                    event["text"]
                    if event["op"] in ("seed", "sync", "gen")
                    else event.get("replacement", ""),
                ),
                at_index=detail.get("at_index", 0),
                cmp_kind=detail.get("cmp_kind", ""),
            )
            log.nodes[node_id] = node
            log.next_id = max(log.next_id, node_id + 1)
        return log
