"""Arc interning: small-integer ids for branch arcs.

The fuzzer's hot loop is dominated by set operations over branch arcs —
``RunResult.branches``, the growing ``vBr`` union, and the heuristic's
``branches \\ vBr`` difference.  Hashing ``(filename, int, int)`` tuples for
every membership test is needlessly expensive, so each subject gets an
:class:`ArcTable` that interns every distinct arc to a dense small integer.
Both coverage backends (settrace and AST instrumentation) share the same
table per subject class, which is what makes their interned branch sets
directly comparable.

The table also hands out *stable* per-arc digests (blake2b over the decoded
tuple) so path signatures do not depend on ``PYTHONHASHSEED`` or on the
order arcs happened to be interned in.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Decoded arc: ``(filename, previous_line, line)`` for line arcs, or the
#: auxiliary table-coverage tuples recorded via ``Recorder.record_branch``.
Arc = Tuple[str, int, int]


class ArcTable:
    """Bidirectional arc <-> small-int mapping with cached stable digests."""

    __slots__ = ("_ids", "_arcs", "_digests")

    def __init__(self) -> None:
        self._ids: Dict[tuple, int] = {}
        self._arcs: List[tuple] = []
        self._digests: List[Optional[bytes]] = []

    def __len__(self) -> int:
        return len(self._arcs)

    def intern(self, arc: tuple) -> int:
        """Return the id of ``arc``, assigning the next free id if new."""
        arc_id = self._ids.get(arc)
        if arc_id is None:
            arc_id = len(self._arcs)
            self._ids[arc] = arc_id
            self._arcs.append(arc)
            self._digests.append(None)
        return arc_id

    def arc(self, arc_id: int) -> tuple:
        """Decode an interned id back to the original arc tuple."""
        return self._arcs[arc_id]

    def arcs_since(self, arc_id: int) -> List[tuple]:
        """The arcs interned with ids ``arc_id`` and up, in id order."""
        return self._arcs[arc_id:]

    def decode(self, arc_ids: Iterable[int]) -> FrozenSet[tuple]:
        """Decode a set of interned ids to the original arc tuples."""
        arcs = self._arcs
        return frozenset(arcs[arc_id] for arc_id in arc_ids)

    def digest(self, arc_id: int) -> bytes:
        """Stable 8-byte digest of one arc (independent of intern order)."""
        cached = self._digests[arc_id]
        if cached is None:
            cached = blake2b(
                repr(self._arcs[arc_id]).encode("utf-8"), digest_size=8
            ).digest()
            self._digests[arc_id] = cached
        return cached

    def signature(self, arc_ids: Iterable[int]) -> int:
        """Stable signature of a branch path (a set of interned arcs).

        Hashes the sorted per-arc digests, so the result is identical across
        interpreter runs, hash seeds, backends and intern orders.  The
        digests are joined and hashed in one call, which gives the same
        bits as feeding them to the hash one at a time.
        """
        digests = self._digests
        digest = self.digest
        parts = [digests[arc_id] or digest(arc_id) for arc_id in arc_ids]
        parts.sort()
        return int.from_bytes(
            blake2b(b"".join(parts), digest_size=8).digest(), "big"
        )


#: One table per subject identity; both backends intern through the same
#: table.  The key is normally the subject class, but adapter subjects that
#: wrap arbitrary callables (one class, many distinct parsers — see
#: :class:`repro.subjects.function.FunctionSubject`) publish an
#: ``arc_table_key`` attribute so each wrapped parser gets its own table.
_TABLES: Dict[object, ArcTable] = {}


def arc_table_for(subject) -> ArcTable:
    """The shared per-subject arc table (created on first use).

    Keyed by the subject's ``arc_table_key`` attribute when present,
    falling back to the subject class.
    """
    key = getattr(subject, "arc_table_key", None)
    if key is None:
        key = type(subject)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = ArcTable()
    return table
