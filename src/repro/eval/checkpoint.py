"""Durable campaign snapshots: versioned, atomic, checksummed.

A checkpoint is one file holding a complete :class:`~repro.core.fuzzer.
PFuzzer` state — candidate queue with its cached scores and heap order,
``vBr``, the valid corpus, RNG position and budget consumed — wrapped in an
envelope that makes interrupted writes detectable.  Format 2 is two lines:
a JSON header ``{"checksum", "generation", "magic", "version"}``, then the
canonical payload JSON (sorted keys, no spaces, ASCII).  The payload is
serialised once per write and parsed once per read.

* **atomic writes** — the file is written to a temporary file in the
  same directory, fsynced, and ``os.replace``d into place, so a crash mid-
  write can never leave a half-written file under the final name;
* **checksums** — the header stores a blake2b digest of the stored
  payload line, verified over those bytes *before* they are parsed; a
  truncated, bit-flipped or extended file fails verification and is
  skipped rather than restored;
* **generations** — every write gets the next generation number and the
  previous ``keep`` generations are retained, so even a corrupted latest
  file (e.g. a torn write on a non-atomic filesystem) falls back to the
  previous good snapshot instead of losing the campaign.

Format-1 files — the whole envelope as one JSON document, its checksum
over a re-serialised payload — are still read.

Branch arcs are process-local interned ids (:mod:`repro.runtime.arcs`), so
snapshots never store raw ids: every referenced arc is decoded through the
subject's :class:`~repro.runtime.arcs.ArcTable` into its stable tuple form
and re-interned on restore.  :func:`pack_arc_ids` / :class:`ArcUnpacker`
implement that translation; everything downstream of them (scores, counts,
path signatures) is id-independent by construction.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.runtime.arcs import ArcTable

PathLike = Union[str, Path]

#: File-format magic; rejects files that are not checkpoints at all.
MAGIC = "repro-checkpoint"

#: Bumped on any envelope or payload field rename/retyping; additions keep
#: the version.
FORMAT_VERSION = 2

#: The single-document layout written before format 2; still read.
_FORMAT_1 = 1

#: Default number of snapshot generations retained on disk.
DEFAULT_KEEP = 2

_FILE_RE = re.compile(r"^ckpt-(\d{8})\.json$")


class CheckpointError(Exception):
    """A checkpoint file is missing, corrupt, or incompatible."""


def atomic_write_text(
    target: PathLike, text: str, *, encoding: str = "ascii"
) -> Path:
    """Write ``text`` to ``target`` with the crash-safe discipline.

    Temporary file in the same directory, fsync, then ``os.replace`` — the
    write either completes or never happens under the final name.  Shared
    by snapshot writes here and the campaign service's journal compaction
    (:mod:`repro.service.jobs`).
    """
    target = Path(target)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}-tmp-", dir=target.parent
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


# --------------------------------------------------------------------- #
# Arc translation
# --------------------------------------------------------------------- #


def _tuplify(value):
    """Recursively convert JSON lists back into the tuples arcs are made of."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def pack_arc_ids(id_sets: Iterable[Iterable[int]], table: ArcTable):
    """Translate process-local arc ids into snapshot-local ids.

    Args:
        id_sets: every set of interned arc ids the snapshot references.
        table: the subject's arc table that interned them.

    Returns:
        ``(arcs, mapping)`` where ``arcs`` is the canonical (repr-sorted)
        list of decoded arc tuples and ``mapping`` maps each process-local
        id to its index in ``arcs``.  The repr sort makes the snapshot
        byte-stable regardless of intern order, which the round-trip
        fixed-point property relies on.
    """
    used = set()
    for ids in id_sets:
        used.update(ids)
    decoded = {arc_id: table.arc(arc_id) for arc_id in used}
    ordered = sorted(decoded.items(), key=lambda item: repr(item[1]))
    mapping = {arc_id: index for index, (arc_id, _) in enumerate(ordered)}
    return [arc for _, arc in ordered], mapping


class ArcUnpacker:
    """Re-intern a snapshot's arc list into a (possibly fresh) arc table."""

    def __init__(self, arcs: List, table: ArcTable) -> None:
        self._ids = [table.intern(_tuplify(arc)) for arc in arcs]

    def ids(self, local_ids: Iterable[int]):
        """Translate snapshot-local ids back to process-local interned ids."""
        lookup = self._ids
        return frozenset(lookup[local] for local in local_ids)


# --------------------------------------------------------------------- #
# Envelope
# --------------------------------------------------------------------- #


def _canonical_payload(payload: dict) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _payload_checksum(stored: bytes) -> str:
    return blake2b(stored, digest_size=16).hexdigest()


def _parse(path: Path, data: bytes, what: str):
    try:
        return json.loads(data.decode("ascii"))
    except (ValueError, RecursionError) as exc:  # bad ASCII or bad JSON
        raise CheckpointError(f"{path}: malformed {what} ({exc})") from None


def _generation_path(directory: Path, generation: int) -> Path:
    return directory / f"ckpt-{generation:08d}.json"


def list_generations(directory: PathLike) -> List[int]:
    """Generation numbers present in ``directory`` (sorted, no validation)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    generations = []
    for name in os.listdir(directory):
        match = _FILE_RE.match(name)
        if match:
            generations.append(int(match.group(1)))
    return sorted(generations)


def save_snapshot(
    directory: PathLike,
    payload: dict,
    *,
    generation: Optional[int] = None,
    keep: int = DEFAULT_KEEP,
) -> Path:
    """Atomically write ``payload`` as the next snapshot generation.

    Args:
        directory: checkpoint directory (created if missing).
        payload: JSON-serialisable snapshot (see ``PFuzzer.snapshot``).
        generation: explicit generation number; default is latest + 1.
        keep: retain this many newest generations, delete the rest.

    Returns:
        the path of the written checkpoint file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing = list_generations(directory)
    if generation is None:
        generation = (existing[-1] + 1) if existing else 1
    canonical = _canonical_payload(payload)
    header = _canonical_payload(
        {
            "checksum": _payload_checksum(canonical.encode("ascii")),
            "generation": generation,
            "magic": MAGIC,
            "version": FORMAT_VERSION,
        }
    )
    target = atomic_write_text(
        _generation_path(directory, generation), f"{header}\n{canonical}\n"
    )
    for old in existing:
        if old <= generation - keep:
            try:
                _generation_path(directory, old).unlink()
            except OSError:  # pragma: no cover - raced deletion
                pass
    return target


def load_snapshot(path: PathLike) -> Tuple[int, dict]:
    """Load and verify one checkpoint file.

    Returns:
        ``(generation, payload)``.

    Raises:
        CheckpointError: the file is unreadable, not a checkpoint, from an
            unsupported format version, or fails its checksum (truncated,
            corrupted or extended write).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from None
    first, _, rest = raw.partition(b"\n")
    header = _parse(path, first, "header")
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC} file")
    version = header.get("version")
    payload = None
    if version == FORMAT_VERSION:
        stored, _, tail = rest.partition(b"\n")
    elif version == _FORMAT_1:
        # The first line is the whole envelope, payload included.
        payload, tail = header.get("payload"), rest
        if not isinstance(payload, dict):
            raise CheckpointError(f"{path}: missing payload")
        stored = _canonical_payload(payload).encode("ascii")
    else:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if tail:
        raise CheckpointError(f"{path}: trailing data after the payload")
    if _payload_checksum(stored) != header.get("checksum"):
        raise CheckpointError(f"{path}: checksum mismatch (truncated write?)")
    generation = header.get("generation")
    if not isinstance(generation, int):
        raise CheckpointError(f"{path}: missing generation number")
    if payload is None:
        payload = _parse(path, stored, "payload")
        if not isinstance(payload, dict):
            raise CheckpointError(f"{path}: missing payload")
    return generation, payload


def load_latest(
    directory: PathLike,
) -> Optional[Tuple[int, dict]]:
    """Newest *valid* snapshot in ``directory``, or None when there is none.

    Corrupt or truncated generations are skipped (never restored), falling
    back to the previous generation — the crash-safety contract for writes
    interrupted by SIGKILL or power loss.
    """
    directory = Path(directory)
    for generation in reversed(list_generations(directory)):
        try:
            return load_snapshot(_generation_path(directory, generation))
        except CheckpointError:
            continue
    return None


def purge(directory: PathLike) -> int:
    """Delete every checkpoint generation in ``directory``; returns count."""
    directory = Path(directory)
    removed = 0
    for generation in list_generations(directory):
        try:
            _generation_path(directory, generation).unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced deletion
            pass
    return removed


# --------------------------------------------------------------------- #
# Canonical campaign results
# --------------------------------------------------------------------- #


def result_fingerprint(result, arc_table: Optional[ArcTable] = None) -> str:
    """Canonical JSON form of a :class:`FuzzingResult` for equivalence tests.

    Everything the determinism contract covers — inputs, emit log, counters
    and coverage — with branches decoded to their stable tuple form (interned
    ids are process-local and therefore excluded).  Wall time, per-phase
    timings and the resume counter are excluded: they are the parts of a
    resumed campaign that legitimately differ from an uninterrupted one.
    """
    branches = sorted(
        repr(arc) for arc in (
            arc_table.decode(result.valid_branches)
            if arc_table is not None
            else result.valid_branches
        )
    )
    return json.dumps(
        {
            "valid_inputs": list(result.valid_inputs),
            "all_valid": list(result.all_valid),
            "executions": result.executions,
            "rejected": result.rejected,
            "hangs": result.hangs,
            "crashes": getattr(result, "crashes", 0),
            "crash_inputs": list(getattr(result, "crash_inputs", [])),
            "crash_signatures": [
                list(sig) for sig in getattr(result, "crash_signatures", [])
            ],
            "emit_log": [list(entry) for entry in result.emit_log],
            "valid_signatures": list(result.valid_signatures),
            "valid_lineage": list(getattr(result, "valid_lineage", [])),
            "valid_branches": branches,
            "queue_depth": result.queue_depth,
        },
        sort_keys=True,
        ensure_ascii=True,
    )
