"""Checkpoint envelope: atomic writes, retention, corruption fallback."""

import json
import os

import pytest

from repro.eval.checkpoint import (
    DEFAULT_KEEP,
    FORMAT_VERSION,
    MAGIC,
    ArcUnpacker,
    CheckpointError,
    list_generations,
    load_latest,
    load_snapshot,
    pack_arc_ids,
    purge,
    result_fingerprint,
    save_snapshot,
)
from repro.runtime.arcs import ArcTable


PAYLOAD = {"executions": 42, "queue": {"entries": [], "counter": 7}}


def _generation_path(directory, generation):
    return directory / f"ckpt-{generation:08d}.json"


def _read_lines(path):
    """A format-2 file's header and payload, each parsed."""
    header, payload = path.read_text().splitlines()
    return json.loads(header), json.loads(payload)


def _write_lines(path, header, payload):
    """Write a header and a payload back in the format-2 layout."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text(f"{json.dumps(header)}\n{canonical}\n")


# --------------------------------------------------------------------- #
# Envelope round-trip
# --------------------------------------------------------------------- #


def test_save_then_load_round_trips(tmp_path):
    path = save_snapshot(tmp_path, PAYLOAD)
    generation, payload = load_snapshot(path)
    assert generation == 1
    assert payload == PAYLOAD


def test_generations_increment_and_load_latest_wins(tmp_path):
    save_snapshot(tmp_path, {"n": 1}, keep=10)
    save_snapshot(tmp_path, {"n": 2}, keep=10)
    save_snapshot(tmp_path, {"n": 3}, keep=10)
    generation, payload = load_latest(tmp_path)
    assert generation == 3
    assert payload == {"n": 3}


def test_retention_deletes_old_generations(tmp_path):
    for n in range(5):
        save_snapshot(tmp_path, {"n": n}, keep=2)
    assert list_generations(tmp_path) == [4, 5]


def test_default_keep_retains_a_fallback_generation(tmp_path):
    assert DEFAULT_KEEP >= 2  # corruption fallback needs a predecessor
    for n in range(4):
        save_snapshot(tmp_path, {"n": n})
    assert len(list_generations(tmp_path)) == DEFAULT_KEEP


def test_no_temp_files_left_behind(tmp_path):
    save_snapshot(tmp_path, PAYLOAD)
    save_snapshot(tmp_path, PAYLOAD)
    names = os.listdir(tmp_path)
    assert all(name.startswith("ckpt-") for name in names)


def test_load_latest_empty_or_missing_directory(tmp_path):
    assert load_latest(tmp_path) is None
    assert load_latest(tmp_path / "never-created") is None


def test_purge_removes_all_generations(tmp_path):
    save_snapshot(tmp_path, PAYLOAD, keep=10)
    save_snapshot(tmp_path, PAYLOAD, keep=10)
    purge(tmp_path)
    assert list_generations(tmp_path) == []


# --------------------------------------------------------------------- #
# Corruption detection and fallback (crash safety)
# --------------------------------------------------------------------- #


def test_truncated_snapshot_is_rejected(tmp_path):
    path = save_snapshot(tmp_path, PAYLOAD)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_snapshot(path)


def test_tampered_payload_fails_checksum(tmp_path):
    path = save_snapshot(tmp_path, {"executions": 42})
    record, payload = _read_lines(path)
    payload["executions"] = 43
    _write_lines(path, record, payload)
    with pytest.raises(CheckpointError, match="checksum"):
        load_snapshot(path)


def test_wrong_magic_and_version_rejected(tmp_path):
    path = save_snapshot(tmp_path, PAYLOAD)
    record, payload = _read_lines(path)
    for key, value in (("magic", "other-tool"), ("version", FORMAT_VERSION + 1)):
        broken = dict(record)
        broken[key] = value
        _write_lines(path, broken, payload)
        with pytest.raises(CheckpointError):
            load_snapshot(path)
    assert MAGIC == "repro-checkpoint"


def test_rewritten_layout_loads_when_untampered(tmp_path):
    """The helpers above write a valid file, so the two tests above fail
    for the change they make, not for the rewrite."""
    path = save_snapshot(tmp_path, PAYLOAD)
    _write_lines(path, *_read_lines(path))
    assert load_snapshot(path) == (1, PAYLOAD)


def test_load_latest_falls_back_to_previous_valid_generation(tmp_path):
    save_snapshot(tmp_path, {"n": 1}, keep=10)
    save_snapshot(tmp_path, {"n": 2}, keep=10)
    newest = _generation_path(tmp_path, 2)
    newest.write_text(newest.read_text()[:40])  # simulated torn write
    generation, payload = load_latest(tmp_path)
    assert generation == 1
    assert payload == {"n": 1}


def test_load_latest_none_when_every_generation_is_corrupt(tmp_path):
    save_snapshot(tmp_path, {"n": 1})
    _generation_path(tmp_path, 1).write_text("garbage")
    assert load_latest(tmp_path) is None


# --------------------------------------------------------------------- #
# Arc packing
# --------------------------------------------------------------------- #


def test_pack_then_unpack_preserves_arc_sets():
    table = ArcTable()
    first = frozenset(table.intern(("f.py", 1, n)) for n in range(5))
    second = frozenset(table.intern(("f.py", 2, n)) for n in range(3, 8))
    arcs, mapping = pack_arc_ids([first, second], table)
    # The packed form survives a JSON round trip into a *different* table
    # with a different intern order.
    arcs = json.loads(json.dumps(arcs))
    other = ArcTable()
    other.intern(("unrelated.py", 9, 9))
    unpacker = ArcUnpacker(arcs, other)
    restored_first = unpacker.ids(sorted(mapping[a] for a in first))
    restored_second = unpacker.ids(sorted(mapping[a] for a in second))
    assert other.decode(restored_first) == table.decode(first)
    assert other.decode(restored_second) == table.decode(second)


# --------------------------------------------------------------------- #
# Result fingerprint
# --------------------------------------------------------------------- #


def test_result_fingerprint_ignores_timings_and_resume_counter():
    from repro.core.fuzzer import FuzzingResult

    base = FuzzingResult(valid_inputs=["a"], executions=10)
    noisy = FuzzingResult(
        valid_inputs=["a"],
        executions=10,
        wall_time=99.0,
        phase_times={"execute": 1.0},
        resumes=3,
    )
    assert result_fingerprint(base) == result_fingerprint(noisy)
    different = FuzzingResult(valid_inputs=["b"], executions=10)
    assert result_fingerprint(base) != result_fingerprint(different)
