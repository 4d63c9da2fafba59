"""Self-verifying checkpoint generations: digests, rollback, and fsck.

Unit coverage for the storage-hardened :class:`CheckpointStore`: the
``checkpoint.<gen>.npz`` layout (magic + body SHA-256 + npz body),
keep-N pruning, whole-file integrity (every flipped byte and every
truncation is caught), quarantine-and-rollback on corruption, loads
racing a live writer, the failed-write cleanup guarantees, and the
``verify [--repair]`` CLI.  Campaign-level recovery (byte-identity
under fault plans) lives in ``test_storage_chaos.py``.
"""

import json
import math
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrator.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruption,
    CheckpointStore,
    _sanitize_floats,
)
from repro.orchestrator.cli import main
from repro.orchestrator.storage_faults import FsFaultPlan, flip_byte


def _save_n(store, n, start=0):
    """n deterministic saves; the manifest carries its ordinal."""
    for i in range(start, start + n):
        store.save(
            {"spec": {}, "ordinal": i}, {"mask": np.arange(6) + i}
        )


# ---------------------------------------------------------------------------
# Generation layout
# ---------------------------------------------------------------------------


class TestGenerations:
    def test_every_save_promotes_a_new_generation(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=4)
        _save_n(store, 3)
        assert [g for g, _ in store.generation_files()] == [1, 2, 3]
        # The generation files are the whole record: no side index.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.1.npz", "checkpoint.2.npz", "checkpoint.3.npz",
        ]

    def test_keep_window_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        _save_n(store, 5)
        assert [g for g, _ in store.generation_files()] == [4, 5]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.4.npz", "checkpoint.5.npz",
        ]

    def test_keep_env_knob_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_KEEP", "3")
        store = CheckpointStore(tmp_path)
        assert store.keep == 3
        _save_n(store, 4)
        assert [g for g, _ in store.generation_files()] == [2, 3, 4]

    def test_keep_one_restores_single_checkpoint_behaviour(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, keep=1)
        _save_n(store, 3)
        assert [g for g, _ in store.generation_files()] == [3]

    def test_checkpoint_path_tracks_the_latest_generation(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, keep=2)
        assert store.checkpoint_path is None
        _save_n(store, 2)
        assert store.checkpoint_path == store.generation_path(2)

    def test_save_round_trips_manifest_and_arrays(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _save_n(store, 1)
        manifest, arrays = store.load()
        assert manifest == {
            "spec": {}, "ordinal": 0, "version": CHECKPOINT_VERSION,
        }
        assert list(arrays) == ["mask"]
        assert np.array_equal(arrays["mask"], np.arange(6))

    def test_one_save_issues_two_fsyncs(self, tmp_path, monkeypatch):
        # The generation file and its directory; nothing else.
        store = CheckpointStore(tmp_path, keep=2)
        _save_n(store, 2)  # a save that also prunes costs the same
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(
            "repro.orchestrator.checkpoint.os.fsync", counting_fsync
        )
        _save_n(store, 1, start=2)
        assert len(calls) == 2
        assert [g for g, _ in store.generation_files()] == [2, 3]

    def test_failed_save_consumes_no_generation_number(self, tmp_path):
        store = CheckpointStore(
            tmp_path, keep=4, fault_plan=FsFaultPlan.parse("enospc@save-1")
        )
        _save_n(store, 1)
        with pytest.raises(OSError):
            _save_n(store, 1, start=1)
        _save_n(store, 1, start=1)
        assert [g for g, _ in store.generation_files()] == [1, 2]
        manifest, _ = store.load()
        assert manifest["ordinal"] == 1

    def test_numbering_continues_across_reopen(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        reopened = CheckpointStore(tmp_path, keep=2)
        _save_n(reopened, 1, start=2)
        assert [g for g, _ in reopened.generation_files()] == [2, 3]


# ---------------------------------------------------------------------------
# Verification, quarantine, rollback
# ---------------------------------------------------------------------------


class TestRollback:
    def test_bitrot_quarantines_and_rolls_back(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=3), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=3)
        manifest, arrays = store.load()
        assert manifest["ordinal"] == 1  # gen 2 holds the 2nd save
        assert np.array_equal(arrays["mask"], np.arange(6) + 1)
        assert (store.quarantine_dir / "checkpoint.3.npz").exists()
        assert not (tmp_path / "checkpoint.3.npz").exists()
        types = [i["type"] for i in store.incidents]
        assert types == ["checkpoint.corrupt", "checkpoint.rollback"]
        rollback = store.incidents[-1]
        assert rollback["from_gen"] == 3 and rollback["to_gen"] == 2
        assert store.checkpoint_path == store.generation_path(2)

    def test_next_save_after_rollback_reuses_the_generation(
        self, tmp_path
    ):
        _save_n(CheckpointStore(tmp_path, keep=3), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=3)
        store.load()
        _save_n(store, 1, start=2)  # replays the lost 3rd save
        assert store.checkpoint_path == store.generation_path(3)
        assert store.verify_generation(store.generation_path(3)) is None

    def test_truncation_caught_by_journaled_size(self, tmp_path):
        # The header records the body digest; a tear fails it.
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        path = tmp_path / "checkpoint.2.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store = CheckpointStore(tmp_path, keep=2)
        manifest, _ = store.load()
        assert manifest["ordinal"] == 0
        reason = store.incidents[0]["reason"]
        assert "size" in reason or "sha256" in reason

    def test_all_generations_corrupt_raises(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        flip_byte(tmp_path / "checkpoint.1.npz")
        flip_byte(tmp_path / "checkpoint.2.npz")
        store = CheckpointStore(tmp_path, keep=2)
        with pytest.raises(CheckpointCorruption, match="verify"):
            store.load()
        # Both files held for inspection, not deleted.
        held = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert held == ["checkpoint.1.npz", "checkpoint.2.npz"]

    def test_load_racing_a_pruning_writer_lists_again(self, tmp_path):
        # Regression: a live reader (`status --follow`) lists gens 1-2,
        # then the writer saves twice and prunes both before the reader
        # reads them.  Vanished files are not corruption: list again.
        writer = CheckpointStore(tmp_path, keep=2)
        _save_n(writer, 2)
        reader = CheckpointStore(tmp_path, keep=2)
        read = reader._read_generation
        calls = []

        def racing_read(path):
            if not calls:
                _save_n(writer, 2, start=2)
            calls.append(path.name)
            return read(path)

        reader._read_generation = racing_read
        manifest, arrays = reader.load()
        assert manifest["ordinal"] == 3
        assert np.array_equal(arrays["mask"], np.arange(6) + 3)
        assert calls == ["checkpoint.2.npz", "checkpoint.4.npz"]
        assert reader.incidents == []
        assert not reader.quarantine_dir.exists()

    def test_corruption_error_counts_only_files_moved(self, tmp_path):
        # Both generations are corrupt, but gen 1 vanishes before it
        # can be quarantined: the error must not claim it was moved.
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        flip_byte(tmp_path / "checkpoint.1.npz")
        flip_byte(tmp_path / "checkpoint.2.npz")
        store = CheckpointStore(tmp_path, keep=2)
        read = store._read_generation

        def read_then_vanish(path):
            try:
                return read(path)
            finally:
                if path.name == "checkpoint.1.npz":
                    path.unlink()

        store._read_generation = read_then_vanish
        with pytest.raises(
            CheckpointCorruption, match=r"\(1 file\(s\) moved"
        ):
            store.load()
        held = [p.name for p in store.quarantine_dir.iterdir()]
        assert held == ["checkpoint.2.npz"]

    def test_version_mismatch_is_an_error_not_corruption(
        self, tmp_path
    ):
        # A schema-version skew is a code/state mismatch: it must raise
        # plainly, never quarantine the (intact) file.
        path = tmp_path / "checkpoint.1.npz"
        np.savez_compressed(
            path, manifest=json.dumps({"version": 999})
        )
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="version"):
            store.load()
        assert path.exists()
        assert not store.quarantine_dir.exists()


# ---------------------------------------------------------------------------
# Satellites: clear() drops status, failed writes clean up, spec errors
# ---------------------------------------------------------------------------


class TestClear:
    def test_clear_drops_status_journal_and_quarantine(self, tmp_path):
        # Regression: clear() used to leave status.json behind, so
        # `run --fresh` served a stale document from the old campaign.
        _save_n(CheckpointStore(tmp_path, keep=2), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=2)
        store.load()  # populates quarantine/
        store.write_status({"finished": True})
        store.write_progress({"finished": True})
        store.clear()
        assert not store.has_checkpoint()
        assert not store.status_path.exists()
        assert not store.progress_path.exists()
        assert not store.quarantine_dir.exists()
        assert list(tmp_path.iterdir()) == []


class TestFailedWriteCleanup:
    def test_failed_save_leaves_no_tmp(self, tmp_path):
        store = CheckpointStore(
            tmp_path, fault_plan=FsFaultPlan.parse("enospc@save-0")
        )
        with pytest.raises(OSError):
            _save_n(store, 1)
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_json_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        # An fsync EIO (dying disk) mid-_write_json must unlink its own
        # tmp instead of waiting for the next store open to sweep it.
        store = CheckpointStore(tmp_path)

        def dying_fsync(fd):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(
            "repro.orchestrator.checkpoint.os.fsync", dying_fsync
        )
        with pytest.raises(OSError):
            store.write_status({"finished": False})
        assert list(tmp_path.glob("*.tmp*")) == []


class TestReadSpec:
    def test_corrupt_spec_is_a_clear_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.spec_path.write_text('{"name": "camp"')  # truncated
        with pytest.raises(ValueError) as excinfo:
            store.read_spec()
        message = str(excinfo.value)
        assert "campaign.json" in message
        assert "plan" in message and "verify" in message


# ---------------------------------------------------------------------------
# The verify CLI (fsck)
# ---------------------------------------------------------------------------


def _planned_store(tmp_path) -> CheckpointStore:
    from repro.orchestrator.campaign import CampaignSpec

    store = CheckpointStore(tmp_path, keep=2)
    store.write_spec(CampaignSpec(executor="serial").resolved().to_dict())
    return store


class TestVerifyCLI:
    def test_healthy_store_exits_zero(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        store.write_status({"finished": True})
        assert main(["verify", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr()
        assert "FAIL" not in out.out
        assert "all artifacts verify" in out.err

    def test_corruption_reports_per_artifact_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        flip_byte(tmp_path / "checkpoint.2.npz")
        (tmp_path / "status.json").write_text("{")
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  checkpoint.2.npz" in out
        assert "FAIL  status.json" in out
        assert "ok    checkpoint.1.npz" in out
        # Report-only: nothing was moved or deleted.
        assert (tmp_path / "checkpoint.2.npz").exists()
        assert (tmp_path / "status.json").exists()

    def test_repair_quarantines_and_subsequent_verify_is_clean(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        flip_byte(tmp_path / "checkpoint.2.npz")
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 1
        assert (
            tmp_path / "quarantine" / "checkpoint.2.npz"
        ).exists()
        assert store.checkpoint_path == store.generation_path(1)
        capsys.readouterr()
        assert main(["verify", "--dir", str(tmp_path)]) == 0

    def test_strays_reported_and_removed_on_repair(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 1)
        (tmp_path / "checkpoint.9.tmp.npz").write_bytes(b"torn")
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        assert "checkpoint.9.tmp.npz" in capsys.readouterr().out
        assert (tmp_path / "checkpoint.9.tmp.npz").exists()
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 1
        assert not (tmp_path / "checkpoint.9.tmp.npz").exists()
        capsys.readouterr()
        assert main(["verify", "--dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["verify", "status"])
    def test_missing_directory_fails_and_creates_nothing(
        self, tmp_path, capsys, command
    ):
        # Regression: opening the store used to mkdir the directory, so
        # a typo'd --dir left an empty campaign directory behind.
        assert main([command, "--dir", str(tmp_path / "typo" / "x")]) != 0
        assert list(tmp_path.iterdir()) == []

    def test_json_findings_are_machine_readable(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 1)
        assert main(["verify", "--dir", str(tmp_path), "--json"]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert isinstance(findings, list)
        assert {"artifact", "ok", "detail", "repaired"} == set(
            findings[0]
        )


# ---------------------------------------------------------------------------
# Whole-file integrity: Hypothesis properties
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _two_generations() -> tuple[bytes, bytes]:
    """The bytes of gens 1 and 2 of a keep=2 store (built once)."""
    with tempfile.TemporaryDirectory() as directory:
        store = CheckpointStore(directory, keep=2)
        _save_n(store, 2)
        return tuple(
            path.read_bytes() for _, path in store.generation_files()
        )


def _assert_rolls_back_past(damaged: bytes) -> None:
    """A keep=2 store whose newest generation is ``damaged`` loads gen
    1 intact and holds the damaged bytes in quarantine."""
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        (directory / "checkpoint.1.npz").write_bytes(_two_generations()[0])
        (directory / "checkpoint.2.npz").write_bytes(damaged)
        store = CheckpointStore(directory, keep=2)
        manifest, arrays = store.load()
        assert manifest == {
            "spec": {}, "ordinal": 0, "version": CHECKPOINT_VERSION,
        }
        assert list(arrays) == ["mask"]
        assert np.array_equal(arrays["mask"], np.arange(6))
        held = store.quarantine_dir / "checkpoint.2.npz"
        assert [p.name for p in store.quarantine_dir.iterdir()] == [
            held.name
        ]
        assert held.read_bytes() == damaged
        assert [i["type"] for i in store.incidents] == [
            "checkpoint.corrupt", "checkpoint.rollback",
        ]


class TestWholeFileIntegrity:
    @settings(deadline=None)
    @given(st.data())
    def test_any_changed_byte_quarantines_and_rolls_back(self, data):
        newest = bytearray(_two_generations()[1])
        offset = data.draw(st.integers(0, len(newest) - 1), label="offset")
        newest[offset] ^= data.draw(st.integers(1, 255), label="xor")
        _assert_rolls_back_past(bytes(newest))

    @settings(deadline=None)
    @given(st.data())
    def test_any_truncation_quarantines_and_rolls_back(self, data):
        newest = _two_generations()[1]
        length = data.draw(st.integers(0, len(newest) - 1), label="length")
        _assert_rolls_back_past(newest[:length])


# ---------------------------------------------------------------------------
# _sanitize_floats: Hypothesis property
# ---------------------------------------------------------------------------


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
)
_nested = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=25,
)


def _reference_transform(value):
    """Independent spec of the sanitizer, for equality checking."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _reference_transform(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_transform(v) for v in value]
    return value


def _contains_tuple(value) -> bool:
    if isinstance(value, tuple):
        return True
    if isinstance(value, dict):
        return any(_contains_tuple(v) for v in value.values())
    if isinstance(value, list):
        return any(_contains_tuple(v) for v in value)
    return False


class TestSanitizeFloats:
    @given(_nested)
    def test_output_is_strict_json_and_preserves_structure(self, value):
        out = _sanitize_floats(value)
        # Strict JSON: allow_nan=False must not raise, and the text
        # must round-trip without the Infinity/NaN constant tokens.
        text = json.dumps(out, allow_nan=False)
        assert json.loads(text) == out
        # Finite values and structure preserved; non-finite -> None;
        # tuples -> lists is the one intended shape change (pinned
        # below), which the reference transform also applies.
        assert out == _reference_transform(value)
        assert not _contains_tuple(out)

    def test_tuples_become_lists_pinned(self):
        assert _sanitize_floats((1, 2)) == [1, 2]
        assert _sanitize_floats({"t": (1, (2.5, None))}) == {
            "t": [1, [2.5, None]]
        }
