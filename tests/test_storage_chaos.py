"""Storage chaos: campaigns under ``REPRO_FS_FAULT_PLAN`` recover
byte-identically.

The acceptance bar from the storage-hardening work: under every fault
kind — torn_write, bitrot, enospc, fsync_fail, rename_crash — a
campaign that is faulted (and, where the fault is fatal or silent,
killed and resumed) recovers via save-retry, tmp sweep, or
quarantine-and-rollback, and its final checkpoint generations, status
JSON, and wave accounting are byte-identical to an unfaulted serial
run.  Also covers the ``FsFaultPlan`` syntax and the incident →
trace-event pipeline.
"""

import json

import numpy as np
import pytest

from conftest import build_mini_dataset
from repro.env import fs_fault_plan
from repro.orchestrator import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    ReseedPolicy,
)
from repro.orchestrator.storage_faults import (
    FsFaultPlan,
    FsFaultSpec,
    SimulatedCrash,
)

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)
# 2 waves x (3 shard + 1 wave-boundary) checkpoints + the final one.
N_SAVES = 9


class _Killed(RuntimeError):
    """Raised by the checkpoint hook to simulate a kill at a boundary."""


@pytest.fixture(autouse=True)
def _no_plan_leak(monkeypatch):
    monkeypatch.delenv("REPRO_FS_FAULT_PLAN", raising=False)
    monkeypatch.delenv("REPRO_CKPT_KEEP", raising=False)
    # Save-retry backoff is wall-clock-only; don't sleep in tests.
    monkeypatch.setattr(
        "repro.orchestrator.campaign._retry_sleep", lambda _: None
    )


def _run(directory, on_checkpoint=None):
    runner = CampaignRunner(
        SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    return runner.run(on_checkpoint=on_checkpoint)


def _resume(directory):
    return CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    ).run()


def _final_bytes(directory):
    """The deterministic artifacts: generation files + status."""
    generations = {
        gen: path.read_bytes()
        for gen, path in CheckpointStore(directory).generation_files()
    }
    return generations, (directory / "status.json").read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference")
    status = _run(directory)
    assert status["finished"] is True
    return _final_bytes(directory)


def _assert_identical(directory, reference):
    generations, status = _final_bytes(directory)
    ref_generations, ref_status = reference
    assert status == ref_status
    assert generations == ref_generations


def _kill_at(n):
    seen = [0]

    def hook(_):
        seen[0] += 1
        if seen[0] == n:
            raise _Killed()

    return hook


# ---------------------------------------------------------------------------
# Recovery per fault kind
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_enospc_and_fsync_fail_are_retried_in_process(
        self, tmp_path, monkeypatch, reference
    ):
        # Clean OSError saves: the campaign's bounded save-retry
        # absorbs them without losing a generation number.
        monkeypatch.setenv(
            "REPRO_FS_FAULT_PLAN", "enospc@save-1,fsync_fail@save-4"
        )
        status = _run(tmp_path)
        assert status["finished"] is True
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        _assert_identical(tmp_path, reference)

    def test_save_retry_exhaustion_propagates(
        self, tmp_path, monkeypatch, reference
    ):
        # Three consecutive failures of the same checkpoint exhaust
        # the retry budget; the previous generation stays the durable
        # resume point and a clean-disk resume completes identically.
        monkeypatch.setenv(
            "REPRO_FS_FAULT_PLAN",
            "enospc@save-1,enospc@save-2,enospc@save-3",
        )
        with pytest.raises(OSError):
            _run(tmp_path)
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        status = _resume(tmp_path)
        assert status["finished"] is True
        _assert_identical(tmp_path, reference)

    def test_torn_write_rolls_back_on_resume(
        self, tmp_path, monkeypatch, reference
    ):
        # The tear is silent at save time (the rename promotes a
        # truncated payload) — the header's body digest catches it at
        # the next load, which quarantines gen 3 and rolls back to gen 2.
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "torn_write@save-2")
        with pytest.raises(_Killed):
            _run(tmp_path, on_checkpoint=_kill_at(3))
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        status = _resume(tmp_path)
        assert status["finished"] is True
        assert (tmp_path / "quarantine" / "checkpoint.3.npz").exists()
        _assert_identical(tmp_path, reference)

    def test_bitrot_rolls_back_on_resume(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "bitrot@gen-3")
        with pytest.raises(_Killed):
            _run(tmp_path, on_checkpoint=_kill_at(3))
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        status = _resume(tmp_path)
        assert status["finished"] is True
        assert (tmp_path / "quarantine" / "checkpoint.3.npz").exists()
        _assert_identical(tmp_path, reference)

    def test_rename_crash_sweeps_and_resumes(
        self, tmp_path, monkeypatch, reference
    ):
        # The "process dies at the promote rename" fault: the tmp file
        # is deliberately left behind (real crash semantics) and the
        # generation was never promoted.
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "rename_crash@save-2")
        with pytest.raises(SimulatedCrash):
            _run(tmp_path)
        assert list(tmp_path.glob("*.tmp.npz")), "crash leaves its tmp"
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        status = _resume(tmp_path)
        assert status["finished"] is True
        assert not list(tmp_path.glob("*.tmp*"))
        _assert_identical(tmp_path, reference)

    def test_rot_in_a_pruned_generation_never_surfaces(
        self, tmp_path, monkeypatch, reference
    ):
        # Corruption of an *older* generation while the campaign
        # marches on: the newest generations stay intact, the rotted
        # one ages out of the keep window, and the final directory is
        # still byte-identical.
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "bitrot@gen-2")
        status = _run(tmp_path)
        assert status["finished"] is True
        monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
        _assert_identical(tmp_path, reference)


# ---------------------------------------------------------------------------
# Incidents surface as trace events
# ---------------------------------------------------------------------------


def test_rollback_incidents_surface_as_obs_events(
    tmp_path, monkeypatch
):
    from repro.obs.schema import validate_file

    monkeypatch.setenv("REPRO_OBS", "events")
    monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "bitrot@gen-3")
    with pytest.raises(_Killed):
        _run(tmp_path, on_checkpoint=_kill_at(3))
    monkeypatch.delenv("REPRO_FS_FAULT_PLAN")
    assert _resume(tmp_path)["finished"] is True
    path = tmp_path / "events.jsonl"
    assert validate_file(path) == []
    types = [
        json.loads(line)["type"]
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    assert "storage.fault_fired" in types  # the faulted run
    assert "checkpoint.corrupt" in types  # detected at resume
    assert "checkpoint.rollback" in types


# ---------------------------------------------------------------------------
# FsFaultPlan syntax
# ---------------------------------------------------------------------------


class TestFsFaultPlan:
    def test_parse_roundtrip(self):
        text = "torn_write@save-2,bitrot@gen-3:offset=17,enospc@save-0"
        plan = FsFaultPlan.parse(text)
        assert len(plan) == 3
        assert plan.to_string() == text
        assert FsFaultPlan.parse(plan.to_string()) == plan

    def test_separators_and_whitespace(self):
        plan = FsFaultPlan.parse(" enospc@save-1 ; bitrot@gen-2 ,")
        assert [s.kind for s in plan.specs] == ["enospc", "bitrot"]

    def test_empty_plan_is_falsy(self):
        assert not FsFaultPlan.parse(None)
        assert not FsFaultPlan.parse("  ")
        assert FsFaultPlan.parse("enospc@save-0")

    def test_queries_first_match_wins(self):
        plan = FsFaultPlan.parse("enospc@save-1,fsync_fail@save-1")
        assert plan.save_fault(1).kind == "enospc"
        assert plan.save_fault(0) is None
        assert FsFaultPlan.parse("bitrot@gen-2").gen_fault(2).kind == (
            "bitrot"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "melt@save-1",          # unknown kind
            "enospc",               # no site
            "enospc@shard-1",       # unknown site
            "enospc@save-x",        # non-integer position
            "enospc@save--1",       # negative position
            "bitrot@save-1",        # bitrot fires at gen sites
            "torn_write@gen-1",     # save kinds fire at save sites
            "bitrot@gen-0",         # generations are 1-based
            "enospc@save-1:offset=3",  # offset is bitrot-only
            "bitrot@gen-1:depth=3",    # unknown option
        ],
    )
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            FsFaultPlan.parse(bad)

    def test_spec_validation_direct(self):
        with pytest.raises(ValueError, match="offset"):
            FsFaultSpec(kind="bitrot", site="gen", index=1, offset=-1)

    def test_env_knob_parses_and_names_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "enospc@save-2")
        assert fs_fault_plan().save_fault(2).kind == "enospc"
        monkeypatch.setenv("REPRO_FS_FAULT_PLAN", "bogus@save-2")
        with pytest.raises(ValueError, match="REPRO_FS_FAULT_PLAN"):
            fs_fault_plan()
        plan = FsFaultPlan.parse("bitrot@gen-1")
        assert fs_fault_plan(plan) is plan
        with pytest.raises(ValueError, match="argument"):
            fs_fault_plan("nope@save-1")


def test_store_numbering_deterministic_under_faulted_history(
    tmp_path, monkeypatch
):
    """A faulted+killed+resumed store ends with the same generation
    numbers and bytes as an unfaulted store (the smoke-test invariant,
    in miniature, without a campaign)."""
    clean = tmp_path / "clean"
    store = CheckpointStore(clean, keep=2)
    for i in range(4):
        store.save({"spec": {}, "i": i}, {"mask": np.arange(4) + i})
    faulted = tmp_path / "faulted"
    store = CheckpointStore(
        faulted,
        keep=2,
        fault_plan=FsFaultPlan.parse("enospc@save-1,bitrot@gen-3"),
    )
    for i in range(3):
        try:
            store.save({"spec": {}, "i": i}, {"mask": np.arange(4) + i})
        except OSError:
            store.save({"spec": {}, "i": i}, {"mask": np.arange(4) + i})
    # "Kill": reopen; load rolls back past the rotted gen 3.
    store = CheckpointStore(faulted, keep=2)
    manifest, _ = store.load()
    assert manifest["i"] == 1
    for i in range(2, 4):
        store.save({"spec": {}, "i": i}, {"mask": np.arange(4) + i})
    names = lambda d: sorted(
        p.name for p in d.glob("checkpoint.*.npz")
    )
    assert names(faulted) == names(clean)
    for name in names(clean):
        assert (faulted / name).read_bytes() == (
            clean / name
        ).read_bytes()
