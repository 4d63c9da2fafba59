"""The fused flat-coordinate scan kernel against the address path.

A bare v4 :class:`IntervalTargets` shard is counted by the engine in
its walk's flat coordinates; every other stream maps each batch to
addresses first.  The address path is the reference: running the engine
over a stream that only yields ``IntervalTargets.batches()`` must give
the same four :class:`ScanResult` counters, and the same ``engine.*``
metrics, as the kernel — including flat blocked intervals, which no
announced-space campaign reaches.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset
from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.orchestrator import CampaignRunner, CampaignSpec
from repro.scan import engine as engine_mod
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.permutation import _group_params
from repro.scan.sharded import IntervalTargets, shard_targets

ENGINE_METRICS = (
    "engine.batches",
    "engine.probes_sent",
    "engine.responses",
    "engine.blocked",
)


class _AddressStream:
    """Hides the flat layout: the engine sees address batches only."""

    def __init__(self, targets):
        self.targets = targets

    def batches(self, batch_size):
        return self.targets.batches(batch_size)


def _counters(result):
    return (
        result.probes_sent, result.responses, result.blocked, result.batches
    )


@st.composite
def scans(draw):
    """(starts, ends, truth, blocklist or None) over a small v4 space."""
    base = draw(st.integers(0, 1 << 20))
    starts, ends = [], []
    cursor = base
    for _ in range(draw(st.integers(1, 6))):
        cursor += draw(st.sampled_from([0, 0, 1, 13, 200]))  # 0: abutting
        size = draw(st.sampled_from([0, 1, 2, 7, 64, 300]))  # 0: zero-size
        starts.append(cursor)
        ends.append(cursor + size)
        cursor += size
    if draw(st.booleans()):
        # A dense walk: grow the last interval until the flat space is
        # p - 1 for its group prime p, the no-filter walk branch.
        total = sum(e - s for s, e in zip(starts, ends))
        grow = _group_params(max(total, 1))[0] - 1 - total
        ends[-1] += grow
    hi = ends[-1] + 20
    anchors = st.sampled_from(starts + [e - 1 for e in ends if e > 0])
    truth = draw(
        st.lists(
            st.one_of(anchors, st.integers(max(0, base - 20), hi)),
            max_size=80,
        )
    )
    blocks = draw(
        st.lists(
            st.tuples(
                st.one_of(anchors, st.integers(max(0, base - 20), hi)),
                st.integers(1, 400),
            ),
            max_size=4,
        )
    )
    blocklist = None
    if blocks:
        blocklist = Blocklist(
            [lo for lo, _ in blocks], [lo + width for lo, width in blocks]
        )
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        np.asarray(truth, dtype=np.int64),
        blocklist,
    )


@settings(max_examples=150, deadline=None)
@given(
    scans(),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([1, 7, 4096]),
    st.integers(0, 1 << 16),
)
def test_kernel_matches_address_path(scan, shards, batch_size, seed):
    starts, ends, truth, blocklist = scan
    engine = ScanEngine(EngineConfig(batch_size=batch_size), blocklist)
    for shard in shard_targets((starts, ends), shards=shards, seed=seed):
        got = engine.run(shard, truth)
        want = engine.run(_AddressStream(shard), truth)
        assert _counters(got) == _counters(want)


def test_kernel_covers_blocked_intervals():
    """A blocklist over part of the target space: the flat blocked
    ranges, not a per-probe address mask, account for every probe."""
    starts = np.array([100, 500, 900], dtype=np.int64)
    ends = np.array([400, 700, 1000], dtype=np.int64)
    blocklist = Blocklist([350, 480, 950], [520, 600, 960])
    truth = np.arange(0, 1100, 3, dtype=np.int64)
    engine = ScanEngine(EngineConfig(batch_size=64), blocklist)
    total = [0, 0, 0]
    for shard in shard_targets((starts, ends), shards=3, seed=9):
        got = engine.run(shard, truth)
        want = engine.run(_AddressStream(shard), truth)
        assert _counters(got) == _counters(want)
        total = [t + v for t, v in zip(total, _counters(got)[:3])]
    blocked = 50 + 100 + 10
    assert total[2] == blocked
    assert total[0] == 300 + 200 + 100 - blocked
    covered = np.zeros(1100, dtype=bool)
    for s, e in zip(starts, ends):
        covered[s:e] = True
    covered &= ~blocklist.blocked_mask(np.arange(1100))
    assert total[1] == int(covered[truth].sum())


def test_kernel_never_maps_addresses(monkeypatch):
    """The v4 kernel pulls the walk itself: ``batches()`` is not called,
    while a wrapper that hides the layout still goes through it."""
    shard = IntervalTargets(
        ([0, 1000], [600, 5000]), seed=3, shard=1, shards=2
    )

    def forbidden(self, batch_size=1 << 16):
        raise AssertionError("address map called on the kernel path")

    expected = ScanEngine().run(_AddressStream(shard), np.arange(0, 5000, 7))
    monkeypatch.setattr(IntervalTargets, "batches", forbidden)
    got = ScanEngine().run(shard, np.arange(0, 5000, 7))
    assert _counters(got) == _counters(expected)
    with pytest.raises(AssertionError):
        ScanEngine().run(_AddressStream(shard), np.arange(0, 5000, 7))


def test_oversized_flat_space_takes_address_path(monkeypatch):
    """Past the bitmap size cap the address path counts the shard."""
    shard = IntervalTargets(([0], [4000]), seed=1)
    truth = np.arange(0, 4000, 11)
    expected = _counters(ScanEngine().run(shard, truth))
    calls = []
    real = IntervalTargets.batches

    def spy(self, batch_size=1 << 16):
        calls.append(batch_size)
        return real(self, batch_size)

    monkeypatch.setattr(IntervalTargets, "batches", spy)
    monkeypatch.setattr(engine_mod, "_FLAT_MAX_COORDS", 3999)
    assert _counters(ScanEngine().run(shard, truth)) == expected
    assert calls


def test_registry_counters_match_address_path():
    """``engine.*`` metrics are identical whichever path counted."""
    starts = np.array([0, 300, 2000], dtype=np.int64)
    ends = np.array([250, 1500, 2600], dtype=np.int64)
    blocklist = Blocklist([200, 1400], [320, 2100])
    truth = np.arange(0, 3000, 5, dtype=np.int64)
    engine = ScanEngine(EngineConfig(batch_size=100), blocklist)
    snapshots = []
    for wrap in (lambda shard: shard, _AddressStream):
        registry = MetricsRegistry()
        with obs.observe(registry=registry):
            for shard in shard_targets((starts, ends), shards=3, seed=4):
                engine.run(wrap(shard), truth)
        snapshot = registry.snapshot()
        snapshots.append({k: snapshot[k] for k in ENGINE_METRICS})
    assert snapshots[0]["engine.blocked"]["value"] > 0
    assert snapshots[0] == snapshots[1]


def test_campaign_metrics_match_paced_address_path(tmp_path, monkeypatch):
    """Under ``REPRO_OBS=full`` an unpaced campaign (kernel) and a paced
    one (address path, through the pacing wrapper) write the same
    ``engine.*`` counters and the same status."""
    monkeypatch.setenv("REPRO_OBS", "full")
    outputs = []
    for name, rate in (("kernel", None), ("paced", 1e12)):
        spec = CampaignSpec(
            preset="mini",
            waves=2,
            phi=0.9,
            shards=3,
            executor="serial",
            batch_size=1 << 12,
            use_blocklist=True,
            probes_per_sec=rate,
        )
        directory = tmp_path / name
        runner = CampaignRunner(
            spec, dataset=build_mini_dataset(), directory=directory
        )
        runner.run()
        metrics = json.loads((directory / "metrics.json").read_text())
        status = json.loads((directory / "status.json").read_text())
        outputs.append(
            ({k: metrics[k] for k in ENGINE_METRICS}, status["waves"])
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][0]["engine.probes_sent"]["value"] > 0
