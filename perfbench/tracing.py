"""In-memory spans around the calls into each layer, and layer metrics.

The traced run drives ``repro.orchestrator.cli.main`` in this process
with the public functions of every layer wrapped: each call — or, for
a generator, each ``next()`` — records a span ``(name, start, end,
parent)`` in a :class:`Recorder`, whose run id every span of one
campaign shares.  Nesting follows the call stack, so a generator step
is a child of the span that consumed it, and a span's self time is its
duration minus its children's.  ``os.fsync`` calls under checkpoint
spans are counted, with the size of each synced file.  Spans stay in
memory and are written out once the campaign ends.  Nothing under
``src/`` is modified: :func:`instrument` patches attributes for the
duration of a ``with`` block and restores them after.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
import statistics
import time
import uuid
from collections import Counter, defaultdict
from pathlib import Path

__all__ = [
    "Recorder",
    "instrument",
    "layer_metrics",
    "spawn_connect",
    "percentile",
    "tail_percentile",
]


class Recorder:
    """Spans of one traced campaign, plus counts at the same boundaries."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:16]
        #: ``[name, parent_index, start, end]`` per span, in begin order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        #: Latest cumulative stats frame per (coordinator, worker pid).
        self.worker_stats: dict = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def steps(self, name: str, iterator, count=None):
        """Re-yield ``iterator`` with one span per ``next()``."""
        it = iter(iterator)
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                if count is not None:
                    count(item)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                with self.span(name):
                    close()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "span": index,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _call(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _gen(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.steps(name, fn(*args, **kwargs), count)

    return wrapper


def _stream(rec: Recorder, fn):
    """``FrameStream.send``/``recv``: a codec span plus the bytes moved."""

    @functools.wraps(fn)
    def wrapper(self, *args):
        before = self.bytes_in, self.bytes_out
        try:
            with rec.span("distributed.codec"):
                return fn(self, *args)
        finally:
            rec.counts["distributed.bytes_in"] += self.bytes_in - before[0]
            rec.counts["distributed.bytes_out"] += self.bytes_out - before[1]

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap every layer boundary for the duration of the block."""
    import repro.census.loader as loader
    import repro.orchestrator.campaign as campaign
    import repro.scan.distributed as distributed
    import repro.scan.sharded as sharded
    from repro.bgp.table import RoutingTable
    from repro.core.tass import TassStrategy
    from repro.obs.events import Tracer
    from repro.obs.metrics import Counter as ObsCounter
    from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
    from repro.orchestrator.checkpoint import CheckpointStore
    from repro.scan.engine import ScanEngine
    from repro.scan.permutation import PermutationShard

    counts = rec.counts

    def engine_done(args, result):
        counts["engine.probes"] += result.probes_sent
        counts["engine.responses"] += result.responses

    def explored(args, result):
        counts["waves.explore_probes"] += int(result[0].size)

    def walked(values):
        counts["permutation.probes"] += int(values.size)

    def mapped(batch):
        counts["sharded.batches"] += 1

    def emitted(args, result):
        counts["obs.events"] += 1

    def stats_frame(args, result):
        coordinator, pid, stats = args
        if isinstance(stats, dict):
            rec.worker_stats[(id(coordinator), pid)] = (coordinator, stats)

    real_fsync = os.fsync

    def fsync(fd):
        if not rec.inside("checkpoint."):
            return real_fsync(fd)
        info = os.fstat(fd)
        counts["checkpoint.fsyncs"] += 1
        if stat.S_ISREG(info.st_mode):
            counts["checkpoint.bytes_written"] += info.st_size
        with rec.span("checkpoint.fsync"):
            return real_fsync(fd)

    patches = [
        (os, "fsync", fsync),
        (loader, "get_dataset", _call(rec, "census.load", loader.get_dataset)),
        (campaign, "run_sharded", _call(rec, "sharded.run", campaign.run_sharded)),
        (
            campaign,
            "explore_unselected",
            _call(rec, "waves.explore", campaign.explore_unselected, explored),
        ),
        (sharded, "shard_targets", _call(rec, "sharded.build", sharded.shard_targets)),
        (distributed, "encode_array", _call(rec, "distributed.codec", distributed.encode_array)),
        (distributed, "decode_array", _call(rec, "distributed.codec", distributed.decode_array)),
    ]
    methods = [
        (RoutingTable, "partition", "bgp.partition", None),
        (TassStrategy, "plan", "core.plan", None),
        (campaign.CampaignRunner, "__init__", "campaign.build", None),
        (campaign.CampaignRunner, "run", "campaign.run", None),
        (ScanEngine, "run", "engine.run", engine_done),
        (CheckpointStore, "save", "checkpoint.save", None),
        (CheckpointStore, "load", "checkpoint.load", None),
        (CheckpointStore, "write_spec", "checkpoint.docs", None),
        (CheckpointStore, "write_status", "checkpoint.docs", None),
        (CheckpointStore, "write_progress", "checkpoint.docs", None),
        (CheckpointStore, "write_metrics", "checkpoint.docs", None),
        (distributed.Coordinator, "_spawn", "distributed.spawn", None),
        (distributed.Coordinator, "_absorb_stats", "distributed.stats", stats_frame),
        (Tracer, "begin", "obs.emit", emitted),
        (Tracer, "end", "obs.emit", emitted),
        (Tracer, "point", "obs.emit", emitted),
        (MetricsRegistry, "counter", "obs.emit", None),
        (MetricsRegistry, "gauge", "obs.emit", None),
        (MetricsRegistry, "histogram", "obs.emit", None),
        (MetricsRegistry, "snapshot", "obs.emit", None),
        (ObsCounter, "inc", "obs.emit", None),
        (Gauge, "set", "obs.emit", None),
        (Histogram, "observe", "obs.emit", None),
    ]
    for owner, attr, name, after in methods:
        patches.append((owner, attr, _call(rec, name, owner.__dict__[attr], after)))
    patches += [
        (
            sharded.IntervalTargets,
            "batches",
            _gen(rec, "sharded.map", sharded.IntervalTargets.__dict__["batches"], mapped),
        ),
        (
            PermutationShard,
            "batches",
            _gen(rec, "permutation.walk", PermutationShard.__dict__["batches"], walked),
        ),
        (distributed.FrameStream, "send", _stream(rec, distributed.FrameStream.__dict__["send"])),
        (distributed.FrameStream, "recv", _stream(rec, distributed.FrameStream.__dict__["recv"])),
    ]
    get_executor = sharded.get_executor
    patches.append(
        (
            sharded,
            "get_executor",
            lambda name: _gen(rec, f"executor.{name}", get_executor(name)),
        )
    )
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def percentile(values, pct: int) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (50 when the sample is too small to support any tail)."""
    if n < 20:
        return 50
    return max(50, min(99, int(100 * (1 - 10 / n))))


def spawn_connect(events_path) -> tuple[float, int]:
    """(Σ spawn->connect seconds, spawns) from a campaign's events.jsonl."""
    spawned, total, spawns = {}, 0.0, 0
    try:
        lines = Path(events_path).read_text().splitlines()
    except FileNotFoundError:
        return 0.0, 0
    for line in lines:
        record = json.loads(line)
        key = (record["run"], record["data"].get("pid"))
        if record["type"] == "worker_spawn":
            spawned[key] = record["mono"]
            spawns += 1
        elif record["type"] == "worker_connect" and key in spawned:
            total += record["mono"] - spawned.pop(key)
    return total, spawns


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end) in enumerate(spans)]


def layer_metrics(rec: Recorder, wall_s: float, events_path) -> dict:
    """Per-layer metrics of one traced campaign (values only)."""
    spans = rec.spans
    self_times = _self_times(spans)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    saves = []
    for (name, _, start, end), mine in zip(spans, self_times):
        total[name] += end - start
        own[name] += mine
        calls[name] += 1
        if name == "checkpoint.save":
            saves.append(end - start)
    counts = rec.counts
    worker_probes = worker_responses = worker_seconds = 0
    for _, stats in rec.worker_stats.values():
        worker_probes += stats.get("probes_sent", 0)
        worker_responses += stats.get("responses", 0)
        worker_seconds += stats.get("seconds", 0.0)
    probes = counts["engine.probes"] + worker_probes
    responses = counts["engine.responses"] + worker_responses
    spawn_s, spawns = spawn_connect(events_path)
    tail = tail_percentile(len(saves))
    roots = sum(mine for (_, parent, _, _), mine in zip(spans, self_times) if parent is None)
    return {
        "census.load_s": total["census.load"],
        "bgp.partition_s": total["bgp.partition"],
        "core.plan_s": total["core.plan"],
        "core.plans": calls["core.plan"],
        "permutation.walk_s": own["permutation.walk"],
        "permutation.probes": counts["permutation.probes"],
        "sharded.build_s": total["sharded.build"],
        "sharded.map_s": own["sharded.map"],
        "sharded.batches": counts["sharded.batches"],
        "sharded.drive_s": own["sharded.run"] + own["executor.serial"] + own["executor.process"],
        "engine.self_s": own["engine.run"] + worker_seconds,
        "engine.probes": probes,
        "engine.hit_ratio": responses / probes if probes else 0.0,
        "distributed.executor_s": (
            own["executor.distributed"]
            + own["distributed.spawn"]
            + own["distributed.stats"]
        ),
        "distributed.spawn_s": spawn_s,
        "distributed.spawns": spawns,
        "distributed.codec_s": total["distributed.codec"],
        "distributed.bytes_in": counts["distributed.bytes_in"],
        "distributed.bytes_out": counts["distributed.bytes_out"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.save_p50_ms": 1e3 * percentile(saves, 50) if saves else 0.0,
        "checkpoint.save_tail_ms": 1e3 * percentile(saves, tail) if saves else 0.0,
        "checkpoint.save_tail_pct": tail,
        "checkpoint.saves": len(saves),
        "checkpoint.fsyncs": counts["checkpoint.fsyncs"],
        "checkpoint.fsyncs_per_save": (
            counts["checkpoint.fsyncs"] / len(saves) if saves else 0.0
        ),
        "checkpoint.fsync_s": total["checkpoint.fsync"],
        "checkpoint.bytes_written": counts["checkpoint.bytes_written"],
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.docs_s": total["checkpoint.docs"],
        "waves.explore_s": total["waves.explore"],
        "waves.explore_probes": counts["waves.explore_probes"],
        "campaign.self_s": own["campaign.build"] + own["campaign.run"],
        "obs.emit_s": total["obs.emit"],
        "obs.events": counts["obs.events"],
        "trace.remainder_s": roots,
        "trace.coverage": sum(self_times) / wall_s,
        "trace.spans": len(spans),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Per metric, the low median over campaigns (always an observed
    value, so counts stay whole)."""
    return {
        key: statistics.median_low(s[key] for s in samples)
        for key in samples[0]
    }
