"""The batched scan engine: probe generation, filtering, classification.

This is the zmap-class simulator core.  It drains a target stream in
fixed-size batches and reduces every batch to three counters: probes
sent, responses and blocked probes.  There are two ways to count, and
both give identical results (the differential test suite asserts it):

- **Flat kernel.**  A v4 :class:`~repro.scan.sharded.IntervalTargets`
  shard is counted in its walk's own flat coordinates ``[0, total)``.
  Once per shard, the truth set is projected into those coordinates
  as a bitmap (covered, unblocked responsive addresses only), and the
  blocklist is intersected with the target intervals into flat blocked
  intervals, which are almost always empty.  Every batch of the
  permutation walk is then one bitmap gather and popcount: no sort, no
  flat -> address map, no address-space membership.
- **Address path.**  Every other stream (paced wrappers, prefix and
  range streams, the v6 family) yields address batches.  Each batch is
  brought into sorted order once (streams that already yield sorted
  batches skip even that), then the blocklist mask and the responsive
  membership test run as branch-predictable sorted ``searchsorted``
  passes with no intermediate filtered copy of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.bgp.table import interval_membership
from repro.census.addrset import AddressSet, sorted_unique

__all__ = ["EngineConfig", "ScanResult", "ScanEngine"]

#: Flat spaces above this many coordinates take the address path: the
#: kernel's per-shard bitmap (one bit per coordinate) stays <= 32 MiB.
_FLAT_MAX_COORDS = 1 << 28

#: ``_BITS[k]`` selects bit ``k`` of a bitmap byte.
_BITS = (1 << np.arange(8)).astype(np.uint8)


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs."""

    batch_size: int = 1 << 16


@dataclass
class ScanResult:
    """Outcome of one scan pass."""

    probes_sent: int = 0
    responses: int = 0
    blocked: int = 0
    batches: int = 0
    protocol: str | None = None

    @property
    def hitrate(self) -> float:
        return self.responses / self.probes_sent if self.probes_sent else 0.0


def _responsive_values(responsive) -> np.ndarray:
    """The sorted unique address array behind any truth spec.

    Accepts an :class:`AddressSet` or a raw array (``int64`` for v4,
    ``S16`` for v6 — see :mod:`repro.core.addrspace`).  A raw array
    that is already sorted and duplicate-free is used as-is — no
    AddressSet re-wrap (and no ``np.unique`` re-sort) per call.
    """
    if isinstance(responsive, AddressSet):
        return responsive.values
    return sorted_unique(responsive)


def _ranges(lo, counts) -> np.ndarray:
    """The concatenation of ``arange(lo[i], lo[i] + counts[i])`` over i."""
    skip = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return skip + np.arange(skip.size)


def _flat_counts(walk, layout, truth, blocklist, batch_size):
    """Per-batch ``(sent, responses, blocked)`` of a v4 shard's walk,
    counted in flat coordinates (the fused kernel)."""
    if walk is None:
        return
    starts, ends, offsets = layout
    # Blocklist, once per shard: every overlap of a blocked range with
    # a target interval becomes a flat range.  Both sets are sorted
    # and disjoint, so the overlaps come out in address order, which
    # the flat map preserves.
    b_starts = b_ends = None
    if blocklist is not None and len(blocklist):
        lo = np.searchsorted(ends, blocklist.starts, side="right")
        pairs = np.searchsorted(starts, blocklist.ends, side="left") - lo
        np.maximum(pairs, 0, out=pairs)
        target = _ranges(lo, pairs)
        block = np.repeat(np.arange(len(blocklist)), pairs)
        base = offsets[target] - starts[target]
        f_lo = base + np.maximum(starts[target], blocklist.starts[block])
        f_hi = base + np.minimum(ends[target], blocklist.ends[block])
        keep = f_hi > f_lo
        if keep.any():
            b_starts, b_ends = f_lo[keep], f_hi[keep]
    # Truth, once per shard: the responsive addresses inside a target
    # interval, as flat coordinates, minus blocked ones (a blocked
    # probe is never sent, so it can never respond).
    lo = np.searchsorted(truth, starts)
    inside = np.searchsorted(truth, ends) - lo
    flat = truth[_ranges(lo, inside)]
    flat += np.repeat(offsets[:-1] - starts, inside)
    if b_starts is not None:
        flat = flat[~interval_membership(b_starts, b_ends, flat)]
    bitmap = np.zeros((int(offsets[-1]) + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(bitmap, flat >> 3, _BITS[flat & 7])
    for values in walk.batches(batch_size):
        blocked = 0
        if b_starts is not None:
            blocked = int(
                np.count_nonzero(interval_membership(b_starts, b_ends, values))
            )
        hits = bitmap[values >> 3]
        hits >>= (values & 7).astype(np.uint8)
        hits &= 1
        yield int(values.size) - blocked, int(np.count_nonzero(hits)), blocked


def _address_counts(batches, truth, blocklist):
    """Per-batch ``(sent, responses, blocked)`` of address batches."""
    n_truth = len(truth)
    for batch in batches:
        size = int(batch.size)
        if size == 0:
            yield 0, 0, 0
            continue
        # Probe order within a batch never changes any counter, so
        # sort once and every searchsorted below runs over sorted
        # needles — several times faster than random-order lookups.
        if size > 1 and not bool((batch[1:] >= batch[:-1]).all()):
            batch = np.sort(batch)
        # Raw scalars, not int(): v6 batches are 16-byte strings, and
        # searchsorted takes both families' scalars directly.
        lo, hi = batch[0], batch[-1]
        # Blocklist fast path: two scalar lookups decide whether the
        # batch's [lo, hi] span touches any blocked range at all;
        # target streams stay inside announced space, so the full
        # per-probe mask is almost always skipped.
        blocked = None
        n_blocked = 0
        if blocklist is not None:
            b_lo = int(np.searchsorted(blocklist.starts, lo, side="right"))
            b_hi = int(np.searchsorted(blocklist.starts, hi, side="right"))
            if b_lo != b_hi or (b_lo > 0 and lo < blocklist.ends[b_lo - 1]):
                blocked = interval_membership(
                    blocklist.starts, blocklist.ends, batch
                )
                n_blocked = int(blocked.sum())
                if not n_blocked:
                    blocked = None
        sent = size - n_blocked
        if n_truth == 0:
            yield sent, 0, n_blocked
            continue
        # Only the truth addresses inside the batch's span can match;
        # the slice is usually far smaller than the batch.
        t_lo = int(np.searchsorted(truth, lo))
        t_hi = int(np.searchsorted(truth, hi, side="right"))
        sliver = truth[t_lo:t_hi]
        if sliver.size == 0:
            responses = 0
        elif blocked is None and sliver.size <= batch.size >> 3:
            # Sparse truth: probe it into the batch instead — far fewer
            # needles.  The insertion-point difference counts every
            # occurrence, so duplicate probes of the same responsive
            # address each score a response, exactly as the per-probe
            # direction below would count them.
            span = np.searchsorted(batch, sliver, side="right")
            span -= np.searchsorted(batch, sliver, side="left")
            responses = int(span.sum())
        else:
            idx = np.searchsorted(sliver, batch)
            np.minimum(idx, sliver.size - 1, out=idx)
            hit = sliver[idx] == batch
            if blocked is not None:
                # A blocked probe is never sent, so it can never
                # respond: fold the mask in place of filtering the
                # batch down to an allowed copy.
                np.logical_not(blocked, out=blocked)
                np.logical_and(hit, blocked, out=hit)
            responses = int(hit.sum())
        yield sent, responses, n_blocked


class ScanEngine:
    """Batched probe engine with blocklist filtering."""

    def __init__(self, config: EngineConfig | None = None, blocklist=None):
        self.config = config or EngineConfig()
        self.blocklist = blocklist

    def _counts(self, targets, truth):
        """The per-batch counter stream: the flat kernel when
        ``targets`` is a v4 interval shard, else the address path."""
        batch_size = self.config.batch_size
        layout = getattr(targets, "flat_layout", lambda: None)()
        if (
            layout is not None
            and layout[2][-1] <= _FLAT_MAX_COORDS
            and truth.dtype.kind != "S"
        ):
            return _flat_counts(
                targets.walk(), layout, truth, self.blocklist, batch_size
            )
        return _address_counts(
            targets.batches(batch_size), truth, self.blocklist
        )

    def run(self, targets, responsive, protocol: str | None = None) -> ScanResult:
        """Scan a target stream against a responsive-address set.

        ``targets`` must provide ``batches(batch_size)`` yielding
        address arrays (int64 for v4, S16 for v6); a v4
        :class:`~repro.scan.sharded.IntervalTargets` shard is counted
        by the flat kernel instead.  ``responsive`` is an
        :class:`AddressSet` or a plain address array (pre-sorted
        duplicate-free arrays are used directly) defining which probes
        elicit a response.
        """
        truth = _responsive_values(responsive)
        result = ScanResult(protocol=protocol)
        # Resolved once per run: outside an observability scope this is
        # None and the batch loop pays a single predictable branch.
        registry = obs.get_registry()
        for sent, responses, blocked in self._counts(targets, truth):
            result.batches += 1
            result.probes_sent += sent
            result.responses += responses
            result.blocked += blocked
            if registry is not None:
                registry.counter("engine.batches").inc()
                if sent:
                    registry.counter("engine.probes_sent").inc(sent)
        if registry is not None:
            registry.counter("engine.responses").inc(result.responses)
            registry.counter("engine.blocked").inc(result.blocked)
        return result
