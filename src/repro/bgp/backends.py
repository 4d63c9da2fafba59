"""Pluggable per-interval counting backends.

Every layer of the pipeline ultimately answers the same question: given
a sorted, duplicate-free ``int64`` address array and a sorted disjoint
``[start, end)`` interval set, how many addresses fall in each interval?
This module makes the answer a *registry* of interchangeable backends
instead of a hard-wired call:

- ``searchsorted`` — the production two-``searchsorted`` pass
  (:func:`repro.bgp.table.count_in_intervals`); O((n+m) log) and the
  default everywhere.
- ``trie``         — the pure-Python binary radix trie
  (:mod:`repro.core.density`), one longest-prefix-match walk per
  address.  Orders of magnitude slower; kept as the correctness oracle
  the differential test suite checks every other backend against.

Selection is by explicit ``backend=`` argument anywhere counting
happens (``Partition.count_addresses``, ``Selection.count_in``,
``TassStrategy``, ``simulate_campaign``, the analysis ``run_*``
functions) or globally via the ``REPRO_COUNT_BACKEND`` environment
variable.  Registering a new backend is one decorated function::

    from repro.bgp.backends import register_backend

    @register_backend("mybackend")
    def count(starts, ends, values):
        ...  # return per-interval int64 counts

All backends assume the :class:`~repro.census.addrset.AddressSet`
contract: ``values`` sorted and duplicate-free.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.bgp.table import count_in_intervals as _searchsorted_count
from repro.env import ENV_COUNT_BACKEND, KNOBS, count_backend

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "count_with_backend",
    "CountCache",
    "COUNT_CACHE",
]

#: Environment variable that selects the process-wide default backend.
ENV_VAR = ENV_COUNT_BACKEND

DEFAULT_BACKEND = KNOBS[ENV_COUNT_BACKEND].default

_REGISTRY: dict[str, object] = {}


def register_backend(name: str):
    """Class-of-one decorator: register ``fn(starts, ends, values)``."""

    def decorate(fn):
        _REGISTRY[name] = fn
        return fn

    return decorate


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


#: The validated backend name an explicit/env/default resolution lands on.
resolve_backend_name = count_backend


def get_backend(name=None):
    """Resolve a backend by name, env var, or passthrough callable.

    ``None`` falls back to ``$REPRO_COUNT_BACKEND`` and then to the
    ``searchsorted`` default; a callable is returned unchanged so call
    sites can take ad-hoc counting functions too.
    """
    if callable(name):
        return name
    return _REGISTRY[resolve_backend_name(name)]


def count_with_backend(starts, ends, values, backend=None) -> np.ndarray:
    """Per-interval occupancy via the resolved backend."""
    return get_backend(backend)(starts, ends, values)


# ---------------------------------------------------------------------------
# Cross-wave count reuse
# ---------------------------------------------------------------------------


class CountCache:
    """Memoized per-partition interval counts, keyed on object identity.

    Every wave of a campaign — and every strategy, analysis, and
    accounting pass sharing a snapshot — asks the same question: the
    per-interval occupancy of one immutable sorted address array over
    one partition.  This cache answers it once per
    ``(partition, values, backend)`` triple and hands the same
    read-only counts array to every caller, so ``TassStrategy.plan``,
    ``hold_or_reseed``, ``selection_stats`` and ``simulate_campaign``
    share a single two-``searchsorted`` pass per snapshot instead of
    recounting from scratch.

    Keys are object identities; entries hold the partition and values
    through **weak references**, so the cache never extends a
    snapshot's lifetime — when the owner drops a snapshot, its entries
    die with it (only the small per-interval counts arrays linger,
    bounded by the LRU size).  A recycled ``id`` can therefore collide
    with a dead entry's key; every lookup guards against that by
    re-checking identity through the weakrefs and treating any
    mismatch as a miss.  Only **read-only** ndarrays are cached — a
    writable array could be mutated after insertion and go stale, so
    it bypasses the cache entirely, as does any ad-hoc callable
    backend (no stable name to key on).
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()

    @staticmethod
    def cacheable(values) -> bool:
        """Safe to memoize: an immutable (read-only) 1-D ndarray."""
        return (
            isinstance(values, np.ndarray)
            and values.ndim == 1
            and not values.flags.writeable
        )

    def counts(self, partition, values, backend=None) -> np.ndarray:
        """Per-interval occupancy of ``values`` over ``partition``.

        Identical to ``partition`` counting via
        :func:`count_with_backend`; uncacheable inputs fall straight
        through to the backend.
        """
        if callable(backend) or not self.cacheable(values):
            return count_with_backend(
                partition.starts, partition.ends, values, backend
            )
        name = resolve_backend_name(backend)
        key = (id(partition), id(values), name)
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0]() is partition
            and entry[1]() is values
        ):
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[2]
        counts = count_with_backend(
            partition.starts, partition.ends, values, name
        )
        counts = np.asarray(counts, dtype=np.int64)
        counts.setflags(write=False)
        self.misses += 1
        try:
            ref_partition = weakref.ref(partition)
            ref_values = weakref.ref(values)
        except TypeError:
            # Not weak-referenceable: serve the counts uncached rather
            # than pin the objects alive with strong references.
            self._entries.pop(key, None)
            return counts
        self._entries[key] = (ref_partition, ref_values, counts)
        # Sweep entries whose keys died before spending LRU budget on
        # them; then bound whatever remains.
        dead = [
            k
            for k, (rp, rv, _) in self._entries.items()
            if rp() is None or rv() is None
        ]
        for k in dead:
            del self._entries[k]
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return counts

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache every ``Partition.count_addresses`` call
#: (and everything layered on it) routes through.
COUNT_CACHE = CountCache()


# ---------------------------------------------------------------------------
# searchsorted — the production pass
# ---------------------------------------------------------------------------

register_backend("searchsorted")(_searchsorted_count)


# ---------------------------------------------------------------------------
# trie — the pure-Python longest-prefix-match oracle
# ---------------------------------------------------------------------------


@register_backend("trie")
def count_trie(starts, ends, values) -> np.ndarray:
    """Radix-trie counting over arbitrary ``[start, end)`` intervals.

    Each interval is decomposed into its minimal aligned CIDR cover
    (:func:`repro.bgp.deaggregate.split_range`), the cover is inserted
    into a binary trie mapping to the *source interval* index, and
    every address is longest-prefix-matched one Python iteration at a
    time — the :mod:`repro.core.density` reference generalised beyond
    prefix-shaped partitions.
    """
    from repro.bgp.deaggregate import split_range
    from repro.core.addrspace import space_of
    from repro.core.density import count_lookups, trie_insert

    starts = np.asarray(starts)
    if starts.dtype.kind == "S":
        space = space_of(starts)
        bits = space.bits
        start_ints = space.decode(starts)
        end_ints = space.decode(np.asarray(ends))
    else:
        bits = 32
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        start_ints = starts.tolist()
        end_ints = ends.tolist()
    root = [None, None, None]
    for index, (start, end) in enumerate(zip(start_ints, end_ints)):
        for prefix in split_range(start, end, bits):
            trie_insert(root, prefix.network, prefix.length, index, bits)
    return count_lookups(root, values, len(start_ints), bits)
