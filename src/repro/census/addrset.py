"""Sorted-array address sets (IPv4 ``int64`` or IPv6 ``S16``).

An :class:`AddressSet` is a sorted, duplicate-free NumPy array — plain
``int64`` for the v4 family, or 16-byte big-endian strings (``S16``,
see :mod:`repro.core.addrspace`) for 128-bit v6 addresses, whose
lexicographic order is numeric order so every idiom below works on both
families unchanged.
All set algebra is array-at-a-time: union is a single vectorized merge of
the two sorted operands, intersection/difference/membership are
``searchsorted`` passes.  This representation is what makes the rest of
the pipeline fast — per-prefix counting over a snapshot is two
``searchsorted`` calls (see ``repro.bgp.table.Partition``), and the scan
engine's per-batch responsive check is one.
"""

from __future__ import annotations

import numpy as np

from repro.core.addrspace import space_of

__all__ = ["AddressSet", "sorted_unique"]

_EMPTY = np.empty(0, dtype=np.int64)


def _coerce(values) -> np.ndarray:
    """Family-preserving coercion: S16 passes through, the rest is int64."""
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        return space_of(arr).asarray(arr)
    return np.asarray(values, dtype=np.int64)


def sorted_unique(values) -> np.ndarray:
    """``values`` as a sorted, duplicate-free 1-D array.

    An input that already is one (strictly increasing) is returned
    as-is after a single comparison pass, so trusted arrays such as an
    :class:`AddressSet`'s values skip the ``np.unique`` re-sort while
    unsorted or duplicated input is still normalised.
    """
    arr = _coerce(values)
    if arr.ndim == 1 and (arr.size < 2 or bool((arr[1:] > arr[:-1]).all())):
        return arr
    return np.unique(arr)


def _as_sorted_unique(values) -> np.ndarray:
    arr = _coerce(values)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return np.unique(arr)  # sorts and removes duplicates


class AddressSet:
    """An immutable set of IPv4 addresses stored as a sorted int64 array."""

    __slots__ = ("_values",)

    def __init__(self, values=(), *, assume_sorted_unique: bool = False):
        if assume_sorted_unique:
            arr = _coerce(values)
        else:
            arr = _as_sorted_unique(values)
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "AddressSet":
        return cls(arr, assume_sorted_unique=True)

    # -- basic protocol ------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The sorted, unique address array (read-only view)."""
        return self._values

    @property
    def space(self):
        """The :class:`~repro.core.addrspace.AddressSpace` of this set."""
        return space_of(self._values)

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        # Yield Python ints, not NumPy scalars: iteration is the JSON /
        # telemetry boundary, and ``np.int64`` is not JSON-serializable.
        if self._values.dtype.kind == "S":
            decode = self.space.decode_scalar
            return iter([decode(v) for v in self._values])
        return iter(self._values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSet(n={len(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AddressSet):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((len(self), self._values[:64].tobytes()))

    def __contains__(self, address) -> bool:
        a = self._values
        if a.dtype.kind == "S" and isinstance(address, int):
            address = self.space.encode_scalar(address)
        i = int(np.searchsorted(a, address))
        if i >= len(a):
            return False
        if a.dtype.kind == "S":
            return bool(a[i] == np.asarray(address, dtype=a.dtype)[()])
        return int(a[i]) == int(address)

    # -- vectorized membership ----------------------------------------

    def membership(self, probes: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``probes`` are in this set.

        One ``searchsorted`` over the sorted member array — the same
        O(m log n) pass a zmap-class simulator runs per probe batch.
        """
        a = self._values
        probes = _coerce(probes)
        if len(a) == 0 or probes.size == 0:
            return np.zeros(probes.shape, dtype=bool)
        idx = np.searchsorted(a, probes)
        idx[idx == len(a)] = len(a) - 1
        return a[idx] == probes

    def intersection_count(self, other: "AddressSet") -> int:
        """``len(self & other)`` without materialising the intersection."""
        small, big = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        return int(big.membership(small._values).sum())

    # -- set algebra ---------------------------------------------------

    def __or__(self, other: "AddressSet") -> "AddressSet":
        a, b = self._values, other._values
        if len(a) == 0:
            return other
        if len(b) == 0:
            return self
        # Merge-based union: splice b into a at its insertion points
        # (one vectorized O(n+m) pass), then drop adjacent duplicates.
        idx = np.searchsorted(a, b)
        merged = np.insert(a, idx, b)
        keep = np.empty(len(merged), dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        return AddressSet._trusted(merged[keep])

    def __and__(self, other: "AddressSet") -> "AddressSet":
        small, big = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        if len(small) == 0:
            return AddressSet._trusted(small._values)
        return AddressSet._trusted(
            small._values[big.membership(small._values)]
        )

    def __sub__(self, other: "AddressSet") -> "AddressSet":
        if len(self) == 0 or len(other) == 0:
            return self
        return AddressSet._trusted(
            self._values[~other.membership(self._values)]
        )

    def __xor__(self, other: "AddressSet") -> "AddressSet":
        return (self | other) - (self & other)

    def issubset(self, other: "AddressSet") -> bool:
        if len(self) == 0:
            return True
        return bool(other.membership(self._values).all())
