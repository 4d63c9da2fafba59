"""Differential oracle for the counting-backend registry.

Every backend registered in :mod:`repro.bgp.backends` must agree
*exactly* with the pure-Python radix-trie reference on randomized
routing tables and address populations — this is the safety net that
makes swapping backends (by argument or ``$REPRO_COUNT_BACKEND``)
a no-risk operation.
"""

import numpy as np
import pytest

from repro.bgp.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    count_with_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.bgp.table import (
    LESS_SPECIFIC,
    MORE_SPECIFIC,
    Partition,
    Prefix,
    RoutingTable,
)
from repro.census.addrset import AddressSet
from repro.core.density import count_with_trie
from repro.core.tass import TassStrategy


def _random_table(rng) -> RoutingTable:
    """A random forest of disjoint l-prefixes with nested children."""
    l_prefixes = []
    children = {}
    cursor = int(rng.integers(1, 90)) << 24
    for _ in range(int(rng.integers(3, 12))):
        length = int(rng.integers(12, 25))
        size = 1 << (32 - length)
        cursor = -(-cursor // size) * size  # align up
        parent = Prefix(cursor, length)
        l_prefixes.append(parent)
        cursor += size + int(rng.integers(0, 4)) * size
        if length <= 22 and rng.random() < 0.7:
            child = Prefix(parent.network, length + 2)
            children[parent] = [child]
            if rng.random() < 0.5:
                children[child] = [Prefix(child.network, length + 4)]
    return RoutingTable(l_prefixes, children)


def _random_addresses(rng, partition) -> np.ndarray:
    inside = np.concatenate(
        [
            partition.starts[i]
            + rng.integers(0, partition.sizes[i], int(rng.integers(0, 80)))
            for i in range(len(partition))
        ]
        + [np.zeros(0, dtype=np.int64)]
    )
    outside = rng.integers(0, 1 << 32, 40)
    return AddressSet(np.concatenate([inside, outside])).values


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("view", [LESS_SPECIFIC, MORE_SPECIFIC])
def test_all_backends_agree_with_trie_on_random_tables(seed, view):
    rng = np.random.default_rng(seed)
    partition = _random_table(rng).partition(view)
    values = _random_addresses(rng, partition)
    oracle = count_with_backend(
        partition.starts, partition.ends, values, "trie"
    )
    # The prefix-shaped trie reference agrees with the interval trie.
    assert np.array_equal(oracle, count_with_trie(values, partition))
    for name in available_backends():
        counts = count_with_backend(
            partition.starts, partition.ends, values, name
        )
        assert np.array_equal(counts, oracle), name


@pytest.mark.parametrize("seed", range(4))
def test_backends_agree_on_unaligned_intervals(seed):
    """Backends must handle arbitrary [start, end), not just CIDRs."""
    rng = np.random.default_rng(100 + seed)
    edges = np.sort(rng.choice(1 << 20, size=14, replace=False))
    starts, ends = edges[0::2], edges[1::2]
    values = AddressSet(rng.integers(0, 1 << 20, 3000)).values
    oracle = count_with_backend(starts, ends, values, "trie")
    for name in available_backends():
        got = count_with_backend(starts, ends, values, name)
        assert np.array_equal(got, oracle), name


@pytest.mark.parametrize("name", ["searchsorted", "trie"])
def test_backend_handles_empty_inputs(name):
    empty = np.empty(0, dtype=np.int64)
    assert count_with_backend(empty, empty, empty, name).tolist() == []
    starts = np.array([10], dtype=np.int64)
    ends = np.array([20], dtype=np.int64)
    assert count_with_backend(starts, ends, empty, name).tolist() == [0]


def test_registry_resolution(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_backend_name(None) == DEFAULT_BACKEND
    assert resolve_backend_name("trie") == "trie"
    assert {"searchsorted", "trie"} <= set(available_backends())
    with pytest.raises(ValueError, match="unknown counting backend"):
        get_backend("no-such-backend")
    # Callables pass straight through.
    fn = lambda s, e, v: np.zeros(len(s), dtype=np.int64)  # noqa: E731
    assert get_backend(fn) is fn


def test_env_var_selects_default_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "trie")
    assert resolve_backend_name(None) == "trie"
    rng = np.random.default_rng(7)
    partition = _random_table(rng).partition(LESS_SPECIFIC)
    values = _random_addresses(rng, partition)
    via_env = partition.count_addresses(values)
    monkeypatch.delenv(ENV_VAR)
    assert np.array_equal(via_env, partition.count_addresses(values))
    monkeypatch.setenv(ENV_VAR, "no-such-backend")
    with pytest.raises(ValueError, match="unknown counting backend"):
        partition.count_addresses(values)


def test_backend_threads_through_strategy_and_partition():
    rng = np.random.default_rng(11)
    table = _random_table(rng)
    partition = table.partition(LESS_SPECIFIC)
    values = _random_addresses(rng, partition)
    baseline = TassStrategy(table, phi=0.9).plan(AddressSet(values))
    for name in available_backends():
        strategy = TassStrategy(table, phi=0.9, backend=name)
        selection = strategy.plan(AddressSet(values))
        assert np.array_equal(selection.indices, baseline.indices), name
        assert selection.count_in(values, backend=name) == baseline.count_in(
            values
        )
    # A table-level default backend is inherited by its partitions.
    pinned = RoutingTable(table.l_prefixes, count_backend="trie")
    assert pinned.partition(LESS_SPECIFIC).count_backend == "trie"
    assert np.array_equal(
        pinned.partition(LESS_SPECIFIC).count_addresses(values),
        partition.count_addresses(values),
    )


def test_table_level_backend_reaches_campaign_replay():
    """Selection.count_in inherits the partition's count_backend."""
    calls = []

    @register_backend("test-recording")
    def recording(starts, ends, values):
        calls.append(len(starts))
        return count_with_backend(starts, ends, values, "searchsorted")

    try:
        rng = np.random.default_rng(13)
        table = _random_table(rng)
        pinned = RoutingTable(table.l_prefixes, count_backend="test-recording")
        values = _random_addresses(rng, pinned.partition(LESS_SPECIFIC))
        selection = TassStrategy(pinned).plan(AddressSet(values))
        planning_calls = len(calls)
        assert planning_calls > 0  # plan counted through the pinned backend
        selection.count_in(values)  # replay must use the same backend
        assert len(calls) == planning_calls + 1
    finally:
        from repro.bgp import backends

        backends._REGISTRY.pop("test-recording", None)


def test_registering_a_custom_backend(monkeypatch):
    calls = []

    @register_backend("test-custom")
    def custom(starts, ends, values):
        calls.append(len(values))
        return count_with_backend(starts, ends, values, "searchsorted")

    try:
        partition = Partition.from_prefixes(
            [Prefix.from_cidr("10.0.0.0/24")]
        )
        values = np.array([Prefix.from_cidr("10.0.0.5/32").network])
        counts = partition.count_addresses(values, backend="test-custom")
        assert counts.tolist() == [1]
        assert calls == [1]
    finally:
        from repro.bgp import backends

        backends._REGISTRY.pop("test-custom", None)
