"""Ablation: the counting-backend registry on the benchmark dataset.

Times every backend registered in :mod:`repro.bgp.backends` on the
same per-prefix counting task (TASS step 2) and asserts exact agreement
— the registry-level generalisation of the original searchsorted-vs-
trie ablation.  The trie oracle is subsampled to stay tractable.
"""

import numpy as np
import pytest

from repro.bgp.backends import count_with_backend
from repro.bgp.table import LESS_SPECIFIC
from repro.census.addrset import AddressSet


@pytest.fixture(scope="module")
def counting_task(dataset):
    partition = dataset.topology.table.partition(LESS_SPECIFIC)
    snapshot = dataset.series_for("http").seed_snapshot
    return partition, snapshot.addresses.values


@pytest.mark.parametrize("backend", ["searchsorted"])
def test_backend_vectorized(benchmark, counting_task, backend):
    partition, values = counting_task
    counts = benchmark(
        count_with_backend, partition.starts, partition.ends, values, backend
    )
    reference = partition.count_addresses(values)
    assert np.array_equal(counts, reference)


def test_backend_trie(benchmark, counting_task):
    partition, values = counting_task
    # The pure-Python trie walks one address at a time; subsample so the
    # oracle stays tractable, then verify agreement on the sample.
    sample = AddressSet(values[::37]).values
    counts = benchmark.pedantic(
        count_with_backend,
        args=(partition.starts, partition.ends, sample, "trie"),
        rounds=1,
        iterations=1,
    )
    assert np.array_equal(counts, partition.count_addresses(sample))
