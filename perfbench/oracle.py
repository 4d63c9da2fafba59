"""Independent expected status of a campaign, and the status check.

The oracle recomputes every wave's deterministic accounting from the
dataset through public functions — ``TassStrategy.plan`` for the
selection, ``Partition`` interval arithmetic for its size,
``interval_membership`` for the responsive hosts inside it, the
blocklist overlap for ``blocked``, and ``sample_complement`` for the
exploration draws — instead of running the scan.  The v6 probe set is
rebuilt from the documented seeding: the hitlist restricted to the
selected intervals plus ``samples_per_prefix`` affine draws per
interval, minus draws that repeat a hitlist address.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.bgp.table import interval_membership
from repro.core.tass import TassStrategy
from repro.orchestrator.waves import (
    ReseedPolicy,
    compile_waves,
    sample_complement,
)
from repro.scan.blocklist import default_blocklist

__all__ = ["expected_waves", "check_status"]

#: Must match the campaign runner's exploration RNG seeding.
_EXPLORE_SALT = 0x5EED


def _blocked(starts, ends, blocklist) -> int:
    """Addresses of the selected intervals that the blocklist covers."""
    lo = np.maximum(starts[:, None], blocklist.starts[None, :])
    hi = np.minimum(ends[:, None], blocklist.ends[None, :])
    return int(np.clip(hi - lo, 0, None).sum())


def _v6_probes(starts, ends, hitlist, truth, samples, seed):
    """(probes, responses) of one v6 wave from the seeding rule."""
    from repro.core.addrspace import V6

    hitlist = np.unique(hitlist)
    hitlist = hitlist[interval_membership(starts, ends, hitlist)]
    drawn = []
    sizes = V6.interval_sizes_exact(starts, ends)
    for i, (start, size) in enumerate(zip(V6.decode(starts), sizes)):
        b, a = 0, 1
        if size > 1:
            rng = random.Random(f"v6-sample:{seed}:{i}")
            b = rng.randrange(size)
            a = rng.randrange(1, size) | 1
            while math.gcd(a, size) != 1:
                a = (a + 2) % size or 1
        drawn.extend(
            start + (b + a * j) % size for j in range(min(size, samples))
        )
    sampled = np.setdiff1d(np.unique(V6.encode(drawn)), hitlist)
    probed = np.union1d(hitlist, sampled)
    responses = np.intersect1d(probed, truth).size
    return len(hitlist) + len(sampled), responses, sum(sizes)


def expected_waves(spec: dict, dataset) -> list[dict]:
    """Each wave's status record, from the resolved ``spec`` dict."""
    if spec["reseed_scan"] or spec["probe_budget"] is not None:
        raise ValueError("the oracle models neither reseed scans nor budgets")
    series = dataset.series_for(spec["protocol"])
    partition = dataset.topology.table.partition(spec["view"])
    strategy = TassStrategy(
        partition, phi=spec["phi"], backend=spec["backend"]
    )
    policy = ReseedPolicy.from_dict(spec["reseed"])
    blocklist = default_blocklist() if spec["use_blocklist"] else None
    rng = np.random.default_rng([spec["scan_seed"], _EXPLORE_SALT])
    announced = partition.address_count()
    mask = np.zeros(len(partition), dtype=bool)
    hitlist_month = 0
    previous = None
    records = []
    for plan in compile_waves(spec["waves"], len(series), policy):
        snapshot = series[plan.month]
        truth = snapshot.addresses.values
        reseeded = policy.decide(plan.wave, previous)
        if reseeded:
            mask = np.zeros(len(partition), dtype=bool)
            mask[strategy.plan(snapshot).indices] = True
            hitlist_month = plan.month
        starts, ends = partition.starts[mask], partition.ends[mask]
        blocked = 0
        if spec["family"] == "v6":
            probes, responses, selected = _v6_probes(
                starts,
                ends,
                series[hitlist_month].addresses.values,
                truth,
                spec["samples_per_prefix"],
                spec["scan_seed"] + plan.wave,
            )
        else:
            selected = int((ends - starts).sum())
            hit = interval_membership(starts, ends, truth)
            if blocklist is not None:
                blocked = _blocked(starts, ends, blocklist)
                hit &= ~interval_membership(
                    blocklist.starts, blocklist.ends, truth
                )
            probes, responses = selected - blocked, int(hit.sum())
        selected_prefixes = int(mask.sum())
        explore_probes = explore_hits = absorbed = 0
        if spec["explore_frac"] > 0.0:
            unselected = announced - selected
            n = (
                max(1, int(spec["explore_frac"] * unselected))
                if unselected > 0
                else 0
            )
            drawn, _ = sample_complement(rng, partition, mask, n)
            hits = np.intersect1d(drawn, truth)
            parts = np.unique(partition.index_of(hits))
            parts = parts[parts >= 0]
            fresh = parts[~mask[parts]]
            mask = mask.copy()
            mask[fresh] = True
            explore_probes, explore_hits = int(drawn.size), int(hits.size)
            absorbed = int(fresh.size)
        hosts = len(truth)
        responses += explore_hits
        previous = responses / hosts if hosts else 0.0
        records.append(
            {
                "wave": plan.wave,
                "month": plan.month,
                "reseeded": reseeded,
                "selected_prefixes": selected_prefixes,
                "selected_addresses": selected,
                "probes_sent": probes + explore_probes,
                "responses": responses,
                "blocked": blocked,
                "batches": -(-(probes + blocked) // spec["batch_size"]),
                "explore_probes": explore_probes,
                "explore_hits": explore_hits,
                "absorbed_prefixes": absorbed,
                "responsive_hosts": hosts,
                "hitrate": previous,
                "missed": hosts - responses,
            }
        )
    return records


def check_status(status: dict, expected: list[dict]) -> list[str]:
    """Every disagreement between a status document and the oracle."""
    problems = []
    if not status.get("finished"):
        problems.append("status: campaign not finished")
    waves = status.get("waves", [])
    if len(waves) != len(expected):
        problems.append(
            f"status: {len(waves)} waves, oracle expects {len(expected)}"
        )
    for got, want in zip(waves, expected):
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(
                    f"wave {want['wave']} {key}: status {got.get(key)!r}"
                    f" != oracle {value!r}"
                )
    totals = status.get("totals", {})
    for key in ("probes_sent", "responses", "blocked", "explore_probes"):
        want = sum(record[key] for record in expected)
        if totals.get(key) != want:
            problems.append(
                f"totals {key}: status {totals.get(key)!r} != oracle {want}"
            )
    return problems
