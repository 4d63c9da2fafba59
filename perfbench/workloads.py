"""The three benchmark workloads: CLI campaigns on cached presets.

Each workload is one operator campaign, ``plan -> run [killed] ->
resume -> status --json``, every step a fresh ``python -m
repro.orchestrator`` process.  The workloads are chosen so that each layer an optimisation
is likely to touch does most of the work in one workload and little in
another (see ``README.md`` for the prediction table).

The workload seed reaches the program only as ``--scan-seed``; the
dataset seed is pinned per workload.  Measured on the ``small`` preset,
the probe count of one wave moves from 4.6 M to 8.1 M across dataset
seeds 1..10 (quartile spread 19% of the median; 39% on ``tiny`` and
103% on ``v6-small``), which would swamp any regression bound on
``campaign_s``.  The scan seed still varies the probe order, the shard
contents, the exploration draws and the v6 samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.orchestrator.storage_faults import ENV_FS_FAULT_PLAN

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    dataset_seed: int
    waves: int
    #: ``plan`` arguments besides --dir/--preset/--dataset-seed/
    #: --scan-seed/--waves.
    plan_args: tuple
    #: ``rename_crash@save-N``: the ``run`` step dies at its Nth
    #: checkpoint save, about half way, and ``resume`` finishes the
    #: campaign, so ``resume_s`` times a real recovery on every workload.
    kill_at_save: int
    #: Environment for every step (on top of a scrubbed ``REPRO_*``).
    env: dict = field(default_factory=dict)

    def plan_argv(self, directory: str, seed: int) -> list[str]:
        return [
            "plan",
            "--dir", directory,
            "--preset", self.preset,
            "--dataset-seed", str(self.dataset_seed),
            "--scan-seed", str(seed),
            "--waves", str(self.waves),
            *self.plan_args,
        ]

    def steps(self, directory: str, seed: int, env: dict) -> list:
        """``(name, argv, env, must_die)`` of each CLI step in order."""
        run_env = dict(env, **{ENV_FS_FAULT_PLAN: f"rename_crash@save-{self.kill_at_save}"})
        return [
            ("plan", self.plan_argv(directory, seed), env, False),
            ("run", ["run", "--dir", directory], run_env, True),
            ("resume", ["resume", "--dir", directory], env, False),
            ("status", ["status", "--dir", directory, "--json"], env, False),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="v4_scan",
            why=(
                "v4 small preset, serial, 8 shards, blocklist, obs off, "
                "killed at save 19 of 37 and resumed: the scan loop (walk, "
                "sort, flat->address map, engine) is most of the campaign"
            ),
            preset="small",
            dataset_seed=0,
            waves=4,
            plan_args=(
                "--protocol", "http",
                "--phi", "0.95",
                "--shards", "8",
                "--executor", "serial",
                "--use-blocklist",
                "--reseed-mode", "interval",
            ),
            kill_at_save=19,
            env={"REPRO_OBS": "off"},
        ),
        Workload(
            name="v4_control",
            why=(
                "v4 tiny preset, 2-worker distributed fleet, 32 shards, "
                "hitrate reseed, exploration, obs full, killed at save "
                "100 and resumed: per-shard control plane dominates"
            ),
            preset="tiny",
            dataset_seed=0,
            waves=6,
            plan_args=(
                "--protocol", "http",
                "--phi", "0.8",
                "--shards", "32",
                "--executor", "distributed",
                "--explore-frac", "0.01",
                "--reseed-mode", "hitrate",
                "--min-hitrate", "0.9",
            ),
            kill_at_save=100,
            env={"REPRO_OBS": "full", "REPRO_DIST_WORKERS": "2"},
        ),
        Workload(
            name="v6_sampled",
            why=(
                "v6 small preset, serial, 8 shards, 64 samples per "
                "prefix, obs off, killed at save 19 of 37 and resumed: the "
                "128-bit family, hitlist seeding, per-shard target construction"
            ),
            preset="v6-small",
            dataset_seed=0,
            waves=4,
            plan_args=(
                "--protocol", "http",
                "--phi", "0.95",
                "--shards", "8",
                "--executor", "serial",
                "--samples-per-prefix", "64",
                "--reseed-mode", "interval",
            ),
            kill_at_save=19,
            env={"REPRO_OBS": "off"},
        ),
    )
}
