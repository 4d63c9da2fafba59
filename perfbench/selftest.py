"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Plans and runs one ``v4_control`` campaign in-process, then feeds the
benchmark's status check the honest status and several falsified
copies.  The honest status must pass; every falsified one must count
as a failed operation (``failed_frac > 0``).  Last, a fresh-process
campaign whose injected crash never fires must count its ``run`` step
as failed.  Exits 0 when all cases behave, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from fresh import run_campaign_cli, step_env  # noqa: E402
from oracle import expected_waves  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _mutated(status: dict, edit) -> str:
    status = json.loads(json.dumps(status))
    edit(status)
    return json.dumps(status, indent=2, sort_keys=True) + "\n"


def main() -> int:
    from repro.census.loader import get_dataset
    from repro.orchestrator.cli import main as cli

    workload = WORKLOADS["v4_control"]
    bench.WORK.mkdir(exist_ok=True)
    env = step_env(ROOT, bench.WORK / "data", workload.env)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK))
    try:
        with bench.environ(env), contextlib.redirect_stdout(io.StringIO()):
            cli(workload.plan_argv(str(tmp / "plan"), 7))
            dataset = get_dataset(
                preset=workload.preset, seed=workload.dataset_seed
            )
        spec = json.loads((tmp / "plan" / "campaign.json").read_text())
        expected = expected_waves(spec, dataset)
        reference = bench.reference_status(workload, spec, tmp / "ref", env)
        # Save 10**6 never comes: the run that must die exits 0.
        no_crash = dataclasses.replace(workload, kill_at_save=10**6)
        survived = run_campaign_cli(no_crash, 7, tmp / "no-crash", env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    honest = json.loads(reference)

    def bump(*path, by=1):
        def edit(status):
            node = status
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += by

        return edit

    cases = {
        "honest": (reference, False),
        "wave 0 probes_sent + 1": (_mutated(honest, bump("waves", 0, "probes_sent")), True),
        "last wave responses - 1": (_mutated(honest, bump("waves", -1, "responses", by=-1)), True),
        "totals probes_sent + 1": (_mutated(honest, bump("totals", "probes_sent")), True),
        "wave 2 explore_hits + 1": (_mutated(honest, bump("waves", 2, "explore_hits")), True),
        "compact JSON of the honest status": (json.dumps(honest, sort_keys=True), True),
    }
    ok = True
    for name, (text, falsified) in cases.items():
        ledger = bench.Ledger()
        bench.check_campaign(ledger, name, text, expected, reference)
        failed_frac = len(ledger.failures) / ledger.attempted
        good = (failed_frac > 0) == falsified
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: failed_frac {failed_frac:.3g}")
        for failure in ledger.failures:
            print(f"       {failure[:160]}")
    good = any(p.startswith("run: exit 0") for p in survived.problems)
    ok &= good
    print(
        f"{'ok  ' if good else 'FAIL'} run step survives its injected "
        f"crash: {survived.problems[:1]}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
