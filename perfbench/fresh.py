"""One campaign as the operator runs it: every step a fresh process.

Each step is ``python -m repro.orchestrator <step>`` in its own
process group.  The harness reaps it with ``os.wait4`` so the peak RSS
is that process's own (plus the workers it waited for), never a
lifetime maximum over every child the harness has had, and then kills
and waits out anything left in the group.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Step", "CampaignRun", "step_env", "run_campaign_cli"]

#: Seconds a step may run before the harness kills it.
STEP_TIMEOUT = 120.0


@dataclass
class Step:
    name: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class CampaignRun:
    steps: dict
    status_text: str
    problems: list


def step_env(root: Path, data_dir: Path, extra: dict) -> dict:
    """The inherited environment with every ``REPRO_*`` knob scrubbed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    env["REPRO_DATA_DIR"] = str(data_dir)
    env.update(extra)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a step's process group and wait it out."""
    _kill_group(pgid)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_step(name, argv, env, scratch: Path) -> Step:
    out_path, err_path = scratch / f"{name}.out", scratch / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.orchestrator", *argv],
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(STEP_TIMEOUT, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # Reaped by wait4 already: keep Popen from waiting on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return Step(
        name=name,
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def run_campaign_cli(workload, seed, directory: Path, env: dict) -> CampaignRun:
    """plan -> run [killed] -> resume -> status --json, fresh processes.

    ``problems`` lists every step whose exit code was not the expected
    one: 0, except the killed ``run``, which must die.
    """
    scratch = directory.parent / (directory.name + ".logs")
    scratch.mkdir()
    steps, problems = {}, []
    for name, argv, step_environ, must_die in workload.steps(str(directory), seed, env):
        step = steps[name] = run_step(name, argv, step_environ, scratch)
        if (step.returncode != 0) != must_die:
            problems.append(
                f"{name}: exit {step.returncode}"
                + (" (expected the injected crash)" if must_die else "")
                + f"; stderr tail: {step.stderr[-400:]!r}"
            )
    return CampaignRun(steps, steps["status"].stdout, problems)
