"""Campaign benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout.  ``--trace 0`` times real operator
campaigns (``plan -> run [killed] -> resume -> status --json``, each
step a fresh process) for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` drives the same campaign in-process with spans
around every layer and prints the per-layer metrics.  Every campaign's
status is checked against an independent oracle and against an
uninterrupted in-process ``run_campaign`` of the same spec.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Fresh-process samples of ``import repro.orchestrator.cli`` (and of a
#: bare interpreter) per traced run.
IMPORT_SAMPLES = 7


class Ledger:
    """Operations attempted and failed: CLI invocations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems) -> bool:
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))
        return not problems


def _bail(signum, frame):
    raise SystemExit(128 + signum)


def provenance(workload, seed: int, traced: bool) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "preset": workload.preset,
        "dataset_seed": workload.dataset_seed,
        "seed": seed,
        "traced": traced,
    }


def more_time(start: float, seconds: float, done: int) -> bool:
    """Whether another loop iteration fits the window.

    The next iteration is assumed to take as long as the mean so far;
    it runs if it would end less than half an iteration past the end
    of the window, so the measured time is ``seconds`` on average.
    """
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / max(done, 1) < seconds


def _summary(values) -> str:
    """Median, plus the tail percentile the sample count supports."""
    from tracing import percentile, tail_percentile

    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    if n >= 20:
        pct = tail_percentile(n)
        text += f", p{pct} {percentile(values, pct):.6g}"
    return text + ")"


@contextlib.contextmanager
def environ(env: dict):
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def reference_status(workload, spec: dict, directory: Path, env: dict) -> str:
    """Status text of an uninterrupted in-process run of ``spec``."""
    from repro.orchestrator.campaign import CampaignSpec, run_campaign

    with environ(env):
        status = run_campaign(CampaignSpec.from_dict(spec), directory=directory)
    return json.dumps(status, indent=2, sort_keys=True) + "\n"


def check_campaign(ledger, label, status_text, expected, reference) -> dict | None:
    from oracle import check_status

    try:
        status = json.loads(status_text)
    except ValueError:
        ledger.check(f"{label} status", [f"unparseable: {status_text[:200]!r}"])
        return None
    ledger.check(f"{label} oracle", check_status(status, expected))
    ledger.check(
        f"{label} reference",
        [] if status_text == reference else ["status differs from the reference run"],
    )
    return status


def traffic(status: dict) -> tuple[float, float]:
    """(footprint_frac, host_coverage) of a finished campaign."""
    waves = status["waves"]
    footprint = status["totals"]["probes_sent"] / (
        len(waves) * status["announced_addresses"]
    )
    coverage = sum(w["responses"] for w in waves) / sum(
        w["responsive_hosts"] for w in waves
    )
    return footprint, coverage


def measure(workload, seed, seconds, tmp, env, expected, reference, ledger):
    """Fresh-process campaigns for ``seconds``; end-to-end metrics.

    One untimed warm-up campaign runs first.  Each timed campaign is
    followed by one extra fresh-process ``plan``: the short, noisy
    ``setup_s`` gets two samples per campaign.
    """
    from fresh import run_campaign_cli, run_step

    samples = {k: [] for k in ("campaign_s", "setup_s", "probes_per_s", "resume_s", "peak_rss_mb")}
    traffic_of = None
    start = None
    n = i = 0
    while start is None or n < 3 or more_time(start, seconds, n):
        i += 1
        directory = tmp / f"c{i}"
        run = run_campaign_cli(workload, seed, directory, env)
        ledger.attempted += len(run.steps)
        ledger.failures += [f"campaign {i} {p}" for p in run.problems]
        status = check_campaign(ledger, f"campaign {i}", run.status_text, expected, reference)
        if start is not None:
            extra = run_step("plan", workload.plan_argv(str(tmp / f"p{i}"), seed), env, tmp / f"c{i}.logs")
            if ledger.check(f"extra plan {i}", [f"exit {extra.returncode}"] if extra.returncode else []):
                samples["setup_s"].append(extra.wall_s)
        shutil.rmtree(directory, ignore_errors=True)
        shutil.rmtree(tmp / f"p{i}", ignore_errors=True)
        if start is None:
            start = time.perf_counter()  # the warm-up is not timed
            continue
        n += 1
        if status is None or run.problems:
            continue
        steps = run.steps
        scanning = steps["run"].wall_s + steps["resume"].wall_s
        samples["campaign_s"].append(sum(s.wall_s for s in steps.values()))
        samples["setup_s"].append(steps["plan"].wall_s)
        samples["probes_per_s"].append(status["totals"]["probes_sent"] / scanning)
        samples["resume_s"].append(steps["resume"].wall_s)
        samples["peak_rss_mb"].append(max(s.peak_rss_mb for s in steps.values()))
        traffic_of = traffic(status)
    if traffic_of is None:
        return {}, samples
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["footprint_frac"], metrics["host_coverage"] = traffic_of
    return metrics, samples


def _fresh_caches() -> None:
    """Drop in-process memo tables so each in-process campaign starts
    as cold as a fresh process would."""
    import repro.scan.permutation as permutation
    from repro.bgp.backends import COUNT_CACHE

    COUNT_CACHE.clear()
    for value in vars(permutation).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    gc.collect()


def inprocess_campaign(workload, seed, directory: Path, env: dict, rec=None):
    """The CLI sequence through ``cli.main`` in this process.

    Returns (status text, wall seconds, problems).
    """
    from repro.orchestrator.cli import main
    from repro.orchestrator.storage_faults import SimulatedCrash

    handlers = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
    problems = []
    start = time.perf_counter()
    for name, argv, step_environ, must_die in workload.steps(str(directory), seed, env):
        out = io.StringIO()
        span = rec.span(f"cli.{name}") if rec is not None else contextlib.nullcontext()
        with environ(step_environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), span:
            try:
                code = main(argv)
            except SimulatedCrash:
                code = None
            # Finalise what the crash abandoned (the executor generator
            # and its fleet) inside the step's span.
            gc.collect()
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
        if code != (None if must_die else 0):
            problems.append(f"{name}: exit {code}")
    return out.getvalue(), time.perf_counter() - start, problems


def startup_import_s() -> float:
    """Median fresh ``import repro.orchestrator.cli`` minus a bare start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    diffs = []
    for _ in range(IMPORT_SAMPLES):
        times = []
        for code in ("pass", "import repro.orchestrator.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
        diffs.append(times[1] - times[0])
    return statistics.median(diffs)


def trace(workload, seed, seconds, tmp, env, expected, reference, ledger):
    """Per-layer metrics: traced in-process campaigns, interleaved with
    untraced ones for the tracing overhead."""
    from tracing import Recorder, instrument, layer_metrics, median_metrics

    metrics = {"startup.import_s": startup_import_s()}
    n = 0

    def campaign(rec=None):
        nonlocal n
        n += 1
        directory = tmp / f"t{n}"
        _fresh_caches()
        if rec is None:
            result = inprocess_campaign(workload, seed, directory, env)
        else:
            with instrument(rec):
                result = inprocess_campaign(workload, seed, directory, env, rec)
        text, wall, problems = result
        ledger.attempted += len(workload.steps("", seed, env))
        ledger.failures += [f"in-process campaign {n} {p}" for p in problems]
        check_campaign(ledger, f"in-process campaign {n}", text, expected, reference)
        return wall, directory

    shutil.rmtree(campaign()[1], ignore_errors=True)  # warm-up: imports and page cache
    traced, untraced, layers = [], [], []
    start = time.perf_counter()
    while not traced or more_time(start, seconds, len(traced)):
        wall, directory = campaign()
        untraced.append(wall)
        shutil.rmtree(directory, ignore_errors=True)
        rec = Recorder()
        wall, directory = campaign(rec)
        traced.append(wall)
        layers.append(layer_metrics(rec, wall, directory / "events.jsonl"))
        shutil.rmtree(directory, ignore_errors=True)
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        rec.dump(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")
    metrics.update(median_metrics(layers))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.campaigns"] = len(traced)
    return metrics, {}


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` from
    ``BENCHMARK.json`` — the single list of metrics a run must emit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_all(workloads, argv) -> int:
    """``--workload all``: each workload in turn, in its own process.

    Relays every report line prefixed with the workload name and ends
    with one JSON object whose metrics are keyed ``<workload>/<metric>``.
    """
    index = argv.index("--workload")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        args = [*argv[:index], "--workload", name, *argv[index + 2:]]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr[-800:]}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or all"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "orchestrator" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, argv if argv is not None else sys.argv[1:])
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, _bail)

    from fresh import run_step, step_env
    from oracle import expected_waves
    from repro.census.loader import get_dataset

    data_dir = WORK / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    # Scratch files of the program (worker stderr tails) stay inside
    # the checkout too, in this process and in every step.
    tempfile.tempdir = str(tmp)
    env = step_env(ROOT, data_dir, dict(workload.env, TMPDIR=str(tmp)))
    ledger = Ledger()
    samples = {}
    try:
        # Users pay dataset generation and bytecode compilation once:
        # never inside a timing.
        with environ(env):
            dataset = get_dataset(
                preset=workload.preset, seed=workload.dataset_seed
            )
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            check=True,
        )
        (tmp / "plan.logs").mkdir()
        step = run_step(
            "plan",
            workload.plan_argv(str(tmp / "plan"), args.seed),
            env,
            tmp / "plan.logs",
        )
        ledger.attempted += 1
        if step.returncode != 0:
            print(f"error: plan exited {step.returncode}: {step.stderr[-800:]}", file=sys.stderr)
            return 1
        spec = json.loads((tmp / "plan" / "campaign.json").read_text())
        expected = expected_waves(spec, dataset)
        del dataset
        reference = reference_status(workload, spec, tmp / "reference", env)
        job = trace if args.trace else measure
        metrics, samples = job(
            workload, args.seed, args.seconds, tmp, env, expected, reference, ledger
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = provenance(workload, args.seed, bool(args.trace))
    print("provenance " + json.dumps(info, sort_keys=True))
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    failed = len(ledger.failures)
    print(
        f"failed_frac {failed / ledger.attempted:.6g} "
        f"({failed}/{ledger.attempted} operations)"
    )
    missing = sorted(set(units) - set(metrics))
    if missing and not failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        if name in samples:
            print(f"{name} [{unit}] {_summary(samples[name])}")
        elif name in metrics:
            print(f"{name} [{unit}] {metrics[name]:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
