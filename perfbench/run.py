"""maxbv benchmark: time to a verdict for three Monte Carlo workloads.

    python3 perfbench/run.py --workload chain|census|walks --seed N \
        --seconds S --trace 0|1

Run from the root of a maxbv checkout.  Each pass starts a fresh process
that calls ``maxbv.cli.main(["run", "--config", <generated ini>, "--seed",
N, "--workers", W, "--out", DIR])``; passes repeat until ``--seconds`` is
spent.  Every pass is checked: the exit code against the gate verdicts of
``manifest.json``, each verdict against its value, reference and tolerance,
and every result CSV against the first pass byte for byte.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes, runs the layer
microbenchmark and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  See README.md
for the metrics and what tracing from outside cannot see.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import operator
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, all_exp_ids, write_config

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
DEADLINE_S = 170.0  # every run ends well inside 180 s
MIN_PASSES = 2  # byte identity needs two passes of one seed
MIN_SETUPS = 6

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "se_geomean": "1",
}

PER_LAYER = {
    "paths.tables_s": "s",
    "paths.tables_ns_per_node": "ns",
    "paths.tables_calls": "count",
    "paths.split_stats_s": "s",
    "paths.split_stats_ns_per_node": "ns",
    "paths.top_two_gap_s": "s",
    "paths.wiener_s": "s",
    "sampling.batch_s": "s",
    "sampling.batch_nodes": "count",
    "sampling.batch_ns_per_node": "ns",
    "sampling.task_s": "s",
    "sampling.fold_s": "s",
    "sampling.driver_s": "s",
    "sampling.chunks": "count",
    "sampling.pool_busy": "ratio",
    "sampling.pool_wait_s": "s",
    "cylindrical.eval_s": "s",
    "cylindrical.calls": "count",
    "malliavin.adjoint2_self_s": "s",
    "malliavin.kernel_weights_s": "s",
    "malliavin.statistic_self_s": "s",
    "malliavin.kernel_eff_ratio": "ratio",
    "concentration.statistic_self_s": "s",
    "concentration.conditioned_ratio": "ratio",
    "fluctuation.statistic_self_s": "s",
    "perimeter.statistic_self_s": "s",
    "fluctuation.exact_s": "s",
    "perimeter.exact_s": "s",
    "density.quad_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes": "B",
    "cli.config_s": "s",
    "trace.overhead": "ratio",
    **{f"experiments.{exp_id}_s": "s" for exp_id in all_exp_ids()},
    "micro.brownian_values_batch_ns_per_node": "ns",
    "micro.running_max_tables_ns_per_node": "ns",
    "micro.top_two_gap_ns_per_node": "ns",
    "micro.segment_split_stats_ns_per_node": "ns",
    "micro.second_adjoint_batch_ns_per_node": "ns",
    "micro.mc_collect_chunk_us": "us",
}

_REF_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, a child that hung)."""


@dataclass
class Child:
    """A finished child process, measured from outside."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    report: dict = field(default_factory=dict)


@dataclass
class Checks:
    """Output checks accumulated over the passes of one run."""

    total: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    se: list[float] = field(default_factory=list)
    env: dict = field(default_factory=dict)


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = write_config(workload, self.work / f"{workload.name}.ini")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.passes = 0

    def spawn(self, args: list[str], log: Path) -> tuple[Child, float]:
        """Run ``python args`` with output to ``log``; returns the child,
        measured from outside, and the CLOCK_MONOTONIC time it was spawned."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        killed = threading.Event()
        with open(log, "w", encoding="utf-8") as fp:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.root, env=self.env,
                stdout=fp, stderr=subprocess.STDOUT,
            )

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"child killed at the deadline: {' '.join(args)}")
        child = Child(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        return child, start

    def run_pass(self, trace: bool = False, setup_only: bool = False):
        """One CLI run of the workload; returns (child, setup seconds, out dir)."""
        self.passes += 1
        out = self.work / f"pass-{self.passes}"
        out.mkdir()
        args = [
            str(HERE / "child.py"), str(out / "report.json"),
            "--config", str(self.config), "--seed", str(self.seed),
            "--workers", str(self.workload.workers), "--out", str(out),
        ]
        if trace:
            args.append("--trace")
        if setup_only:
            args.append("--setup-only")
        child, start = self.spawn(args, out / "stdout.txt")
        if (out / "report.json").exists():
            child.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        first = child.report.get("first_experiment")
        setup = first - start if first is not None else None
        return child, setup, out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def derived_verdict(row: dict) -> bool:
    """The verdict a gated row must carry, from its value and reference."""
    value, ref, tol = row["value"], row["reference"], row["tolerance"]
    if isinstance(ref, str):
        match = re.fullmatch(r"(>=|<=|>|<)(.+)", ref)
        if match is None:
            raise ValueError(f"unrecognised reference {ref!r}")
        return bool(_REF_OPS[match.group(1)](value, float(match.group(2))))
    if isinstance(ref, bool) or isinstance(value, bool):
        return value == ref
    return abs(value - ref) <= tol


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_pass(checks: Checks, workload: Workload, child: Child, out: Path) -> None:
    """Fold one pass's outputs into ``checks``."""
    expected = [e.exp_id for e in workload.experiments]
    manifest_path = out / "manifest.json"
    if child.code not in (0, 1) or not manifest_path.exists():
        checks.problems.append(
            f"{out.name}: exit code {child.code}, manifest "
            f"{'present' if manifest_path.exists() else 'missing'}"
        )
        # an experiment that raised counts as one failed check
        checks.total += len(expected)
        checks.failed += len(expected)
        return
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    got = [e["experiment"] for e in manifest["experiments"]]
    if got != expected:
        checks.problems.append(f"{out.name}: experiments {got} != {expected}")
    all_passed = True
    se = []
    for exp in manifest["experiments"]:
        if not exp["rows"]:
            checks.problems.append(f"{out.name}: {exp['experiment']} has no rows")
        for row in exp["rows"]:
            if row["passed"] is None:
                continue
            checks.total += 1
            if not row["passed"]:
                checks.failed += 1
                all_passed = False
            if derived_verdict(row) != row["passed"]:
                checks.problems.append(
                    f"{out.name}: {exp['experiment']}/{row['check']} verdict "
                    f"{row['passed']} disagrees with value {row['value']!r}"
                )
            if row["std_error"] is not None and row["std_error"] > 0:
                se.append(row["std_error"])
        if not (out / f"{exp['experiment']}.csv").exists():
            checks.problems.append(f"{out.name}: {exp['experiment']}.csv missing")
    if all_passed != (child.code == 0):
        checks.problems.append(
            f"{out.name}: exit code {child.code} but all gates passed={all_passed}"
        )
    digest = csv_digest(out)
    if checks.digest is None:
        checks.digest = digest
        checks.se = se
        checks.env = {"rng": manifest["rng"], "master_seed": manifest["master_seed"]}
    elif digest != checks.digest:
        checks.problems.append(f"{out.name}: result CSVs differ from the first pass")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def environment(seed: int, extra: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload_seed": seed,
        **extra,
    }
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            env[dist] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            info = dict(
                (k.strip(), v.strip())
                for k, _, v in (line.partition(":") for line in fp)
                if v
            )
        env["cpu_model"] = info.get("model name")
        env["cache_size"] = info.get("cache size")
    except OSError:
        pass
    return env


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, Checks]:
    """Repeat passes for ``seconds``; returns metrics and the output checks."""
    checks = Checks()
    untraced: list[Child] = []
    traced: list[Child] = []
    setups: list[float] = []
    start = time.monotonic()

    # untimed warm-up: byte-compiles src/ and loads the imports into the page cache
    runner.run_pass(setup_only=True)

    def one_pass(with_trace: bool) -> None:
        child, setup, out = runner.run_pass(trace=with_trace)
        check_pass(checks, runner.workload, child, out)
        (traced if with_trace else untraced).append(child)
        if setup is not None and not with_trace:
            setups.append(setup)
        shutil.rmtree(out)

    while True:
        one_pass(False)
        if trace:
            one_pass(True)
        done = [c.wall for c in untraced + traced]
        next_pass = statistics.median(done) * (2 if trace else 1)
        now = time.monotonic()
        if len(untraced) >= MIN_PASSES and now - start + next_pass > seconds:
            break
        if now + 1.5 * next_pass > runner.deadline:
            break
    if trace:
        metrics = traced_metrics(runner, untraced, traced)
    else:
        while len(setups) < MIN_SETUPS and time.monotonic() + 10 < runner.deadline:
            child, setup, out = runner.run_pass(setup_only=True)
            if child.code == 0 and setup is not None:
                setups.append(setup)
            shutil.rmtree(out)
        if not setups or not checks.se:
            raise BenchError("no pass reached its first experiment or a standard error")
        metrics = {
            "wall_s": statistics.median(c.wall for c in untraced),
            "cpu_s": statistics.median(c.cpu for c in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c.rss_mb for c in untraced),
            "se_geomean": math.exp(statistics.fmean(math.log(s) for s in checks.se)),
        }
        print(f"passes: {len(untraced)} untraced; setup samples: {len(setups)}")
        print("wall_s per pass: " + ", ".join(f"{c.wall:.3f}" for c in untraced))
    return metrics, checks


def traced_metrics(runner: Runner, untraced: list[Child], traced: list[Child]) -> dict:
    layer: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    reports = [c.report.get("metrics", {}) for c in traced]
    for name in {k for r in reports for k in r}:
        layer[name] = statistics.median(r.get(name, 0.0) for r in reports)
    layer["trace.overhead"] = (
        statistics.median(c.wall for c in traced)
        / statistics.median(c.wall for c in untraced) - 1.0
    )
    micro_log = runner.work / "micro.txt"
    child, _ = runner.spawn([str(HERE / "micro.py"), str(runner.seed)], micro_log)
    if child.code != 0:
        raise BenchError(f"microbenchmark failed, see {micro_log}")
    lines = micro_log.read_text(encoding="utf-8").strip().splitlines()
    layer.update(json.loads(lines[-1]))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "maxbv" / "__init__.py").is_file():
        print(f"error: {root} is not a maxbv checkout (no src/maxbv)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    runner = Runner(root, WORKLOADS[args.workload], args.seed, deadline)
    try:
        metrics, checks = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env = environment(args.seed, checks.env)
    if checks.total == 0:
        checks.problems.append("no gated check ran")
    correct = not checks.problems
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"csv sha256 ({args.workload}, seed {args.seed}): {checks.digest}")
    share = checks.failed / checks.total if checks.total else float("nan")
    print(f"fail_share: {share:.4f} (checks_failed {checks.failed}, "
          f"checks_total {checks.total})")
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": max(checks.total, 1),
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    saved = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({**result, "env": env, "csv_sha256": checks.digest,
                                 "problems": checks.problems}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
