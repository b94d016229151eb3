"""Command-line front door: run experiments from a config file, merge run
manifests into report files, and execute the verification presets.

Verbs:
    maxbv run    --config PATH [--out DIR] [--seed U64] [--workers N]
    maxbv report MANIFEST [MANIFEST ...] [--out DIR]
    maxbv verify [--preset quick|full] [--out DIR] [--seed U64] [--workers N]

Result CSVs are deterministic for a given config and build (repr-formatted
floats, no timestamps); the JSON manifest carries the timestamp and full
provenance.  The MAXBV_OUT environment variable overrides the default
output directory.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import filecmp
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, MaxBVError
from .experiments import (
    DEFAULT_MASTER_SEED,
    OPERATIONS,
    ExperimentSpec,
    acceptance_criteria,
    quick_preset,
    run_experiment,
    run_suite,
    validate_params,
)
from .reporting import (
    ExperimentResult,
    ResultRow,
    format_cell,
    stable_fingerprint,
    write_csv,
    write_result_csv,
)
from .sampling import RNG_ALGORITHM

_ENV_OUT = "MAXBV_OUT"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def load_config(path: Path) -> tuple[dict, list[ExperimentSpec]]:
    """Parse a key = value config with a [run] section and one
    [experiment:<id>] section per experiment; unknown keys are rejected.
    Values are taken literally: '%' has no interpolation meaning."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    run_opts = {"seed": DEFAULT_MASTER_SEED, "workers": 1, "out": None}
    specs: list[ExperimentSpec] = []
    for section in parser.sections():
        if section == "run":
            for key, value in parser.items("run"):
                if key in ("seed", "workers"):
                    run_opts[key] = _run_option(key, value)
                elif key == "out":
                    run_opts["out"] = value
                else:
                    raise ConfigError(f"run/{key}: unknown key")
        elif section.startswith("experiment:"):
            exp_id = section.split(":", 1)[1].strip()
            if not exp_id:
                raise ConfigError(f"[{section}]: empty experiment id")
            items = dict(parser.items(section))
            operation = items.pop("operation", None)
            where = f"experiment:{exp_id}"
            if operation is None:
                raise ConfigError(f"{where}/operation: required key missing")
            if operation not in OPERATIONS:
                known = ", ".join(sorted(OPERATIONS))
                raise ConfigError(
                    f"{where}/operation: unknown operation {operation!r} "
                    f"(known: {known})"
                )
            validate_params(OPERATIONS[operation], items, where)  # fail early
            specs.append(
                ExperimentSpec(
                    exp_id=exp_id,
                    operation=operation,
                    params=items,
                    stream=10 * len(specs),
                )
            )
        else:
            raise ConfigError(f"[{section}]: unknown section")
    if not specs:
        raise ConfigError("config selects no experiments")
    ids = [s.exp_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate experiment ids in config")
    return run_opts, specs


#: Smallest accepted value of each integer [run] option.
_RUN_MINIMUM = {"seed": 0, "workers": 1}


def _run_option(key: str, value) -> int:
    """A [run] seed or worker count (from the config or the command line),
    parsed and range-checked."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"run/{key}: expected an integer, got {value!r}") from None
    if number < _RUN_MINIMUM[key]:
        raise ConfigError(f"run/{key}: must be >= {_RUN_MINIMUM[key]}")
    return number


def _override(cli_value, default):
    return default if cli_value is None else cli_value


def _resolve_out(cli_out: str | None, config_out: str | None) -> Path:
    out = cli_out or os.environ.get(_ENV_OUT) or config_out or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _write_outputs(
    out_dir: Path,
    results: dict[str, ExperimentResult],
    specs: list[ExperimentSpec],
    master_seed: int,
    workers: int,
) -> bool:
    spec_by_id = {s.exp_id: s for s in specs}
    manifest_experiments = []
    all_passed = True
    for exp_id, result in results.items():
        write_result_csv(out_dir / f"{exp_id}.csv", result.rows)
        for name, (header, rows) in result.series.items():
            write_csv(out_dir / f"{exp_id}__{name}.csv", header, rows)
        all_passed &= result.passed
        spec = spec_by_id[exp_id]
        manifest_experiments.append(
            {
                "experiment": exp_id,
                "operation": spec.operation,
                "params": {k: _jsonable(v) for k, v in spec.params.items()},
                "fingerprint": result.rows[0].fingerprint if result.rows else "",
                "rows": [
                    {
                        "check": r.check,
                        "value": _jsonable(r.value),
                        "std_error": r.std_error,
                        "reference": _jsonable(r.reference),
                        "tolerance": r.tolerance,
                        "passed": r.passed,
                        "samples": r.samples,
                        "seed": r.seed,
                    }
                    for r in result.rows
                ],
                "series": {
                    name: {"header": list(header), "rows": [list(map(_jsonable, row)) for row in rows]}
                    for name, (header, rows) in result.series.items()
                },
            }
        )
    manifest = {
        "tool": "maxbv",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        # streams are reproducible only on the same numpy build (NEP 19)
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "master_seed": master_seed,
        "workers": workers,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_fingerprint": stable_fingerprint(
            [
                {"experiment": s.exp_id, "operation": s.operation,
                 "params": {k: _jsonable(v) for k, v in s.params.items()},
                 "stream": s.stream}
                for s in specs
            ]
            + [master_seed]
        ),
        "experiments": manifest_experiments,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, default=str)
        fp.write("\n")
    return all_passed


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def _print_rows(results: dict[str, ExperimentResult]) -> None:
    for exp_id, result in results.items():
        for r in result.rows:
            if r.passed is None:
                verdict = "  -  "
            else:
                verdict = "PASS " if r.passed else "FAIL "
            ref = f" ref={format_cell(r.reference)}" if r.reference is not None else ""
            print(f"{verdict}{exp_id:<16} {r.check:<44} value={format_cell(r.value)}{ref}")


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    run_opts, specs = load_config(Path(args.config))
    master_seed = _run_option("seed", _override(args.seed, run_opts["seed"]))
    workers = _run_option("workers", _override(args.workers, run_opts["workers"]))
    out_dir = _resolve_out(args.out, run_opts["out"])
    try:
        results = run_suite(specs, master_seed, workers)
    except MaxBVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = _write_outputs(out_dir, results, specs, master_seed, workers)
    _print_rows(results)
    print(f"wrote {out_dir}/manifest.json")
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    master_seed = _run_option("seed", _override(args.seed, DEFAULT_MASTER_SEED))
    workers = _run_option("workers", _override(args.workers, 1))
    out_dir = _resolve_out(args.out, None)
    try:
        if args.preset == "quick":
            return _verify_quick(out_dir, master_seed, workers)
        return _verify_full(out_dir, master_seed, workers)
    except MaxBVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _verify_quick(out_dir: Path, master_seed: int, workers: int) -> int:
    specs = quick_preset()
    results = run_suite(specs, master_seed, workers)
    ok = _write_outputs(out_dir, results, specs, master_seed, workers)
    _print_rows(results)
    print(f"verify quick: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_full(out_dir: Path, master_seed: int, workers: int) -> int:
    criteria = acceptance_criteria()
    all_ok = True
    specs_flat: list[ExperimentSpec] = []
    results: dict[str, ExperimentResult] = {}
    for criterion in criteria:
        crit_ok = True
        for spec in criterion.experiments:
            result = run_experiment(spec, master_seed, workers)
            results[spec.exp_id] = result
            specs_flat.append(spec)
            crit_ok &= result.passed
        if criterion.number == 14:
            repro = reproducibility_check(master_seed, workers, out_dir)
            results["csv-reproducibility"] = repro
            specs_flat.append(
                ExperimentSpec("csv-reproducibility", "sampling.worker_invariance",
                               {}, 9999)
            )
            crit_ok &= repro.passed
        print(f"criterion {criterion.number:>2}: "
              f"{'PASS' if crit_ok else 'FAIL'}  {criterion.title}")
        all_ok &= crit_ok
    ok = _write_outputs(out_dir, results, specs_flat, master_seed, workers) and all_ok
    print(f"verify full: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def reproducibility_check(
    master_seed: int, workers: int, out_dir: Path
) -> ExperimentResult:
    """Run the quick preset twice into sibling directories and byte-compare
    every result CSV; also re-run with a different worker count."""
    dirs = [out_dir / "repro-a", out_dir / "repro-b"]
    worker_counts = [workers, workers, 8 if workers != 8 else 1]
    dirs.append(out_dir / "repro-w")
    specs = quick_preset()
    for d, w in zip(dirs, worker_counts):
        d.mkdir(parents=True, exist_ok=True)
        results = run_suite(specs, master_seed, w)
        _write_outputs(d, results, specs, master_seed, w)
    identical = True
    for csv_path in sorted(dirs[0].glob("*.csv")):
        for other in dirs[1:]:
            if not filecmp.cmp(csv_path, other / csv_path.name, shallow=False):
                identical = False
    result = ExperimentResult()
    result.rows.append(
        ResultRow(
            experiment="csv-reproducibility",
            check="quick-preset-csvs-byte-identical",
            value=identical,
            reference=True,
            tolerance=0.0,
            passed=identical,
            seed=f"{master_seed}/quick",
            fingerprint="",
        )
    )
    return result


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = _resolve_out(args.out, None)
    manifests = []
    for path in args.manifests:
        p = Path(path)
        if not p.exists():
            print(f"error: manifest not found: {p}", file=sys.stderr)
            return 2
        with open(p, encoding="utf-8") as fp:
            manifests.append(json.load(fp))

    merged: dict[tuple[str, str], dict] = {}
    params_by_fp: dict[str, dict] = {}
    series_out: dict[str, dict] = {}
    for manifest in manifests:
        for exp in manifest["experiments"]:
            fp = exp["fingerprint"]
            if fp in params_by_fp and params_by_fp[fp] != exp["params"]:
                print(
                    f"error: fingerprint collision for {fp} with differing "
                    f"parameters", file=sys.stderr,
                )
                return 2
            params_by_fp[fp] = exp["params"]
            for row in exp["rows"]:
                key = (fp, row["check"])
                slot = merged.setdefault(
                    key,
                    {
                        "experiment": exp["experiment"],
                        "check": row["check"],
                        "values": [],
                        "ses": [],
                        "reference": row["reference"],
                        "tolerance": row["tolerance"],
                        "passed": True,
                        "samples": 0,
                        "seed": row["seed"],
                        "fingerprint": fp,
                    },
                )
                slot["values"].append(row["value"])
                slot["ses"].append(row["std_error"])
                if row["passed"] is not None:
                    slot["passed"] &= bool(row["passed"])
                slot["samples"] += row["samples"] or 0
            for name, series in exp.get("series", {}).items():
                series_out.setdefault(f"{exp['experiment']}__{name}", series)

    rows = []
    for slot in merged.values():
        runs = len(slot["values"])
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in slot["values"]):
            value = sum(slot["values"]) / runs
            ses = [s for s in slot["ses"] if s is not None]
            se = (sum(s * s for s in ses) ** 0.5 / runs) if ses else None
        else:
            if any(v != slot["values"][0] for v in slot["values"]):
                print(
                    f"error: non-numeric values disagree across runs for "
                    f"{slot['experiment']}/{slot['check']}", file=sys.stderr,
                )
                return 2
            value, se = slot["values"][0], None
        rows.append(
            (
                slot["experiment"], slot["check"], value, se, slot["reference"],
                slot["tolerance"], slot["passed"], slot["samples"], runs,
                slot["seed"], slot["fingerprint"],
            )
        )
    write_csv(
        out_dir / "report.csv",
        (
            "experiment", "check", "value", "std_error", "reference",
            "tolerance", "passed", "samples", "runs", "seed", "fingerprint",
        ),
        rows,
    )
    for name, series in series_out.items():
        write_csv(out_dir / f"{name}.csv", series["header"], series["rows"])
    print(f"wrote {out_dir}/report.csv and {len(series_out)} series files")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxbv",
        description="Numerical verification toolkit for the Brownian running maximum",
    )
    parser.add_argument("--version", action="version", version=f"maxbv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="merge manifests into report files")
    p_rep.add_argument("manifests", nargs="+", help="manifest.json paths")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)

    p_ver = sub.add_parser("verify", help="run a verification preset")
    p_ver.add_argument("--preset", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--workers", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
