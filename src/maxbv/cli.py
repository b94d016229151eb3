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

#: A manifest row: the result-CSV columns less the experiment's own id and
#: fingerprint, which the manifest records once per experiment.
_MANIFEST_ROW = tuple(k for k in ResultRow.HEADER if k not in ("experiment", "fingerprint"))

#: The report columns: the result-CSV columns with the number of merged
#: runs after the pooled sample count.
_RUNS_AT = ResultRow.HEADER.index("samples") + 1
_REPORT_HEADER = ResultRow.HEADER[:_RUNS_AT] + ("runs",) + ResultRow.HEADER[_RUNS_AT:]


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
                    {k: _jsonable(v) for k, v in zip(ResultRow.HEADER, r.cells())
                     if k in _MANIFEST_ROW}
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
    results = run_suite(specs, master_seed, workers)
    ok = _write_outputs(out_dir, results, specs, master_seed, workers)
    _print_rows(results)
    print(f"wrote {out_dir}/manifest.json")
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the quick preset as one group and print its rows, or the full
    preset criterion by criterion, printing each criterion's verdict as soon
    as it finishes."""
    master_seed = _run_option("seed", _override(args.seed, DEFAULT_MASTER_SEED))
    workers = _run_option("workers", _override(args.workers, 1))
    out_dir = _resolve_out(args.out, None)
    if args.preset == "quick":
        groups = [(None, "", quick_preset())]
    else:
        groups = [(c.number, c.title, c.experiments) for c in acceptance_criteria()]
    specs: list[ExperimentSpec] = []
    results: dict[str, ExperimentResult] = {}
    for number, title, group in groups:
        done = run_suite(group, master_seed, workers)
        specs += group
        if number is not None:
            passed = all(r.passed for r in done.values())
            print(f"criterion {number:>2}: {'PASS' if passed else 'FAIL'}  {title}")
        results.update(done)
    ok = _write_outputs(out_dir, results, specs, master_seed, workers)
    if args.preset == "quick":
        _print_rows(results)
    print(f"verify {args.preset}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_numbers(row: dict) -> None:
    """Reject a manifest row whose numeric fields hold something else; a row
    with a standard error has a numeric value too."""
    keys = ("std_error", "tolerance", "samples")
    if row["std_error"] is not None:
        keys += ("value",)
    for key in keys:
        if row[key] is not None and not _is_number(row[key]):
            raise TypeError(f"row {row['check']!r}: {key} {row[key]!r} is not a number")


def _merge_manifest(
    manifest: dict, merged: dict, params_by_fp: dict, series_out: dict
) -> None:
    """Fold one manifest's rows into ``merged``, keyed by (fingerprint,
    check), and its series into ``series_out``."""
    for exp in manifest["experiments"]:
        fp = exp["fingerprint"]
        if fp in params_by_fp and params_by_fp[fp] != exp["params"]:
            raise ValueError(f"fingerprint collision for {fp} with differing parameters")
        params_by_fp[fp] = exp["params"]
        for row in exp["rows"]:
            _check_numbers(row)
            # the first run's row, with no verdict and no samples yet
            slot = merged.setdefault(
                (fp, row["check"]),
                {**{k: row[k] for k in _MANIFEST_ROW},
                 "experiment": exp["experiment"], "fingerprint": fp,
                 "passed": None, "samples": None, "values": [], "ses": []},
            )
            slot["values"].append(row["value"])
            slot["ses"].append(row["std_error"])
            # a row no run gated, or no run sampled, stays empty
            if row["passed"] is not None:
                slot["passed"] = slot["passed"] is not False and bool(row["passed"])
            if row["samples"] is not None:
                slot["samples"] = (slot["samples"] or 0) + row["samples"]
        for name, series in exp.get("series", {}).items():
            series_out.setdefault(f"{exp['experiment']}__{name}", series)


def cmd_report(args: argparse.Namespace) -> int:
    merged: dict[tuple[str, str], dict] = {}
    params_by_fp: dict[str, dict] = {}
    series_out: dict[str, dict] = {}
    for path in args.manifests:
        p = Path(path)
        if not p.exists():
            print(f"error: manifest not found: {p}", file=sys.stderr)
            return 2
        try:
            with open(p, encoding="utf-8") as fp:
                _merge_manifest(json.load(fp), merged, params_by_fp, series_out)
        except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: {p}: {reason}", file=sys.stderr)
            return 2
    out_dir = _resolve_out(args.out, None)  # made only once every manifest loaded

    rows = []
    for slot in merged.values():
        runs = len(slot["values"])
        if all(_is_number(v) for v in slot["values"]):
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
        merged_row = {**slot, "value": value, "std_error": se, "runs": runs}
        rows.append([merged_row[k] for k in _REPORT_HEADER])
    write_csv(out_dir / "report.csv", _REPORT_HEADER, rows)
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
    except MaxBVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
