"""Config parsing, the run/report/verify verbs, and output determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import maxbv
from maxbv import experiments, fluctuation
from maxbv import cli
from maxbv.cli import load_config, main
from maxbv.errors import ConfigError, InsufficientSamplesError
from maxbv.experiments import (
    _PRESETS,
    _REQUIRED,
    OPERATIONS,
    _floats,
    _ints,
    acceptance_criteria,
    quick_preset,
    run_experiment,
    validate_params,
)
from maxbv.sampling import SeedSpec

GOOD_CONFIG = """
[run]
seed = 99
workers = 1

[experiment:andersen]
operation = fluctuation.andersen_series
order = 16

[experiment:stay]
operation = fluctuation.mc_halfline
n = 1,10
samples = 20000
"""


def write(tmp_path: Path, text: str, name: str = "config.ini") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        run_opts, specs = load_config(write(tmp_path, GOOD_CONFIG))
        assert run_opts["seed"] == 99
        assert [s.exp_id for s in specs] == ["andersen", "stay"]
        assert specs[0].stream != specs[1].stream

    def test_unknown_key_rejected_with_path(self, tmp_path):
        bad = GOOD_CONFIG.replace("order = 16", "order = 16\ntypo_key = 3")
        with pytest.raises(ConfigError, match="andersen/typo_key"):
            load_config(write(tmp_path, bad))

    def test_unknown_operation_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace(
            "fluctuation.andersen_series", "fluctuation.nonexistent"
        )
        with pytest.raises(ConfigError, match="andersen/operation"):
            load_config(write(tmp_path, bad))

    def test_missing_required_param(self, tmp_path):
        bad = GOOD_CONFIG.replace("samples = 20000", "")
        with pytest.raises(ConfigError, match="stay/samples"):
            load_config(write(tmp_path, bad))

    def test_empty_experiment_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no experiments"):
            load_config(write(tmp_path, "[run]\nseed = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, GOOD_CONFIG + "\n[mystery]\nx = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("text", [
        "n = 5\n",  # no section header
        "[experiment:a]\noperation = density.riemann\nn = 10\nn = 20\n",
    ])
    def test_malformed_file_is_a_config_error(self, tmp_path, text):
        with pytest.raises(ConfigError, match="config.ini: "):
            load_config(write(tmp_path, text))


class TestRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        config = write(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "andersen.csv").exists()
        assert (out / "andersen__coefficients.csv").exists()
        assert (out / "stay.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        assert {e["experiment"] for e in manifest["experiments"]} == {"andersen", "stay"}

    def test_manifest_records_build(self, tmp_path):
        # Generator streams are reproducible only on the same numpy version
        out = tmp_path / "out"
        main(["run", "--config", str(write(tmp_path, GOOD_CONFIG)), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng"] == "numpy-default_rng-PCG64"
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == "{}.{}.{}".format(*sys.version_info[:3])

    def test_empty_config_exits_nonzero(self, tmp_path, capsys):
        config = write(tmp_path, "[run]\nseed = 1\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        config = write(tmp_path, GOOD_CONFIG)
        env_out = tmp_path / "env-out"
        monkeypatch.setenv("MAXBV_OUT", str(env_out))
        assert main(["run", "--config", str(config)]) == 0
        assert (env_out / "manifest.json").exists()

    def test_deterministic_csvs(self, tmp_path):
        config = write(tmp_path, GOOD_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config), "--out", str(out1)])
        main(["run", "--config", str(config), "--out", str(out2)])
        for f in out1.glob("*.csv"):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_fault_injection_names_failing_check(self, tmp_path, monkeypatch, capsys):
        # a corrupted exact value must fail its Monte Carlo cross-check
        monkeypatch.setattr(
            fluctuation, "halfline_prob_exact", lambda n: Fraction(9, 10)
        )
        config = write(tmp_path, GOOD_CONFIG)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "stay-below-n10" in printed

    def test_chain_run_does_not_import_scipy(self, tmp_path):
        # scipy is a test dependency only: a run must not load it
        config = write(tmp_path, """
[run]
seed = 7
workers = 1

[experiment:chain]
operation = malliavin.chain_vs_weak
n = 200
samples = 3000
nodes = 24

[experiment:adjoint2]
operation = malliavin.adjoint2_zero
n = 64
samples = 2000
""")
        out = tmp_path / "out"
        assert _scipy_modules_after_run(config, out) == "[]"
        assert (out / "chain.csv").exists() and (out / "adjoint2.csv").exists()

    def test_quadrature_and_pvalue_run_does_not_import_scipy(self, tmp_path):
        # the quadrature rows, the chi-square p-value and the reflection
        # reference are computed in-house
        config = write(tmp_path, """
[run]
seed = 7
workers = 1

[experiment:lt-zero]
operation = density.lt_zero

[experiment:limit]
operation = density.limit_integral

[experiment:argmax]
operation = fluctuation.bridge_argmax
n = 10
samples = 2000

[experiment:moments]
operation = sampling.moments
brownian_n = 50
samples = 2000
""")
        out = tmp_path / "out"
        assert _scipy_modules_after_run(config, out) == "[]"
        for exp_id in ("lt-zero", "limit", "argmax", "moments"):
            assert (out / f"{exp_id}.csv").exists()


def _scipy_modules_after_run(config: Path, out: Path) -> str:
    """Run ``maxbv run`` in a fresh interpreter and return the printed list of
    the scipy modules it loaded."""
    script = (
        "import sys\n"
        "import maxbv.cli\n"
        f"code = maxbv.cli.main(['run', '--config', {str(config)!r}, "
        f"'--out', {str(out)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(maxbv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestBadRunOptions:
    """Bad [run] input exits 2 and names its field path, from the config or
    from the command line, for run and verify alike."""

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "abc", "run/seed: expected an integer"),
        ("seed", "-1", "run/seed: must be >= 0"),
        ("workers", "0", "run/workers: must be >= 1"),
        ("workers", "two", "run/workers: expected an integer"),
    ])
    def test_config_value(self, tmp_path, capsys, key, value, message):
        good = {"seed": "seed = 99", "workers": "workers = 1"}[key]
        config = write(tmp_path, GOOD_CONFIG.replace(good, f"{key} = {value}"))
        with pytest.raises(ConfigError, match=message):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "verify"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "run/workers: must be >= 1"),
        ("--seed", "-5", "run/seed: must be >= 0"),
    ])
    def test_command_line_value(self, tmp_path, capsys, verb, flag, value, message):
        argv = [verb, "--out", str(tmp_path / "o"), flag, value]
        if verb == "run":
            argv += ["--config", str(write(tmp_path, GOOD_CONFIG))]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_reports_toolkit_errors(self, tmp_path, capsys, monkeypatch, verb):
        def fail(*args, **kwargs):
            raise InsufficientSamplesError("only 3 effective samples")

        monkeypatch.setattr(cli, "run_suite", fail)
        argv = [verb, "--out", str(tmp_path / "o")]
        if verb == "run":
            argv += ["--config", str(write(tmp_path, GOOD_CONFIG))]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: only 3 effective samples\n"
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestBadExperimentParams:
    """Out-of-range experiment parameters exit 2 and name their field path;
    a tuple parameter is checked element by element."""

    @pytest.mark.parametrize("operation, n, n_minimum", [
        ("concentration.unique_max", "50", 1),
        ("fluctuation.mc_bridge_stay", "2,5", 2),
    ])
    @pytest.mark.parametrize("key, value", [
        ("n", "0"), ("samples", "0"), ("samples", "1"),
    ])
    def test_below_minimum(
        self, tmp_path, capsys, operation, n, n_minimum, key, value
    ):
        params = {"n": n, "samples": "2000", key: value}
        config = write(tmp_path, f"""
[experiment:edge]
operation = {operation}
n = {params["n"]}
samples = {params["samples"]}
""")
        minimum = n_minimum if key == "n" else 2
        message = f"experiment:edge/{key}: must be >= {minimum}"
        with pytest.raises(ConfigError, match=message):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_tuple_checked_per_element(self, tmp_path):
        config = write(tmp_path, """
[experiment:edge]
operation = fluctuation.mc_bridge_stay
n = 2,1,10
samples = 2000
""")
        with pytest.raises(ConfigError, match="experiment:edge/n: must be >= 2"):
            load_config(config)

    def test_empty_list_rejected(self, tmp_path, capsys):
        # an empty list would run no check at all and exit 0
        config = write(tmp_path, "[experiment:edge]\noperation = fluctuation.mc_halfline"
                                 "\nn = ,\nsamples = 2000\n")
        message = "experiment:edge/n: needs at least one value"
        with pytest.raises(ConfigError, match=message):
            load_config(config)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("operation = malliavin.chain_vs_weak\nn = 20\nsamples = 2000",
         "experiment:edge/n: grid too coarse for 24 distinct interior nodes"),
        ("operation = malliavin.chain_vs_weak\nn = 200\nnodes = 0\nsamples = 2000",
         "experiment:edge/nodes: must be >= 1"),
        ("operation = density.tv_bound\nn = 100",
         "experiment:edge/n: needs at least two distinct values"),
        ("operation = density.tv_bound\nn = 100,100",
         "experiment:edge/n: needs at least two distinct values"),
        ("operation = concentration.excess_ladder\nn = 10\nt_frac = 0.02\nsamples = 2000",
         "experiment:edge/t_frac: round(t_frac * n) = 0 is not an interior node"),
        ("operation = concentration.double_max_ladder\nn = 10\nt_frac = 0.97\nsamples = 2000",
         "experiment:edge/t_frac: round(t_frac * n) = 10 is not an interior node"),
        ("operation = density.lt_zero_mc\nn = 4\nt_frac = 1.5\nsamples = 2000",
         "experiment:edge/t_frac: round(t_frac * n) = 6 is not an interior node"),
        ("operation = density.lt_zero\nt_fracs = 0.5,1.5",
         "experiment:edge/t_fracs: every value must lie in (0, 1)"),
        ("operation = density.asymptote\nn = 10,100\nbounds = 0.03",
         "experiment:edge/bounds: needs one value per n: 2, got 1"),
        ("operation = density.asymptote\nn = 10,100,10\nbounds = 0.03,0.003,0.03",
         "experiment:edge/n: values must be distinct"),
    ])
    def test_coupled_parameters(self, tmp_path, capsys, body, message):
        # each value passes its own range check; together they cannot run
        config = write(tmp_path, f"[experiment:edge]\n{body}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("operation", ["malliavin.chain_vs_weak"])
    def test_unknown_functional(self, tmp_path, capsys, operation):
        config = write(tmp_path, f"[experiment:edge]\noperation = {operation}\ng = nope\n")
        message = "experiment:edge/g: unknown functional 'nope' (known: const1, coord,"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body, key", [
        ("operation = concentration.excess_ladder\nn = 10\neps = 0\nsamples = 2000",
         "eps"),
        ("operation = density.lt_zero\nhorizon = 0", "horizon"),
        ("operation = density.lt_zero\nhorizon = -1", "horizon"),
        ("operation = perimeter.tube\neps = 0\nsamples = 2000", "eps"),
        ("operation = concentration.double_max_ladder\nn = 10\ndelta = nan\n"
         "samples = 2000", "delta"),
        ("operation = density.asymptote\nbounds = 0.03,nan,0.0003", "bounds"),
    ])
    def test_non_positive_float(self, tmp_path, capsys, body, key):
        # each would raise inside its run function; the edge check names the field
        config = write(tmp_path, f"[experiment:edge]\n{body}\n")
        message = f"experiment:edge/{key}: must be > 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_negative_slack(self, tmp_path, capsys):
        # the tolerance is 3*SE + slack: a negative slack would fail any value
        body = "[experiment:edge]\noperation = perimeter.tube\nsamples = 2000\nslack = {}\n"
        load_config(write(tmp_path, body.format(0)))  # no slack is valid
        config = write(tmp_path, body.format(-1))
        message = "experiment:edge/slack: must be >= 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err


#: Valid values of the registry parameters that have no default.
REQUIRED_VALUES = {"n": "40", "samples": "2000", "eps": "0.02", "band": "0.01"}
FLOAT_CASTS, INT_CASTS = (float, _floats), (int, _ints)


def base_params(op):
    return {
        key: REQUIRED_VALUES[key]
        for key, spec in op.params.items()
        if spec.default is _REQUIRED
    }


def _off_interior_t_frac(draw):
    n = draw(st.integers(2, 50))
    low = st.floats(-10.0, 0.49 / n)
    high = st.floats((n - 0.49) / n, 10.0)
    return {"n": str(n), "t_frac": repr(draw(st.one_of(low, high)))}, "t_frac"


def _too_few_split_nodes(draw):
    # a grid of n steps has n - 1 interior nodes
    n = draw(st.integers(2, 60))
    return {"n": str(n), "nodes": str(draw(st.integers(n, n + 60)))}, "n"


def _one_distinct_n(draw):
    value = str(draw(st.integers(3, 5000)))
    return {"n": ",".join([value] * draw(st.integers(1, 3)))}, "n"


def _t_fracs_off_interior(draw):
    fracs = draw(st.lists(st.floats(0.01, 0.99), max_size=3))
    off = draw(st.one_of(st.floats(-10.0, 0.0), st.floats(1.0, 10.0)))
    fracs.insert(draw(st.integers(0, len(fracs))), off)
    return {"t_fracs": ",".join(map(repr, fracs))}, "t_fracs"


def _bounds_not_one_per_n(draw):
    n = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4))
    count = draw(st.integers(1, 4).filter(lambda k: k != len(n)))
    bounds = draw(st.lists(st.floats(1e-6, 1.0), min_size=count, max_size=count))
    return {"n": ",".join(map(str, n)), "bounds": ",".join(map(repr, bounds))}, "bounds"


#: For each operation with parameters that are valid alone but not together,
#: a generator of (params, field the error names) that pass every per-field
#: check and violate the coupling.
COUPLED_VIOLATIONS = {
    "concentration.double_max_ladder": _off_interior_t_frac,
    "concentration.excess_ladder": _off_interior_t_frac,
    "density.lt_zero_mc": _off_interior_t_frac,
    "malliavin.chain_vs_weak": _too_few_split_nodes,
    "density.tv_bound": _one_distinct_n,
    "density.lt_zero": _t_fracs_off_interior,
    "density.asymptote": _bounds_not_one_per_n,
}


@st.composite
def broken_configs(draw):
    """(experiment id, operation, params, field): a config of one registry
    operation in which exactly one field is broken."""
    name = draw(st.sampled_from(sorted(OPERATIONS)))
    op = OPERATIONS[name]
    params = base_params(op)
    numeric = sorted(k for k, p in op.params.items() if p.cast in FLOAT_CASTS + INT_CASTS)
    checked = sorted(
        k for k, p in op.params.items() if p.minimum is not None or p.positive
    )
    floats = sorted(k for k, p in op.params.items() if p.cast in FLOAT_CASTS)
    lists = sorted(k for k, p in op.params.items() if p.cast in (_ints, _floats))
    kinds = ["unknown key"] + [
        kind for kind, fields in
        (("wrong type", numeric), ("<= 0", checked), ("nan", floats)) if fields
    ]
    if lists:
        kinds.append("empty list")
    if name in COUPLED_VIOLATIONS:
        kinds.append("coupled")
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown key":
        field = draw(
            st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
                lambda k: k not in op.params and k != "operation"
            )
        )
        params[field] = "1"
    elif kind == "empty list":
        field = draw(st.sampled_from(lists))
        params[field] = draw(st.sampled_from(["", ",", " , ,"]))
    elif kind == "coupled":
        broken, field = COUPLED_VIOLATIONS[name](draw)
        params.update(broken)
    else:
        field = draw(st.sampled_from({"wrong type": numeric, "<= 0": checked,
                                      "nan": floats}[kind]))
        spec = op.params[field]
        if kind == "wrong type":
            junk = "x" + draw(st.text(st.sampled_from("abz019_.+-%!"), max_size=8))
            if spec.cast in INT_CASTS:
                junk = draw(st.sampled_from([junk, "2.5", "1e3"]))
            bad = junk
        elif kind == "<= 0":
            if spec.cast in INT_CASTS:
                bad = str(draw(st.integers(-10**12, 0)))
            else:  # 0 is valid for a minimum=0 float, so draw below it
                bad = repr(draw(st.floats(max_value=0.0, allow_nan=False,
                                          exclude_max=spec.minimum == 0)))
        else:
            bad = draw(st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf"]))
        if spec.cast in (_ints, _floats):  # one bad element among good ones
            good = str(spec.default[0]) if spec.default is not _REQUIRED else "40"
            at = draw(st.integers(0, 2))
            bad = ",".join([good] * at + [bad] + [good] * (2 - at))
        params[field] = bad
    exp_id = draw(st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,15}", fullmatch=True))
    return exp_id, name, params, field


def config_text(exp_id, operation, params):
    body = "".join(f"{k} = {v}\n" for k, v in params.items())
    return f"[experiment:{exp_id}]\noperation = {operation}\n{body}"


class TestConfigFuzz:
    """Each registry operation, with one field broken, fails in
    ``load_config`` with a ConfigError naming that field; no experiment runs."""

    def test_every_coupled_check_has_a_generator(self):
        coupled = {name for name, op in OPERATIONS.items() if op.coupled is not None}
        assert coupled == set(COUPLED_VIOLATIONS)

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_base_config_loads(self, tmp_path, operation):
        params = base_params(OPERATIONS[operation])
        _, (spec,) = load_config(write(tmp_path, config_text("e", operation, params)))
        assert spec.operation == operation

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=broken_configs())
    def test_one_broken_field_names_its_path(self, tmp_path, case):
        exp_id, operation, params, field = case
        config = write(tmp_path, config_text(exp_id, operation, params))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert str(err.value).startswith(f"experiment:{exp_id}/{field}: ")


class TestReport:
    def _run_twice(self, tmp_path):
        config = write(tmp_path, GOOD_CONFIG)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["run", "--config", str(config), "--out", str(out)])
            outs.append(out / "manifest.json")
        return outs

    def test_merge_same_config_pools(self, tmp_path, capsys):
        m1, m2 = self._run_twice(tmp_path)
        out = tmp_path / "report"
        code = main(["report", str(m1), str(m2), "--out", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text().splitlines()
        header = text[0].split(",")
        runs_col = header.index("runs")
        data = [line.split(",") for line in text[1:]]
        assert all(row[runs_col] == "2" for row in data)
        # the result-CSV columns, with the run count after the sample count
        result_header = (m1.parent / "stay.csv").read_text().splitlines()[0].split(",")
        at = result_header.index("samples") + 1
        assert header == result_header[:at] + ["runs"] + result_header[at:]

    def test_missing_manifest_errors(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [
        "truncated", "directory", "list", "no-fingerprint",
        "std_error", "tolerance", "samples", "value",
    ])
    def test_malformed_manifest_errors(self, tmp_path, capsys, kind):
        m1, _ = self._run_twice(tmp_path)
        bad = tmp_path / "bad.json"
        if kind == "truncated":
            bad.write_text(m1.read_text()[:100])
        elif kind == "directory":
            bad.mkdir()
        elif kind == "list":
            bad.write_text("[]")
        else:
            doctored = json.loads(m1.read_text())
            if kind == "no-fingerprint":
                del doctored["experiments"][0]["fingerprint"]
            else:  # a numeric field of a Monte Carlo row holds a string
                doctored["experiments"][1]["rows"][0][kind] = "x"
            bad.write_text(json.dumps(doctored))
        code = main(["report", str(m1), str(bad), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "rep").exists()

    def test_fingerprint_collision_with_differing_params_rejected(
        self, tmp_path, capsys
    ):
        m1, _ = self._run_twice(tmp_path)
        doctored = json.loads(m1.read_text())
        doctored["experiments"][0]["params"]["order"] = "17"  # same fingerprint kept
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(doctored))
        code = main(["report", str(m1), str(forged), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "collision" in capsys.readouterr().err

    def test_disjoint_experiments_concatenate(self, tmp_path):
        config2 = GOOD_CONFIG.replace("[experiment:stay]", "[experiment:other]")
        m1, _ = self._run_twice(tmp_path)
        out2 = tmp_path / "r3"
        main(["run", "--config", str(write(tmp_path, config2, "c2.ini")),
              "--out", str(out2)])
        out = tmp_path / "rep2"
        code = main(["report", str(m1), str(out2 / "manifest.json"), "--out", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text()
        assert "stay" in text and "other" in text


    def test_ungated_row_reports_no_verdict_and_no_samples(self, tmp_path):
        config = write(tmp_path, "[experiment:exact]\n"
                       "operation = fluctuation.halfline_exact\nn = 1,2\n")
        main(["run", "--config", str(config), "--out", str(tmp_path / "run")])
        code = main(["report", str(tmp_path / "run" / "manifest.json"),
                     "--out", str(tmp_path / "rep")])
        assert code == 0
        header, *rows = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        cols = header.split(",")
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            assert cells[cols.index("passed")] == cells[cols.index("samples")] == ""

    def test_failed_run_fails_the_merged_row(self, tmp_path):
        m1, m2 = self._run_twice(tmp_path)
        doctored = json.loads(m2.read_text())
        row = doctored["experiments"][1]["rows"][0]
        row["passed"] = False
        m2.write_text(json.dumps(doctored))
        out = tmp_path / "rep"
        assert main(["report", str(m1), str(m2), "--out", str(out)]) == 0
        header, *rows = (out / "report.csv").read_text().splitlines()
        cols = header.split(",")
        merged = next(r.split(",") for r in rows if f",{row['check']}," in r)
        assert merged[cols.index("passed")] == "false"
        assert int(merged[cols.index("samples")]) == 2 * row["samples"]


PRESETS = {
    "acceptance": [s for c in acceptance_criteria() for s in c.experiments],
    "quick": quick_preset(),
}


class TestPresets:
    """Both presets, checked without running them."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_ids_and_streams_unique(self, preset):
        specs = PRESETS[preset]
        for field in ("exp_id", "stream"):
            values = [getattr(s, field) for s in specs]
            assert len(values) == len(set(values)), field

    def test_every_criterion_has_experiments(self):
        criteria = acceptance_criteria()
        assert [c.number for c in criteria] == list(range(1, 15))
        assert all(c.experiments for c in criteria)

    @pytest.mark.parametrize(
        "spec", [s for p in sorted(PRESETS) for s in PRESETS[p]],
        ids=lambda s: f"{s.stream}-{s.exp_id}",
    )
    def test_every_spec_validates(self, spec):
        validate_params(OPERATIONS[spec.operation], spec.params, spec.exp_id)

    def test_quick_preset_does_not_check_its_own_csvs(self):
        # sampling.csv_identity runs the quick preset itself
        assert all(s.operation != "sampling.csv_identity" for s in quick_preset())

    def test_readme_lists_every_operation(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Registered operations", 1)[1].split("```")[1]
        assert sorted(block.split()) == sorted(OPERATIONS)


class TestRowSeed:
    """A row's ``seed`` column is the one provenance a result keeps: the
    master seed and the experiment's own stream."""

    @staticmethod
    def labels_and_expected():
        spec = next(s for s in quick_preset() if s.exp_id == "halfline-mc")
        return {r.seed for r in run_experiment(spec, 4321).rows}, f"4321/{spec.stream}"

    def test_every_row_names_its_stream(self):
        labels, expected = self.labels_and_expected()
        assert labels == {expected}

    def test_a_label_without_the_stream_is_caught(self, monkeypatch):
        monkeypatch.setattr(SeedSpec, "label", property(lambda s: str(s.master_seed)))
        labels, expected = self.labels_and_expected()
        assert labels != {expected}


class TestVerifyFullManifest:
    """``verify --preset full`` records each experiment as the registry runs
    it and leaves nothing but its outputs behind; here with criterion 14
    alone, at small samples, over a two-row quick preset."""

    def test_rows_match_the_registry(self, tmp_path, monkeypatch):
        criterion = next(c for c in acceptance_criteria() if c.number == 14)
        small = replace(criterion, experiments=tuple(
            replace(s, params={**s.params, "samples": 2000}) if "samples" in s.params else s
            for s in criterion.experiments
        ))
        cheap = [s for s in quick_preset() if s.exp_id in ("andersen64", "halfline-mc")]
        for module in (cli, experiments):
            monkeypatch.setattr(module, "acceptance_criteria", lambda: [small])
            monkeypatch.setattr(module, "quick_preset", lambda: list(cheap))
        out = tmp_path / "out"
        assert main(["verify", "--preset", "full", "--out", str(out), "--workers", "2"]) == 0

        table = {exp_id: (operation, stream) for exp_id, operation, stream, *_ in _PRESETS}
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["experiment"] for e in manifest["experiments"]] == [
            "workers", "csv-reproducibility"]
        for exp in manifest["experiments"]:
            operation, stream = table[exp["experiment"]]
            assert exp["operation"] == operation
            validate_params(OPERATIONS[operation], exp["params"], exp["experiment"])
            assert exp["fingerprint"]
            with open(out / f"{exp['experiment']}.csv", newline="") as fp:
                rows = list(csv.DictReader(fp))
            assert rows and all(r["fingerprint"] == exp["fingerprint"] for r in rows)
            expected = f"{manifest['master_seed']}/{stream}"
            assert {r["seed"] for r in exp["rows"]} == {r["seed"] for r in rows} == {expected}
        assert not list(out.glob("repro-*"))


class TestRepeatedListValues:
    """A list runner runs each distinct value once, in ascending order, so
    a repeat gives no second row under the same check name."""

    @pytest.mark.parametrize("operation, key, repeated, distinct", [
        ("fluctuation.halfline_exact", "n", "3,1,3", "1,3"),
        ("fluctuation.mc_halfline", "n", "3,3", "3"),
        ("fluctuation.mc_bridge_stay", "n", "3,2,3", "2,3"),
        ("perimeter.bridge", "n", "2,2", "2"),
        ("density.curve_mass", "lengths", "1.0,0.5,1.0", "0.5,1.0"),
    ])
    def test_one_row_per_distinct_value(self, operation, key, repeated, distinct):
        op = OPERATIONS[operation]

        def rows(values):
            raw = {**base_params(op), key: values}
            params = validate_params(op, raw, "e")
            return [(r.check, r.value) for r in op.run(params, SeedSpec(99), 1).rows]

        once = rows(distinct)
        assert rows(repeated) == once
        assert len(once) == len(distinct.split(","))


class TestVerifyHooks:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
