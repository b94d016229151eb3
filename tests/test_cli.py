"""Config parsing, the run/report/verify verbs, and output determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import maxbv
from maxbv import fluctuation
from maxbv import cli
from maxbv.cli import load_config, main
from maxbv.errors import ConfigError, InsufficientSamplesError
from maxbv.experiments import _REQUIRED, OPERATIONS, _floats, _ints

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

    def test_verify_reports_toolkit_errors(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise InsufficientSamplesError("only 3 effective samples")

        monkeypatch.setattr(cli, "run_suite", fail)
        assert main(["verify", "--out", str(tmp_path / "o")]) == 2
        assert "only 3 effective samples" in capsys.readouterr().err


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
    ])
    def test_coupled_parameters(self, tmp_path, capsys, body, message):
        # each value passes its own range check; together they cannot run
        config = write(tmp_path, f"[experiment:edge]\n{body}\n")
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


#: Valid values of the registry parameters that have no default.
REQUIRED_VALUES = {"n": "40", "samples": "2000", "eps": "0.02", "band": "0.01"}
FLOAT_CASTS, INT_CASTS = (float, _floats), (int, _ints)


def base_params(op):
    return {
        key: REQUIRED_VALUES[key]
        for key, spec in op.params.items()
        if spec.default is _REQUIRED
    }


def coupled_violation(draw, op):
    """(params, field the check names) that pass every per-field check and
    fail ``op.coupled``."""
    check = op.coupled.__name__
    if check == "_interior_split":
        n = draw(st.integers(2, 50))
        low = st.floats(-10.0, 0.49 / n)
        high = st.floats((n - 0.49) / n, 10.0)
        return {"n": str(n), "t_frac": repr(draw(st.one_of(low, high)))}, "t_frac"
    if check == "_distinct_split_nodes":
        # a grid of n steps has n - 1 interior nodes
        n = draw(st.integers(2, 60))
        return {"n": str(n), "nodes": str(draw(st.integers(n, n + 60)))}, "n"
    if check == "_two_distinct_n":
        value = str(draw(st.integers(3, 5000)))
        return {"n": ",".join([value] * draw(st.integers(1, 3)))}, "n"
    raise AssertionError(f"no generator for the coupled check {check}")


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
    kinds = ["unknown key"] + [
        kind for kind, fields in
        (("wrong type", numeric), ("<= 0", checked), ("nan", floats)) if fields
    ]
    if op.coupled is not None:
        kinds.append("coupled")
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown key":
        field = draw(
            st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
                lambda k: k not in op.params and k != "operation"
            )
        )
        params[field] = "1"
    elif kind == "coupled":
        broken, field = coupled_violation(draw, op)
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
            else:
                bad = repr(draw(st.floats(max_value=0.0, allow_nan=False)))
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

    def test_missing_manifest_errors(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

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


class TestVerifyHooks:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
