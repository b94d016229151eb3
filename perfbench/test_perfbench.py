"""Smoke test of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench

Not part of the repository's test suite (``testpaths`` is ``tests``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from maxbv.cli import load_config  # noqa: E402
from maxbv.experiments import acceptance_criteria, quick_preset  # noqa: E402

from run import END_TO_END, PER_LAYER, derived_verdict  # noqa: E402
from workloads import WORKLOADS, Workload, Experiment, all_exp_ids, write_config  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_loads(name, tmp_path):
    workload = WORKLOADS[name]
    run_opts, specs = load_config(write_config(workload, tmp_path / "w.ini"))
    assert run_opts["workers"] == workload.workers
    assert [s.exp_id for s in specs] == [e.exp_id for e in workload.experiments]
    assert [s.operation for s in specs] == [e.operation for e in workload.experiments]


def test_parameters_are_preset_values_except_samples():
    # acceptance-suite values where the suite runs the experiment, else quick preset
    reference = {s.exp_id: s.params for s in quick_preset()}
    reference.update(
        (s.exp_id, s.params) for c in acceptance_criteria() for s in c.experiments
    )
    for workload in WORKLOADS.values():
        for exp in workload.experiments:
            ours = {k: v for k, v in exp.params.items() if k != "samples"}
            ref = {k: v for k, v in reference[exp.exp_id].items() if k != "samples"}
            assert ours == ref, exp.exp_id


def test_exp_ids_unique_across_workloads():
    ids = all_exp_ids()
    assert len(ids) == len(set(ids))


def test_emitted_metric_names_are_declared():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert declared.get(name) == unit, name
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_traced_child_emits_only_declared_metrics(tmp_path):
    tiny = Workload("tiny", "", 2, (
        Experiment("unique-max", "concentration.unique_max", {"n": 100, "samples": 2048}),
        Experiment("adjoint2", "malliavin.adjoint2_zero", {"n": 64, "samples": 2048}),
        Experiment("halfline-mc", "fluctuation.mc_halfline", {"n": (1, 10), "samples": 2048}),
        Experiment("bounds", "perimeter.corollary_bounds", {"max_n": 16}),
    ))
    config = write_config(tiny, tmp_path / "tiny.ini")
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report),
         "--config", str(config), "--seed", "7", "--workers", "2",
         "--out", str(tmp_path), "--trace"],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(report.read_text())["metrics"]
    assert set(metrics) <= set(PER_LAYER)
    assert metrics["sampling.chunks"] > 0
    assert metrics["sampling.batch_nodes"] > 0
    assert metrics["experiments.unique-max_s"] > 0
    assert 0 < metrics["sampling.pool_busy"] <= 1.0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("row, verdict", [
    ({"value": 0.1, "reference": 0.0, "tolerance": 0.2}, True),
    ({"value": 0.3, "reference": 0.0, "tolerance": 0.2}, False),
    ({"value": True, "reference": True, "tolerance": 0.0}, True),
    ({"value": 0.995, "reference": ">=0.99", "tolerance": 0.99}, True),
    ({"value": 0.02, "reference": "<0.01", "tolerance": 0.01}, False),
])
def test_derived_verdict(row, verdict):
    assert derived_verdict(row) is verdict
