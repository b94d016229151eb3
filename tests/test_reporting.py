"""The gate rule: a row's verdict follows from its value, reference and
tolerance, and a row whose columns imply no verdict cannot be built."""

import json
import sys
from pathlib import Path

import pytest

from maxbv.cli import main
from maxbv.reporting import ResultRow, verdict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import derived_verdict  # noqa: E402


def row(value, reference, tolerance, **kw):
    return ResultRow(experiment="e", check="c", value=value, reference=reference,
                     tolerance=tolerance, **kw)


@pytest.mark.parametrize("reference, tolerance, passing, failing, bound, at_bound", [
    (">=0.99", 0.99, 1.0, 0.5, 0.99, True),
    ("<=0.01", 0.01, 0.0, 0.5, 0.01, True),
    (">0.85", 0.85, 0.9, 0.5, 0.85, False),
    ("<1e-8", 1e-8, 1e-9, 1e-7, 1e-8, False),
    (2.0, 0.5, 2.25, 3.0, 2.5, True),  # |value - reference| <= tolerance
])
def test_each_rule_passes_fails_and_meets_its_bound(
    reference, tolerance, passing, failing, bound, at_bound
):
    assert verdict(passing, reference, tolerance) is True
    assert verdict(failing, reference, tolerance) is False
    assert verdict(bound, reference, tolerance) is at_bound
    assert row(failing, reference, tolerance).passed is False


def test_abs_rule_is_two_sided():
    assert verdict(1.75, 2.0, 0.5) is True
    assert verdict(1.5, 2.0, 0.5) is True
    assert verdict(1.25, 2.0, 0.5) is False


@pytest.mark.parametrize("value, reference, tolerance, expected", [
    (True, True, 0.0, True),
    (False, True, 0.0, False),
    (0, 0, 0.0, True),
    (1, 0, 0.0, False),
    (float("nan"), 0.0, 1.0, False),
])
def test_yes_no_and_exact_rows(value, reference, tolerance, expected):
    assert row(value, reference, tolerance).passed is expected


def test_a_row_without_reference_is_ungated():
    assert row("1/2", None, None).passed is None
    assert verdict(0.5, None, None) is None


@pytest.mark.parametrize("reference, tolerance", [
    (">0.85", 0.8),  # the bound is not the tolerance
    ("~1", 1.0),  # no operator
    ("=1", 1.0),
    (0.5, None),  # a numeric reference needs a tolerance
    (True, None),
])
def test_a_row_whose_columns_imply_no_verdict_cannot_be_built(reference, tolerance):
    with pytest.raises(ValueError):
        row(0.9, reference, tolerance)


def test_the_verdict_cannot_be_written():
    with pytest.raises(TypeError):
        row(0.9, ">0.85", 0.85, passed=True)


def test_benchmark_reads_the_same_verdict(tmp_path):
    # the benchmark re-derives each verdict from the manifest columns
    main(["verify", "--preset", "quick", "--out", str(tmp_path), "--workers", "1"])
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    gated = [r for e in manifest["experiments"] for r in e["rows"]
             if r["reference"] is not None]
    assert len(gated) > 50
    for r in gated:
        assert derived_verdict(r) == r["passed"], r["check"]
