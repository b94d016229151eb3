"""The acceptance gate: every criterion at its stated tolerance.

Each test runs one numbered criterion from the shared registry (the same
one `maxbv verify --preset full` executes) and prints a PASS/FAIL line, so
the suite doubles as the sign-off protocol for the build.

The criteria run on every core: Monte Carlo streams are the same for any
worker count, so only the wall time depends on it.  Criterion 14's CSV
identity row compares quick-preset runs at that worker count with a run at
another, so a multi-worker run is always checked against a single-worker one.
"""

import os
import time

import pytest

from maxbv.experiments import DEFAULT_MASTER_SEED, acceptance_criteria, run_experiment

CRITERIA = {c.number: c for c in acceptance_criteria()}
WORKERS = os.cpu_count() or 1


def run_criterion(number: int) -> None:
    criterion = CRITERIA[number]
    start = time.perf_counter()
    failures = []
    for spec in criterion.experiments:
        result = run_experiment(spec, DEFAULT_MASTER_SEED, workers=WORKERS)
        for row in result.rows:
            if row.passed is False:
                failures.append(
                    f"{row.experiment}/{row.check}: value={row.value} "
                    f"reference={row.reference} tolerance={row.tolerance}"
                )
    verdict = "PASS" if not failures else "FAIL"
    wall = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} {verdict} ({wall:.1f} s)  {criterion.title}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    run_criterion(number)

