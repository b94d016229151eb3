"""Result rows, their verdicts, CSV writers, and config fingerprints.

A row's verdict is never stored: :func:`verdict` derives it from the row's
value, reference and tolerance.  A row without a reference is ungated.  A
string reference is an operator and a bound, such as ``">=0.99"`` with
tolerance 0.99, and the row passes when ``value <op> tolerance``.  Any other
reference passes when ``|value - reference| <= tolerance``; a yes/no check
is the case ``reference=True, tolerance=0.0``.

CSV files are UTF-8 with a header row and RFC-4180 quoting; floats are
formatted with ``repr`` (shortest round-trip), so identical runs produce
byte-identical files.  Timestamps live only in the JSON manifest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


def format_cell(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # plain shortest round-trip, also for numpy scalars
    if x is None:
        return ""
    return str(x)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(c) for c in row])


def stable_fingerprint(obj: Any) -> str:
    """sha256 of the canonical JSON serialization (sorted keys)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


_BOUND_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


def _bound(reference: str) -> tuple[Callable[[Any, Any], Any], float]:
    """The comparison and the bound of a reference such as ``"<1e-8"``."""
    match = re.fullmatch(r"(>=|<=|>|<)(.+)", reference)
    if match is None:
        raise ValueError(f"reference {reference!r} has no operator >=, <=, > or <")
    return _BOUND_OPS[match.group(1)], float(match.group(2))


def verdict(value: Any, reference: Any, tolerance: float | None) -> bool | None:
    """The gate rule: None when ungated, else whether the value passes."""
    if reference is None:
        return None
    if isinstance(reference, str):
        return bool(_bound(reference)[0](value, tolerance))
    return bool(abs(value - reference) <= tolerance)


@dataclass(frozen=True)
class ResultRow:
    """One verified quantity: value, reference, tolerance, provenance, and
    the verdict they imply."""

    experiment: str
    check: str
    value: float | str
    std_error: float | None = None
    reference: float | str | None = None
    tolerance: float | None = None
    samples: int | None = None
    seed: str = ""
    fingerprint: str = ""

    HEADER = (
        "experiment",
        "check",
        "value",
        "std_error",
        "reference",
        "tolerance",
        "passed",
        "samples",
        "seed",
        "fingerprint",
    )

    def __post_init__(self) -> None:
        if isinstance(self.reference, str):
            bound = _bound(self.reference)[1]
            if bound != self.tolerance:
                raise ValueError(
                    f"{self.check}: bound {bound!r} of reference {self.reference!r} "
                    f"is not the tolerance {self.tolerance!r}"
                )
        elif self.reference is not None and self.tolerance is None:
            raise ValueError(f"{self.check}: reference {self.reference!r} has no tolerance")

    @property
    def passed(self) -> bool | None:
        return verdict(self.value, self.reference, self.tolerance)

    def cells(self) -> tuple:
        return (
            self.experiment,
            self.check,
            self.value,
            self.std_error,
            self.reference,
            self.tolerance,
            self.passed,
            self.samples,
            self.seed,
            self.fingerprint,
        )


@dataclass
class ExperimentResult:
    """Rows plus optional named series for external plotting."""

    rows: list[ResultRow] = field(default_factory=list)
    series: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


def write_result_csv(path: Path, rows: Iterable[ResultRow]) -> None:
    write_csv(path, ResultRow.HEADER, (r.cells() for r in rows))
