"""Compare the files of two `run` output directories within round-off.

A change that reorders floating-point sums (a new stepper, a leaner basis)
moves every run output in its last digits, so a byte check cannot tell it
from a fault.  ``run_output_mismatches`` compares ``timeseries.csv``,
``modulation.csv`` and ``verdict.json`` value by value instead:

* numbers agree when |new - ref| <= ATOL + RTOL |ref| (NaN equals NaN),
  except ``rate_rel_error``: a relative error of the fitted rate, it moves
  by the rate's own relative move, so it must agree to RTOL absolutely;
* strings, booleans and integers, the CSV headers and the row counts must
  be equal;
* in ``modulation.csv`` the E and residual_j columns are not compared on
  rows where |b_1| < B_FLOOR, as acceptance criteria 9 and 10 mask them:
  there the remainder is round-off and its energy and residuals carry no
  stable digit.  V_j = b_j e^{c s} is not compared where |b_j| < B_FLOOR,
  for the same reason.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

#: relative tolerance; round-off moves of the fitted rate measured 8.3e-9
RTOL = 1e-7
#: absolute tolerance, for values that pass near zero
ATOL = 1e-13
#: |b_j| below which the columns derived from the remainder are masked
B_FLOOR = 1e-6
RUN_FILES = ("timeseries.csv", "modulation.csv", "verdict.json")


def _close(ref, new, atol: float = ATOL) -> bool:
    if isinstance(ref, float) and isinstance(new, float):
        if math.isnan(ref) or math.isnan(new):
            return math.isnan(ref) and math.isnan(new)
        return abs(new - ref) <= atol + RTOL * abs(ref)
    return type(ref) is type(new) and ref == new


def _csv_mismatches(name: str, ref_path: Path, new_path: Path) -> list[str]:
    with open(ref_path, newline="") as fh:
        ref = list(csv.reader(fh))
    with open(new_path, newline="") as fh:
        new = list(csv.reader(fh))
    if ref[0] != new[0] or len(ref) != len(new):
        return [f"{name}: header or row count differs"]
    head = ref[0]
    out = []
    for i, (r, n) in enumerate(zip(ref[1:], new[1:]), start=1):
        row = dict(zip(head, map(float, r)))
        for col, x, y in zip(head, map(float, r), map(float, n)):
            if col == "E" or col.startswith("residual_"):
                if abs(row.get("b_1", math.inf)) < B_FLOOR:
                    continue
            elif col.startswith("V_") and abs(row[f"b_{col[2:]}"]) < B_FLOOR:
                continue
            if not _close(x, y):
                out.append(f"{name} row {i} {col}: {x!r} -> {y!r}")
    return out


def _json_mismatches(name: str, ref_path: Path, new_path: Path) -> list[str]:
    ref = json.loads(ref_path.read_text())
    new = json.loads(new_path.read_text())
    if ref.keys() != new.keys():
        return [f"{name}: keys differ"]
    out = []
    for key, x in ref.items():
        y = new[key]
        atol = RTOL if key == "rate_rel_error" else ATOL
        pairs = (list(zip(x, y)) if isinstance(x, list)
                 and isinstance(y, list) and len(x) == len(y) else [(x, y)])
        if not all(_close(a, b, atol) for a, b in pairs):
            out.append(f"{name} {key}: {x!r} -> {y!r}")
    return out


def run_output_mismatches(ref_dir, new_dir) -> list[str]:
    """One line per value of ``new_dir`` outside the tolerances of its
    counterpart in ``ref_dir``; a file present in only one is a mismatch."""
    out = []
    for name in RUN_FILES:
        ref, new = Path(ref_dir) / name, Path(new_dir) / name
        if ref.exists() != new.exists():
            out.append(f"{name}: present in only one directory")
        elif ref.exists():
            compare = _json_mismatches if name.endswith(".json") else _csv_mismatches
            out.extend(compare(name, ref, new))
    return out
