"""Run outputs against references captured from the ARS(2,2,2) stepper at
its default step, compared within round-off by
``outputs.run_output_mismatches``."""

import csv
import shutil
from pathlib import Path

import pytest

from outputs import B_FLOOR, run_output_mismatches
from stefanlab import cli

DATA = Path(__file__).parent / "data"

# reference directory -> (command line, exit code); s_max = 0.3 stops the
# k = 1 run short of the decay floor, so it writes no verdict and exits 2;
# the k = 2 lower mode is the n = 512 shoot's trapped b_1(0), a coordinate
# in the basis at b = b_2(0), to 6 digits (at 5, -1.0997e-05, the untrapped
# part keeps the run above the decay floor up to the default s_max)
CASES = {
    "k1_512": (["--mode", "run", "--k", "1", "--grid", "512", "--b0", "0.01",
                "--smax", "0.3"], 2),
    "k2_512": (["--mode", "run", "--k", "2", "--grid", "512", "--b0", "0.01",
                "--lower=-1.09975e-05"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_reference(name, tmp_path):
    argv, code = CASES[name]
    assert cli.main(argv + ["--out", str(tmp_path)]) == code
    assert run_output_mismatches(DATA / name, tmp_path) == []


def _edit(path, row, col, scale):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(col)
    rows[row][j] = repr(float(rows[row][j]) * scale)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_comparator_flags_moves_outside_the_masks(tmp_path):
    ref = DATA / "k2_512"
    new = tmp_path / "k2_512"
    shutil.copytree(ref, new)
    assert run_output_mismatches(ref, new) == []
    with open(ref / "modulation.csv", newline="") as fh:
        b1 = [abs(float(r["b_1"])) for r in csv.DictReader(fh)]
    masked = 1 + next(i for i, x in enumerate(b1) if x < B_FLOOR)
    kept = 1 + next(i for i, x in enumerate(b1[1:], start=1) if x >= B_FLOOR)
    # the remainder's energy has no stable digit where |b_1| < B_FLOOR
    _edit(new / "modulation.csv", masked, "E", 2.0)
    _edit(new / "modulation.csv", masked, "V_1", 2.0)
    assert run_output_mismatches(ref, new) == []
    _edit(new / "modulation.csv", kept, "E", 1.0 + 1e-6)
    _edit(new / "timeseries.csv", 5, "a", 1.0 + 1e-6)
    (new / "verdict.json").write_text(
        (ref / "verdict.json").read_text().replace('"passed": true',
                                                   '"passed": false'))
    got = run_output_mismatches(ref, new)
    assert [line.split(":")[0] for line in got] == [
        "timeseries.csv row 5 a", f"modulation.csv row {kept} E",
        "verdict.json passed"]
    (new / "verdict.json").unlink()
    assert run_output_mismatches(ref, new)[-1] == (
        "verdict.json: present in only one directory")
