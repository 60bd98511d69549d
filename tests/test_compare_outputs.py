import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_outputs import differing, largest_move, summary  # noqa: E402


def _pair(tmp_path, text_a, text_b, name="supnorms.csv"):
    a, b = tmp_path / "a" / name, tmp_path / "b" / name
    for path, text in ((a, text_a), (b, text_b)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return a, b


def test_largest_move_is_relative_above_one_and_absolute_below(tmp_path):
    a, b = _pair(tmp_path, "t,sup\n0,0.5\n0.1,2000\n", "t,sup\n0,0.5000000000000001\n0.1,2000.000000001\n")
    assert largest_move(a, b) == pytest.approx(1e-9 / 2000, rel=1e-3)
    a, b = _pair(tmp_path, "t,sup\n0,0.25\n", "t,sup\n0,0.25000000000000006\n")
    assert largest_move(a, b) == pytest.approx(5.551115123125783e-17)


def test_differing_csvs_are_listed_and_sized(tmp_path):
    a, b = _pair(tmp_path, "t,sup\n0,1.5\n", "t,sup\n0,1.5000000000000002\n")
    _pair(tmp_path, "same\n", "same\n", name="report.csv")
    n, bad = differing(a.parent, b.parent)
    assert (n, bad) == (2, ["supnorms.csv"])
    assert 0 < largest_move(a, b) < 1e-15
    assert largest_move(*_pair(tmp_path, "same\n", "same\n", name="report.csv")) == 0.0


@pytest.mark.parametrize("text_b", [
    "t,bound\n0,1.5\n",       # a header cell that is not a number
    "t,sup\n0,fail\n",        # a number against text
    "t,sup\n0,1.5,2\n",       # a longer row
    "t,sup\n0,1.5\n1,2\n",    # one more row
], ids=["header", "text", "row-length", "row-count"])
def test_csvs_that_are_not_two_tables_of_numbers_are_not_sized(tmp_path, text_b):
    assert largest_move(*_pair(tmp_path, "t,sup\n0,1.5\n", text_b)) is None


def test_a_nan_against_a_number_is_an_infinite_move(tmp_path):
    assert math.isinf(largest_move(*_pair(tmp_path, "t,sup\n0,1.5\n", "t,sup\n0,nan\n")))
    assert largest_move(*_pair(tmp_path, "t,sup\n0,nan\n", "t,sup\n0,nan\n")) == 0.0


def test_numbers_in_stdout_are_sized_and_other_text_is_not(tmp_path):
    line = "iss: pass (worst margin {})\n"
    a, b = _pair(tmp_path, line.format("0.5"), line.format("0.50000000001"), name="stdout.txt")
    assert largest_move(a, b) == pytest.approx(1e-11, rel=1e-3)
    a, b = _pair(tmp_path, line.format("0.5"), "iss: fail (worst margin 0.5)\n", name="stdout.txt")
    assert largest_move(a, b) is None
    # the exit code and stderr are text: any change there is not numeric
    assert largest_move(*_pair(tmp_path, "0\n", "1\n", name="exit_code.txt")) is None


def test_summary_is_one_line_with_the_largest_move_and_every_other_file(tmp_path):
    line = summary(378, tmp_path, {"a/supnorms.csv": 1.3e-13, "b/stdout.txt": 2e-15,
                                   "c/report.csv": None, "d/exit_code.txt": None})
    assert "\n" not in line
    assert line == (f"378 files compared under {tmp_path}; 4 differ; largest relative move "
                    "1.3e-13 (by workload: a 1.3e-13, b 2e-15); "
                    "not numeric: c/report.csv, d/exit_code.txt")
    assert summary(10, tmp_path, {}) == (f"10 files compared under {tmp_path}; 0 differ; "
                                         "largest relative move 0 (by workload: none); "
                                         "not numeric: none")


def test_summary_gives_the_largest_move_of_each_workload(tmp_path):
    moves = {"suite-1d/seed1/003-verify-iss/supnorms.csv": 2.9e-13,
             "suite-1d/seed2/001-verify-iss/stdout.txt": 4e-14,
             "cascade-1d/seed1/000-cascade/supnorms.csv": 8.4e-13,
             "cascade-1d/seed2/000-cascade/report.csv": 1e-15,
             "rect-2d/seed1/000-verify-iss/stderr.txt": None}
    line = summary(500, tmp_path, moves)
    assert ("largest relative move 8.4e-13 (by workload: cascade-1d 8.4e-13, suite-1d 2.9e-13); "
            "not numeric: rect-2d/seed1/000-verify-iss/stderr.txt") in line
