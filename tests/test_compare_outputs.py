import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_outputs import differing, largest_move  # noqa: E402


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
