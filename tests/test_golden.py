"""The CLI's outputs against the golden files of ``tests/make_golden.py``.

Text (verdicts, notes, headers, exit codes) must match exactly, numbers
within 1e-12 * max(1, |ref|), and every CSV number must still be printed
with 17 significant digits.
"""

import pytest
from make_golden import CASES, capture, compare, load


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name):
    problems = compare(capture(name), load(name))
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("name", list(CASES))
def test_every_csv_row_has_as_many_cells_as_its_header(name):
    # the golden record holds what csv.reader read from each CSV the case
    # wrote (each trajectory's header and every 100th row, split on commas:
    # numbers only); test_outputs_match_golden holds the output to it cell by cell
    record = load(name)
    tables = dict(record["csv"])
    tables.update((file, [part["header"]] + part["rows"])
                  for file, part in record["trajectories"].items())
    for file, rows in tables.items():
        assert [i for i, row in enumerate(rows) if len(row) != len(rows[0])] == [], file
