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
