"""Every public function and method of ``src/pdesup`` is reached by a command,
or is listed in ``UNREACHED`` with the reason it stays.

The cases of ``tests/make_golden.py`` (each command on the shipped configs,
plus three scenarios written inline) run in-process under ``sys.setprofile``,
which records every ``src/pdesup`` code object that is called, keyed by its
first line: for a decorated function, the line of its first decorator.  The
public functions and methods (module-level functions and the methods of
module-level classes, none of whose names has a leading underscore) that no
case calls must be exactly the keys of ``UNREACHED``.  Equality in both
directions keeps the list true: a name that a command starts to reach, and
an unlisted name that no command reaches, both fail the test.
"""

import ast
import sys
from pathlib import Path

import pdesup
from make_golden import CASES, capture

ORACLE = "test oracle: tests compare the code a command runs against it"
TRACER = "perfbench tracer hook: perfbench/tracing.py wraps it by name"
ITEM_2 = "ROADMAP item 2 wires it into backstep's target-system checks"
ITEM_5 = "ROADMAP item 5 wires it into the hypothesis checks"
PERFBENCH_INPUTS = "reached by perfbench inputs only"

UNREACHED = {
    "backstepping.inverse_kernel_bessel_oracle": ORACLE,
    "backstepping.kernel_bessel_oracle": ORACLE,
    "gains.superlinear_gain_prelimit": ORACLE + " (superlinear_gain's limit at q -> 2*)",
    "backstepping.inverse_kernel_series": TRACER,
    "harness.running_sup_boundary": TRACER + "; also the oracle of block_data_sups",
    "harness.running_sup_forcing": TRACER + "; also the oracle of block_data_sups",
    "backstepping.target_forcing": ITEM_2,
    "backstepping.target_residual": ITEM_2,
    "harness.growth_probe": ITEM_5,
    "harness.monotonicity_probe": ITEM_5,
    "gains.small_gain_domain": PERFBENCH_INPUTS + " (domain-coupled cascades)",
    "solver.reaction_odd_cubic": PERFBENCH_INPUTS + " (odd_cubic reactions)",
    "expressions.Expression.to_string": "the printer behind Expression's repr and hash; "
                                        "the parser's round-trip tests print through it",
}


def public_functions() -> dict:
    """``{(file, first line): "module.qualname"}`` of the public functions
    and methods of every ``src/pdesup`` module."""
    found = {}
    for path in sorted(Path(pdesup.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(m, node.name + ".") for m in node.body]
            for fn, owner in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[str(path), first] = f"{path.stem}.{owner}{fn.name}"
    return found


def called(files) -> set:
    """``(file, first line)`` of every code object of ``files`` that the
    golden cases call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in CASES:
            capture(name)
    finally:
        sys.setprofile(previous)
    return seen


def test_every_public_function_is_reached_or_listed():
    public = public_functions()
    reached = called({file for file, _ in public})
    unreached = {name for key, name in public.items() if key not in reached}
    unlisted = sorted(unreached - set(UNREACHED))
    stale = sorted(set(UNREACHED) - unreached)
    assert not unlisted and not stale, (
        f"reached by no command and not listed: {unlisted}; "
        f"listed but reached, or gone: {stale}")
