"""Arithmetic expression grammar for scenario files.

Scenario inputs (diffusion/absorption/boundary coefficients, forcings,
disturbances, initial data) are given as strings over the variables
``x``, ``y``, ``t`` (plus ``u`` for custom reaction terms).  A recursive
descent parser builds a small AST, which is compiled once, at parse
time, into nested numpy-vectorized closures: constant subtrees are
folded and the free variables are recorded, so a call is one
missing-variable check plus one closure call over whole node arrays.
:meth:`Expression.bind` compiles again with some variables fixed (the
node coordinates of forcing and boundary data), so every subtree that
depends only on constants and those coordinates is computed once, at
bind time.
Folding applies the same numpy/Python operation at each node in the
AST's order, so compiled, bound and tree-walked results agree bit for
bit.

Precedence, tightest first: ``^`` (right associative), unary minus,
``*`` ``/``, ``+`` ``-``.  Functions: sin, cos, exp, ln, sqrt, abs and
the two-argument min, max.  Constants: pi, e.  Parse errors report the
byte offset of the offending token.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

CONSTANTS = {"pi": math.pi, "e": math.e}

_FUNCS_1 = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_FUNCS_2 = {"min": np.minimum, "max": np.maximum}

DEFAULT_VARIABLES = ("x", "y", "t")


class ParseError(ValueError):
    """Raised on malformed expression text; carries the byte offset.

    ``offset`` is None for a constant subexpression that cannot be
    evaluated (such as ``1/0``), which is found after parsing.
    """

    def __init__(self, message: str, offset: int | None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_OPS = set("+-*/^(),")


def _tokenize(text: str):
    """Yield (kind, value, offset) tokens; kinds: num, name, op, end."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad numeric literal {text[i:j]!r}", i) from None
            yield ("num", val, i)
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
        elif ch in _OPS:
            yield ("op", ch, i)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.variables = frozenset(variables)
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # right associative; the exponent may itself be negated
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Num(val)
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, off)
            if val in CONSTANTS:
                return Num(CONSTANTS[val])
            if val in self.variables:
                return Var(val)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end of input", off)

    def call(self, name: str, off: int):
        if name not in _FUNCS_1 and name not in _FUNCS_2:
            raise ParseError(f"unknown function {name!r}", off)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, o2 = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            elif kind == "op" and val == ")":
                self.next()
                break
            else:
                raise ParseError("unbalanced parentheses in call", o2)
        want = 1 if name in _FUNCS_1 else 2
        if len(args) != want:
            raise ParseError(f"{name} takes {want} argument(s), got {len(args)}", off)
        return Call(name, tuple(args))


_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": np.power}


def _compile(node, bound):
    """Partially evaluate ``node`` with the variables in ``bound`` fixed.

    Returns ``(True, value)`` for a subtree fixed by constants and
    ``bound``, else ``(False, fn)`` with ``fn(env)`` computing the
    subtree from the remaining variables.
    """
    if isinstance(node, Num):
        return True, node.value
    if isinstance(node, Var):
        name = node.name
        if name in bound:
            return True, bound[name]
        return False, lambda env: env[name]
    if isinstance(node, Neg):
        fixed, a = _compile(node.arg, bound)
        if fixed:
            return True, -a
        return False, lambda env: -a(env)
    if isinstance(node, Bin):
        op, args = _BIN_OPS[node.op], (node.lhs, node.rhs)
    else:
        op, args = _FUNCS_1.get(node.func) or _FUNCS_2[node.func], node.args
    parts = [_compile(a, bound) for a in args]
    if all(fixed for fixed, _ in parts):
        try:
            return True, op(*(v for _, v in parts))
        except ArithmeticError as e:
            if bound:
                raise
            raise ParseError(f"constant subexpression {_to_string(node)!r} "
                             f"cannot be evaluated: {e}", None) from None
    if len(parts) == 1:
        f = parts[0][1]
        return False, lambda env: op(f(env))
    (fixed_a, a), (fixed_b, b) = parts
    if fixed_a:
        return False, lambda env: op(a, b(env))
    if fixed_b:
        return False, lambda env: op(a(env), b)
    return False, lambda env: op(a(env), b(env))


def _closure(fixed, value):
    return (lambda env: value) if fixed else value


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _to_string(node, parent_prec=0):
    if isinstance(node, Num):
        v = node.value
        if v < 0:
            s = repr(v)
            return f"({s})" if parent_prec > _PREC["neg"] else s
        return repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        s = "-" + _to_string(node.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Bin):
        p = _PREC[node.op]
        # left operand at own precedence, right one tighter (left assoc);
        # '^' is right associative so the asymmetry flips
        if node.op == "^":
            s = f"{_to_string(node.lhs, p + 1)}^{_to_string(node.rhs, p)}"
        else:
            s = f"{_to_string(node.lhs, p)}{node.op}{_to_string(node.rhs, p + 1)}"
        return f"({s})" if p < parent_prec else s
    inner = ",".join(_to_string(a) for a in node.args)
    return f"{node.func}({inner})"


class Expression:
    """A parsed expression over a fixed variable set.

    Instances are immutable; evaluation accepts scalars or numpy arrays
    (broadcast together) for each declared variable.  The AST is compiled
    once, when the instance is made; a constant subexpression that cannot
    be evaluated raises :class:`ParseError` there.
    """

    __slots__ = ("root", "variables", "source", "_used", "_call")

    def __init__(self, root, variables, source: str):
        self.root = root
        self.variables = tuple(variables)
        self.source = source
        self._used = _used_vars(root)
        self._call = self.bind()

    def __call__(self, **env):
        return self._call(**env)

    def bind(self, **coords):
        """A callable of the remaining variables, with ``coords`` fixed.

        Every subtree that depends only on constants and ``coords`` is
        computed here, once.  The callable may return the same array on
        every call; callers must not write into it.
        """
        fn = _closure(*_compile(self.root, coords))
        free = tuple(v for v in self.variables if v in self._used and v not in coords)
        source = self.source

        def call(**env):
            for v in free:
                if v not in env:
                    missing = [w for w in free if w not in env]
                    raise ValueError(f"expression {source!r} needs variables {missing}")
            return fn(env)

        return call

    def to_string(self) -> str:
        return _to_string(self.root)

    def __repr__(self):
        return f"Expression({self.to_string()!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self):
        return hash(self.to_string())


def _used_vars(node) -> set:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return _used_vars(node.arg)
    if isinstance(node, Bin):
        return _used_vars(node.lhs) | _used_vars(node.rhs)
    if isinstance(node, Call):
        return set().union(*(_used_vars(a) for a in node.args))
    return set()


def parse_expression(text: str, variables=DEFAULT_VARIABLES) -> Expression:
    """Parse ``text`` into an :class:`Expression` over ``variables``."""
    root = _Parser(text, variables).parse()
    return Expression(root, variables, text)


ZERO = parse_expression("0")


def is_zero(expr: Expression) -> bool:
    """Numerically probe whether an expression is identically zero.

    Structural zero is detected immediately; otherwise the expression is
    sampled on 64 seeded random points of a moderate box.
    """
    if expr.root == Num(0.0):
        return True
    rng = np.random.default_rng(0)
    env = {v: rng.uniform(-3.0, 3.0, size=64) for v in expr.variables}
    env["t"] = rng.uniform(0.0, 10.0, size=64)
    with np.errstate(all="ignore"):
        vals = np.asarray(expr(**env))
    return bool(np.all(np.abs(vals) < 1e-15))
