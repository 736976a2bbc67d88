"""Expression trees for scalar functions over two variable blocks x and y.

Two dialects share one node type.  The smooth dialect (constants, block
variables, +, -, *, /, integer powers, sqrt, n-ary sums) supports exact
forward-mode gradients and is required for lifted objectives and
constraints.  The reference dialect additionally allows abs, max, norm0
and fractional powers; it is evaluation-only and used for the original
unlifted objective.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

# |t| <= NORM0_THRESHOLD counts as zero when norm0 is evaluated for reporting
NORM0_THRESHOLD = 1e-6

_NONSMOOTH = ("abs", "max", "norm0")


class ExprError(Exception):
    """Base class for expression errors."""


class DomainError(ExprError):
    """Evaluation outside the domain (division by zero, sqrt of a negative,
    fractional power of a negative base)."""


class DialectError(ExprError):
    """A nonsmooth node where the smooth dialect is required."""


class ParseError(ExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Expr:
    """One node of an immutable expression tree.

    ``value`` holds the constant for "const" nodes and the exponent for
    "pow" nodes.  ``block``/``index`` identify a variable for "var" nodes
    (index is 0-based internally; the text syntax is 1-based) and the
    block name for "norm0".  ``pos`` is a (line, column) source location
    when the node came from the parser.
    """

    kind: str
    value: float = 0.0
    block: str = ""
    index: int = 0
    children: tuple = ()
    pos: tuple | None = field(default=None, compare=False, repr=False)

    def __add__(self, other):
        return Expr("add", children=(self, wrap(other)))

    def __radd__(self, other):
        return Expr("add", children=(wrap(other), self))

    def __sub__(self, other):
        return Expr("add", children=(self, Expr("neg", children=(wrap(other),))))

    def __rsub__(self, other):
        return Expr("add", children=(wrap(other), Expr("neg", children=(self,))))

    def __mul__(self, other):
        return Expr("mul", children=(self, wrap(other)))

    def __rmul__(self, other):
        return Expr("mul", children=(wrap(other), self))

    def __truediv__(self, other):
        return Expr("div", children=(self, wrap(other)))

    def __rtruediv__(self, other):
        return Expr("div", children=(wrap(other), self))

    def __pow__(self, exponent):
        return Expr("pow", value=float(exponent), children=(self,))

    def __neg__(self):
        return Expr("neg", children=(self,))

    def __str__(self):
        return pretty(self)


def wrap(v):
    """Coerce a number to a constant node; pass expressions through."""
    if isinstance(v, Expr):
        return v
    return Expr("const", value=float(v))


def const(v):
    return Expr("const", value=float(v))


def x_(i):
    """Variable x[i], 1-based like the text syntax."""
    return Expr("var", block="x", index=i - 1)


def y_(i):
    """Variable y[i], 1-based like the text syntax."""
    return Expr("var", block="y", index=i - 1)


def abs_(e):
    return Expr("abs", children=(wrap(e),))


def sqrt_(e):
    return Expr("sqrt", children=(wrap(e),))


def sum_(args):
    return Expr("sum", children=tuple(wrap(t) for t in args))


def max_(args):
    return Expr("max", children=tuple(wrap(t) for t in args))


def norm0_(block):
    if block not in ("x", "y"):
        raise ValueError(f"norm0 block must be 'x' or 'y', got {block!r}")
    return Expr("norm0", block=block)


@dataclass(frozen=True)
class Point:
    """A lifted point (x, y) with x of length n and y of length m."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def m(self):
        return self.y.shape[0]

    def flat(self):
        """Concatenated (x, y) vector, x block first."""
        return np.concatenate([self.x, self.y])

    @classmethod
    def from_flat(cls, vec, n, m):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n + m,):
            raise ValueError(f"expected flat vector of length {n + m}, got {vec.shape}")
        return cls(vec[:n].copy(), vec[n:].copy())


def _where(e):
    if e.pos is not None:
        return f"at line {e.pos[0]}, column {e.pos[1]}"
    return f"in '{pretty(e)}'"


def evaluate(e, p):
    """Evaluate the tree at a point.  Raises DomainError for division by
    zero, sqrt of a negative, or a fractional power of a negative base;
    arithmetic overflow yields +/-inf so that line searches can probe
    large trial steps."""
    return compiled_value(e)(p.x, p.y)


def smooth_violations(e):
    """Nodes that put the tree outside the smooth dialect."""
    bad = []
    if e.kind in _NONSMOOTH:
        bad.append(e)
    if e.kind == "pow" and e.value != int(e.value):
        bad.append(e)
    for c in e.children:
        bad.extend(smooth_violations(c))
    return bad


def is_smooth(e):
    return not smooth_violations(e)


def require_smooth(e):
    bad = smooth_violations(e)
    if bad:
        raise DialectError(
            f"nonsmooth node '{bad[0].kind}' {_where(bad[0])}; "
            "the smooth dialect forbids abs, max, norm0 and fractional powers"
        )


def gradient(e, p, wrt=None):
    """Exact forward-mode gradient, ordered x block then y block (or the
    ``wrt`` flat indices when given).  The tree must be smooth dialect."""
    require_smooth(e)
    return value_and_gradient(e, p, wrt)[1]


def value_and_gradient(e, p, wrt=None):
    """One forward pass returning (value, gradient).

    ``wrt`` restricts differentiation to a subset of flat coordinates
    (x[i] -> i, y[j] -> n + j); it may be a sequence of flat indices or a
    prebuilt {flat index: output position} dict.  Nonsmooth nodes raise
    DialectError.
    """
    n = p.x.shape[0]
    if wrt is None:
        pos = None
        width = n + p.y.shape[0]
    elif isinstance(wrt, dict):
        pos = wrt
        width = len(wrt)
    else:
        pos = {int(f): i for i, f in enumerate(wrt)}
        width = len(pos)
    fn, slots = compiled_gradient(e, n, pos, width)
    value, partials = fn(p.x, p.y)
    grad = np.zeros(width)
    if slots.size:
        grad[slots] = partials
    return (value, grad)


# ---------------------------------------------------------------------------
# compiled evaluation
#
# Each tree compiles once into straight-line Python (cached on the node):
# a value function over (x, y) arrays, and a forward-mode function that
# also returns the partial derivatives over the tree's variable support.
# Sparse emission keeps the op count at sum over nodes of the per-node
# active-coordinate count, which is what the solver hot loops pay for.


def _rt_div(a, b, loc):
    if b == 0.0:
        raise DomainError(f"division by zero {loc}")
    return a / b


def _rt_pow(v, expo, loc):
    if expo == int(expo):
        k = int(expo)
        if v == 0.0 and k < 0:
            raise DomainError(f"zero raised to negative power {loc}")
        try:
            return v**k
        except OverflowError:
            return math.inf if (v > 0 or k % 2 == 0) else -math.inf
    if v < 0.0:
        raise DomainError(f"fractional power {expo!r} of negative base {v!r} {loc}")
    try:
        return v**expo
    except OverflowError:
        return math.inf


def _rt_sqrt(v, loc):
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v!r} {loc}")
    return math.sqrt(v)


def _rt_inv_2sqrt(s, loc):
    if s == 0.0:
        raise DomainError(f"sqrt gradient needs a positive argument {loc}")
    return 0.5 / s


def _rt_norm0(block):
    return float(np.count_nonzero(np.abs(block) > NORM0_THRESHOLD))


_RUNTIME = {
    "_div": _rt_div,
    "_pw": _rt_pow,
    "_sq": _rt_sqrt,
    "_isq": _rt_inv_2sqrt,
    "_n0": _rt_norm0,
    "abs": abs,
    "max": max,
}


def _pow(base, expo, e):
    return _rt_pow(base, expo, _where(e))


class _Emitter:
    def __init__(self):
        self.lines = []
        self.counter = 0
        self.consts = {}

    def temp(self, rhs):
        name = f"t{self.counter}"
        self.counter += 1
        self.lines.append(f"    {name} = {rhs}")
        return name

    def bind(self, value):
        """Bind a non-literal constant (e.g. an error-location string)."""
        name = f"c{len(self.consts)}"
        self.consts[name] = value
        return name

    def build(self, head, result_expr):
        """Compile ``def <head>:`` over the emitted lines, returning
        ``result_expr``; ``head`` is the name and parameter list."""
        fname = head.partition("(")[0]
        src = [f"def {head}:"] + self.lines + [f"    return {result_expr}"]
        namespace = dict(_RUNTIME)
        namespace.update(self.consts)
        code = compile("\n".join(src), f"<cnfopt:{fname}>", "exec")
        exec(code, namespace)
        return namespace[fname]


def _lit(v):
    return repr(float(v))


def _emit_value(e, em):
    """Emit value statements; returns the fragment holding the result."""
    k = e.kind
    if k == "const":
        return _lit(e.value)
    if k == "var":
        return f"x[{e.index}]" if e.block == "x" else f"y[{e.index}]"
    if k == "norm0":
        return em.temp(f"_n0({e.block})")
    args = [_emit_value(c, em) for c in e.children]
    if k == "add":
        return em.temp(f"{args[0]} + {args[1]}")
    if k == "mul":
        return em.temp(f"{args[0]} * {args[1]}")
    if k == "neg":
        return em.temp(f"-{args[0]}")
    if k == "div":
        return em.temp(f"_div({args[0]}, {args[1]}, {em.bind(_where(e))})")
    if k == "pow":
        expo = e.value
        if expo == int(expo) and 2 <= int(expo) <= 3:
            base = args[0] if args[0].startswith(("t", "x", "y")) else em.temp(args[0])
            return em.temp("*".join([base] * int(expo)))
        if expo == int(expo) and int(expo) == 1:
            return args[0]
        if expo == int(expo) and int(expo) == 0:
            return "1.0"
        return em.temp(f"_pw({args[0]}, {_lit(expo)}, {em.bind(_where(e))})")
    if k == "sqrt":
        return em.temp(f"_sq({args[0]}, {em.bind(_where(e))})")
    if k == "abs":
        return em.temp(f"abs({args[0]})")
    if k == "sum":
        if not args:
            return "0.0"
        return em.temp(" + ".join(args))
    if k == "max":
        return em.temp(f"max({', '.join(args)})")
    raise ExprError(f"unknown node kind {k!r}")


def _emit_grad(e, em, n, pos):
    """Emit value and partial-derivative statements; returns
    (value fragment, {output slot: derivative fragment})."""
    k = e.kind
    if k == "const":
        return (_lit(e.value), {})
    if k == "var":
        flat = e.index if e.block == "x" else n + e.index
        frag = f"x[{e.index}]" if e.block == "x" else f"y[{e.index}]"
        if pos is None:
            return (frag, {flat: "1.0"})
        slot = pos.get(flat)
        return (frag, {} if slot is None else {slot: "1.0"})
    if k in _NONSMOOTH:
        raise DialectError(f"nonsmooth node '{k}' has no gradient {_where(e)}")

    parts = [_emit_grad(c, em, n, pos) for c in e.children]
    if k == "add" or k == "sum":
        val = em.temp(" + ".join(v for v, _ in parts)) if parts else "0.0"
        grad = {}
        for _, d in parts:
            for slot, frag in d.items():
                grad[slot] = frag if slot not in grad else f"{grad[slot]} + {frag}"
        return (val, {s: em.temp(f) if "+" in f else f for s, f in grad.items()})
    if k == "neg":
        (va, da) = parts[0]
        return (em.temp(f"-{va}"), {s: em.temp(f"-({f})") for s, f in da.items()})
    if k == "mul":
        (va, da), (vb, db) = parts
        va = va if va.startswith(("t", "x", "y")) else em.temp(va)
        vb = vb if vb.startswith(("t", "x", "y")) else em.temp(vb)
        val = em.temp(f"{va} * {vb}")
        grad = {}
        for slot in da.keys() | db.keys():
            left, right = da.get(slot), db.get(slot)
            terms = []
            if left is not None:
                terms.append(f"{vb}" if left == "1.0" else f"({left}) * {vb}")
            if right is not None:
                terms.append(f"{va}" if right == "1.0" else f"({right}) * {va}")
            grad[slot] = em.temp(" + ".join(terms))
        return (val, grad)
    if k == "div":
        (va, da), (vb, db) = parts
        va = va if va.startswith(("t", "x", "y")) else em.temp(va)
        vb = vb if vb.startswith(("t", "x", "y")) else em.temp(vb)
        val = em.temp(f"_div({va}, {vb}, {em.bind(_where(e))})")
        inv = em.temp(f"1.0 / {vb}")
        grad = {}
        for slot in da.keys() | db.keys():
            left, right = da.get(slot), db.get(slot)
            if right is None:
                grad[slot] = em.temp(f"({left}) * {inv}")
            elif left is None:
                grad[slot] = em.temp(f"-{val} * ({right}) * {inv}")
            else:
                grad[slot] = em.temp(f"(({left}) - {val} * ({right})) * {inv}")
        return (val, grad)
    if k == "pow":
        expo = e.value
        if expo != int(expo):
            raise DialectError(f"fractional power is not differentiable {_where(e)}")
        ik = int(expo)
        (va, da) = parts[0]
        if ik == 0:
            return ("1.0", {})
        if ik == 1:
            return (va, da)
        va = va if va.startswith(("t", "x", "y")) else em.temp(va)
        if ik == 2:
            val = em.temp(f"{va} * {va}")
            factor = em.temp(f"2.0 * {va}")
        elif ik == 3:
            val = em.temp(f"{va} * {va} * {va}")
            factor = em.temp(f"3.0 * {va} * {va}")
        else:
            loc = em.bind(_where(e))
            val = em.temp(f"_pw({va}, {_lit(expo)}, {loc})")
            factor = em.temp(f"{_lit(ik)} * _pw({va}, {_lit(ik - 1)}, {loc})")
        grad = {
            s: em.temp(factor if f == "1.0" else f"{factor} * ({f})")
            for s, f in da.items()
        }
        return (val, grad)
    if k == "sqrt":
        (va, da) = parts[0]
        loc = em.bind(_where(e))
        val = em.temp(f"_sq({va}, {loc})")
        if not da:
            return (val, {})
        factor = em.temp(f"_isq({val}, {loc})")
        grad = {
            s: em.temp(factor if f == "1.0" else f"{factor} * ({f})")
            for s, f in da.items()
        }
        return (val, grad)
    raise ExprError(f"unknown node kind {k!r}")


def _cache_of(e):
    # memoization only; concurrent first-time compiles race benignly
    # (both produce equivalent functions, last write wins)
    cache = e.__dict__.get("_compiled")
    if cache is None:
        cache = {}
        object.__setattr__(e, "_compiled", cache)
    return cache


def compiled_value(e):
    """fn(x, y) -> float for this tree, compiled once and cached."""
    cache = _cache_of(e)
    fn = cache.get("value")
    if fn is None:
        em = _Emitter()
        result = _emit_value(e, em)
        fn = em.build("_val(x, y)", result)
        cache["value"] = fn
    return fn


def compiled_gradient(e, n, pos, width):
    """(fn, slots) with fn(x, y) -> (value, partials aligned with slots).

    ``pos`` maps flat coordinate -> output slot (None means the identity
    over n+m coordinates); slots come back sorted for determinism.
    """
    cache = _cache_of(e)
    key = ("grad", n, width, None if pos is None else tuple(sorted(pos.items())))
    hit = cache.get(key)
    if hit is None:
        em = _Emitter()
        val, grad = _emit_grad(e, em, n, pos)
        slots = np.array(sorted(grad), dtype=int)
        partials = ", ".join(grad[s] for s in slots)
        result = f"({val}, ({partials}{',' if len(slots) == 1 else ''}))"
        fn = em.build("_grad(x, y)", result)
        hit = (fn, slots)
        cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# text syntax


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()\[\],])"
)

_FUNCTIONS = ("abs", "sqrt", "max", "norm0")


def _tokenize(text):
    tokens = []
    line = 1
    line_start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line, i - line_start + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(), line, m.start() - line_start + 1))
        i = m.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, n, m):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.m = m

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, val, line, col = self.next()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", line, col)

    def fail(self, message):
        _, val, line, col = self.peek()
        raise ParseError(message, line, col)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            _, op, line, col = self.next()
            rhs = self.parse_term()
            if op == "-":
                rhs = Expr("neg", children=(rhs,), pos=(line, col))
            node = Expr("add", children=(node, rhs), pos=(line, col))
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/"):
            _, op, line, col = self.next()
            rhs = self.parse_unary()
            node = Expr("mul" if op == "*" else "div", children=(node, rhs), pos=(line, col))
        return node

    def parse_unary(self):
        if self.peek()[1] == "-":
            _, _, line, col = self.next()
            return Expr("neg", children=(self.parse_unary(),), pos=(line, col))
        if self.peek()[1] == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[1] == "^":
            _, _, line, col = self.next()
            expo = self.parse_unary()
            folded = _const_value(expo)
            if folded is None:
                raise ParseError("power exponent must be a constant", line, col)
            return Expr("pow", value=folded, children=(base,), pos=(line, col))
        return base

    def parse_atom(self):
        kind, val, line, col = self.next()
        if kind == "num":
            return Expr("const", value=float(val), pos=(line, col))
        if kind == "name":
            if val in ("x", "y"):
                return self.parse_var(val, line, col)
            if val in _FUNCTIONS:
                return self.parse_call(val, line, col)
            raise ParseError(f"unknown identifier {val!r}", line, col)
        if val == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"expected an expression, found {val or 'end of input'!r}", line, col)

    def parse_var(self, block, line, col):
        self.expect("[")
        kind, val, iline, icol = self.next()
        if kind != "num" or float(val) != int(float(val)):
            raise ParseError("variable index must be an integer", iline, icol)
        idx = int(float(val))
        self.expect("]")
        bound = self.n if block == "x" else self.m
        if idx < 1:
            raise ParseError(f"variable index must be >= 1, got {idx}", iline, icol)
        if bound is not None and idx > bound:
            raise ParseError(
                f"index {idx} out of range for {block} (declared length {bound})",
                iline,
                icol,
            )
        return Expr("var", block=block, index=idx - 1, pos=(line, col))

    def parse_call(self, name, line, col):
        self.expect("(")
        if name == "norm0":
            kind, val, bline, bcol = self.next()
            if kind != "name" or val not in ("x", "y"):
                raise ParseError("norm0 takes a block name, norm0(x) or norm0(y)", bline, bcol)
            self.expect(")")
            return Expr("norm0", block=val, pos=(line, col))
        args = [self.parse_expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        if name in ("abs", "sqrt"):
            if len(args) != 1:
                raise ParseError(f"{name} takes exactly one argument", line, col)
            return Expr(name, children=(args[0],), pos=(line, col))
        return Expr("max", children=tuple(args), pos=(line, col))


def _const_value(e):
    """Fold a tree of constants to a float, or None if it has variables."""
    if e.kind == "const":
        return e.value
    if e.kind == "neg":
        v = _const_value(e.children[0])
        return None if v is None else -v
    if e.kind in ("add", "mul", "div", "pow"):
        vals = [_const_value(c) for c in e.children]
        if any(v is None for v in vals):
            return None
        if e.kind == "add":
            return vals[0] + vals[1]
        if e.kind == "mul":
            return vals[0] * vals[1]
        if e.kind == "div":
            return vals[0] / vals[1] if vals[1] != 0 else None
        return _pow(vals[0], e.value, e)
    return None


def parse(text, n=None, m=None):
    """Parse the expression sublanguage.  ``n``/``m`` are the declared
    block lengths; indices are range-checked when they are given."""
    parser = _Parser(_tokenize(text), n, m)
    node = parser.parse_expr()
    kind, val, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {val!r}", line, col)
    return node


# ---------------------------------------------------------------------------
# pretty-printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _pp(e):
    """Return (text, precedence) for one node."""
    k = e.kind
    if k == "const":
        s = _fmt_num(e.value)
        return (s, _PREC_UNARY if e.value < 0 else _PREC_ATOM)
    if k == "var":
        return (f"{e.block}[{e.index + 1}]", _PREC_ATOM)
    if k == "norm0":
        return (f"norm0({e.block})", _PREC_ATOM)
    if k in ("abs", "sqrt"):
        return (f"{k}({_pp(e.children[0])[0]})", _PREC_ATOM)
    if k == "max":
        return ("max(" + ", ".join(_pp(c)[0] for c in e.children) + ")", _PREC_ATOM)
    if k == "neg":
        body, prec = _pp(e.children[0])
        if prec < _PREC_POW:
            body = f"({body})"
        return (f"-{body}", _PREC_UNARY)
    if k in ("add", "sum"):
        parts = []
        for i, c in enumerate(e.children):
            if i > 0 and c.kind == "neg":
                body, prec = _pp(c.children[0])
                if prec < _PREC_ADD + 1:
                    body = f"({body})"
                parts.append(f" - {body}")
                continue
            body, prec = _pp(c)
            if prec < _PREC_ADD:
                body = f"({body})"
            parts.append(body if i == 0 else f" + {body}")
        return ("".join(parts), _PREC_ADD)
    if k in ("mul", "div"):
        op = "*" if k == "mul" else "/"
        left, lp = _pp(e.children[0])
        right, rp = _pp(e.children[1])
        if lp < _PREC_MUL:
            left = f"({left})"
        if rp < _PREC_MUL + (0 if k == "mul" else 1):
            right = f"({right})"
        return (f"{left}{op}{right}", _PREC_MUL)
    if k == "pow":
        base, bp = _pp(e.children[0])
        if bp < _PREC_ATOM:
            base = f"({base})"
        expo = _fmt_num(e.value)
        if e.value < 0:
            expo = f"({expo})"
        return (f"{base}^{expo}", _PREC_POW)
    raise ExprError(f"unknown node kind {k!r}")


def pretty(e):
    """Render the tree in the text syntax; parse(pretty(t)) evaluates
    identically to t and is stable under further round trips."""
    return _pp(e)[0]
