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
from dataclasses import dataclass

import numpy as np

# |t| <= NORM0_THRESHOLD counts as zero when norm0 is evaluated for reporting
NORM0_THRESHOLD = 1e-6

# the parser rejects parentheses, calls, unary signs and exponents nested
# deeper than this; its recursion stays well inside Python's default limit
MAX_NESTING = 100

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


@dataclass(frozen=True, eq=False, repr=False)
class Expr:
    """One node of an immutable expression tree.

    ``value`` holds the constant for "const" nodes and the exponent for
    "pow" nodes.  ``block``/``index`` identify a variable for "var" nodes
    (index is 0-based internally; the text syntax is 1-based) and the
    block name for "norm0".  ``pos`` is a (line, column) source location
    when the node came from the parser.

    ``==``, ``hash`` and ``repr`` are what a dataclass would generate with
    ``pos`` left out of all three, but they walk the tree on an explicit
    stack, so trees of any depth compare, hash and print.
    """

    kind: str
    value: float = 0.0
    block: str = ""
    index: int = 0
    children: tuple = ()
    pos: tuple | None = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if ((a.kind, a.value, a.block, a.index) != (b.kind, b.value, b.block, b.index)
                    or len(a.children) != len(b.children)):
                return False
            for ca, cb in zip(a.children, b.children):
                if ca is not cb:  # a tuple compares identical items as equal
                    if ca.__class__ is not cb.__class__:
                        return False
                    stack.append((ca, cb))
        return True

    def __hash__(self):
        return _fold(self, lambda e, hashes: hash(
            (e.kind, e.value, e.block, e.index, tuple(map(_Hashed, hashes)))))

    def __repr__(self):
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{item.__class__.__qualname__}(kind={item.kind!r}, value={item.value!r}, "
                       f"block={item.block!r}, index={item.index!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for i in reversed(range(len(kids))):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(out)

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


class _Hashed:
    """A child whose hash is known: a tuple of these hashes as the children would."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def wrap(v):
    """Coerce a number to a constant node; pass expressions through."""
    return v if isinstance(v, Expr) else const(v)


def const(v):
    """A constant node; the compiled forms write it as a literal, which
    only a finite value has."""
    value = float(v)
    if not math.isfinite(value):
        raise ValueError(f"constant {value!r} is not a finite number")
    return Expr("const", value=value)


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


class _Where:
    """A node's error location, printed only when an error message needs it:
    a node with no source position prints its whole subtree.  Holds a copy of
    the node without its compile cache, so code compiled and cached on a node
    never refers back to it."""

    __slots__ = ("node",)

    def __init__(self, e):
        self.node = Expr(e.kind, e.value, e.block, e.index, e.children, e.pos)

    def __str__(self):
        return _where(self.node)


def evaluate(e, p):
    """Evaluate the tree at a point.  Raises DomainError for division by
    zero, sqrt of a negative, or a fractional power of a negative base;
    arithmetic overflow yields +/-inf so that line searches can probe
    large trial steps.  The compiled code runs on float lists, so a message
    shows a value as a Python float, as the problem kernel's do."""
    return compiled_value(e)(p.x.tolist(), p.y.tolist())


def norm0_thresholded(x):
    """The number of entries of ``x`` with |t| > NORM0_THRESHOLD."""
    return int(np.count_nonzero(np.abs(x) > NORM0_THRESHOLD))


def walk(e):
    """Every node of the tree in preorder (a node, then its children left to
    right), as a list; iterative, so deep trees need no recursion."""
    nodes = []
    stack = [e]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def _fold(e, rule):
    """Fold the tree bottom up: ``rule(node, results)`` gets the results of
    the node's children, left to right, and returns the node's own; returns
    the root's.  Iterative, so trees of any depth and width fold."""
    # a preorder that visits children right to left, reversed, is the
    # post-order that visits them left to right: each node after its children
    order = []
    stack = [e]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    done = []  # results of the folded nodes not yet consumed
    for node in reversed(order):
        split = len(done) - len(node.children)
        result = rule(node, done[split:])
        del done[split:]
        done.append(result)
    return done[0]


def _nonsmooth(node):
    return node.kind in _NONSMOOTH or (node.kind == "pow" and node.value != int(node.value))


def _dialect_error(node):
    return DialectError(
        f"nonsmooth node '{node.kind}' {_where(node)}; "
        "the smooth dialect forbids abs, max, norm0 and fractional powers"
    )


def is_smooth(e):
    return not any(_nonsmooth(node) for node in walk(e))


def require_smooth(e):
    """Raise DialectError at the first nonsmooth node in preorder."""
    for node in walk(e):
        if _nonsmooth(node):
            raise _dialect_error(node)


def gradient(e, p):
    """Exact forward-mode gradient, ordered x block then y block.  The tree
    must be smooth dialect."""
    return value_and_gradient(e, p)[1]


def value_and_gradient(e, p):
    """One forward pass returning (value, gradient over all n+m flat
    coordinates).  Nonsmooth nodes raise DialectError."""
    n, m = p.x.shape[0], p.y.shape[0]
    fn, slots = compiled_gradient(e, n, m)
    value, partials = fn(p.x.tolist(), p.y.tolist())
    grad = np.zeros(n + m)
    if slots.size:
        grad[slots] = partials
    return (value, grad)


# ---------------------------------------------------------------------------
# compiled evaluation
#
# Each tree compiles once into straight-line Python (cached on the node):
# a value function over (x, y) arrays, and a forward-mode function that
# also returns the partial derivatives over the tree's variable support.
# One emitter, _emit, writes both, and the augmented-Lagrangian kernel's
# pieces too: it carries partials only for the variables given an output
# slot, so the value form is the forward-mode form over no slots (the value
# is the zeroth-order part of the sweep), and a derivative factor is
# emitted only where an operand has partials.  Sparse emission keeps the op
# count at sum over nodes of the per-node active-coordinate count, which is
# what the solver hot loops pay for.  Asked for it, the same rules also carry
# each node's Hessian, forward over forward (Griewank & Walther, Evaluating
# Derivatives, ch. 13), and leave the first-order code as it is.


def _rt_div(a, b, loc):
    if b == 0.0:
        raise DomainError(f"division by zero {loc}")
    return a / b


def _rt_ipow(v, k):
    # an integer power; overflow gives inf of the power's sign
    try:
        return v**k
    except OverflowError:
        return math.inf if (v > 0 or k % 2 == 0) else -math.inf


def _rt_pow(v, expo, loc):
    if v == 0.0 and expo < 0:
        raise DomainError(f"zero raised to negative power {loc}")
    if expo == int(expo):
        return _rt_ipow(v, int(expo))
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
    return float(norm0_thresholded(block))


_RUNTIME = {
    "_div": _rt_div,
    "_pw": _rt_pow,
    "_ipw": _rt_ipow,
    "_sq": _rt_sqrt,
    "_isq": _rt_inv_2sqrt,
    "_n0": _rt_norm0,
    "abs": abs,
    "max": max,
}


# a right-hand side that only names a value, or is a literal or a negated
# one, is used as the fragment itself, with no temp to copy it
_LITERAL = r"\d+(?:\.\d*)?(?:e[+-]\d+)?"
_NO_TEMP = re.compile(rf"t\d+|[xy]\[\d+\]|-?-?{_LITERAL}|-\(-?{_LITERAL}\)")

# an n-ary sum is written this many terms a line at most, each line adding on
# to the last; Python's compiler recurses once per term of a line, and a line
# of a few thousand terms exhausts its stack
SUM_CHUNK = 100

# an outer product of partials with more entries than this is left whole for
# one rank-one update at run time, so a dense n x n Hessian takes O(n) lines
OUTER_ENTRIES = 32
_NO_HESS = ({}, ())  # a Hessian (entries, outer products) with neither


class _Emitter:
    def __init__(self):
        self.lines = []
        self.counter = 0
        self.consts = {}

    def temp(self, rhs):
        if _NO_TEMP.fullmatch(rhs):
            return rhs
        name = f"t{self.counter}"
        self.counter += 1
        self.lines.append(f"    {name} = {rhs}")
        return name

    def total(self, terms):
        """The fragment of the sum of ``terms``, added left to right as one
        line would, written at most SUM_CHUNK terms a line."""
        line = terms[:SUM_CHUNK]
        for i in range(SUM_CHUNK, len(terms), SUM_CHUNK - 1):
            line = [self.temp(" + ".join(line))] + terms[i:i + SUM_CHUNK - 1]
        return self.temp(" + ".join(line))

    def bind(self, value):
        """Bind a non-literal constant (e.g. an error-location string)."""
        name = f"c{len(self.consts)}"
        self.consts[name] = value
        return name

    def build(self, head, result_expr, runtime=_RUNTIME):
        """Compile ``def <head>:`` over the emitted lines, returning
        ``result_expr``; ``head`` is the name and parameter list, and
        ``runtime`` binds the helper names the lines call."""
        fname = head.partition("(")[0]
        src = [f"def {head}:"] + self.lines + [f"    return {result_expr}"]
        namespace = dict(runtime)
        namespace.update(self.consts)
        code = compile("\n".join(src), f"<cnfopt:{fname}>", "exec")
        exec(code, namespace)
        # popped: a function left in its own globals would form a cycle that
        # only a full garbage collection frees, holding its code until then
        return namespace.pop(fname)


def _lit(v):
    return repr(float(v))


def _emit(e, em, n, pos, second=False):
    """Emit the statements of the tree's value and of its partials over the
    output slots ``pos`` maps flat coordinates to (x[i] -> i, y[j] -> n + j;
    every coordinate is its own slot when ``pos`` is None).  Returns (value
    fragment, {slot: derivative fragment}, Hessian (see ``_second``), which
    is ``_NO_HESS`` unless ``second`` asks for it).  With ``pos`` empty no
    partial exists, so this is the value form: the only one that admits
    nonsmooth nodes."""
    return _fold(e, lambda node, parts: _emit_node(node, parts, em, n, pos, second))


def _times(*frags):
    """The fragment of a product, with its unit factors left out."""
    return " * ".join(f for f in frags if f != "1.0") or "1.0"


def _second(em, scaled, products):
    """A node's Hessian ({(s, t): fragment} over slots s <= t, [outer
    products]): its children's, ``scaled`` as (factor, Hessian) pairs, plus
    ``products`` (c, u, v), each c (u v' + v u') of two partial dicts, or
    c u u' when v is None, written out unless over OUTER_ENTRIES entries."""
    terms = {}
    outers = []
    for factor, (entries, left) in scaled:
        for key, f in entries.items():
            terms.setdefault(key, []).append(_times(factor, f))
        outers.extend((em.temp(_times(factor, c)), u, v) for c, u, v in left)
    for c, u, v in products:
        other = u if v is None else v
        if len(u) * len(other) > OUTER_ENTRIES:
            outers.append((em.temp(c), u, v))
            continue
        for i, fu in u.items():
            for j, fv in other.items():
                # u v' + v u' puts u_i v_j at (i, j) and at (j, i); u u' once
                for key in [(i, j)] * (i <= j) + [(j, i)] * (v is not None and j <= i):
                    terms.setdefault(key, []).append(_times(c, fu, fv))
    return ({key: em.total(t) for key, t in terms.items()}, outers)


def _emit_node(e, parts, em, n, pos, second):
    """Emit one node, given the (value, partials, Hessian) of its children;
    a nonsmooth node raises DialectError in any form but the value form.
    Only first-order lines, which come first, can raise a DomainError."""
    if pos != {} and _nonsmooth(e):
        raise _dialect_error(e)
    k = e.kind
    if k == "var":
        flat = e.index if e.block == "x" else n + e.index
        slot = flat if pos is None else pos.get(flat)
        frag = f"x[{e.index}]" if e.block == "x" else f"y[{e.index}]"
        return (frag, {} if slot is None else {slot: "1.0"}, _NO_HESS)
    if k == "const":
        return (_lit(e.value), {}, _NO_HESS)
    if k == "add" or k == "sum":
        val = em.total([v for v, _, _ in parts]) if parts else "0.0"
        grad = {}
        for _, d, _ in parts:
            for slot, frag in d.items():
                grad.setdefault(slot, []).append(frag)
        hess = _second(em, [("1.0", h) for _, _, h in parts], ()) if second else _NO_HESS
        return (val, {s: em.total(terms) for s, terms in grad.items()}, hess)
    if k == "neg":
        (va, da, ha) = parts[0]
        val = em.temp(f"-{va}")
        grad = {s: em.temp(f"-({f})") for s, f in da.items()}
        return (val, grad, _second(em, [("-1.0", ha)], ()) if second else _NO_HESS)
    if k == "mul":
        (va, da, ha), (vb, db, hb) = parts
        val = em.temp(f"{va} * {vb}")
        grad = {}
        for slot in da.keys() | db.keys():
            left, right = da.get(slot), db.get(slot)
            terms = []
            if left is not None:
                terms.append(vb if left == "1.0" else f"({left}) * {vb}")
            if right is not None:
                terms.append(va if right == "1.0" else f"({right}) * {va}")
            grad[slot] = em.temp(" + ".join(terms))
        # (ab)'' = b a'' + a b'' + a' b' + b' a'
        hess = _second(em, [(vb, ha), (va, hb)], [("1.0", da, db)]) if second else _NO_HESS
        return (val, grad, hess)
    if k == "div":
        (va, da, ha), (vb, db, hb) = parts
        val = em.temp(f"_div({va}, {vb}, {em.bind(_Where(e))})")
        grad = {}
        hess = _NO_HESS
        if da or db:
            inv = em.temp(f"1.0 / {vb}")
            for slot in da.keys() | db.keys():
                left, right = da.get(slot), db.get(slot)
                if right is None:
                    grad[slot] = em.temp(f"({left}) * {inv}")
                elif left is None:
                    grad[slot] = em.temp(f"-{val} * ({right}) * {inv}")
                else:
                    grad[slot] = em.temp(f"(({left}) - {val} * ({right})) * {inv}")
            if second:
                # from q b = a: q'' = (a'' - q b'' - q' b' - b' q') / b
                scaled = [(inv, ha)]
                if hb[0] or hb[1]:
                    scaled.append((em.temp(f"-{val} * {inv}"), hb))
                hess = _second(em, scaled, [(f"-{inv}", grad, db)])
        return (val, grad, hess)
    if k == "pow" or k == "sqrt":
        # one operand, and the chain rule through a derivative factor f' and
        # a curvature f''; sqrt's f'' is -2 f'^3, written once f' is named
        (va, da, ha) = parts[0]
        expo = e.value
        curve = None
        if k == "sqrt":
            loc = em.bind(_Where(e))
            val = em.temp(f"_sq({va}, {loc})")
            factor = f"_isq({val}, {loc})"
        elif expo == 0:
            return ("1.0", {}, _NO_HESS)
        elif expo == 1:
            return (va, da, ha)
        elif expo == 2 or expo == 3:
            val = em.temp("*".join([va] * int(expo)))
            factor = f"2.0 * {va}" if expo == 2 else f"3.0 * {va} * {va}"
            curve = "2.0" if expo == 2 else f"6.0 * {va}"
        elif expo > 3 and expo == int(expo):
            # a positive integer power: no zero or fraction check can fire,
            # only ** and its overflow.  Each exponent is int() of the float
            # that _pw took, so the results are _pw's bit for bit
            val = em.temp(f"_ipw({va}, {int(expo)})")
            factor = f"{_lit(expo)} * _ipw({va}, {int(expo - 1)})"
            curve = f"{_lit(expo * (expo - 1))} * _ipw({va}, {int(expo - 2)})"
        else:
            loc = em.bind(_Where(e))
            val = em.temp(f"_pw({va}, {_lit(expo)}, {loc})")
            factor = f"{_lit(expo)} * _pw({va}, {_lit(expo - 1)}, {loc})"
            curve = f"{_lit(expo * (expo - 1))} * _pw({va}, {_lit(expo - 2)}, {loc})"
        if not da:
            return (val, da, _NO_HESS)
        factor = em.temp(factor)
        grad = {s: em.temp(factor if f == "1.0" else f"{factor} * ({f})") for s, f in da.items()}
        hess = _NO_HESS
        if second:
            # f(a)'' = f'(a) a'' + f''(a) a' a'
            curve = em.temp(curve or f"-2.0 * {factor} * {factor} * {factor}")
            hess = _second(em, [(factor, ha)], [(curve, da, None)])
        return (val, grad, hess)
    # the nonsmooth kinds, which only the value form reaches
    if k == "abs" or k == "max":
        return (em.temp(f"{k}({', '.join(v for v, _, _ in parts)})"), {}, _NO_HESS)
    if k == "norm0":
        return (em.temp(f"_n0({e.block})"), {}, _NO_HESS)
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
        fn = em.build("_val(x, y)", _emit(e, em, 0, {})[0])
        cache["value"] = fn
    return fn


def compiled_gradient(e, n, m):
    """(fn, slots) with fn(x, y) -> (value, partials aligned with slots),
    the flat coordinates (x[i] -> i, y[j] -> n + j) the tree depends on,
    sorted for determinism."""
    cache = _cache_of(e)
    key = ("grad", n, m)
    hit = cache.get(key)
    if hit is None:
        em = _Emitter()
        val, grad, _ = _emit(e, em, n, None)
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
        self.depth = 0
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
        # every nested level (a parenthesis, a call, a unary sign or an
        # exponent) enters here just after the token that opened it, so the
        # check bounds the parser's recursion and points at that token
        if self.depth > MAX_NESTING:
            _, _, line, col = self.tokens[self.i - 1]
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", line, col)
        self.depth += 1
        if self.peek()[1] == "-":
            _, _, line, col = self.next()
            node = Expr("neg", children=(self.parse_unary(),), pos=(line, col))
        elif self.peek()[1] == "+":
            self.next()
            node = self.parse_unary()
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[1] == "^":
            _, _, line, col = self.next()
            expo = self.parse_unary()
            try:
                folded = _const_value(expo)
            except DomainError as err:
                raise ParseError(f"power exponent is undefined: {err}", line, col) from None
            if folded is None:
                raise ParseError("power exponent must be a constant", line, col)
            if not math.isfinite(folded):
                raise ParseError(f"power exponent folds to {folded!r}, not a finite number",
                                 line, col)
            return Expr("pow", value=folded, children=(base,), pos=(line, col))
        return base

    def parse_atom(self):
        kind, val, line, col = self.next()
        if kind == "num":
            # a literal that overflows would compile to the bare name inf
            if not math.isfinite(float(val)):
                raise ParseError(f"numeric literal {val} is not a finite number", line, col)
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
    """Fold a tree of constants to a float, or None if it has variables;
    an undefined operation (0^-1, a fractional power of a negative base,
    division by zero) raises DomainError."""
    value = _fold(e, _const_node)
    if isinstance(value, DomainError):
        raise value
    return value


def _const_node(e, vals):
    # only the kinds below fold: any other node is not constant, whatever
    # lies inside it, so an error below it is dropped.  A folding node passes
    # on the error of its leftmost operand that has one, as evaluating its
    # operands left to right would raise it
    if e.kind == "const":
        return e.value
    if e.kind not in ("neg", "add", "mul", "div", "pow"):
        return None
    bad = next((v for v in vals if isinstance(v, DomainError)), None)
    if bad is not None or any(v is None for v in vals):
        return bad
    try:
        if e.kind == "neg":
            return -vals[0]
        if e.kind == "add":
            return vals[0] + vals[1]
        if e.kind == "mul":
            return vals[0] * vals[1]
        if e.kind == "div":
            return _rt_div(vals[0], vals[1], _where(e))
        return _rt_pow(vals[0], e.value, _where(e))
    except DomainError as err:
        return err


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


def _pp(e, parts):
    """(text, precedence, operand) for one node, given its children's; a neg
    node's operand is its child's (text, precedence), which a sum prints
    after a minus sign, and any other node's is None."""
    k = e.kind
    if k == "const":
        s = _fmt_num(e.value)
        return (s, _PREC_UNARY if e.value < 0 else _PREC_ATOM, None)
    if k == "var":
        return (f"{e.block}[{e.index + 1}]", _PREC_ATOM, None)
    if k == "norm0":
        return (f"norm0({e.block})", _PREC_ATOM, None)
    if k in ("abs", "sqrt", "max"):
        return (f"{k}({', '.join(c[0] for c in parts)})", _PREC_ATOM, None)
    if k == "neg":
        body, prec, _ = parts[0]
        if prec < _PREC_POW:
            body = f"({body})"
        return (f"-{body}", _PREC_UNARY, parts[0][:2])
    if k in ("add", "sum"):
        out = []
        for i, (body, prec, operand) in enumerate(parts):
            if i > 0 and operand is not None:
                body, prec = operand
                if prec < _PREC_ADD + 1:
                    body = f"({body})"
                out.append(f" - {body}")
                continue
            if prec < _PREC_ADD:
                body = f"({body})"
            out.append(body if i == 0 else f" + {body}")
        return ("".join(out), _PREC_ADD, None)
    if k in ("mul", "div"):
        op = "*" if k == "mul" else "/"
        (left, lp, _), (right, rp, _) = parts
        if lp < _PREC_MUL:
            left = f"({left})"
        if rp < _PREC_MUL + (0 if k == "mul" else 1):
            right = f"({right})"
        return (f"{left}{op}{right}", _PREC_MUL, None)
    if k == "pow":
        base, bp, _ = parts[0]
        if bp < _PREC_ATOM:
            base = f"({base})"
        expo = _fmt_num(e.value)
        if e.value < 0:
            expo = f"({expo})"
        return (f"{base}^{expo}", _PREC_POW, None)
    raise ExprError(f"unknown node kind {k!r}")


def pretty(e):
    """Render the tree in the text syntax; parse(pretty(t)) evaluates
    identically to t and is stable under further round trips."""
    return _fold(e, _pp)[0]
