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
    children = tuple(wrap(t) for t in args)
    if len(children) < 2:
        raise ValueError("max takes at least two arguments")
    return Expr("max", children=children)


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


def json_safe(value):
    """``value``, a number or nested lists and dicts, with each non-finite
    float as None, which JSON writes as null: NaN and Infinity are not
    JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [json_safe(item) for item in value]
    return value


def _where(e):
    if e.pos is not None:
        return f"at line {e.pos[0]}, column {e.pos[1]}"
    return f"in '{pretty(e)}'"


class _Where:
    """A node's error location, printed only when an error message needs it:
    a node with no source position prints its whole subtree."""

    __slots__ = ("node",)

    def __init__(self, e):
        self.node = e

    def __str__(self):
        return _where(self.node)


def evaluate(e, p):
    """Evaluate the tree at a point.  Raises DomainError for division by
    zero, sqrt of a negative, or a fractional power of a negative base;
    arithmetic overflow yields +/-inf so that line searches can probe
    large trial steps.  The value form runs on the float evaluator over
    float lists, as a problem kernel does, so a message shows a value as a
    Python float, as the kernel's do."""
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
        if node.children:
            split = len(done) - len(node.children)
            result = rule(node, done[split:])
            del done[split:]
        else:
            result = rule(node, ())
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
    """Raise DialectError at the first nonsmooth node in preorder; returns
    ``walk(e)``, the nodes it checked."""
    nodes = walk(e)
    for node in nodes:
        if _nonsmooth(node):
            raise _dialect_error(node)
    return nodes


def gradient(e, p):
    """Exact forward-mode gradient, ordered x block then y block.  The tree
    must be smooth dialect."""
    return value_and_gradient(e, p)[1]


def value_and_gradient(e, p):
    """One forward pass returning (value, gradient over all n+m flat
    coordinates).  Nonsmooth nodes raise DialectError before anything is
    evaluated."""
    fn, width = compiled_gradient(e, p.n, p.m)
    value, partials = fn(p.x.tolist(), p.y.tolist())
    grad = np.zeros(width)
    for slot, partial in partials.items():
        grad[slot] = partial
    return (value, grad)


# ---------------------------------------------------------------------------
# evaluation rules
#
# Each node kind has one rule, _node_rule, for its value and its partial
# derivatives and, asked for it, its Hessian, forward over forward
# (Griewank & Walther, Evaluating Derivatives, ch. 13).  A rule computes
# only through an operand interface, and _sweep folds a tree with it.  The
# interface has two implementations:
#
# - _Emitter runs the rules on symbolic operands.  An operand is the text
#   of a Python expression, and naming one (``let``) writes it as a line of
#   straight-line code, which cnfopt.model compiles into a problem kernel's
#   code.
# - _Evaluator runs them on floats.  Each operation computes at once and
#   calls the runtime helpers the compiled lines call, in the same order,
#   so it returns the compiled function's bits and raises its errors.
#
# A rule carries partials only for the variables given an output slot, so
# the value form is the forward-mode form over no slots (the value is the
# zeroth-order part of the sweep), and a derivative factor is computed only
# where an operand has partials.  Sparse partials keep the op count at the
# sum over nodes of the per-node active-coordinate count, which is what the
# solver hot loops pay for.  Every line a rule names has an order: 0 for a
# value, 1 for a partial, 2 for a second derivative.  A line reads only
# lines of its own order or lower, so the problem kernel of cnfopt.model
# writes each order in a section of its own, and a call of order k runs
# the first k + 1 sections of one compiled code (Griewank & Walther, ch. 3:
# a derivative code computes the function's values first).
#
# The lines a rule writes, and their order, follow the tree's structure and
# the order of its slots' values, never a set's hash order (a union of slots
# is iterated sorted), so two trees of one shape whose slots rank alike write
# one text with other indices: cnfopt.model replays a piece on that key.
#
# A bare tree's ``evaluate``, ``gradient`` and ``value_and_gradient`` run on
# the evaluator alone; they are the reference forms that tests hold the
# problem kernels of cnfopt.model to.


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


def _lit(v):
    return repr(float(v))


class _Emitter:
    """The operand interface on symbolic operands: each operation returns
    the text of a Python expression, and ``let`` writes one as a line of
    its own.  ``model._PieceEmitter`` compiles the lines into a kernel piece.

    Each line has an order: 0 for a value, 1 for a partial derivative, 2
    for a second derivative, and ``sections[k]`` takes the lines of order k."""

    one = "1.0"  # the unit partial of a variable, which a product leaves out

    def __init__(self):
        self.sections = ([], [], [])
        self.counter = 0
        self.consts = {}

    def let(self, rhs, order):
        """A name for ``rhs``, a term of ``order``: a new temp assigned in a
        line, or ``rhs`` itself when it only names a value or is a literal."""
        if _NO_TEMP.fullmatch(rhs):
            return rhs
        name = f"t{self.counter}"
        self.counter += 1
        self.sections[order].append(f"    {name} = {rhs}")
        return name

    def total(self, terms, order):
        """A name for the sum of ``terms``, added left to right as one line
        would, written at most SUM_CHUNK terms a line."""
        line = terms[:SUM_CHUNK]
        for i in range(SUM_CHUNK, len(terms), SUM_CHUNK - 1):
            line = [self.let(" + ".join(line), order)] + terms[i:i + SUM_CHUNK - 1]
        return self.let(" + ".join(line), order)

    def bind(self, value):
        """Bind a non-literal constant (e.g. an error-location string)."""
        name = f"c{len(self.consts)}"
        self.consts[name] = value
        return name

    def where(self, e):
        """The error location of node ``e``, for a checked runtime helper."""
        return self.bind(_Where(e))

    # the operations, each the text of its expression
    lit = staticmethod(_lit)
    var = staticmethod(lambda block, index: f"{block}[{index}]")
    block = staticmethod(lambda name: name)
    is_one = staticmethod(lambda f: f == "1.0")
    neg = staticmethod(lambda a: f"-{a}")
    group = staticmethod(lambda a: f"({a})")
    plus = staticmethod(lambda *terms: " + ".join(terms))
    sub = staticmethod(lambda a, b: f"{a} - {b}")
    mul = staticmethod(lambda *factors: " * ".join(factors))
    # a product with its unit factors left out
    times = staticmethod(lambda *factors: " * ".join(f for f in factors if f != "1.0") or "1.0")
    # a times itself, k factors in all
    repeated = staticmethod(lambda a, k: "*".join([a] * k))
    recip = staticmethod(lambda b: f"1.0 / {b}")
    call = staticmethod(lambda helper, *args: f"{helper}({', '.join(map(str, args))})")
    nonzero = staticmethod(lambda a: f"{a} != 0.0")
    hinge = staticmethod(lambda c: f"{c} if {c} > 0.0 else 0.0")


class _Evaluator:
    """The operand interface on floats: each operation computes its value
    at once, as the line ``_Emitter`` writes for it would, and ``let`` only
    passes a value on.  ``x`` and ``y`` are the point's blocks as lists of
    floats, as a compiled form takes them."""

    one = 1.0

    def __init__(self, x, y):
        self.x, self.y = x, y

    def var(self, block, index):
        return getattr(self, block)[index]

    def block(self, name):
        return getattr(self, name)

    @staticmethod
    def total(terms, order=0):
        # left to right from the first term: a sum from 0.0 would turn -0.0 into 0.0
        value = terms[0]
        for t in terms[1:]:
            value = value + t
        return value

    @staticmethod
    def mul(value, *factors):
        for f in factors:
            value = value * f
        return value

    let = staticmethod(lambda v, order: v)
    where = staticmethod(_Where)
    lit = staticmethod(float)
    # the unit partial multiplies like any factor: 1.0 * v is v bit for bit
    is_one = staticmethod(lambda f: False)
    neg = staticmethod(lambda a: -a)
    group = staticmethod(lambda a: a)
    plus = staticmethod(lambda *terms: _Evaluator.total(terms))
    sub = staticmethod(lambda a, b: a - b)
    times = mul
    repeated = staticmethod(lambda a, k: _Evaluator.mul(a, *[a] * (k - 1)))
    recip = staticmethod(lambda b: 1.0 / b)
    call = staticmethod(lambda helper, *args: _RUNTIME[helper](*args))
    nonzero = staticmethod(lambda a: a != 0.0)
    hinge = staticmethod(lambda c: c if c > 0.0 else 0.0)


def _sweep(e, ops, n, pos, second=False):
    """The tree's value and its partials over the output slots ``pos`` maps
    flat coordinates to (x[i] -> i, y[j] -> n + j; every coordinate is its
    own slot when ``pos`` is None), computed on the operand interface
    ``ops``.  Returns (value, {slot: partial}, Hessian (see ``_second``),
    which is ``_NO_HESS`` unless ``second`` asks for it).  With ``pos``
    empty no partial exists, so this is the value form: the only one that
    admits nonsmooth nodes."""
    return _fold(e, lambda node, parts: _node_rule(node, parts, ops, n, pos, second))


def _second(ops, scaled, products):
    """A node's Hessian ({(s, t): entry} over slots s <= t, [outer
    products]): its children's, ``scaled`` as (factor, Hessian) pairs, plus
    ``products`` (c, u, v), each c (u v' + v u') of two partial dicts, or
    c u u' when v is None, written out unless over OUTER_ENTRIES entries."""
    # a product with an empty side, and a Hessian with neither part, add nothing
    if products:
        products = [(c, u, v) for c, u, v in products if u and (v is None or v)]
    if not products:
        for _, (entries, left) in scaled:
            if entries or left:
                break
        else:
            return _NO_HESS
    terms = {}
    outers = []
    for factor, (entries, left) in scaled:
        for key, f in entries.items():
            terms.setdefault(key, []).append(ops.times(factor, f))
        if left:
            outers.extend((ops.let(ops.times(factor, c), 2), u, v) for c, u, v in left)
    for c, u, v in products:
        other = u if v is None else v
        if len(u) * len(other) > OUTER_ENTRIES:
            outers.append((ops.let(c, 2), u, v))
            continue
        for i, fu in u.items():
            for j, fv in other.items():
                # u v' + v u' puts u_i v_j at (i, j) and at (j, i); u u' once
                if i <= j:
                    terms.setdefault((i, j), []).append(ops.times(c, fu, fv))
                if v is not None and j <= i:
                    terms.setdefault((j, i), []).append(ops.times(c, fu, fv))
    return ({key: ops.total(t, 2) for key, t in terms.items()}, outers)


def _merged(ops, grads):
    """The partials of a sum of terms with the partials ``grads``: each
    slot's terms added in order.  A partial is always a name or a literal,
    so a slot with one term passes it on as it is."""
    if len(grads) < 2:
        return grads[0] if grads else {}
    if len(grads) == 2 and grads[0].keys().isdisjoint(grads[1]):
        return grads[0] | grads[1]  # the same order: the first's slots first
    terms = {}
    for d in grads:
        for slot, f in d.items():
            terms.setdefault(slot, []).append(f)
    return {s: t[0] if len(t) == 1 else ops.total(t, 1) for s, t in terms.items()}


def _chain(ops, e, va, val, loc, order, factor=None):
    """f'(a) (order 1) or f''(a) (order 2) of a one-operand node f at its
    operand's value ``va``: sqrt's 1 / (2 f(a)), then -2 f'^3 from its named
    f' ``factor``; a power's expo a^(expo - 1), then expo (expo - 1)
    a^(expo - 2), written as the power's value is."""
    if e.kind == "sqrt":
        return ops.call("_isq", val, loc) if order == 1 else ops.mul(
            ops.lit(-2.0), factor, factor, factor)
    expo = e.value
    coef = ops.lit(expo if order == 1 else expo * (expo - 1))
    if expo == 2 or expo == 3:
        return ops.mul(coef, *[va] * int(expo - order))
    if expo > 3 and expo == int(expo):
        return ops.mul(coef, ops.call("_ipw", va, int(expo - order)))
    return ops.mul(coef, ops.call("_pw", va, ops.lit(expo - order), loc))


def _node_rule(e, parts, ops, n, pos, second):
    """One node's (value, partials, Hessian) on ``ops``, given its
    children's; a nonsmooth node raises DialectError in any form but the
    value form.  Each line it names carries its order (see "evaluation
    rules" above).  Only value lines and sqrt's derivative factor
    (order 1) can raise a DomainError."""
    k = e.kind
    if k == "var":
        flat = e.index if e.block == "x" else n + e.index
        slot = flat if pos is None else pos.get(flat)
        return (ops.var(e.block, e.index), {} if slot is None else {slot: ops.one}, _NO_HESS)
    if k == "const":
        return (ops.lit(e.value), {}, _NO_HESS)
    if k == "add" or k == "sum":
        val = ops.total([v for v, _, _ in parts], 0) if parts else ops.lit(0.0)
        hess = _NO_HESS
        if second:
            # the terms' Hessians added, or the only one passed on as it is
            hs = [h for _, _, h in parts if h[0] or h[1]]
            hess = hs[0] if len(hs) == 1 else _second(ops, [(ops.one, h) for h in hs], ())
        return (val, _merged(ops, [d for _, d, _ in parts if d]), hess)
    if k == "neg":
        (va, da, ha) = parts[0]
        val = ops.let(ops.neg(va), 0)
        grad = {s: ops.let(ops.neg(ops.group(f)), 1) for s, f in da.items()}
        return (val, grad, _second(ops, [(ops.lit(-1.0), ha)], ()) if second else _NO_HESS)
    if k == "mul":
        (va, da, ha), (vb, db, hb) = parts
        val = ops.let(ops.mul(va, vb), 0)
        grad = {}
        for slot in sorted(da.keys() | db.keys()) if da or db else ():
            left, right = da.get(slot), db.get(slot)
            terms = []
            if left is not None:
                terms.append(vb if ops.is_one(left) else ops.mul(ops.group(left), vb))
            if right is not None:
                terms.append(va if ops.is_one(right) else ops.mul(ops.group(right), va))
            grad[slot] = ops.let(ops.plus(*terms), 1)
        # (ab)'' = b a'' + a b'' + a' b' + b' a'
        hess = _second(ops, [(vb, ha), (va, hb)], [(ops.one, da, db)]) if second else _NO_HESS
        return (val, grad, hess)
    if k == "div":
        (va, da, ha), (vb, db, hb) = parts
        val = ops.let(ops.call("_div", va, vb, ops.where(e)), 0)
        grad = {}
        hess = _NO_HESS
        if da or db:
            inv = ops.let(ops.recip(vb), 1)
            for slot in sorted(da.keys() | db.keys()):
                left, right = da.get(slot), db.get(slot)
                if right is None:
                    grad[slot] = ops.let(ops.mul(ops.group(left), inv), 1)
                elif left is None:
                    grad[slot] = ops.let(ops.mul(ops.neg(val), ops.group(right), inv), 1)
                else:
                    grad[slot] = ops.let(ops.mul(ops.group(ops.sub(
                        ops.group(left), ops.mul(val, ops.group(right)))), inv), 1)
            if second:
                # from q b = a: q'' = (a'' - q b'' - q' b' - b' q') / b
                scaled = [(inv, ha)]
                if hb[0] or hb[1]:
                    scaled.append((ops.let(ops.mul(ops.neg(val), inv), 2), hb))
                hess = _second(ops, scaled, [(ops.neg(inv), grad, db)])
        return (val, grad, hess)
    if k == "pow" or k == "sqrt":
        if k == "pow" and pos != {} and e.value != int(e.value):  # a fractional power
            raise _dialect_error(e)
        # one operand, and the chain rule through a derivative factor f' and
        # a curvature f'' (see ``_chain``)
        (va, da, ha) = parts[0]
        expo = e.value
        loc = None
        if k == "sqrt":
            loc = ops.where(e)
            val = ops.let(ops.call("_sq", va, loc), 0)
        elif expo == 0:
            return (ops.lit(1.0), {}, _NO_HESS)
        elif expo == 1:
            return (va, da, ha)
        elif expo == 2 or expo == 3:
            val = ops.let(ops.repeated(va, int(expo)), 0)
        elif expo > 3 and expo == int(expo):
            # a positive integer power: no zero or fraction check can fire,
            # only ** and its overflow.  Each exponent is int() of the float
            # that _pw took, so the results are _pw's bit for bit
            val = ops.let(ops.call("_ipw", va, int(expo)), 0)
        else:
            loc = ops.where(e)
            val = ops.let(ops.call("_pw", va, ops.lit(expo), loc), 0)
        if not da:
            return (val, da, _NO_HESS)
        factor = ops.let(_chain(ops, e, va, val, loc, 1), 1)
        grad = {s: ops.let(factor if ops.is_one(f) else ops.mul(factor, ops.group(f)), 1)
                for s, f in da.items()}
        hess = _NO_HESS
        if second:
            # f(a)'' = f'(a) a'' + f''(a) a' a'
            curve = ops.let(_chain(ops, e, va, val, loc, 2, factor), 2)
            hess = _second(ops, [(factor, ha)], [(curve, da, None)])
        return (val, grad, hess)
    # the nonsmooth kinds, which only the value form admits
    if pos != {} and k in _NONSMOOTH:
        raise _dialect_error(e)
    if k == "abs" or k == "max":
        return (ops.let(ops.call(k, *(v for v, _, _ in parts)), 0), {}, _NO_HESS)
    if k == "norm0":
        return (ops.let(ops.call("_n0", ops.block(e.block)), 0), {}, _NO_HESS)
    raise ExprError(f"unknown node kind {k!r}")


def compiled_value(e):
    """fn(x, y) -> float: the tree's value on the float evaluator, over the
    point's blocks as lists of floats."""
    return lambda x, y: _sweep(e, _Evaluator(x, y), 0, {})[0]


def compiled_gradient(e, n, m):
    """(fn, width) with fn(x, y) -> (value, {flat coordinate: partial}) on
    the float evaluator, over the width n + m flat coordinates (x[i] -> i,
    y[j] -> n + j); a coordinate the tree does not depend on has no partial.
    A nonsmooth tree raises DialectError here, before anything is
    evaluated."""
    require_smooth(e)
    return (lambda x, y: _sweep(e, _Evaluator(x, y), n, None)[:2]), n + m


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
        if len(args) < 2:
            raise ParseError("max takes at least two arguments", line, col)
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
