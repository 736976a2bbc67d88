"""Lifted problem objects, their compiled kernel and their validation.

A problem is a smooth convex objective g over (x, y) with smooth convex
inequality constraints (<= 0) and equality constraints (= 0), optionally
carrying the original nonsmooth objective over x alone plus a lift map
that reconstructs a feasible y from a given x.

Each problem has a kernel (``_kernel``) with one code, whose sections give
the augmented Lagrangian and the constraint values (order 0), its gradient
and the constraints' Jacobian rows (order 1) and its Hessian (order 2).
Its statements are written once (``_Kernel._assemble``) against the
operand interface of ``cnfopt.expr``: the float evaluator runs them for the
first ``expr.COLD_CALLS[k]`` calls of order k, and the next call compiles
them.  A Hessian call, whose count is 0, compiles them at once.

The compiled code comes in pieces, and a piece's text holds a placeholder
constant wherever an index goes, so the pieces of one shape have one text:
the constraints of one block kernel repeat those of the next with other
subscripts.  Each problem keeps the code compiled for each text in a dict
of its own, which all its kernels share, and each piece is a function made
from that code with its own indices swapped in for the placeholders.  So a
text compiles once per problem, and every piece runs the instructions of
the code that its own indices would compile to, with the same arithmetic in
the same order.  Nothing is shared between problems.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from types import FunctionType

import numpy as np

from .expr import _RUNTIME, _cache_of, _cold_call, _Emitter, _Evaluator, _sweep
from .expr import (
    DialectError,
    DomainError,
    Expr,
    ParseError,
    Point,
    evaluate,
    parse,
    pretty,
    require_smooth,
    walk,
)

DEFAULT_BOX = (-5.0, 5.0)

# slack allowed in the sampled midpoint convexity test
CONVEXITY_TOL = 1e-10


class ProblemFormatError(Exception):
    """Malformed problem text."""


@dataclass(frozen=True)
class CnfProblem:
    """A lifted form with dimensions n (x block) and m (y block).

    ``ineqs`` are the g_i (meaning g_i <= 0), ``eqs`` the h_j (= 0).
    ``reference_f`` is the original objective over x only and may use the
    nonsmooth dialect.  ``exact`` marks forms whose objective matches the
    reference at every feasible lifted point.  ``lift_map`` maps an x
    vector to a y vector satisfying the constraints; it is per-problem
    because there is no general recipe.  ``box`` is the per-coordinate
    sampling interval used by validation and heuristics.
    """

    name: str
    n: int
    m: int
    g: Expr
    ineqs: tuple = ()
    eqs: tuple = ()
    reference_f: Expr | None = None
    exact: bool = False
    lift_map: object = None
    box: tuple = DEFAULT_BOX

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(self.ineqs))
        object.__setattr__(self, "eqs", tuple(self.eqs))
        if self.n < 0 or self.m < 0:
            raise ValueError("dimensions must be nonnegative")
        if not -math.inf < self.box[0] < self.box[1] < math.inf:
            raise ValueError("box must be finite with lo < hi")
        for e in (self.g, *self.ineqs, *self.eqs):
            require_smooth(e)
            self._check_indices(walk(e))
        if self.reference_f is not None:
            nodes = walk(self.reference_f)
            self._check_indices(nodes)
            # only var and norm0 nodes name a block
            if any(node.block == "y" for node in nodes):
                raise ValueError("reference objective may only use the x block")

    def _check_indices(self, nodes):
        for node in nodes:
            bound = self.n if node.block == "x" else self.m
            if node.kind == "var" and not 0 <= node.index < bound:
                raise ValueError(
                    f"{node.block}[{node.index + 1}] out of range in '{pretty(node)}' "
                    f"(n={self.n}, m={self.m})"
                )

    @property
    def s(self):
        return len(self.ineqs)

    @property
    def r(self):
        return len(self.eqs)

    def check_point(self, p):
        if p.n != self.n or p.m != self.m:
            raise ValueError(
                f"point dims ({p.n}, {p.m}) do not match problem ({self.n}, {self.m})"
            )

    def objective(self, p):
        return evaluate(self.g, p)

    def reference(self, x):
        if self.reference_f is None:
            raise ValueError(f"problem {self.name!r} has no reference objective")
        return evaluate(self.reference_f, Point(x, np.zeros(self.m)))

    def lift(self, x):
        """Point (x, lift_map(x)); requires a lift map."""
        if self.lift_map is None:
            raise ValueError(f"problem {self.name!r} has no lift map")
        x = np.asarray(x, dtype=float)
        y = np.asarray(self.lift_map(x), dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"lift map returned shape {y.shape}, expected ({self.m},)")
        return Point(x, y)

    def constraint_values(self, p):
        """(inequality values, equality values) at a point, from the kernel."""
        self.check_point(p)
        cv = _kernel(self).rows(p.flat())
        return cv[:self.s], cv[self.s:]

    def default_start(self):
        return Point(np.zeros(self.n), np.zeros(self.m))


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst constraint residuals at a point.  ``in_feasible_set`` is true
    exactly when both residuals are within the tolerance used to build the
    report; ``exactness_gap`` is |g - f| when a reference is available."""

    max_ineq_violation: float
    max_eq_residual: float
    in_feasible_set: bool
    exactness_gap: float | None = None

    def to_dict(self):
        return asdict(self)


def check_feasible(prob, p, tol=1e-8):
    """Report the worst positive inequality value and the worst |equality|
    at p, and whether both are within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    gv, hv = prob.constraint_values(p)
    worst_g = float(np.max(np.maximum(gv, 0.0))) if gv.size else 0.0
    worst_h = float(np.max(np.abs(hv))) if hv.size else 0.0
    gap = None
    if prob.reference_f is not None:
        gap = abs(prob.objective(p) - prob.reference(p.x))
    return FeasibilityReport(
        max_ineq_violation=worst_g,
        max_eq_residual=worst_h,
        in_feasible_set=(worst_g <= tol and worst_h <= tol),
        exactness_gap=gap,
    )


def validate_exactness(prob, samples=1000, seed=0):
    """Max |g(x, lift(x)) - f(x)| over random x drawn from the problem box."""
    if prob.lift_map is None or prob.reference_f is None:
        raise ValueError("exactness validation needs both lift_map and reference_f")
    rng = np.random.default_rng(seed)
    lo, hi = prob.box
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(lo, hi, prob.n)
        p = prob.lift(x)
        worst = max(worst, abs(prob.objective(p) - prob.reference(x)))
    return worst


# pairs drawn at once by the midpoint-convexity check
_DRAW_PAIRS = 256


def midpoint_convexity_violations(fn, dim, box, pairs, seed, tol=CONVEXITY_TOL):
    """Count sampled pairs (p, q) with fn((p+q)/2) > (fn(p)+fn(q))/2 + tol;
    when fn returns a vector, a pair counts once if any component does.

    A sampled necessary condition for convexity of fn over the box; cheap
    and catches sign mistakes, but no proof.
    """
    return sum(_violating_pairs(fn, dim, box, pairs, seed, tol))


def midpoint_convex(fn, dim, box, pairs, seed, tol=CONVEXITY_TOL):
    """``midpoint_convexity_violations(...) == 0``, with the same pairs and
    calls up to the first violating pair, where it stops."""
    return not any(_violating_pairs(fn, dim, box, pairs, seed, tol))


def _violating_pairs(fn, dim, box, pairs, seed, tol):
    """Yield True for each sampled pair that violates midpoint convexity, as
    soon as it is found."""
    lo, hi = box
    rng = np.random.default_rng(seed)
    # a draw of k pairs takes the stream that drawing a, then b, pair by
    # pair would; a bounded k keeps memory independent of the pair count
    for start in range(0, pairs, _DRAW_PAIRS):
        ends = rng.uniform(lo, hi, (min(_DRAW_PAIRS, pairs - start), 2, dim))
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        for (a, b), mid in zip(ends, mids):
            over = fn(mid) > 0.5 * (fn(a) + fn(b)) + tol
            # a float fn's bool skips numpy's any(), which costs as much as fn
            if over.any() if isinstance(over, np.ndarray) else over:
                yield True


def sample_convexity(prob, samples=500, seed=0, box=None):
    """Sampled midpoint-convexity check of every component function (the
    objective and each constraint); returns the number of violating pairs."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    kernel = _kernel(prob)

    def values(vec):
        return np.array([prob.objective(Point.from_flat(vec, prob.n, prob.m)), *kernel.rows(vec)])

    return midpoint_convexity_violations(
        values, prob.n + prob.m, box if box is not None else prob.box, samples, seed
    )


def _outer(H, c, cols, u, vcols=None, v=None):
    """Add c (u v' + v u') to H over ``cols`` x ``vcols``, or c u u' when v is
    None: an outer product the emitter left whole (``expr.OUTER_ENTRIES``)."""
    if v is None:
        H[_block(cols, cols)] += c * np.outer(u, u)
    else:
        block = c * np.outer(u, v)
        H[_block(cols, vcols)] += block
        H[_block(vcols, cols)] += block.T


def _block(rows, cols):
    """The index of H's block ``rows`` x ``cols``: a slice on each axis where
    both run lo, lo + 1, ..., else ``np.ix_``.  A slice adds to H in place,
    where index arrays gather and scatter the same entries."""
    r, c = _span(rows), _span(cols)
    return np.ix_(rows, cols) if r is None or c is None else (r, c)


def _span(cols):
    """The slice of the tuple ``cols`` if it runs lo, lo + 1, ..., else None."""
    lo = cols[0]
    return slice(lo, lo + len(cols)) if cols == tuple(range(lo, lo + len(cols))) else None


_KERNEL_RUNTIME = {**_RUNTIME, "_outer": _outer}

# the Hessian slots of a code not compiled at order 2: the evaluator adds
# its entries to H itself
_NO_SLOTS = np.zeros(0, dtype=int)

# a kernel piece holds at most this many constraints, and the objective
# has a piece of its own: one straight-line function over everything would
# make compile-time memory grow with the problem size
_PIECE = 16

# the head of each piece of the kernel's code, whose call of order k runs
# its sections 0 to k
_HEAD = "_aug(x, y, mu, rho, a, order=0, cv=None, acc=None, h=None, H=None, jac=None)"

# a piece's text writes each index as a placeholder constant: the odd
# integers from here up, numbered by first appearance.  No other constant
# of the code is one, for its other integers are section orders and int()s
# of floats (an exponent may be 1e19), and no float above 2**53 is odd
_PLACEHOLDER = 2**60 + 1

# the axis of each index of a stored item: k numbers a constraint of the
# kernel and s a column of its partials (a slot of ``acc``)
_AXES = {"acc": "s", "cv": "k", "jac": "ks"}


def _swapped(consts, values):
    """The constants ``consts`` of a piece's code with each placeholder,
    alone, in a tuple or in a slice (a compiler may fold a slice of
    constants into one), replaced by its index from ``values``."""
    return tuple(values[(c - _PLACEHOLDER) >> 1] if type(c) is int and c >= _PLACEHOLDER and c & 1
                 else _swapped(c, values) if type(c) is tuple
                 else slice(*_swapped((c.start, c.stop, c.step), values)) if type(c) is slice
                 else c for c in consts)


class _PieceEmitter(_Emitter):
    """The kernel's statements on symbolic operands: the lines of one piece
    of the code, over the parameters its head (``_HEAD``) names.  ``pairs``
    maps each Hessian entry (s, t) to its slot of ``h``.  Each order's lines
    and statements go to a section of their own, and ``build`` writes the
    sections in order.

    The text holds no index: each ``x[i]``, ``y[j]`` and ``mu[k]``
    subscript, each key of ``acc``, ``cv``, ``jac`` and ``h`` and each
    column of an outer product is a placeholder (``index``), so the pieces
    of one shape have one text.  ``build`` makes each from the one code
    compiled for its text, with its own indices swapped in as constants."""

    rho = "rho"

    def __init__(self, pairs):
        super().__init__()
        self.pairs = pairs
        self.sections = ([], [], [])
        self.indent = ["    "] * 3
        self.indices = {}  # (axis, index) -> its placeholder, in order of appearance

    def index(self, axis, i):
        """The placeholder's text of the index ``i`` on ``axis``: a variable
        block, k (a constraint), s (a column) or h (a Hessian slot)."""
        text = self.indices.get((axis, i))
        if text is None:
            text = self.indices[axis, i] = str(_PLACEHOLDER + 2 * len(self.indices))
        return text

    def var(self, block, i):
        return f"{block}[{self.index('k' if block == 'mu' else block, i)}]"

    def put(self, name, key, value, order, add=False):
        """Set ``name``, or its item or slice ``key``, to ``value`` (add it,
        with ``add``) in a statement of ``order``; returns the target."""
        if isinstance(key, slice):
            name = f"{name}[{self.index('k', key.start)}:{self.index('k', key.stop)}]"
        elif key is not None:
            keys = key if isinstance(key, tuple) else (key,)
            name = f"{name}[{', '.join(map(self.index, _AXES[name], keys))}]"
        self.sections[order].append(f"{self.indent[order]}{name} {'+=' if add else '='} {value}")
        return name

    def entry(self, key, value):
        """Add ``value`` to the Hessian entry ``key``."""
        slot = self.index("h", self.pairs.setdefault(key, len(self.pairs)))
        self.sections[2].append(f"{self.indent[2]}h[{slot}] += {value}")

    def outer(self, c, u, v):
        """Add an outer product the sweep left whole to H (see ``_outer``)."""
        args = [c]
        for d in (u, v) if v is not None else (u,):
            keys = sorted(d)
            args += [f"({', '.join(self.index('s', s) for s in keys)},)",
                     f"[{', '.join(d[s] for s in keys)}]"]
        self.sections[2].append(f"{self.indent[2]}_outer(H, {', '.join(args)})")

    def when(self, cond, order):
        """Open the block of the statements of ``order`` that run where
        ``cond`` holds; it lasts until ``end``.  Every block is written, so
        this is true."""
        self.sections[order].append(f"    if {cond}:")
        self.indent[order] = "        "
        return True

    def end(self, order):
        self.indent[order] = "    "

    given = staticmethod(lambda name: f"{name} is not None")
    items = staticmethod(lambda values: f"[{', '.join(values)}]")

    def build(self, head, result_expr, codes):
        """The piece's function over the sections in order, each after the
        first behind a return for the calls of a lower order.  Its code is
        the one ``codes`` keeps for its text, compiled by ``_Emitter.build``
        on a miss, with the piece's own indices in its constants and its own
        error locations in its globals."""
        top = max(k for k, lines in enumerate(self.sections) if lines or not k)
        for k in range(top + 1):
            if k:
                self.lines += [f"    if order < {k}:", f"        return {result_expr}"]
            self.lines += self.sections[k]
        text = self.source(head, result_expr)
        shared = codes.get(text)
        if shared is None:
            fn = super().build(head, result_expr, _KERNEL_RUNTIME)
            shared = codes[text] = (fn.__code__, fn.__defaults__)
        code, defaults = shared
        values = [i for _, i in self.indices]
        code = code.replace(co_consts=_swapped(code.co_consts, values))
        return FunctionType(code, {**_KERNEL_RUNTIME, **self.consts}, code.co_name, defaults)


class _PieceEvaluator(_Evaluator):
    """The kernel's statements on floats, over the arguments a compiled
    piece takes, under the names its head (``_HEAD``) gives them.  Hessian
    entries are summed in ``sums``, as compiled pieces sum them in ``h``."""

    def __init__(self, x, y, mu=None, rho=0.0, a=0.0, cv=None, acc=None, H=None, jac=None,
                 sums=None):
        super().__init__(x, y)
        self.mu, self.rho, self.a, self.cv = mu, rho, a, cv
        self.acc, self.H, self.jac, self.sums = acc, H, jac, sums

    def put(self, name, key, value, order, add=False):
        if key is None:
            if add:
                value = getattr(self, name) + value
            setattr(self, name, value)
        else:
            target = getattr(self, name)
            if add:
                value = target[key] + value
            target[key] = value
        return value

    def entry(self, key, value):
        self.sums[key] = self.sums.get(key, 0.0) + value

    def outer(self, c, u, v):
        args = []
        for d in (u, v) if v is not None else (u,):
            keys = sorted(d)
            args += [tuple(keys), [d[s] for s in keys]]
        _outer(self.H, c, *args)

    def given(self, name):
        return getattr(self, name) is not None

    items = staticmethod(list)

    @staticmethod
    def when(cond, order):
        return cond

    @staticmethod
    def end(order):
        pass


class _Kernel:
    """The code of one problem over one column subset and one constraint
    subset (see this module's and ``cnfopt.lagrangian``'s docstrings).
    ``mu`` lists the multipliers of the selected inequalities, then of the
    selected equalities.

    The code has three sections.  Order 0 adds each term of A and, given a
    ``cv`` list, stores each constraint's value; order 1 adds the terms'
    weighted partials and, given ``jac``, stores each constraint's row of
    partials; order 2 adds their second derivatives and clears the rows of
    the inactive inequalities.  A call of order k runs sections 0 to k:
    ``value`` and ``rows`` are of order 0, ``value_and_grad`` and ``rows``
    with ``jac`` of order 1, and ``hessian`` of order 2.  A call at or below
    the compiled order runs the compiled code.  Above it, the first
    ``expr.COLD_CALLS[k]`` calls of order k run on the float evaluator, and
    the next compiles the code at the highest order called so far.  So
    gradient descent compiles it once, at order 1, and Newton once, at
    order 2, on its first Hessian call.

    Compiling emits every piece and compiles only the texts that the
    problem's dict ``codes`` (text -> code) lacks; see
    ``_PieceEmitter.build``."""

    def __init__(self, prob, cols, ineq_idx, eq_idx, codes):
        # no reference to prob itself, or to the cache that holds the
        # kernel: the kernel is cached on the problem, and a cycle would keep
        # both alive until a full garbage collection
        self._n, self._g = prob.n, prob.g
        self._codes = codes  # piece text -> its code, shared by the problem's kernels
        self._pos = None if cols is None else {f: i for i, f in enumerate(cols)}
        self._width = prob.n + prob.m if cols is None else len(cols)
        self._cons = [(prob.ineqs[i], False) for i in ineq_idx]
        self._cons += [(prob.eqs[j], True) for j in eq_idx]
        self._no_mu = [0.0] * len(self._cons)  # a rows call's multipliers
        # the compiled pieces that serve each order, once compiled at or above it
        self._pieces = [None, None, None]
        self._calls = {}  # each order's calls not served compiled
        self._top = 0  # the highest order called
        self._pairs = {}  # (s, t) -> its slot in the order-2 section's entry list
        self._slots = _NO_SLOTS  # the flat index in H of each slot, once compiled
        self._lower = None  # the strict lower triangle of H, a mask

    def value(self, vec, mu, rho):
        """A at the flat point ``vec`` (x block, then y block)."""
        pieces = self._pieces[0]
        if pieces is None:
            pieces = self._warm(0)
        x, y = self._blocks(vec)
        a = 0.0
        for piece in pieces:
            a = piece(x, y, mu, rho, a)
        return float(a)

    def value_and_grad(self, vec, mu, rho):
        """(A, partials as a list over the kernel's columns) at ``vec``."""
        pieces = self._pieces[1]
        if pieces is None:
            pieces = self._warm(1)
        x, y = self._blocks(vec)
        a = 0.0
        acc = [0.0] * self._width
        for piece in pieces:
            a = piece(x, y, mu, rho, a, 1, None, acc)
        return float(a), acc

    def hessian(self, vec, mu, rho):
        """(A, partials, Hessian) at ``vec``: ``value_and_grad``'s A and
        partials bit for bit, and the exactly symmetric dense Hessian
        grad^2 g + sum_i w_i grad^2 c_i + 2 rho sum over the active c_i of
        grad c_i grad c_i', w_i = mu_i + 2 rho p_i, over the kernel's columns.
        Equalities are active, and inequalities where mu_i + 2 rho c_i > 0 (the
        multiplier-shifted hinge max(c_i + mu_i / 2 rho, 0)): at mu_i = 0 where
        c_i > 0, which is exact.  A positive multiplier, left by the update on
        constraints that were active, keeps the curvature within mu_i / 2 rho
        below the kink, where a Newton step would see none and run along it."""
        pieces = self._pieces[2]
        if pieces is None:
            if self._lower is None:
                self._lower = np.tri(self._width, k=-1, dtype=bool)
            pieces = self._warm(2)
        x, y = self._blocks(vec)
        a = 0.0
        acc = [0.0] * self._width
        h = [0.0] * len(self._pairs)
        H = np.zeros((self._width, self._width))
        jac = np.zeros((len(self._cons), self._width))
        with np.errstate(all="ignore"):  # overflow gives inf, as on floats
            for piece in pieces:
                a = piece(x, y, mu, rho, a, 2, None, acc, h, H, jac)
            H.reshape(-1)[self._slots] += h  # one index array: faster than (s, t) pairs
            if rho:
                # jac holds the rows of the equalities and active inequalities
                H += (2.0 * rho) * (jac.T @ jac)
        np.copyto(H, H.T, where=self._lower)
        return float(a), acc, H

    def rows(self, vec, jac=None):
        """The selected constraints' values at ``vec``, from the code at
        order 0; given ``jac``, of shape (constraints, kernel columns), also
        their partials, row by row, at order 1."""
        order = 0 if jac is None else 1
        pieces = self._pieces[order]
        if pieces is None:
            pieces = self._warm(order)
        x, y = self._blocks(vec)
        cv = [0.0] * len(self._cons)
        # at zero multipliers an overflowing hinge still gives a nan weight,
        # whose partials go to a list that is dropped
        acc = [0.0] * self._width if order else None
        # the first piece is the objective's, which a rows call skips
        for piece in pieces[1:]:
            piece(x, y, self._no_mu, 0.0, 0.0, order, cv, acc, None, None, jac)
        return np.array(cv)

    def _blocks(self, vec):
        # plain lists keep the compiled straight-line code on the float
        # fast path instead of numpy scalar arithmetic
        flat = vec.tolist()
        return flat[:self._n], flat[self._n:]

    def _groups(self):
        """The objective (None), then the constraints in runs of _PIECE: the
        pieces of the code."""
        return [None] + [range(lo, min(lo + _PIECE, len(self._cons)))
                         for lo in range(0, len(self._cons), _PIECE)]

    def _warm(self, order):
        """The pieces that run one call of ``order`` that no compiled code
        serves: the evaluator's for the order's first
        ``expr.COLD_CALLS[order]`` such calls; then the code compiled at the
        highest order called so far, kept for every later call it serves."""
        self._top = max(self._top, order)
        if _cold_call(self._calls, order, order):
            return self._evaluator_pieces()
        pieces = self._compile(self._top)
        self._pieces[:self._top + 1] = [pieces] * (self._top + 1)
        return pieces

    def _evaluator_pieces(self):
        """Pieces that run the statements on the float evaluator, with the
        compiled pieces' groups, parameters and results.  A compiled piece
        runs its order-0 statements first, so where a call of a higher order
        raises a DomainError, its group runs again at order 0 and raises that
        order's error if it has one."""
        sums = {}  # the Hessian entries, summed over the groups as ``h`` sums them
        groups = self._groups()

        def piece_of(ks):
            def piece(x, y, mu, rho, a, order=0, cv=None, acc=None, h=None, H=None, jac=None):
                ops = _PieceEvaluator(x, y, mu, rho, a, cv, acc, H, jac, sums)
                try:
                    self._assemble(ops, order, ks)
                except DomainError:
                    if order:
                        self._assemble(_PieceEvaluator(x, y, mu, rho, a), 0, ks)
                    raise
                if ks is groups[-1]:
                    # the entries add to H after every outer product, as ``hessian`` adds h
                    for key, total in sums.items():
                        H[key] += total
                return ops.a

            return piece

        return [piece_of(ks) for ks in groups]

    def _compile(self, order):
        """The compiled pieces of the code up to ``order``, one per group of
        ``_groups``."""
        pieces = []
        for ks in self._groups():
            em = _PieceEmitter(self._pairs)
            self._assemble(em, order, ks)
            pieces.append(em.build(_HEAD, "a", self._codes))
        if order == 2:
            self._slots = np.array([s * self._width + t for s, t in self._pairs], dtype=int)
        return pieces

    def _assemble(self, ops, order, ks):
        """The statements of the code up to ``order`` on the operand
        interface ``ops``: the objective's when ``ks`` is None, else those of
        the constraints ``ks``.  Order 0 adds each term of A and, behind one
        guard, stores each constraint's value in a given ``cv``; order 1 adds
        the terms' weighted partials and, behind one guard, stores each
        constraint's row in a given ``jac``; order 2 adds their second
        derivatives and then clears the row of each inactive inequality, so
        ``jac`` holds the rows of 2 rho grad c grad c' (see ``hessian``).  A
        later section reads the hinge and weight of an earlier one, so each
        constraint names its own, ``p<i>`` and ``w<i>``, by its place i in
        the piece: pieces of one shape write the same names."""
        pos = self._pos if order else {}
        if ks is None:
            val, grad, hess = _sweep(self._g, ops, self._n, pos, order == 2)
            ops.put("a", None, val, 0)
            for s in sorted(grad):
                ops.put("acc", s, grad[s], 1)
            self._curvature(ops, hess, None)
            return
        values = []  # the constraints' values, for a given cv
        rows = []  # (k, value, partials, is_eq) of each constraint with partials
        for i, k in enumerate(ks):
            e, is_eq = self._cons[k]
            c, grad, hess = _sweep(e, ops, self._n, pos, order == 2)
            values.append(c)
            p = c if is_eq else ops.put(f"p{i}", None, ops.hinge(c), 0)
            mu = ops.var("mu", k)
            ops.put("a", None, ops.plus(ops.mul(mu, c), ops.mul(ops.rho, p, p)), 0, add=True)
            if not grad:
                continue
            rows.append((k, c, grad, is_eq))
            # a zero weight adds nothing, so an overflowing partial cannot
            # turn the sum into nan
            w = ops.put(f"w{i}", None, ops.plus(mu, ops.mul(ops.lit(2.0), ops.rho, p)), 1)
            if ops.when(ops.nonzero(w), 1):
                for s in sorted(grad):
                    ops.put("acc", s, ops.mul(w, ops.group(grad[s])), 1, add=True)
                ops.end(1)
            if order == 2 and (hess[0] or hess[1]) and ops.when(ops.nonzero(w), 2):
                self._curvature(ops, hess, w)
                ops.end(2)
        if values and ops.when(ops.given("cv"), 0):
            ops.put("cv", slice(ks[0], ks[-1] + 1), ops.items(values), 0)
            ops.end(0)
        if rows and ops.when(ops.given("jac"), 1):
            for k, _, grad, _ in rows:
                for s in sorted(grad):
                    ops.put("jac", (k, s), grad[s], 1)
            ops.end(1)
        if order == 2:
            # after the row stores, which the evaluator runs as written: an
            # inequality counts where mu + 2 rho c > 0 (see ``hessian``)
            for k, c, _, is_eq in rows:
                if not is_eq and ops.when(ops.inactive(
                        ops.plus(ops.var("mu", k), ops.mul(ops.lit(2.0), ops.rho, c))), 2):
                    ops.put("jac", k, ops.lit(0.0), 2)
                    ops.end(2)

    @staticmethod
    def _curvature(ops, hess, weight):
        """Add ``weight`` times a Hessian from ``_sweep`` (all of it when
        ``weight`` is None): each entry to its sum, each outer product to H."""
        entries, outers = hess
        for key in sorted(entries):
            ops.entry(key, entries[key] if weight is None else ops.mul(weight, entries[key]))
        for c, u, v in outers:
            ops.outer(c if weight is None else ops.mul(weight, c), u, v)


def _kernel(prob, cols=None, ineq_idx=None, eq_idx=None):
    """The kernel of ``prob`` over the flat columns ``cols`` (all when None)
    and the given constraint subsets (all when None), cached on the problem
    like compiled expressions are cached on their nodes."""
    if cols == tuple(range(prob.n + prob.m)):
        cols = None  # every column in order is the whole-problem kernel
    ineq_idx = tuple(range(prob.s) if ineq_idx is None else ineq_idx)
    eq_idx = tuple(range(prob.r) if eq_idx is None else eq_idx)
    key = ("augmented", cols, ineq_idx, eq_idx)
    cache = _cache_of(prob)
    kernel = cache.get(key)
    if kernel is None:
        kernel = cache[key] = _Kernel(prob, cols, ineq_idx, eq_idx, cache.setdefault("codes", {}))
    return kernel


# ---------------------------------------------------------------------------
# problem text format


def dump_problem(prob):
    """Render a problem in the line-oriented text format."""
    lines = [f'problem "{prob.name}"', f"var x {prob.n}", f"aux y {prob.m}"]
    lines.append(f"objective: {pretty(prob.g)}")
    for gi in prob.ineqs:
        lines.append(f"ineq: {pretty(gi)}")
    for hj in prob.eqs:
        lines.append(f"eq: {pretty(hj)}")
    if prob.reference_f is not None:
        lines.append(f"reference: {pretty(prob.reference_f)}")
    if prob.exact:
        lines.append("exact: true")
    if tuple(prob.box) != DEFAULT_BOX:
        lines.append(f"box: {prob.box[0]:g} {prob.box[1]:g}")
    return "\n".join(lines) + "\n"


def _strip_comment(line):
    # '#' starts a comment unless it sits inside the quoted problem name
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def load_problem(text, name=None):
    """Parse the problem text format into a CnfProblem."""
    header = {"problem": None, "n": None, "m": None}
    body = []  # (keyword, payload, line number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("problem"):
            rest = line[len("problem"):].strip()
            if not (rest.startswith('"') and rest.endswith('"') and len(rest) >= 2):
                raise ProblemFormatError(f'line {lineno}: expected problem "<name>"')
            header["problem"] = rest[1:-1]
            continue
        if line.startswith("var ") or line.startswith("aux "):
            parts = line.split()
            if len(parts) != 3 or parts[1] not in ("x", "y"):
                raise ProblemFormatError(f"line {lineno}: expected '{parts[0]} x|y <count>'")
            try:
                count = int(parts[2])
            except ValueError:
                raise ProblemFormatError(f"line {lineno}: bad count {parts[2]!r}") from None
            header["n" if parts[1] == "x" else "m"] = count
            continue
        if ":" not in line:
            raise ProblemFormatError(f"line {lineno}: unrecognized line {line!r}")
        keyword, payload = line.split(":", 1)
        body.append((keyword.strip(), payload.strip(), lineno))

    if header["problem"] is None and name is None:
        raise ProblemFormatError("missing problem name line")
    if header["n"] is None or header["m"] is None:
        raise ProblemFormatError("missing 'var x <n>' or 'aux y <m>' declaration")
    n, m = header["n"], header["m"]

    g = None
    ineqs = []
    eqs = []
    reference = None
    exact = False
    box = DEFAULT_BOX
    for keyword, payload, lineno in body:
        try:
            if keyword == "objective":
                g = parse(payload, n=n, m=m)
            elif keyword == "ineq":
                ineqs.append(parse(payload, n=n, m=m))
            elif keyword == "eq":
                eqs.append(parse(payload, n=n, m=m))
            elif keyword == "reference":
                reference = parse(payload, n=n, m=m)
            elif keyword == "exact":
                if payload not in ("true", "false"):
                    raise ProblemFormatError(f"line {lineno}: exact must be true or false")
                exact = payload == "true"
            elif keyword == "box":
                try:
                    box = tuple(float(bound) for bound in payload.split())
                except ValueError:
                    box = ()
                if len(box) != 2 or not -math.inf < box[0] < box[1] < math.inf:
                    raise ProblemFormatError(
                        f"line {lineno}: box takes finite '<lo> <hi>' with lo < hi"
                    )
            else:
                raise ProblemFormatError(f"line {lineno}: unknown keyword {keyword!r}")
        except ParseError as err:
            raise ProblemFormatError(f"line {lineno}: {err}") from err

    if g is None:
        raise ProblemFormatError("missing objective line")
    try:
        return CnfProblem(
            name=header["problem"] if header["problem"] is not None else name,
            n=n,
            m=m,
            g=g,
            ineqs=tuple(ineqs),
            eqs=tuple(eqs),
            reference_f=reference,
            exact=exact,
            box=box,
        )
    except (ValueError, DialectError) as err:
        raise ProblemFormatError(str(err)) from err


def load_problem_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(fh.read())
