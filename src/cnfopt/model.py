"""Lifted problem objects, their compiled kernel and their validation.

A problem is a smooth convex objective g over (x, y) with smooth convex
inequality constraints (<= 0) and equality constraints (= 0), optionally
carrying the original nonsmooth objective over x alone plus a lift map
that reconstructs a feasible y from a given x.

Each problem compiles to a kernel (``_kernel``) whose forms give its
constraint values, their Jacobian rows and the augmented Lagrangian.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .expr import _RUNTIME, _cache_of, _emit, _Emitter
from .expr import (
    DialectError,
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
    lo, hi = box
    rng = np.random.default_rng(seed)
    bad = 0
    # a draw of k pairs takes the stream that drawing a, then b, pair by
    # pair would; a bounded k keeps memory independent of the pair count
    for start in range(0, pairs, _DRAW_PAIRS):
        ends = rng.uniform(lo, hi, (min(_DRAW_PAIRS, pairs - start), 2, dim))
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        for (a, b), mid in zip(ends, mids):
            over = fn(mid) > 0.5 * (fn(a) + fn(b)) + tol
            # a float fn's bool skips numpy's any(), which costs as much as fn
            if over.any() if isinstance(over, np.ndarray) else over:
                bad += 1
    return bad


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
        H[np.ix_(cols, cols)] += c * np.outer(u, u)
    else:
        block = c * np.outer(u, v)
        H[np.ix_(cols, vcols)] += block
        H[np.ix_(vcols, cols)] += block.T


_KERNEL_RUNTIME = {**_RUNTIME, "_outer": _outer}

# a kernel piece holds at most this many constraints, and the objective
# has a piece of its own: one straight-line function over everything would
# make compile-time memory grow with the problem size
_PIECE = 16

_HEADS = {"value": "_aval(x, y, mu, rho, a)", "gradient": "_agrad(x, y, mu, rho, a, acc)",
          "hessian": "_ahess(x, y, mu, rho, a, acc, h, H, jac)",
          "rows": "_cval(x, y, cv, jac)", "jacobian": "_cjac(x, y, cv, jac)"}


class _Kernel:
    """The compiled forms of one problem over one column subset and one
    constraint subset (see this module's and ``cnfopt.lagrangian``'s
    docstrings).  ``mu`` lists the multipliers of the selected inequalities,
    then of the selected equalities.  Each form compiles on first use, so
    value-only callers never pay for gradient code and gradient descent
    never pays for the Hessian form."""

    def __init__(self, prob, cols, ineq_idx, eq_idx):
        # no reference to prob itself: the kernel is cached on the problem,
        # and a cycle would keep both alive until a full garbage collection
        self._n, self._g = prob.n, prob.g
        self._pos = None if cols is None else {f: i for i, f in enumerate(cols)}
        self._width = prob.n + prob.m if cols is None else len(cols)
        self._cons = [(prob.ineqs[i], False) for i in ineq_idx]
        self._cons += [(prob.eqs[j], True) for j in eq_idx]
        self._value_pieces = self._grad_pieces = self._hess_pieces = None
        self._cons_pieces = {}  # the rows and Jacobian forms, by name
        self._pairs = {}  # (s, t) -> its slot in the Hessian form's entry list

    def value(self, vec, mu, rho):
        """A at the flat point ``vec`` (x block, then y block)."""
        if self._value_pieces is None:
            self._value_pieces = self._compile("value")
        x, y = self._blocks(vec)
        a = 0.0
        for piece in self._value_pieces:
            a = piece(x, y, mu, rho, a)
        return float(a)

    def value_and_grad(self, vec, mu, rho):
        """(A, partials as a list over the kernel's columns) at ``vec``."""
        if self._grad_pieces is None:
            self._grad_pieces = self._compile("gradient")
        x, y = self._blocks(vec)
        a = 0.0
        acc = [0.0] * self._width
        for piece in self._grad_pieces:
            a = piece(x, y, mu, rho, a, acc)
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
        if self._hess_pieces is None:
            self._hess_pieces = self._compile("hessian")
            self._upper = tuple(np.array(list(self._pairs), dtype=int).reshape(-1, 2).T)
            self._lower = np.tril_indices(self._width, -1)
        x, y = self._blocks(vec)
        a = 0.0
        acc = [0.0] * self._width
        h = [0.0] * len(self._pairs)
        H = np.zeros((self._width, self._width))
        jac = np.zeros((len(self._cons), self._width))
        with np.errstate(all="ignore"):  # overflow gives inf, as on floats
            for piece in self._hess_pieces:
                a = piece(x, y, mu, rho, a, acc, h, H, jac)
            H[self._upper] += h
            if rho:
                # jac holds the rows of the equalities and active inequalities
                H += (2.0 * rho) * (jac.T @ jac)
        H[self._lower] = H.T[self._lower]
        return float(a), acc, H

    def rows(self, vec, jac=None):
        """The selected constraints' values at ``vec``; given ``jac``, of shape
        (constraints, kernel columns), also their partials, row by row."""
        form = "rows" if jac is None else "jacobian"
        if form not in self._cons_pieces:
            self._cons_pieces[form] = self._compile(form)
        x, y = self._blocks(vec)
        cv = [0.0] * len(self._cons)
        for piece in self._cons_pieces[form]:
            piece(x, y, cv, jac)
        return np.array(cv)

    def _blocks(self, vec):
        # plain lists keep the compiled straight-line code on the float
        # fast path instead of numpy scalar arithmetic
        flat = vec.tolist()
        return flat[:self._n], flat[self._n:]

    def _second_order(self, hess, indent, weight):
        """The lines adding ``weight`` times a Hessian from ``_emit``: each
        entry into its slot of ``h``, each outer product into ``H``."""
        entries, outers = hess
        for key in sorted(entries):
            slot = self._pairs.setdefault(key, len(self._pairs))
            yield f"{indent}h[{slot}] += {weight}{entries[key]}"
        for c, u, v in outers:
            args = [f"{weight}{c}"]
            for d in (u, v) if v is not None else (u,):
                keys = sorted(d)
                args += [f"({', '.join(map(str, keys))},)", f"[{', '.join(d[s] for s in keys)}]"]
            yield f"{indent}_outer(H, {', '.join(args)})"

    def _compile(self, form):
        """The pieces of one form.  The value and rows forms are the gradient
        and Jacobian forms over no slots.  The rows and Jacobian forms write
        each constraint's value and row, with no objective piece.  The Hessian
        form adds second-order lines, and the rows of its 2 rho grad c grad c'."""
        head, second = _HEADS[form], form == "hessian"
        augmented = form in ("value", "gradient", "hessian")
        n, pos = self._n, ({} if form in ("value", "rows") else self._pos)
        pieces = []
        if augmented:
            em = _Emitter()
            val, grad, hess = _emit(self._g, em, n, pos, second)
            em.lines.append(f"    a = {val}")
            em.lines.extend(f"    acc[{s}] = {grad[s]}" for s in sorted(grad))
            em.lines.extend(self._second_order(hess, "    ", ""))
            pieces.append(em.build(head, "a", _KERNEL_RUNTIME))
        for lo in range(0, len(self._cons), _PIECE):
            em = _Emitter()
            for k in range(lo, min(lo + _PIECE, len(self._cons))):
                e, is_eq = self._cons[k]
                c, grad, hess = _emit(e, em, n, pos, second)
                if not augmented:
                    em.lines.append(f"    cv[{k}] = {c}")
                    em.lines.extend(f"    jac[{k}, {s}] = {grad[s]}" for s in sorted(grad))
                    continue
                p = c
                if not is_eq:
                    p = "p"
                    em.lines.append(f"    p = {c} if {c} > 0.0 else 0.0")
                em.lines.append(f"    a += mu[{k}] * {c} + rho * {p} * {p}")
                if grad:
                    # a zero weight adds nothing, so an overflowing partial
                    # cannot turn the sum into nan
                    em.lines.append(f"    w = mu[{k}] + 2.0 * rho * {p}")
                    em.lines.append("    if w != 0.0:")
                    em.lines.extend(f"        acc[{s}] += w * ({grad[s]})" for s in sorted(grad))
                    em.lines.extend(self._second_order(hess, "        ", "w * "))
                    if second:
                        # the row of an equality, or of an active inequality
                        # (see ``hessian``); with rho = 0 no row counts
                        em.lines.append("    if rho:" if is_eq
                                        else f"    if mu[{k}] + 2.0 * rho * {c} > 0.0:")
                        em.lines.extend(f"        jac[{k}, {s}] = {grad[s]}" for s in sorted(grad))
            pieces.append(em.build(head, "a" if augmented else "None", _KERNEL_RUNTIME))
        return pieces


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
        kernel = cache[key] = _Kernel(prob, cols, ineq_idx, eq_idx)
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
