"""Lifted problem objects and their validation.

A problem is a smooth convex objective g over (x, y) with smooth convex
inequality constraints (<= 0) and equality constraints (= 0), optionally
carrying the original nonsmooth objective over x alone plus a lift map
that reconstructs a feasible y from a given x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if not (self.box[0] < self.box[1]):
            raise ValueError("box must satisfy lo < hi")
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
        """(inequality values, equality values) at a point."""
        self.check_point(p)
        gv = np.array([evaluate(gi, p) for gi in self.ineqs])
        hv = np.array([evaluate(hj, p) for hj in self.eqs])
        return gv, hv

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
        return {
            "max_ineq_violation": self.max_ineq_violation,
            "max_eq_residual": self.max_eq_residual,
            "in_feasible_set": self.in_feasible_set,
            "exactness_gap": self.exactness_gap,
        }


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
    components = (prob.g, *prob.ineqs, *prob.eqs)

    def values(vec):
        p = Point.from_flat(vec, prob.n, prob.m)
        return np.array([evaluate(comp, p) for comp in components])

    return midpoint_convexity_violations(
        values, prob.n + prob.m, box if box is not None else prob.box, samples, seed
    )


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
                parts = payload.split()
                if len(parts) != 2:
                    raise ProblemFormatError(f"line {lineno}: box takes '<lo> <hi>'")
                box = (float(parts[0]), float(parts[1]))
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
