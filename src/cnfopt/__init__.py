"""Lifted reformulation of nonsmooth objectives with augmented Lagrangian
solvers and LP-based optimality certificates."""

from .alpf import (
    AlpfConfig,
    AlpfRecord,
    AlpfTrace,
    BlockPartition,
    format_table,
    solve_alpf,
    solve_decomposed,
    solve_penalty,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .certificate import (
    Certificate,
    certify,
    grad_zero_test,
    kkt_residual,
    lp_test_eq,
    lp_test_ineq,
    saddle_check,
)
from .expr import (
    DialectError,
    DomainError,
    Expr,
    ParseError,
    Point,
    evaluate,
    gradient,
    norm0_thresholded,
    parse,
    pretty,
)
from .inner import InnerConfig, InnerResult, minimize
from .lagrangian import (
    DualValue,
    Multipliers,
    augmented,
    augmented_gradient,
    dual_value,
    penalty,
)
from .lp import LpProblem, LpSolution, solve_lp
from .model import (
    CnfProblem,
    FeasibilityReport,
    check_feasible,
    dump_problem,
    load_problem,
    load_problem_file,
    sample_convexity,
    validate_exactness,
)
from .problems import CatalogEntry, build, catalog_ids

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
