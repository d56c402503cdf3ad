"""Composite convex optimization toolkit: a restarted parameter-free
strongly convex FISTA solver, an aggressive-regularization outer loop for
merely convex problems, exact polytope projections, baseline accelerated
methods, benchmark problem generators, and a benchmark harness.
"""

from .core import (
    CompositeProblem,
    CountingOracle,
    OracleCounters,
    SmoothFunction,
    SolveOutput,
    eval_phi,
)
from .prox_ops import (
    Box,
    BoxHyperplane,
    ConvexSet,
    L1Ball,
    Simplex,
    project_simplex,
)
from .rpf_sfista import (
    SfistaConfig,
    SfistaTraceRow,
    solve_sfista,
)
from .a_reg import ARegConfig, ARegOutput, build_subproblem, outer_residual, solve_areg
from .baselines import (
    BaselineConfig,
    gradient_restart_fires,
    solve_fista_bt,
    solve_fista_restart,
    solve_greedy_fista,
    solve_rada_fista,
)
from .problems import (
    InstanceSpec,
    gen_lasso,
    gen_lasso_random,
    gen_logistic,
    gen_qp_box,
    gen_qp_simplex,
    load_csv_matrix,
    load_matrix_market,
    make_instance,
    opnorm_sq,
)
from .bench import (
    RunRecord,
    atr_from_records,
    compute_atr,
    desk_suite,
    emit_table,
    parse_csv,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeProblem", "CountingOracle", "OracleCounters", "SmoothFunction",
    "SolveOutput", "eval_phi",
    "ConvexSet", "Simplex", "L1Ball", "Box", "BoxHyperplane",
    "project_simplex",
    "SfistaConfig", "SfistaTraceRow", "solve_sfista",
    "ARegConfig", "ARegOutput", "build_subproblem", "outer_residual", "solve_areg",
    "BaselineConfig", "solve_fista_bt", "solve_fista_restart",
    "solve_rada_fista", "solve_greedy_fista", "gradient_restart_fires",
    "InstanceSpec", "gen_logistic", "gen_lasso", "gen_lasso_random",
    "gen_qp_simplex", "gen_qp_box", "make_instance",
    "load_matrix_market", "load_csv_matrix", "opnorm_sq",
    "RunRecord", "compute_atr", "run_benchmark",
    "emit_table", "parse_csv", "atr_from_records", "desk_suite",
]
