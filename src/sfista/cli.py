"""Command-line entry points.

`bench run` executes a method x instance grid and writes a csv or markdown
table; `bench atr` summarizes an existing csv as an average time ratio;
`solve` runs one method on a matrix loaded from disk (lasso form).  Both
commands run the methods of `bench.METHODS`, with the same settings.

A config file is plain `key = value` text whose keys match the long flag
names (dashes or underscores).  Values from the config file act as defaults;
flags given explicitly on the command line win.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from .bench import (
    METHODS,
    atr_from_records,
    desk_suite,
    emit_table,
    parse_csv,
    run_benchmark,
)
from .problems import gen_lasso, load_csv_matrix, load_matrix_market

_FAMILY_ALIASES = {
    "logistic": "logistic",
    "lasso": "lasso",
    "qp-simplex": "qp_simplex",
    "qp-box": "qp_box",
}


def read_config_file(path: str) -> Dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; keys are normalized
    to underscores."""
    values: Dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """If --config appears in argv, load it and install its values as parser
    defaults so explicit flags still override.

    Defaults are applied to the top-level parser and to every subparser,
    since subcommand flags live on their own parsers.
    """
    cfg_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
    if cfg_path is None:
        return argv
    values = read_config_file(cfg_path)

    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    known = {a.dest for p in parsers for a in p._actions}
    unknown = set(values) - known
    if unknown:
        raise SystemExit(f"config file {cfg_path}: unknown keys {sorted(unknown)}")
    for p in parsers:
        local = {a.dest for a in p._actions}
        fit = {k: v for k, v in values.items() if k in local}
        if fit:
            p.set_defaults(**fit)
    return argv


def _build_bench_parser():
    parser = argparse.ArgumentParser(prog="bench", description="Benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a method x instance grid")
    run_p.add_argument("--family", required=True, choices=sorted(_FAMILY_ALIASES))
    run_p.add_argument("--methods", default=",".join(sorted(METHODS)),
                       help="comma-separated method names")
    run_p.add_argument("--eps", type=float, default=1e-8)
    run_p.add_argument("--time-limit", type=float, default=7200.0)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--out", default="results.csv")
    run_p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--config", default=None, help="key=value config file")

    atr_p = sub.add_parser("atr", help="summarize a results csv as an ATR")
    atr_p.add_argument("--baseline", default=None,
                       help="compare against this method (default: best other)")
    atr_p.add_argument("--subject", default="rpf-sfista")
    atr_p.add_argument("--in", dest="in_path", required=True)
    atr_p.add_argument("--time-limit", type=float, default=7200.0)
    atr_p.add_argument("--config", default=None, help="key=value config file")
    return parser


def bench_main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_bench_parser()
    argv = _apply_config_defaults(parser, argv)
    args = parser.parse_args(argv)

    if args.command == "run":
        family = _FAMILY_ALIASES[args.family]
        suite = desk_suite(family, seed=int(args.seed))
        methods = [m.strip() for m in str(args.methods).split(",") if m.strip()]
        records = run_benchmark(
            suite, methods, eps_hat=float(args.eps), time_limit=float(args.time_limit),
            out_path=args.out, workers=int(args.workers),
        )
        if args.format == "markdown":
            print(emit_table(records, "markdown"))
        print(f"wrote {len(records)} records to {args.out}")
        return 0

    with open(args.in_path, "r") as fh:
        records = parse_csv(fh.read())
    atr = atr_from_records(
        records, subject=args.subject,
        time_limit=float(args.time_limit), baseline=args.baseline,
    )
    against = args.baseline or "best other method"
    print(f"ATR of {args.subject} vs {against}: {atr:.4g}")
    return 0


def _load_problem_matrix(path: str):
    if path.endswith(".mtx"):
        return load_matrix_market(path)
    if path.endswith(".csv"):
        return load_csv_matrix(path)
    raise SystemExit(f"unsupported problem file {path!r} (expected .mtx or .csv)")


def solve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="solve", description="Solve one l1-constrained least-squares problem"
    )
    parser.add_argument("--problem", required=True, help="matrix file (.mtx or .csv)")
    parser.add_argument("--c", type=float, default=1.0, help="l1-ball radius")
    parser.add_argument("--method", default="rpf-sfista", choices=sorted(METHODS))
    parser.add_argument("--eps", type=float, default=1e-13)
    parser.add_argument("--time-limit", type=float, default=7200.0)
    parser.add_argument("--rhs", default=None, help="optional right-hand side csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="key=value config file")

    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_defaults(parser, argv)
    args = parser.parse_args(argv)

    A = _load_problem_matrix(args.problem)
    if args.rhs is not None:
        b = np.asarray(load_csv_matrix(args.rhs)).ravel()
    else:
        rng = np.random.default_rng(int(args.seed))
        b = rng.standard_normal(A.shape[0])

    problem, z0 = gen_lasso(A, b, float(args.c), seed=int(args.seed))

    out = METHODS[args.method](problem, z0, float(args.eps), float(args.time_limit))

    print(f"status: {out.status}")
    print(f"iterations: {out.total_iters}")
    print(f"prox evals: {out.counters.prox_evals}")
    print(f"relative residual: {out.residual:.6e}")
    print(f"runtime: {out.runtime_s:.3f}s")
    return 0 if out.status == "converged" else 1


if __name__ == "__main__":
    sys.exit(bench_main())
