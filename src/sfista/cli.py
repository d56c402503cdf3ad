"""Command-line entry points.

`bench run` executes a method x instance grid and writes a csv or markdown
table; `bench atr` summarizes an existing csv as an average time ratio;
`solve` runs one method on a matrix loaded from disk (lasso form).  Both
commands run the methods of `bench.METHODS`, with the same settings.

`--config FILE` reads plain `key = value` lines whose keys are long flag
names (dashes or underscores) and parses each as the flag `--key=value`,
placed ahead of the command line's own flags (after `run` or `atr` for
`bench`).  argparse checks file values exactly as it checks flags: types,
choices, required flags and unknown keys, so a key that only the other
`bench` command takes is an error.  Flags given on the command line come
later and win.  Flags are never abbreviated: argparse would take `--conf`
for `--config`, but its file would not be read.  A bad flag, config value,
input file or library argument exits with status 2 and one `error:` line.
"""

from __future__ import annotations

import argparse
import re
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


_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path: str) -> Dict[str, str]:
    """Parse `key = value` lines; a '#' at the start of a line or after
    whitespace starts a comment, so values may contain '#'; keys are
    normalized to dashes, as in the long flag names."""
    values: Dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("_", "-")] = val.strip()
    return values


def _expand_config(argv: List[str], at: int) -> List[str]:
    """argv with a `--key=value` token per line of its --config file
    inserted at index `at`, ahead of the flags that follow, which win."""
    path = None
    for tok, following in zip(argv, argv[1:] + [None]):
        if tok == "--config":
            path = following
        elif tok.startswith("--config="):
            path = tok.partition("=")[2]
    if path is None:
        return argv
    values = read_config_file(path)
    if "config" in values:
        raise ValueError(f"{path}: a config file cannot name another config file")
    return argv[:at] + [f"--{key}={val}" for key, val in values.items()] + argv[at:]


def _build_bench_parser():
    parser = argparse.ArgumentParser(prog="bench", description="Benchmark harness",
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a method x instance grid", allow_abbrev=False)
    run_p.add_argument("--family", required=True,
                       choices=["lasso", "logistic", "qp-box", "qp-simplex"])
    run_p.add_argument("--methods", default=",".join(sorted(METHODS)),
                       help="comma-separated method names")
    run_p.add_argument("--eps", type=float, default=1e-8)
    run_p.add_argument("--time-limit", type=float, default=7200.0)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--out", default="results.csv")
    run_p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    run_p.add_argument("--config", default=None, help="key=value config file")

    atr_p = sub.add_parser("atr", help="summarize a results csv as an ATR",
                           allow_abbrev=False)
    atr_p.add_argument("--baseline", default=None,
                       help="compare against this method (default: best other)")
    atr_p.add_argument("--subject", default="rpf-sfista")
    atr_p.add_argument("--in", dest="in_path", required=True, help="results csv")
    atr_p.add_argument("--time-limit", type=float, default=7200.0)
    atr_p.add_argument("--config", default=None, help="key=value config file")
    return parser


def bench_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_bench_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # the command comes first: the top-level parser has no flags of its own
        return _bench(parser.parse_args(_expand_config(argv, 1)))
    except (OSError, ValueError) as exc:  # a bad input file or argument value
        parser.error(str(exc))


def _bench(args: argparse.Namespace) -> int:
    if args.command == "run":
        suite = desk_suite(args.family.replace("-", "_"), seed=args.seed)
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        records = run_benchmark(suite, methods, eps_hat=args.eps, time_limit=args.time_limit)
        with open(args.out, "w", newline="") as fh:
            fh.write(emit_table(records, "csv"))
        if args.format == "markdown":
            print(emit_table(records, "markdown"))
        print(f"wrote {len(records)} records to {args.out}")
        return 0

    with open(args.in_path, "r") as fh:
        records = parse_csv(fh.read())
    atr = atr_from_records(records, subject=args.subject, time_limit=args.time_limit,
                           baseline=args.baseline)
    against = args.baseline or "best other method"
    print(f"ATR of {args.subject} vs {against}: {atr:.4g}")
    return 0


def _load_problem_matrix(path: str):
    if path.endswith(".mtx"):
        return load_matrix_market(path)
    if path.endswith(".csv"):
        return load_csv_matrix(path)
    raise ValueError(f"unsupported problem file {path!r} (expected .mtx or .csv)")


def solve_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_solve_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _solve(parser.parse_args(_expand_config(argv, 0)))
    except (OSError, ValueError) as exc:  # a bad input file or argument value
        parser.error(str(exc))


def _build_solve_parser():
    parser = argparse.ArgumentParser(
        prog="solve", description="Solve one l1-constrained least-squares problem",
        allow_abbrev=False,
    )
    parser.add_argument("--problem", required=True, help="matrix file (.mtx or .csv)")
    parser.add_argument("--c", type=float, default=1.0, help="l1-ball radius")
    parser.add_argument("--method", default="rpf-sfista", choices=sorted(METHODS))
    parser.add_argument("--eps", type=float, default=1e-13)
    parser.add_argument("--time-limit", type=float, default=7200.0)
    parser.add_argument("--rhs", default=None, help="optional right-hand side csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="key=value config file")
    return parser


def _solve(args: argparse.Namespace) -> int:
    A = _load_problem_matrix(args.problem)
    if args.rhs is not None:
        b = np.asarray(load_csv_matrix(args.rhs)).ravel()
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(A.shape[0])

    problem, z0 = gen_lasso(A, b, args.c, seed=args.seed)

    out = METHODS[args.method](problem, z0, args.eps, args.time_limit)

    print(f"status: {out.status}")
    print(f"iterations: {out.total_iters}")
    print(f"prox evals: {out.counters.prox_evals}")
    print(f"relative residual: {out.residual:.6e}")
    print(f"runtime: {out.runtime_s:.3f}s")
    return 0 if out.status == "converged" else 1


if __name__ == "__main__":
    sys.exit(bench_main())
