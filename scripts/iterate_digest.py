"""Print one digest line per solve, to check that a change keeps iterates bit for bit.

    PYTHONPATH=src python3 scripts/iterate_digest.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/iterate_digest.py > before.txt
    diff before.txt after.txt

where ../parent is a checkout of the commit to compare with.

Each line names the instance, method and eps, then the status, the iteration
and cycle counts, the three oracle counters and a SHA-256 (16 hex digits) of
the output's bytes: y, v, xi (y where it is None), L_final and the residual
(for A-REG: w, r and those of every inner output).  The runs cover every
`bench.METHODS` entry and A-REG on the four `desk_suite` families at instance
seed 42.  `--seed` picks another instance seed, and `--family qp_box --family
qp_simplex` keeps the named families only, so a change to one generator can
be checked at seeds kept back from development in minutes.
`--eps 1e-8,1e-13` adds the high-accuracy runs, which take about 20 minutes
on one core (fista-bt needs up to 920,000 iterations on the box QPs).  The
hashes depend on the BLAS build, so compare two runs on one machine only.
The script pins BLAS to one thread, which keeps them reproducible.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the hashes repeat exactly only at
# a fixed thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import struct

import numpy as np

from sfista import ARegConfig, desk_suite, make_instance, solve_areg
from sfista.bench import METHODS

FAMILIES = ("logistic", "lasso", "qp_simplex", "qp_box")


def _update(h, out) -> None:
    # y stands in for xi where a method has none (the comparison methods), so
    # digests stay comparable with those of commits that set xi = y there
    for a in (out.y, out.v, out.y if out.xi is None else out.xi):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(struct.pack("<dd", out.L_final, out.residual))


def digest(problem, z0, method: str, eps: float) -> str:
    h = hashlib.sha256()
    if method == "a-reg":
        out = solve_areg(problem, ARegConfig(eps=eps), z0)
        h.update(out.w.tobytes())
        h.update(out.r.tobytes())
        for inner in out.inner_outputs:
            _update(h, inner)
        iters = sum(inner.total_iters for inner in out.inner_outputs)
        cycles = sum(inner.cycles for inner in out.inner_outputs)
        counts = f"outer={out.outer_iters} iters={iters} cycles={cycles}"
    else:
        out = METHODS[method](problem, z0, eps, 7200.0)
        _update(h, out)
        counts = f"iters={out.total_iters} cycles={out.cycles}"
    c = out.counters
    return (f"{out.status} {counts} f={c.f_evals} grad={c.grad_evals} "
            f"prox={c.prox_evals} sha256={h.hexdigest()[:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=4, choices=range(1, 5),
                        help="instances per family, 1 to 4")
    parser.add_argument("--eps", default="1e-8", help="comma-separated tolerances")
    parser.add_argument("--seed", type=int, default=42, help="instance seed of the desk grids")
    parser.add_argument("--family", action="append", choices=FAMILIES,
                        help="a family to run, repeatable (default: all four)")
    args = parser.parse_args(argv)
    for family in args.family or FAMILIES:
        for spec in desk_suite(family, args.seed, args.count):
            problem, z0 = make_instance(spec)
            for eps in (float(e) for e in args.eps.split(",")):
                for method in [*METHODS, "a-reg"]:
                    try:
                        line = digest(problem, z0, method, eps)
                    except Exception as exc:  # report it and go on, as `bench run` does
                        line = f"error:{type(exc).__name__}: {exc}"
                    print(f"{spec.instance_id} {method} {eps:g} {line}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
