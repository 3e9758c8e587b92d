"""Fingerprint of the numbers the library computes: the sha256 of each
array, so that two trees can be compared bit for bit.

    PYTHONPATH=src python tools/fingerprint.py --out head.json
    PYTHONPATH=<other checkout>/src python tools/fingerprint.py --against head.json

The matrix is BP1-BP5 x p in {2, 3} x the five geometry variants x both
numberings on 3^3 cells; each configuration contributes `b`, the inverse
diagonal and `apply(u)` for a fixed random `u`, and the final-tensor and
Laplace ones add the six solvers' x after 8 fixed iterations.  A 10 x 9 x 8
mesh of 720 cells in several batches adds `b`, the inverse diagonal and
`apply(u)` for BP1 and BP5 at p = 2.  The sum-factorization kernels of
`mfcg.tensor` add their results on fixed random inputs, for p = 1-6 at
Gauss p+1, p+2 and p+3 points, Gauss-Lobatto p+1 points and Gauss
max(p-1, 1) points (fewer points than nodes): the four cells-first
functions with and without even-odd products, the three lanes-last
functions and the lanes-last adjoint gradient kernel as `LanesKernels`
binds it.  Traced pcg and combined_pcg solves of 16 fixed iterations on
BP5 p = 3 3^3 cells, both numberings, add the six traffic numbers of
`replay_cache` at 4 KiB, 128 KiB, 256 KiB and 64 MiB, long enough that
the replay counts repeated periods instead of walking them.  All traced
streams fit in 256 KiB, so there a repeated period loads nothing; 128 KiB
lies between one iteration's working set and that footprint, so the
repeated periods' loads and stores enter a second capacity's hash.  mfcg is imported from
the path Python finds first, so PYTHONPATH picks the tree.  --out writes
the JSON (default: stdout); --against lists the keys whose hashes differ
from a saved fingerprint, or that only one side has, and exits 1 if there
are any.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import astuple
from math import prod

import numpy as np

import mfcg
from mfcg.bench import BENCHMARK_PROBLEMS, assemble_problem
from mfcg.locality import CacheModel, replay_cache
from mfcg.mesh import GeometryVariant
from mfcg.solvers import VARIANTS, SolverConfig, solve
from mfcg.tensor import (
    LanesKernels,
    evaluate_gradients,
    evaluate_gradients_lanes,
    evaluate_values,
    evaluate_values_lanes,
    gauss_lobatto_quadrature,
    gauss_quadrature,
    integrate_gradients,
    integrate_values,
    integrate_values_lanes,
    lagrange_basis,
    run_calls,
)
from mfcg.trace import AccessRecorder


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _problem(out: dict, key: str, problem, solvers: bool) -> None:
    op, b, minv = problem
    u = np.random.default_rng(0).standard_normal(op.n_dofs)
    out[f"{key}/b"] = _sha(b)
    out[f"{key}/inverse_diagonal"] = _sha(minv.inverse_diagonal)
    out[f"{key}/apply"] = _sha(op.apply(u))
    if solvers:
        config = SolverConfig(fixed_iterations=8)
        for variant in VARIANTS:
            out[f"{key}/x.{variant}"] = _sha(
                solve(variant, op, b, minv=minv, config=config).x)


def _integrate_gradients_lanes(basis, q) -> np.ndarray:
    """The lanes-last adjoint gradient kernel on q, (3, n_q, n_q, n_q) plus
    lane axes, run once as the cell loop binds it."""
    lanes = q.shape[4:]
    kernels = LanesKernels(basis, lanes, np.empty(
        (LanesKernels.rows(False, True), LanesKernels.plane_size(basis, prod(lanes)))),
        False, True)
    kernels.flux[...] = q
    run_calls(kernels.calls("integrate_gradients"))
    return kernels.integrated_gradients


def _kernels(out: dict) -> None:
    for p in range(1, 7):
        rules = {f"gauss{n}": gauss_quadrature(n) for n in (p + 1, p + 2, p + 3, max(p - 1, 1))}
        rules[f"lobatto{p + 1}"] = gauss_lobatto_quadrature(p + 1)
        for name, rule in rules.items():
            basis, n1, nq = lagrange_basis(p, rule), p + 1, len(rule)
            rng = np.random.default_rng([p, len(rule), name.startswith("lobatto")])
            u = rng.standard_normal((2, 3) + (n1,) * 3)
            q = rng.standard_normal((3, 2, 3) + (nq,) * 3)
            key = f"kernels/p{p}-{name}"
            for even_odd in (False, True):
                tag = "-even_odd" if even_odd else ""
                out[f"{key}/evaluate_values{tag}"] = _sha(evaluate_values(basis, u, even_odd))
                out[f"{key}/evaluate_gradients{tag}"] = _sha(
                    evaluate_gradients(basis, u, even_odd))
                out[f"{key}/integrate_values{tag}"] = _sha(integrate_values(basis, q[0], even_odd))
                out[f"{key}/integrate_gradients{tag}"] = _sha(
                    integrate_gradients(basis, q, even_odd))
            u = rng.standard_normal((n1,) * 3 + (5, 3))
            q = rng.standard_normal((3,) + (nq,) * 3 + (5, 3))
            out[f"{key}/evaluate_values_lanes"] = _sha(evaluate_values_lanes(basis, u))
            out[f"{key}/evaluate_gradients_lanes"] = _sha(evaluate_gradients_lanes(basis, u))
            out[f"{key}/integrate_values_lanes"] = _sha(integrate_values_lanes(basis, q[0]))
            out[f"{key}/integrate_gradients_lanes"] = _sha(_integrate_gradients_lanes(basis, q))


def _replays(out: dict) -> None:
    config = SolverConfig(fixed_iterations=16)
    for numbering in ("default", "optimized"):
        op, b, minv = assemble_problem("BP5", 3, (3, 3, 3), numbering=numbering)
        for variant in ("pcg", "combined_pcg"):
            recorder = AccessRecorder()
            res = solve(variant, op, b, minv=minv, config=config, recorder=recorder)
            for capacity in (4 << 10, 128 << 10, 256 << 10, 64 << 20):
                r = replay_cache(recorder, CacheModel(capacity), op.n_dofs,
                                 res.iterations)
                # the six traffic numbers, after the capacity
                out[f"replay/BP5-p3-{numbering}/{variant}/{capacity}"] = _sha(
                    np.array(astuple(r)[1:]))


def fingerprint() -> dict:
    out = {}
    for bp in sorted(BENCHMARK_PROBLEMS):
        for degree in (2, 3):
            for geometry in GeometryVariant:
                for numbering in ("default", "optimized"):
                    problem = assemble_problem(bp, degree, (3, 3, 3),
                                               geometry=geometry,
                                               numbering=numbering)
                    _problem(out, f"{bp}-p{degree}-{geometry.value}-{numbering}",
                             problem,
                             geometry == GeometryVariant.FINAL_TENSOR_LOAD
                             or BENCHMARK_PROBLEMS[bp].equation == "laplace")
    for bp in ("BP1", "BP5"):
        _problem(out, f"{bp}-p2-10x9x8", assemble_problem(bp, 2, (10, 9, 8)),
                 False)
    _kernels(out)
    _replays(out)
    return out


def differences(ours: dict, theirs: dict) -> list:
    """Keys whose hashes differ, or that only one side has, sorted."""
    return sorted(k for k in ours.keys() | theirs.keys()
                  if ours.get(k) != theirs.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the fingerprint JSON here")
    parser.add_argument("--against", help="a saved fingerprint to compare with")
    args = parser.parse_args(argv)
    print(f"fingerprinting mfcg from {mfcg.__file__}", file=sys.stderr)
    ours = fingerprint()
    text = json.dumps(ours, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    elif not args.against:
        sys.stdout.write(text)
    if args.against:
        with open(args.against) as fh:
            differ = differences(ours, json.load(fh))
        for key in differ:
            print(key)
        print(f"{len(differ)} of {len(ours)} keys differ", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
