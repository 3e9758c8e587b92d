"""Acceptance gate: the thirteen headline capabilities of the package, one
test (and one printed PASS/FAIL line) per criterion, at pinned tolerances.

Run with -s to see the measured numbers for passing criteria too.
"""

import math
import time

import numpy as np
import pytest

from mfcg.bench import assemble_problem, run_benchmark
from mfcg.dofs import (
    RANGE_SIZE,
    batch_size,
    compute_range_schedule,
    distribute_dofs,
    make_batches,
    renumber_optimized,
)
from mfcg.locality import (
    CacheModel,
    liveliness,
    predict_transfer,
    replay_cache,
    summarize_trace,
)
from mfcg.mesh import GeometryVariant, build_cartesian_mesh, deform_mesh
from mfcg.solvers import SolverConfig, solve
from mfcg.tensor import (
    evaluate_gradients,
    evaluate_values,
    gauss_quadrature,
    integrate_values,
    lagrange_basis,
)
from mfcg.trace import AccessRecorder

from _oracles import build_fem, dense_cg, dense_pcg, fem_rhs


def report(num, name, ok, detail):
    line = f"AC{num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# -------------------------------------------------------------------- AC 1


def test_01_operator_matches_assembled_matrix():
    variants = list(GeometryVariant)
    cases = []
    for comp in (1, 3):
        for variant in variants:
            cases.append(dict(cells=(2, 2, 2), p=2, comp=comp, eq="laplace",
                              variant=variant,
                              deformed=0.0 if variant == GeometryVariant.AFFINE
                              else 0.05))
    for p in (1, 2, 3, 4):
        for eq in ("mass", "laplace"):
            cases.append(dict(cells=(2, 2, 1), p=p, comp=1, eq=eq))
    cases += [
        dict(cells=(1, 1, 1), p=3, comp=3, eq="laplace"),
        dict(cells=(3, 2, 1), p=3, comp=3, eq="mass"),
        dict(cells=(4, 4, 4), p=4, comp=3, eq="laplace"),
        dict(cells=(4, 4, 4), p=1, comp=1, eq="mass"),
        dict(cells=(2, 2, 2), p=3, comp=1, eq="laplace", nq=4,
             quadrature="gauss_lobatto"),
        dict(cells=(2, 2, 2), p=4, comp=3, eq="mass_plus_laplace",
             scaling=0.7),
    ]
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1)
    for case in cases:
        op, handler = build_fem(**case)
        u = rng.standard_normal(handler.n_dofs)
        ref = op.assemble_sparse() @ u
        err = float(np.abs(op.apply(u) - ref).max() / np.abs(ref).max())
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(1, "operator equals assembled matrix",
           worst <= 1e-12 and elapsed <= 60.0,
           f"max rel error {worst:.2e} over {len(cases)} configurations "
           f"(degrees 1-4, 1/3 components, 5 geometry variants, meshes to "
           f"4^3) in {elapsed:.1f}s")


# -------------------------------------------------------------------- AC 2


def _naive_matrices(p):
    """Full O(p^6) tensor-product interpolation matrices, no factorization."""
    basis = lagrange_basis(p, gauss_quadrature(p + 2))
    V, G = basis.shape_values, basis.shape_gradients
    val = np.einsum("ai,bj,ck->abcijk", V, V, V)
    n_q, n_p = V.shape[0] ** 3, V.shape[1] ** 3
    grads = []
    for mats in ((V, V, G), (V, G, V), (G, V, V)):
        grads.append(np.einsum("ai,bj,ck->abcijk", *mats).reshape(n_q, n_p))
    return basis, val.reshape(n_q, n_p), grads


def test_02_sum_factorization_vs_naive():
    worst = 0.0
    rng = np.random.default_rng(2)
    trials_per_p = 200
    for p in (1, 2, 3, 4, 5):
        basis, val_mat, grad_mats = _naive_matrices(p)
        nq = p + 2
        for _ in range(trials_per_p):
            u = rng.standard_normal((p + 1, p + 1, p + 1))
            ref_val = (val_mat @ u.ravel()).reshape(nq, nq, nq)
            got_val = evaluate_values(basis, u)
            scale = np.abs(ref_val).max()
            worst = max(worst, np.abs(got_val - ref_val).max() / scale)
            got_grad = evaluate_gradients(basis, u)
            for c in range(3):
                ref_g = (grad_mats[c] @ u.ravel()).reshape(nq, nq, nq)
                scale = np.abs(ref_g).max()
                worst = max(worst, np.abs(got_grad[c] - ref_g).max() / scale)
            q = rng.standard_normal((nq, nq, nq))
            ref_int = (val_mat.T @ q.ravel()).reshape(p + 1, p + 1, p + 1)
            got_int = integrate_values(basis, q)
            scale = np.abs(ref_int).max()
            worst = max(worst, np.abs(got_int - ref_int).max() / scale)
    report(2, "sum factorization equals naive evaluation", worst <= 1e-13,
           f"max rel error {worst:.2e} over {5 * trials_per_p} random trials, "
           f"p 1-5, values/gradients/integration")


# -------------------------------------------------------------------- AC 3


def test_03_even_odd_equals_plain():
    worst = 0.0
    rng = np.random.default_rng(3)
    for p in (1, 2, 3, 4, 5):
        for nq in (p + 1, p + 2, p + 3):
            basis = lagrange_basis(p, gauss_quadrature(nq))
            u = rng.standard_normal((p + 1, p + 1, p + 1))
            q = rng.standard_normal((nq, nq, nq))
            pairs = [
                (evaluate_values(basis, u, even_odd=True),
                 evaluate_values(basis, u, even_odd=False)),
                (evaluate_gradients(basis, u, even_odd=True),
                 evaluate_gradients(basis, u, even_odd=False)),
                (integrate_values(basis, q, even_odd=True),
                 integrate_values(basis, q, even_odd=False)),
            ]
            for fast, plain in pairs:
                scale = np.abs(plain).max()
                worst = max(worst, np.abs(fast - plain).max() / scale)
    report(3, "even-odd decomposition equals plain sweeps", worst <= 1e-14,
           f"max rel error {worst:.2e} (p 1-5, collocation to p+3 points)")


# -------------------------------------------------------------------- AC 4


def test_04_solver_iteration_counts_and_solutions():
    op, b, minv = assemble_problem("BP3", 3, (2, 2, 2))
    A = op.assemble_sparse().toarray()
    oracle_cg = dense_cg(A, b, tol=1e-8)["iterations"]
    oracle_pcg = dense_pcg(A, b, minv.inverse_diagonal, tol=1e-8)["iterations"]
    xref = np.linalg.solve(A, b)
    scale = np.linalg.norm(xref)
    runs = [("cg", None, oracle_cg), ("pipelined", None, oracle_cg),
            ("combined_cg", None, oracle_cg), ("pcg", None, oracle_pcg),
            ("combined_pcg", None, oracle_pcg), ("sstep", 1, oracle_cg),
            ("sstep", 2, oracle_cg), ("sstep", 4, oracle_cg)]
    details, ok = [], True
    for variant, s, oracle in runs:
        cfg = SolverConfig(tolerance=1e-8, s=s or 4)
        res = solve(variant, op, b, minv=minv, config=cfg)
        err = np.linalg.norm(res.x - xref) / scale
        good = abs(res.iterations - oracle) <= 2 and err <= 1e-6
        ok &= good
        label = variant if s is None else f"{variant}(s={s})"
        details.append(f"{label} {res.iterations} vs {oracle} "
                       f"(err {err:.1e})")
    report(4, "all variants match the dense oracle", ok, "; ".join(details))


# -------------------------------------------------------------------- AC 5


def test_05_combined_pcg_scalar_trace():
    op, b, minv = assemble_problem("BP3", 3, (2, 2, 2))
    cfg = SolverConfig(fixed_iterations=10)
    ref = solve("pcg", op, b, minv=minv, config=cfg)
    fused = solve("combined_pcg", op, b, minv=minv, config=cfg)
    worst = 0.0
    for h_ref, h_fused in zip(ref.history, fused.history):
        for key in ("alpha", "beta"):
            denom = abs(h_ref[key]) or 1.0
            worst = max(worst, abs(h_ref[key] - h_fused[key]) / denom)
    report(5, "combined PCG reproduces PCG scalars", worst <= 1e-8,
           f"max rel alpha/beta deviation {worst:.2e} over 10 iterations")


# -------------------------------------------------------------------- AC 6


def test_06_residual_recurrence_fidelity():
    op, handler = build_fem(cells=(4, 4, 4), p=3, constrain=True)
    b = fem_rhs(handler)
    gamma0 = float(b @ b)
    worst = 0.0
    for k in range(1, 21):
        res = solve("cg", op, b, config=SolverConfig(fixed_iterations=k))
        recur_sq = (res.residual * math.sqrt(gamma0)) ** 2
        true_sq = float(np.sum((b - op.apply(res.x)) ** 2))
        worst = max(worst, abs(recur_sq - true_sq))
    report(6, "recurred gamma tracks true residual", worst <= 1e-6 * gamma0,
           f"max |gamma - ||r||^2| = {worst:.2e} <= {1e-6 * gamma0:.2e} "
           f"over 20 iterations on 4^3/p=3")


# -------------------------------------------------------------------- AC 7


def test_07_transfer_model_table():
    expected = {
        ("cg", None): (9.0, 3.0),
        ("pipelined", None): (7.0, 6.0),
        ("sstep", 6): (5 + 4 / 6, 1 + 2 / 6),
        ("pcg", None): (13.0, 4.0),
        ("combined_cg", None): (3.5, 3.5),
        ("combined_pcg", None): (3.5 + 1 / 3, 3.5),
        ("matvec", None): (2.0, 1.0),
    }
    mismatches = []
    for (variant, s), (reads, writes) in expected.items():
        pred = predict_transfer(variant, s=s)
        got = ((pred.vector_reads, pred.vector_writes) if variant != "matvec"
               else (pred.matvec_reads, pred.matvec_writes))
        if got != (reads, writes):
            mismatches.append(f"{variant}: {got} != {(reads, writes)}")
    report(7, "transfer model table exact", not mismatches,
           "all seven rows exact" if not mismatches else "; ".join(mismatches))


# -------------------------------------------------------------------- AC 8


def test_08_traced_transfer_matches_model():
    op, handler = build_fem(cells=(4, 4, 4), p=3, comp=3, batch=40,
                            traversal="morton", constrain=True)
    b = fem_rhs(handler)
    minv = op.compute_diagonal()
    iters = 100
    details, ok = [], True
    for variant in ("cg", "pcg", "pipelined", "sstep", "combined_cg",
                    "combined_pcg"):
        recorder = AccessRecorder()
        res = solve(variant, op, b, minv=minv, recorder=recorder,
                    config=SolverConfig(fixed_iterations=iters, s=4))
        summary = summarize_trace(recorder, handler.n_dofs, res.iterations)
        pred = predict_transfer(variant, s=4)
        pairs = [(summary.vector_reads, pred.vector_reads),
                 (summary.vector_writes, pred.vector_writes)]
        if pred.matvec_reads:
            pairs += [(summary.matvec_reads, pred.matvec_reads),
                      (summary.matvec_writes, pred.matvec_writes)]
        rel = max(abs(got - want) / want for got, want in pairs)
        ok &= rel <= 0.02
        details.append(f"{variant} ({summary.vector_reads:.3f},"
                       f"{summary.vector_writes:.3f}) vs "
                       f"({pred.vector_reads:.3f},{pred.vector_writes:.3f}) "
                       f"[{rel:.2%}]")
    report(8, "instrumented traces match the model within 2%", ok,
           "; ".join(details))


# -------------------------------------------------------------------- AC 9


def test_09_cache_simulator_gap():
    start = time.perf_counter()
    cache = CacheModel(256 * 1024)
    op, handler = build_fem(cells=(16, 16, 16), p=3, comp=1, batch=128,
                            traversal="morton", numbering="optimized",
                            constrain=True)
    b = fem_rhs(handler)
    minv = op.compute_diagonal()
    loads = {}
    working_set = 0
    for variant in ("pcg", "combined_pcg"):
        recorder = AccessRecorder()
        res = solve(variant, op, b, minv=minv, recorder=recorder,
                    config=SolverConfig(tolerance=1e-8, max_iterations=400))
        replay = replay_cache(recorder, cache, handler.n_dofs, res.iterations)
        loads[variant] = replay.vector_loads_per_dof
        if variant == "pcg":
            # resident vectors of the naive solver, from its own trace
            working_set = sum(s.n_bytes for s in recorder.streams.values()
                              if s.kind == "vector")
    ratio = loads["combined_pcg"] / loads["pcg"]
    elapsed = time.perf_counter() - start
    report(9, "combined PCG ram loads <= 0.65x naive PCG",
           working_set >= 8 * cache.capacity_bytes and ratio <= 0.65
           and elapsed <= 300.0,
           f"vector working set {working_set / cache.capacity_bytes:.1f}x "
           f"cache; {loads['combined_pcg']:.2f} vs {loads['pcg']:.2f} "
           f"doubles/DoF (ratio {ratio:.3f}) in {elapsed:.0f}s")


# -------------------------------------------------------------------- AC 10


def test_10_liveliness_dominance_and_same_batch():
    mesh = deform_mesh(build_cartesian_mesh((16, 16, 16)), 0.05)
    handler = distribute_dofs(mesh, 5, components=1, constrain_boundary=True)
    plan = make_batches(mesh, batch_size(5, 1, 8), "morton")
    default = liveliness(compute_range_schedule(handler, plan))
    optimized = liveliness(compute_range_schedule(
        renumber_optimized(handler, plan), plan))
    grid = np.arange(default.n_batches + 1)
    dominated = bool(np.all(optimized.fraction_within(grid)
                            >= default.fraction_within(grid) - 1e-15))
    same = optimized.same_batch_fraction
    report(10, "optimized numbering dominates and is >= 70% same-batch",
           dominated and same >= 0.70,
           f"same-batch {default.same_batch_fraction:.3f} -> {same:.3f}, "
           f"CDF pointwise dominant on 16^3/p=5 ({default.n_ranges} ranges)")


# -------------------------------------------------------------------- AC 11


def test_11_batch_size_formula():
    got = (batch_size(5, 3, 8), batch_size(5, 1, 8))
    report(11, "batch-size heuristic", got == (16, 32),
           f"(p=5,c=3,lanes=8) -> {got[0]}, (p=5,c=1,lanes=8) -> {got[1]}")


# -------------------------------------------------------------------- AC 12


def test_12_callback_sequential_equivalence():
    op, handler = build_fem(cells=(3, 2, 2), p=2, comp=1, batch=4,
                            traversal="morton")
    n = handler.n_dofs
    rng = np.random.default_rng(12)
    worst_scalar = 0.0
    for trial in range(200):
        u0 = rng.standard_normal(n)
        w = rng.standard_normal(n)
        av = rng.uniform(0.5, 2.0, n)
        bv = rng.uniform(-1.0, 1.0, n)
        cv = rng.uniform(0.5, 1.5, n)

        def run(fused):
            src, dst, acc = u0.copy(), np.empty(n), [0.0]

            def pre(lo, hi):
                src[lo:hi] = av[lo:hi] * src[lo:hi] + bv[lo:hi]

            def post(lo, hi):
                acc[0] += float(dst[lo:hi] @ w[lo:hi])
                dst[lo:hi] *= cv[lo:hi]

            if fused:
                op.apply_with_callbacks(src, dst, pre, post)
            else:
                for lo in range(0, n, RANGE_SIZE):
                    pre(lo, min(lo + RANGE_SIZE, n))
                op.apply(src, out=dst)
                for lo in range(0, n, RANGE_SIZE):
                    post(lo, min(lo + RANGE_SIZE, n))
            return src, dst, acc[0]

        s1, d1, a1 = run(True)
        s2, d2, a2 = run(False)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(d1, d2)
        worst_scalar = max(worst_scalar,
                           abs(a1 - a2) / max(abs(a2), 1.0))
    report(12, "fused callbacks equal three-phase execution",
           worst_scalar <= 1e-13,
           f"200 trials bit-identical vectors, max scalar drift "
           f"{worst_scalar:.2e}")


# -------------------------------------------------------------------- AC 13


def test_13_performance_smoke_informational():
    walls = {}
    for variant in ("pcg", "combined_pcg"):
        rec = run_benchmark("BP5", 5, (8, 8, 8), variant, iterations=20,
                            repeats=5)
        walls[variant] = rec.wall_time
    ratio = walls["combined_pcg"] / walls["pcg"]
    detail = (f"combined_pcg/pcg wall-time ratio {ratio:.2f} at 8^3/p=5 "
              f"({walls['combined_pcg']:.2f}s vs {walls['pcg']:.2f}s)")
    if ratio > 1.0:
        detail += (" -- slower here: per-range callbacks cost python "
                   "overhead; the memory-traffic win is asserted by the "
                   "cache criterion instead (non-gating)")
    report(13, "performance smoke (informational)", True, detail)
