"""Solver tests: hand-worked and dense oracles, scalar-trace equivalence
across variants, breakdown detection, and recurrence fidelity."""

import math

import numpy as np
import pytest

from _oracles import ArrayOperator, build_fem, dense_cg, dense_pcg, fem_rhs
from mfcg import solvers
from mfcg.solvers import (SolverBreakdown, SolverConfig, SolveResult,
                          fused_reductions, solve)
from mfcg.trace import AccessRecorder

ALL_SOLVERS = ["cg", "pcg", "pipelined", "sstep", "combined_cg",
               "combined_pcg"]


def run_variant(variant, A, b, minv=None, cfg=None, **kw):
    return solve(variant, A, b, minv=minv, config=cfg, **kw)


@pytest.fixture(scope="module")
def fem():
    op, handler = build_fem(cells=(2, 2, 2), p=3)
    b = fem_rhs(handler)
    minv = op.compute_diagonal()
    dense = op.assemble_sparse().toarray()
    return op, handler, b, minv, dense


class TestHandWorkedExample:
    # A = diag(2, 4), b = (2, 4): alpha_1 = 20/72 = 5/18, beta_1 = 4/81,
    # alpha_2 = 9/20, x = (1, 1) after exactly two iterations
    def test_cg_scalar_trace(self):
        res = solve("cg", ArrayOperator(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        assert res.iterations == 2
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=1e-14)
        np.testing.assert_allclose(res.history[0]["alpha"], 5 / 18, rtol=1e-14)
        np.testing.assert_allclose(res.history[0]["beta"], 4 / 81, rtol=1e-13)
        np.testing.assert_allclose(res.history[1]["alpha"], 9 / 20, rtol=1e-13)

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    def test_identity_converges_in_one_iteration(self, variant):
        n = 64
        A = ArrayOperator(np.eye(n))
        b = np.random.default_rng(1).standard_normal(n)
        res = run_variant(variant, A, b, minv=np.ones(n))
        assert res.converged
        # s-step counts whole outer blocks; everything else stops at one
        assert res.iterations <= (SolverConfig().s if variant == "sstep" else 1)
        np.testing.assert_allclose(res.x, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    def test_zero_rhs(self, variant):
        A = ArrayOperator(np.eye(5))
        res = run_variant(variant, A, np.zeros(5), minv=np.ones(5))
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)


class TestDenseOracleEquivalence:
    def test_cg_matches_oracle_exactly(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("cg", op, b)
        ref = dense_cg(dense, b)
        assert res.iterations == ref["iterations"]
        np.testing.assert_allclose(
            [h["alpha"] for h in res.history], ref["alpha"], rtol=1e-10)
        np.testing.assert_allclose(res.x, ref["x"], rtol=1e-8)

    def test_pcg_matches_oracle_exactly(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("pcg", op, b, minv=minv)
        ref = dense_pcg(dense, b, minv.inverse_diagonal)
        assert res.iterations == ref["iterations"]
        np.testing.assert_allclose(
            [h["alpha"] for h in res.history], ref["alpha"], rtol=1e-10)
        np.testing.assert_allclose(res.x, ref["x"], rtol=1e-8)

    @pytest.mark.parametrize("variant,s", [("pipelined", None), ("sstep", 1),
                                           ("sstep", 2), ("sstep", 4),
                                           ("combined_cg", None)])
    def test_unpreconditioned_variants(self, fem, variant, s):
        op, handler, b, minv, dense = fem
        cfg = SolverConfig(s=s) if s else None
        res = run_variant(variant, op, b, cfg=cfg)
        ref = dense_cg(dense, b)
        assert res.converged
        assert abs(res.iterations - ref["iterations"]) <= (s or 1) + 1
        np.testing.assert_allclose(res.x, ref["x"], rtol=1e-6 * 10)

    def test_combined_pcg(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("combined_pcg", op, b, minv=minv)
        ref = dense_pcg(dense, b, minv.inverse_diagonal)
        assert res.converged
        assert abs(res.iterations - ref["iterations"]) <= 1
        np.testing.assert_allclose(res.x, ref["x"], rtol=1e-5)


class TestScalarTraceEquivalence:
    def test_pipelined_first_ten(self, fem):
        op, handler, b, minv, dense = fem
        cfg = SolverConfig(fixed_iterations=10)
        ref = solve("cg", op, b, config=cfg)
        res = solve("pipelined", op, b, config=cfg)
        for h1, h2 in zip(ref.history, res.history):
            assert abs(h1["alpha"] - h2["alpha"]) <= 1e-8 * abs(h1["alpha"])
            assert abs(h1["gamma"] - h2["gamma"]) <= 1e-8 * h1["gamma"]

    def test_combined_cg_first_ten(self, fem):
        op, handler, b, minv, dense = fem
        cfg = SolverConfig(fixed_iterations=10)
        ref = solve("cg", op, b, config=cfg)
        res = solve("combined_cg", op, b, config=cfg)
        for h1, h2 in zip(ref.history, res.history):
            assert abs(h1["alpha"] - h2["alpha"]) <= 1e-8 * abs(h1["alpha"])
            assert abs(h1["beta"] - h2["beta"]) <= 1e-8 * abs(h1["beta"])

    def test_combined_pcg_first_ten(self, fem):
        op, handler, b, minv, dense = fem
        cfg = SolverConfig(fixed_iterations=10)
        ref = solve("pcg", op, b, minv=minv, config=cfg)
        res = solve("combined_pcg", op, b, minv=minv, config=cfg)
        for h1, h2 in zip(ref.history, res.history):
            assert abs(h1["alpha"] - h2["alpha"]) <= 1e-8 * abs(h1["alpha"])
            assert abs(h1["beta"] - h2["beta"]) <= 1e-8 * abs(h1["beta"])

    def test_sstep_s1_iterates_match_cg(self, fem):
        op, handler, b, minv, dense = fem
        for k in (1, 3, 7, 10):
            a = solve("cg", op, b, config=SolverConfig(fixed_iterations=k))
            c = solve("sstep", op, b,
                      config=SolverConfig(fixed_iterations=k, s=1))
            np.testing.assert_allclose(c.x, a.x, rtol=1e-8, atol=1e-12)

    def test_combined_pcg_identity_equals_combined_cg(self, fem):
        op, handler, b, minv, dense = fem
        a = solve("combined_cg", op, b)
        c = solve("combined_pcg", op, b, minv=np.ones(handler.n_dofs))
        assert a.iterations == c.iterations
        for h1, h2 in zip(a.history, c.history):
            assert abs(h1["alpha"] - h2["alpha"]) <= 1e-12 * abs(h1["alpha"])
            assert abs(h1["beta"] - h2["beta"]) <= 1e-12 * abs(h1["beta"])
        np.testing.assert_array_equal(a.x, c.x)


class TestRecurrenceFidelity:
    def test_combined_gamma_tracks_explicit_residual(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("combined_cg", op, b,
                    config=SolverConfig(fixed_iterations=20))
        gamma0 = float(b @ b)
        ref = dense_cg(dense, b, tol=0.0, maxit=20)
        # gamma entry of iteration k+1 is the recurred ||r_k||^2
        for k in range(19):
            explicit = ref["gamma"][k + 1]
            recurred = res.history[k + 1]["gamma"]
            assert abs(recurred - explicit) <= 1e-6 * gamma0

    def test_pipelined_drift_reported(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("pipelined", op, b,
                    config=SolverConfig(fixed_iterations=110))
        assert [k for k, _ in res.drift] == [50, 100]
        assert all(d < 1e-8 for _, d in res.drift)


class TestEnergyMonotonicity:
    def test_cg_energy_decreases(self, fem):
        op, handler, b, minv, dense = fem
        xstar = np.linalg.solve(dense, b)
        prev = None
        for k in range(1, 12):
            res = solve("cg", op, b, config=SolverConfig(fixed_iterations=k))
            e = res.x - xstar
            energy = float(e @ (dense @ e))
            if prev is not None:
                assert energy <= prev * (1 + 1e-12)
            prev = energy


class TestBreakdown:
    def test_cg_indefinite(self):
        A = ArrayOperator(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverBreakdown):
            solve("cg", A, np.array([0.0, 1.0, 0.0]))

    def test_combined_cg_indefinite(self):
        A = ArrayOperator(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverBreakdown):
            solve("combined_cg", A, np.array([0.0, 1.0, 0.0]))

    def test_pipelined_indefinite(self):
        A = ArrayOperator(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverBreakdown):
            solve("pipelined", A, np.array([1.0, 1.0, 1.0]))

    def test_sstep_names_outer_step(self):
        # indefinite system: the block Gram matrix cannot be SPD and the
        # degenerate step makes no progress
        A = ArrayOperator(np.diag([1.0, -1.0, 2.0, 5.0, -3.0, 4.0]))
        b = np.ones(6)
        with pytest.raises(SolverBreakdown, match="outer step 1"):
            solve("sstep", A, b, config=SolverConfig(s=4, fixed_iterations=8))

    def test_sstep_low_grade_rhs_converges_instead_of_breaking(self):
        # b spans a 2-dimensional invariant subspace: the s=4 block is rank
        # deficient but the minimum-norm step already solves the system
        A = ArrayOperator(np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]))
        b = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        res = solve("sstep", A, b, config=SolverConfig(s=4))
        assert res.converged and res.iterations == 4
        np.testing.assert_allclose(res.x, [1.0, 0.0, 0.5, 0.0, 0.0, 0.0],
                                   atol=1e-10)

    def test_combined_pcg_rejects_indefinite_preconditioner(self):
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0]))
        with pytest.raises(SolverBreakdown, match="preconditioner"):
            solve("combined_pcg", A, np.ones(3),
                  minv=np.array([1.0, -1.0, 1.0]))

    def test_pcg_rejects_negative_definite_preconditioner(self):
        # used to zero beta silently and report convergence
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0]))
        with pytest.raises(SolverBreakdown, match="preconditioner"):
            solve("pcg", A, np.ones(3), minv=-np.ones(3))

    def test_pcg_rejects_indefinite_preconditioner_mid_solve(self):
        # r^T M^-1 r > 0 for r = b, <= 0 for a later unconverged residual
        A = ArrayOperator(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(SolverBreakdown, match="iteration 1"):
            solve("pcg", A, np.ones(3), minv=np.array([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    def test_non_finite_rhs_rejected(self, variant):
        # a NaN in b used to run every variant to the iteration limit
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0, 5.0]))
        b = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            solve(variant, A, b, minv=np.ones(4))

    @pytest.mark.parametrize("variant", ["pcg", "combined_pcg"])
    def test_non_finite_preconditioner_rejected(self, variant):
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match="non-finite"):
            solve(variant, A, np.ones(4), minv=np.array([1.0, np.inf, 1.0, 1.0]))

    @pytest.mark.parametrize("variant", ["cg", "pipelined", "sstep", "combined_cg"])
    def test_unpreconditioned_variants_ignore_the_preconditioner(self, variant):
        # a non-finite minv used to be refused even where it is never read
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0, 5.0]))
        want = solve(variant, A, np.ones(4)).x
        for minv in (np.array([1.0, np.inf, 1.0, 1.0]), np.ones(7)):
            got = solve(variant, A, np.ones(4), minv=minv).x
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    @pytest.mark.parametrize("case", ["huge_rhs", "nan_operator"])
    def test_non_finite_scalar_breaks_down_at_once(self, variant, case):
        # a finite b whose norm overflows, or an operator that yields NaN,
        # used to run every variant to the iteration limit and return a NaN
        # x with converged=False
        diag = np.diag([2.0, 3.0, 4.0, 5.0])
        if case == "huge_rhs":
            A, b = ArrayOperator(diag), np.full(4, 1e200)
        else:
            A, b = ArrayOperator(np.where(diag > 0.0, np.nan, 0.0)), np.ones(4)
        step = "outer step 1" if variant == "sstep" else "iteration 1"
        with np.errstate(all="ignore"), \
                pytest.raises(SolverBreakdown, match=step):
            solve(variant, A, b, minv=np.ones(4))

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    def test_underflowing_rhs_norm_is_rescaled(self, variant):
        # ||b|| used to underflow to 0, so every variant took the zero-b exit
        # and returned x = 0 with converged=True
        A = ArrayOperator(np.diag([2.0, 3.0, 4.0, 5.0]))
        b = np.full(4, 1e-200)
        res = solve(variant, A, b, minv=np.ones(4))
        assert res.converged and res.iterations > 0
        np.testing.assert_allclose(res.x, b / np.array([2.0, 3.0, 4.0, 5.0]),
                                   rtol=1e-9)
        # an exact power-of-two rescaling: the same solve as for 2^k b
        shift = -int(np.frexp(1e-200)[1])
        scaled = solve(variant, A, np.ldexp(b, shift), minv=np.ones(4))
        np.testing.assert_array_equal(res.x, np.ldexp(scaled.x, -shift))
        assert res.history == scaled.history

    @pytest.mark.parametrize("variant", ["pcg", "combined_pcg"])
    def test_pcg_requires_preconditioner(self, variant):
        # a None preconditioner used to fail on its length (or, with n = 1,
        # run on a NaN inverse diagonal)
        for n in (1, 3):
            with pytest.raises(ValueError, match="requires a preconditioner"):
                solve(variant, ArrayOperator(np.eye(n)), np.ones(n), minv=None)

    def test_sstep_s_guard(self):
        with pytest.raises(ValueError, match="s > 8"):
            SolverConfig(s=9)


class TestConfigAndPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(s=0)

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance can never be met: cg used to run every iteration
        # and report converged=False
        with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
            SolverConfig(tolerance=np.nan)

    @pytest.mark.parametrize("count", [0, -3])
    def test_fixed_iterations_below_one_rejected(self, count):
        # 0 used to fall through `fixed_iterations or max_iterations` and
        # run 500 iterations; negative counts ran none
        with pytest.raises(ValueError, match="fixed_iterations"):
            SolverConfig(fixed_iterations=count)

    def test_fixed_iterations_exact_count(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("cg", op, b, config=SolverConfig(fixed_iterations=7))
        assert res.iterations == 7
        assert len(res.history) == 7
        assert not res.converged

    def test_nonconvergence_flagged(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("cg", op, b, config=SolverConfig(max_iterations=3))
        assert not res.converged
        assert res.iterations == 3

    def test_region_seconds_present(self, fem):
        op, handler, b, minv, dense = fem
        res = solve("pcg", op, b, minv=minv,
                    config=SolverConfig(fixed_iterations=3))
        for tag in ("matvec", "dot_pv", "update_x", "update_r", "norm_r",
                    "apply_prec", "dot_rz", "update_p"):
            assert res.region_seconds[tag] >= 0.0

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    @pytest.mark.parametrize("rhs", ["fem", "zero", "tiny"])
    def test_solution_owns_its_buffer(self, fem, variant, rhs):
        # callers keep x (the benchmark keeps every round's), so a view
        # into solver scratch would keep that scratch alive too
        op, handler, b, minv, dense = fem
        b = {"fem": b, "zero": np.zeros_like(b), "tiny": b * 1e-300}[rhs]
        res = run_variant(variant, op, b, minv=minv,
                          cfg=SolverConfig(fixed_iterations=4))
        assert res.x.base is None and res.x.flags.owndata
        assert res.x.shape == b.shape

    @pytest.mark.parametrize("variant", ALL_SOLVERS)
    def test_integer_and_list_rhs_solve_as_float(self, fem, variant):
        # an int64 b used to fail in every variant but sstep on the first
        # in-place update, and a list b on its first array method
        op, handler, b, minv, dense = fem
        b_int = np.rint(b * 1000).astype(np.int64)
        want = run_variant(variant, op, b_int.astype(np.float64), minv=minv,
                           cfg=SolverConfig(fixed_iterations=4)).x
        for rhs in (b_int, b_int.tolist()):
            got = run_variant(variant, op, rhs, minv=minv,
                              cfg=SolverConfig(fixed_iterations=4)).x
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_complex_rhs_refused(self):
        with pytest.raises(ValueError, match="real"):
            solve("cg", ArrayOperator(np.eye(2)), np.ones(2, dtype=complex))

    @pytest.mark.parametrize("traced", [False, True])
    def test_region_that_raises_records_nothing(self, traced):
        rec = AccessRecorder() if traced else None
        run = solvers._Run("cg", ArrayOperator(np.eye(4)), np.ones(4), None, rec)
        run.register(("x", "r"))
        marks = rec.mark() if traced else None
        with pytest.raises(ZeroDivisionError):
            with run.region("boom", reads=("x",), writes=("r",), rw=("x",)):
                1 / 0
        assert run.times == {}
        if traced:
            assert rec.mark() == marks
        with run.region("ok", reads=("x",), writes=("r",)) as rid:
            pass
        assert list(run.times) == ["ok"] and run.times["ok"] >= 0.0
        if traced:
            assert rid is not None and rec.region_tag(rid) == "ok"
            assert rec.mark() == marks + 2
        else:
            assert rid is None

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown"):
            solve("bicgstab", ArrayOperator(np.eye(2)), np.ones(2))

    def test_missing_preconditioner(self):
        with pytest.raises(ValueError):
            solve("pcg", ArrayOperator(np.eye(2)), np.ones(2))
        with pytest.raises(ValueError):
            solve("combined_pcg", ArrayOperator(np.eye(2)), np.ones(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            solve("cg", ArrayOperator(np.eye(3)), np.ones(4))

    def test_final_residual_meets_tolerance(self, fem):
        op, handler, b, minv, dense = fem
        for variant in ALL_SOLVERS:
            res = run_variant(variant, op, b, minv=minv)
            assert res.converged
            assert res.residual < 1e-8


class TestFusedReductions:
    def test_zero_vectors(self):
        z = np.zeros(10)
        np.testing.assert_array_equal(
            fused_reductions(z, z, z, None, 0, 10), np.zeros(7))

    def test_identity_degeneracy(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(32)
        p = rng.standard_normal(32)
        g, a, b, c, d, e, f = fused_reductions(r, r, p, None, 0, 32)
        assert b == c == g  # r = v makes r.v = v.v = r.r
        assert e == f == d

    def test_matches_independent_dots(self):
        rng = np.random.default_rng(4)
        n = 257
        r, v, p = (rng.standard_normal(n) for _ in range(3))
        m = rng.uniform(0.5, 2.0, n)
        got = fused_reductions(r, v, p, m, 0, n)
        ref = np.array([r @ r, p @ v, r @ v, v @ v,
                        r @ (m * r), r @ (m * v), v @ (m * v)])
        np.testing.assert_allclose(got, ref, rtol=1e-13)

    def test_partial_ranges_accumulate(self):
        rng = np.random.default_rng(5)
        n = 300
        r, v, p = (rng.standard_normal(n) for _ in range(3))
        total = np.zeros(7)
        for lo in range(0, n, 64):
            total += fused_reductions(r, v, p, None, lo, min(lo + 64, n))
        ref = fused_reductions(r, v, p, None, 0, n)
        np.testing.assert_allclose(total, ref, rtol=1e-13)


class TestThreeComponent:
    def test_pcg_replicated_diagonal(self):
        op, handler = build_fem(cells=(2, 2, 1), p=2, comp=3)
        b = fem_rhs(handler)
        minv = op.compute_diagonal()
        res = solve("pcg", op, b, minv=minv)
        ref = dense_pcg(op.assemble_sparse().toarray(), b,
                        np.repeat(minv.inverse_diagonal, 3))
        assert res.iterations == ref["iterations"]
        np.testing.assert_allclose(res.x, ref["x"], rtol=1e-7)

    def test_combined_pcg_scalar_diagonal(self):
        op, handler = build_fem(cells=(2, 2, 1), p=2, comp=3)
        b = fem_rhs(handler)
        minv = op.compute_diagonal()
        cfg = SolverConfig(fixed_iterations=10)
        ref = solve("pcg", op, b, minv=minv, config=cfg)
        res = solve("combined_pcg", op, b, minv=minv, config=cfg)
        # compare only iterations well above the round-off floor: once the
        # residual is near machine noise the recurred and explicit scalars
        # legitimately diverge
        compared = 0
        for h1, h2 in zip(ref.history, res.history):
            if h1["residual"] < 1e-6:
                break
            assert abs(h1["alpha"] - h2["alpha"]) <= 1e-8 * abs(h1["alpha"])
            compared += 1
        assert compared >= 5
