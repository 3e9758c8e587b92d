"""Benchmark problem table, manufactured right-hand side, and timing
harness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfcg.bench
from mfcg.bench import (
    BENCHMARK_PROBLEMS,
    _problem_size,
    assemble_problem,
    build_rhs,
    estimate_problem_bytes,
    manufactured_forcing,
    manufactured_solution,
    run_benchmark,
    workspace_bytes,
)
from mfcg.dofs import distribute_dofs
from mfcg.locality import predict_transfer
from mfcg.mesh import GeometryVariant, build_cartesian_mesh
from mfcg.solvers import SolverConfig, solve

from _oracles import build_fem

# exact integrals of the manufactured solution on the unit cube
INT_U = (2.0 / math.pi) ** 3          # integral of prod sin(pi x_i)
ENERGY_LAPLACE = 3.0 * math.pi ** 2 / 8.0   # integral |grad u|^2
ENERGY_MASS = 0.125                         # integral u^2


class TestProblemTable:
    @pytest.mark.parametrize("bp,equation,components,kind,nq_of_p3", [
        ("BP1", "mass", 1, "gauss", 5),
        ("BP2", "mass", 3, "gauss", 5),
        ("BP3", "laplace", 1, "gauss", 5),
        ("BP4", "laplace", 3, "gauss", 5),
        ("BP5", "laplace", 1, "gauss_lobatto", 4),
    ])
    def test_derived_spec_matches_table(self, bp, equation, components,
                                        kind, nq_of_p3):
        problem = BENCHMARK_PROBLEMS[bp]
        spec = problem.operator_spec(3)
        assert spec.equation == equation
        assert spec.components == components
        assert spec.quadrature_kind == kind
        assert spec.n_q_1d == nq_of_p3
        assert problem.n_quadrature(3) == nq_of_p3

    def test_all_five_present(self):
        assert sorted(BENCHMARK_PROBLEMS) == ["BP1", "BP2", "BP3", "BP4", "BP5"]


class TestManufactured:
    def test_zero_on_unit_cube_boundary(self):
        pts = np.array([[0.0, 0.3, 0.7], [1.0, 0.5, 0.5], [0.2, 0.0, 0.9],
                        [0.2, 1.0, 0.9], [0.4, 0.6, 0.0], [0.4, 0.6, 1.0]])
        assert np.allclose(manufactured_solution(pts), 0.0, atol=1e-15)

    def test_center_value(self):
        assert manufactured_solution(np.array([0.5, 0.5, 0.5])) == pytest.approx(1.0)

    def test_forcing_matches_equation(self):
        pts = np.random.default_rng(3).random((10, 3))
        u = manufactured_solution(pts)
        np.testing.assert_allclose(manufactured_forcing(pts, "mass"), u)
        np.testing.assert_allclose(manufactured_forcing(pts, "laplace"),
                                   3 * math.pi ** 2 * u)

    def test_unknown_equation_raises(self):
        with pytest.raises(ValueError):
            manufactured_forcing(np.zeros((1, 3)), "mass_plus_laplace")


class TestRhs:
    """sum_i b_i equals the quadrature integral of f because the basis is a
    partition of unity; the domain stays the unit cube under the
    boundary-preserving deformation."""

    # BP5's p+1-point Gauss-Lobatto rule under-integrates the smooth
    # forcing (exact only to degree 2n-3), hence the looser tolerance
    @pytest.mark.parametrize("bp,expected,rtol", [
        ("BP1", INT_U, 1e-9),
        ("BP2", 3 * INT_U, 1e-9),
        ("BP3", 3 * math.pi ** 2 * INT_U, 1e-9),
        ("BP5", 3 * math.pi ** 2 * INT_U, 1e-5),
    ])
    def test_partition_of_unity_integral(self, bp, expected, rtol):
        # needs the unconstrained space: with Dirichlet rows zeroed the sum
        # misses the boundary test functions
        problem = BENCHMARK_PROBLEMS[bp]
        op, _ = build_fem(cells=(3, 3, 3), p=3, comp=problem.components,
                          eq=problem.equation, nq=problem.n_quadrature(3),
                          quadrature=problem.quadrature_kind, constrain=False)
        b = build_rhs(op)
        assert b.sum() == pytest.approx(expected, rel=rtol)

    def test_constrained_entries_zero(self):
        op, b, _ = assemble_problem("BP3", 3, (2, 2, 2))
        assert np.all(b[op.handler.constrained_dofs] == 0.0)

    def test_rhs_deterministic(self):
        op, b1, _ = assemble_problem("BP3", 2, (2, 2, 2))
        b2 = build_rhs(op)
        np.testing.assert_array_equal(b1, b2)


class TestEnergyIdentities:
    """Solving the discrete system reproduces the continuous energy
    x.b -> integral |grad u|^2 (Laplace) or integral u^2 (mass) up to
    discretization error."""

    @pytest.mark.parametrize("bp,degree,exact,rtol", [
        ("BP3", 3, ENERGY_LAPLACE, 1e-3),
        ("BP5", 3, ENERGY_LAPLACE, 1e-3),
        ("BP1", 3, ENERGY_MASS, 1e-4),
        ("BP2", 2, 3 * ENERGY_MASS, 1e-2),
        ("BP4", 2, 3 * ENERGY_LAPLACE, 1e-2),
    ])
    def test_energy(self, bp, degree, exact, rtol):
        op, b, minv = assemble_problem(bp, degree, (3, 3, 3))
        res = solve("pcg", op, b, minv=minv,
                    config=SolverConfig(tolerance=1e-10))
        assert res.x @ b == pytest.approx(exact, rel=rtol)

    def test_p_convergence(self):
        errors = []
        for p in (2, 3, 4):
            op, b, minv = assemble_problem("BP3", p, (2, 2, 2))
            res = solve("pcg", op, b, minv=minv,
                        config=SolverConfig(tolerance=1e-12,
                                            max_iterations=2000))
            errors.append(abs(res.x @ b - ENERGY_LAPLACE) / ENERGY_LAPLACE)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-5


class TestCrossVariant:
    def test_all_variants_agree(self):
        op, b, minv = assemble_problem("BP3", 3, (2, 2, 2))
        bnorm = np.linalg.norm(b)
        solutions = {}
        for variant in ("cg", "pcg", "pipelined", "sstep", "combined_cg",
                        "combined_pcg"):
            res = solve(variant, op, b, minv=minv,
                        config=SolverConfig(tolerance=1e-8, s=4))
            true_res = np.linalg.norm(b - op.apply(res.x)) / bnorm
            assert true_res <= 1e-6, f"{variant}: true residual {true_res}"
            solutions[variant] = res.x
        ref = solutions["cg"]
        scale = np.linalg.norm(ref)
        for variant, x in solutions.items():
            assert np.linalg.norm(x - ref) / scale <= 1e-6, variant


class TestAssembleGuards:
    def test_unknown_bp(self):
        with pytest.raises(ValueError, match="unknown benchmark problem"):
            assemble_problem("BP9", 3, (2, 2, 2))

    def test_memory_guard(self):
        with pytest.raises(MemoryError, match="size-too-large"):
            assemble_problem("BP3", 3, (2, 2, 2), memory_limit_bytes=1024)

    @settings(max_examples=40, deadline=None)
    @given(cells=st.tuples(*[st.integers(1, 6)] * 3), p=st.integers(1, 6),
           components=st.sampled_from([1, 3]))
    def test_closed_form_size_matches_numbering(self, cells, p, components):
        handler = distribute_dofs(build_cartesian_mesh(cells), p,
                                  components=components)
        assert _problem_size(components, p, cells) == (handler.n_dofs,
                                                        handler.n_cells)

    def test_memory_guard_fires_before_the_mesh(self, monkeypatch):
        # 99999^3 cells once died in numpy's allocator, not in the guard
        def no_mesh(*args, **kwargs):
            raise AssertionError("mesh built before the size guard")

        monkeypatch.setattr(mfcg.bench, "build_cartesian_mesh", no_mesh)
        with pytest.raises(MemoryError, match="size-too-large"):
            assemble_problem("BP5", 3, (99999,) * 3)

    @pytest.mark.parametrize("cells", [(-99999, -99999, 4), (0, 2, 2),
                                       (2, 2), (2, 2.5, 2)])
    def test_invalid_cells_refused_before_the_size_guard(self, cells):
        # (-99999, -99999, 4) used to be refused as size-too-large
        with pytest.raises(ValueError, match="three integers >= 1"):
            assemble_problem("BP5", 3, cells)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("bp", sorted(BENCHMARK_PROBLEMS))
    def test_estimate_within_twice_the_measured_peak(self, bp, n):
        # the estimate counts what the size guard of `discretize` counts: the
        # set-up and the largest solver working set (s-step), and G for the
        # Laplace problems
        problem = BENCHMARK_PROBLEMS[bp]
        tracemalloc.start()
        try:
            op, b, minv = assemble_problem(bp, 3, (n,) * 3)
            solve("sstep", op, b, minv=minv, config=SolverConfig(fixed_iterations=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = estimate_problem_bytes(problem.components, 3, (n,) * 3,
                                          problem.n_quadrature(3),
                                          gradients=problem.equation == "laplace")
        assert peak / 2 <= estimate <= 2 * peak

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("bp", sorted(BENCHMARK_PROBLEMS))
    def test_workspace_term_is_the_operators_workspace(self, bp, p, monkeypatch):
        # BP2 at p = 3 on 8^3 cells in batches of 5 holds more constrained
        # values than its planes; at 4 and 32 lanes the widest batch differs
        # from the one of 8 lanes, and the size guard of `discretize` counts
        # the workspace of the lanes it is given
        problem = BENCHMARK_PROBLEMS[bp]
        counted = []
        monkeypatch.setattr(mfcg.bench, "workspace_bytes", lambda *args, **kwargs: (
            counted.append(workspace_bytes(*args, **kwargs)) or counted[-1]))
        for cells, lanes in (((4, 4, 4), 8), ((3, 2, 5), 8), ((8, 8, 8), 1),
                             ((6, 6, 6), 4), ((8, 8, 8), 32)):
            op, _, _ = assemble_problem(bp, p, cells, simd_lanes=lanes)
            assert counted.pop() == op._workspace.nbytes == workspace_bytes(
                problem.components, p, cells, problem.n_quadrature(p),
                gradients=problem.equation == "laplace", simd_lanes=lanes)

    def test_affine_refuses_an_explicit_deformation(self):
        # the affine geometry defaults to an undeformed mesh, but an
        # explicit deformation is still refused
        op, _, _ = assemble_problem("BP3", 2, (2, 2, 2),
                                    geometry=GeometryVariant.AFFINE)
        assert op.mesh.deformation == 0.0
        with pytest.raises(ValueError, match="requires an undeformed mesh"):
            assemble_problem("BP3", 2, (2, 2, 2), geometry=GeometryVariant.AFFINE,
                             deform=0.05)

    def test_unknown_numbering(self):
        with pytest.raises(ValueError, match="numbering"):
            assemble_problem("BP3", 3, (2, 2, 2), numbering="fancy")

    def test_optimized_numbering_smoke(self):
        op, b, _ = assemble_problem("BP3", 2, (2, 2, 2),
                                    numbering="optimized")
        res = solve("cg", op, b, config=SolverConfig(tolerance=1e-10))
        assert res.converged


class TestRunRecord:
    def test_throughput_invariant(self):
        rec = run_benchmark("BP3", 2, (2, 2, 2), "cg", iterations=5, repeats=1)
        assert rec.throughput == rec.n_dofs * rec.iterations / rec.wall_time
        pred = predict_transfer("cg")
        assert rec.reads_per_dof == pred.reads_per_dof
        assert rec.writes_per_dof == pred.writes_per_dof

    def test_sstep_record_uses_s(self):
        rec = run_benchmark("BP3", 2, (2, 2, 2), "sstep", iterations=4,
                            repeats=1)
        assert SolverConfig().s == 4
        assert rec.reads_per_dof == pytest.approx(5 + 4 / 4 + 2)

    def test_run_benchmark_smoke(self):
        rec = run_benchmark("BP5", 3, (2, 2, 2), "combined_pcg",
                            iterations=20, repeats=2)
        assert rec.n_dofs == 7 ** 3
        assert rec.iterations == 20
        assert rec.wall_time > 0
        assert rec.throughput == pytest.approx(
            rec.n_dofs * rec.iterations / rec.wall_time)
        assert rec.final_residual < 1e-6

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_raises(self, repeats):
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            run_benchmark("BP5", 3, (2, 2, 2), "cg", iterations=2,
                          repeats=repeats)

    def test_sstep_rounds_to_whole_blocks(self):
        rec = run_benchmark("BP3", 2, (2, 2, 2), "sstep", iterations=10,
                            repeats=1)
        assert rec.iterations == 12   # 3 blocks of 4
