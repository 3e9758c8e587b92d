"""Benchmark problem definitions and the timing harness.

The five classic operator configurations (scalar and 3-component mass and
Laplace operators integrated with p+2 Gauss points, plus the collocation
Laplace operator at p+1 Gauss-Lobatto points), a manufactured right-hand
side with a known smooth solution, and fixed-iteration throughput runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dofs import batch_size, distribute_dofs, make_batches, renumber_optimized
from .locality import predict_transfer
from .mesh import GeometryVariant, build_cartesian_mesh, deform_mesh, validate_cells
from .operator import MatrixFreeOperator, OperatorSpec
from .solvers import SolverConfig, solve
from .tensor import (
    LanesKernels,
    evaluate_values_lanes,
    integrate_values_lanes,
    lagrange_basis,
)


@dataclass(frozen=True)
class BenchmarkProblem:
    """One row of the benchmark-problem table: which bilinear form, how many
    vector components, and which quadrature the operator uses."""

    bp_id: str
    equation: str            # "mass" | "laplace"
    components: int
    quadrature_kind: str     # "gauss" | "gauss_lobatto"
    quadrature_offset: int   # n_q_1d = degree + quadrature_offset

    def n_quadrature(self, degree: int) -> int:
        return degree + self.quadrature_offset

    def operator_spec(self, degree: int,
                      geometry: GeometryVariant = GeometryVariant.FINAL_TENSOR_LOAD
                      ) -> OperatorSpec:
        return OperatorSpec(self.equation, self.components, degree,
                            self.n_quadrature(degree), geometry,
                            quadrature_kind=self.quadrature_kind)


BENCHMARK_PROBLEMS = {
    "BP1": BenchmarkProblem("BP1", "mass", 1, "gauss", 2),
    "BP2": BenchmarkProblem("BP2", "mass", 3, "gauss", 2),
    "BP3": BenchmarkProblem("BP3", "laplace", 1, "gauss", 2),
    "BP4": BenchmarkProblem("BP4", "laplace", 3, "gauss", 2),
    "BP5": BenchmarkProblem("BP5", "laplace", 1, "gauss_lobatto", 1),
}


def manufactured_solution(points: np.ndarray) -> np.ndarray:
    """u(x) = prod_i sin(pi x_i), identical in every vector component.

    Vanishes on the boundary of the unit cube, so the Dirichlet data is
    g = 0 exactly.  `points` has the coordinate on the last axis.
    """
    return np.prod(np.sin(np.pi * np.asarray(points)), axis=-1)


def manufactured_forcing(points: np.ndarray, equation: str) -> np.ndarray:
    """The f with -lap u = f (laplace) or u = f (mass) for the manufactured
    solution, per component."""
    u = manufactured_solution(points)
    if equation == "laplace":
        return 3.0 * math.pi ** 2 * u
    if equation == "mass":
        return u
    raise ValueError(f"no manufactured forcing for equation {equation!r}")


def build_rhs(op: MatrixFreeOperator) -> np.ndarray:
    """Weak-form right-hand side b_i = integral f phi_i dx for the
    manufactured forcing, integrated with the operator's own quadrature,
    basis and w det J on the tri-quadratic geometry.  Constrained entries
    are zeroed (g = 0)."""
    spec, mesh, handler = op.spec, op.mesh, op.handler
    nq = spec.n_q_1d
    geo_basis = lagrange_basis(2, op.quadrature)
    # batch by batch, lanes-last: the points from the batch's geometry
    # nodes, w det J from the operator's store, the nodal values added into
    # the first component of each node, which the others then copy
    rhs = np.zeros(handler.n_dofs)
    by_node = rhs.reshape(-1, spec.components)
    for b, cells in enumerate(op._batch_cells):
        nodes = np.take(mesh.quadratic_nodes, cells, axis=-1).reshape(3, 3, 3, 3, -1)
        pts = evaluate_values_lanes(geo_basis, nodes)  # (nq, nq, nq, 3, n_b)
        jxw = op._batch_geometry(b, coefficients=False)[1]
        fw = manufactured_forcing(np.moveaxis(pts, 3, -1), spec.equation)
        fw *= jxw.reshape(nq, nq, nq, -1)
        op.add_batch_nodes(b, integrate_values_lanes(op.basis, fw), by_node[:, 0])
    # column by column: numpy sees that the columns do not overlap, and
    # copies none through a temporary
    for component in range(1, spec.components):
        by_node[:, component] = by_node[:, 0]
    rhs[handler.constrained_dofs] = 0.0
    return rhs


@dataclass(frozen=True)
class RunRecord:
    """Result of one timed benchmark run."""

    bp_id: str
    degree: int
    cells: tuple
    n_dofs: int
    variant: str
    iterations: int
    wall_time: float         # min over repeats, seconds
    throughput: float        # DoFs/s = n_dofs * iterations / wall_time
    final_residual: float    # relative ||r|| / ||b|| after the run
    reads_per_dof: float     # modeled doubles per DoF per iteration
    writes_per_dof: float


def _problem_size(components: int, degree: int, cells) -> tuple:
    """(n_dofs, n_cells) of a continuous degree-p space on a structured mesh,
    in closed form: p n + 1 nodes per direction."""
    return (components * math.prod(degree * n + 1 for n in cells),
            math.prod(cells))


def workspace_bytes(components: int, degree: int, cells, n_q_1d: int, *,
                    gradients: bool = False, simd_lanes: int = 8) -> int:
    """Bytes of the workspace a benchmark problem's operator allocates (see
    `mfcg.operator`): the kernels' planes for its widest batch, the values
    integrated without gradients and the gradients without values, or the
    constrained (boundary) values if they are more."""
    n_cells = math.prod(cells)
    lanes = min(n_cells, batch_size(degree, components, simd_lanes)) * components
    planes = LanesKernels.rows(not gradients, gradients) * max(degree + 1, n_q_1d) ** 3
    nodes = [degree * n + 1 for n in cells]
    constrained = components * (math.prod(nodes) - math.prod(n - 2 for n in nodes))
    return 8 * max(planes * lanes, constrained)


def estimate_problem_bytes(components: int, degree: int, cells, n_q_1d: int, *,
                           gradients: bool = False, simd_lanes: int = 8) -> int:
    """Coarse allocation estimate from the closed-form sizes: what a problem
    holds, that is 12 vectors (b and the largest solver working set, s-step
    at s = 4: its 5 + 4 basis vectors, x and w), the mesh's 81 tri-quadratic
    node coordinates per cell, the per-batch geometry store (w det J per
    quadrature point, plus G's nine entries if the operator needs
    `gradients`), the int64 batch index per (cell, component, node) entry
    and the operator's workspace (`workspace_bytes`), plus the transient of
    one batch's geometry set-up, about 22 doubles per point of a batch of
    `simd_lanes` lanes."""
    n_dofs, n_cells = _problem_size(components, degree, cells)
    points = n_q_1d ** 3
    entries = n_cells * components * (degree + 1) ** 3
    batch = min(n_cells, batch_size(degree, components, simd_lanes))
    store = 10 if gradients else 1
    return (8 * (12 * n_dofs + (81 + store * points) * n_cells + entries
                 + 22 * batch * points)
            + workspace_bytes(components, degree, cells, n_q_1d, gradients=gradients,
                              simd_lanes=simd_lanes))


def discretize(problem: BenchmarkProblem, degree: int, cells, *, deform: float,
               numbering: str, traversal: str, simd_lanes: int,
               memory_limit_bytes: int = 2 ** 32):
    """The (deformed) mesh, its boundary-constrained DoF numbering and batch
    plan for one configuration: (mesh, handler, plan).  Raises MemoryError,
    before allocating anything per cell, when the coarse size estimate of
    the problem exceeds `memory_limit_bytes`."""
    if numbering not in ("default", "optimized"):
        raise ValueError(f"unknown numbering {numbering!r}")
    cells = validate_cells(cells)
    estimate = estimate_problem_bytes(problem.components, degree, cells,
                                      problem.n_quadrature(degree),
                                      gradients=problem.equation == "laplace",
                                      simd_lanes=simd_lanes)
    if estimate > memory_limit_bytes:
        raise MemoryError(
            f"size-too-large: {problem.bp_id} p={degree} cells={cells} needs "
            f"~{estimate / 2**20:.0f} MiB > limit {memory_limit_bytes / 2**20:.0f} MiB")
    mesh = build_cartesian_mesh(cells)
    if deform:
        mesh = deform_mesh(mesh, deform)
    handler = distribute_dofs(mesh, degree, components=problem.components,
                              constrain_boundary=True)
    plan = make_batches(mesh, batch_size(degree, problem.components, simd_lanes), traversal)
    if numbering == "optimized":
        handler = renumber_optimized(handler, plan)
    return mesh, handler, plan


def assemble_problem(bp_id: str, degree: int, cells, *,
                     geometry: GeometryVariant = GeometryVariant.FINAL_TENSOR_LOAD,
                     deform: float = None, numbering: str = "default",
                     traversal: str = "morton", simd_lanes: int = 8,
                     memory_limit_bytes: int = 2 ** 32):
    """Build the operator, manufactured right-hand side, and Jacobi
    preconditioner for one benchmark configuration.  The mesh is deformed
    by `deform`, by default 0.05, or 0 for the affine geometry, which is
    defined only on undeformed meshes.

    Returns (op, b, minv).  Raises MemoryError, before allocating anything
    per cell, when the coarse size estimate exceeds `memory_limit_bytes`.
    """
    problem = BENCHMARK_PROBLEMS.get(bp_id)
    if problem is None:
        raise ValueError(f"unknown benchmark problem {bp_id!r}; "
                         f"expected one of {sorted(BENCHMARK_PROBLEMS)}")
    cells = validate_cells(cells)
    spec = problem.operator_spec(degree, geometry)
    if deform is None:
        deform = 0.0 if geometry == GeometryVariant.AFFINE else 0.05
    mesh, handler, plan = discretize(
        problem, degree, cells, deform=deform, numbering=numbering,
        traversal=traversal, simd_lanes=simd_lanes,
        memory_limit_bytes=memory_limit_bytes)
    op = MatrixFreeOperator(spec, mesh, handler, plan)
    return op, build_rhs(op), op.compute_diagonal()


def run_benchmark(bp_id: str, degree: int, cells, variant: str, *,
                  iterations: int = 100, repeats: int = 8,
                  geometry: GeometryVariant = GeometryVariant.FINAL_TENSOR_LOAD,
                  numbering: str = "default", traversal: str = "morton",
                  simd_lanes: int = 8) -> RunRecord:
    """Time `variant` on one benchmark problem: a fixed iteration count per
    run, minimum wall time over sequential repeats (at least one); s-step
    runs blocks of the default `SolverConfig().s`."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    op, b, minv = assemble_problem(
        bp_id, degree, cells, geometry=geometry, numbering=numbering,
        traversal=traversal, simd_lanes=simd_lanes)
    cfg = SolverConfig(fixed_iterations=iterations)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(variant, op, b, minv=minv, config=cfg)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    pred = predict_transfer(variant, s=cfg.s if variant == "sstep" else None)
    return RunRecord(bp_id, degree, tuple(cells), op.n_dofs, variant, result.iterations,
                     best, op.n_dofs * result.iterations / best, result.residual,
                     pred.reads_per_dof, pred.writes_per_dof)
