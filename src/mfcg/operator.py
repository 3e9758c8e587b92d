"""Matrix-free cell-loop evaluation of mass and Laplace operators, with
optional pre/post range callbacks interleaved into the batch loop, the
diagonal preconditioner, and a sparse assembly oracle for testing.

The cell kernel holds a batch lanes-last, (z, y, x, cells, components): the
cells and components are the innermost axis, as SIMD lanes, so each
sum-factorization sweep is a few GEMMs as wide as the batch (see
mfcg.tensor).  The geometry is held once, per batch, as
`mfcg.mesh.precompute_geometry` returns it, and the kernel, the diagonal
and the right-hand side read (G, w det J) from it through
`mfcg.mesh.geometry_coefficients`.

Each operator owns one workspace, allocated with it and sized for its
largest batch (after Kronbichler & Kormann, Computers & Fluids 63, 2012).
Every batch size is bound once to views into it: the gathered lanes, the
planes of the sweeps (`mfcg.tensor.LanesKernels`), the gradients, the flux
and the integrated sums.  Each batch is then bound, once, into a program:
one tuple of (function, operands, out) numpy calls on those views and on
the batch's geometry, which its cell kernel runs and nothing else.  The
program holds the sweeps, one `np.matmul` each; the mass term's w det J
scaling and the flux, one `np.einsum(..., out=)`, per component; the
ordered sums of the integration; and the mass plus Laplace combination.
The variants that do not store (G, w det J) form them first, with one call
into a buffer of their own.  Every application, traced or not, with
callbacks or not, runs the same programs.

Each batch holds one lane-order DoF index, and every scatter goes through
it: a batch takes src through it into the lanes, runs its program, and adds
its result into dst with one `np.add.at` through the same index; set-up
adds each batch's nodal values of the diagonal and the right-hand side
through it too, read per node (`add_batch_nodes`).  So every DoF adds its
contributions onto its running value, batch by batch and, within a batch,
in lane order.  A batch allocates only numpy's per-call bookkeeping; the
variants that form (G, w det J) allocate while forming them.  Nothing lives
in the workspace between batches, so a callback may apply the operator
again; two applications at once from different threads would share it and
must not run.

Constrained (Dirichlet) unknowns are kept in the system as identity rows:
each batch's gather zeroes its constrained entries, and the constrained
entries of the result are copied straight from the source after the last
batch.  This keeps the operator symmetric and the vectors full length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import prod
from typing import NamedTuple

import numpy as np

from . import trace
from .dofs import (
    RANGE_SIZE,
    BatchPlan,
    DofHandler,
    _expand_scalar,
    _group_by,
    compute_range_schedule,
)
from .mesh import (
    GeometryVariant,
    HexMesh,
    geometry_coefficients,
    precompute_geometry,
    stored_coefficients,
)
from .tensor import (
    LanesKernels,
    gauss_lobatto_quadrature,
    gauss_quadrature,
    lagrange_basis,
    run_calls,
)

__all__ = ["OperatorSpec", "DiagonalPreconditioner", "MatrixFreeOperator"]

EQUATIONS = ("mass", "laplace", "mass_plus_laplace")

# the flux of one component, flux_i = G[i, 0] grad_0 + G[i, 1] grad_1
# + G[i, 2] grad_2, in one pass over the points
FLUX = "ij...,j...->i..."


@dataclass(frozen=True)
class OperatorSpec:
    """What to integrate and how: equation, components, degree, quadrature,
    and the geometry-data variant the cell loop consumes."""

    equation: str
    components: int
    degree: int
    n_q_1d: int
    geometry: GeometryVariant
    quadrature_kind: str = "gauss"
    scaling: float = 1.0  # mass_plus_laplace: mass + scaling * laplace

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.components not in (1, 3):
            raise ValueError("components must be 1 or 3")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.n_q_1d < self.degree + 1:
            raise ValueError("n_q_1d must be at least p+1")
        if self.quadrature_kind not in ("gauss", "gauss_lobatto"):
            raise ValueError(f"unknown quadrature {self.quadrature_kind!r}")
        if self.quadrature_kind == "gauss_lobatto" and self.n_q_1d != self.degree + 1:
            raise ValueError("gauss_lobatto requires n_q_1d == p+1 (collocation)")

    @property
    def needs_values(self) -> bool:
        return self.equation in ("mass", "mass_plus_laplace")

    @property
    def needs_gradients(self) -> bool:
        return self.equation in ("laplace", "mass_plus_laplace")


@dataclass(frozen=True)
class DiagonalPreconditioner:
    """Inverse operator diagonal, stored once per scalar node and applied
    identically to every vector component."""

    inverse_diagonal: np.ndarray  # length n_dofs / components


# bytes per cell of the traced "cell_indices" stream: a cell's 27 int32
# entity-block starts
_INDEX_BYTES_PER_CELL = 27 * 4


def _cell_stream_ranges(cells: np.ndarray, bytes_per_cell: int) -> np.ndarray:
    """512-byte range ids covered by the per-cell records of `cells`."""
    cells = np.asarray(cells, dtype=np.int64)
    lo = (cells * bytes_per_cell) // trace.GRAIN_BYTES
    hi = -(-((cells + 1) * bytes_per_cell) // trace.GRAIN_BYTES)
    return np.unique(trace.expand_runs(lo, hi))


class _BatchViews(NamedTuple):
    """The kernels and views into the operator's workspace of the batches
    of one size."""

    kernels: LanesKernels
    lanes: np.ndarray       # the gathered batch, (p+1, p+1, p+1, cells, components)
    lanes_flat: np.ndarray


def _spans(ranges: np.ndarray, n: int) -> list:
    """[(lo, hi), ...] dof spans of ascending unique range ids, one per run
    of consecutive ids."""
    starts, stops = trace.runs_of(ranges)
    return [(int(lo) * RANGE_SIZE, min(int(hi) * RANGE_SIZE, n))
            for lo, hi in zip(starts, stops)]


class MatrixFreeOperator:
    """v = A u evaluated batch by batch with sum-factorized cell kernels."""

    def __init__(self, spec: OperatorSpec, mesh: HexMesh, handler: DofHandler,
                 plan: BatchPlan):
        if spec.components != handler.components:
            raise ValueError("spec/handler component mismatch")
        if spec.degree != handler.degree:
            raise ValueError("spec/handler degree mismatch")
        if mesh.cells_per_dim != handler.cells_per_dim:
            raise ValueError("mesh/handler shape mismatch")
        self.spec = spec
        self.mesh = mesh
        self.handler = handler
        self.plan = plan
        if spec.quadrature_kind == "gauss":
            self.quadrature = gauss_quadrature(spec.n_q_1d)
        else:
            self.quadrature = gauss_lobatto_quadrature(spec.n_q_1d)
        self.basis = lagrange_basis(spec.degree, self.quadrature)
        self.schedule = compute_range_schedule(handler, plan)
        self._nq = len(self.quadrature)
        self.n_dofs = handler.n_dofs
        self.components = spec.components
        self._batch_cells = [np.asarray(cells) for cells in plan.batches]

        # the geometry is computed batch by batch and held once, per batch,
        # as the kernel streams it; an operator without gradients drops G.
        # `geometry` keeps the variant's model volume, `doubles_per_cell`
        self._batch_store = []
        for cells in self._batch_cells:
            geometry = precompute_geometry(mesh, spec.geometry, self.quadrature, cells)
            self._batch_store.append(
                geometry if spec.needs_gradients else geometry.without_coefficients())
        self.geometry = replace(geometry, payload={})

        mask = np.zeros(handler.n_dofs, dtype=bool)
        mask[handler.constrained_dofs] = True
        self._constrained = handler.constrained_dofs

        # per batch: the flat DoF index in lane order, through which the
        # gather takes src in one pass and the scatter adds the result into
        # dst, and the constrained lanes the gather zeroes
        self._batch_index = []
        self._batch_zero = []
        for cells in self._batch_cells:
            index = (_expand_scalar(handler, cells).T[:, :, None] * self.components
                     + np.arange(self.components)).reshape(-1)
            self._batch_index.append(index)
            self._batch_zero.append(np.flatnonzero(mask[index]))
        # one workspace for every batch, sized for the largest: the kernels'
        # planes, the last one the gathered lanes, a batch of n lanes bound
        # to the leading part of it.  Batches of one size share their
        # views.  After the last batch the constrained values pass through
        # its head.
        values, gradients = spec.needs_values, spec.needs_gradients
        rows = LanesKernels.rows(values, gradients)
        widest = max(len(cells) for cells in self._batch_cells)
        self._workspace = np.empty(max(
            rows * LanesKernels.plane_size(self.basis, widest * self.components),
            len(self._constrained)))
        self._constrained_values = self._workspace[:len(self._constrained)]
        bound = {}
        for cells in self._batch_cells:
            lanes = (len(cells), self.components)
            if lanes in bound:
                continue
            size = LanesKernels.plane_size(self.basis, prod(lanes))
            kernels = LanesKernels(self.basis, lanes,
                                   self._workspace[:rows * size].reshape(rows, size),
                                   values, gradients)
            bound[lanes] = _BatchViews(kernels, kernels.input, kernels.input.reshape(-1))
        self._batch_views = [bound[len(cells), self.components]
                             for cells in self._batch_cells]
        # the variants that form G or jxw per batch form them into one more
        # buffer, sized likewise: nine parts for G, one for jxw
        G, jxw = stored_coefficients(self._batch_store[0], gradients)
        parts = 9 * (gradients and G is None) + (jxw is None)
        self._formed = np.empty(parts * self._nq ** 3 * widest) if parts else None
        # per batch: its program, every call of its cell kernel bound once
        self._programs = [self._bind_program(views.kernels, store, len(cells))
                          for views, store, cells in zip(
                              self._batch_views, self._batch_store, self._batch_cells)]
        # per batch: the dst spans first written there, and the (pre, post) callback spans
        self._zero_spans = [_spans(ranges, self.n_dofs) for ranges in _group_by(
            self.schedule.first_touch_batch, plan.n_batches)]
        self._hook_spans = tuple([_spans(ranges, self.n_dofs) for ranges in schedule]
                                 for schedule in (self.schedule.pre_schedule,
                                                  self.schedule.post_schedule))

    @cached_property
    def _trace_runs(self):
        """The runs a recorder stores, built on the first traced application
        (untraced set-up does without them): per batch, the runs of its
        src/dst, geometry and cell-index ranges, and the runs of the
        constrained ranges."""
        dpc_geo = self.geometry.doubles_per_cell * 8
        batches = [
            (trace.runs_of(np.unique(index // RANGE_SIZE)),
             trace.runs_of(_cell_stream_ranges(cells, dpc_geo)),
             trace.runs_of(_cell_stream_ranges(cells, _INDEX_BYTES_PER_CELL)))
            for index, cells in zip(self._batch_index, self._batch_cells)]
        return batches, trace.runs_of(np.unique(self._constrained // RANGE_SIZE))

    # -- geometry per batch ----------------------------------------------------

    def _batch_geometry(self, b: int, coefficients: bool = True):
        """(G, jxw) of batch b (see `mfcg.mesh.geometry_coefficients`); G is
        None unless the equation needs gradients, and coefficients=False
        skips forming it."""
        return geometry_coefficients(self._batch_store[b],
                                     coefficients and self.spec.needs_gradients)

    # -- cell kernel -------------------------------------------------------------

    def _bind_program(self, kernels: LanesKernels, store, n: int) -> tuple:
        """(program, result) of a batch of n cells: its cell kernel as one
        tuple of (function, operands, out) calls on `kernels`' views and
        the batch's geometry, and the view the result is left in."""
        spec, nq = self.spec, self._nq
        gradients = spec.needs_gradients
        calls = []
        G, jxw = stored_coefficients(store, gradients)
        if jxw is None or (gradients and G is None):
            size = nq ** 3 * n
            at = 9 * size if G is None and gradients else 0  # after a formed G
            formed = (self._formed[:at].reshape(3, 3, nq ** 3, n) if at else None,
                      self._formed[at:at + size].reshape(nq ** 3, n) if jxw is None else None)
            calls.append((geometry_coefficients, (store, gradients), formed))
            G = formed[0] if G is None else G
            jxw = formed[1] if jxw is None else jxw
        # the geometry acts on each component's strided view in turn:
        # broadcast over the components, it would run through numpy's
        # buffered iterator, which allocates and is slower
        components = range(spec.components)
        result = None
        if spec.needs_values:
            vals, jxw = kernels.values, jxw.reshape(nq, nq, nq, n)
            calls += kernels.calls("evaluate_values")
            calls += [(np.multiply, (vals[..., c], jxw), vals[..., c])
                      for c in components]
            calls += kernels.calls("integrate_values")
            result = kernels.integrated_values
        if gradients:
            G, grads, flux = (G.reshape(3, 3, nq, nq, nq, n), kernels.gradients,
                              kernels.flux)
            calls += kernels.calls("evaluate_gradients")
            calls += [(np.einsum, (FLUX, G, grads[..., c]), flux[..., c])
                      for c in components]
            calls += kernels.calls("integrate_gradients")
            lap = kernels.integrated_gradients
            if result is None:
                result = lap
            else:
                calls += [(np.multiply, (lap, spec.scaling), lap),
                          (np.add, (result, lap), result)]
        return tuple(calls), result

    def _batch_kernel(self, b: int, u: np.ndarray) -> np.ndarray:
        """Integrate the equation on batch b: run its program.

        u: the batch's (p+1, p+1, p+1, n_batch, components) nodal values,
        the cells and components innermost, as SIMD lanes; it must be the
        batch's `lanes` view of the workspace, where the program reads it.
        The result is a view into the workspace, valid until the next
        batch runs.
        """
        program, result = self._programs[b]
        run_calls(program)
        return result

    # -- application ------------------------------------------------------------

    def apply(self, src: np.ndarray, out: np.ndarray = None,
              recorder: trace.AccessRecorder = None,
              src_name: str = "src", dst_name: str = "dst") -> np.ndarray:
        """dst = A src over all batches (no callbacks)."""
        dst = out if out is not None else np.empty_like(src)
        self.apply_with_callbacks(src, dst, None, None, recorder=recorder,
                                  src_name=src_name, dst_name=dst_name)
        return dst

    def apply_with_callbacks(self, src: np.ndarray, dst: np.ndarray,
                             pre_fn=None, post_fn=None, *,
                             recorder: trace.AccessRecorder = None,
                             src_name: str = "src", dst_name: str = "dst") -> None:
        """Batched operator application with range callbacks interleaved.

        Per batch: fire pre_fn over the ranges scheduled before this batch,
        zero the dst ranges first written here, process the cells, then fire
        post_fn over the ranges whose last write just happened.  The final
        result (and any scalars accumulated by post_fn, up to summation
        order) is identical to running all pre_fn calls, then dst = A src,
        then all post_fn calls.  Callbacks receive dof bounds (lo, hi) and
        must only touch that span; with a recorder, the events each callback
        records are asserted against its span.  dst must not share memory
        with src: batches zero and accumulate dst while later batches still
        read src.
        """
        if len(src) != self.n_dofs or len(dst) != self.n_dofs:
            raise ValueError("vector length does not match handler")
        if np.may_share_memory(src, dst):
            raise ValueError("dst shares memory with src")
        if not np.can_cast(np.float64, dst.dtype, "same_kind"):
            raise ValueError(f"dst of dtype {dst.dtype} cannot hold the result")
        src = np.asarray(src, dtype=np.float64)
        pre_spans, post_spans = self._hook_spans
        n_batches = self.plan.n_batches
        rec_src, rec_dst = src_name, dst_name
        if recorder is not None:
            batch_runs, constrained_runs = self._trace_runs
            recorder.register_dofs(rec_src, self.n_dofs)
            recorder.register_dofs(rec_dst, self.n_dofs)
            recorder.register("geometry", self.geometry.doubles_per_cell * 8
                              * self.handler.n_cells, kind="metadata")
            recorder.register("cell_indices",
                              _INDEX_BYTES_PER_CELL * self.handler.n_cells,
                              kind="metadata")
        for b in range(n_batches):
            if pre_fn is not None:
                for lo, hi in pre_spans[b]:
                    mark = recorder.mark() if recorder is not None else None
                    pre_fn(lo, hi)
                    if mark is not None:
                        recorder.assert_within(mark, lo, hi, self.n_dofs)
            for lo, hi in self._zero_spans[b]:
                dst[lo:hi] = 0.0
                if recorder is not None:
                    recorder.record_dofs(rec_dst, lo, hi, trace.WRITE)
            views = self._batch_views[b]
            index = self._batch_index[b]
            # mode="clip" takes straight into the workspace; the indices are
            # in range, so it clips nothing
            src.take(index, out=views.lanes_flat, mode="clip")
            views.lanes_flat[self._batch_zero[b]] = 0
            local = self._batch_kernel(b, views.lanes)
            # every DoF adds onto dst in lane order through the gather's
            # index.  Constrained lanes add values into dst[constrained] as
            # well; no callback sees them: a range holding a constrained DoF
            # runs pre at batch 0 and post at the last batch, is zeroed at
            # its first touch, and is overwritten with src after the last
            # batch
            np.add.at(dst, index, local.reshape(-1))
            if recorder is not None:
                src_dst, geom, indices = batch_runs[b]
                recorder.record_runs(rec_src, src_dst, trace.READ)
                recorder.record_runs(rec_dst, src_dst, trace.READWRITE)
                recorder.record_runs("geometry", geom, trace.READ)
                recorder.record_runs("cell_indices", indices, trace.READ)
            if b == n_batches - 1 and len(self._constrained):
                src.take(self._constrained, out=self._constrained_values,
                         mode="clip")
                dst[self._constrained] = self._constrained_values
                if recorder is not None:
                    recorder.record_runs(rec_src, constrained_runs, trace.READ)
                    recorder.record_runs(rec_dst, constrained_runs, trace.WRITE)
            if post_fn is not None:
                for lo, hi in post_spans[b]:
                    mark = recorder.mark() if recorder is not None else None
                    post_fn(lo, hi)
                    if mark is not None:
                        recorder.assert_within(mark, lo, hi, self.n_dofs)

    # -- diagonal preconditioner ---------------------------------------------

    def compute_diagonal(self) -> DiagonalPreconditioner:
        """Inverse diagonal of the scalar operator, assembled with (p+1)-point
        collocation (Gauss-Lobatto nodes = quadrature points), replicated per
        component on application.  Constrained entries are 1."""
        n1 = self.spec.degree + 1
        basis = lagrange_basis(n1 - 1, gauss_lobatto_quadrature(n1))
        # the store holds G at these points only for a final-tensor operator
        # with Gauss-Lobatto collocation; every other configuration computes
        # (G, jxw) from the batch's tri-quadratic nodes, without G for mass
        stored = (self.spec.geometry == GeometryVariant.FINAL_TENSOR_LOAD
                  and self.spec.quadrature_kind == "gauss_lobatto")
        diag = np.zeros(self.handler.n_nodes)
        for b, cells in enumerate(self._batch_cells):
            data = self._batch_store[b] if stored else precompute_geometry(
                self.mesh, GeometryVariant.QUADRATIC_COMPUTE, basis.quadrature, cells)
            G, jxw = geometry_coefficients(data, self.spec.needs_gradients)
            self.add_batch_nodes(b, self._local_diagonal(basis, G, jxw), diag)
        diag[self._constrained // self.spec.components] = 1.0
        if np.any(~np.isfinite(diag)) or np.any(diag <= 0.0):
            raise ValueError("operator diagonal is not positive definite")
        return DiagonalPreconditioner(np.divide(1.0, diag, out=diag))

    def add_batch_nodes(self, b: int, values: np.ndarray, out: np.ndarray) -> None:
        """Add batch b's lanes-last nodal values, (p+1, p+1, p+1, n_b), into
        the scalar node vector `out` (a view of every component-th DoF
        will do) with one np.add.at through the batch's index, read per
        node: every node adds onto its running value in lane order, as
        `apply`'s scatter does."""
        c = self.components
        np.add.at(out, self._batch_index[b][::c] // c, values.reshape(-1))

    def _local_diagonal(self, basis, G, jxw) -> np.ndarray:
        """The diagonal on each cell, (p+1, p+1, p+1, n_cells), from
        G (3, 3, (p+1)^3, n_cells), None without gradients, and w det J
        ((p+1)^3, n_cells) at the Gauss-Lobatto nodes of `basis`."""
        n1 = basis.degree + 1
        shape = (n1, n1, n1, jxw.shape[-1])
        diag = np.zeros(shape)
        if self.spec.needs_values:
            diag += jxw.reshape(shape)
        if self.spec.needs_gradients:
            G = G.reshape((3, 3) + shape)
            D2 = basis.shape_gradients ** 2
            lap = np.einsum("qi,kjqc->kjic", D2, G[0, 0])
            lap += np.einsum("qj,kqic->kjic", D2, G[1, 1])
            lap += np.einsum("qk,qjic->kjic", D2, G[2, 2])
            dd = np.diag(basis.shape_gradients)
            dx, dy, dz = dd[None, None, :, None], dd[None, :, None, None], dd[:, None, None, None]
            lap += 2.0 * (dx * dy * G[0, 1] + dx * dz * G[0, 2] + dy * dz * G[1, 2])
            scale = self.spec.scaling if self.spec.equation == "mass_plus_laplace" else 1.0
            diag += scale * lap
        return diag

    # -- assembly oracles --------------------------------------------------------

    def assemble_sparse(self) -> scipy.sparse.csr_matrix:
        """Assembled matrix from per-cell quadrature (independent of apply's
        sum-factorized path); constrained rows/columns cleared, unit diagonal."""
        # imported here: only this oracle needs scipy.sparse, whose import
        # costs about 20 MB of resident memory
        import scipy.sparse

        spec = self.spec
        S1 = self.basis.shape_values
        D1 = self.basis.shape_gradients
        S3 = np.kron(np.kron(S1, S1), S1)
        grad = np.stack([np.kron(np.kron(S1, S1), D1), np.kron(np.kron(S1, D1), S1),
                         np.kron(np.kron(D1, S1), S1)])  # (3, nq^3, npc)
        n_cells = self.handler.n_cells
        npc = (spec.degree + 1) ** 3
        scale = spec.scaling if spec.equation == "mass_plus_laplace" else 1.0
        local = np.zeros((n_cells, npc, npc))
        for b, cells in enumerate(self._batch_cells):
            G, jxw = self._batch_geometry(b)
            if spec.needs_values:
                local[cells] += np.einsum("qi,qc,qj->cij", S3, jxw, S3, optimize=True)
            if spec.needs_gradients:
                local[cells] += scale * np.einsum("dqi,deqc,eqj->cij", grad, G, grad,
                                                  optimize=True)
        scalar_idx = _expand_scalar(self.handler, np.arange(n_cells))
        rows = np.repeat(scalar_idx, npc, axis=1).ravel()
        cols = np.tile(scalar_idx, (1, npc)).ravel()
        n_nodes = self.handler.n_nodes
        A = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                    shape=(n_nodes, n_nodes)).tocsr()
        if len(self._constrained):
            nodes = np.unique(self._constrained // spec.components)
            free = np.ones(n_nodes)
            free[nodes] = 0.0
            Pf = scipy.sparse.diags(free)
            Pc = scipy.sparse.diags(1.0 - free)
            A = Pf @ A @ Pf + Pc
        if spec.components > 1:
            A = scipy.sparse.kron(A, scipy.sparse.identity(spec.components),
                                  format="csr")
        return A.tocsr()
