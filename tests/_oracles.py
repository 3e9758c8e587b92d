"""Shared independent oracles and problem builders for the test suite.

The dense CG/PCG implementations below are deliberately plain 10-line
textbook loops on explicit matrices, kept free of any package machinery so
they can arbitrate the instrumented solvers.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from mfcg import trace
from mfcg.bench import manufactured_forcing
from mfcg.dofs import (
    RANGE_SIZE,
    DofHandler,
    _expand_scalar,
    distribute_dofs,
    expand_batch,
    make_batches,
)
from mfcg.locality import LINE_BYTES, CacheReplayResult, TagTally, TraceSummary
from mfcg.mesh import (
    _QUADRATIC_ORDER,
    GeometryVariant,
    build_cartesian_mesh,
    deform_mesh,
    jacobian_adjugate,
    precompute_geometry,
    symmetric_coefficients,
)
from mfcg.operator import MatrixFreeOperator, OperatorSpec
from mfcg.tensor import (
    _even_odd,
    _gradients_t,
    _Matrix1D,
    evaluate_gradients,
    evaluate_gradients_lanes,
    evaluate_values,
    evaluate_values_lanes,
    gauss_lobatto_quadrature,
    gauss_quadrature,
    integrate_values,
    integrate_values_lanes,
    lagrange_basis,
    lagrange_gradients_1d,
)


# Position of entry (i, k) of a symmetric 3x3 tensor in the six-entry order
# (xx, yy, zz, xy, xz, yz) of the LAPACK and flux oracles, and the rows and
# columns of those six entries.
SYMMETRIC_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
SIX_ENTRIES = ((0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2))


def integrate_gradients_lanes(basis, quad_data):
    """integrate_gradients on lanes-last tensors stacked on axis 0, through
    the one-shot driver: the adjoint the cell loop binds, run on arrays
    sized for the call."""
    return _gradients_t(basis, quad_data, True, False)


def build_fem(cells=(2, 2, 2), p=3, comp=1, eq="laplace", nq=None,
              deformed=0.05, variant=GeometryVariant.FINAL_TENSOR_LOAD,
              quadrature="gauss", constrain=True, batch=3,
              traversal="lexicographic", scaling=1.0, numbering="default"):
    mesh = build_cartesian_mesh(cells)
    if deformed:
        mesh = deform_mesh(mesh, deformed)
    handler = distribute_dofs(mesh, p, components=comp,
                              constrain_boundary=constrain)
    plan = make_batches(mesh, batch, traversal)
    if numbering == "optimized":
        from mfcg.dofs import renumber_optimized
        handler = renumber_optimized(handler, plan)
    spec = OperatorSpec(eq, comp, p, nq if nq else p + 2, variant,
                        quadrature_kind=quadrature, scaling=scaling)
    return MatrixFreeOperator(spec, mesh, handler, plan), handler


def fem_rhs(handler, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(handler.n_dofs)
    b[handler.constrained_dofs] = 0.0
    return b


def dense_cg(A, b, tol=1e-8, maxit=500):
    """Plain conjugate gradients on an explicit matrix, relative-residual
    termination; returns the full scalar trace."""
    x = np.zeros(len(b))
    r = b.astype(float).copy()
    p = r.copy()
    gamma = r @ r
    bnorm = math.sqrt(float(b @ b))
    alphas, betas, gammas, residuals = [], [], [], []
    iters = maxit
    for k in range(1, maxit + 1):
        v = A @ p
        alpha = gamma / (p @ v)
        x += alpha * p
        r -= alpha * v
        gamma_new = r @ r
        beta = gamma_new / gamma
        alphas.append(alpha)
        betas.append(beta)
        gammas.append(gamma)
        residuals.append(math.sqrt(gamma_new) / bnorm)
        gamma = gamma_new
        if residuals[-1] < tol:
            iters = k
            break
        p = r + beta * p
    return {"x": x, "iterations": iters, "alpha": alphas, "beta": betas,
            "gamma": gammas, "residual": residuals}


def dense_pcg(A, b, minv_full, tol=1e-8, maxit=500):
    """Plain Jacobi-PCG on an explicit matrix; termination on the
    unpreconditioned residual norm."""
    x = np.zeros(len(b))
    r = b.astype(float).copy()
    z = minv_full * r
    p = z.copy()
    gamma = r @ z
    bnorm = math.sqrt(float(b @ b))
    alphas, betas, residuals = [], [], []
    iters = maxit
    for k in range(1, maxit + 1):
        v = A @ p
        alpha = gamma / (p @ v)
        x += alpha * p
        r -= alpha * v
        residuals.append(math.sqrt(r @ r) / bnorm)
        z = minv_full * r
        gamma_new = r @ z
        beta = gamma_new / gamma
        alphas.append(alpha)
        betas.append(beta)
        gamma = gamma_new
        if residuals[-1] < tol:
            iters = k
            break
        p = z + beta * p
    return {"x": x, "iterations": iters, "alpha": alphas, "beta": betas,
            "residual": residuals}


# -- sum-factorization sweeps as first implemented ------------------------------
# Every sweep an einsum over `...` (or the even-odd split with moveaxis round
# trips), and each gradient component its own sweep triple: the oracle for
# the GEMM-shaped sweeps, collocation derivatives and identity skip of
# mfcg.tensor.  apply_1d is that einsum, with its direction and extent
# checks; even_odd_apply drives mfcg.tensor's even-odd product on one
# direction, so that it can be checked against apply_1d.


def _axis(tensor, direction, n):
    """Axis of `direction` in a C-ordered tensor, checked to have extent n."""
    if direction not in (0, 1, 2):
        raise ValueError("direction must be 0, 1 or 2")
    axis = tensor.ndim - 1 - direction
    if tensor.shape[axis] != n:
        raise ValueError(f"tensor extent {tensor.shape[axis]} in direction "
                         f"{direction} does not match matrix extent {n}")
    return axis


def apply_1d(matrix, tensor, direction, transpose=False):
    """Contract `matrix` (or its transpose) with `tensor` along the given
    direction (0 = x = last axis).  Leading batch axes pass through.  The
    reference contraction: sums in index order of separately rounded
    products, as a plain loop does (the sweeps' BLAS may fuse them)."""
    mat = matrix.T if transpose else matrix
    _axis(tensor, direction, mat.shape[1])
    spec = ("qi,...i->...q", "qi,...ix->...qx", "qi,...iyx->...qyx")[direction]
    return np.einsum(spec, mat, tensor)


def even_odd_apply(basis, tensor, direction, kind="value", transpose=False):
    """Same contraction as apply_1d with the basis' value or gradient matrix,
    computed through mfcg.tensor's even-odd decomposition (about half the
    multiplications; agrees with apply_1d to reassociation tolerance)."""
    if kind not in ("value", "gradient"):
        raise ValueError("kind must be 'value' or 'gradient'")
    matrix = basis.shape_values if kind == "value" else basis.shape_gradients
    if transpose:
        matrix = matrix.T
    m, n = matrix.shape
    axis = _axis(tensor, direction, n)
    shape = tensor.shape
    view = tensor.reshape(math.prod(shape[:axis]), n, math.prod(shape[axis + 1:]))
    out = _even_odd(_Matrix1D.build(matrix, +1 if kind == "value" else -1), view)
    return out.reshape(shape[:axis] + (m,) + shape[axis + 1:])


def _even_odd_halves(matrix):
    m, n = matrix.shape
    nh = n // 2
    top = matrix[:(m + 1) // 2]
    even = top[:, :nh] + top[:, ::-1][:, :nh]
    if n % 2 == 1:
        even = np.hstack([even, top[:, nh:nh + 1]])
    odd = top[:, :nh] - top[:, ::-1][:, :nh]
    return even, odd


def even_odd_apply_1d(matrix, sign, tensor, direction, transpose=False):
    """The even-odd contraction along the last axis after a moveaxis."""
    mat = matrix.T if transpose else matrix
    even, odd = _even_odd_halves(mat)
    axis = tensor.ndim - 1 - direction
    data = np.moveaxis(tensor, axis, -1)
    m, n = mat.shape
    nh = n // 2
    lo = data[..., :nh]
    hi = data[..., ::-1][..., :nh]
    u_sym = 0.5 * (lo + hi)
    u_asym = 0.5 * (lo - hi)
    if n % 2 == 1:
        u_sym = np.concatenate([u_sym, data[..., nh:nh + 1]], axis=-1)
    a = u_sym @ even.T
    b = u_asym @ odd.T
    out = np.empty(data.shape[:-1] + (m,))
    mh = (m + 1) // 2
    out[..., :mh] = a + b
    out[..., mh:] = (sign * (a[..., :m // 2] - b[..., :m // 2]))[..., ::-1]
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


def _oracle_sweep(basis, tensor, kinds, transpose, even_odd):
    out = tensor
    for direction, kind in enumerate(kinds):
        mat = basis.shape_values if kind == "value" else basis.shape_gradients
        if even_odd:
            sign = 1 if kind == "value" else -1
            out = even_odd_apply_1d(mat, sign, out, direction, transpose)
        else:
            out = apply_1d(mat, out, direction, transpose)
    return out


def _gradient_kinds(c):
    return tuple("gradient" if d == c else "value" for d in range(3))


def oracle_evaluate_values(basis, u, even_odd=False):
    return _oracle_sweep(basis, u, ("value",) * 3, False, even_odd)


def oracle_integrate_values(basis, q, even_odd=False):
    return _oracle_sweep(basis, q, ("value",) * 3, True, even_odd)


def oracle_evaluate_gradients(basis, u, even_odd=False):
    return np.stack([_oracle_sweep(basis, u, _gradient_kinds(c), False, even_odd)
                     for c in range(3)])


def oracle_integrate_gradients(basis, q, even_odd=False):
    return sum(_oracle_sweep(basis, q[c], _gradient_kinds(c), True, even_odd)
               for c in range(3))


# -- GEMM-shaped sweeps and cell kernel before the precomputed sweep plans --------
# A _Matrix1D per basis matrix, the direction checks and (lead, n, trail)
# shapes derived on every sweep, np.stack / sum over the gradient components,
# and the kernel's per-call geometry: the bit-exact oracle for the sweep plans
# of mfcg.tensor and the cell kernel of mfcg.operator.


def _plumbed_mxm(matrix, view):
    lead, n, trail = view.shape
    if trail == 1:
        return (view.reshape(lead, n) @ matrix.T).reshape(lead, -1, 1)
    return matrix @ view


def _plumbed_halves(matrix):
    n = matrix.shape[1]
    nh = n // 2
    top = matrix[:(matrix.shape[0] + 1) // 2]
    left, right = top[:, :nh], top[:, ::-1][:, :nh]
    even = 0.5 * (left + right)
    if n % 2:
        even = np.hstack([even, top[:, nh:nh + 1]])
    return np.ascontiguousarray(even), np.ascontiguousarray(0.5 * (left - right))


class PlumbedMatrix1D:
    def __init__(self, matrix, sign):
        self.matrix = matrix
        self.sign = sign
        self.halves = _plumbed_halves(matrix)
        self.halves_t = _plumbed_halves(matrix.T)

    def apply(self, tensor, direction, transpose, even_odd):
        matrix = self.matrix.T if transpose else self.matrix
        m, n = matrix.shape
        axis = tensor.ndim - 1 - direction
        assert tensor.shape[axis] == n
        shape = tensor.shape
        view = tensor.reshape(math.prod(shape[:axis]), n, math.prod(shape[axis + 1:]))
        if not even_odd:
            out = _plumbed_mxm(matrix, view)
        else:
            even, odd = self.halves_t if transpose else self.halves
            nh = n // 2
            lo, hi = view[:, :nh], view[:, ::-1][:, :nh]
            sym = lo + hi
            if n % 2:
                sym = np.concatenate([sym, view[:, nh:nh + 1]], axis=1)
            a, b = _plumbed_mxm(even, sym), _plumbed_mxm(odd, lo - hi)
            out = np.empty((view.shape[0], m, view.shape[2]))
            np.add(a, b, out=out[:, :(m + 1) // 2])
            tail = a[:, :m // 2] - b[:, :m // 2]
            out[:, (m + 1) // 2:] = (tail if self.sign > 0 else -tail)[:, ::-1]
        return out.reshape(shape[:axis] + (m,) + shape[axis + 1:])


def _plumbed_matrices(basis):
    """(values, gradients, collocation or None) of a basis."""
    nq = len(basis.quadrature)
    collocation = None
    if nq >= basis.degree + 1:
        points = basis.quadrature.points
        collocation = PlumbedMatrix1D(lagrange_gradients_1d(points, points), -1)
    return (PlumbedMatrix1D(basis.shape_values, +1),
            PlumbedMatrix1D(basis.shape_gradients, -1), collocation)


def _plumbed_sweep(tensor, matrices, transpose, even_odd):
    for direction, matrix in enumerate(matrices):
        if matrix is not None:
            tensor = matrix.apply(tensor, direction, transpose, even_odd)
    return tensor


def _plumbed_interpolation(basis):
    values = _plumbed_matrices(basis)[0]
    return (None if basis.identity_values else values,) * 3


def _plumbed_gradient_sweeps(basis):
    values, gradients, D = _plumbed_matrices(basis)
    if D is None:
        return (None,) * 3, [tuple(gradients if d == c else values
                                   for d in range(3)) for c in range(3)]
    return _plumbed_interpolation(basis), [tuple(D if d == c else None
                                                 for d in range(3))
                                           for c in range(3)]


def plumbed_evaluate_values(basis, cell_dofs, even_odd=False):
    out = _plumbed_sweep(cell_dofs, _plumbed_interpolation(basis), False, even_odd)
    return out.copy() if out is cell_dofs else out


def plumbed_evaluate_gradients(basis, cell_dofs, even_odd=False):
    to_q, differentiate = _plumbed_gradient_sweeps(basis)
    at_q = _plumbed_sweep(cell_dofs, to_q, False, even_odd)
    return np.stack([_plumbed_sweep(at_q, d, False, even_odd) for d in differentiate])


def plumbed_integrate_values(basis, quad_data, even_odd=False):
    out = _plumbed_sweep(quad_data, _plumbed_interpolation(basis), True, even_odd)
    return out.copy() if out is quad_data else out


def plumbed_integrate_gradients(basis, quad_data, even_odd=False):
    to_q, differentiate = _plumbed_gradient_sweeps(basis)
    at_q = sum(_plumbed_sweep(data, d, True, even_odd)
               for data, d in zip(quad_data, differentiate))
    return _plumbed_sweep(at_q, to_q, True, even_odd)


def plumbed_batch_geometry(op, cells):
    """(six entries or None, jxw) of a batch, cells first, derived from the
    variant's own geometry data for the batch's cells."""
    payload = precompute_geometry(op.mesh, op.spec.geometry, op.quadrature, cells).payload
    if "G" in payload:  # final-tensor and affine variants
        sym = None
        if op.spec.needs_gradients:
            sym = payload["G"][SIX_ENTRIES].transpose(0, 2, 1)
        return sym, payload["jxw"].T
    if "inverse_jacobian" in payload:
        inv = payload["inverse_jacobian"].transpose(0, 1, 3, 2)
        jxw = payload["jxw"].T
        sym = symmetric_coefficients(inv, jxw)[SIX_ENTRIES] if op.spec.needs_gradients else None
        return sym, jxw
    nq = len(op.quadrature)
    degree = 2 if op.spec.geometry == GeometryVariant.QUADRATIC_COMPUTE else nq - 1
    w = op.quadrature.weights
    weights = np.einsum("k,j,i->kji", w, w, w).ravel()
    adj, det = jacobian_adjugate(payload["nodes"], lagrange_basis(degree, op.quadrature), nq)
    adj, det = adj.transpose(0, 1, 3, 2), det.T
    sym = None
    if op.spec.needs_gradients:
        sym = symmetric_coefficients(adj, weights / det)[SIX_ENTRIES]
    return sym, det * weights


def plumbed_batch_kernel(op, b, u):
    """The cell kernel on batch b of `op`, u of shape
    (n_batch, components, p+1, p+1, p+1)."""
    spec = op.spec
    nq = len(op.quadrature)
    nb = u.shape[0]
    sym, jxw = plumbed_batch_geometry(op, np.asarray(op.plan.batches[b]))
    out = None
    if spec.needs_values:
        vals = plumbed_evaluate_values(op.basis, u)
        vals *= jxw.reshape(nb, 1, nq, nq, nq)
        out = plumbed_integrate_values(op.basis, vals)
    if spec.needs_gradients:
        grads = plumbed_evaluate_gradients(op.basis, u).reshape(3, nb, spec.components, -1)
        g = sym.reshape(6, -1, 1, nq**3)
        flux = np.empty_like(grads)
        for f, (i, k, m) in zip(flux, SYMMETRIC_INDEX):
            np.multiply(g[i], grads[0], out=f)
            f += g[k] * grads[1]
            f += g[m] * grads[2]
        lap = plumbed_integrate_gradients(
            op.basis, flux.reshape(3, nb, spec.components, nq, nq, nq))
        if out is None:
            out = lap
        else:
            out += spec.scaling * lap
    return out


def cells_first_kernel(op, b, u):
    """op._batch_kernel on cells-first u, (n_batch, components, p+1, p+1,
    p+1): transposed into the batch's lanes view, which its program reads,
    and back."""
    lanes = op._batch_views[b].lanes
    lanes[...] = u.transpose(2, 3, 4, 0, 1)
    return op._batch_kernel(b, lanes).transpose(3, 4, 0, 1, 2)


# SYMMETRIC_INDEX row by row: flux_i = G[i, 0] grad_0 + G[i, 1] grad_1 + G[i, 2] grad_2
_FLUX_ROWS = tuple(tuple(int(e) for e in row) for row in SYMMETRIC_INDEX)


def flux(sym, grads):
    """G grad u per quadrature point, straight from the six entries of G in
    15 elementwise passes: the operator's flux before it was one einsum.

    grads: (3, n_q, n_q, n_q, n_batch, components); sym: the six entries,
    (6, n_q, n_q, n_q, n_batch or 1, 1), broadcast over the components.
    The products of each row are summed in gradient order, starting from
    the first product, so a row of three -0.0 products gives -0.0."""
    out = np.empty_like(grads)
    d0, d1, d2 = grads
    product = np.empty_like(d0)
    for f, (i, k, m) in zip(out, _FLUX_ROWS):
        np.multiply(sym[i], d0, out=f)
        f += np.multiply(sym[k], d1, out=product)
        f += np.multiply(sym[m], d2, out=product)
    return out


def flux_batch_kernel(op, b, u):
    """op._batch_kernel on lanes-last u, with `flux` on the six distinct
    entries of the operator's G in place of its einsum."""
    spec = op.spec
    nq = op._nq
    G, jxw = op._batch_geometry(b)
    out = None
    if spec.needs_values:
        vals = evaluate_values_lanes(op.basis, u)
        vals *= jxw.reshape(nq, nq, nq, -1, 1)
        out = integrate_values_lanes(op.basis, vals)
    if spec.needs_gradients:
        grads = evaluate_gradients_lanes(op.basis, u)
        sym = G[SIX_ENTRIES]
        lap = integrate_gradients_lanes(
            op.basis, flux(sym.reshape(6, nq, nq, nq, -1, 1), grads))
        if out is None:
            out = lap
        else:
            out += spec.scaling * lap
    return out


def merge_spans(ranges, range_size, n):
    """[(lo, hi), ...] dof spans of sorted range ids, consecutive runs merged."""
    spans = []
    if len(ranges) == 0:
        return spans
    run_start = prev = int(ranges[0])
    for r in ranges[1:]:
        r = int(r)
        if r == prev + 1:
            prev = r
            continue
        spans.append((run_start * range_size, min((prev + 1) * range_size, n)))
        run_start = prev = r
    spans.append((run_start * range_size, min((prev + 1) * range_size, n)))
    return spans


def plumbed_callback_spans(op, ranges):
    """Per-call callback spans of one schedule entry."""
    return merge_spans(np.sort(ranges), RANGE_SIZE, op.n_dofs)


def window_apply(op, src, dst, pre_fn=None, post_fn=None):
    """`op.apply_with_callbacks` (untraced) with a window scatter: each
    batch gathers through node-major indices relative to its first touched
    range, masks constrained entries on the way in and out, and adds its
    contributions onto its window of dst (first to last touched range) in
    lane order, (z, y, x, cell, component), one np.add.at through its own
    index."""
    comp = op.components
    n1 = op.spec.degree + 1
    n_batches = op.plan.n_batches
    constrained = op.handler.constrained_dofs
    mask = np.zeros(op.n_dofs, dtype=bool)
    mask[constrained] = True
    pre_spans, post_spans = op._hook_spans
    for b, cells in enumerate(op.plan.batches):
        idx = expand_batch(op.handler, cells)
        cmask = mask[idx]
        ranges = np.unique(idx // RANGE_SIZE)
        lo = int(ranges[0]) * RANGE_SIZE
        hi = merge_spans(ranges, RANGE_SIZE, op.n_dofs)[-1][1]
        idx = idx - lo
        if pre_fn is not None:
            for start, end in pre_spans[b]:
                pre_fn(start, end)
        for start, end in op._zero_spans[b]:
            dst[start:end] = 0.0
        u = src[lo:][idx]
        u[cmask] = 0.0
        u = u.reshape(len(idx), -1, comp).transpose(0, 2, 1)
        u = u.reshape(len(idx), comp, n1, n1, n1)
        local = cells_first_kernel(op, b, u)
        local = local.reshape(len(idx), comp, -1).transpose(0, 2, 1)
        local = local.reshape(len(idx), -1)
        local[cmask] = 0.0
        lanes = (len(idx), n1, n1, n1, comp)
        np.add.at(dst[lo:hi], idx.reshape(lanes).transpose(1, 2, 3, 0, 4).ravel(),
                  local.reshape(lanes).transpose(1, 2, 3, 0, 4).ravel())
        if b == n_batches - 1 and len(constrained):
            dst[constrained] = src[constrained]
        if post_fn is not None:
            for start, end in post_spans[b]:
                post_fn(start, end)


def assemble_dense(op):
    """Matrix of `op` from unit-vector probes of apply (guarded by size)."""
    if op.n_dofs > 20000:
        raise ValueError(f"dense assembly guard: {op.n_dofs} > 20000 DoFs")
    A = np.empty((op.n_dofs, op.n_dofs))
    e = np.zeros(op.n_dofs)
    for j in range(op.n_dofs):
        e[j] = 1.0
        A[:, j] = op.apply(e)
        e[j] = 0.0
    return A


# -- problem set-up as first implemented -----------------------------------------
# Per-cell Python loops and LAPACK inverses/determinants: the oracle for the
# index-arithmetic numbering, renumbering and schedules, the one-pass
# right-hand side and the closed-form 3x3 geometry.


_ENTITY_WALK = [(sx, sy, sz) for sz in (0, 1, 2) for sy in (0, 1, 2) for sx in (0, 1, 2)]


def _entity_size(p, sx, sy, sz):
    return int(np.prod([(p - 1) if s == 1 else 1 for s in (sx, sy, sz)]))


def loop_distribute_dofs(mesh, p, components=1, constrain_boundary=False):
    nx, ny, nz = mesh.cells_per_dim
    rx, ry = 2 * nx + 1, 2 * ny + 1
    blocks = np.full((mesh.n_cells, 27), -1, dtype=np.int32)
    entity_start = {}
    next_start = 0
    cell = 0
    for cz in range(nz):
        for cy in range(ny):
            for cx in range(nx):
                for sx, sy, sz in _ENTITY_WALK:
                    size = _entity_size(p, sx, sy, sz)
                    if size == 0:
                        continue
                    rid = (2 * cx + sx) + rx * ((2 * cy + sy) + ry * (2 * cz + sz))
                    start = entity_start.get(rid)
                    if start is None:
                        start = next_start
                        entity_start[rid] = start
                        next_start += size
                    blocks[cell, sx + 3 * sy + 9 * sz] = start
                cell += 1
    n_dofs = next_start * components
    constrained = np.empty(0, dtype=np.int64)
    handler = DofHandler(n_dofs, components, p, mesh.cells_per_dim, blocks, constrained)
    if constrain_boundary:
        nodes = loop_boundary_nodes(handler)
        constrained = (nodes[:, None] * components + np.arange(components)).ravel()
        handler = DofHandler(n_dofs, components, p, mesh.cells_per_dim, blocks,
                             np.sort(constrained))
    return handler


def loop_boundary_nodes(handler):
    p = handler.degree
    nx, ny, nz = handler.cells_per_dim
    found = []
    for cell in range(handler.n_cells):
        cx, cy, cz = cell % nx, (cell // nx) % ny, cell // (nx * ny)
        faces = []
        if cx == 0:
            faces.append((slice(None), slice(None), 0))
        if cx == nx - 1:
            faces.append((slice(None), slice(None), p))
        if cy == 0:
            faces.append((slice(None), 0, slice(None)))
        if cy == ny - 1:
            faces.append((slice(None), p, slice(None)))
        if cz == 0:
            faces.append((0, slice(None), slice(None)))
        if cz == nz - 1:
            faces.append((p, slice(None), slice(None)))
        nodes = _expand_scalar(handler, np.array([cell]))[0].reshape((p + 1,) * 3)
        for sel in faces:
            found.append(nodes[sel].ravel())
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(found))


def loop_morton_order(cells_per_dim):
    nx, ny, nz = cells_per_dim
    bits = max(max(n - 1, 0).bit_length() for n in cells_per_dim)
    order = []
    for code in range(1 << (3 * bits)):
        x = y = z = 0
        for b in range(bits):
            x |= ((code >> (3 * b)) & 1) << b
            y |= ((code >> (3 * b + 1)) & 1) << b
            z |= ((code >> (3 * b + 2)) & 1) << b
        if x < nx and y < ny and z < nz:
            order.append(x + nx * (y + ny * z))
    return np.asarray(order, dtype=np.int64)


def loop_renumber_optimized(handler, plan):
    comp = handler.components
    blocks = handler.cell_index_blocks
    size_of, cells_of = {}, {}
    for cell in range(handler.n_cells):
        for e in range(27):
            start = int(blocks[cell, e])
            if start < 0:
                continue
            size_of[start] = _entity_size(handler.degree, e % 3, (e // 3) % 3, e // 9)
            cells_of.setdefault(start, []).append(cell)
    cell_batch = np.empty(handler.n_cells, dtype=np.int64)
    for b, cells in enumerate(plan.batches):
        cell_batch[np.asarray(cells)] = b
    constrained_nodes = set(int(n) for n in np.unique(handler.constrained_dofs // comp))
    categories = ([], [], [], [])
    for start, size in size_of.items():
        batches = sorted({int(cell_batch[c]) for c in cells_of[start]})
        covered = sum((start + t) in constrained_nodes for t in range(size))
        if 0 < covered < size:
            raise ValueError("partially constrained entity")
        if start in constrained_nodes:
            cat = 3
        elif len(batches) == 1:
            cat = 0
        else:
            cat = 1
        categories[cat].append((batches[0], batches[-1], start, size))
    node_perm = np.full(handler.n_nodes, -1, dtype=np.int64)
    start_map = {}
    next_node = 0
    order = (sorted(categories[0]),
             sorted(categories[1], key=lambda t: (-(t[0] + t[1]), t[1] - t[0], t[2])),
             sorted(categories[2]),
             sorted(categories[3]))
    for cat in order:
        for _, _, old_start, size in cat:
            start_map[old_start] = next_node
            node_perm[old_start:old_start + size] = np.arange(next_node, next_node + size)
            next_node += size
    new_blocks = np.full_like(blocks, -1)
    for e in range(27):
        col = blocks[:, e]
        valid = col >= 0
        if np.any(valid):
            new_blocks[valid, e] = [start_map[int(s)] for s in col[valid]]
    perm = (node_perm[:, None] * comp + np.arange(comp)).ravel()
    return DofHandler(handler.n_dofs, comp, handler.degree, handler.cells_per_dim,
                      new_blocks, np.sort(perm[handler.constrained_dofs]),
                      "optimized", perm)


def loop_range_schedule(handler, plan):
    """(first, last, pre_schedule, post_schedule) with a pass per batch."""
    n_ranges = -(-handler.n_dofs // RANGE_SIZE)
    n_batches = plan.n_batches
    first = np.full(n_ranges, n_batches, dtype=np.int64)
    last = np.full(n_ranges, -1, dtype=np.int64)
    for b, cells in enumerate(plan.batches):
        touched = np.unique(expand_batch(handler, cells) // RANGE_SIZE)
        first[touched] = np.minimum(first[touched], b)
        last[touched] = np.maximum(last[touched], b)
    untouched = first == n_batches
    first[untouched] = 0
    last[untouched] = n_batches - 1
    pre_batch, post_batch = first.copy(), last.copy()
    if handler.constrained_dofs.size:
        constrained_ranges = np.unique(handler.constrained_dofs // RANGE_SIZE)
        pre_batch[constrained_ranges] = 0
        post_batch[constrained_ranges] = n_batches - 1
    pre = tuple(np.flatnonzero(pre_batch == b) for b in range(n_batches))
    post = tuple(np.flatnonzero(post_batch == b) for b in range(n_batches))
    return first, last, pre, post


def loop_first_touch_spans(op):
    first = op.schedule.first_touch_batch
    return [merge_spans(np.flatnonzero(first == b), RANGE_SIZE, op.n_dofs)
            for b in range(op.plan.n_batches)]


def loop_cell_stream_ranges(cells, bytes_per_cell):
    pieces = [np.arange((int(c) * bytes_per_cell) // trace.GRAIN_BYTES,
                        -(-((int(c) + 1) * bytes_per_cell) // trace.GRAIN_BYTES))
              for c in cells]
    return np.unique(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)


def lapack_jacobians(nodes, geo_basis, nq):
    """(jac, det) from geometry nodes, det by LAPACK."""
    n_batch = nodes.shape[0]
    npd = geo_basis.degree + 1
    coords = nodes.transpose(0, 2, 1).reshape(n_batch, 3, npd, npd, npd)
    g = evaluate_gradients(geo_basis, coords)
    jac = np.transpose(g.reshape(3, n_batch, 3, nq**3), (1, 3, 2, 0))
    return jac, np.linalg.det(jac)


def matrix_stack(entries):
    """(..., 3, 3) matrices of a (3, 3, ...) entry-major stack, as LAPACK
    takes them."""
    return np.moveaxis(entries, (0, 1), (-2, -1))


def lapack_symmetric_coefficients(inv, jxw):
    """Six entries of J^-1 (w det J) J^-T by fancy-indexed rows and columns."""
    rows = inv[..., (0, 1, 2, 0, 0, 1), :]
    cols = inv[..., (0, 1, 2, 1, 2, 2), :]
    return np.einsum("...aj,...aj->a...", rows, cols) * jxw


def map_points(mesh, points):
    """The mesh's deformation map applied point by point to undeformed
    coordinates (..., 3)."""
    points = np.asarray(points, dtype=float)
    if mesh.deformation == 0.0:
        return points.copy()
    bump = np.prod(np.sin(np.pi * points), axis=-1, keepdims=True)
    return points + mesh.deformation * bump


def cell_lattice(mesh, order, cells=None):
    """Undeformed physical coordinates of per-cell tensor lattices.

    `order` holds the 1D reference positions in [0,1]; returns an array of
    shape (len(cells), len(order)^3, 3) in lexicographic x-fastest point
    order, for every cell when `cells` is None.
    """
    hx, hy, hz = (1.0 / n for n in mesh.cells_per_dim)
    nx, ny, _ = mesh.cells_per_dim
    cells = np.arange(mesh.n_cells) if cells is None else np.asarray(cells, dtype=np.int64)
    cx, cy, cz = cells % nx, (cells // nx) % ny, cells // (nx * ny)
    origin = np.stack([cx * hx, cy * hy, cz * hz], axis=1)
    t = np.asarray(order, dtype=float)
    TZ, TY, TX = np.meshgrid(t, t, t, indexing="ij")
    local = np.stack([TX.ravel() * hx, TY.ravel() * hy, TZ.ravel() * hz], axis=1)
    return origin[:, None, :] + local[None, :, :]


def quadratic_geometry_nodes(mesh, cell):
    """The 27 tri-quadratic geometry support points of one cell (the deformed
    {0, 1/2, 1}^3 lattice), shape (27, 3), x fastest."""
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    return map_points(mesh, cell_lattice(mesh, _QUADRATIC_ORDER, [cell])[0])


def gather_geometry(op, payload, cells):
    """One batch's payload gathered from a whole-mesh payload, cells last
    and C-contiguous; an operator without gradients holds no G and no J^-1."""
    return {key: np.take(value, cells, axis=-1) for key, value in payload.items()
            if key not in ("G", "inverse_jacobian") or op.spec.needs_gradients}


def geometry_data(mesh, cell, variant, quad):
    """Per-cell view of the variant's data (see precompute_geometry for the
    all-cells form the operator consumes)."""
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    data = precompute_geometry(mesh, variant, quad, np.arange(mesh.n_cells))
    return {key: value[..., cell] for key, value in data.payload.items()}


def lapack_geometry(mesh, quad):
    """(inverse Jacobian, jxw, six-entry tensor (6, cells, nq^3)) of every
    cell with LAPACK inv/det on the per-cell geometry nodes."""
    nodes = np.stack([quadratic_geometry_nodes(mesh, c) for c in range(mesh.n_cells)])
    jac, det = lapack_jacobians(nodes, lagrange_basis(2, quad), len(quad))
    w = quad.weights
    jxw = det * np.einsum("k,j,i->kji", w, w, w).ravel()
    inv = np.linalg.inv(jac)
    return inv, jxw, lapack_symmetric_coefficients(inv, jxw)


def expand_cell_indices(handler: DofHandler, cell: int) -> np.ndarray:
    """All (p+1)^3 * components global indices of one cell, node-major with
    interleaved components."""
    if not 0 <= cell < handler.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    return expand_batch(handler, np.array([cell]))[0]


def loop_build_rhs(op):
    """Right-hand side gathered cell by cell from per-cell geometry nodes and
    scattered with a loop over cells."""
    spec, mesh, handler = op.spec, op.mesh, op.handler
    nq = spec.n_q_1d
    quad = (gauss_lobatto_quadrature(nq) if spec.quadrature_kind == "gauss_lobatto"
            else gauss_quadrature(nq))
    basis = lagrange_basis(spec.degree, quad)
    geo_basis = lagrange_basis(2, quad)
    nodes = np.stack([quadratic_geometry_nodes(mesh, c) for c in range(mesh.n_cells)])
    _, det = lapack_jacobians(nodes, geo_basis, nq)
    coords = nodes.transpose(0, 2, 1).reshape(-1, 3, 3, 3, 3)
    pts = evaluate_values(geo_basis, coords).reshape(-1, 3, nq ** 3).transpose(0, 2, 1)
    w = quad.weights
    tw = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    fw = (manufactured_forcing(pts, spec.equation) * det * tw).reshape(-1, nq, nq, nq)
    local = integrate_values(basis, fw).reshape(mesh.n_cells, -1)
    b = np.zeros(handler.n_dofs)
    for cell in range(mesh.n_cells):
        b[expand_cell_indices(handler, cell)] += np.repeat(local[cell], spec.components)
    b[handler.constrained_dofs] = 0.0
    return b


def _add_batches_in_lane_order(out, plan, index, values):
    """Add cell-ordered `values` (n_cells, k) into `out` through the
    matching cell-ordered `index`, batch by batch and, within a batch, in
    lane order: entry-major, the batch's cells innermost."""
    for cells in plan.batches:
        np.add.at(out, index[cells].T.ravel(), values[cells].T.ravel())
    return out


def cells_first_build_rhs(op):
    """Right-hand side in one cells-first pass over the whole mesh: the
    points of all cells at once, w det J read from the operator's store
    into cell order, then added into the DoFs batch by batch in lane
    order."""
    spec, mesh, handler = op.spec, op.mesh, op.handler
    nq = spec.n_q_1d
    jxw = np.empty((nq ** 3, mesh.n_cells))
    for b, cells in enumerate(op._batch_cells):
        jxw[:, cells] = op._batch_geometry(b, coefficients=False)[1]
    coords = mesh.quadratic_nodes.transpose(2, 1, 0).reshape(-1, 3, 3, 3, 3)
    pts = evaluate_values(lagrange_basis(2, op.quadrature), coords)  # (cells, 3, nq, nq, nq)
    pts = pts.reshape(-1, 3, nq ** 3).transpose(0, 2, 1)
    fw = (manufactured_forcing(pts, spec.equation) * jxw.T).reshape(-1, nq, nq, nq)
    local = integrate_values(op.basis, fw).reshape(mesh.n_cells, -1)
    local = np.repeat(local, spec.components, axis=1)
    idx = expand_batch(handler, np.arange(mesh.n_cells))
    b = _add_batches_in_lane_order(np.zeros(handler.n_dofs), op.plan, idx, local)
    b[handler.constrained_dofs] = 0.0
    return b


def whole_mesh_diagonal(op):
    """Inverse operator diagonal as first written: the final tensor at the
    Gauss-Lobatto collocation points computed for the whole mesh at once,
    the diagonal of every cell from it in one pass, then added into the
    nodes batch by batch in lane order."""
    n1 = op.spec.degree + 1
    basis = lagrange_basis(n1 - 1, gauss_lobatto_quadrature(n1))
    n_cells = op.handler.n_cells
    geo = precompute_geometry(op.mesh, GeometryVariant.FINAL_TENSOR_LOAD,
                              basis.quadrature, np.arange(n_cells)).payload
    diag_loc = op._local_diagonal(basis, geo["G"], geo["jxw"])
    scalar_idx = _expand_scalar(op.handler, np.arange(n_cells))
    diag = _add_batches_in_lane_order(np.zeros(op.handler.n_nodes), op.plan, scalar_idx,
                                      diag_loc.reshape(-1, n_cells).T)
    diag[np.unique(op.handler.constrained_dofs // op.spec.components)] = 1.0
    return 1.0 / diag


def lapack_diagonal(op):
    """Inverse operator diagonal from LAPACK geometry at the Gauss-Lobatto
    collocation points."""
    p = op.spec.degree
    n1 = p + 1
    rule = gauss_lobatto_quadrature(n1)
    basis = lagrange_basis(p, rule)
    _, jxw, sym = lapack_geometry(op.mesh, rule)
    n_cells = op.handler.n_cells
    diag_loc = np.zeros((n_cells, n1, n1, n1))
    if op.spec.needs_values:
        diag_loc += jxw.reshape(n_cells, n1, n1, n1)
    if op.spec.needs_gradients:
        G = sym[SYMMETRIC_INDEX].reshape(3, 3, n_cells, n1, n1, n1)
        D2 = basis.shape_gradients ** 2
        lap = np.einsum("qi,ckjq->ckji", D2, G[0, 0])
        lap += np.einsum("qj,ckqi->ckji", D2, G[1, 1])
        lap += np.einsum("qk,cqji->ckji", D2, G[2, 2])
        dd = np.diag(basis.shape_gradients)
        dx, dy, dz = dd[None, None, None, :], dd[None, None, :, None], dd[None, :, None, None]
        lap += 2.0 * (dx * dy * G[0, 1] + dx * dz * G[0, 2] + dy * dz * G[1, 2])
        diag_loc += op.spec.scaling * lap if op.spec.equation == "mass_plus_laplace" else lap
    scalar_idx = _expand_scalar(op.handler, np.arange(n_cells))
    diag = np.bincount(scalar_idx.ravel(), weights=diag_loc.reshape(n_cells, -1).ravel(),
                       minlength=op.handler.n_nodes)
    diag[np.unique(op.handler.constrained_dofs // op.spec.components)] = 1.0
    return 1.0 / diag


# -- explicit-matrix operator -----------------------------------------------------


class ArrayOperator:
    """Adapter giving an explicit (dense or sparse) matrix the matrix-free
    operator's interface, including the three-phase reference semantics of
    `apply_with_callbacks`."""

    def __init__(self, matrix, components: int = 1):
        self.matrix = matrix
        self.n_dofs = matrix.shape[0]
        self.components = components

    def apply(self, src, out=None, recorder=None, src_name="src",
              dst_name="dst"):
        result = self.matrix @ src
        if out is None:
            out = result
        else:
            out[:] = result
        if recorder is not None:
            recorder.register_dofs(src_name, self.n_dofs)
            recorder.register_dofs(dst_name, self.n_dofs)
            recorder.record_stream(src_name, trace.READ)
            recorder.record_stream(dst_name, trace.READWRITE)
        return out

    def apply_with_callbacks(self, src, dst, pre_fn, post_fn, *,
                             recorder=None, src_name="src", dst_name="dst"):
        n = self.n_dofs
        if pre_fn is not None:
            for lo in range(0, n, RANGE_SIZE):
                pre_fn(lo, min(lo + RANGE_SIZE, n))
        self.apply(src, out=dst, recorder=recorder, src_name=src_name,
                   dst_name=dst_name)
        if post_fn is not None:
            for lo in range(0, n, RANGE_SIZE):
                post_fn(lo, min(lo + RANGE_SIZE, n))


# -- chunked access trace: one object per record, explicit range ids -------------


@dataclass(frozen=True)
class ChunkEvent:
    iteration: int
    region: int
    tag: str
    sid: int
    mode: int
    ranges: np.ndarray


class ChunkRecorder:
    """The recorder as it stored events before the run-length columns: one
    ChunkEvent per record, each with its explicit int64 range ids.  Same
    event API, so solvers and the operator can record into it."""

    def __init__(self):
        self.streams = {}
        self._by_sid = {}
        self.chunks = []
        self.iteration = -1
        self._region = -1
        self._next_region = 0
        self._tag = ""
        self._tags = {}

    def register(self, name, n_bytes, kind="vector"):
        if name in self.streams:
            stream = self.streams[name]
            if stream.n_bytes != n_bytes or stream.kind != kind:
                raise ValueError(f"stream {name!r} re-registered inconsistently")
            return stream
        stream = trace.Stream(len(self.streams), name, kind, n_bytes)
        self.streams[name] = stream
        self._by_sid[stream.sid] = stream
        return stream

    def register_dofs(self, name, n_dofs):
        return self.register(name, 8 * n_dofs)

    def begin_iteration(self, k):
        self.iteration = k

    def begin_region(self, tag):
        rid = self._next_region
        self._next_region += 1
        self._region = rid
        self._tag = tag
        self._tags[rid] = tag
        return rid

    def resume_region(self, rid):
        self._region = rid
        self._tag = self._tags[rid]

    def record_stream(self, name, mode):
        stream = self.streams[name]
        self.record_ranges(name, np.arange(stream.n_ranges), mode)

    def record_ranges(self, name, ranges, mode):
        stream = self.streams[name]
        ranges = np.asarray(ranges, dtype=np.int64)
        if ranges.size == 0:
            return
        self.chunks.append(ChunkEvent(self.iteration, self._region, self._tag,
                                      stream.sid, mode, ranges))

    def record_runs(self, name, runs, mode):
        ranges = [r for start, stop in zip(*runs) for r in range(start, stop)]
        self.record_ranges(name, ranges, mode)

    def record_dofs(self, name, lo, hi, mode):
        if hi <= lo:
            return
        start = 8 * lo // trace.GRAIN_BYTES
        stop = -(-8 * hi // trace.GRAIN_BYTES)
        self.record_ranges(name, np.arange(start, stop), mode)

    def mark(self):
        return len(self.chunks)

    def assert_within(self, mark, dof_lo, dof_hi, n_dofs):
        for chunk in self.chunks[mark:]:
            stream = self._by_sid[chunk.sid]
            if stream.kind != "vector":
                continue
            scale = stream.n_bytes / (8 * n_dofs)
            lo = int(np.floor(dof_lo * 8 * scale / trace.GRAIN_BYTES))
            hi = int(np.ceil(dof_hi * 8 * scale / trace.GRAIN_BYTES))
            if chunk.ranges.min() < lo or chunk.ranges.max() >= max(hi, lo + 1):
                raise trace.ContractViolation(
                    f"stream {stream.name!r} touched ranges "
                    f"[{chunk.ranges.min()}, {chunk.ranges.max()}] outside the "
                    f"scheduled span [{lo}, {hi}) in region {chunk.tag!r}")


def trace_records(recorder):
    """(sid, mode, range ids) of every record of an AccessRecorder, read
    from its `columns()`."""
    cols = recorder.columns()
    ends = np.append(cols.first[1:], len(cols.start))
    return [(sid, mode, trace.expand_runs(cols.start[a:b], cols.stop[a:b]))
            for sid, mode, a, b in zip(cols.sid.tolist(), cols.mode.tolist(),
                                        cols.first.tolist(), ends.tolist())]


def chunk_summarize_trace(recorder, n_dofs, n_iterations):
    """summarize_trace over a ChunkRecorder: per region, np.unique of the
    concatenated (stream, range) keys of each direction."""
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    sid_info = {}
    for stream in recorder.streams.values():
        tail = stream.n_ranges - 1
        sid_info[stream.sid] = (stream.kind, tail, stream.range_doubles(tail))
    regions = {}
    for chunk in recorder.chunks:
        if not 1 <= chunk.iteration <= n_iterations:
            continue
        reg = regions.setdefault(chunk.region, (chunk.tag, [], []))
        key = chunk.sid * (1 << 40) + chunk.ranges
        if chunk.mode & trace.READ:
            reg[1].append(key)
        if chunk.mode & trace.WRITE:
            reg[2].append(key)

    def doubles(keys, want_kind):
        if not keys:
            return 0.0
        uniq = np.unique(np.concatenate(keys))
        sids = uniq >> 40
        rids = uniq & ((1 << 40) - 1)
        total = 0.0
        for sid in np.unique(sids):
            kind, tail, tail_doubles = sid_info[int(sid)]
            if kind != want_kind:
                continue
            mine = rids[sids == sid]
            total += 64.0 * len(mine)
            if mine[-1] == tail:
                total += tail_doubles - 64.0
        return total

    per_tag = {}
    meta_r = meta_w = 0.0
    for tag, read_keys, write_keys in regions.values():
        r = doubles(read_keys, "vector")
        w = doubles(write_keys, "vector")
        acc = per_tag.setdefault(tag, [0.0, 0.0, 0])
        acc[0] += r
        acc[1] += w
        acc[2] += 1
        meta_r += doubles(read_keys, "metadata")
        meta_w += doubles(write_keys, "metadata")

    scale = 1.0 / (n_dofs * n_iterations)
    tags = {}
    for tag, (r, w, inst) in per_tag.items():
        tags[tag] = TagTally(tag, inst, r * scale, w * scale,
                             r / (n_dofs * inst), w / (n_dofs * inst))
    non_row = ("matvec", "drift_check")
    row_r = sum(t.reads_per_iteration for n, t in tags.items() if n not in non_row)
    row_w = sum(t.writes_per_iteration for n, t in tags.items() if n not in non_row)
    mv = tags.get("matvec")
    return TraceSummary(n_dofs, n_iterations, tags, row_r, row_w,
                        mv.reads_per_instance if mv else 0.0,
                        mv.writes_per_instance if mv else 0.0,
                        meta_r * scale, meta_w * scale)


def walk_replay_cache(recorder, model, n_dofs, n_iterations):
    """replay_cache as one walk of every run of an AccessRecorder's columns
    through the per-range OrderedDict LRU, with no period skipped."""
    capacity_lines = model.capacity_bytes // LINE_BYTES
    lines_of = {}
    kind_of = {}
    for stream in recorder.streams.values():
        kind_of[stream.sid] = stream.kind
        tail = stream.n_ranges - 1
        full = trace.GRAIN_BYTES // LINE_BYTES
        tail_lines = -(-int(stream.range_doubles(tail) * 8) // LINE_BYTES)
        lines_of[stream.sid] = (full, tail, tail_lines)
    doubles_per_line = LINE_BYTES / 8.0
    cols = recorder.columns()
    runs = np.diff(np.append(cols.first, len(cols.start)))

    cache = OrderedDict()           # (sid, rid) -> [n_lines, dirty]
    get, touch, evict = cache.get, cache.move_to_end, cache.popitem
    occupancy = 0
    loads = {"vector": 0, "metadata": 0}
    stores = {"vector": 0, "metadata": 0}

    for sid, mode, start, stop in zip(np.repeat(cols.sid, runs).tolist(),
                                      np.repeat(cols.mode, runs).tolist(),
                                      cols.start.tolist(), cols.stop.tolist()):
        kind = kind_of[sid]
        full, tail, tail_lines = lines_of[sid]
        writes = bool(mode & trace.WRITE)
        missed = 0
        for rid in range(start, stop):
            key = (sid, rid)
            entry = get(key)
            if entry is None:
                n_lines = tail_lines if rid == tail else full
                missed += n_lines
                cache[key] = [n_lines, writes]
                occupancy += n_lines
                while occupancy > capacity_lines and cache:
                    old_key, (old_lines, old_dirty) = evict(last=False)
                    occupancy -= old_lines
                    if old_dirty:
                        stores[kind_of[old_key[0]]] += old_lines
            else:
                if writes:
                    entry[1] = True
                touch(key)
        loads[kind] += missed

    for (sid, _), (n_lines, dirty) in cache.items():
        if dirty:
            stores[kind_of[sid]] += n_lines

    scale = doubles_per_line / (n_dofs * n_iterations)
    return CacheReplayResult(
        model.capacity_bytes,
        (loads["vector"] + loads["metadata"]) * scale,
        (stores["vector"] + stores["metadata"]) * scale,
        loads["vector"] * scale, stores["vector"] * scale,
        loads["metadata"] * scale, stores["metadata"] * scale)


def chunk_replay_cache(recorder, model, n_dofs, n_iterations):
    """replay_cache over a ChunkRecorder: the same per-range OrderedDict
    LRU, walking each chunk's explicit range ids."""
    capacity_lines = model.capacity_bytes // LINE_BYTES
    lines_of = {}
    kind_of = {}
    for stream in recorder.streams.values():
        kind_of[stream.sid] = stream.kind
        tail = stream.n_ranges - 1
        full = trace.GRAIN_BYTES // LINE_BYTES
        tail_lines = -(-int(stream.range_doubles(tail) * 8) // LINE_BYTES)
        lines_of[stream.sid] = (full, tail, tail_lines)
    doubles_per_line = LINE_BYTES / 8.0

    cache = OrderedDict()
    occupancy = 0
    loads = {"vector": 0, "metadata": 0}
    stores = {"vector": 0, "metadata": 0}
    for chunk in recorder.chunks:
        sid = chunk.sid
        kind = kind_of[sid]
        full, tail, tail_lines = lines_of[sid]
        writes = bool(chunk.mode & trace.WRITE)
        for rid in chunk.ranges:
            rid = int(rid)
            key = (sid, rid)
            n_lines = tail_lines if rid == tail else full
            entry = cache.get(key)
            if entry is None:
                loads[kind] += n_lines
                cache[key] = [n_lines, writes]
                occupancy += n_lines
                while occupancy > capacity_lines and cache:
                    old_key, (old_lines, old_dirty) = cache.popitem(last=False)
                    occupancy -= old_lines
                    if old_dirty:
                        stores[kind_of[old_key[0]]] += old_lines
            else:
                entry[1] = entry[1] or writes
                cache.move_to_end(key)
    for (sid, _), (n_lines, dirty) in cache.items():
        if dirty:
            stores[kind_of[sid]] += n_lines

    scale = doubles_per_line / (n_dofs * n_iterations)
    return CacheReplayResult(
        model.capacity_bytes,
        (loads["vector"] + loads["metadata"]) * scale,
        (stores["vector"] + stores["metadata"]) * scale,
        loads["vector"] * scale, stores["vector"] * scale,
        loads["metadata"] * scale, stores["metadata"] * scale)
