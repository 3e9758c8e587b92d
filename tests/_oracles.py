"""Shared independent oracles and problem builders for the test suite.

The dense CG/PCG implementations below are deliberately plain 10-line
textbook loops on explicit matrices, kept free of any package machinery so
they can arbitrate the instrumented solvers.
"""

import math

import numpy as np

from mfcg import trace
from mfcg.bench import manufactured_forcing
from mfcg.dofs import (
    RANGE_SIZE,
    DofHandler,
    _expand_scalar,
    distribute_dofs,
    expand_batch,
    expand_cell_indices,
    make_batches,
)
from mfcg.mesh import (
    SYMMETRIC_INDEX,
    GeometryVariant,
    build_cartesian_mesh,
    deform_mesh,
    quadratic_geometry_nodes,
)
from mfcg.operator import MatrixFreeOperator, OperatorSpec, _merge_spans
from mfcg.tensor import (
    evaluate_gradients,
    evaluate_values,
    gauss_lobatto_quadrature,
    gauss_quadrature,
    integrate_values,
    lagrange_basis,
)


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
# mfcg.tensor.


def einsum_apply_1d(matrix, tensor, direction, transpose=False):
    mat = matrix.T if transpose else matrix
    if direction == 0:
        return np.einsum("qi,...i->...q", mat, tensor)
    if direction == 1:
        return np.einsum("qi,...ix->...qx", mat, tensor)
    return np.einsum("qi,...iyx->...qyx", mat, tensor)


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
            out = einsum_apply_1d(mat, out, direction, transpose)
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


# -- problem set-up as first implemented -----------------------------------------
# Per-cell Python loops and LAPACK inverses/determinants: the oracle for the
# index-arithmetic numbering, renumbering and schedules, the one-pass
# right-hand side and the closed-form 3x3 geometry.


def loop_connectivity(cells):
    """(n_cells, 8) vertex ids of each cell's corners, x fastest."""
    nx, ny, nz = cells

    def vid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    conn = np.empty((nx * ny * nz, 8), dtype=np.int64)
    cell = 0
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                conn[cell] = [vid(i + dx, j + dy, k + dz)
                              for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
                cell += 1
    return conn


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
    return [_merge_spans(np.flatnonzero(first == b), RANGE_SIZE, op.n_dofs)
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


def lapack_symmetric_coefficients(inv, jxw):
    """Six entries of J^-1 (w det J) J^-T by fancy-indexed rows and columns."""
    rows = inv[..., (0, 1, 2, 0, 0, 1), :]
    cols = inv[..., (0, 1, 2, 1, 2, 2), :]
    return np.einsum("...aj,...aj->a...", rows, cols) * jxw


def lapack_geometry(mesh, quad):
    """(inverse Jacobian, jxw, six-entry tensor (6, cells, nq^3)) of every
    cell with LAPACK inv/det on the per-cell geometry nodes."""
    nodes = np.stack([quadratic_geometry_nodes(mesh, c) for c in range(mesh.n_cells)])
    jac, det = lapack_jacobians(nodes, lagrange_basis(2, quad), len(quad))
    w = quad.weights
    jxw = det * np.einsum("k,j,i->kji", w, w, w).ravel()
    inv = np.linalg.inv(jac)
    return inv, jxw, lapack_symmetric_coefficients(inv, jxw)


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
