"""Shared independent oracles and problem builders for the test suite.

The dense CG/PCG implementations below are deliberately plain 10-line
textbook loops on explicit matrices, kept free of any package machinery so
they can arbitrate the instrumented solvers.
"""

import math

import numpy as np

from mfcg.dofs import distribute_dofs, make_batches
from mfcg.mesh import GeometryVariant, build_cartesian_mesh, deform_mesh
from mfcg.operator import MatrixFreeOperator, OperatorSpec


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
