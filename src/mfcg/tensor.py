"""One-dimensional quadrature, Lagrange basis tables, and sum-factorization
sweeps over tensor-product cells.

Cell data lives in C-ordered numpy arrays indexed ``[z, y, x]`` (x fastest in
memory, i.e. lexicographic layout); direction 0 is x, 1 is y, 2 is z.  All
sweeps accept arbitrary leading batch axes, so a whole batch of cells (or the
three gradient components) can be pushed through one contraction.  Every
sweep is a small matrix-matrix product on a reshaped view of the tensor (the
"mxm" form of sum factorization).  The reference cell is the unit cube
[0,1]^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "QuadratureRule1D",
    "TensorBasis1D",
    "CellTensor",
    "gauss_quadrature",
    "gauss_lobatto_quadrature",
    "lagrange_basis",
    "lagrange_values_1d",
    "lagrange_gradients_1d",
    "apply_1d",
    "even_odd_apply",
    "evaluate_values",
    "evaluate_gradients",
    "integrate_values",
    "integrate_gradients",
]

# A cell tensor is just an ndarray; the alias documents intent in signatures.
CellTensor = np.ndarray

_NEWTON_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureRule1D:
    """A 1D quadrature rule on [0,1]: strictly increasing points, positive
    weights summing to 1 (the interval length)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise ValueError("points and weights must be 1D arrays of equal length")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("quadrature points must be strictly increasing")
        if pts[0] < -1e-14 or pts[-1] > 1 + 1e-14:
            raise ValueError("quadrature points must lie in [0,1]")
        if np.any(wts <= 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self):
        return len(self.points)


def _legendre(n: int, x: np.ndarray):
    """Evaluate the Legendre polynomial P_n and its derivative at x on [-1,1]
    via the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    # (1-x^2) P_n' = n (P_{n-1} - x P_n); the derivative is only consumed at
    # interior points, so guard the endpoint division
    denom = 1.0 - x * x
    safe = np.where(denom == 0.0, 1.0, denom)
    dp = n * (p_prev - x * p) / safe
    return p, dp


def gauss_quadrature(n: int) -> QuadratureRule1D:
    """n-point Gauss-Legendre rule mapped to [0,1]; exact to degree 2n-1.

    Nodes are found by Newton iteration on P_n seeded with Chebyshev
    estimates, converged to 1e-15.
    """
    if n < 1:
        raise ValueError("gauss_quadrature requires n >= 1")
    if n == 1:
        return QuadratureRule1D(np.array([0.5]), np.array([1.0]))
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return QuadratureRule1D((x[order] + 1.0) / 2.0, w[order] / 2.0)


def gauss_lobatto_quadrature(n: int) -> QuadratureRule1D:
    """n-point Gauss-Lobatto rule on [0,1] including both endpoints; exact to
    degree 2n-3.  Interior nodes are the roots of P'_{n-1}, found by Newton
    iteration from Chebyshev-Lobatto seeds."""
    if n < 2:
        raise ValueError("gauss_lobatto_quadrature requires n >= 2")
    m = n - 1
    if n == 2:
        x = np.array([-1.0, 1.0])
    else:
        i = np.arange(1, m)
        x = -np.cos(np.pi * i / m)
        for _ in range(100):
            p, dp = _legendre(m, x)
            # Legendre ODE: (1-x^2) P'' = 2x P' - m(m+1) P
            ddp = (2.0 * x * dp - m * (m + 1) * p) / (1.0 - x * x)
            dx = dp / ddp
            x = x - dx
            if np.max(np.abs(dx)) < _NEWTON_TOL:
                break
        x = np.concatenate(([-1.0], np.sort(x), [1.0]))
    p, _ = _legendre(m, x)
    w = 2.0 / (m * (m + 1) * p * p)
    return QuadratureRule1D((x + 1.0) / 2.0, w / 2.0)


def lagrange_values_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of Lagrange basis values phi_i(x_q) for basis nodes `nodes`,
    shape (len(x), len(nodes))."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    out = np.ones((len(x), n))
    for i in range(n):
        for j in range(n):
            if j != i:
                out[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return out


def lagrange_gradients_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of Lagrange basis derivatives phi_i'(x_q), shape
    (len(x), len(nodes))."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    out = np.zeros((len(x), n))
    for i in range(n):
        for m in range(n):
            if m == i:
                continue
            term = np.full(len(x), 1.0 / (nodes[i] - nodes[m]))
            for j in range(n):
                if j != i and j != m:
                    term *= (x - nodes[j]) / (nodes[i] - nodes[j])
            out[:, i] += term
    return out


def _axis(tensor: CellTensor, direction: int, n: int) -> int:
    """Axis of `direction` in a C-ordered tensor, checked to have extent n."""
    if direction not in (0, 1, 2):
        raise ValueError("direction must be 0, 1 or 2")
    axis = tensor.ndim - 1 - direction
    if tensor.shape[axis] != n:
        raise ValueError(f"tensor extent {tensor.shape[axis]} in direction "
                         f"{direction} does not match matrix extent {n}")
    return axis


def _mxm(matrix: np.ndarray, view: np.ndarray) -> np.ndarray:
    """matrix (m, n) times the middle axis of view (lead, n, trail): one GEMM
    if trail is 1, else one (m, n) x (n, trail) GEMM per lead index."""
    lead, n, trail = view.shape
    if trail == 1:
        return (view.reshape(lead, n) @ matrix.T).reshape(lead, -1, 1)
    return matrix @ view


def _halves(matrix: np.ndarray) -> tuple:
    """Even-odd blocks (even, odd) of a matrix over point sets symmetric
    about 0.5, acting on sums and differences of mirrored inputs (factor 1/2
    folded in) and giving the first half of the output rows."""
    n = matrix.shape[1]
    nh = n // 2
    top = matrix[:(matrix.shape[0] + 1) // 2]
    left, right = top[:, :nh], top[:, ::-1][:, :nh]
    even = 0.5 * (left + right)
    if n % 2:
        even = np.hstack([even, top[:, nh:nh + 1]])
    return np.ascontiguousarray(even), np.ascontiguousarray(0.5 * (left - right))


@dataclass(frozen=True)
class _Matrix1D:
    """A 1D matrix with the even-odd blocks of itself and its transpose."""

    matrix: np.ndarray
    sign: int  # +1 persymmetric (values), -1 anti-persymmetric (derivatives)
    halves: tuple
    halves_t: tuple

    @classmethod
    def build(cls, matrix: np.ndarray, sign: int) -> "_Matrix1D":
        return cls(matrix, sign, _halves(matrix), _halves(matrix.T))

    def apply(self, tensor: CellTensor, direction: int, transpose: bool,
              even_odd: bool) -> CellTensor:
        """The one sum-factorization primitive: contract along `direction` by
        matrix products on the tensor's (lead, n, trail) view; with
        `even_odd`, by half-size products on its (anti)symmetric parts."""
        matrix = self.matrix.T if transpose else self.matrix
        m, n = matrix.shape
        axis = _axis(tensor, direction, n)
        shape = tensor.shape
        view = tensor.reshape(prod(shape[:axis]), n, prod(shape[axis + 1:]))
        if not even_odd:
            out = _mxm(matrix, view)
        else:
            even, odd = self.halves_t if transpose else self.halves
            nh = n // 2
            lo, hi = view[:, :nh], view[:, ::-1][:, :nh]
            sym = lo + hi
            if n % 2:
                sym = np.concatenate([sym, view[:, nh:nh + 1]], axis=1)
            a, b = _mxm(even, sym), _mxm(odd, lo - hi)
            out = np.empty((view.shape[0], m, view.shape[2]))
            np.add(a, b, out=out[:, :(m + 1) // 2])
            tail = a[:, :m // 2] - b[:, :m // 2]
            out[:, (m + 1) // 2:] = (tail if self.sign > 0 else -tail)[:, ::-1]
        return out.reshape(shape[:axis] + (m,) + shape[axis + 1:])


@dataclass(frozen=True)
class TensorBasis1D:
    """1D Lagrange basis of degree p on Gauss-Lobatto support points,
    tabulated at the quadrature points of `quadrature`.

    shape_values[q, i] = phi_i(x_q); shape_gradients[q, i] = phi_i'(x_q).
    `collocation` differentiates the interpolant through the quadrature
    points at those points, exact for the field if there are >= p+1 of them
    (else None).  `identity_values`: shape_values is exactly the identity
    (Gauss-Lobatto collocation), so value sweeps are skipped.
    """

    degree: int
    node_points: np.ndarray
    quadrature: QuadratureRule1D
    shape_values: np.ndarray
    shape_gradients: np.ndarray
    values: _Matrix1D
    gradients: _Matrix1D
    collocation: _Matrix1D | None
    identity_values: bool


def lagrange_basis(p: int, quad: QuadratureRule1D) -> TensorBasis1D:
    """Build the degree-p Lagrange basis (Gauss-Lobatto nodes) tabulated at
    the points of `quad`, with its 1D matrices and their even-odd blocks."""
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    nodes = gauss_lobatto_quadrature(p + 1).points
    values = lagrange_values_1d(nodes, quad.points)
    gradients = lagrange_gradients_1d(nodes, quad.points)
    collocation = None
    if len(quad) >= p + 1:
        collocation = _Matrix1D.build(
            lagrange_gradients_1d(quad.points, quad.points), -1)
    return TensorBasis1D(p, nodes, quad, values, gradients,
                         _Matrix1D.build(values, +1), _Matrix1D.build(gradients, -1),
                         collocation, bool(np.array_equal(values, np.eye(p + 1))))


def apply_1d(matrix: np.ndarray, tensor: CellTensor, direction: int,
             transpose: bool = False) -> CellTensor:
    """Contract `matrix` (or its transpose) with `tensor` along the given
    direction (0 = x = last axis).  Leading batch axes pass through.  The
    reference contraction: sums in index order of separately rounded
    products, as a plain loop does (the sweeps' BLAS may fuse them)."""
    mat = matrix.T if transpose else matrix
    _axis(tensor, direction, mat.shape[1])
    spec = ("qi,...i->...q", "qi,...ix->...qx", "qi,...iyx->...qyx")[direction]
    return np.einsum(spec, mat, tensor)


def even_odd_apply(basis: TensorBasis1D, tensor: CellTensor, direction: int,
                   kind: str = "value", transpose: bool = False) -> CellTensor:
    """Same contraction as apply_1d with the basis' value or gradient matrix,
    computed through the even-odd decomposition (about half the
    multiplications; agrees with apply_1d to reassociation tolerance)."""
    if kind not in ("value", "gradient"):
        raise ValueError("kind must be 'value' or 'gradient'")
    matrix = basis.values if kind == "value" else basis.gradients
    return matrix.apply(tensor, direction, transpose, True)


def _sweep(tensor: CellTensor, matrices, transpose: bool,
           even_odd: bool) -> CellTensor:
    """Apply one _Matrix1D per direction (x, y, z); None skips a direction."""
    for direction, matrix in enumerate(matrices):
        if matrix is not None:
            tensor = matrix.apply(tensor, direction, transpose, even_odd)
    return tensor


def _interpolation(basis: TensorBasis1D) -> tuple:
    return (None if basis.identity_values else basis.values,) * 3


def _gradient_sweeps(basis: TensorBasis1D):
    """(sweeps to the quadrature points, per component the sweeps that
    differentiate there); with fewer points than nodes, a triple each."""
    D = basis.collocation
    if D is None:
        return (None,) * 3, [tuple(basis.gradients if d == c else basis.values
                                   for d in range(3)) for c in range(3)]
    return _interpolation(basis), [tuple(D if d == c else None for d in range(3))
                                   for c in range(3)]


def evaluate_values(basis: TensorBasis1D, cell_dofs: CellTensor,
                    even_odd: bool = False) -> CellTensor:
    """Interpolate nodal coefficients to the quadrature points (value sweeps
    in all three directions; a copy under collocation)."""
    out = _sweep(cell_dofs, _interpolation(basis), False, even_odd)
    return out.copy() if out is cell_dofs else out


def evaluate_gradients(basis: TensorBasis1D, cell_dofs: CellTensor,
                       even_odd: bool = False) -> CellTensor:
    """Reference-space gradient of the interpolant at all quadrature points:
    three value sweeps, then the collocation derivative in each direction.
    output[c] = d/dx_c of the field, stacked on a new leading axis, each of
    shape (n_q, n_q, n_q) plus any leading batch axes of the input."""
    to_q, differentiate = _gradient_sweeps(basis)
    at_q = _sweep(cell_dofs, to_q, False, even_odd)
    return np.stack([_sweep(at_q, d, False, even_odd) for d in differentiate])


def integrate_values(basis: TensorBasis1D, quad_data: CellTensor,
                     even_odd: bool = False) -> CellTensor:
    """Adjoint of evaluate_values: sum phi_i(x_q) * quad_data[q] over q
    (transposed value sweeps; a copy under collocation)."""
    out = _sweep(quad_data, _interpolation(basis), True, even_odd)
    return out.copy() if out is quad_data else out


def integrate_gradients(basis: TensorBasis1D, quad_data: CellTensor,
                        even_odd: bool = False) -> CellTensor:
    """Adjoint of evaluate_gradients: per-cell residual
    sum_q grad phi_i(x_q) . quad_data[:, q], as transposed collocation
    derivatives summed at the quadrature points, then transposed value
    sweeps.  The three gradient components are stacked on axis 0."""
    if quad_data.shape[0] != 3:
        raise ValueError("quad_data must stack 3 gradient components on axis 0")
    to_q, differentiate = _gradient_sweeps(basis)
    at_q = sum(_sweep(data, d, True, even_odd)
               for data, d in zip(quad_data, differentiate))
    return _sweep(at_q, to_q, True, even_odd)
