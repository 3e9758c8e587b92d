"""One-dimensional quadrature, Lagrange basis tables, and sum-factorization
sweeps over tensor-product cells.

Cell data lives in C-ordered numpy arrays whose point axes are indexed
``[z, y, x]`` (x fastest among them, i.e. lexicographic layout); direction 0
is x, 1 is y, 2 is z.  A batch of cells comes in one of two layouts:

* cells-first, ``(lead..., z, y, x)``: the public ``evaluate_*`` and
  ``integrate_*`` functions.  A sweep is one small GEMM per cell and point
  line ``(lead * outer, n, trail)``.
* lanes-last, ``(z, y, x, lanes...)``: the three ``*_lanes`` functions
  (the adjoint gradient kernel runs only in a cell loop) and
  `LanesKernels`, with the cells and components innermost as SIMD lanes
  (after Kronbichler & Kormann, Computers & Fluids 63, 2012).  A sweep is a
  few long GEMMs ``(outer, n, trail * lanes)``: one for z, n for y and n^2
  for x, whatever the batch size.

Each basis derives its sweep plans (matrices, skipped directions, view
shapes) once.  One binder, `_bind`, turns a plan on `lead` cells first and
`lanes` lanes last into products: each sweep one (function, operands, out)
call on views of given arrays, an `np.matmul(..., out=)` or, if asked, an
even-odd product, which `run_calls` runs; the gradient kernel and its
adjoint are composed on it once.  `LanesKernels` binds the lanes-last
kernels once to planes that a cell loop reuses, and hands their calls
(`LanesKernels.calls`) to the operator's per-batch programs; the seven
public functions bind into arrays sized for the call and return arrays
they own.  Rules and bases are built once per argument and are read-only.
The reference cell is the unit cube [0,1]^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import NamedTuple

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
    "evaluate_values",
    "evaluate_gradients",
    "integrate_values",
    "integrate_gradients",
    "evaluate_values_lanes",
    "evaluate_gradients_lanes",
    "integrate_values_lanes",
    "LanesKernels",
    "run_calls",
]

# A cell tensor is just an ndarray; the alias documents intent in signatures.
CellTensor = np.ndarray

_NEWTON_TOL = 1e-15


def _read_only(array) -> np.ndarray:
    """A read-only, C-contiguous float copy of `array`."""
    out = np.array(array, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuadratureRule1D:
    """A 1D quadrature rule on [0,1]: strictly increasing points, positive
    weights summing to 1 (the interval length).  Holds read-only copies of
    the arrays it is given."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _read_only(self.points)
        wts = _read_only(self.weights)
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


@lru_cache(maxsize=64)
def gauss_quadrature(n: int) -> QuadratureRule1D:
    """n-point Gauss-Legendre rule mapped to [0,1]; exact to degree 2n-1.

    Nodes are found by Newton iteration on P_n seeded with Chebyshev
    estimates, converged to 1e-15.  Built once per n.
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


@lru_cache(maxsize=64)
def gauss_lobatto_quadrature(n: int) -> QuadratureRule1D:
    """n-point Gauss-Lobatto rule on [0,1] including both endpoints; exact to
    degree 2n-3.  Interior nodes are the roots of P'_{n-1}, found by Newton
    iteration from Chebyshev-Lobatto seeds.  Built once per n."""
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


def _mxm(matrix: np.ndarray, view: np.ndarray) -> np.ndarray:
    """The product of `_matmul` into a new (lead, m, trail) array."""
    out = np.empty((view.shape[0], matrix.shape[0], view.shape[2]))
    run_calls((_matmul(matrix, view, out),))
    return out


def _matmul(matrix: np.ndarray, view: np.ndarray, out: np.ndarray) -> tuple:
    """matrix (m, n) times the middle axis of view (lead, n, trail) into
    out (lead, m, trail), as one (function, operands, out) call on views
    made here: one GEMM if trail is 1, else one per lead index."""
    lead, n, trail = view.shape
    if trail == 1:
        return np.matmul, (view.reshape(lead, n), matrix.T), out.reshape(lead, -1)
    return np.matmul, (matrix, view), out


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
    return _read_only(even), _read_only(0.5 * (left - right))


class _Matrix1D(NamedTuple):
    """A 1D matrix (m, n) as a sweep applies it, with its even-odd blocks."""

    matrix: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    sign: int  # +1 persymmetric (values), -1 anti-persymmetric (derivatives)

    @classmethod
    def build(cls, matrix: np.ndarray, sign: int) -> "_Matrix1D":
        return cls(_read_only(matrix), *_halves(matrix), sign)


class _Sweep(NamedTuple):
    """One contraction of a plan: the (lead * outer, n, trail * lanes) view
    of a tensor of `lead` cells first or `lanes` cells last, times `matrix`
    along its middle axis."""

    outer: int
    n: int
    trail: int
    matrix: _Matrix1D


def _plan(steps, extent: int) -> tuple:
    """Sweeps for (direction, _Matrix1D) steps applied in order to cells of
    `extent` points per direction."""
    extents = [extent] * 3  # z, y, x
    sweeps = []
    for direction, matrix in steps:
        axis = 2 - direction
        m, n = matrix.matrix.shape
        sweeps.append(_Sweep(prod(extents[:axis]), n, prod(extents[axis + 1:]),
                             matrix))
        extents[axis] = m
    return tuple(sweeps)


def _even_odd(matrix: _Matrix1D, view: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The product of _mxm by half-size products on the (anti)symmetric
    parts of the view."""
    m, n = matrix.matrix.shape
    nh = n // 2
    lo, hi = view[:, :nh], view[:, ::-1][:, :nh]
    sym = lo + hi
    if n % 2:
        sym = np.concatenate([sym, view[:, nh:nh + 1]], axis=1)
    a, b = _mxm(matrix.even, sym), _mxm(matrix.odd, lo - hi)
    if out is None:
        out = np.empty((view.shape[0], m, view.shape[2]))
    np.add(a, b, out=out[:, :(m + 1) // 2])
    tail = a[:, :m // 2] - b[:, :m // 2]
    out[:, (m + 1) // 2:] = (tail if matrix.sign > 0 else -tail)[:, ::-1]
    return out


def _bind(sweeps: tuple, lead: int, lanes: int, source: np.ndarray,
          out: np.ndarray, scratch, even_odd: bool = False) -> tuple:
    """(calls, result) running `sweeps` on the flat `source` of `lead` cells
    first and `lanes` lanes last: each sweep one `_matmul` call (or, with
    `even_odd`, `_even_odd`), the last product into the flat `out`, the one
    before into scratch[0] and the one before that into scratch[1] (an
    entry that is None or too small is first replaced by an array of the
    product's size); an empty plan copies (np.positive).  `result` is the
    flat view written last."""
    if not sweeps:
        return ((np.positive, (source,), out[:source.size]),), out[:source.size]
    calls = []
    for left, (outer, n, trail, matrix) in zip(range(len(sweeps) - 1, -1, -1), sweeps):
        rows, width, k = lead * outer, trail * lanes, (left - 1) % 2
        size = rows * matrix.matrix.shape[0] * width
        if left and (scratch[k] is None or len(scratch[k]) < size):
            scratch[k] = np.empty(size)
        result = (scratch[k] if left else out)[:size]
        view = source.reshape(rows, n, width)
        into = result.reshape(rows, -1, width)
        calls.append((_even_odd, (matrix, view), into) if even_odd
                     else _matmul(matrix.matrix, view, into))
        source = result
    return tuple(calls), source


def _bind_gradients(basis: "TensorBasis1D", lead: int, lanes: int,
                    source: np.ndarray, out: np.ndarray, at_q: np.ndarray,
                    scratch, even_odd: bool = False) -> tuple:
    """Calls of the gradient kernel on the flat `source` (see `_bind`): the
    values at the quadrature points into the flat `at_q` (without
    collocation, none), then each component's derivatives into out[c]."""
    calls = ()
    if basis._to_q:
        calls, source = _bind(basis._to_q, lead, lanes, source, at_q, scratch, even_odd)
    for plan, row in zip(basis._derivatives, out):
        calls += _bind(plan, lead, lanes, source, row, scratch, even_odd)[0]
    return calls


def _bind_gradients_t(basis: "TensorBasis1D", lead: int, lanes: int, data,
                      out: np.ndarray, total: np.ndarray, part: np.ndarray,
                      scratch, even_odd: bool = False) -> tuple:
    """(calls, result) of the gradient kernel's adjoint on three flat
    components `data`: their transposed derivatives summed in order into
    the flat `total`, the second and third through `part`, then the
    transposed value sweeps into `out`; `result` is the view written last."""
    (first, total), (second, part), (third, _) = [
        _bind(plan, lead, lanes, source, into, scratch, even_odd)
        for plan, source, into in zip(basis._derivatives_t, data, (total, part, part))]
    add = ((np.add, (total, part), total),)
    calls = first + second + add + third + add
    if not basis._to_q_t:
        return calls, total
    back, result = _bind(basis._to_q_t, lead, lanes, total, out, scratch, even_odd)
    return calls + back, result


def run_calls(calls: tuple) -> None:
    """Run bound (function, operands, out) calls in order."""
    for function, operands, out in calls:
        function(*operands, out=out)


@dataclass(frozen=True)
class TensorBasis1D:
    """1D Lagrange basis of degree p on Gauss-Lobatto support points,
    tabulated at the quadrature points of `quadrature`.

    shape_values[q, i] = phi_i(x_q); shape_gradients[q, i] = phi_i'(x_q).
    `collocation` differentiates the interpolant through the quadrature
    points at those points, exact for the field if there are >= p+1 of them
    (else None).  `identity_values`: shape_values is exactly the identity
    (Gauss-Lobatto collocation), so value sweeps are skipped.

    The sweep plans of the four kernels are derived once from these fields:
    values to and from the quadrature points, and for gradients the sweeps
    to the quadrature points plus, per component, the sweeps that
    differentiate there (with fewer points than nodes, a triple each).
    """

    degree: int
    node_points: np.ndarray
    quadrature: QuadratureRule1D
    shape_values: np.ndarray
    shape_gradients: np.ndarray
    collocation: np.ndarray | None
    identity_values: bool
    _values: tuple = field(init=False, repr=False, compare=False)
    _values_t: tuple = field(init=False, repr=False, compare=False)
    _to_q: tuple = field(init=False, repr=False, compare=False)
    _to_q_t: tuple = field(init=False, repr=False, compare=False)
    _derivatives: tuple = field(init=False, repr=False, compare=False)
    _derivatives_t: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n1, nq = self.degree + 1, len(self.quadrature)
        value = _Matrix1D.build(self.shape_values, +1)
        value_t = _Matrix1D.build(self.shape_values.T, +1)
        interpolate = () if self.identity_values else (0, 1, 2)
        plans = {"_values": _plan([(d, value) for d in interpolate], n1),
                 "_values_t": _plan([(d, value_t) for d in interpolate], nq)}
        if self.collocation is None:
            gradient = _Matrix1D.build(self.shape_gradients, -1)
            gradient_t = _Matrix1D.build(self.shape_gradients.T, -1)
            plans["_to_q"] = plans["_to_q_t"] = ()
            plans["_derivatives"] = tuple(
                _plan([(d, gradient if d == c else value) for d in range(3)], n1)
                for c in range(3))
            plans["_derivatives_t"] = tuple(
                _plan([(d, gradient_t if d == c else value_t) for d in range(3)], nq)
                for c in range(3))
        else:
            derivative = _Matrix1D.build(self.collocation, -1)
            derivative_t = _Matrix1D.build(self.collocation.T, -1)
            plans["_to_q"], plans["_to_q_t"] = plans["_values"], plans["_values_t"]
            plans["_derivatives"] = tuple(_plan([(c, derivative)], nq) for c in range(3))
            plans["_derivatives_t"] = tuple(_plan([(c, derivative_t)], nq)
                                            for c in range(3))
        for name, plan in plans.items():
            object.__setattr__(self, name, plan)


def lagrange_basis(p: int, quad: QuadratureRule1D) -> TensorBasis1D:
    """The degree-p Lagrange basis (Gauss-Lobatto nodes) tabulated at the
    points of `quad`, with its sweep plans.  Built once per degree and rule
    (compared by value); its arrays are read-only."""
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    return _lagrange_basis(int(p), quad.points.tobytes(), quad.weights.tobytes())


@lru_cache(maxsize=64)
def _lagrange_basis(p: int, points: bytes, weights: bytes) -> TensorBasis1D:
    quad = QuadratureRule1D(np.frombuffer(points), np.frombuffer(weights))
    nodes = gauss_lobatto_quadrature(p + 1).points
    values = lagrange_values_1d(nodes, quad.points)
    collocation = None
    if len(quad) >= p + 1:
        collocation = _read_only(lagrange_gradients_1d(quad.points, quad.points))
    return TensorBasis1D(p, nodes, quad, _read_only(values),
                         _read_only(lagrange_gradients_1d(nodes, quad.points)),
                         collocation, bool(np.array_equal(values, np.eye(p + 1))))


def _layout(tensor: CellTensor, extent: int, lanes_last: bool) -> tuple:
    """(lead, lanes, leading shape, trailing shape) of a cell tensor, its
    cells before the point axes (lead) or after them (lanes); the three
    point axes must have `extent` points."""
    shape = tensor.shape
    points = shape[:3] if lanes_last else shape[-3:]
    if points != (extent,) * 3:
        raise ValueError(f"cell extents {points} do not match the basis "
                         f"extent {extent}")
    if lanes_last:
        return 1, prod(shape[3:]), (), shape[3:]
    return prod(shape[:-3]), 1, shape[:-3], ()


def _values(basis: TensorBasis1D, tensor: CellTensor, transpose: bool,
            lanes_last: bool, even_odd: bool) -> CellTensor:
    """Value sweeps to the quadrature points (or back, transposed); a copy
    under collocation."""
    n1, nq = basis.degree + 1, len(basis.quadrature)
    sweeps, n_in, n_out = ((basis._values_t, nq, n1) if transpose
                           else (basis._values, n1, nq))
    lead, lanes, before, after = _layout(tensor, n_in, lanes_last)
    if not sweeps:
        return tensor.copy()
    flat = np.empty(lead * n_out ** 3 * lanes)
    run_calls(_bind(sweeps, lead, lanes, tensor.reshape(-1), flat, [None, flat], even_odd)[0])
    return flat.reshape(before + (n_out,) * 3 + after)


def _gradients(basis: TensorBasis1D, tensor: CellTensor, lanes_last: bool,
               even_odd: bool) -> CellTensor:
    """Reference-space gradients at the quadrature points, stacked on a new
    leading axis."""
    lead, lanes, before, after = _layout(tensor, basis.degree + 1, lanes_last)
    out = np.empty((3,) + before + (len(basis.quadrature),) * 3 + after)
    rows = out.reshape(3, -1)
    # the sweeps to the quadrature points leave their products in the rows
    # of the result, which the derivatives write after them
    at_q = np.empty(rows.shape[1]) if basis._to_q else None
    run_calls(_bind_gradients(basis, lead, lanes, tensor.reshape(-1), rows, at_q,
                              rows if basis._to_q else [None, None], even_odd))
    return out


def _gradients_t(basis: TensorBasis1D, data: CellTensor, lanes_last: bool,
                 even_odd: bool) -> CellTensor:
    """Adjoint of _gradients: the transposed derivatives of the three
    stacked components summed at the quadrature points, then the transposed
    value sweeps."""
    if data.shape[0] != 3:
        raise ValueError("quad_data must stack 3 gradient components on axis 0")
    lead, lanes, before, after = _layout(data[0], len(basis.quadrature), lanes_last)
    out = np.empty(before + (basis.degree + 1,) * 3 + after)
    flat, components = out.reshape(-1), data.reshape(3, -1)
    # without value sweeps the sum is the result; with them, their products
    # go where the later components were and then where the sum was
    total = np.empty(components.shape[1]) if basis._to_q_t else flat
    part = np.empty(total.size)
    run_calls(_bind_gradients_t(basis, lead, lanes, components, flat, total, part,
                                [total, part] if basis._to_q_t else [None, None],
                                even_odd)[0])
    return out


def evaluate_values(basis: TensorBasis1D, cell_dofs: CellTensor,
                    even_odd: bool = False) -> CellTensor:
    """Interpolate nodal coefficients to the quadrature points (value sweeps
    in all three directions; a copy under collocation)."""
    return _values(basis, cell_dofs, False, False, even_odd)


def evaluate_gradients(basis: TensorBasis1D, cell_dofs: CellTensor,
                       even_odd: bool = False) -> CellTensor:
    """Reference-space gradient of the interpolant at all quadrature points:
    three value sweeps, then the collocation derivative in each direction.
    output[c] = d/dx_c of the field, stacked on a new leading axis, each of
    shape (n_q, n_q, n_q) plus any leading batch axes of the input."""
    return _gradients(basis, cell_dofs, False, even_odd)


def integrate_values(basis: TensorBasis1D, quad_data: CellTensor,
                     even_odd: bool = False) -> CellTensor:
    """Adjoint of evaluate_values: sum phi_i(x_q) * quad_data[q] over q
    (transposed value sweeps; a copy under collocation)."""
    return _values(basis, quad_data, True, False, even_odd)


def integrate_gradients(basis: TensorBasis1D, quad_data: CellTensor,
                        even_odd: bool = False) -> CellTensor:
    """Adjoint of evaluate_gradients: per-cell residual
    sum_q grad phi_i(x_q) . quad_data[:, q], as transposed collocation
    derivatives summed at the quadrature points, then transposed value
    sweeps.  The three gradient components are stacked on axis 0."""
    return _gradients_t(basis, quad_data, False, even_odd)


def evaluate_values_lanes(basis: TensorBasis1D, tensor: CellTensor) -> CellTensor:
    """evaluate_values on a lanes-last tensor, (z, y, x) plus lane axes."""
    return _values(basis, tensor, False, True, False)


def evaluate_gradients_lanes(basis: TensorBasis1D, tensor: CellTensor) -> CellTensor:
    """evaluate_gradients on a lanes-last tensor: (3, n_q, n_q, n_q) plus
    the lane axes of the input."""
    return _gradients(basis, tensor, True, False)


def integrate_values_lanes(basis: TensorBasis1D, quad_data: CellTensor) -> CellTensor:
    """integrate_values on a lanes-last tensor."""
    return _values(basis, quad_data, True, True, False)


class LanesKernels:
    """The four lanes-last kernels of `basis` for tensors with lane axes
    `lanes`, bound once to views into the rows of `planes`: each kernel is
    a tuple of (function, operands, out) calls, one `np.matmul` per sweep,
    which `calls` hands out to run (`run_calls`) or to fold into a longer
    program; a run makes no array.  Each result is a view into a row and
    holds until the next run.

    `planes` is a (`rows(values, gradients)`, `plane_size(basis, n)`) float
    array, n the number of lanes.  The last row holds `input`, the tensor
    the evaluate kernels read.  With gradients, rows 0-2 hold the
    gradients, 3-5 the flux, which the caller writes into `flux`, and 6 the
    values at the quadrature points, then their integrated sum.  With
    values, rows 3-5 (0-2 without gradients; their work is done before the
    flux is formed) hold the values at the quadrature points, which the
    caller may scale in place in `values`, and two intermediate products;
    the row before `input` holds the integrated values.
    """

    def __init__(self, basis: TensorBasis1D, lanes: tuple, planes: np.ndarray,
                 values: bool, gradients: bool):
        n1, nq = basis.degree + 1, len(basis.quadrature)
        width = prod(lanes)
        if planes.shape != (self.rows(values, gradients),
                            self.plane_size(basis, width)):
            raise ValueError(f"planes of shape {planes.shape} do not fit "
                             f"{width} lanes")
        nodes, points = n1 ** 3 * width, nq ** 3 * width
        at_nodes, at_points = (n1,) * 3 + tuple(lanes), (nq,) * 3 + tuple(lanes)
        source = planes[-1, :nodes]
        self.input = source.reshape(at_nodes)
        self._calls = {}
        if gradients:
            grads, flux, at_q = planes[0:3], planes[3:6], planes[6]
            self.gradients = grads[:, :points].reshape((3,) + at_points)
            self.flux = flux[:, :points].reshape((3,) + at_points)
            self._calls["evaluate_gradients"] = _bind_gradients(
                basis, 1, width, source, grads, at_q, flux[1:])
            # the components' integrals summed into row 6, the later ones via row 0
            self._calls["integrate_gradients"], result = _bind_gradients_t(
                basis, 1, width, flux[:, :points], grads[0], at_q, grads[0], grads[1:])
            self.integrated_gradients = result.reshape(at_nodes)
        if values:
            work = planes[3:6] if gradients else planes[0:3]
            self._calls["evaluate_values"], at = _bind(
                basis._values, 1, width, source, work[0], work[1:])
            self.values = at.reshape(at_points)
            self._calls["integrate_values"], result = _bind(
                basis._values_t, 1, width, work[0, :points], planes[-2], work[1:])
            self.integrated_values = result.reshape(at_nodes)

    @staticmethod
    def rows(values: bool, gradients: bool) -> int:
        """Rows of the planes the kernels need, `input` included."""
        return (7 if gradients else 3) + (1 if values else 0) + 1

    @staticmethod
    def plane_size(basis: TensorBasis1D, lanes: int) -> int:
        """Values per row for `lanes` lanes: the larger point set, cubed,
        per lane."""
        return max(basis.degree + 1, len(basis.quadrature)) ** 3 * lanes

    def calls(self, kernel: str) -> tuple:
        """The bound calls of `kernel`, "evaluate_values",
        "integrate_values", "evaluate_gradients" or "integrate_gradients",
        each run as function(*operands, out=out)."""
        return self._calls[kernel]
