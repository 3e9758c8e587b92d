"""Structured hexahedral meshes with an optional smooth deformation, and the
per-quadrature-point geometric data variants used by the matrix-free operator.

The authoritative geometry of every cell is the tri-quadratic interpolant of
the deformation map through the cell's 3x3x3 lattice, so the compute variants
(quadratic, isoparametric) and the load variants (inverse Jacobian, final
tensor) describe exactly the same map and the operator results agree to
machine precision.  The affine variant is only valid on undeformed meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .tensor import (
    QuadratureRule1D,
    evaluate_gradients_lanes,
    evaluate_values_lanes,
    gauss_lobatto_quadrature,
    lagrange_basis,
)

__all__ = [
    "HexMesh",
    "GeometryVariant",
    "GeometryData",
    "build_cartesian_mesh",
    "validate_cells",
    "deform_mesh",
    "precompute_geometry",
    "SYMMETRIC_INDEX",
    "symmetric_coefficients",
    "adjugate",
    "jacobian_adjugate",
]


class GeometryVariant(Enum):
    """How the operator obtains J^-1 and w_q det J at quadrature points."""

    AFFINE = "affine"
    QUADRATIC_COMPUTE = "quadratic_compute"
    ISOPARAMETRIC_COMPUTE = "isoparametric_compute"
    INVERSE_JACOBIAN_LOAD = "inverse_jacobian_load"
    FINAL_TENSOR_LOAD = "final_tensor_load"


@dataclass(frozen=True)
class HexMesh:
    """Axis-aligned structured mesh of the brick [0,extents], optionally
    pushed through the smooth boundary-preserving sine deformation."""

    cells_per_dim: tuple
    extents: tuple
    deformation: float = 0.0

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.cells_per_dim
        return nx * ny * nz

    @cached_property
    def quadratic_nodes(self) -> np.ndarray:
        """(27, 3, n_cells) tri-quadratic nodes of every cell, cells last,
        built once per mesh and shared read-only by the geometry and the
        right-hand side."""
        nodes = _quadratic_lattice(self)
        nodes.flags.writeable = False
        return nodes


def validate_cells(cells_per_dim) -> tuple:
    """cells_per_dim as a tuple of ints; raises ValueError unless it holds
    exactly three integers, each at least 1."""
    cells = tuple(cells_per_dim)
    if len(cells) != 3 or any(int(c) != c or c < 1 for c in cells):
        raise ValueError(f"cells_per_dim must be three integers >= 1, got {cells}")
    return tuple(int(c) for c in cells)


def build_cartesian_mesh(cells_per_dim, extents=(1.0, 1.0, 1.0)) -> HexMesh:
    """Uniform axis-aligned mesh of the brick [0,extents]^3."""
    cells = validate_cells(cells_per_dim)
    ext = tuple(float(e) for e in extents)
    if not all(np.isfinite(e) and e > 0 for e in ext):
        raise ValueError(f"extents must be finite and positive, got {ext}")
    return HexMesh(cells, ext)


# cells per block of `deform_mesh`'s Jacobian check, which bounds its
# transient arrays (J, adj J, the sweeps) independently of the mesh size
DEFORM_CHECK_CELLS = 512


def deform_mesh(mesh: HexMesh, amplitude: float) -> HexMesh:
    """Apply x -> x + amplitude * prod_d sin(pi x_d / extent_d) to every
    coordinate.  The bump vanishes on the boundary, so boundary faces stay
    put.  Rejects amplitudes that are not finite or flip any cell's Jacobian,
    checked in blocks of `DEFORM_CHECK_CELLS` cells."""
    if not np.isfinite(amplitude):
        raise ValueError(f"deformation amplitude must be finite, got {amplitude}")
    new = HexMesh(mesh.cells_per_dim, mesh.extents, mesh.deformation + amplitude)
    if amplitude != 0.0:
        nodes = new.quadratic_nodes
        basis = lagrange_basis(2, gauss_lobatto_quadrature(3))
        try:
            for lo in range(0, new.n_cells, DEFORM_CHECK_CELLS):
                jacobian_adjugate(nodes[..., lo:lo + DEFORM_CHECK_CELLS], basis, 3)
        except ValueError as err:
            raise ValueError(
                f"deformation amplitude {new.deformation} produces a "
                f"non-positive Jacobian ({err})") from None
    return new


def _lattice_coords(cells_per_dim) -> tuple:
    """(cx, cy, cz) lattice coordinates of every cell, in lexicographic
    cell order."""
    nx, ny, nz = cells_per_dim
    cells = np.arange(nx * ny * nz, dtype=np.int64)
    return cells % nx, (cells // nx) % ny, cells // (nx * ny)


def _quadratic_lattice(mesh: HexMesh) -> np.ndarray:
    """The (27, 3, n_cells) tri-quadratic nodes of every cell: the
    {0, 1/2, 1}^3 lattice of each cell, x fastest, pushed through the
    deformation x -> x + a prod_d sin(pi x_d / extent_d).  The map is
    separable, so each direction's coordinates and sines are computed once
    per line of cells (3 n_d of each) and broadcast over the lattice."""
    n = mesh.cells_per_dim
    coords, sines = [], []
    for d in range(3):
        # (t, c_d) of lattice position t in cell c_d, as a view on the
        # (t_z, t_y, t_x, c_z, c_y, c_x) axes of the lattice
        h = mesh.extents[d] / n[d]
        x = (np.arange(n[d]) * h)[:, None] + (_QUADRATIC_ORDER * h)[None, :]
        shape = [1] * 6
        shape[2 - d], shape[5 - d] = 3, n[d]
        coords.append(x.T.reshape(shape))
        sines.append(np.sin(np.pi * x / mesh.extents[d]).T.reshape(shape))
    nodes = np.empty((3, 3, 3, 3) + n[::-1])
    if mesh.deformation == 0.0:
        for d in range(3):
            nodes[:, :, :, d] = coords[d]
    else:
        bump = mesh.deformation * (sines[0] * sines[1] * sines[2])
        for d in range(3):
            nodes[:, :, :, d] = coords[d] + bump
    return nodes.reshape(27, 3, mesh.n_cells)


_QUADRATIC_ORDER = np.array([0.0, 0.5, 1.0])


# -- closed-form 3x3 algebra ---------------------------------------------------
# Entry by entry on (3, 3, ...) stacks, so every operation streams whole
# arrays of quadrature points instead of looping over LAPACK calls.


def _cofactor(jac: np.ndarray, i: int, k: int, out: np.ndarray = None) -> np.ndarray:
    """Signed cofactor of entry (i, k) of (3, 3, ...) matrices, written
    into `out` if given."""
    i1, i2, k1, k2 = (i + 1) % 3, (i + 2) % 3, (k + 1) % 3, (k + 2) % 3
    out = np.multiply(jac[i1, k1], jac[i2, k2], out=out)
    out -= jac[i1, k2] * jac[i2, k1]
    return out


def _checked_determinant(jac: np.ndarray, cofactors) -> np.ndarray:
    """det J by cofactor expansion along the first row, given the cofactors
    of that row (the first column of adj J); raises ValueError unless every
    determinant is positive."""
    det = jac[0, 0] * cofactors[0]
    det += jac[0, 1] * cofactors[1]
    det += jac[0, 2] * cofactors[2]
    if not np.min(det) > 0.0:
        raise ValueError(f"degenerate cell: min det J = {np.min(det):.3e}")
    return det


def adjugate(jac: np.ndarray) -> np.ndarray:
    """adj J = det(J) J^-1 of (3, 3, ...) matrices: entry (k, i) is the
    cofactor of J_ik, each entry contiguous."""
    adj = np.empty(jac.shape)
    for i in range(3):
        for k in range(3):
            _cofactor(jac, i, k, adj[k, i])
    return adj


@dataclass(frozen=True)
class GeometryData:
    """Per-cell geometric data for one variant.

    Depending on the variant the payload holds geometry node coordinates
    (compute variants), precomputed inverse Jacobians plus w_q det J, the
    final symmetric coefficient tensor plus w_q det J, or a single affine
    J^-1 / det J per mesh.  Per-cell arrays hold the entry axes first and
    the cells last, the kernel's lane order: "nodes" (n_nodes, 3, n_cells),
    "inverse_jacobian" (3, 3, n_q^3, n_cells), "final_tensor" (6, n_q^3,
    n_cells), "jxw" (n_q^3, n_cells).  `doubles_per_cell` records the data
    volume the variant streams per cell so the locality analysis can model
    transfer.
    """

    variant: GeometryVariant
    quadrature: QuadratureRule1D
    payload: dict
    doubles_per_cell: int


# Position of entry (i, k) of a symmetric 3x3 tensor in its six-entry
# storage order (xx, yy, zz, xy, xz, yz).
SYMMETRIC_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_SYMMETRIC_ROWS = (0, 1, 2, 0, 0, 1)
_SYMMETRIC_COLS = (0, 1, 2, 1, 2, 2)


def symmetric_coefficients(m: np.ndarray, scale) -> np.ndarray:
    """The six distinct entries of m m^T * scale on a new leading axis, in
    SYMMETRIC_INDEX order: m (3, 3, ...) and scale (...) give (6, ...).
    With m = J^-1 and scale = w det J this is G = J^-1 (w det J) J^-T."""
    out = np.empty((6,) + np.broadcast_shapes(m.shape[2:], np.shape(scale)))
    for entry, a, b in zip(out, _SYMMETRIC_ROWS, _SYMMETRIC_COLS):
        dot = m[a, 0] * m[b, 0]
        dot += m[a, 1] * m[b, 1]
        dot += m[a, 2] * m[b, 2]
        np.multiply(dot, scale, out=entry)
    return out


def _tensor_weights(quad: QuadratureRule1D) -> np.ndarray:
    w = quad.weights
    return np.einsum("k,j,i->kji", w, w, w).ravel()


def precompute_geometry(mesh: HexMesh, variant: GeometryVariant,
                        quad: QuadratureRule1D, cells) -> GeometryData:
    """Build the geometry data of one variant for the cells `cells`, in
    that order on the last axis of every per-cell array."""
    nq = len(quad)
    weights = _tensor_weights(quad)
    if variant == GeometryVariant.AFFINE:
        if mesh.deformation != 0.0:
            raise ValueError("affine geometry requires an undeformed mesh")
        h = np.array([mesh.extents[d] / mesh.cells_per_dim[d] for d in range(3)])
        inv = np.diag(1.0 / h)
        det = float(np.prod(h))
        payload = {"inverse_jacobian": inv, "det_j": det, "weights": weights}
        return GeometryData(variant, quad, payload, 10)
    nodes = np.take(mesh.quadratic_nodes, cells, axis=-1)
    if variant == GeometryVariant.QUADRATIC_COMPUTE:
        return GeometryData(variant, quad, {"nodes": nodes, "weights": weights}, 27 * 3)
    if variant == GeometryVariant.ISOPARAMETRIC_COMPUTE:
        # physical coordinates of the tri-quadratic map at the Gauss-Lobatto
        # lattice of n_q points per direction; the operator differentiates
        # the degree-(n_q-1) interpolant, which reproduces the quadratic map
        # exactly whenever n_q >= 3 (for n_q = 2 the stored map degrades to
        # tri-linear, still consistent but no longer identical to the others
        # on deformed meshes)
        if nq < 2:
            raise ValueError("isoparametric geometry needs >= 2 points/dir")
        support = gauss_lobatto_quadrature(nq).points
        basis2 = lagrange_basis(2, QuadratureRule1D(support, np.full(len(support), 1.0 / len(support))))
        n_cells = nodes.shape[-1]
        # (s, s, s, coord, cells): the coordinates and cells are the lanes
        vals = evaluate_values_lanes(basis2, nodes.reshape(3, 3, 3, 3, n_cells))
        nodes = vals.reshape(-1, 3, n_cells)
        return GeometryData(variant, quad, {"nodes": nodes, "weights": weights},
                            3 * len(support) ** 3)
    adj, det = jacobian_adjugate(nodes, lagrange_basis(2, quad), nq)
    jxw = det * weights[:, None]
    if variant == GeometryVariant.INVERSE_JACOBIAN_LOAD:
        adj /= det
        return GeometryData(variant, quad, {"inverse_jacobian": adj, "jxw": jxw}, 10 * nq**3)
    if variant == GeometryVariant.FINAL_TENSOR_LOAD:
        sym = symmetric_coefficients(adj, weights[:, None] / det)
        return GeometryData(variant, quad, {"final_tensor": sym, "jxw": jxw}, 7 * nq**3)
    raise ValueError(f"unknown geometry variant {variant}")


def _jacobians(nodes: np.ndarray, geo_basis, nq: int) -> np.ndarray:
    """jac[i, j] = d x_i / d ref_j, (3, 3, n_q^3, n_batch), of a batch of
    cells from geometry node coordinates (n_nodes, 3, n_batch) via
    sum-factorized differentiation of the geometry polynomial, with the
    coordinates and cells innermost as SIMD lanes: a view of the sweep
    output."""
    n_batch = nodes.shape[-1]
    npd = geo_basis.degree + 1
    g = evaluate_gradients_lanes(geo_basis, nodes.reshape(npd, npd, npd, 3, n_batch))
    return g.reshape(3, nq**3, 3, n_batch).transpose(2, 0, 1, 3)


def jacobian_adjugate(nodes: np.ndarray, geo_basis, nq: int):
    """(adj J, det J) of a batch of cells from its geometry nodes (see
    _jacobians): adj J (3, 3, n_q^3, n_batch) and det J (n_q^3, n_batch),
    checked positive.  J itself is dropped on return: held on, it would set
    the memory peak of set-up."""
    jac = _jacobians(nodes, geo_basis, nq)
    adj = adjugate(jac)
    return adj, _checked_determinant(jac, adj[:, 0])
