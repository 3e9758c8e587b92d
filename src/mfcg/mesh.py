"""Structured hexahedral meshes with an optional smooth deformation, and the
per-quadrature-point geometric data variants used by the matrix-free operator.

The authoritative geometry of every cell is the tri-quadratic interpolant of
the deformation map through the cell's 3x3x3 lattice, so the compute variants
(quadratic, isoparametric) and the load variants (inverse Jacobian, final
tensor) describe exactly the same map and the operator results agree to
machine precision.  The affine variant is only valid on undeformed meshes.

This module owns the geometry's one format: `precompute_geometry` returns a
batch's data exactly as the cell kernel streams it, and
`geometry_coefficients` turns any variant's data into (G, w det J) for every
consumer (the kernel, the diagonal and the right-hand side).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "geometry_coefficients",
    "stored_coefficients",
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
    """Structured mesh of the unit cube [0,1]^3, optionally pushed through
    the smooth boundary-preserving sine deformation."""

    cells_per_dim: tuple
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


def build_cartesian_mesh(cells_per_dim) -> HexMesh:
    """Uniform axis-aligned mesh of the unit cube [0,1]^3."""
    return HexMesh(validate_cells(cells_per_dim))


# cells per block of `deform_mesh`'s Jacobian check, which bounds its
# transient arrays (J, adj J, the sweeps) independently of the mesh size
DEFORM_CHECK_CELLS = 512


def deform_mesh(mesh: HexMesh, amplitude: float) -> HexMesh:
    """Apply x -> x + amplitude * prod_d sin(pi x_d) to every coordinate.
    The bump vanishes on the boundary, so boundary faces stay put.  Rejects
    amplitudes that are not finite or flip any cell's Jacobian, checked in
    blocks of `DEFORM_CHECK_CELLS` cells."""
    if not np.isfinite(amplitude):
        raise ValueError(f"deformation amplitude must be finite, got {amplitude}")
    new = HexMesh(mesh.cells_per_dim, mesh.deformation + amplitude)
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
    deformation x -> x + a prod_d sin(pi x_d).  The map is separable, so
    each direction's coordinates and sines are computed once per line of
    cells (3 n_d of each) and broadcast over the lattice."""
    n = mesh.cells_per_dim
    coords, sines = [], []
    for d in range(3):
        # (t, c_d) of lattice position t in cell c_d, as a view on the
        # (t_z, t_y, t_x, c_z, c_y, c_x) axes of the lattice
        h = 1.0 / n[d]
        x = (np.arange(n[d]) * h)[:, None] + (_QUADRATIC_ORDER * h)[None, :]
        shape = [1] * 6
        shape[2 - d], shape[5 - d] = 3, n[d]
        coords.append(x.T.reshape(shape))
        sines.append(np.sin(np.pi * x).T.reshape(shape))
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
    """Per-cell geometric data for one variant, as the kernel streams it.

    Every payload array is C-contiguous with the entry axes first and the
    cells last, the kernel's lane order: "G" (3, 3, n_q^3, n_cells), all
    nine entries of G = J^-1 (w det J) J^-T, and "jxw" (n_q^3, n_cells),
    w det J, for the final-tensor and affine variants (the affine one G
    repeated over the cells); "inverse_jacobian" (3, 3, n_q^3, n_cells) and
    "jxw" for the inverse-Jacobian variant; "nodes" (n_nodes, 3, n_cells)
    for the compute variants.  `geometry_coefficients` reads every variant.
    `doubles_per_cell` is the transfer model's volume per cell, which the
    locality analysis counts, not the payload's size: the final tensor's
    six distinct entries and w det J per point, one affine J^-1 and det J.
    """

    variant: GeometryVariant
    quadrature: QuadratureRule1D
    payload: dict
    doubles_per_cell: int

    def without_coefficients(self) -> GeometryData:
        """The data an operator without gradients reads: no stored G and
        no J^-1, which only forming G reads."""
        return replace(self, payload={
            key: value for key, value in self.payload.items()
            if key not in ("G", "inverse_jacobian")})


def symmetric_coefficients(m: np.ndarray, scale, out: np.ndarray = None) -> np.ndarray:
    """m m^T * scale with all nine entries: m (3, 3, ...) and scale (...)
    give (3, 3, ...), into `out` if given, each of the six distinct entries
    computed once and copied to its mirror.  With m = J^-1 and
    scale = w det J this is G = J^-1 (w det J) J^-T."""
    if out is None:
        out = np.empty((3, 3) + np.broadcast_shapes(m.shape[2:], np.shape(scale)))
    for a in range(3):
        for b in range(a, 3):
            dot = m[a, 0] * m[b, 0]
            dot += m[a, 1] * m[b, 1]
            dot += m[a, 2] * m[b, 2]
            np.multiply(dot, scale, out=out[a, b])
            if b != a:
                out[b, a] = out[a, b]
    return out


def _tensor_weights(quad: QuadratureRule1D) -> np.ndarray:
    """w_k w_j w_i of every point, x fastest."""
    w = quad.weights
    return (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()


def precompute_geometry(mesh: HexMesh, variant: GeometryVariant,
                        quad: QuadratureRule1D, cells) -> GeometryData:
    """The geometry data of one variant for the cells `cells`, in that
    order on the last axis of every payload array (see GeometryData)."""
    nq = len(quad)
    if variant == GeometryVariant.AFFINE:
        if mesh.deformation != 0.0:
            raise ValueError("affine geometry requires an undeformed mesh")
        h = np.array([1.0 / n for n in mesh.cells_per_dim])
        jxw = (float(np.prod(h)) * _tensor_weights(quad))[:, None]
        G = symmetric_coefficients(np.diag(1.0 / h), jxw)
        payload = {"G": np.repeat(G, len(cells), axis=-1),
                   "jxw": np.repeat(jxw, len(cells), axis=-1)}
        return GeometryData(variant, quad, payload, 10)
    nodes = np.take(mesh.quadratic_nodes, cells, axis=-1)
    quadratic = GeometryData(GeometryVariant.QUADRATIC_COMPUTE, quad, {"nodes": nodes}, 27 * 3)
    if variant == GeometryVariant.QUADRATIC_COMPUTE:
        return quadratic
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
        return GeometryData(variant, quad, {"nodes": vals.reshape(-1, 3, n_cells)},
                            3 * len(support) ** 3)
    if variant == GeometryVariant.FINAL_TENSOR_LOAD:
        G, jxw = geometry_coefficients(quadratic)
        return GeometryData(variant, quad, {"G": G, "jxw": jxw}, 7 * nq**3)
    if variant == GeometryVariant.INVERSE_JACOBIAN_LOAD:
        adj, det = jacobian_adjugate(nodes, lagrange_basis(2, quad), nq)
        jxw = det * _tensor_weights(quad)[:, None]
        adj /= det
        return GeometryData(variant, quad, {"inverse_jacobian": adj, "jxw": jxw}, 10 * nq**3)
    raise ValueError(f"unknown geometry variant {variant}")


def geometry_coefficients(data: GeometryData, gradients: bool = True, out: tuple = None):
    """(G, jxw) of any variant's data, cells last: G = J^-1 (w det J) J^-T
    with all nine entries, (3, 3, n_q^3, n_cells), or None unless
    `gradients`; jxw = w det J, (n_q^3, n_cells).  The final-tensor and
    affine variants read both from the payload, the inverse-Jacobian
    variant forms G from J^-1, and the compute variants form both by
    differentiating their geometry nodes: the tri-quadratic map
    (quadratic) or its degree-(n_q-1) interpolant (isoparametric).  `out`,
    a (G, jxw) pair of arrays of those shapes, receives what is formed
    (see `stored_coefficients`)."""
    payload, quad = data.payload, data.quadrature
    G_out, jxw_out = (None, None) if out is None else out
    if "nodes" in payload:
        nq = len(quad)
        degree = 2 if data.variant == GeometryVariant.QUADRATIC_COMPUTE else nq - 1
        weights = _tensor_weights(quad)[:, None]
        adj, det = jacobian_adjugate(payload["nodes"], lagrange_basis(degree, quad), nq)
        G = symmetric_coefficients(adj, weights / det, out=G_out) if gradients else None
        return G, np.multiply(det, weights, out=jxw_out)
    jxw = payload["jxw"]
    if not gradients:
        return None, jxw
    if "inverse_jacobian" in payload:
        return symmetric_coefficients(payload["inverse_jacobian"], jxw, out=G_out), jxw
    return payload["G"], jxw


def stored_coefficients(data: GeometryData, gradients: bool = True) -> tuple:
    """(G, jxw) as `geometry_coefficients` returns them, where the payload
    of `data` stores them, and None where that function forms them per
    call; G is None unless `gradients`."""
    payload = data.payload
    return payload.get("G") if gradients else None, payload.get("jxw")


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
