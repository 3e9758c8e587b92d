"""Mesh construction, deformation, and geometry-variant tests.

The Jacobian oracle here is written independently of the library: explicit
quadratic Lagrange polynomials on {0, 1/2, 1} evaluated pointwise, plus a
central finite-difference cross-check of the analytic derivatives.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    SIX_ENTRIES,
    SYMMETRIC_INDEX,
    cell_lattice,
    geometry_data,
    map_points,
    matrix_stack,
    quadratic_geometry_nodes,
)
from mfcg.mesh import (
    GeometryVariant,
    build_cartesian_mesh,
    deform_mesh,
    geometry_coefficients,
    jacobian_adjugate,
    precompute_geometry,
    symmetric_coefficients,
)
from mfcg.tensor import gauss_quadrature, lagrange_basis


def mesh_geometry(mesh, variant, quad):
    """The variant's geometry data for every cell of `mesh`, in cell order."""
    return precompute_geometry(mesh, variant, quad, np.arange(mesh.n_cells))


# ---------------------------------------------------------------------------
# oracle: tri-quadratic interpolation written out longhand


def quad_shape(t):
    """Quadratic Lagrange values on nodes {0, 1/2, 1}."""
    return np.array([2.0 * (t - 0.5) * (t - 1.0),
                     -4.0 * t * (t - 1.0),
                     2.0 * t * (t - 0.5)])


def quad_shape_deriv(t):
    return np.array([4.0 * t - 3.0, -8.0 * t + 4.0, 4.0 * t - 1.0])


def oracle_map(nodes27, ref):
    """Evaluate the tri-quadratic interpolant of 27 points at one ref point."""
    lx, ly, lz = quad_shape(ref[0]), quad_shape(ref[1]), quad_shape(ref[2])
    out = np.zeros(3)
    for k in range(3):
        for j in range(3):
            for i in range(3):
                out += nodes27[i + 3 * j + 9 * k] * lx[i] * ly[j] * lz[k]
    return out


def oracle_jacobian(nodes27, ref):
    """d x_i / d ref_j of the tri-quadratic interpolant at one ref point."""
    lx, ly, lz = quad_shape(ref[0]), quad_shape(ref[1]), quad_shape(ref[2])
    dx, dy, dz = (quad_shape_deriv(ref[0]), quad_shape_deriv(ref[1]),
                  quad_shape_deriv(ref[2]))
    jac = np.zeros((3, 3))
    for k in range(3):
        for j in range(3):
            for i in range(3):
                p = nodes27[i + 3 * j + 9 * k]
                jac[:, 0] += p * dx[i] * ly[j] * lz[k]
                jac[:, 1] += p * lx[i] * dy[j] * lz[k]
                jac[:, 2] += p * lx[i] * ly[j] * dz[k]
    return jac


def quad_lattice(nq):
    """Reference coordinates of the tensor quadrature lattice, x fastest."""
    pts = gauss_quadrature(nq).points
    out = np.empty((nq**3, 3))
    q = 0
    for k in range(nq):
        for j in range(nq):
            for i in range(nq):
                out[q] = (pts[i], pts[j], pts[k])
                q += 1
    return out


# ---------------------------------------------------------------------------
# construction


class TestBuildMesh:
    def test_counts(self):
        mesh = build_cartesian_mesh((2, 3, 4))
        assert mesh.n_cells == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cartesian_mesh((0, 1, 1))


# ---------------------------------------------------------------------------
# deformation


class TestDeformation:
    def test_zero_amplitude_is_identity(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 3, 2)), 0.0)
        lattice = cell_lattice(mesh, [0.0, 0.5, 1.0]).transpose(1, 2, 0)
        np.testing.assert_array_equal(mesh.quadratic_nodes, lattice)

    def test_boundary_preserved(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 3, 4)), 0.08)
        lattice = cell_lattice(mesh, [0.0, 0.5, 1.0]).transpose(1, 2, 0)
        nodes = mesh.quadratic_nodes
        for d in range(3):
            for value in (0.0, 1.0):
                face = lattice[:, d] == value
                assert face.any()
                for c in range(3):
                    np.testing.assert_allclose(nodes[:, c][face], lattice[:, c][face],
                                               atol=1e-15)

    def test_interior_moves(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.05)
        center = np.array([0.5, 0.5, 0.5])
        np.testing.assert_allclose(mesh.quadratic_nodes[26, :, 0], center + 0.05, atol=1e-15)

    def test_excessive_amplitude_rejected(self):
        with pytest.raises(ValueError, match="Jacobian"):
            deform_mesh(build_cartesian_mesh((2, 2, 2)), 5.0)

    def test_check_peak_is_bounded_by_the_nodes(self):
        # the Jacobian check used to form J and adj J for every cell at
        # once: a peak of 7.7x the nodes at 20^3
        base = build_cartesian_mesh((20, 20, 20))
        tracemalloc.start()
        try:
            mesh = deform_mesh(base, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * mesh.quadratic_nodes.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_rejected(self, value):
        # NaN used to be reported as a non-positive Jacobian, min det J = nan
        with pytest.raises(ValueError, match=f"amplitude must be finite, got {value}"):
            deform_mesh(build_cartesian_mesh((2, 2, 2)), value)

    def test_affine_requires_undeformed(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.05)
        with pytest.raises(ValueError, match="undeformed"):
            mesh_geometry(mesh, GeometryVariant.AFFINE, gauss_quadrature(3))


# ---------------------------------------------------------------------------
# geometry nodes and Jacobians against the longhand oracle


class TestQuadraticNodes:
    def test_undeformed_lattice(self):
        mesh = build_cartesian_mesh((2, 3, 4))
        nodes = quadratic_geometry_nodes(mesh, 1)
        # cell 1 spans x in [1/2,1], y in [0,1/3], z in [0,1/4]
        assert nodes.shape == (27, 3)
        np.testing.assert_allclose(nodes[0], [0.5, 0.0, 0.0])
        np.testing.assert_allclose(nodes[1], [0.75, 0.0, 0.0])
        np.testing.assert_allclose(nodes[13], [0.75, 1 / 6, 1 / 8])
        np.testing.assert_allclose(nodes[26], [1.0, 1 / 3, 1 / 4])

    def test_deformed_nodes_match_map(self):
        base = build_cartesian_mesh((2, 2, 2))
        mesh = deform_mesh(base, 0.06)
        nodes = quadratic_geometry_nodes(mesh, 3)
        undeformed = quadratic_geometry_nodes(base, 3)
        np.testing.assert_allclose(nodes, map_points(mesh, undeformed), atol=1e-15)


class TestJacobians:
    @pytest.mark.parametrize("nq", [2, 3, 4])
    def test_matches_analytic_oracle(self, nq):
        mesh = deform_mesh(build_cartesian_mesh((2, 3, 4)), 0.07)
        quad = gauss_quadrature(nq)
        data = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        inv = data.payload["inverse_jacobian"]
        lattice = quad_lattice(nq)
        for cell in (0, 3, 7):
            nodes = quadratic_geometry_nodes(mesh, cell)
            for q in range(0, nq**3, max(1, nq**3 // 9)):
                expected = oracle_jacobian(nodes, lattice[q])
                np.testing.assert_allclose(np.linalg.inv(inv[:, :, q, cell]), expected,
                                           rtol=1e-12, atol=1e-13)

    def test_matches_finite_differences(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.05)
        nodes = quadratic_geometry_nodes(mesh, 5)
        ref = np.array([0.31, 0.67, 0.49])
        h = 1e-6
        fd = np.zeros((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd[:, j] = (oracle_map(nodes, ref + step) - oracle_map(nodes, ref - step)) / (2 * h)
        np.testing.assert_allclose(oracle_jacobian(nodes, ref), fd, atol=1e-8)

    def test_jxw_positive_and_consistent(self):
        mesh = deform_mesh(build_cartesian_mesh((3, 3, 3)), 0.05)
        quad = gauss_quadrature(3)
        data = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        assert np.all(data.payload["jxw"] > 0.0)
        lattice = quad_lattice(3)
        weights = np.array([quad.weights[i] * quad.weights[j] * quad.weights[k]
                            for k in range(3) for j in range(3) for i in range(3)])
        nodes = quadratic_geometry_nodes(mesh, 13)
        dets = np.array([np.linalg.det(oracle_jacobian(nodes, p)) for p in lattice])
        np.testing.assert_allclose(data.payload["jxw"][:, 13], dets * weights, rtol=1e-12)

    def test_on_the_fly_matches_precomputed(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.06)
        quad = gauss_quadrature(4)
        basis = lagrange_basis(2, quad)
        data = mesh_geometry(mesh, GeometryVariant.QUADRATIC_COMPUTE, quad)
        adj, det = jacobian_adjugate(data.payload["nodes"], basis, len(quad))
        ref = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        np.testing.assert_allclose(matrix_stack(adj / det),
                                   matrix_stack(ref.payload["inverse_jacobian"]),
                                   rtol=1e-12, atol=1e-14)
        G, jxw = geometry_coefficients(data)
        np.testing.assert_allclose(jxw, ref.payload["jxw"], rtol=1e-12)
        np.testing.assert_allclose(G, geometry_coefficients(ref)[0], rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# variants agree with each other


class TestVariants:
    def test_affine_payload(self):
        # G = diag(1/h)^2 det J w and jxw = det J w, the same for every cell
        mesh = build_cartesian_mesh((2, 4, 8))
        quad = gauss_quadrature(2)
        data = mesh_geometry(mesh, GeometryVariant.AFFINE, quad)
        assert sorted(data.payload) == ["G", "jxw"]
        w = quad.weights
        jxw = 0.5 * 0.25 * 0.125 * np.einsum("k,j,i->kji", w, w, w).ravel()
        np.testing.assert_allclose(data.payload["jxw"], np.repeat(jxw[:, None], 64, axis=1))
        G = np.einsum("ik,q->ikq", np.diag([4.0, 16.0, 64.0]), jxw)
        np.testing.assert_allclose(data.payload["G"], np.repeat(G[..., None], 64, axis=-1))
        assert data.doubles_per_cell == 10

    def test_symmetric_index_matches_storage_order(self):
        # the oracles' six-entry order is xx, yy, zz, xy, xz, yz, and
        # SYMMETRIC_INDEX[i, k] finds entry (i, k) of the nine in it
        m = np.random.default_rng(0).standard_normal((3, 3, 4))
        G = symmetric_coefficients(m, 1.0)
        six = G[SIX_ENTRIES]
        for a, (i, k) in enumerate([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]):
            assert SYMMETRIC_INDEX[i, k] == SYMMETRIC_INDEX[k, i] == a
        np.testing.assert_array_equal(six[SYMMETRIC_INDEX], G)

    def test_final_tensor_matches_inverse_jacobian(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.07)
        quad = gauss_quadrature(3)
        load = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        final = mesh_geometry(mesh, GeometryVariant.FINAL_TENSOR_LOAD, quad)
        inv = load.payload["inverse_jacobian"]
        jxw = load.payload["jxw"]
        full = np.einsum("ijqc,kjqc,qc->ikqc", inv, inv, jxw)
        np.testing.assert_allclose(final.payload["G"], full, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(final.payload["jxw"], jxw)

    def test_isoparametric_reproduces_quadratic_map(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.05)
        quad = gauss_quadrature(4)
        data = mesh_geometry(mesh, GeometryVariant.ISOPARAMETRIC_COMPUTE, quad)
        nodes = data.payload["nodes"]
        assert nodes.shape == (4**3, 3, 8)
        from mfcg.tensor import gauss_lobatto_quadrature
        support = gauss_lobatto_quadrature(4).points
        cell_nodes = quadratic_geometry_nodes(mesh, 2)
        q = 0
        for k in range(4):
            for j in range(4):
                for i in range(4):
                    ref = np.array([support[i], support[j], support[k]])
                    np.testing.assert_allclose(nodes[q, :, 2], oracle_map(cell_nodes, ref),
                                               atol=1e-13)
                    q += 1

    def test_isoparametric_jacobians_match(self):
        # n_q >= 3: the stored interpolant reproduces the quadratic map, so
        # differentiating it gives identical Jacobians
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.05)
        quad = gauss_quadrature(3)
        iso = mesh_geometry(mesh, GeometryVariant.ISOPARAMETRIC_COMPUTE, quad)
        basis = lagrange_basis(len(quad) - 1, quad)
        adj, det = jacobian_adjugate(iso.payload["nodes"], basis, len(quad))
        ref = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        np.testing.assert_allclose(matrix_stack(adj / det),
                                   matrix_stack(ref.payload["inverse_jacobian"]),
                                   rtol=1e-10, atol=1e-12)

    def test_doubles_per_cell(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.03)
        quad = gauss_quadrature(4)
        sizes = {
            GeometryVariant.QUADRATIC_COMPUTE: 81,
            GeometryVariant.ISOPARAMETRIC_COMPUTE: 3 * 64,
            GeometryVariant.INVERSE_JACOBIAN_LOAD: 10 * 64,
            GeometryVariant.FINAL_TENSOR_LOAD: 7 * 64,
        }
        for variant, size in sizes.items():
            assert mesh_geometry(mesh, variant, quad).doubles_per_cell == size

    def test_per_cell_view(self):
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.04)
        quad = gauss_quadrature(3)
        full = mesh_geometry(mesh, GeometryVariant.FINAL_TENSOR_LOAD, quad)
        view = geometry_data(mesh, 5, GeometryVariant.FINAL_TENSOR_LOAD, quad)
        np.testing.assert_array_equal(view["G"], full.payload["G"][..., 5])
        np.testing.assert_array_equal(view["jxw"], full.payload["jxw"][..., 5])

    def test_undeformed_volume(self):
        mesh = build_cartesian_mesh((2, 3, 4))
        quad = gauss_quadrature(2)
        data = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD, quad)
        np.testing.assert_allclose(data.payload["jxw"].sum(), 1.0, rtol=1e-13)

    def test_deformed_volume_quadrature_independent(self):
        # det J is polynomial, so sufficiently accurate rules agree exactly
        mesh = deform_mesh(build_cartesian_mesh((2, 2, 2)), 0.08)
        volumes = []
        for nq in (4, 6):
            data = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD,
                                 gauss_quadrature(nq))
            volumes.append(data.payload["jxw"].sum())
        np.testing.assert_allclose(volumes[0], volumes[1], rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 3), ny=st.integers(1, 3), nz=st.integers(1, 3),
       amplitude=st.floats(0.0, 0.1))
def test_deformation_keeps_cells_valid(nx, ny, nz, amplitude):
    mesh = deform_mesh(build_cartesian_mesh((nx, ny, nz)), amplitude)
    data = mesh_geometry(mesh, GeometryVariant.INVERSE_JACOBIAN_LOAD,
                         gauss_quadrature(3))
    assert np.all(data.payload["jxw"] > 0.0)
