"""Tests for 1D quadrature, Lagrange bases, and sum-factorization sweeps.

Oracles: analytic monomial integrals for quadrature exactness, explicit
triple-loop contraction for apply_1d, a naive per-point basis-product
evaluation (O(p^6) per cell) for the gradient sweeps, and for the GEMM-shaped
sweeps the first einsum/even-odd implementation (_oracles) and the unfactored
Kronecker matrices.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfcg.tensor import (
    LanesKernels,
    QuadratureRule1D,
    evaluate_gradients,
    evaluate_gradients_lanes,
    evaluate_values,
    evaluate_values_lanes,
    gauss_lobatto_quadrature,
    gauss_quadrature,
    integrate_gradients,
    integrate_values,
    integrate_values_lanes,
    lagrange_basis,
    lagrange_gradients_1d,
    lagrange_values_1d,
    run_calls,
)

from _oracles import (
    apply_1d,
    even_odd_apply,
    integrate_gradients_lanes,
    oracle_evaluate_gradients,
    oracle_evaluate_values,
    oracle_integrate_gradients,
    oracle_integrate_values,
)


# ---------------------------------------------------------------- oracles


def naive_contract(matrix, tensor, direction, transpose=False):
    """Explicit loop contraction of a 3D tensor with a matrix along one
    direction (0 = x = last axis)."""
    mat = matrix.T if transpose else matrix
    m, n = mat.shape
    nz, ny, nx = tensor.shape
    shape = list(tensor.shape)
    shape[2 - direction] = m
    out = np.zeros(shape)
    for k in range(shape[0]):
        for j in range(shape[1]):
            for i in range(shape[2]):
                acc = 0.0
                for l in range(n):
                    if direction == 0:
                        acc += mat[i, l] * tensor[k, j, l]
                    elif direction == 1:
                        acc += mat[j, l] * tensor[k, l, i]
                    else:
                        acc += mat[k, l] * tensor[l, j, i]
                out[k, j, i] = acc
    return out


def naive_gradients(basis, cell_dofs):
    """O(p^6)-per-cell oracle: evaluate grad u_h at each tensor quadrature
    point by summing grad phi_j(x_q) u_j over all basis functions."""
    nodes = basis.node_points
    xq = basis.quadrature.points
    val = lagrange_values_1d(nodes, xq)
    grad = lagrange_gradients_1d(nodes, xq)
    npd = len(nodes)
    nq = len(xq)
    out = np.zeros((3, nq, nq, nq))
    for qz in range(nq):
        for qy in range(nq):
            for qx in range(nq):
                for jz in range(npd):
                    for jy in range(npd):
                        for jx in range(npd):
                            u = cell_dofs[jz, jy, jx]
                            out[0, qz, qy, qx] += grad[qx, jx] * val[qy, jy] * val[qz, jz] * u
                            out[1, qz, qy, qx] += val[qx, jx] * grad[qy, jy] * val[qz, jz] * u
                            out[2, qz, qy, qx] += val[qx, jx] * val[qy, jy] * grad[qz, jz] * u
    return out


# ---------------------------------------------------------------- quadrature


def test_gauss_midpoint():
    rule = gauss_quadrature(1)
    assert rule.points[0] == pytest.approx(0.5)
    assert rule.weights[0] == pytest.approx(1.0)


def test_gauss_two_points_closed_form():
    rule = gauss_quadrature(2)
    expected = np.array([0.5 - 1 / (2 * np.sqrt(3.0)), 0.5 + 1 / (2 * np.sqrt(3.0))])
    np.testing.assert_allclose(rule.points, expected, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_gauss_three_points_integrates_x4():
    rule = gauss_quadrature(3)
    assert np.dot(rule.weights, rule.points**4) == pytest.approx(0.2, abs=1e-15)


def test_gauss_invalid():
    with pytest.raises(ValueError):
        gauss_quadrature(0)


def test_lobatto_trapezoid():
    rule = gauss_lobatto_quadrature(2)
    np.testing.assert_allclose(rule.points, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_lobatto_simpson():
    rule = gauss_lobatto_quadrature(3)
    np.testing.assert_allclose(rule.points, [0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 6, 4 / 6, 1 / 6], atol=1e-15)


def test_lobatto_four_points_integrates_x5():
    rule = gauss_lobatto_quadrature(4)
    assert np.dot(rule.weights, rule.points**5) == pytest.approx(1 / 6, abs=1e-15)


def test_lobatto_invalid():
    with pytest.raises(ValueError):
        gauss_lobatto_quadrature(1)


@given(st.integers(min_value=1, max_value=12))
def test_gauss_exactness(n):
    # n-point Gauss integrates monomials exactly up to degree 2n-1
    rule = gauss_quadrature(n)
    assert np.all(np.diff(rule.points) > 0)
    assert rule.points[0] >= 0 and rule.points[-1] <= 1
    for k in range(2 * n):
        exact = 1.0 / (k + 1)
        assert np.dot(rule.weights, rule.points**k) == pytest.approx(exact, rel=1e-13)


@given(st.integers(min_value=2, max_value=12))
def test_lobatto_exactness(n):
    rule = gauss_lobatto_quadrature(n)
    assert rule.points[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.points[-1] == pytest.approx(1.0, abs=1e-15)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    for k in range(2 * n - 2):
        exact = 1.0 / (k + 1)
        assert np.dot(rule.weights, rule.points**k) == pytest.approx(exact, rel=1e-13)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule1D(np.array([0.5, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        QuadratureRule1D(np.array([0.2, 0.5]), np.array([0.5, -0.5]))


# ---------------------------------------------------------------- basis


def test_linear_hat_values():
    basis = lagrange_basis(1, gauss_quadrature(1))
    np.testing.assert_allclose(basis.shape_values[0], [0.5, 0.5], atol=1e-15)


def test_linear_constant_gradient():
    basis = lagrange_basis(1, gauss_quadrature(3))
    for row in basis.shape_gradients:
        np.testing.assert_allclose(row, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("nq", [2, 4, 7])
def test_partition_of_unity(p, nq):
    basis = lagrange_basis(p, gauss_quadrature(nq))
    np.testing.assert_allclose(basis.shape_values.sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(basis.shape_gradients.sum(axis=1), 0.0, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_collocation_identity(p):
    # Gauss-Lobatto quadrature on p+1 points collocates the support points
    basis = lagrange_basis(p, gauss_lobatto_quadrature(p + 1))
    np.testing.assert_allclose(basis.shape_values, np.eye(p + 1), atol=1e-14)


def test_invalid_degree():
    with pytest.raises(ValueError):
        lagrange_basis(0, gauss_quadrature(2))


# ---------------------------------------------------------------- apply_1d


def test_apply_identity():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3, 3))
    for d in range(3):
        np.testing.assert_array_equal(apply_1d(np.eye(3), t, d), t)


def test_apply_all_ones_sums():
    t = np.ones((2, 2, 2))
    row = np.ones((1, 2))
    out = t
    for d in range(3):
        out = apply_1d(row, out, d)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(8.0)


def test_apply_matches_naive_loops():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((3, 3))
    t = rng.standard_normal((3, 3, 3))
    for d in range(3):
        np.testing.assert_allclose(apply_1d(mat, t, d), naive_contract(mat, t, d), rtol=1e-14)
        np.testing.assert_allclose(
            apply_1d(mat, t, d, transpose=True), naive_contract(mat, t, d, transpose=True),
            rtol=1e-14)


def test_apply_rectangular_and_batched():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((5, 3))
    t = rng.standard_normal((3, 3, 3))
    for d in range(3):
        expected = naive_contract(mat, t, d)
        got = apply_1d(mat, t, d)
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        batched = apply_1d(mat, np.stack([t, 2 * t]), d)
        np.testing.assert_allclose(batched[1], 2 * expected, rtol=1e-13)


def test_apply_extent_mismatch():
    with pytest.raises(ValueError):
        apply_1d(np.eye(4), np.zeros((3, 3, 3)), 0)
    with pytest.raises(ValueError):
        apply_1d(np.eye(3), np.zeros((3, 3, 3)), 5)


# ---------------------------------------------------------------- even-odd


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("nq", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", ["value", "gradient"])
def test_even_odd_matches_apply_1d(p, nq, kind):
    basis = lagrange_basis(p, gauss_quadrature(nq))
    mat = basis.shape_values if kind == "value" else basis.shape_gradients
    rng = np.random.default_rng(p * 100 + nq)
    t = rng.standard_normal((p + 1, p + 1, p + 1))
    back = rng.standard_normal((nq, nq, nq))
    for d in range(3):
        ref = apply_1d(mat, t, d)
        got = even_odd_apply(basis, t, d, kind)
        scale = np.max(np.abs(ref)) + 1e-300
        assert np.max(np.abs(got - ref)) / scale < 1e-14
        ref_t = apply_1d(mat, back, d, transpose=True)
        got_t = even_odd_apply(basis, back, d, kind, transpose=True)
        scale = np.max(np.abs(ref_t)) + 1e-300
        assert np.max(np.abs(got_t - ref_t)) / scale < 1e-14


def test_even_odd_symmetry_parity():
    # symmetric input through the gradient matrix gives antisymmetric output
    basis = lagrange_basis(4, gauss_quadrature(5))
    u = np.zeros((1, 1, 5))
    u[0, 0] = [1.0, 2.0, 3.0, 2.0, 1.0]
    out = even_odd_apply(basis, u, 0, "gradient")[0, 0]
    np.testing.assert_allclose(out, -out[::-1], atol=1e-13)


def test_even_odd_constant_stays_constant():
    basis = lagrange_basis(3, gauss_quadrature(5))
    u = np.ones((4, 4, 4))
    out = even_odd_apply(basis, u, 1, "value")
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_even_odd_property(p, nq, seed):
    basis = lagrange_basis(p, gauss_quadrature(nq))
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((p + 1, p + 1, p + 1))
    for kind, mat in (("value", basis.shape_values), ("gradient", basis.shape_gradients)):
        ref = apply_1d(mat, t, 2)
        got = even_odd_apply(basis, t, 2, kind)
        scale = np.max(np.abs(ref)) + 1e-300
        assert np.max(np.abs(got - ref)) / scale < 1e-14


# ------------------------------------------------------- gradient sweeps


def test_gradients_of_constant_vanish():
    basis = lagrange_basis(3, gauss_quadrature(5))
    g = evaluate_gradients(basis, np.ones((4, 4, 4)))
    np.testing.assert_allclose(g, 0.0, atol=1e-13)


def test_gradient_of_linear_field():
    # u = x (first reference coordinate) has gradient (1, 0, 0) everywhere
    basis = lagrange_basis(2, gauss_quadrature(4))
    nodes = basis.node_points
    u = np.broadcast_to(nodes, (3, 3, 3)).copy()
    g = evaluate_gradients(basis, u)
    np.testing.assert_allclose(g[0], 1.0, atol=1e-13)
    np.testing.assert_allclose(g[1], 0.0, atol=1e-13)
    np.testing.assert_allclose(g[2], 0.0, atol=1e-13)


def test_gradients_match_naive_oracle():
    basis = lagrange_basis(2, gauss_quadrature(4))
    rng = np.random.default_rng(3)
    u = rng.standard_normal((3, 3, 3))
    np.testing.assert_allclose(evaluate_gradients(basis, u), naive_gradients(basis, u),
                               rtol=1e-12, atol=1e-13)


def test_integrate_zero():
    basis = lagrange_basis(2, gauss_quadrature(3))
    out = integrate_gradients(basis, np.zeros((3, 3, 3, 3)))
    np.testing.assert_array_equal(out, np.zeros((3, 3, 3)))


def test_integrate_is_adjoint_of_evaluate():
    basis = lagrange_basis(3, gauss_quadrature(5))
    rng = np.random.default_rng(11)
    u = rng.standard_normal((4, 4, 4))
    g = rng.standard_normal((3, 5, 5, 5))
    lhs = np.sum(integrate_gradients(basis, g) * u)
    rhs = np.sum(g * evaluate_gradients(basis, u))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    v = rng.standard_normal((5, 5, 5))
    lhs = np.sum(integrate_values(basis, v) * u)
    rhs = np.sum(v * evaluate_values(basis, u))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_integrate_matches_naive_summation():
    # independent oracle: assemble the residual by explicit per-point sums
    basis = lagrange_basis(2, gauss_quadrature(3))
    rng = np.random.default_rng(5)
    data = rng.standard_normal((3, 3, 3, 3))
    val = lagrange_values_1d(basis.node_points, basis.quadrature.points)
    grad = lagrange_gradients_1d(basis.node_points, basis.quadrature.points)
    out = np.zeros((3, 3, 3))
    for jz in range(3):
        for jy in range(3):
            for jx in range(3):
                for qz in range(3):
                    for qy in range(3):
                        for qx in range(3):
                            out[jz, jy, jx] += (
                                grad[qx, jx] * val[qy, jy] * val[qz, jz] * data[0, qz, qy, qx]
                                + val[qx, jx] * grad[qy, jy] * val[qz, jz] * data[1, qz, qy, qx]
                                + val[qx, jx] * val[qy, jy] * grad[qz, jz] * data[2, qz, qy, qx])
    np.testing.assert_allclose(integrate_gradients(basis, data), out, rtol=1e-12, atol=1e-13)


def test_gradient_extent_mismatch():
    basis = lagrange_basis(2, gauss_quadrature(3))
    with pytest.raises(ValueError):
        evaluate_gradients(basis, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        integrate_gradients(basis, np.zeros((2, 3, 3, 3)))


# ------------------------------------- GEMM sweeps against the first version


def _rel(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def _sweep_pairs(basis, u, q, qg, even_odd):
    """(new, oracle) results of the four public sweeps on the same inputs."""
    return [(evaluate_values(basis, u, even_odd), oracle_evaluate_values(basis, u)),
            (evaluate_gradients(basis, u, even_odd), oracle_evaluate_gradients(basis, u)),
            (integrate_values(basis, q, even_odd), oracle_integrate_values(basis, q)),
            (integrate_gradients(basis, qg, even_odd),
             oracle_integrate_gradients(basis, qg))]


def _rules(p):
    return [gauss_quadrature(p + 1), gauss_quadrature(p + 2),
            gauss_quadrature(p + 3), gauss_lobatto_quadrature(p + 1)]


@pytest.mark.parametrize("p", range(1, 10))
def test_sweeps_match_first_version_and_kronecker(p):
    # the first implementation (einsum / moveaxis even-odd, a sweep triple
    # per gradient component) and the unfactored Kronecker matrices
    rng = np.random.default_rng(p)
    n1 = p + 1
    for rule in _rules(p):
        basis = lagrange_basis(p, rule)
        nq = len(rule)
        V, G = basis.shape_values, basis.shape_gradients
        val = np.kron(np.kron(V, V), V)
        grads = [np.kron(np.kron(V, V), G), np.kron(np.kron(V, G), V),
                 np.kron(np.kron(G, V), V)]
        u = rng.standard_normal((2, n1, n1, n1))
        q = rng.standard_normal((2, nq, nq, nq))
        qg = rng.standard_normal((3, 2, nq, nq, nq))
        for even_odd in (False, True):
            for got, ref in _sweep_pairs(basis, u, q, qg, even_odd):
                assert _rel(got, ref) <= 1e-13
        flat = u.reshape(2, -1)
        kron = [(evaluate_values(basis, u), flat @ val.T),
                (integrate_values(basis, q), q.reshape(2, -1) @ val),
                (integrate_gradients(basis, qg),
                 sum(qg[c].reshape(2, -1) @ grads[c] for c in range(3)))]
        kron += [(evaluate_gradients(basis, u)[c], flat @ grads[c].T) for c in range(3)]
        for got, ref in kron:
            assert _rel(got.reshape(ref.shape), ref) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 6), rule=st.integers(0, 3),
       batch=st.lists(st.integers(1, 3), max_size=2),
       comp=st.sampled_from([1, 3]), seed=st.integers(0, 2**31 - 1))
def test_sweeps_property_batches_and_components(p, rule, batch, comp, seed):
    basis = lagrange_basis(p, _rules(p)[rule])
    nq, n1 = len(basis.quadrature), p + 1
    lead = tuple(batch) + (comp,)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(lead + (n1,) * 3)
    q = rng.standard_normal(lead + (nq,) * 3)
    qg = rng.standard_normal((3,) + lead + (nq,) * 3)
    for even_odd in (False, True):
        for got, ref in _sweep_pairs(basis, u, q, qg, even_odd):
            assert got.shape == ref.shape
            assert _rel(got, ref) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), rule=st.integers(0, 4),
       lanes=st.tuples(st.integers(1, 9), st.sampled_from([1, 3])),
       values=st.booleans(), gradients=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_bound_kernels_bit_identical_to_lanes_sweeps(p, rule, lanes, values,
                                                     gradients, seed):
    # the last rule has fewer points than nodes, where the derivatives are
    # sweep triples; every kernel is run twice, as the cell loop reruns them
    basis = lagrange_basis(p, (_rules(p) + [gauss_quadrature(max(p - 1, 1))])[rule])
    nq, n1 = len(basis.quadrature), p + 1
    planes = np.full((LanesKernels.rows(values, gradients),
                      LanesKernels.plane_size(basis, lanes[0] * lanes[1])), np.nan)
    bound = LanesKernels(basis, lanes, planes, values, gradients)

    def run(name, result):
        run_calls(bound.calls(name))
        return result

    rng = np.random.default_rng(seed)
    for _ in range(2):
        u = rng.standard_normal((n1,) * 3 + lanes)
        q = rng.standard_normal((3,) + (nq,) * 3 + lanes)
        if gradients:
            bound.input[...] = u
            np.testing.assert_array_equal(run("evaluate_gradients", bound.gradients),
                                          evaluate_gradients_lanes(basis, u))
            bound.flux[...] = q
            np.testing.assert_array_equal(run("integrate_gradients",
                                              bound.integrated_gradients),
                                          integrate_gradients_lanes(basis, q))
        if values:
            bound.input[...] = u
            np.testing.assert_array_equal(run("evaluate_values", bound.values),
                                          evaluate_values_lanes(basis, u))
            bound.values[...] = q[0]
            np.testing.assert_array_equal(run("integrate_values", bound.integrated_values),
                                          integrate_values_lanes(basis, q[0]))
    with pytest.raises(ValueError, match="do not fit"):
        LanesKernels(basis, lanes, planes[:, 1:], values, gradients)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 9])
def test_identity_skip_equals_general_path(p):
    # Gauss-Lobatto collocation: shape_values is exactly the identity, so
    # skipping the value sweeps must not change a single bit
    basis = lagrange_basis(p, gauss_lobatto_quadrature(p + 1))
    assert basis.identity_values
    assert not lagrange_basis(p, gauss_quadrature(p + 1)).identity_values
    general = replace(basis, identity_values=False)
    rng = np.random.default_rng(p)
    u = rng.standard_normal((4, 1) + (p + 1,) * 3)
    qg = rng.standard_normal((3, 4, 1) + (p + 1,) * 3)
    for fn, data in ((evaluate_values, u), (evaluate_gradients, u),
                     (integrate_values, u), (integrate_gradients, qg)):
        fast = fn(basis, data)
        np.testing.assert_array_equal(fast, fn(general, data))
        assert not np.shares_memory(fast, data)


@pytest.mark.parametrize("kernel,held", [(evaluate_gradients_lanes, 4 / 3),
                                         (evaluate_values_lanes, 8 / 5)])
def test_one_shot_call_holds_only_its_products(kernel, held):
    # one 128-cell geometry batch (degree 2 at 5 Gauss points, 3 coordinates
    # per cell, 384 lanes): beside its result a call holds no more than the
    # values at the quadrature points (gradients: 4/3 of the result) or the
    # value sweeps' second product (values: 8/5), plus the bookkeeping of
    # its bound calls; a result keeps no more memory alive than its own
    basis = lagrange_basis(2, gauss_quadrature(5))
    nodes = np.random.default_rng(0).standard_normal((3, 3, 3, 3, 128))
    kernel(basis, nodes)
    tracemalloc.start()
    try:
        first = kernel(basis, nodes)
        _, peak = tracemalloc.get_traced_memory()
        second = kernel(basis, nodes)
    finally:
        tracemalloc.stop()
    assert peak <= held * first.nbytes + 4096
    assert (first if first.base is None else first.base).nbytes == first.nbytes
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


# ------------------------------------------------ rules and bases built once


@pytest.mark.parametrize("p", [1, 3, 6])
def test_rules_and_bases_are_built_once(p):
    assert gauss_quadrature(p + 2) is gauss_quadrature(p + 2)
    assert gauss_lobatto_quadrature(p + 1) is gauss_lobatto_quadrature(p + 1)
    rule = gauss_quadrature(p + 2)
    assert lagrange_basis(p, rule) is lagrange_basis(p, rule)
    # compared by value: an equal rule built elsewhere shares the basis
    copy = QuadratureRule1D(rule.points.copy(), rule.weights.copy())
    assert lagrange_basis(p, copy) is lagrange_basis(p, rule)
    assert lagrange_basis(p, gauss_quadrature(p + 3)) is not lagrange_basis(p, rule)
    assert lagrange_basis(p + 1, rule) is not lagrange_basis(p, rule)


def test_cached_arrays_are_read_only():
    rule = gauss_lobatto_quadrature(4)
    basis = lagrange_basis(3, rule)
    arrays = [rule.points, rule.weights, basis.node_points, basis.shape_values,
              basis.shape_gradients, basis.collocation,
              lagrange_basis(3, gauss_quadrature(5)).shape_values]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    before = rule.points.copy()
    with pytest.raises(ValueError, match="read-only"):
        rule.points += 1.0
    np.testing.assert_array_equal(gauss_lobatto_quadrature(4).points, before)


def test_rule_copies_its_input():
    points, weights = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    rule = QuadratureRule1D(points, weights)
    points[0] = 0.1  # the caller's array stays writable and is not shared
    assert rule.points[0] == 0.25
