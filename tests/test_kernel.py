"""The cell kernel and the sum-factorization sweep plans against the
per-call implementation they replaced (tests/_oracles.py, "plumbed"): the
same contractions, and the flux products of each row summed in the same
order, so the results must be identical up to the sign of zero, and the
contraction count per batch is pinned.  Each batch's kernel is a program
of numpy calls bound at construction (`op._programs[b]`), so the counts
are read from the programs: a function patched after construction is not
the one a program calls.

The flux is one einsum per component over the nine entries of G.  einsum
starts each sum at +0.0, where the 15-pass oracle (`flux`) starts at the
first product, so a row of three -0.0 products is +0.0 here and -0.0
there; dst is zeroed at its first touch, so every DoF's sum starts at
+0.0, which the sign of a zero term cannot change, and `apply` is
bit-identical to the oracle.

The kernel holds a batch lanes-last, (z, y, x, cells, components); the
plumbed oracle and the public sweeps hold it cells-first.  The kernel's
inputs are transposed into the batch's lanes view and its results out
(cells_first_kernel), which moves values and changes no bits.  The GEMM count per sweep must not grow
with the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfcg.operator
from _oracles import (
    SYMMETRIC_INDEX,
    build_fem,
    cells_first_kernel,
    flux,
    flux_batch_kernel,
    integrate_gradients_lanes,
    plumbed_batch_kernel,
    plumbed_evaluate_gradients,
    plumbed_evaluate_values,
    plumbed_integrate_gradients,
    plumbed_integrate_values,
)
from mfcg.bench import BENCHMARK_PROBLEMS, assemble_problem
from mfcg.mesh import GeometryVariant
from mfcg.trace import AccessRecorder
from mfcg.tensor import (
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
)

EQUATIONS = ("mass", "laplace", "mass_plus_laplace")
# Gauss at p+2 points (BP1-BP4) and Gauss-Lobatto collocation (BP5)
QUADRATURES = (("gauss", 2), ("gauss_lobatto", 1))
# the kernel's flux, flux_i = sum_j G[i, j] grad_j (pinned per batch below)
FLUX = "ij...,j...->i..."


def _batch_inputs(op, seed):
    n1 = op.spec.degree + 1
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((len(cells), op.components, n1, n1, n1))
            for cells in op.plan.batches]


@pytest.mark.parametrize("variant", list(GeometryVariant))
@pytest.mark.parametrize("p", range(1, 7))
def test_kernel_bit_identical_to_plumbed(p, variant):
    # 2x1x2 cells in batches of 3: one full batch and a one-cell batch
    affine = variant == GeometryVariant.AFFINE
    for eq in EQUATIONS:
        for quadrature, offset in QUADRATURES:
            for comp in (1, 3):
                op, _ = build_fem((2, 1, 2), p=p, comp=comp, eq=eq,
                                  nq=p + offset, quadrature=quadrature,
                                  variant=variant, deformed=0.0 if affine else 0.05,
                                  scaling=0.35)
                assert [len(c) for c in op.plan.batches] == [3, 1]
                for b, u in enumerate(_batch_inputs(op, p)):
                    got = cells_first_kernel(op, b, u)
                    want = plumbed_batch_kernel(op, b, u.copy())
                    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bp,degree", [("BP1", 2), ("BP2", 3), ("BP3", 2),
                                       ("BP4", 2), ("BP5", 3), ("BP5", 5)])
def test_benchmark_problems_bit_identical_to_plumbed(bp, degree):
    op, _, _ = assemble_problem(bp, degree, (3, 3, 3), simd_lanes=4)
    for b, u in enumerate(_batch_inputs(op, degree)):
        np.testing.assert_array_equal(cells_first_kernel(op, b, u),
                                      plumbed_batch_kernel(op, b, u.copy()))


def _rules(p):
    return [gauss_quadrature(p + 1), gauss_quadrature(p + 2),
            gauss_quadrature(p + 3), gauss_lobatto_quadrature(p + 1),
            gauss_quadrature(max(p - 1, 1))]


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), rule=st.integers(0, 4),
       batch=st.lists(st.integers(1, 9), max_size=2),
       comp=st.sampled_from([1, 3]), even_odd=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_sweeps_bit_identical_to_plumbed(p, rule, batch, comp, even_odd, seed):
    # the last rule has fewer points than nodes: a sweep triple per
    # gradient component instead of collocation derivatives.  The lanes-last
    # sweeps run without even-odd, as the cell kernel and the Jacobians do.
    basis = lagrange_basis(p, _rules(p)[rule])
    nq, n1 = len(basis.quadrature), p + 1
    lead = tuple(batch) + (comp,)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(lead + (n1,) * 3)
    q = rng.standard_normal(lead + (nq,) * 3)
    qg = rng.standard_normal((3,) + lead + (nq,) * 3)
    wants = (plumbed_evaluate_values(basis, u, even_odd),
             plumbed_evaluate_gradients(basis, u, even_odd),
             plumbed_integrate_values(basis, q, even_odd),
             plumbed_integrate_gradients(basis, qg, even_odd))
    gots = [(evaluate_values(basis, u, even_odd),
             evaluate_gradients(basis, u, even_odd),
             integrate_values(basis, q, even_odd),
             integrate_gradients(basis, qg, even_odd))]
    if not even_odd:
        gots.append((
            _cells_first(evaluate_values_lanes(basis, _lanes_last(u)), wants[0].shape),
            np.stack([_cells_first(g, wants[1].shape[1:])
                      for g in evaluate_gradients_lanes(basis, _lanes_last(u))]),
            _cells_first(integrate_values_lanes(basis, _lanes_last(q)), wants[2].shape),
            _cells_first(integrate_gradients_lanes(
                basis, np.stack([_lanes_last(c) for c in qg])), wants[3].shape)))
    for got in gots:
        for g, want in zip(got, wants):
            assert g.shape == want.shape
            np.testing.assert_array_equal(g, want)


def _lanes_last(t):
    """Cells-first (..., n, n, n) as a contiguous (n, n, n, lanes) tensor."""
    n = t.shape[-1]
    return np.ascontiguousarray(t.reshape(-1, n ** 3).T).reshape(n, n, n, -1)


def _cells_first(t, shape):
    """A lanes-last (n, n, n, lanes) tensor back in cells-first `shape`."""
    return t.reshape(t.shape[0] ** 3, -1).T.reshape(shape)


def _calls(op, b, function):
    """The (operands, out) of batch b's program calls of `function`."""
    return [(operands, out) for f, operands, out in op._programs[b][0]
            if f is function]


def _same_view(a, b):
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides)


@pytest.mark.parametrize("bp,degree,contractions", [
    ("BP1", 3, 6),   # values to and from Gauss points
    ("BP3", 3, 12),  # three value sweeps and three derivatives, both ways
    ("BP4", 2, 12),  # components ride along in the batch
    ("BP5", 3, 6),   # collocation: derivatives only
    ("BP5", 5, 6),
])
def test_contractions_per_batch(bp, degree, contractions):
    # each contraction is one np.matmul call of the batch's program
    op, _, _ = assemble_problem(bp, degree, (2, 2, 2), simd_lanes=4)
    for b in range(op.plan.n_batches):
        assert len(_calls(op, b, np.matmul)) == contractions


def _gemm_leads(op, b):
    """The GEMMs of each np.matmul call in batch b's program: one per
    leading index of a (lead, n, width) view, or one GEMM on the
    (lead, n) view of a one-lane sweep (its lead is recorded)."""
    return [view.shape[0] if view.ndim == 3 else matrix.shape[0]
            for (matrix, view), _ in _calls(op, b, np.matmul)]


@pytest.mark.parametrize("bp,degree", [("BP3", 2), ("BP5", 5)])
def test_gemms_per_sweep_do_not_grow_with_the_batch(bp, degree):
    # lanes-last, the x sweep is the one with the most GEMMs: one per
    # (z, y) point, each as wide as the batch; cells-first it was one per
    # (cell, z, y)
    problem = BENCHMARK_PROBLEMS[bp]
    nq = problem.n_quadrature(degree)
    for batch in (1, 8, 64):
        op, handler = build_fem((4, 4, 4), p=degree, comp=problem.components,
                                eq=problem.equation, nq=nq,
                                quadrature=problem.quadrature_kind, batch=batch)
        assert max(len(cells) for cells in op.plan.batches) == batch
        leads = [lead for b in range(op.plan.n_batches) for lead in _gemm_leads(op, b)]
        assert leads and max(leads) <= nq ** 2


def _signed_zeros(rng, a, share):
    """Overwrite about `share` of a's entries with +0.0 or -0.0."""
    hit = rng.random(a.shape) < share
    a[hit] = np.copysign(0.0, rng.standard_normal(int(hit.sum())))


@settings(max_examples=150, deadline=None)
@given(nq=st.integers(2, 8), lanes=st.integers(1, 300),
       comp=st.sampled_from([1, 3]), shared=st.booleans(),
       share=st.sampled_from([0.0, 0.3, 0.9]), seed=st.integers(0, 2**31 - 1))
def test_einsum_flux_matches_fifteen_pass_flux(nq, lanes, comp, shared, share, seed):
    # shared: one G for every lane, as the affine variant stores it
    rng = np.random.default_rng(seed)
    sym = rng.standard_normal((6, nq, nq, nq, 1 if shared else lanes, 1))
    grads = rng.standard_normal((3, nq, nq, nq, lanes, comp))
    _signed_zeros(rng, sym, share)
    _signed_zeros(rng, grads, share)
    want = flux(sym, grads)
    got = np.einsum(FLUX, np.take(sym, SYMMETRIC_INDEX, axis=0), grads)
    np.testing.assert_array_equal(got, want)
    nonzero = want != 0.0
    np.testing.assert_array_equal(got.view(np.uint64)[nonzero],
                                  want.view(np.uint64)[nonzero])


def _signed_zero_vectors(n, seed):
    """A random vector with a +0.0 block and a -0.0 block, all +0.0 and
    all -0.0."""
    x = np.random.default_rng(seed).standard_normal(n)
    x[: n // 3] = 0.0
    x[n // 2: n // 2 + n // 4] = -0.0
    return [x, np.zeros(n), np.full(n, -0.0)]


@pytest.mark.parametrize("variant", list(GeometryVariant))
def test_apply_bit_identical_to_fifteen_pass_flux(monkeypatch, variant):
    affine = variant == GeometryVariant.AFFINE
    for eq in EQUATIONS:
        for quadrature, offset in QUADRATURES:
            for comp in (1, 3):
                op, handler = build_fem((3, 2, 2), p=2, comp=comp, eq=eq,
                                        nq=2 + offset, quadrature=quadrature,
                                        variant=variant,
                                        deformed=0.0 if affine else 0.05,
                                        scaling=0.35)
                inputs = _signed_zero_vectors(handler.n_dofs, comp)
                gots = [op.apply(x) for x in inputs]
                calls = []

                def oracle(b, u):
                    calls.append(b)
                    return flux_batch_kernel(op, b, u)

                with monkeypatch.context() as m:
                    m.setattr(op, "_batch_kernel", oracle)
                    wants = [op.apply(x) for x in inputs]
                # the oracle ran: apply calls the patched seam
                assert calls == list(range(op.plan.n_batches)) * len(inputs)
                for got, want in zip(gots, wants):
                    np.testing.assert_array_equal(got.view(np.uint64),
                                                  want.view(np.uint64))


@pytest.mark.parametrize("comp", [1, 3])
@pytest.mark.parametrize("variant", list(GeometryVariant))
@pytest.mark.parametrize("eq", EQUATIONS)
def test_one_flux_einsum_per_batch(variant, eq, comp):
    # one einsum per component on its strided views: G broadcast over the
    # components would run through numpy's buffered iterator.  Each batch's
    # program holds them, bound to the batch's own G
    affine = variant == GeometryVariant.AFFINE
    op, _ = build_fem((2, 1, 2), p=2, comp=comp, eq=eq, variant=variant,
                      deformed=0.0 if affine else 0.05)
    einsums = comp if op.spec.needs_gradients else 0
    for b, u in enumerate(_batch_inputs(op, 0)):
        calls = _calls(op, b, np.einsum)
        assert [operands[0] for operands, _ in calls] == [FLUX] * einsums
        kernels = op._batch_views[b].kernels
        cells_first_kernel(op, b, u)
        for c, ((_, G, grads), out) in enumerate(calls):
            assert _same_view(grads, kernels.gradients[..., c])
            assert _same_view(out, kernels.flux[..., c])
            np.testing.assert_array_equal(G.reshape(3, 3, -1, G.shape[-1]),
                                          op._batch_geometry(b)[0])


@pytest.mark.parametrize("eq", EQUATIONS)
def test_patched_batch_kernel_changes_every_application(monkeypatch, eq):
    # apply, apply_with_callbacks and a traced apply each call
    # op._batch_kernel once per batch, in order: doubling what it returns
    # doubles every free entry of dst, bit for bit
    op, handler = build_fem((3, 2, 2), p=2, comp=3, eq=eq, batch=4, scaling=0.35)
    u = np.random.default_rng(3).standard_normal(handler.n_dofs)
    want = op.apply(u)
    free = np.ones(handler.n_dofs, dtype=bool)
    free[handler.constrained_dofs] = False
    want[free] *= 2.0
    kernel, calls = op._batch_kernel, []

    def doubled(b, lanes):
        calls.append(b)
        out = kernel(b, lanes)
        out *= 2.0
        return out

    def with_callbacks():
        dst = np.empty_like(u)
        op.apply_with_callbacks(u, dst, lambda lo, hi: None, lambda lo, hi: None)
        return dst

    monkeypatch.setattr(op, "_batch_kernel", doubled)
    for application in (lambda: op.apply(u), with_callbacks,
                        lambda: op.apply(u, recorder=AccessRecorder())):
        calls.clear()
        got = application()
        assert calls == list(range(op.plan.n_batches))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("variant", list(GeometryVariant))
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("bp", sorted(BENCHMARK_PROBLEMS))
def test_programs_bit_identical_to_plumbed(bp, p, variant):
    # every batch's program against the plumbed kernel, with one and three
    # components on each benchmark problem's equation and quadrature: a
    # full batch and a one-cell batch (with one component a single lane,
    # the trail-1 GEMM form), run on their own and inside a callback of an
    # application, which must still reproduce a plain one
    problem = BENCHMARK_PROBLEMS[bp]
    affine = variant == GeometryVariant.AFFINE
    for comp in (1, 3):
        op, handler = build_fem((2, 1, 2), p=p, comp=comp, eq=problem.equation,
                                nq=problem.n_quadrature(p),
                                quadrature=problem.quadrature_kind, variant=variant,
                                deformed=0.0 if affine else 0.05)
        assert [len(c) for c in op.plan.batches] == [3, 1]
        inputs = _batch_inputs(op, p)

        def check(b):
            np.testing.assert_array_equal(
                cells_first_kernel(op, b, inputs[b]),
                plumbed_batch_kernel(op, b, inputs[b].copy()))

        for b in range(op.plan.n_batches):
            check(b)
        u = np.random.default_rng(p).standard_normal(handler.n_dofs)
        want, got, nested = op.apply(u), np.empty_like(u), []

        def pre(lo, hi):
            nested.append(lo)
            check(len(nested) % op.plan.n_batches)

        op.apply_with_callbacks(u, got, pre, None)
        assert nested
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_operator_has_no_fifteen_pass_flux():
    assert not hasattr(mfcg.operator, "_flux")
