"""Matrix-free operator tests: assembly-oracle equivalence, callback
contract, diagonal preconditioner, and trace accounting of one application.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcg.bench import assemble_problem
from mfcg.dofs import RANGE_SIZE, distribute_dofs, expand_batch, make_batches
from mfcg.mesh import GeometryVariant, build_cartesian_mesh, deform_mesh
from mfcg.operator import MatrixFreeOperator, OperatorSpec
from mfcg.trace import READ, READWRITE, WRITE, AccessRecorder, ContractViolation

from _oracles import assemble_dense, build_fem, plumbed_callback_spans, trace_records

VARIANTS = [GeometryVariant.QUADRATIC_COMPUTE, GeometryVariant.ISOPARAMETRIC_COMPUTE,
            GeometryVariant.INVERSE_JACOBIAN_LOAD, GeometryVariant.FINAL_TENSOR_LOAD]


def build_op(cells=(2, 2, 2), p=2, comp=1, eq="laplace", nq=None, deformed=0.05,
             variant=GeometryVariant.FINAL_TENSOR_LOAD, quadrature="gauss",
             constrain=None, batch=3, traversal="lexicographic", scaling=1.0):
    mesh = build_cartesian_mesh(cells)
    if deformed:
        mesh = deform_mesh(mesh, deformed)
    if constrain is None:
        constrain = eq != "mass"
    handler = distribute_dofs(mesh, p, components=comp, constrain_boundary=constrain)
    plan = make_batches(mesh, batch, traversal)
    spec = OperatorSpec(eq, comp, p, nq if nq else p + 2, variant,
                        quadrature_kind=quadrature, scaling=scaling)
    return MatrixFreeOperator(spec, mesh, handler, plan), handler


class TestSpecValidation:
    def test_rejects_bad_inputs(self):
        good = dict(equation="mass", components=1, degree=2, n_q_1d=4,
                    geometry=GeometryVariant.AFFINE)
        OperatorSpec(**good)
        with pytest.raises(ValueError):
            OperatorSpec(**{**good, "equation": "helmholtz"})
        with pytest.raises(ValueError):
            OperatorSpec(**{**good, "components": 2})
        with pytest.raises(ValueError):
            OperatorSpec(**{**good, "n_q_1d": 2})
        with pytest.raises(ValueError):
            OperatorSpec(**{**good, "quadrature_kind": "gauss_lobatto"})
        OperatorSpec(**{**good, "n_q_1d": 3, "quadrature_kind": "gauss_lobatto"})

    def test_handler_mismatch(self):
        mesh = build_cartesian_mesh((2, 1, 1))
        handler = distribute_dofs(mesh, 2)
        plan = make_batches(mesh, 2)
        spec = OperatorSpec("mass", 3, 2, 4, GeometryVariant.AFFINE)
        with pytest.raises(ValueError, match="component"):
            MatrixFreeOperator(spec, mesh, handler, plan)

    def test_vector_length(self):
        op, handler = build_op()
        with pytest.raises(ValueError, match="length"):
            op.apply(np.zeros(handler.n_dofs + 1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("eq", ["mass", "laplace", "mass_plus_laplace"])
    @pytest.mark.parametrize("comp", [1, 3])
    def test_apply_matches_sparse(self, eq, comp):
        op, handler = build_op(comp=comp, eq=eq, scaling=0.35)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(handler.n_dofs)
        v = op.apply(u)
        ref = op.assemble_sparse() @ u
        np.testing.assert_allclose(v, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_degrees(self, p):
        op, handler = build_op(cells=(2, 2, 1), p=p)
        u = np.random.default_rng(p).standard_normal(handler.n_dofs)
        ref = op.assemble_sparse() @ u
        np.testing.assert_allclose(op.apply(u), ref, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_match_each_other(self, variant):
        ref_op, handler = build_op(p=3, variant=GeometryVariant.INVERSE_JACOBIAN_LOAD)
        op, _ = build_op(p=3, variant=variant)
        u = np.random.default_rng(3).standard_normal(handler.n_dofs)
        a, b = op.apply(u), ref_op.apply(u)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13 * np.abs(b).max())

    def test_affine_matches_on_undeformed(self):
        opa, handler = build_op(deformed=0.0, variant=GeometryVariant.AFFINE)
        opf, _ = build_op(deformed=0.0, variant=GeometryVariant.FINAL_TENSOR_LOAD)
        u = np.random.default_rng(4).standard_normal(handler.n_dofs)
        np.testing.assert_allclose(opa.apply(u), opf.apply(u), rtol=1e-12,
                                   atol=1e-14)

    def test_affine_rejects_deformed(self):
        with pytest.raises(ValueError, match="undeformed"):
            build_op(variant=GeometryVariant.AFFINE, deformed=0.05)

    def test_dense_probe_matches_sparse(self):
        op, _ = build_op(cells=(1, 1, 1), p=2, eq="mass_plus_laplace", scaling=2.0)
        dense = assemble_dense(op)
        sparse = op.assemble_sparse().toarray()
        np.testing.assert_allclose(dense, sparse, rtol=1e-12, atol=1e-13)

    def test_dense_guard(self):
        op, _ = build_op(cells=(4, 4, 4), p=5, comp=3)
        with pytest.raises(ValueError, match="guard"):
            assemble_dense(op)

    @pytest.mark.parametrize("quadrature", ["gauss", "gauss_lobatto"])
    @pytest.mark.parametrize("variant", list(GeometryVariant))
    @pytest.mark.parametrize("p", [3, 5])
    def test_every_variant_matches_sparse(self, p, variant, quadrature):
        affine = variant == GeometryVariant.AFFINE
        op, handler = build_op(cells=(2, 2, 1), p=p, eq="mass_plus_laplace",
                               variant=variant,
                               deformed=0.0 if affine else 0.05, scaling=0.6,
                               quadrature=quadrature,
                               nq=p + 1 if quadrature == "gauss_lobatto" else None)
        u = np.random.default_rng(p).standard_normal(handler.n_dofs)
        ref = op.assemble_sparse() @ u
        np.testing.assert_allclose(op.apply(u), ref, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref).max())

    def test_collocation_matches_sparse(self):
        op, handler = build_op(p=3, nq=4, quadrature="gauss_lobatto")
        u = np.random.default_rng(5).standard_normal(handler.n_dofs)
        ref = op.assemble_sparse() @ u
        np.testing.assert_allclose(op.apply(u), ref, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref).max())


class TestOperatorProperties:
    @pytest.mark.parametrize("comp,constrain", [(1, True), (3, True), (1, False)])
    def test_one_lane_order_index_per_batch(self, comp, constrain):
        # the gather takes src and the scatter adds into dst through one
        # flat index per batch in lane order, (z, y, x, cell, component);
        # the gather then zeroes the constrained lanes
        op, handler = build_op(cells=(3, 2, 2), comp=comp, constrain=constrain,
                               batch=4)
        n1 = op.spec.degree + 1
        free = np.ones(handler.n_dofs, dtype=bool)
        free[handler.constrained_dofs] = False
        assert len(op._batch_index) == op.plan.n_batches
        for b, cells in enumerate(op.plan.batches):
            index = op._batch_index[b]
            assert index.shape == (n1 ** 3 * len(cells) * comp,)
            assert index.dtype == np.intp and index.flags.c_contiguous
            lanes = index.reshape(n1, n1, n1, len(cells), comp)
            np.testing.assert_array_equal(lanes - lanes[..., :1], np.broadcast_to(
                np.arange(comp), lanes.shape))
            for c, cell in enumerate(cells):
                np.testing.assert_array_equal(
                    np.sort(lanes[:, :, :, c].ravel()),
                    np.sort(expand_batch(handler, [cell]).ravel()))
            np.testing.assert_array_equal(op._batch_zero[b],
                                          np.flatnonzero(~free[index]))
            assert free[index].all() != constrain

    def test_laplace_annihilates_constants(self):
        op, handler = build_op(eq="laplace", constrain=False)
        v = op.apply(np.ones(handler.n_dofs))
        assert np.max(np.abs(v)) < 1e-12

    def test_constrained_rows_are_identity(self):
        op, handler = build_op(eq="laplace", constrain=True)
        u = np.random.default_rng(0).standard_normal(handler.n_dofs)
        v = op.apply(u)
        np.testing.assert_array_equal(v[handler.constrained_dofs],
                                      u[handler.constrained_dofs])

    def test_mass_row_sums_give_volume(self):
        op, handler = build_op(cells=(1, 1, 1), p=2, eq="mass", deformed=0.0,
                               variant=GeometryVariant.AFFINE, constrain=False)
        v = op.apply(np.ones(handler.n_dofs))
        np.testing.assert_allclose(v.sum(), 1.0, rtol=1e-13)

    def test_mass_p1_entries_nonnegative(self):
        op, _ = build_op(cells=(2, 1, 1), p=1, eq="mass", deformed=0.0,
                         variant=GeometryVariant.AFFINE, constrain=False)
        A = op.assemble_sparse()
        assert A.toarray().min() >= 0.0

    def test_symmetry(self):
        op, handler = build_op(p=3, comp=3, eq="mass_plus_laplace", scaling=0.5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(handler.n_dofs)
            w = rng.standard_normal(handler.n_dofs)
            lhs = u @ op.apply(w)
            rhs = w @ op.apply(u)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(w)

    def test_assembled_symmetric(self):
        op, _ = build_op(p=2, eq="laplace")
        A = op.assemble_sparse()
        assert abs(A - A.T).max() <= 1e-13

    def test_definiteness(self):
        rng = np.random.default_rng(13)
        lap, handler = build_op(eq="laplace", constrain=False)
        mass, _ = build_op(eq="mass", constrain=False)
        for _ in range(5):
            u = rng.standard_normal(handler.n_dofs)
            assert u @ lap.apply(u) >= -1e-12 * (u @ u)
            assert u @ mass.apply(u) > 0.0

    def test_p1_laplace_stencil(self):
        # undeformed unit-extent cells of size h=1/2: the classic trilinear
        # FEM diagonal entry is 8 * h/4 * (something) — compute via hand
        # quadrature on one reference cell instead of trusting a constant
        op, handler = build_op(cells=(2, 1, 1), p=1, eq="laplace", deformed=0.0,
                               variant=GeometryVariant.AFFINE, constrain=False)
        A = op.assemble_sparse().toarray()
        # hand assembly: grad phi products integrated on [0,1/2]x[0,1]x[0,1]
        hx, hy, hz = 0.5, 1.0, 1.0
        from itertools import product
        import numpy.polynomial.legendre as L
        xg, wg = np.polynomial.legendre.leggauss(2)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg
        def shape(i, t):  # linear on [0,1]
            return 1.0 - t if i == 0 else t
        def dshape(i, t):
            return -1.0 if i == 0 else 1.0
        diag = 0.0
        for qx, qy, qz in product(range(2), repeat=3):
            wq = wg[qx] * wg[qy] * wg[qz] * hx * hy * hz
            gx = dshape(0, xg[qx]) / hx * shape(0, xg[qy]) * shape(0, xg[qz])
            gy = shape(0, xg[qx]) * dshape(0, xg[qy]) / hy * shape(0, xg[qz])
            gz = shape(0, xg[qx]) * shape(0, xg[qy]) * dshape(0, xg[qz]) / hz
            diag += wq * (gx * gx + gy * gy + gz * gz)
        corner = 0  # dof at (0,0,0) belongs to one cell only
        np.testing.assert_allclose(A[corner, corner], diag, rtol=1e-12)


class TestDiagonal:
    def test_matches_collocation_assembly(self):
        # assemble the scalar operator with the same GL(p+1) rule and compare
        op, _ = build_op(p=3, nq=4, quadrature="gauss_lobatto", comp=1)
        diag = op.compute_diagonal()
        A = op.assemble_sparse()
        np.testing.assert_allclose(1.0 / diag.inverse_diagonal, A.diagonal(),
                                   rtol=1e-12)

    def test_mass_diagonal(self):
        op, _ = build_op(p=2, nq=3, eq="mass", quadrature="gauss_lobatto",
                         constrain=True)
        diag = op.compute_diagonal()
        A = op.assemble_sparse()
        np.testing.assert_allclose(1.0 / diag.inverse_diagonal, A.diagonal(),
                                   rtol=1e-12)

    def test_constrained_entries_one(self):
        op, handler = build_op(p=2, comp=3, constrain=True)
        diag = op.compute_diagonal()
        nodes = np.unique(handler.constrained_dofs // 3)
        np.testing.assert_array_equal(diag.inverse_diagonal[nodes], 1.0)

    def test_positive(self):
        op, _ = build_op(p=4, eq="mass_plus_laplace", scaling=3.0)
        diag = op.compute_diagonal()
        assert np.all(diag.inverse_diagonal > 0.0)
        assert np.all(np.isfinite(diag.inverse_diagonal))

    def test_zero_entry_is_refused(self, monkeypatch):
        # a cell-interior node belongs to one cell only: zeroing its local
        # entry makes the assembled diagonal exactly 0.0 there, which has
        # no finite inverse
        op, _ = build_op(p=2)
        local = op._local_diagonal

        def with_a_zero(basis, G, jxw):
            diag = local(basis, G, jxw)
            diag[1, 1, 1, 0] = 0.0
            return diag

        monkeypatch.setattr(op, "_local_diagonal", with_a_zero)
        with pytest.raises(ValueError, match="not positive definite"):
            op.compute_diagonal()


class TestCallbacks:
    def test_noop_equals_apply(self):
        op, handler = build_op(p=3, comp=3)
        u = np.random.default_rng(2).standard_normal(handler.n_dofs)
        dst = np.empty_like(u)
        op.apply_with_callbacks(u, dst, None, None)
        np.testing.assert_array_equal(dst, op.apply(u))

    def test_linearity_roundtrip(self):
        op, handler = build_op(p=2)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(handler.n_dofs)
        src = u.copy()
        dst = np.empty_like(u)
        op.apply_with_callbacks(src, dst,
                                lambda lo, hi: src.__setitem__(slice(lo, hi), 2 * src[lo:hi]),
                                lambda lo, hi: dst.__setitem__(slice(lo, hi), 0.5 * dst[lo:hi]))
        np.testing.assert_allclose(dst, op.apply(u), rtol=1e-13, atol=1e-15)

    def test_post_reduction_matches_separate_pass(self):
        op, handler = build_op(p=2, comp=3)
        u = np.random.default_rng(9).standard_normal(handler.n_dofs)
        dst = np.empty_like(u)
        acc = [0.0]
        op.apply_with_callbacks(u, dst, None,
                                lambda lo, hi: acc.__setitem__(0, acc[0] + dst[lo:hi] @ dst[lo:hi]))
        ref = op.apply(u)
        assert abs(acc[0] - ref @ ref) <= 1e-13 * abs(ref @ ref)

    @pytest.mark.parametrize("traced", [False, True])
    def test_randomized_payload_sequential_equivalence(self, traced):
        # traced, every callback span is checked against the events the
        # payload records, which must leave the results unchanged
        op, handler = build_op(cells=(3, 2, 2), p=2, batch=4, traversal="morton")
        n = handler.n_dofs
        rng = np.random.default_rng(17)
        for trial in range(10):
            u0 = rng.standard_normal(n)
            w = rng.standard_normal(n)
            av = rng.uniform(0.5, 2.0, n)
            bv = rng.uniform(-1, 1, n)
            cv = rng.uniform(0.5, 1.5, n)

            def run(fused):
                src = u0.copy()
                dst = np.empty(n)
                scal = [0.0]
                rec = AccessRecorder() if traced and fused else None
                if rec is not None:
                    rec.register_dofs("u", n)
                    rec.begin_region("iteration")

                def pre(lo, hi):
                    src[lo:hi] = av[lo:hi] * src[lo:hi] + bv[lo:hi]
                    if rec is not None:
                        rec.record_dofs("u", lo, hi, READWRITE)

                def post(lo, hi):
                    scal[0] += float(dst[lo:hi] @ w[lo:hi])
                    dst[lo:hi] *= cv[lo:hi]
                    if rec is not None:
                        rec.record_dofs("u", lo, hi, READ)

                if fused:
                    op.apply_with_callbacks(src, dst, pre, post, recorder=rec)
                else:
                    for lo in range(0, n, RANGE_SIZE):
                        pre(lo, min(lo + RANGE_SIZE, n))
                    op.apply(src, out=dst)
                    for lo in range(0, n, RANGE_SIZE):
                        post(lo, min(lo + RANGE_SIZE, n))
                return src, dst, scal[0]

            s1, d1, a1 = run(True)
            s2, d2, a2 = run(False)
            # elementwise payloads: vector state is bit-identical to the
            # three-phase run; only the scalar sum reassociates
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(d1, d2)
            assert abs(a1 - a2) <= 1e-13 * max(abs(a2), 1.0)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("constrain", [False, True])
    def test_callback_spans_built_once(self, traced, constrain):
        # the spans handed to the callbacks, recorded during an apply,
        # equal the per-call merge of the schedule's ranges, with or without
        # a recorder checking them
        op, handler = build_op(cells=(3, 3, 2), p=2, comp=3, batch=4,
                               traversal="morton", constrain=constrain)
        schedule = op.schedule
        seen = {"pre": [], "post": []}
        rec = AccessRecorder() if traced else None
        if rec is not None:
            rec.begin_region("iteration")
        op.apply_with_callbacks(np.zeros(handler.n_dofs), np.empty(handler.n_dofs),
                                lambda lo, hi: seen["pre"].append((lo, hi)),
                                lambda lo, hi: seen["post"].append((lo, hi)),
                                recorder=rec)
        for kind, ranges in (("pre", schedule.pre_schedule),
                             ("post", schedule.post_schedule)):
            want = [span for r in ranges
                    for span in plumbed_callback_spans(op, r)]
            assert seen[kind] == want

    def test_checked_mode_catches_out_of_range(self):
        # unconstrained: constrained ranges are scheduled wide (pre at batch
        # 0) and would legitimately cover the whole vector here
        op, handler = build_op(cells=(2, 2, 1), p=2, batch=2, constrain=False)
        rec = AccessRecorder()
        rec.register_dofs("r", handler.n_dofs)
        src = np.random.default_rng(1).standard_normal(handler.n_dofs)
        dst = np.empty_like(src)

        def rogue(lo, hi):
            rec.record_dofs("r", 0, handler.n_dofs, READ)  # whole vector

        rec.begin_region("iteration")
        with pytest.raises(ContractViolation):
            op.apply_with_callbacks(src, dst, rogue, None, recorder=rec)

    def test_checked_mode_accepts_in_range(self):
        op, handler = build_op(cells=(2, 2, 1), p=2, batch=2, constrain=False)
        rec = AccessRecorder()
        rec.register_dofs("r", handler.n_dofs)
        src = np.random.default_rng(1).standard_normal(handler.n_dofs)
        dst = np.empty_like(src)
        rec.begin_region("iteration")
        op.apply_with_callbacks(src, dst,
                                lambda lo, hi: rec.record_dofs("r", lo, hi, READ),
                                None, recorder=rec)


class TestTraceAccounting:
    def test_matvec_reads_two_writes_one(self):
        # unconstrained problem: one application must touch exactly 2 reads
        # and 1 write per DoF of vector streams under unique-range accounting
        op, handler = build_op(cells=(3, 3, 3), p=2, eq="mass", constrain=False,
                               batch=4)
        rec = AccessRecorder()
        rec.begin_iteration(0)
        rec.begin_region("matvec")
        u = np.random.default_rng(0).standard_normal(handler.n_dofs)
        op.apply(u, recorder=rec, src_name="p", dst_name="v")
        reads = {}
        writes = {}
        for sid, mode, ranges in trace_records(rec):
            stream = [s for s in rec.streams.values() if s.sid == sid][0]
            if stream.kind != "vector":
                continue
            for r in ranges:
                if mode & READ:
                    reads[(sid, int(r))] = stream.range_doubles(int(r))
                if mode & WRITE:
                    writes[(sid, int(r))] = stream.range_doubles(int(r))
        n = handler.n_dofs
        assert sum(reads.values()) / n == pytest.approx(2.0, abs=1e-12)
        assert sum(writes.values()) / n == pytest.approx(1.0, abs=1e-12)

    def test_geometry_traced_as_metadata(self):
        op, handler = build_op(cells=(2, 2, 2), p=2)
        rec = AccessRecorder()
        rec.begin_region("matvec")
        op.apply(np.ones(handler.n_dofs), recorder=rec)
        assert rec.streams["geometry"].kind == "metadata"
        assert rec.streams["cell_indices"].kind == "metadata"
        geo_events = [r for r in trace_records(rec) if r[0] == rec.streams["geometry"].sid]
        assert geo_events


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 3), comp=st.sampled_from([1, 3]),
       eq=st.sampled_from(["mass", "laplace"]),
       variant=st.sampled_from(VARIANTS), batch=st.integers(1, 8))
def test_oracle_property(p, comp, eq, variant, batch):
    op, handler = build_op(cells=(2, 2, 1), p=p, comp=comp, eq=eq,
                           variant=variant, batch=batch)
    u = np.random.default_rng(42).standard_normal(handler.n_dofs)
    ref = op.assemble_sparse() @ u
    np.testing.assert_allclose(op.apply(u), ref, rtol=1e-12,
                               atol=1e-13 * max(np.abs(ref).max(), 1e-30))


class TestWorkspace:
    """The cell loop runs every batch through one workspace allocated with
    the operator: the gathered lanes, the sweeps' planes, the gradients and
    the flux are views into it, and the scatter adds into dst through the
    gather's index, so an application allocates only numpy's small per-call
    bookkeeping."""

    # numpy's per-call bookkeeping (np.add.at, the iterators, the views),
    # about 5.5 KiB here, with room to spare
    SMALL = 16 * 1024

    @pytest.mark.parametrize("bp", ["BP1", "BP2", "BP3", "BP4", "BP5"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_apply_allocates_only_bookkeeping(self, bp, p):
        op, _, _ = assemble_problem(bp, p, (4, 4, 4))
        u = np.random.default_rng(p).standard_normal(op.n_dofs)
        v = np.empty_like(u)
        op.apply(u, out=v)
        tracemalloc.start()
        try:
            op.apply(u, out=v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.SMALL

    @pytest.mark.parametrize("eq", ["mass", "laplace", "mass_plus_laplace"])
    def test_alternating_applies_reproduce_their_first_results(self, eq):
        op, handler = build_op(cells=(3, 2, 2), comp=3, eq=eq, batch=4,
                               scaling=0.35)
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal(handler.n_dofs) for _ in range(2)]
        first = [op.apply(x) for x in inputs]
        for _ in range(3):
            for x, want in zip(inputs, first):
                np.testing.assert_array_equal(op.apply(x).view(np.uint64),
                                              want.view(np.uint64))

    @pytest.mark.parametrize("eq", ["mass", "laplace", "mass_plus_laplace"])
    def test_nested_apply_in_callbacks_leaves_the_result_unchanged(self, eq):
        # a callback that applies the operator runs the whole cell loop
        # through the shared workspace between two batches of the outer one
        op, handler = build_fem((3, 3, 3), p=3, eq=eq, batch=3, scaling=0.35,
                                numbering="optimized", traversal="morton")
        rng = np.random.default_rng(8)
        u, w = (rng.standard_normal(handler.n_dofs) for _ in range(2))
        want, inner_want = op.apply(u), op.apply(w)
        inner = []

        def nested(lo, hi):
            inner.append(op.apply(w))

        got = np.empty_like(u)
        op.apply_with_callbacks(u, got, nested, nested)
        assert len(inner) > op.plan.n_batches // 2 > 2
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for x in inner:
            np.testing.assert_array_equal(x.view(np.uint64),
                                          inner_want.view(np.uint64))
