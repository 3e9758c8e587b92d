"""Transfer model, trace summaries, liveliness, and LRU cache replay."""

import numpy as np
import pytest
from _oracles import build_fem, fem_rhs

from mfcg.dofs import (batch_size, compute_range_schedule, distribute_dofs,
                       make_batches, renumber_optimized)
from mfcg.locality import (LINE_BYTES, CacheModel, liveliness,
                           predict_transfer, replay_cache, summarize_trace)
from mfcg.mesh import build_cartesian_mesh, deform_mesh
from mfcg.solvers import SolverConfig, solve
from mfcg.trace import (GRAIN_BYTES, READ, READWRITE, WRITE, AccessRecorder)


# -- analytic model -----------------------------------------------------------


class TestTransferModel:
    # (variant, vector reads, vector writes, matvec reads, matvec writes)
    TABLE = [
        ("cg", 9.0, 3.0, 2.0, 1.0),
        ("pcg", 13.0, 4.0, 2.0, 1.0),
        ("pipelined", 7.0, 6.0, 2.0, 1.0),
        ("combined_cg", 3.5, 3.5, 0.0, 0.0),
        ("combined_pcg", 3.5 + 1.0 / 3.0, 3.5, 0.0, 0.0),
        ("matvec", 0.0, 0.0, 2.0, 1.0),
    ]

    @pytest.mark.parametrize("variant,vr,vw,mr,mw", TABLE)
    def test_table_rows_exact(self, variant, vr, vw, mr, mw):
        pred = predict_transfer(variant)
        assert pred.vector_reads == vr
        assert pred.vector_writes == vw
        assert pred.matvec_reads == mr
        assert pred.matvec_writes == mw

    @pytest.mark.parametrize("s,vr,vw", [
        (1, 9.0, 3.0),
        (2, 7.0, 2.0),
        (4, 6.0, 1.5),
        (6, 5.0 + 4.0 / 6.0, 1.0 + 2.0 / 6.0),
    ])
    def test_sstep_rows_exact(self, s, vr, vw):
        pred = predict_transfer("sstep", s=s)
        assert pred.vector_reads == vr
        assert pred.vector_writes == vw
        assert (pred.matvec_reads, pred.matvec_writes) == (2.0, 1.0)

    def test_totals_include_matvec(self):
        pred = predict_transfer("cg")
        assert pred.reads_per_dof == 11.0
        assert pred.writes_per_dof == 4.0
        fused = predict_transfer("combined_pcg")
        assert fused.reads_per_dof == pytest.approx(3.5 + 1 / 3, rel=1e-15)
        assert fused.writes_per_dof == 3.5

    def test_sstep_needs_s(self):
        with pytest.raises(ValueError):
            predict_transfer("sstep")
        with pytest.raises(ValueError):
            predict_transfer("sstep", s=0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            predict_transfer("bicgstab")


# -- trace summaries ----------------------------------------------------------


def traced_solve(variant, iters, comp=1, cells=(2, 2, 2), p=3, **solver_kw):
    op, handler = build_fem(cells=cells, p=p, comp=comp)
    b = fem_rhs(handler)
    rec = AccessRecorder()
    cfg = SolverConfig(fixed_iterations=iters, **solver_kw)
    res = solve(variant, op, b, config=cfg, recorder=rec)
    assert res.iterations == iters
    return summarize_trace(rec, op.n_dofs, iters)


class TestSummarizeTrace:
    def test_cg_row_exact(self):
        summ = traced_solve("cg", 20)
        assert summ.vector_reads == pytest.approx(9.0, rel=1e-12)
        assert summ.vector_writes == pytest.approx(3.0, rel=1e-12)
        assert summ.matvec_reads == pytest.approx(2.0, rel=1e-12)
        assert summ.matvec_writes == pytest.approx(1.0, rel=1e-12)

    def test_pcg_row_exact(self):
        op, handler = build_fem()
        b = fem_rhs(handler)
        minv = op.compute_diagonal()
        rec = AccessRecorder()
        solve("pcg", op, b, minv=minv,
              config=SolverConfig(fixed_iterations=20), recorder=rec)
        summ = summarize_trace(rec, op.n_dofs, 20)
        assert summ.vector_reads == pytest.approx(13.0, rel=1e-12)
        assert summ.vector_writes == pytest.approx(4.0, rel=1e-12)

    def test_pipelined_row_exact_with_drift_check(self):
        # 60 iterations crosses the drift check at iteration 50, whose
        # traffic must stay out of the per-iteration vector-access row
        summ = traced_solve("pipelined", 60)
        assert summ.vector_reads == pytest.approx(7.0, rel=1e-12)
        assert summ.vector_writes == pytest.approx(6.0, rel=1e-12)
        assert "drift_check" in summ.tags
        assert summ.matvec_reads == pytest.approx(2.0, rel=1e-12)

    def test_combined_cg_row_exact_even_iterations(self):
        summ = traced_solve("combined_cg", 20)
        assert summ.vector_reads == pytest.approx(3.5, rel=1e-12)
        assert summ.vector_writes == pytest.approx(3.5, rel=1e-12)
        assert summ.matvec_reads == 0.0  # fused into the iteration region
        assert summ.tags["iteration"].instances == 20

    def test_combined_pcg_row_three_components(self):
        op, handler = build_fem(comp=3)
        b = fem_rhs(handler)
        minv = op.compute_diagonal()
        rec = AccessRecorder()
        solve("combined_pcg", op, b, minv=minv,
              config=SolverConfig(fixed_iterations=20), recorder=rec)
        summ = summarize_trace(rec, op.n_dofs, 20)
        assert summ.vector_reads == pytest.approx(3.5 + 1 / 3, rel=1e-9)
        assert summ.vector_writes == pytest.approx(3.5, rel=1e-12)

    def test_sstep_row_within_model_tolerance(self):
        summ = traced_solve("sstep", 100, s=4)
        pred = predict_transfer("sstep", s=4)
        assert summ.vector_reads == pytest.approx(pred.vector_reads, rel=0.02)
        assert summ.vector_writes == pytest.approx(pred.vector_writes,
                                                   rel=0.02)
        assert summ.matvec_reads == pytest.approx(2.0, rel=1e-12)
        assert summ.matvec_writes == pytest.approx(1.0, rel=1e-12)

    def test_metadata_kept_separate(self):
        summ = traced_solve("cg", 5)
        assert summ.metadata_reads > 0.0
        assert summ.metadata_writes == 0.0

    def test_iteration_window_filter(self):
        rec = AccessRecorder()
        rec.register_dofs("a", 128)
        for k in (0, 1, 2, 3):  # setup plus one iteration past the window
            rec.begin_iteration(k)
            rec.begin_region("sweep")
            rec.record_stream("a", READ)
        summ = summarize_trace(rec, 128, 2)
        assert summ.vector_reads == pytest.approx(1.0)
        assert summ.tags["sweep"].instances == 2

    def test_instance_counting_and_uniqueness(self):
        rec = AccessRecorder()
        rec.register_dofs("a", 128)
        rec.begin_iteration(1)
        rec.begin_region("dot")
        rec.record_stream("a", READ)
        rec.record_stream("a", READ)  # same instance: counted once
        rec.begin_region("dot")
        rec.record_stream("a", READ)  # new instance: counted again
        summ = summarize_trace(rec, 128, 1)
        assert summ.tags["dot"].instances == 2
        assert summ.vector_reads == pytest.approx(2.0)
        assert summ.tags["dot"].reads_per_instance == pytest.approx(1.0)


# -- liveliness ---------------------------------------------------------------


def schedule_for(cells, p, batch, traversal="morton", numbering="default",
                 comp=1):
    mesh = deform_mesh(build_cartesian_mesh(cells), 0.05)
    handler = distribute_dofs(mesh, p, components=comp,
                              constrain_boundary=True)
    plan = make_batches(mesh, batch, traversal)
    if numbering == "optimized":
        handler = renumber_optimized(handler, plan)
    return compute_range_schedule(handler, plan)


class TestLiveliness:
    def test_single_batch_mesh(self):
        report = liveliness(schedule_for((2, 2, 2), 2, batch=8))
        assert report.same_batch_fraction == 1.0
        assert report.n_batches == 1
        assert np.all(report.distances == 0)

    def test_cdf_shape(self):
        report = liveliness(schedule_for((4, 4, 4), 3, batch=4))
        assert report.cdf_fractions[-1] == pytest.approx(1.0)
        assert np.all(np.diff(report.cdf_fractions) > 0)
        assert np.all(np.diff(report.cdf_distances) > 0)
        assert report.distances.min() >= 0
        assert report.distances.max() <= report.n_batches - 1
        assert report.n_ranges == len(report.distances)

    def test_fraction_within_matches_cdf(self):
        report = liveliness(schedule_for((4, 4, 4), 3, batch=4))
        for d, f in zip(report.cdf_distances, report.cdf_fractions):
            assert report.fraction_within(d) == pytest.approx(f)
        assert report.fraction_within(-1) == 0.0
        assert report.fraction_within(report.n_batches) == pytest.approx(1.0)
        grid = np.arange(report.n_batches)
        vals = report.fraction_within(grid)
        assert vals.shape == grid.shape
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("cells,p,comp", [
        ((8, 8, 8), 3, 1),
        ((8, 8, 8), 2, 3),
        ((6, 6, 6), 4, 1),
        ((4, 4, 4), 3, 3),
    ])
    def test_optimized_numbering_dominates_default(self, cells, p, comp):
        # production pipeline: Morton traversal at the formula batch size
        bsz = batch_size(p, comp, 8)
        base = liveliness(schedule_for(cells, p, batch=bsz, comp=comp))
        opt = liveliness(schedule_for(cells, p, batch=bsz, comp=comp,
                                      numbering="optimized"))
        assert opt.same_batch_fraction > base.same_batch_fraction
        grid = np.arange(base.n_batches)
        assert np.all(opt.fraction_within(grid)
                      >= base.fraction_within(grid) - 1e-15)


# -- LRU cache replay ---------------------------------------------------------


def sweep_trace(n_dofs=128, iters=3, mode=READ):
    rec = AccessRecorder()
    rec.register_dofs("a", n_dofs)
    for k in range(1, iters + 1):
        rec.begin_iteration(k)
        rec.begin_region("sweep")
        rec.record_stream("a", mode)
    return rec


class TestCacheReplay:
    def test_infinite_cache_compulsory_reads(self):
        res = replay_cache(sweep_trace(), CacheModel(1 << 30), 128, 3)
        assert res.loads_per_dof == pytest.approx(1 / 3)  # once per solve
        assert res.stores_per_dof == 0.0

    def test_one_line_cache_no_reuse(self):
        res = replay_cache(sweep_trace(), CacheModel(64), 128, 3)
        assert res.loads_per_dof == pytest.approx(1.0)  # every access misses

    def test_write_allocate_and_flush(self):
        res = replay_cache(sweep_trace(mode=WRITE), CacheModel(1 << 30),
                           128, 3)
        assert res.loads_per_dof == pytest.approx(1 / 3)  # RFO on first touch
        assert res.stores_per_dof == pytest.approx(1 / 3)  # final flush only

    def test_write_thrashing_stores_every_eviction(self):
        res = replay_cache(sweep_trace(mode=WRITE), CacheModel(64), 128, 3)
        assert res.loads_per_dof == pytest.approx(1.0)
        assert res.stores_per_dof == pytest.approx(1.0)

    def test_readwrite_loads_once_per_miss(self):
        res = replay_cache(sweep_trace(mode=READWRITE), CacheModel(1 << 30),
                           128, 3)
        assert res.loads_per_dof == pytest.approx(1 / 3)
        assert res.stores_per_dof == pytest.approx(1 / 3)

    @pytest.mark.parametrize("n_ranges", [1, 3])
    def test_capacity_boundary(self, n_ranges):
        # n full ranges of 8 lines each, read and written in turn every
        # iteration: at exactly 8 n lines they all stay cached, each loaded
        # and stored once; one line less and the cyclic LRU misses on every
        # touch, storing each range as it is evicted
        n_dofs, iters = 64 * n_ranges, 4
        rec = sweep_trace(n_dofs, iters, mode=READWRITE)

        def line_counts(capacity_bytes):
            res = replay_cache(rec, CacheModel(capacity_bytes), n_dofs, iters)
            per_line = 8 / (n_dofs * iters)
            return res.loads_per_dof / per_line, res.stores_per_dof / per_line

        lines = 8 * n_ranges
        assert line_counts(lines * LINE_BYTES) == pytest.approx((lines, lines))
        assert (line_counts((lines - 1) * LINE_BYTES)
                == pytest.approx((lines * iters, lines * iters)))

    def test_partial_tail_rounds_to_lines(self):
        rec = AccessRecorder()
        rec.register("t", 800)  # 512 + 288 bytes -> 8 + 5 lines
        rec.begin_iteration(1)
        rec.begin_region("sweep")
        rec.record_stream("t", READ)
        res = replay_cache(rec, CacheModel(1 << 20), 100, 1)
        assert res.loads_per_dof == pytest.approx((8 + 5) * 8 / 100)

    def test_metadata_split(self):
        rec = AccessRecorder()
        rec.register_dofs("v", 128)
        rec.register("g", 8 * 64, kind="metadata")
        rec.begin_iteration(1)
        rec.begin_region("mixed")
        rec.record_stream("v", READ)
        rec.record_stream("g", READ)
        res = replay_cache(rec, CacheModel(1 << 20), 128, 1)
        assert res.vector_loads_per_dof == pytest.approx(1.0)
        assert res.metadata_loads_per_dof == pytest.approx(0.5)
        assert res.loads_per_dof == pytest.approx(1.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CacheModel(-1)

    @pytest.mark.parametrize("n_iterations", [0, -1])
    def test_refuses_fewer_than_one_iteration(self, n_iterations):
        with pytest.raises(ValueError, match="iteration"):
            replay_cache(sweep_trace(), CacheModel(64), 128, n_iterations)

    @pytest.mark.parametrize("n_dofs", [0, -1])
    def test_refuses_fewer_than_one_dof(self, n_dofs):
        with pytest.raises(ValueError, match="DoF"):
            replay_cache(sweep_trace(), CacheModel(64), n_dofs, 3)

    def fem_trace(self, numbering="default", iters=10):
        op, handler = build_fem(cells=(4, 4, 4), batch=8, traversal="morton",
                                numbering=numbering)
        b = fem_rhs(handler)
        rec = AccessRecorder()
        solve("cg", op, b, config=SolverConfig(fixed_iterations=iters),
              recorder=rec)
        return rec, op.n_dofs

    def test_loads_monotone_in_capacity(self):
        rec, n = self.fem_trace()
        capacities = [0, 512, 4096, 1 << 16, 1 << 20, 1 << 30]
        loads = [replay_cache(rec, CacheModel(c), n, 10).loads_per_dof
                 for c in capacities]
        assert all(a >= b - 1e-12 for a, b in zip(loads, loads[1:]))

    def test_infinite_cache_equals_unique_footprint(self):
        rec, n = self.fem_trace()
        res = replay_cache(rec, CacheModel(1 << 30), n, 10)
        expected = 0.0
        for stream in rec.streams.values():
            full = stream.n_ranges - 1
            tail_lines = -(-int(stream.range_doubles(full) * 8) // 64)
            expected += (full * 8 + tail_lines) * 8
        assert res.loads_per_dof == pytest.approx(expected / (n * 10))

    def test_optimized_numbering_never_increases_combined_loads(self):
        for cells, cap in (((4, 4, 4), 1 << 15), ((3, 3, 3), 1 << 14)):
            results = {}
            for numbering in ("default", "optimized"):
                op, handler = build_fem(cells=cells, batch=8,
                                        traversal="morton",
                                        numbering=numbering)
                b = fem_rhs(handler)
                rec = AccessRecorder()
                solve("combined_cg", op, b,
                      config=SolverConfig(fixed_iterations=10), recorder=rec)
                res = replay_cache(rec, CacheModel(cap), op.n_dofs, 10)
                results[numbering] = res.vector_loads_per_dof
            assert results["optimized"] <= results["default"] * (1 + 1e-12)


class TestBatchSizeFormula:
    def test_frozen_values(self):
        assert batch_size(5, 3, 8) == 16
        assert batch_size(5, 1, 8) == 32
        assert batch_size(3, 1, 8) == 128
