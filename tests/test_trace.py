"""The run-length access trace against the chunked recorder it replaced:
random event streams must give the same summary, the same cache replay and
the same contract check outcome."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (ChunkRecorder, build_fem, chunk_replay_cache,
                      chunk_summarize_trace, walk_replay_cache)
from mfcg import locality
from mfcg.locality import CacheModel, replay_cache, summarize_trace
from mfcg.solvers import DRIFT_CHECK_EVERY, SolverConfig, solve
from mfcg.trace import (READ, READWRITE, WRITE, AccessRecorder,
                        ContractViolation, expand_runs, runs_of)

MODES = st.sampled_from([READ, WRITE, READWRITE])
TAGS = st.sampled_from(["dot", "update", "matvec", "iteration", "drift_check"])


def record_op(draw, kind, name, n_bytes):
    """One record op of `kind` ("ranges", "dofs" or "stream") on
    the stream `name` of `n_bytes`."""
    n_ranges = -(-n_bytes // 512)
    mode = draw(MODES)
    if kind == "ranges":
        ids = draw(st.lists(st.integers(0, n_ranges - 1), max_size=12))
        if draw(st.booleans()):  # ascending runs with gaps
            ids = sorted(ids)
        return ("ranges", name, ids, mode)
    if kind == "dofs":
        lo = draw(st.integers(0, n_bytes // 8))
        hi = draw(st.integers(0, n_bytes // 8 + 70))
        return ("dofs", name, lo, hi, mode)
    return ("stream", name, mode)


def draw_ops(draw, streams, n_regions=0, max_ops=40):
    """A sequence of iteration, region and record operations on `streams`,
    after `n_regions` regions were opened."""
    names = st.sampled_from([name for name, _, _ in streams])
    sizes = {name: n_bytes for name, n_bytes, _ in streams}
    ops = []
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(
            ["iteration", "begin", "resume", "ranges", "dofs", "stream"]))
        if kind == "iteration":
            ops.append(("iteration", draw(st.integers(-1, 5))))
        elif kind == "begin":
            ops.append(("begin", draw(TAGS)))
            n_regions += 1
        elif kind == "resume":
            if n_regions:
                ops.append(("resume", draw(st.integers(0, n_regions - 1))))
        else:
            name = draw(names)
            ops.append(record_op(draw, kind, name, sizes[name]))
    return ops


@st.composite
def event_streams(draw):
    """(streams, ops): registered streams, vector ones sized in doubles and
    metadata ones in arbitrary bytes (partial tail ranges), and a sequence
    of iteration, region and record operations on them."""
    n_vec = draw(st.integers(1, 3))
    streams = [(f"v{i}", 8 * draw(st.integers(1, 300)), "vector")
               for i in range(n_vec)]
    streams += [(f"m{i}", draw(st.integers(1, 3000)), "metadata")
                for i in range(draw(st.integers(0, 2)))]
    return streams, draw_ops(draw, streams)


@st.composite
def periodic_traces(draw):
    """(streams, ops) of a solve's shape: a random prefix, maybe ending in
    a copy of the first repeated block, then one iteration block or a pair
    of blocks repeated 2-12 times, then a last block that adds a record to
    the first repeated one, then a random suffix.  Each block opens a
    region, so region ids grow while the events repeat."""
    streams, ops = draw(event_streams())
    names = st.sampled_from([name for name, _, _ in streams])
    sizes = {name: n_bytes for name, n_bytes, _ in streams}

    def record():
        name = draw(names)
        kind = draw(st.sampled_from(["ranges", "dofs", "stream"]))
        return record_op(draw, kind, name, sizes[name])

    body = [[("begin", draw(TAGS))] + [record() for _ in range(draw(st.integers(1, 6)))]
            for _ in range(draw(st.integers(1, 2)))]
    blocks = body * draw(st.integers(2, 12))
    if draw(st.booleans()):
        # a lead-in like a combined solve's first iteration, which records
        # what the first iteration of each later pair does
        blocks.insert(0, body[0])
    blocks.append(body[0] + [("stream", draw(names), draw(MODES))])
    for k, block in enumerate(blocks, start=10):
        ops += [("iteration", k)] + block
    n_regions = sum(op[0] == "begin" for op in ops)
    return streams, ops + draw_ops(draw, streams, n_regions, max_ops=10)


def replay_ops(rec, streams, ops):
    for name, n_bytes, kind in streams:
        rec.register(name, n_bytes, kind)
    for op in ops:
        if op[0] == "iteration":
            rec.begin_iteration(op[1])
        elif op[0] == "begin":
            rec.begin_region(op[1])
        elif op[0] == "resume":
            rec.resume_region(op[1])
        elif op[0] == "ranges":
            rec.record_runs(op[1], runs_of(op[2]), op[3])
        elif op[0] == "dofs":
            rec.record_dofs(*op[1:])
        else:
            rec.record_stream(*op[1:])
    return rec


def contract_outcome(rec, mark, lo, hi, n_dofs):
    try:
        rec.assert_within(mark, lo, hi, n_dofs)
    except ContractViolation as err:
        return str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(trace=event_streams(), n_iterations=st.integers(1, 4),
       n_dofs=st.integers(1, 300), data=st.data())
def test_runs_match_chunked_recorder(trace, n_iterations, n_dofs, data):
    streams, ops = trace
    rec = replay_ops(AccessRecorder(), streams, ops)
    old = replay_ops(ChunkRecorder(), streams, ops)

    assert len(rec.chunks) == len(old.chunks)
    for got, want in zip(rec.chunks, old.chunks):
        assert (got.iteration, got.region, got.tag, got.sid, got.mode) == (
            want.iteration, want.region, want.tag, want.sid, want.mode)
        np.testing.assert_array_equal(got.ranges, want.ranges)

    summary = summarize_trace(rec, n_dofs, n_iterations)
    expected = chunk_summarize_trace(old, n_dofs, n_iterations)
    assert summary == expected
    assert list(summary.tags) == list(expected.tags)

    footprint = 2 * sum(n_bytes for _, n_bytes, _ in streams)
    for capacity in (0, 64, 256 * 1024, footprint):
        model = CacheModel(capacity)
        assert (replay_cache(rec, model, n_dofs, n_iterations)
                == chunk_replay_cache(old, model, n_dofs, n_iterations))

    mark = data.draw(st.integers(0, len(old.chunks)))
    lo = data.draw(st.integers(0, 300))
    hi = data.draw(st.integers(lo, 400))
    vector_dofs = data.draw(st.sampled_from(
        [n_bytes // 8 for _, n_bytes, kind in streams if kind == "vector"]))
    assert (contract_outcome(rec, mark, lo, hi, vector_dofs)
            == contract_outcome(old, mark, lo, hi, vector_dofs))


@settings(max_examples=200, deadline=None)
@given(trace=periodic_traces(), n_iterations=st.integers(1, 30),
       n_dofs=st.integers(1, 300), data=st.data())
def test_periodic_replay_matches_walk(trace, n_iterations, n_dofs, data):
    streams, ops = trace
    rec = replay_ops(AccessRecorder(), streams, ops)
    footprint = sum(n_bytes for _, n_bytes, _ in streams)
    # a capacity below the footprint, where the state can take several
    # periods to settle
    partial = data.draw(st.integers(64, max(64, footprint)))
    for capacity in (0, 64, partial, 256 * 1024, 2 * footprint):
        model = CacheModel(capacity)
        assert (replay_cache(rec, model, n_dofs, n_iterations)
                == walk_replay_cache(rec, model, n_dofs, n_iterations))


@pytest.mark.parametrize("variant, iterations", [
    ("pcg", 24), ("combined_pcg", 24), ("sstep", 24),
    ("pipelined", DRIFT_CHECK_EVERY + 10)])
def test_solver_replay_skips_repeated_periods(variant, iterations, monkeypatch):
    # a long fixed solve repeats its events with a period of one iteration
    # block (two for combined_pcg, and sstep's blocks are outer steps): the
    # replay walks a few blocks only, pipelined's drift check among them,
    # and still equals the full walk
    op, handler = build_fem(cells=(3, 3, 2), p=2, batch=4, traversal="morton")
    b = np.random.default_rng(3).standard_normal(handler.n_dofs)
    rec = AccessRecorder()
    res = solve(variant, op, b, minv=op.compute_diagonal(), recorder=rec,
                config=SolverConfig(fixed_iterations=iterations, s=2))
    n_blocks = len(np.unique(rec.columns().iteration))
    walked = []
    walk = locality._LRU.walk
    monkeypatch.setattr(locality._LRU, "walk",
                        lambda lru, *runs: walked.append(1) or walk(lru, *runs))
    for capacity in (0, 4096, 1 << 30):
        model = CacheModel(capacity)
        walked.clear()
        assert (replay_cache(rec, model, op.n_dofs, res.iterations)
                == walk_replay_cache(rec, model, op.n_dofs, res.iterations))
        assert len(walked) <= n_blocks // 2


@pytest.mark.parametrize("n_dofs", [1, 64, 65, 10 ** 6])
def test_full_vector_sweep_is_one_run(n_dofs):
    rec = AccessRecorder()
    rec.register_dofs("x", n_dofs)
    rec.begin_region("sweep")
    rec.record_stream("x", READ)
    cols = rec.columns()
    assert len(cols.sid) == 1
    assert (cols.start.tolist(), cols.stop.tolist()) == ([0], [-(-n_dofs // 64)])


@pytest.mark.parametrize("ids", [[], [3], [0, 1, 2], [5, 6, 2, 3, 3, 4, 9],
                                 [7, 6, 5], [1, 1, 1]])
def test_runs_keep_touch_order(ids):
    starts, stops = runs_of(ids)
    assert all(stop > start for start, stop in zip(starts, stops))
    np.testing.assert_array_equal(expand_runs(starts, stops), ids)


@pytest.mark.parametrize("variant", ["pcg", "combined_pcg"])
def test_solver_trace_matches_chunked_recorder(variant):
    op, handler = build_fem(cells=(3, 3, 2), p=2, batch=4, traversal="morton")
    b = np.random.default_rng(3).standard_normal(handler.n_dofs)
    minv = op.compute_diagonal()
    cfg = SolverConfig(fixed_iterations=6)
    rec, old = AccessRecorder(), ChunkRecorder()
    res = solve(variant, op, b, minv=minv, config=cfg, recorder=rec)
    solve(variant, op, b, minv=minv, config=cfg, recorder=old)
    assert (summarize_trace(rec, op.n_dofs, res.iterations)
            == chunk_summarize_trace(old, op.n_dofs, res.iterations))
    for capacity in (64, 4096, 1 << 30):
        model = CacheModel(capacity)
        assert (replay_cache(rec, model, op.n_dofs, res.iterations)
                == chunk_replay_cache(old, model, op.n_dofs, res.iterations))
