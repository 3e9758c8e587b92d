"""The cell loop's one lane-order index per batch against a window scatter
built from its own node-major index (tests/_oracles.py, `window_apply`) and
against a pure-Python loop: the gather, the kernel and the per-DoF
summation order (onto dst's running value, batch by batch, in lane order
within a batch) are the same, so every result must be bit-identical, with
and without callbacks, traced or not.  Also pins that the gather and the
scatter go through the same index, and the in-place application guard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import build_fem, cell_major_index, cells_first_kernel, window_apply
from mfcg.bench import BENCHMARK_PROBLEMS
from mfcg.dofs import batch_index
from mfcg.trace import AccessRecorder


def build_bp(bp_id, cells=(3, 2, 2), p=2, constrain=True, numbering="default",
             batch=4):
    problem = BENCHMARK_PROBLEMS[bp_id]
    return build_fem(cells, p=p, comp=problem.components, eq=problem.equation,
                     nq=problem.n_quadrature(p), quadrature=problem.quadrature_kind,
                     constrain=constrain, batch=batch, traversal="morton",
                     numbering=numbering)


def payload_callbacks(n, seed):
    """AC12-style callbacks: an elementwise update of src before its ranges
    are read, and a dot product plus scaling of dst after its ranges are
    final.  Returns (pre, post, state) with state = [src, dst, scalar]."""
    rng = np.random.default_rng(seed)
    av = rng.uniform(0.5, 2.0, n)
    bv = rng.uniform(-1.0, 1.0, n)
    cv = rng.uniform(0.5, 1.5, n)
    w = rng.standard_normal(n)
    state = [rng.standard_normal(n), np.full(n, np.nan), 0.0]

    def pre(lo, hi):
        src = state[0]
        src[lo:hi] = av[lo:hi] * src[lo:hi] + bv[lo:hi]

    def post(lo, hi):
        dst = state[1]
        state[2] += float(dst[lo:hi] @ w[lo:hi])
        dst[lo:hi] *= cv[lo:hi]

    return pre, post, state


def assert_matches_window(op, seed, traced=False):
    n = op.n_dofs
    u = np.random.default_rng(seed).standard_normal(n)
    want = np.full(n, np.nan)
    window_apply(op, u, want)
    rec = AccessRecorder() if traced else None
    if rec is not None:
        rec.begin_region("matvec")
    np.testing.assert_array_equal(op.apply(u, recorder=rec), want)
    pre, post, got = payload_callbacks(n, seed)
    op.apply_with_callbacks(got[0], got[1], pre, post, recorder=rec)
    pre, post, ref = payload_callbacks(n, seed)
    window_apply(op, ref[0], ref[1], pre, post)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    assert got[2] == ref[2]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("numbering", ["default", "optimized"])
@pytest.mark.parametrize("constrain", [True, False])
@pytest.mark.parametrize("bp_id", sorted(BENCHMARK_PROBLEMS))
def test_bit_identical_to_window_scatter(bp_id, constrain, numbering, traced):
    op, _ = build_bp(bp_id, constrain=constrain, numbering=numbering)
    assert op.plan.n_batches == 3
    assert_matches_window(op, seed=int(bp_id[2]), traced=traced)


@settings(max_examples=25, deadline=None)
@given(cells=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 2)),
       p=st.integers(1, 4),
       bp_id=st.sampled_from(sorted(BENCHMARK_PROBLEMS)),
       constrain=st.booleans(), batch=st.integers(1, 9),
       numbering=st.sampled_from(["default", "optimized"]))
def test_window_property(cells, p, bp_id, constrain, batch, numbering):
    op, _ = build_bp(bp_id, cells=cells, p=p, constrain=constrain, batch=batch,
                     numbering=numbering)
    assert_matches_window(op, seed=p)


def loop_apply(op, src):
    """dst = A src with the scatter as a Python loop: per batch, dst[i] += w
    over the batch's (z, y, x, cell, component) entries, in that order, then
    the constrained entries copied from src.  dst starts at +0.0, as every
    range is zeroed before its first batch adds into it."""
    handler = op.handler
    n1, comp = op.spec.degree + 1, op.components
    constrained = handler.constrained_dofs
    mask = np.zeros(op.n_dofs, dtype=bool)
    mask[constrained] = True
    dst = [0.0] * op.n_dofs
    for b, cells in enumerate(op.plan.batches):
        idx = cell_major_index(handler, cells).reshape(len(cells), n1, n1, n1, comp)
        u = np.where(mask[idx], 0.0, src[idx])
        local = cells_first_kernel(op, b, u.transpose(0, 4, 1, 2, 3))
        for i, w in zip(idx.transpose(1, 2, 3, 0, 4).ravel().tolist(),
                        local.transpose(2, 3, 4, 0, 1).ravel().tolist()):
            dst[i] += w
    dst = np.array(dst)
    dst[constrained] = src[constrained]
    return dst


@settings(max_examples=20, deadline=None)
@given(cells=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 2)),
       p=st.integers(1, 3),
       bp_id=st.sampled_from(sorted(BENCHMARK_PROBLEMS)),
       constrain=st.booleans(), batch=st.integers(1, 9),
       numbering=st.sampled_from(["default", "optimized"]))
def test_bit_identical_to_python_loop_scatter(cells, p, bp_id, constrain, batch,
                                              numbering):
    op, _ = build_bp(bp_id, cells=cells, p=p, constrain=constrain, batch=batch,
                     numbering=numbering)
    u = np.random.default_rng(p).standard_normal(op.n_dofs)
    np.testing.assert_array_equal(op.apply(u).view(np.uint64),
                                  loop_apply(op, u).view(np.uint64))


@pytest.mark.parametrize("constrain", [True, False])
@pytest.mark.parametrize("bp_id", ["BP3", "BP4"])
def test_gather_and_scatter_share_one_index(bp_id, constrain, monkeypatch):
    op, handler = build_bp(bp_id, constrain=constrain)
    free = np.ones(op.n_dofs, dtype=bool)
    free[handler.constrained_dofs] = False
    for b, cells in enumerate(op.plan.batches):
        lanes = batch_index(handler, cells)
        np.testing.assert_array_equal(op._batch_index[b], lanes)
        np.testing.assert_array_equal(op._batch_zero[b], np.flatnonzero(~free[lanes]))
    # the gather takes src through each batch's index into the lanes the
    # kernel reads, constrained lanes zeroed, and the scatter adds through
    # the same index
    u = np.random.default_rng(0).standard_normal(op.n_dofs)
    calls = {"lanes": [], "add.at": [], "bincount": 0}
    kernel, add_at, bincount = op._batch_kernel, np.add.at, np.bincount

    def recording(b, lanes):
        calls["lanes"].append(lanes.reshape(-1).copy())
        return kernel(b, lanes)

    class CountingAdd:
        def at(self, a, indices, *args):
            calls["add.at"].append(indices)
            return add_at(a, indices, *args)

    def counting_bincount(*args, **kwargs):
        calls["bincount"] += 1
        return bincount(*args, **kwargs)

    monkeypatch.setattr(op, "_batch_kernel", recording)
    monkeypatch.setattr(np, "add", CountingAdd())
    monkeypatch.setattr(np, "bincount", counting_bincount)
    op.apply(u)
    assert len(calls["lanes"]) == op.plan.n_batches
    for lanes, index, zero in zip(calls["lanes"], op._batch_index, op._batch_zero):
        want = u[index]
        want[zero] = 0.0
        np.testing.assert_array_equal(lanes, want)
    assert len(calls["add.at"]) == op.plan.n_batches
    assert all(a is i for a, i in zip(calls["add.at"], op._batch_index))
    assert calls["bincount"] == 0
    for name in ("_batch_map", "_batch_dofs", "_batch_cells"):
        assert not hasattr(op, name)


def test_in_place_application_rejected():
    # dst == src used to return a wrong product silently: first-touch
    # zeroing overwrote source entries that later batches still read
    op, handler = build_fem((3, 2, 2), p=2, batch=4, traversal="morton",
                            constrain=False)
    z = np.random.default_rng(0).standard_normal(handler.n_dofs)
    before = z.copy()
    with pytest.raises(ValueError, match="shares memory"):
        op.apply(z, out=z)
    with pytest.raises(ValueError, match="shares memory"):
        op.apply_with_callbacks(z, z[::-1], None, None)
    np.testing.assert_array_equal(z, before)
    block = np.zeros((2, handler.n_dofs))
    block[0] = z
    op.apply(block[0], out=block[1])  # rows of one array do not overlap
    np.testing.assert_array_equal(block[1], op.apply(z))


def test_integer_vectors():
    # the gather keeps src's dtype, as the window scatter did; an integer
    # dst cannot hold the result and is rejected instead of truncated
    op, handler = build_fem((2, 2, 1), p=2)
    ints = np.arange(handler.n_dofs)
    np.testing.assert_array_equal(op.apply(ints, out=np.empty(handler.n_dofs)),
                                  op.apply(ints.astype(float)))
    with pytest.raises(ValueError, match="cannot hold"):
        op.apply(ints)
