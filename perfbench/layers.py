"""The traced run: per-layer numbers from spans around the library's public
calls.

Spans live here, in the benchmark, not in the library.  The set-up is
composed from the same public calls assemble_problem makes, one span each
(the operator constructor's geometry and range-schedule calls are wrapped
for the duration of the constructor), and its right-hand side must be
bit-identical to assemble_problem's.  Solves get a proxy operator that
spans every application and every pre/post callback.  The tensor kernels
are timed by calling them directly on the workload's batch shapes.

MOVES names, for every per-layer metric, the end-to-end metric it should
move, so a change can state its claim before it is measured.  The metrics'
units and directions are in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

import mfcg.operator
from checks import check_equal, check_identical
from mfcg.bench import BENCHMARK_PROBLEMS, build_rhs
from mfcg.dofs import batch_size, distribute_dofs, make_batches, renumber_optimized
from mfcg.locality import predict_transfer
from mfcg.mesh import build_cartesian_mesh, deform_mesh
from mfcg.operator import MatrixFreeOperator
from mfcg.solvers import VARIANTS
from mfcg.tensor import (evaluate_gradients, evaluate_values,
                         integrate_gradients, integrate_values)
from workloads import S_STEP, analyse, closed_loop, solve_all, timed

COMBINED = ("combined_cg", "combined_pcg")
REGION_TAGS = ("init", "matvec", "dot_pv", "dot_rr", "dot_rz", "norm_r",
               "apply_prec", "update_x", "update_r", "update_p", "fused",
               "reductions", "update_p_block", "recompute_r", "iteration")
SETUP_LAYERS = ("mesh.build", "dofs.distribute", "dofs.batches",
                "dofs.renumber", "operator.init", "mesh.geometry",
                "dofs.schedule", "bench.rhs", "operator.diagonal")

# The composed set-up's code between its spans (a dictionary look-up, the
# argument tuples) takes well under this share of it.  The spans must cover
# all but this share of the spanned set-up's wall time, and sum to the
# untraced set-up within the traced-run overhead plus this share.
SPAN_GAP_RTOL = 0.01

# per-layer metric -> the end-to-end metric it should move
MOVES = {
    "bench.rhs_s": "setup_s",
    "mesh.build_s": "setup_s",
    "mesh.geometry_s": "setup_s",
    "dofs.distribute_s": "setup_s",
    "dofs.batches_s": "setup_s",
    "dofs.schedule_s": "setup_s",
    "dofs.renumber_s": "setup_s",
    "operator.init_self_s": "setup_s",
    "operator.diagonal_s": "setup_s",
    "operator.apply_s": "solve_s",
    "operator.applies": "solve_s",
    "operator.callback_s": "solve_s.combined_pcg",
    "operator.callback_calls": "solve_s.combined_pcg",
    "operator.computed_gbytes_per_s": "throughput_mdofs",
    "tensor.values_s": "solve_s",
    "tensor.gradients_s": "solve_s",
    "tensor.flops_computed": "solve_s",
    "tensor.share": "solve_s",
    **{f"solvers.iterations.{v}": f"solve_s.{v}" for v in VARIANTS},
    "solvers.self_s": "solve_s",
    **{f"solvers.region_s.{t}": "solve_s" for t in REGION_TAGS + ("other",)},
    **{f"solvers.model_gbytes_per_s.{v}": "throughput_mdofs" for v in VARIANTS},
    "trace.overhead_s": "analysis_s",
    "trace.events": "analysis_s",
    "trace.chunks": "analysis_s",
    "trace.mbytes": "peak_rss_mb",
    "locality.replay_s": "analysis_s",
    "locality.replay_ns_per_event": "analysis_s",
    "locality.summarize_s": "analysis_s",
    "spans.overhead_s": "solve_s",
    "spans.setup_overhead_s": "setup_s",
    "spans.setup_sum_s": "setup_s",
    "spans.setup_untraced_s": "setup_s",
}


class Spans:
    """In-memory spans: [name, start, end, parent index] per span."""

    def __init__(self):
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        self.records.append([name, time.perf_counter(), None,
                             self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[idx][2] = time.perf_counter()

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.records[idx]
        return end - start

    def children(self) -> list:
        """Per span: indices of its direct children."""
        kids = [[] for _ in self.records]
        for k, rec in enumerate(self.records):
            if rec[3] >= 0:
                kids[rec[3]].append(k)
        return kids

    def self_seconds(self) -> dict:
        """Per name: total span time minus the time of direct children."""
        out = {}
        for k, (name, start, end, parent) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + end - start
            if parent >= 0:
                pname = self.records[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out


@contextmanager
def _wrapped(module, attr: str, spans: Spans, name: str):
    """Put a span around every call of module.attr while the block runs."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)
    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def compose_setup(w, deform: float, spans: Spans):
    """assemble_problem's steps, one span each."""
    problem = BENCHMARK_PROBLEMS[w.bp]
    with spans.span("mesh.build"):
        mesh = deform_mesh(build_cartesian_mesh((w.cells,) * 3), deform)
    with spans.span("dofs.distribute"):
        handler = distribute_dofs(mesh, w.degree, components=problem.components,
                                  constrain_boundary=True)
    with spans.span("dofs.batches"):
        plan = make_batches(mesh, batch_size(w.degree, problem.components,
                                             w.simd_lanes),
                            "morton")
    if w.numbering == "optimized":
        with spans.span("dofs.renumber"):
            handler = renumber_optimized(handler, plan)
    with spans.span("operator.init"), \
            _wrapped(mfcg.operator, "precompute_geometry", spans, "mesh.geometry"), \
            _wrapped(mfcg.operator, "compute_range_schedule", spans, "dofs.schedule"):
        op = MatrixFreeOperator(problem.operator_spec(w.degree), mesh, handler, plan)
    with spans.span("bench.rhs"):
        b = build_rhs(op)
    with spans.span("operator.diagonal"):
        minv = op.compute_diagonal()
    return op, b, minv


class TimedOperator:
    """Stands in for the operator in solve(): forwards every call, with an
    operator.apply span around each application and an operator.callback
    span around each pre/post callback."""

    def __init__(self, op, spans: Spans):
        self._op = op
        self._spans = spans
        self.n_dofs = op.n_dofs
        self.components = op.components

    def apply(self, src, out=None, recorder=None, src_name="src",
              dst_name="dst"):
        with self._spans.span("operator.apply"):
            return self._op.apply(src, out=out, recorder=recorder,
                                  src_name=src_name, dst_name=dst_name)

    def apply_with_callbacks(self, src, dst, pre_fn=None, post_fn=None,
                             **kwargs):
        with self._spans.span("operator.apply"):
            self._op.apply_with_callbacks(src, dst, self._wrap(pre_fn),
                                          self._wrap(post_fn), **kwargs)

    def _wrap(self, fn):
        if fn is None:
            return None

        def wrapped(lo, hi):
            with self._spans.span("operator.callback"):
                fn(lo, hi)
        return wrapped


def tensor_seconds(op, repeats: int = 5):
    """(values, gradients) seconds per operator application: evaluate then
    integrate on every batch shape of the operator, median over repeats."""
    n1 = op.spec.degree + 1
    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal((len(cells), op.components, n1, n1, n1))
              for cells in op.plan.batches]
    values, gradients = [], []
    for _ in range(repeats):
        values.append(sum(timed(lambda: integrate_values(
            op.basis, evaluate_values(op.basis, u)))[0] for u in inputs))
        gradients.append(sum(timed(lambda: integrate_gradients(
            op.basis, evaluate_gradients(op.basis, u)))[0] for u in inputs))
    return statistics.median(values), statistics.median(gradients)


def sweep_flops(op) -> float:
    """Multiply-add count of the operator's sum-factorized sweeps per
    application, from the tensor shapes (plain contractions, without the
    even-odd saving).  Evaluate or integrate with values is three 1D sweeps;
    with gradients it is three such triples."""
    n1 = op.spec.degree + 1
    nq = len(op.quadrature)
    triple = 2 * nq * n1 * (n1 * n1 + n1 * nq + nq * nq)
    per_cell = 0
    if op.spec.needs_values:
        per_cell += 2 * triple
    if op.spec.needs_gradients:
        per_cell += 2 * 3 * triple
    return float(per_cell * op.handler.n_cells * op.components)


def apply_bytes(op) -> float:
    """Bytes one application moves, computed from array sizes: source read,
    destination written, geometry data and compressed cell indices read."""
    n_cells = op.handler.n_cells
    return float(16 * op.n_dofs + 8 * op.geometry.doubles_per_cell * n_cells
                 + 4 * 27 * n_cells)


def _median_dict(samples: list) -> dict:
    """Per key: the median over the rounds that measured it."""
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s[k] for s in samples if k in s) for k in keys}


def _ratio(a: float, b: float) -> float | None:
    """a / b, or None when there is nothing to divide by: the operations
    behind b failed, and were counted as failures."""
    return a / b if b else None


def _round_layers(op, spans: Spans, solves: dict, traced: dict,
                  tally) -> dict:
    """Per-layer numbers of one traced round; a number whose operations all
    failed is left out."""
    out = {}
    applies = apply_self = callback_s = callback_calls = combined_applies = 0
    solver_self = 0.0
    children = spans.children()
    for idx, (name, *_rest) in enumerate(spans.records):
        if not name.startswith("solvers.solve."):
            continue
        v = name.rsplit(".", 1)[1]
        if v not in solves:
            continue
        seconds, res = solves[v]
        kids = children[idx]
        operator_s = sum(spans.duration(k) for k in kids)
        callbacks = [c for k in kids for c in children[k]]
        cb_s = sum(spans.duration(c) for c in callbacks)
        tally.record(f"operator applies {v}",
                     check_equal("applies against matvecs", len(kids),
                                 res.matvecs))
        applies += len(kids)
        apply_self += operator_s - cb_s
        solver_self += spans.duration(idx) - operator_s
        if v in COMBINED:
            combined_applies += len(kids)
            callback_s += cb_s
            callback_calls += len(callbacks)
        out[f"solvers.iterations.{v}"] = res.iterations
        pred = predict_transfer(v, s=S_STEP if v == "sstep" else None)
        out[f"solvers.model_gbytes_per_s.{v}"] = (
            (pred.reads_per_dof + pred.writes_per_dof) * 8 * op.n_dofs
            * res.iterations / seconds / 1e9)
    regions = {t: 0.0 for t in REGION_TAGS + ("other",)}
    for _, res in solves.values():
        for tag, seconds in res.region_seconds.items():
            regions[tag if tag in regions else "other"] += seconds
    out.update({f"solvers.region_s.{t}": s for t, s in regions.items()})
    out["operator.applies"] = applies
    out["operator.apply_s"] = _ratio(apply_self, applies)
    out["operator.callback_s"] = _ratio(callback_s, combined_applies)
    out["operator.callback_calls"] = _ratio(callback_calls, combined_applies)
    if out["operator.apply_s"]:
        out["operator.computed_gbytes_per_s"] = (apply_bytes(op)
                                                 / out["operator.apply_s"] / 1e9)
    out["solvers.self_s"] = solver_self
    events = sum(t["events"] * t["replays"] for t in traced.values())
    replay_s = sum(t["replay_s"] for t in traced.values())
    out["trace.overhead_s"] = sum(t["overhead_s"] for t in traced.values())
    out["trace.events"] = sum(t["events"] for t in traced.values())
    out["trace.chunks"] = sum(t["chunks"] for t in traced.values())
    out["trace.mbytes"] = sum(t["bytes"] for t in traced.values()) / 1e6
    out["locality.replay_s"] = replay_s
    out["locality.replay_ns_per_event"] = _ratio(replay_s * 1e9, events)
    out["locality.summarize_s"] = sum(t.get("summarize_s", 0.0)
                                      for t in traced.values())
    return {k: v for k, v in out.items() if v is not None}


def _setup_layers(spans: Spans) -> dict:
    selfs = spans.self_seconds()
    out = {f"{name}_s": selfs[name] for name in SETUP_LAYERS if name in selfs}
    out["operator.init_self_s"] = out.pop("operator.init_s")
    out["spans.setup_sum_s"] = sum(
        spans.duration(k) for k, record in enumerate(spans.records)
        if record[3] < 0)
    return out


def _check_setup_spans(layers: dict, plain_setup: list,
                       spanned_setup: list) -> list:
    """Record the set-up overhead and check that the set-up spans account
    for the set-up time (see SPAN_GAP_RTOL)."""
    untraced = layers["spans.setup_untraced_s"] = statistics.median(plain_setup)
    spanned = statistics.median(spanned_setup)
    overhead = layers["spans.setup_overhead_s"] = spanned - untraced
    spans_sum = layers["spans.setup_sum_s"]
    failures = []
    if not spans_sum >= (1 - SPAN_GAP_RTOL) * spanned:
        failures.append(f"spans sum {spans_sum!r} s covers less than "
                        f"{1 - SPAN_GAP_RTOL:.0%} of the spanned set-up's "
                        f"{spanned!r} s")
    if not abs(spans_sum - untraced) <= abs(overhead) + SPAN_GAP_RTOL * untraced:
        failures.append(f"spans sum {spans_sum!r} s is further from the "
                        f"untraced set-up's {untraced!r} s than the overhead "
                        f"{overhead!r} s + {SPAN_GAP_RTOL:.0%}")
    return failures


def traced_run(w, deform: float, seconds: float, tally):
    """Per-layer metric values and run details of one traced run.

    Rounds alternate: a plain round (assemble_problem and the six solves,
    no spans) and a spanned round (composed set-up, the six solves through
    the proxy, the analysis path).  The plain rounds' set-up and solve
    times are the base of the spans' overheads, spans.setup_overhead_s and
    spans.overhead_s, each a median of the spanned rounds minus a median of
    the plain rounds.  In a default-numbered workload, renumber_optimized
    is timed after the composed set-up and its result discarded, so every
    workload reports dofs.renumber_s."""
    spans = Spans()
    plain_setup, plain_solve, spanned_setup, spanned_solve = [], [], [], []
    rounds, reference = [], []

    def round_fn(k):
        spans.records.clear()
        if k % 2 == 0:
            seconds, reference[:] = timed(lambda: w.setup(deform))
            plain_setup.append(seconds)
            solves = solve_all(w, reference, tally, k // 2)
            plain_solve.append(sum(t for t, _ in solves.values()))
            return
        seconds, problem = timed(lambda: compose_setup(w, deform, spans))
        spanned_setup.append(seconds)
        tally.record("composed setup",
                     check_identical(problem[1], reference[1])
                     + check_identical(problem[2].inverse_diagonal,
                                       reference[2].inverse_diagonal))
        layers = _setup_layers(spans)
        op = problem[0]
        if w.numbering != "optimized":
            layers["dofs.renumber_s"] = timed(
                lambda: renumber_optimized(op.handler, op.plan))[0]
        spans.records.clear()
        solves = solve_all(w, problem, tally, k // 2, TimedOperator(op, spans),
                           lambda v: spans.span(f"solvers.solve.{v}"))
        spanned_solve.append(sum(t for t, _ in solves.values()))
        traced = analyse(w, problem, tally)
        layers.update(_round_layers(op, spans, solves, traced, tally))
        rounds.append(layers)
        reference[:] = problem

    closed_loop(seconds, round_fn)
    layers = _median_dict(rounds)
    tally.record("setup spans", _check_setup_spans(layers, plain_setup,
                                                   spanned_setup))
    layers["spans.overhead_s"] = (statistics.median(spanned_solve)
                                  - statistics.median(plain_solve))
    op = reference[0]
    values_s, gradients_s = tensor_seconds(op)
    kernel_s = ((values_s if op.spec.needs_values else 0.0)
                + (gradients_s if op.spec.needs_gradients else 0.0))
    layers["tensor.values_s"] = values_s
    layers["tensor.gradients_s"] = gradients_s
    layers["tensor.flops_computed"] = sweep_flops(op)
    if "operator.apply_s" in layers:
        layers["tensor.share"] = kernel_s / layers["operator.apply_s"]
    details = {"rounds": len(plain_solve) + len(rounds), "moves": MOVES}
    return layers, details
