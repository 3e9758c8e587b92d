"""The benchmark's workloads and the closed-loop round each run repeats.

A round sets the workload's problem up, solves it with all six CG variants,
then runs the analysis path for pcg and combined_pcg (an untraced and an
AccessRecorder-traced solve, summarize_trace, and an LRU replay over the
workload's capacity ladder).
Every workload runs every layer, so each reports every metric; the sizes
decide which layer dominates (see BENCHMARK.json for why each was chosen).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from checks import (LAPLACE_ENERGY, check_converged, check_energy, check_equal,
                    check_fewer_loads, check_fixed_residual, check_identical,
                    check_monotone_loads, true_residual)
from mfcg.bench import assemble_problem
from mfcg.cli import SWEEP_CAPACITIES
from mfcg.locality import CacheModel, replay_cache, summarize_trace
from mfcg.solvers import VARIANTS, SolverConfig, solve
from mfcg.trace import AccessRecorder

TOLERANCE = 1e-8
S_STEP = 4
CACHE_256K = 256 * 1024
TRACED = ("pcg", "combined_pcg")
# Iteration counts to tolerance move with the deformation amplitude, so the
# seed draws it from a narrow interval around assemble_problem's 0.05.
DEFORM_INTERVAL = (0.045, 0.055)


def _check_count(name: str, n: int | None) -> None:
    # SolverConfig(fixed_iterations=0) silently runs max_iterations, and
    # sstep rounds a count up to a multiple of s: reject both here.
    if n is not None and (n < 1 or n % S_STEP):
        raise ValueError(f"{name}: fixed iteration count {n} must be a "
                         f"positive multiple of s={S_STEP}")


@dataclass(frozen=True)
class Workload:
    name: str
    bp: str
    degree: int
    cells: int                     # per direction
    numbering: str
    fixed_iterations: int | None   # None: solve to TOLERANCE from x0 = 0
    analysis_iterations: int       # length of the traced solves
    capacities: tuple              # replay ladder, increasing, in bytes
    simd_lanes: int = 8            # batch size is a multiple of this
    energy_rtol: float | None = None      # check x.b against LAPLACE_ENERGY
    combined_fewer_at: int | None = None  # capacity where combined_pcg must
                                          # load fewer vector doubles than pcg

    def __post_init__(self):
        _check_count(self.name, self.fixed_iterations)
        _check_count(self.name, self.analysis_iterations)
        if list(self.capacities) != sorted(set(self.capacities)):
            raise ValueError(f"{self.name}: capacities must increase")

    def deformation(self, seed: int) -> float:
        return float(np.random.default_rng(seed).uniform(*DEFORM_INTERVAL))

    def setup(self, deform: float):
        """(op, b, minv) through the library's own set-up path."""
        return assemble_problem(self.bp, self.degree, (self.cells,) * 3,
                                deform=deform, numbering=self.numbering,
                                simd_lanes=self.simd_lanes)


WORKLOADS = {w.name: w for w in (
    Workload("bp5-p3-solve", "BP5", 3, 5, "default", None, 8, (CACHE_256K,),
             simd_lanes=4, energy_rtol=1e-4),
    Workload("bp3-p2-large", "BP3", 2, 10, "default", 4, 4, (CACHE_256K,)),
    Workload("bp5-p5-cachesweep", "BP5", 5, 6, "optimized", 8, 4,
             tuple(sorted(set(SWEEP_CAPACITIES) | {CACHE_256K})),
             combined_fewer_at=CACHE_256K),
)}


def _config(fixed: int | None) -> SolverConfig:
    return SolverConfig(tolerance=TOLERANCE, s=S_STEP, fixed_iterations=fixed)


def _solve_checks(op, b, res, fixed, energy_rtol=None) -> list:
    """Checks of one solve against a fresh operator application."""
    true_res = true_residual(op, b, res.x)
    if fixed is not None:
        return (check_fixed_residual(res.residual, true_res, TOLERANCE)
                + check_equal("iterations", res.iterations, fixed))
    failures = check_converged(true_res, TOLERANCE)
    if energy_rtol is not None:
        failures += check_energy(res.x, b, LAPLACE_ENERGY, energy_rtol)
    return failures


def timed(fn):
    """(seconds, fn())."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class ScaledSeconds(float):
    """Seconds scaled to the reference host speed; `raw` keeps the measured
    wall time."""

    def __new__(cls, scaled: float, raw: float):
        obj = super().__new__(cls, scaled)
        obj.raw = raw
        return obj


class HostSpeed:
    """Probes the host's speed with fixed kernels that share no code with
    the library.  Neighbours on a shared host slow a step and a probe of the
    same kind alike, so a step's seconds scaled by REFERENCE_S / (mean of
    the probes either side of it) vary far less from run to run than raw
    ones.  Two kernels:

    - numeric: 40 iterations of plain CG on a diagonal system of 30,000
      unknowns, then 12 sweeps of 6x6 tensor contractions over a batch of
      40 cells (numpy.einsum);
    - interpreted: an LRU over 6,000 keyed look-ups in an OrderedDict.

    Set-up and solves mix vector arithmetic with interpreter-bound calls on
    small arrays, and are scaled by the "mixed" probe, both kernels in turn.
    The trace summary and the cache replay are interpreter-bound, and are
    scaled by the "interpreted" probe, the LRU alone.  REFERENCE_S holds
    each probe's median on the 2-core x86-64 host the benchmark was tuned
    on."""

    REFERENCE_S = {"mixed": 0.0095, "interpreted": 0.0024}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._diagonal = 1.0 + rng.random(30_000)
        self._rhs = rng.standard_normal(30_000)
        self._matrix = rng.standard_normal((6, 6))
        self._cells = rng.standard_normal((40, 6, 6, 6))
        self._keys = [(k % 7, int(x))
                      for k, x in enumerate(rng.integers(0, 600, 6_000))]
        self._probes = {"mixed": (self._numeric, self._interpreted),
                        "interpreted": (self._interpreted,)}
        self.samples = {kind: [] for kind in self._probes}
        self._last_kind = None

    def clock(self, kind: str):
        """A clock for steps of this kind: fn -> (ScaledSeconds, fn())."""
        def timed_step(fn):
            if self._last_kind != kind:
                self._probe(kind)
            before = self.samples[kind][-1]
            seconds, out = timed(fn)
            after = self._probe(kind)
            scale = 2 * self.REFERENCE_S[kind] / (before + after)
            return ScaledSeconds(seconds * scale, seconds), out
        return timed_step

    def _probe(self, kind: str) -> float:
        t0 = time.perf_counter()
        for kernel in self._probes[kind]:
            kernel()
        seconds = time.perf_counter() - t0
        self.samples[kind].append(seconds)
        self._last_kind = kind
        return seconds

    def _numeric(self) -> None:
        d, x, r = self._diagonal, np.zeros_like(self._rhs), self._rhs.copy()
        p, rr = r.copy(), r @ r
        for _ in range(40):
            v = d * p
            alpha = rr / (p @ v)
            x += alpha * p
            r -= alpha * v
            rr, rr_old = r @ r, rr
            p = r + (rr / rr_old) * p
        S, u = self._matrix, self._cells
        for _ in range(12):
            u1 = np.einsum("qi,bijk->bqjk", S, u)
            u2 = np.einsum("qj,bijk->biqk", S, u1)
            np.einsum("qk,bijk->bijq", S, u2)

    def _interpreted(self) -> None:
        cache, occupancy = OrderedDict(), 0
        for key in self._keys:
            if key in cache:
                cache.move_to_end(key)
                continue
            cache[key] = True
            occupancy += 1
            while occupancy > 256:
                cache.popitem(last=False)
                occupancy -= 1


def closed_loop(seconds: float, round_fn, min_rounds: int = 2) -> list:
    """Call round_fn(k) back to back until `seconds` are used, stopping
    early rather than overrunning by more than half a round."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(round_fn(len(rounds)))
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - start + (now - t0) / 2 >= seconds:
            return rounds


def solve_all(w: Workload, problem, tally, k: int = 0, operator=None,
              span=lambda variant: nullcontext(), clock=timed) -> dict:
    """Solve with all six variants: {variant: (seconds, SolveResult)}.

    Round k starts at the k-th variant, so a slow spell on the host does not
    always hit the same variant.  `operator` replaces the problem's operator
    in the solves and `span(v)` wraps each solve (the traced run passes a
    timing proxy and its spans); the checks always use the real operator.
    `clock(fn)` times each solve.  Failed solves are left out.
    """
    op, b, minv = problem
    A = op if operator is None else operator
    cfg = _config(w.fixed_iterations)
    solves = {}
    order = VARIANTS[k % len(VARIANTS):] + VARIANTS[:k % len(VARIANTS)]
    for v in order:
        def run(v=v):
            with span(v):
                return clock(lambda: solve(v, A, b, minv=minv, config=cfg))
        out = tally.run(f"solve {v}", run, lambda out: _solve_checks(
            op, b, out[1], w.fixed_iterations, w.energy_rtol))
        if out is not None:
            solves[v] = out
    if w.fixed_iterations is None and {"pcg", "combined_pcg"} <= solves.keys():
        # merging the loop must not change the iteration count to tolerance
        tally.record("iterations combined_pcg", check_equal(
            "iterations against pcg", solves["combined_pcg"][1].iterations,
            solves["pcg"][1].iterations))
    return solves


def analyse(w: Workload, problem, tally, clock=timed,
            trace_clock=timed) -> dict:
    """The analysis path (the cachesweep job) for pcg and combined_pcg, at
    the workload's analysis length: an untraced solve, a recorder-traced
    solve that must match it bit for bit, summarize_trace, and an LRU replay
    at every capacity of the ladder.  The solves are timed by `clock(fn)`,
    the summary and the replays by `trace_clock(fn)`.  {variant: stats}."""
    op, b, minv = problem
    cfg = _config(w.analysis_iterations)
    traced = {}
    for v in TRACED:
        plain = tally.run(
            f"analysis solve {v}",
            lambda: clock(lambda: solve(v, op, b, minv=minv, config=cfg)),
            lambda out: _solve_checks(op, b, out[1], w.analysis_iterations))
        rec = AccessRecorder()
        out = tally.run(
            f"traced solve {v}",
            lambda: clock(lambda: solve(v, op, b, minv=minv, config=cfg,
                                        recorder=rec)),
            lambda out: (check_identical(out[1].x, plain[1].x)
                         if plain is not None else ["no untraced solve"]))
        if out is None or plain is None:
            continue
        seconds, res = out
        stats = {"overhead_s": seconds - plain[0],
                 "chunks": len(rec.chunks),
                 "events": sum(len(c.ranges) for c in rec.chunks),
                 "bytes": sum(c.ranges.nbytes for c in rec.chunks),
                 "replays": 0, "replay_s": 0.0,
                 "seconds": {"solve": plain[0], "traced_solve": seconds}}
        out = tally.run(f"summarize {v}", lambda: trace_clock(
            lambda: summarize_trace(rec, op.n_dofs, res.iterations)))
        if out is not None:
            stats["summarize_s"] = stats["seconds"]["summarize"] = out[0]
        prev = None
        for cap in w.capacities:
            def check(out, cap=cap, prev=prev):
                row = out[1]
                failures = []
                if prev is not None:
                    failures += check_monotone_loads(
                        [prev[0], cap], [prev[1].loads_per_dof, row.loads_per_dof])
                if cap == w.combined_fewer_at and v == "combined_pcg":
                    if "vector_loads" not in traced.get("pcg", {}):
                        return failures + ["no pcg replay to compare"]
                    failures += check_fewer_loads(
                        row.vector_loads_per_dof,
                        traced["pcg"]["vector_loads"], cap)
                return failures
            out = tally.run(f"replay {v} {cap}", lambda: trace_clock(
                lambda: replay_cache(rec, CacheModel(cap), op.n_dofs,
                                     res.iterations)), check)
            if out is None:
                continue
            stats["replays"] += 1
            stats["replay_s"] += out[0]
            stats["seconds"][f"replay.{cap}"] = out[0]
            if cap == w.combined_fewer_at:
                stats["vector_loads"] = out[1].vector_loads_per_dof
            prev = (cap, out[1])
        traced[v] = stats
    return traced


def run_round(w: Workload, deform: float, tally, k: int, clock=timed,
              trace_clock=timed) -> dict:
    """Untraced round k: set-up, all six solves, then the analysis path,
    timed as in analyse.  Setting up in every round spreads the set-up
    samples over the run.  Returns the set-up seconds, n_dofs, the solves
    and the seconds of every analysis operation by name."""
    setup_s, problem = clock(lambda: w.setup(deform))
    solves = solve_all(w, problem, tally, k, clock=clock)
    traced = analyse(w, problem, tally, clock, trace_clock)
    return {"setup_s": setup_s, "n_dofs": problem[0].n_dofs, "solves": solves,
            "analysis": {f"{v}.{op}": t for v, stats in traced.items()
                         for op, t in stats["seconds"].items()}}
