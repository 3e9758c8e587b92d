"""Conjugate-gradient variants with instrumented vector-access regions.

`solve(variant, A, b, ...)` is the one entry.  Six CG formulations share one
outward contract (solve Ax = b to a relative residual tolerance, x0 = 0) and
run on four recurrences: the textbook method (`_standard`: cg, or pcg with a
Jacobi preconditioner), a pipelined variant with a single reduction sweep per
iteration (`_pipelined`), an s-step variant with one reduction cluster per s
iterations (`_sstep`), and the "merged" method that interleaves every vector
update and reduction with the operator's cell loop through
`apply_with_callbacks` (`_combined`: combined_cg, or combined_pcg with
Jacobi).

Every full-vector operation is wrapped in a named region; with a recorder
attached, the regions reproduce the analytic memory-transfer model's counting
unit (unique stream touches per region instance).  Region wall times are
accumulated per tag on the result.  One `_Run` per solve holds what the
recurrences share: input checks, stream registration, regions, the history,
the scalar guard and the result.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import trace
from .operator import DiagonalPreconditioner

__all__ = ["SolverBreakdown", "SolverConfig", "SolveResult", "fused_reductions",
           "solve", "VARIANTS"]

DRIFT_CHECK_EVERY = 50               # pipelined true-residual check interval
# solve() rescales a b whose largest entry is below this: its squares, and so
# ||b|| and the recurrence scalars, would reach the subnormal range
TINY_RHS = 2.0 ** -400

_RZ = "preconditioner product r^T M^-1 r"


class SolverBreakdown(RuntimeError):
    """The Krylov recurrence lost positive definiteness or independence."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8          # on ||r|| / ||b||, unpreconditioned
    max_iterations: int = 500
    s: int = 4                       # block size for the s-step variant
    fixed_iterations: int = None     # run exactly this many, no early exit

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.s < 1:
            raise ValueError("s must be at least 1")
        if self.s > 8:
            raise ValueError("s > 8 is not supported: the monomial basis loses "
                             "linear independence in double precision")
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise ValueError("fixed_iterations must be at least 1")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float                  # final relative residual ||r||/||b||
    converged: bool
    variant: str
    history: list = field(default_factory=list)
    region_seconds: dict = field(default_factory=dict)
    matvecs: int = 0
    drift: tuple = ()                # pipelined: (iteration, |true-recurred|)


def fused_reductions(r, v, p, minv, lo, hi) -> tuple:
    """Partial sums of the seven merged-PCG reductions over [lo, hi):
    (r.r, p.v, r.v, v.v, r.Mr, r.Mv, v.Mv), as a tuple.  `minv` is the
    replicated inverse-diagonal array, or None for the identity (then the
    last three duplicate the first/third/fourth)."""
    rr = r[lo:hi]
    vv = v[lo:hi]
    pp = p[lo:hi]
    # ndarray.dot runs the same BLAS ddot as @, with less dispatch
    rr_rr, rr_vv, vv_vv = rr.dot(rr), rr.dot(vv), vv.dot(vv)
    if minv is None:
        return rr_rr, pp.dot(vv), rr_vv, vv_vv, rr_rr, rr_vv, vv_vv
    m = minv[lo:hi]
    mr = m * rr
    mv = m * vv
    return rr_rr, pp.dot(vv), rr_vv, vv_vv, rr.dot(mr), rr.dot(mv), vv.dot(mv)


# -- shared plumbing ----------------------------------------------------------


def _norm(b):
    # the sum np.linalg.norm forms for a float vector, without its dispatch
    return math.sqrt(b.dot(b))


def _inverse_diagonal(minv) -> np.ndarray:
    """The per-node inverse diagonal of a `DiagonalPreconditioner` or array."""
    if isinstance(minv, DiagonalPreconditioner):
        return minv.inverse_diagonal
    return np.asarray(minv, dtype=float)


class _Run:
    """The plumbing one solve shares with every recurrence: input checks,
    stream registration, timed and traced regions, the matvec count, the
    history, the scalar guard and the result.  A preconditioned variant's
    `minv` is checked (present, of matching length, finite) and replicated
    to full vector length; any other variant ignores it."""

    def __init__(self, variant, A, b, config=None, recorder=None, minv=None,
                 preconditioned=False):
        cfg = config or SolverConfig()
        self.variant = variant
        self.A = A
        self.rec = recorder
        self.n = n = A.n_dofs
        if len(b) != n:
            raise ValueError("right-hand side length does not match operator")
        self.components = getattr(A, "components", 1)
        self.minv = None             # replicated to full vector length
        if preconditioned:
            if minv is None:
                raise ValueError(f"{variant} requires a preconditioner")
            scalar = _inverse_diagonal(minv)
            if len(scalar) * self.components != n:
                raise ValueError("preconditioner length does not match operator")
            if not np.all(np.isfinite(scalar)):
                raise ValueError("preconditioner has non-finite entries")
            self.minv = np.repeat(scalar, self.components)
        self.tol = cfg.tolerance
        self.s = cfg.s
        self.fixed = cfg.fixed_iterations is not None
        self.limit = cfg.fixed_iterations or cfg.max_iterations
        self.unit = "outer step" if variant == "sstep" else "iteration"
        self.bnorm = _norm(b)
        self.history = []
        self.times = {}
        self.matvecs = 0

    def register(self, names):
        """Register the full-length streams `names` in that order, which
        fixes their stream ids, and open iteration 0."""
        if self.rec is not None:
            for name in names:
                self.rec.register_dofs(name, self.n)
            self.rec.begin_iteration(0)

    def begin_iteration(self, k):
        if self.rec is not None:
            self.rec.begin_iteration(k)

    @contextmanager
    def region(self, tag, reads=(), writes=(), rw=(), resume=None):
        """Time one instance of region `tag` (or continue instance `resume`)
        and, on exit, record full-vector reads, then writes, then
        read-writes.  Yields the region id (None untraced)."""
        rec = self.rec
        rid = None
        if rec is not None:
            if resume is None:
                rid = rec.begin_region(tag)
            else:
                rid = resume
                rec.resume_region(rid)
        t0 = time.perf_counter()
        yield rid
        if rec is not None:
            for name in reads:
                rec.record_stream(name, trace.READ)
            for name in writes:
                rec.record_stream(name, trace.WRITE)
            for name in rw:
                rec.record_stream(name, trace.READWRITE)
        self.times[tag] = self.times.get(tag, 0.0) + time.perf_counter() - t0

    def matvec(self, src, dst, src_name, dst_name):
        with self.region("matvec"):
            self.A.apply(src, out=dst, recorder=self.rec, src_name=src_name,
                         dst_name=dst_name)
            self.matvecs += 1

    def row(self, k, alpha, beta, gamma, residual):
        self.history.append({"k": k, "alpha": alpha, "beta": beta,
                             "gamma": gamma, "residual": residual})

    def frozen(self, value, what, k, residual) -> bool:
        """The scalar guard.  A positive finite `value` passes (False).  A
        non-finite one raises `SolverBreakdown`.  A non-positive one raises
        unless `residual` already meets the tolerance: fixed-iteration runs
        keep iterating past convergence, where the recurrence scalars
        degenerate in roundoff; that is stagnation, not breakdown, and the
        caller freezes the step (True) while the full per-iteration
        traffic goes on."""
        if not math.isfinite(value):
            raise SolverBreakdown(f"{self.variant} breakdown: {what} = {value} "
                                  f"is not finite at {self.unit} {k}")
        if value > 0.0:
            return False
        if residual < self.tol:
            return True
        raise SolverBreakdown(f"{self.variant} breakdown: {what} = "
                              f"{value:.3e} <= 0 at {self.unit} {k}")

    def result(self, x, iterations, residual, drift=()) -> SolveResult:
        # every variant stops early exactly when the residual meets the
        # tolerance, so that is also its convergence flag
        return SolveResult(x, iterations, residual, residual < self.tol,
                           self.variant, self.history, self.times,
                           self.matvecs, tuple(drift))


# -- standard CG / PCG --------------------------------------------------------


def _standard(run, b):
    """Textbook conjugate gradients, Jacobi-preconditioned when `run.minv` is
    set.  cg has five vector-access regions per iteration (p.v, x, r, r.r,
    p) around one matrix-vector product, and z aliases r.  pcg streams the
    inverse diagonal at full vector length (replicated per component) and
    terminates on the explicit unpreconditioned residual norm, giving seven
    regions (norm_r, apply_prec and dot_rz in place of dot_rr)."""
    m = run.minv
    run.register(("x", "r", "p", "v", "b") if m is None
                 else ("x", "r", "p", "v", "z", "b", "minv"))
    x = np.zeros(run.n)
    v = np.empty(run.n)
    if m is None:
        with run.region("init", reads=("b", "r"), writes=("r", "p")):
            r = z = b.copy()
            p = r.copy()
            gamma = r @ r
        residual = math.sqrt(gamma) / run.bnorm
    else:
        with run.region("init", reads=("b", "minv", "r", "z"),
                        writes=("r", "z", "p")):
            r = b.copy()
            z = m * r
            p = z.copy()
            gamma = r @ z
        if gamma <= 0.0:
            # name the preconditioner before any step; a non-finite product
            # surfaces as p^T A p at iteration 1
            run.frozen(gamma, _RZ, 0, 1.0)
        residual = _norm(r) / run.bnorm
    for k in range(1, run.limit + 1):
        run.begin_iteration(k)
        run.matvec(p, v, "p", "v")
        with run.region("dot_pv", reads=("p", "v")):
            a = p @ v
        alpha = 0.0 if run.frozen(a, "p^T A p", k, residual) else gamma / a
        with run.region("update_x", reads=("p",), rw=("x",)):
            x += alpha * p
        with run.region("update_r", reads=("v",), rw=("r",)):
            r -= alpha * v
        if m is None:
            with run.region("dot_rr", reads=("r",)):
                gamma_new = r @ r
            residual = math.sqrt(gamma_new) / run.bnorm
        else:
            with run.region("norm_r", reads=("r",)):
                residual = _norm(r) / run.bnorm
            with run.region("apply_prec", reads=("minv", "r"), writes=("z",)):
                np.multiply(m, r, out=z)
            with run.region("dot_rz", reads=("r", "z")):
                gamma_new = r @ z
            run.frozen(gamma_new, _RZ, k, residual)
        beta = gamma_new / gamma if gamma > 0.0 else 0.0
        run.row(k, alpha, beta, gamma, residual)
        gamma = gamma_new
        if not run.fixed and residual < run.tol:
            break
        with run.region("update_p", reads=("r" if m is None else "z",),
                        rw=("p",)):
            p *= beta
            p += z
    return run.result(x, k, residual)


# -- pipelined CG -------------------------------------------------------------


def _pipelined(run, b):
    """Pipelined CG (Ghysels/Vanroose recurrence): both reductions and all
    six vector updates share a single fused region per iteration, at the cost
    of three auxiliary vectors.  The recurred residual is checked against the
    true residual every `DRIFT_CHECK_EVERY` iterations (reported, never
    corrected)."""
    run.register(("x", "r", "p", "w", "s", "z", "q", "b", "drift_tmp"))
    n = run.n
    x = np.zeros(n)
    p = np.zeros(n)
    s = np.zeros(n)
    z = np.zeros(n)
    q = np.empty(n)
    w = np.empty(n)
    tmp = np.empty(n)
    with run.region("init", reads=("b",), writes=("r",)):
        r = b.copy()
    run.matvec(r, w, "r", "w")
    drift = []
    gamma_prev = None
    alpha_prev = None
    stagnant = False
    iterations = 0
    for k in range(1, run.limit + 1):
        run.begin_iteration(k)
        with run.region("fused", reads=("r", "w")) as rid:
            gamma = r @ r
            delta = w @ r
        residual = math.sqrt(gamma) / run.bnorm
        if not run.fixed and residual < run.tol:
            break
        iterations = k
        run.matvec(w, q, "w", "q")
        if not stagnant:
            if gamma_prev is None:
                beta = 0.0
                denom = delta
            else:
                beta = gamma / gamma_prev
                denom = delta - beta * gamma / alpha_prev
            stagnant = run.frozen(denom, "recurrence denominator", k, residual)
        if stagnant:
            alpha = 0.0
            beta = 0.0
        else:
            alpha = gamma / denom
        with run.region("fused", reads=("q", "w", "r", "s", "z", "p", "x"),
                        rw=("z", "s", "p", "x", "r", "w"), resume=rid):
            z *= beta
            z += q
            s *= beta
            s += w
            p *= beta
            p += r
            x += alpha * p
            r -= alpha * s
            w -= alpha * z
        run.row(k, alpha, beta, gamma, residual)
        gamma_prev = gamma
        alpha_prev = alpha
        if k % DRIFT_CHECK_EVERY == 0:
            run.matvec(x, tmp, "x", "drift_tmp")
            with run.region("drift_check", reads=("b", "drift_tmp", "r")):
                true_norm = _norm(b - tmp)
                recurred = _norm(r)
            drift.append((k, abs(true_norm - recurred) / run.bnorm))
    else:
        iterations = run.limit
        with run.region("final_norm", reads=("r",)):
            run.begin_iteration(iterations + 1)
            residual = _norm(r) / run.bnorm
    return run.result(x, iterations, residual, drift)


# -- s-step CG ----------------------------------------------------------------


def _sstep(run, b):
    """s-step CG on the monomial block basis T = [r, Ar, ..., A^s r].

    One reduction cluster serves s iterations; the search block satisfies
    P_k = R_k + P_{k-1} B_k with B_k = -W_{k-1}^{-1} P_{k-1}^T Q_k, where
    R_k/Q_k are the first/last s columns of T_k and W_k = P_k^T A P_k.  The
    residual is recomputed explicitly as b - Ax after every outer step.  The
    monomial basis is the numerically fragile, bandwidth-friendly choice
    (`SolverConfig` refuses s > 8); W_k losing positive definiteness raises a
    breakdown naming the outer step.
    """
    s = run.s
    t_names = [f"T{j}" for j in range(s + 1)]
    p_names = [f"P{j}" for j in range(s)]
    run.register(t_names + p_names + ["x", "b", "w"])
    n = run.n
    T = np.zeros((s + 1, n))   # rows are the block columns; T[0] aliases r
    P = np.zeros((s, n))
    x = np.zeros(n)
    w = np.empty(n)
    with run.region("init", reads=("b",), writes=("T0",)):
        T[0] = b
    W_prev = None
    residual = _norm(T[0]) / run.bnorm
    for j in range(1, -(-run.limit // s) + 1):
        run.begin_iteration((j - 1) * s + 1)
        for c in range(1, s + 1):
            run.matvec(T[c - 1], T[c], t_names[c - 1], t_names[c])
        with run.region("reductions", reads=t_names + (
                p_names if W_prev is not None else [])):
            G = T[1:] @ T[:s].T          # Q^T R
            g = T[:s] @ T[0]             # R^T r
            if W_prev is None:
                B = None
                W = G
            else:
                PQ = P @ T[1:].T         # P_{k-1}^T Q
                try:
                    B = -np.linalg.solve(W_prev, PQ)
                except np.linalg.LinAlgError:
                    # singular previous Gram matrix (post-convergence
                    # stagnation): minimum-norm conjugation keeps the
                    # update finite
                    B = -np.linalg.lstsq(W_prev, PQ, rcond=None)[0]
                W = G + PQ.T @ B
                g = g + B.T @ (P @ T[0])
        W = 0.5 * (W + W.T)
        degenerate = False
        try:
            L = np.linalg.cholesky(W)
            a = np.linalg.solve(L.T, np.linalg.solve(L, g))
        except np.linalg.LinAlgError:
            # The block basis lost independence (Krylov grade < s, or true
            # instability).  Take the minimum-norm step; if the residual
            # then meets the tolerance the solve simply finished early,
            # otherwise it is a genuine basis breakdown.
            a = np.linalg.lstsq(W, g, rcond=None)[0]
            degenerate = True
        if run.fixed and residual < run.tol:
            # already converged: freeze the iterate, keep the block traffic
            a[:] = 0.0
            degenerate = False
        if B is None:
            with run.region("update_p_block", reads=t_names[:s], writes=p_names):
                P[:] = T[:s]
        else:
            with run.region("update_p_block", reads=t_names[:s], rw=p_names):
                P[:] = T[:s] + B.T @ P
        with run.region("update_x", reads=p_names, rw=("x",)):
            x += a @ P
        run.matvec(x, w, "x", "w")
        with run.region("recompute_r", reads=("b", "w"), writes=("T0",)):
            np.subtract(b, w, out=T[0])
            rho = _norm(T[0])
        residual = rho / run.bnorm
        # rho >= 0, and rho = 0 meets the tolerance: only a non-finite
        # residual (cholesky passes NaN through) raises here
        run.frozen(rho, "residual norm", j, residual)
        run.row(j * s, math.nan, math.nan, rho * rho, residual)
        W_prev = W
        if residual < run.tol:
            if not run.fixed:
                break
        elif degenerate:
            raise SolverBreakdown(
                f"s-step basis breakdown: block Gram matrix not positive "
                f"definite at outer step {j} (s = {s})")
    return run.result(x, j * s, residual)


# -- combined (merged vector operation) CG / PCG ------------------------------


def _combined(run, b):
    """Merged CG, or merged Jacobi-PCG when `run.minv` is set: all vector
    updates run in the operator's pre callback operating on r, p (and x every
    other iteration), all reductions accumulate in the post callback, so each
    iteration touches every vector range exactly once around the cell loop.
    x is updated every other iteration through the recurrence identity, and
    termination comes from the residual norm recurrence.  The preconditioned
    residual is never materialized: the scalar inverse diagonal is re-applied
    on the fly wherever z would be read."""
    A = run.A
    rec = run.rec
    run.register(("x", "r", "b"))
    n = run.n
    mrep = run.minv
    mscale = run.components
    if rec is not None and mrep is not None:
        rec.register_dofs("minv", n // mscale)
    x = np.zeros(n)
    p = np.zeros(n)
    v = np.zeros(n)
    # the spans' temporaries, span by span in place: every element takes
    # the same operations in the same order as the whole-array expressions
    # in the comments
    t1 = np.empty(n)
    t2 = np.empty(n)
    with run.region("init", reads=("b",), writes=("r",)):
        r = b.copy()
    alpha_prev = beta_prev = 0.0
    alpha_prev2 = beta_prev2 = 0.0
    residual = _norm(r) / run.bnorm
    stagnant = False

    def rec_minv_span(lo, hi):
        if rec is not None and mrep is not None:
            rec.record_dofs("minv", lo // mscale, -(-hi // mscale), trace.READ)

    for k in range(1, run.limit + 1):
        run.begin_iteration(k)
        sums = [0.0] * 7
        am1, bm1 = alpha_prev, beta_prev
        am2, bm2 = alpha_prev2, beta_prev2
        odd = k % 2 == 1

        def pre(lo, hi, am1=am1, bm1=bm1, am2=am2, bm2=bm2, odd=odd, k=k):
            # the two-step x catch-up: alpha/beta pairs of zero mark frozen
            # (post-convergence) iterations and contribute nothing; the
            # divisor identity needs bm2 != 0 only
            live = am1 != 0.0 or am2 != 0.0
            rs = r[lo:hi]
            ps = p[lo:hi]
            s1 = t1[lo:hi]
            if k > 1 and live and odd:
                if am2 != 0.0 and bm2 != 0.0:
                    # x += am1 p + (am2 / bm2) (p - z), z = r or M^-1 r
                    s2 = t2[lo:hi]
                    if mrep is None:
                        np.subtract(ps, rs, out=s2)
                    else:
                        np.multiply(mrep[lo:hi], rs, out=s2)
                        rec_minv_span(lo, hi)
                        np.subtract(ps, s2, out=s2)
                    s2 *= am2 / bm2
                    np.multiply(ps, am1, out=s1)
                    s1 += s2
                else:
                    # x += am1 p
                    np.multiply(ps, am1, out=s1)
                x[lo:hi] += s1
                if rec is not None:
                    rec.record_dofs("x", lo, hi, trace.READWRITE)
                    rec.record_dofs("r", lo, hi, trace.READ)
            # r -= am1 v; p = z + bm1 p
            np.multiply(v[lo:hi], am1, out=s1)
            rs -= s1
            ps *= bm1
            if mrep is None:
                ps += rs
            else:
                np.multiply(mrep[lo:hi], rs, out=s1)
                ps += s1
                rec_minv_span(lo, hi)
            if rec is not None:
                rec.record_dofs("r", lo, hi, trace.READWRITE)
                rec.record_dofs("v", lo, hi, trace.READ)
                rec.record_dofs("p", lo, hi, trace.READWRITE)

        def post(lo, hi):
            sums[:] = [total + part for total, part in
                       zip(sums, fused_reductions(r, v, p, mrep, lo, hi))]
            if rec is not None:
                rec.record_dofs("r", lo, hi, trace.READ)
                rec.record_dofs("v", lo, hi, trace.READ)
                rec.record_dofs("p", lo, hi, trace.READ)
                rec_minv_span(lo, hi)

        with run.region("iteration") as rid:
            A.apply_with_callbacks(p, v, pre, post, recorder=rec,
                                   src_name="p", dst_name="v")
            run.matvecs += 1
        gamma, a, bb, cc, d, e, f = sums
        if stagnant or gamma == 0.0:
            # frozen, or r vanished exactly: converged (an early exit
            # below) or, in a fixed run, frozen from here on
            stagnant = True
            alpha = 0.0
            beta = 0.0
            residual = math.sqrt(gamma) / run.bnorm
        elif ((mrep is not None and run.frozen(d, _RZ, k, residual))
              or run.frozen(a, "p^T A p", k, residual)):
            stagnant = True
            alpha = 0.0
            beta = 0.0
        else:
            if mrep is None:
                alpha = gamma / a
                gamma_next = gamma - 2.0 * alpha * bb + alpha * alpha * cc
                beta = gamma_next / gamma
                stop_sq = gamma_next
            else:
                alpha = d / a
                beta = (d - 2.0 * alpha * e + alpha * alpha * f) / d
                stop_sq = gamma - 2.0 * alpha * bb + alpha * alpha * cc
            residual = math.sqrt(max(stop_sq, 0.0)) / run.bnorm
            if run.fixed:
                # residual-norm recurrence bottomed out; this step's live
                # alpha/beta still enter the stored pair for the catch-up
                stagnant = run.frozen(beta, "recurred beta", k, residual)
        run.row(k, alpha, beta, gamma, residual)
        alpha_prev2, beta_prev2 = alpha_prev, beta_prev
        alpha_prev, beta_prev = alpha, beta
        if not run.fixed and residual < run.tol:
            break
    # finalization: bring x up to the last iterate (the loop leaves it one or
    # two combined steps behind)
    with run.region("iteration", resume=rid):
        if k % 2 == 1 or alpha_prev2 == 0.0 or beta_prev2 == 0.0:
            x += alpha_prev * p
        else:
            z = r if mrep is None else mrep * r
            x += alpha_prev * p + (alpha_prev2 / beta_prev2) * (p - z)
        if rec is not None:
            rec.record_stream("x", trace.READWRITE)
            rec.record_stream("p", trace.READ)
            if k % 2 == 0:
                rec.record_stream("r", trace.READ)
                if mrep is not None:
                    rec.record_stream("minv", trace.READ)
    return run.result(x, k, residual)


# variant -> (recurrence, Jacobi-preconditioned)
_DRIVERS = {
    "cg": (_standard, False),
    "pcg": (_standard, True),
    "pipelined": (_pipelined, False),
    "sstep": (_sstep, False),
    "combined_cg": (_combined, False),
    "combined_pcg": (_combined, True),
}
VARIANTS = tuple(_DRIVERS)


def solve(variant: str, A, b, *, minv=None, config: SolverConfig = None,
          recorder=None) -> SolveResult:
    """Solve Ax = b from x0 = 0 with the named variant; `minv` is required
    for the preconditioned variants and ignored by the rest.  `b` is solved
    as float64 (a complex `b` is refused).  A non-finite entry in `b`, or in
    the `minv` of a preconditioned variant, is rejected up front: no variant
    could converge on it.  A zero `b`
    returns x = 0 after 0 iterations.  A nonzero `b` whose largest entry is
    below `TINY_RHS` is solved scaled by an exact power of two, and `x`
    scaled back exactly; the history's gamma then belongs to the scaled
    system."""
    if np.iscomplexobj(b):
        raise ValueError("right-hand side must be real")
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    shift = 0
    largest = np.max(np.abs(b), initial=0.0)
    if 0.0 < largest < TINY_RHS:
        shift = -int(np.frexp(largest)[1])
        b = np.ldexp(b, shift)
    if variant not in _DRIVERS:
        raise ValueError(f"unknown solver variant {variant!r}")
    driver, preconditioned = _DRIVERS[variant]
    run = _Run(variant, A, b, config, recorder, minv, preconditioned)
    if run.bnorm == 0.0:
        return run.result(np.zeros(run.n), 0, 0.0)
    res = driver(run, b)
    if shift:
        res.x = np.ldexp(res.x, -shift)
    return res
