"""The conjugate-gradient variants as they stood before the shared solver
skeleton, kept verbatim as an oracle: the instrumented solvers in
`mfcg.solvers` must reproduce their iterates, histories, matvec counts,
region tags and access traces exactly.

Five CG formulations share one outward contract (solve Ax = b to a relative
residual tolerance, x0 = 0): the textbook method, its Jacobi-preconditioned
form, a pipelined variant with a single reduction sweep per iteration, an
s-step variant with one reduction cluster per s iterations, and two "merged"
variants that interleave every vector update and reduction with the operator's
cell loop through `apply_with_callbacks`.

Every full-vector operation is wrapped in a named region; with a recorder
attached, the regions reproduce the analytic memory-transfer model's counting
unit (unique stream touches per region instance).  Region wall times are
accumulated per tag on the result.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mfcg import trace
from mfcg.operator import DiagonalPreconditioner

__all__ = ["SolverBreakdown", "SolverConfig", "SolveResult", "fused_reductions",
           "solve_cg", "solve_pcg", "solve_pipelined",
           "solve_sstep", "solve_combined_cg", "solve_combined_pcg", "solve",
           "VARIANTS"]

VARIANTS = ("cg", "pcg", "pipelined", "sstep", "combined_cg", "combined_pcg")


class SolverBreakdown(RuntimeError):
    """The Krylov recurrence lost positive definiteness or independence."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8          # on ||r|| / ||b||, unpreconditioned
    max_iterations: int = 500
    s: int = 4                       # block size for the s-step variant
    fixed_iterations: int = None     # run exactly this many, no early exit
    force_x_updates: bool = False    # debug: update x every iteration in the
                                     # combined variants instead of every other
    drift_check_every: int = 50      # pipelined true-residual check interval

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.s < 1:
            raise ValueError("s must be at least 1")
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


def fused_reductions(r, v, p, minv, lo, hi) -> np.ndarray:
    """Partial sums of the seven merged-PCG reductions over [lo, hi):
    (r.r, p.v, r.v, v.v, r.Mr, r.Mv, v.Mv).  `minv` is the replicated
    inverse-diagonal array, or None for the identity (then the last three
    duplicate the first/third/fourth)."""
    rr = r[lo:hi]
    vv = v[lo:hi]
    pp = p[lo:hi]
    if minv is None:
        mr, mv = rr, vv
    else:
        m = minv[lo:hi]
        mr = m * rr
        mv = m * vv
    return np.array([rr @ rr, pp @ vv, rr @ vv, vv @ vv,
                     rr @ mr, rr @ mv, vv @ mv])


# -- shared plumbing ----------------------------------------------------------


@contextmanager
def _region(rec, times, tag):
    rid = rec.begin_region(tag) if rec is not None else None
    t0 = time.perf_counter()
    yield rid
    times[tag] = times.get(tag, 0.0) + time.perf_counter() - t0


def _record(rec, reads=(), writes=(), rw=()):
    if rec is None:
        return
    for name in reads:
        rec.record_stream(name, trace.READ)
    for name in writes:
        rec.record_stream(name, trace.WRITE)
    for name in rw:
        rec.record_stream(name, trace.READWRITE)


def _norm(b):
    return float(np.linalg.norm(b))


def _trivial_result(n, variant):
    return SolveResult(np.zeros(n), 0, 0.0, True, variant)


def _full_inverse_diagonal(minv, components):
    return np.repeat(_scalar_inverse_diagonal(minv), components)


def _scalar_inverse_diagonal(minv):
    if isinstance(minv, DiagonalPreconditioner):
        return minv.inverse_diagonal
    return np.asarray(minv, dtype=float)


def _stagnates(fixed: bool, residual: float, tolerance: float) -> bool:
    """Fixed-iteration runs keep iterating past convergence, where the
    recurrence scalars degenerate in roundoff.  That is stagnation, not
    breakdown: the solver freezes the coefficients at zero and keeps
    streaming the full per-iteration work on the converged iterate."""
    return fixed and residual < tolerance


def _check_preconditioned_product(rz: float, residual: float,
                                  tolerance: float, k: int) -> None:
    """r^T M^-1 r must be positive while r is not yet converged; otherwise
    the preconditioner is not SPD.  Below the tolerance, r^T M^-1 r <= 0 is
    roundoff on a converged residual (fixed-iteration stagnation)."""
    if rz <= 0.0 and residual >= tolerance:
        raise SolverBreakdown(
            f"PCG breakdown: preconditioned product r^T M^-1 r = {rz:.3e} "
            f"<= 0 at iteration {k} (preconditioner not SPD)")


# -- standard CG / PCG --------------------------------------------------------


def solve_cg(A, b, config: SolverConfig = None, *, recorder=None) -> SolveResult:
    """Textbook conjugate gradients; five vector-access regions per iteration
    (p.v, x, r, r.r, p) around one matrix-vector product."""
    cfg = config or SolverConfig()
    n = A.n_dofs
    if len(b) != n:
        raise ValueError("right-hand side length does not match operator")
    bnorm = _norm(b)
    if bnorm == 0.0:
        return _trivial_result(n, "cg")
    rec = recorder
    times = {}
    if rec is not None:
        for name in ("x", "r", "p", "v", "b"):
            rec.register_dofs(name, n)
        rec.begin_iteration(0)
    x = np.zeros(n)
    v = np.empty(n)
    with _region(rec, times, "init"):
        r = b.copy()
        p = r.copy()
        gamma = r @ r
        _record(rec, reads=("b", "r"), writes=("r", "p"))
    history = []
    limit = cfg.fixed_iterations or cfg.max_iterations
    fixed = cfg.fixed_iterations is not None
    residual = math.sqrt(gamma) / bnorm
    converged = False
    matvecs = 0
    k = 0
    for k in range(1, limit + 1):
        if rec is not None:
            rec.begin_iteration(k)
        with _region(rec, times, "matvec"):
            A.apply(p, out=v, recorder=rec, src_name="p", dst_name="v")
            matvecs += 1
        with _region(rec, times, "dot_pv"):
            a = p @ v
            _record(rec, reads=("p", "v"))
        if a <= 0.0:
            if _stagnates(fixed, residual, cfg.tolerance):
                alpha = 0.0
            else:
                raise SolverBreakdown(
                    f"CG breakdown: p^T A p = {a:.3e} <= 0 at iteration {k}")
        else:
            alpha = gamma / a
        with _region(rec, times, "update_x"):
            x += alpha * p
            _record(rec, reads=("p",), rw=("x",))
        with _region(rec, times, "update_r"):
            r -= alpha * v
            _record(rec, reads=("v",), rw=("r",))
        with _region(rec, times, "dot_rr"):
            gamma_new = r @ r
            _record(rec, reads=("r",))
        beta = gamma_new / gamma if gamma > 0.0 else 0.0
        residual = math.sqrt(gamma_new) / bnorm
        history.append({"k": k, "alpha": alpha, "beta": beta,
                        "gamma": gamma, "residual": residual})
        gamma = gamma_new
        if not fixed and residual < cfg.tolerance:
            converged = True
            break
        with _region(rec, times, "update_p"):
            p *= beta
            p += r
            _record(rec, reads=("r",), rw=("p",))
    if fixed:
        converged = residual < cfg.tolerance
    return SolveResult(x, k, residual, converged, "cg", history, times,
                       matvecs)


def solve_pcg(A, b, minv, config: SolverConfig = None, *,
              recorder=None) -> SolveResult:
    """Jacobi-preconditioned CG.  The inverse diagonal is streamed at full
    vector length (replicated per component); termination uses the explicit
    unpreconditioned residual norm, giving seven vector-access regions."""
    cfg = config or SolverConfig()
    n = A.n_dofs
    if len(b) != n:
        raise ValueError("right-hand side length does not match operator")
    bnorm = _norm(b)
    if bnorm == 0.0:
        return _trivial_result(n, "pcg")
    mfull = _full_inverse_diagonal(minv, getattr(A, "components", 1))
    if len(mfull) != n:
        raise ValueError("preconditioner length does not match operator")
    rec = recorder
    times = {}
    if rec is not None:
        for name in ("x", "r", "p", "v", "z", "b"):
            rec.register_dofs(name, n)
        rec.register_dofs("minv", n)
        rec.begin_iteration(0)
    x = np.zeros(n)
    v = np.empty(n)
    with _region(rec, times, "init"):
        r = b.copy()
        z = mfull * r
        p = z.copy()
        gamma = r @ z
        _record(rec, reads=("b", "minv", "r", "z"), writes=("r", "z", "p"))
    _check_preconditioned_product(gamma, 1.0, cfg.tolerance, 0)
    history = []
    limit = cfg.fixed_iterations or cfg.max_iterations
    fixed = cfg.fixed_iterations is not None
    residual = _norm(r) / bnorm
    converged = False
    matvecs = 0
    k = 0
    for k in range(1, limit + 1):
        if rec is not None:
            rec.begin_iteration(k)
        with _region(rec, times, "matvec"):
            A.apply(p, out=v, recorder=rec, src_name="p", dst_name="v")
            matvecs += 1
        with _region(rec, times, "dot_pv"):
            a = p @ v
            _record(rec, reads=("p", "v"))
        if a <= 0.0:
            if _stagnates(fixed, residual, cfg.tolerance):
                alpha = 0.0
            else:
                raise SolverBreakdown(
                    f"PCG breakdown: p^T A p = {a:.3e} <= 0 at iteration {k}")
        else:
            alpha = gamma / a
        with _region(rec, times, "update_x"):
            x += alpha * p
            _record(rec, reads=("p",), rw=("x",))
        with _region(rec, times, "update_r"):
            r -= alpha * v
            _record(rec, reads=("v",), rw=("r",))
        with _region(rec, times, "norm_r"):
            residual = _norm(r) / bnorm
            _record(rec, reads=("r",))
        with _region(rec, times, "apply_prec"):
            np.multiply(mfull, r, out=z)
            _record(rec, reads=("minv", "r"), writes=("z",))
        with _region(rec, times, "dot_rz"):
            gamma_new = r @ z
            _record(rec, reads=("r", "z"))
        _check_preconditioned_product(gamma_new, residual, cfg.tolerance, k)
        beta = gamma_new / gamma if gamma > 0.0 else 0.0
        history.append({"k": k, "alpha": alpha, "beta": beta,
                        "gamma": gamma, "residual": residual})
        gamma = gamma_new
        if not fixed and residual < cfg.tolerance:
            converged = True
            break
        with _region(rec, times, "update_p"):
            p *= beta
            p += z
            _record(rec, reads=("z",), rw=("p",))
    if fixed:
        converged = residual < cfg.tolerance
    return SolveResult(x, k, residual, converged, "pcg", history, times,
                       matvecs)


# -- pipelined CG -------------------------------------------------------------


def solve_pipelined(A, b, config: SolverConfig = None, *,
                    recorder=None) -> SolveResult:
    """Pipelined CG (Ghysels/Vanroose recurrence): both reductions and all
    six vector updates share a single fused region per iteration, at the cost
    of three auxiliary vectors.  The recurred residual is checked against the
    true residual every `drift_check_every` iterations (reported, never
    corrected)."""
    cfg = config or SolverConfig()
    n = A.n_dofs
    if len(b) != n:
        raise ValueError("right-hand side length does not match operator")
    bnorm = _norm(b)
    if bnorm == 0.0:
        return _trivial_result(n, "pipelined")
    rec = recorder
    times = {}
    if rec is not None:
        for name in ("x", "r", "p", "w", "s", "z", "q", "b", "drift_tmp"):
            rec.register_dofs(name, n)
        rec.begin_iteration(0)
    x = np.zeros(n)
    p = np.zeros(n)
    s = np.zeros(n)
    z = np.zeros(n)
    q = np.empty(n)
    w = np.empty(n)
    tmp = np.empty(n)
    matvecs = 0
    with _region(rec, times, "init"):
        r = b.copy()
        _record(rec, reads=("b",), writes=("r",))
    with _region(rec, times, "matvec"):
        A.apply(r, out=w, recorder=rec, src_name="r", dst_name="w")
        matvecs += 1
    history = []
    drift = []
    limit = cfg.fixed_iterations or cfg.max_iterations
    fixed = cfg.fixed_iterations is not None
    gamma_prev = None
    alpha_prev = None
    residual = _norm(r) / bnorm
    converged = False
    stagnant = False
    iterations = 0
    for k in range(1, limit + 1):
        if rec is not None:
            rec.begin_iteration(k)
        with _region(rec, times, "fused") as rid:
            gamma = r @ r
            delta = w @ r
            _record(rec, reads=("r", "w"))
        residual = math.sqrt(gamma) / bnorm
        if not fixed and residual < cfg.tolerance:
            converged = True
            break
        iterations = k
        with _region(rec, times, "matvec"):
            A.apply(w, out=q, recorder=rec, src_name="w", dst_name="q")
            matvecs += 1
        if stagnant:
            alpha = 0.0
            beta = 0.0
        else:
            if gamma_prev is None:
                beta = 0.0
                denom = delta
            else:
                beta = gamma / gamma_prev
                denom = delta - beta * gamma / alpha_prev
            if denom <= 0.0:
                if _stagnates(fixed, residual, cfg.tolerance):
                    stagnant = True
                    alpha = 0.0
                    beta = 0.0
                else:
                    raise SolverBreakdown(
                        f"pipelined CG breakdown: recurrence denominator "
                        f"{denom:.3e} <= 0 at iteration {k}")
            else:
                alpha = gamma / denom
        if rec is not None:
            rec.resume_region(rid)
        t0 = time.perf_counter()
        z *= beta
        z += q
        s *= beta
        s += w
        p *= beta
        p += r
        x += alpha * p
        r -= alpha * s
        w -= alpha * z
        _record(rec, reads=("q", "w", "r", "s", "z", "p", "x"),
                rw=("z", "s", "p", "x", "r", "w"))
        times["fused"] += time.perf_counter() - t0
        history.append({"k": k, "alpha": alpha, "beta": beta,
                        "gamma": gamma, "residual": residual})
        gamma_prev = gamma
        alpha_prev = alpha
        if cfg.drift_check_every and k % cfg.drift_check_every == 0:
            with _region(rec, times, "matvec"):
                A.apply(x, out=tmp, recorder=rec, src_name="x",
                        dst_name="drift_tmp")
                matvecs += 1
            with _region(rec, times, "drift_check"):
                true_norm = _norm(b - tmp)
                recurred = _norm(r)
                _record(rec, reads=("b", "drift_tmp", "r"))
            drift.append((k, abs(true_norm - recurred) / bnorm))
    else:
        iterations = limit
    if fixed or not converged:
        with _region(rec, times, "final_norm"):
            if rec is not None:
                rec.begin_iteration(iterations + 1)
            residual = _norm(r) / bnorm
            _record(rec, reads=("r",))
        converged = residual < cfg.tolerance
    return SolveResult(x, iterations, residual, converged, "pipelined",
                       history, times, matvecs, tuple(drift))


# -- s-step CG ----------------------------------------------------------------


def solve_sstep(A, b, config: SolverConfig = None, *,
                recorder=None) -> SolveResult:
    """s-step CG on the monomial block basis T = [r, Ar, ..., A^s r].

    One reduction cluster serves s iterations; the search block satisfies
    P_k = R_k + P_{k-1} B_k with B_k = -W_{k-1}^{-1} P_{k-1}^T Q_k, where
    R_k/Q_k are the first/last s columns of T_k and W_k = P_k^T A P_k.  The
    residual is recomputed explicitly as b - Ax after every outer step.  The
    monomial basis is the numerically fragile, bandwidth-friendly choice; W_k
    losing positive definiteness raises a breakdown naming the outer step.
    """
    cfg = config or SolverConfig()
    s = cfg.s
    if s > 8:
        raise ValueError("s > 8 is not supported: the monomial basis loses "
                         "linear independence in double precision")
    n = A.n_dofs
    if len(b) != n:
        raise ValueError("right-hand side length does not match operator")
    bnorm = _norm(b)
    if bnorm == 0.0:
        return _trivial_result(n, "sstep")
    rec = recorder
    times = {}
    t_names = [f"T{j}" for j in range(s + 1)]
    p_names = [f"P{j}" for j in range(s)]
    if rec is not None:
        for name in t_names + p_names + ["x", "b", "w"]:
            rec.register_dofs(name, n)
        rec.begin_iteration(0)
    T = np.zeros((s + 1, n))   # rows are the block columns; T[0] aliases r
    P = np.zeros((s, n))
    x = np.zeros(n)
    w = np.empty(n)
    with _region(rec, times, "init"):
        T[0] = b
        _record(rec, reads=("b",), writes=("T0",))
    history = []
    W_prev = None
    residual = _norm(T[0]) / bnorm
    converged = False
    matvecs = 0
    if cfg.fixed_iterations is not None:
        limit = -(-cfg.fixed_iterations // s)
    else:
        limit = -(-cfg.max_iterations // s)
    outer = 0
    for j in range(1, limit + 1):
        outer = j
        if rec is not None:
            rec.begin_iteration((j - 1) * s + 1)
        for c in range(1, s + 1):
            with _region(rec, times, "matvec"):
                A.apply(T[c - 1], out=T[c], recorder=rec,
                        src_name=t_names[c - 1], dst_name=t_names[c])
                matvecs += 1
        with _region(rec, times, "reductions"):
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
            _record(rec, reads=tuple(t_names) +
                    (tuple(p_names) if W_prev is not None else ()))
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
        if _stagnates(cfg.fixed_iterations is not None, residual,
                      cfg.tolerance):
            # already converged: freeze the iterate, keep the block traffic
            a[:] = 0.0
            degenerate = False
        with _region(rec, times, "update_p_block"):
            if B is None:
                P[:] = T[:s]
                _record(rec, reads=tuple(t_names[:s]), writes=tuple(p_names))
            else:
                P[:] = T[:s] + B.T @ P
                _record(rec, reads=tuple(t_names[:s]), rw=tuple(p_names))
        with _region(rec, times, "update_x"):
            x += a @ P
            _record(rec, reads=tuple(p_names), rw=("x",))
        with _region(rec, times, "matvec"):
            A.apply(x, out=w, recorder=rec, src_name="x", dst_name="w")
            matvecs += 1
        with _region(rec, times, "recompute_r"):
            np.subtract(b, w, out=T[0])
            rho = _norm(T[0])
            _record(rec, reads=("b", "w"), writes=("T0",))
        residual = rho / bnorm
        history.append({"k": j * s, "alpha": math.nan, "beta": math.nan,
                        "gamma": rho * rho, "residual": residual})
        W_prev = W
        if residual < cfg.tolerance:
            if cfg.fixed_iterations is None:
                converged = True
                break
        elif degenerate:
            raise SolverBreakdown(
                f"s-step basis breakdown: block Gram matrix not positive "
                f"definite at outer step {j} (s = {s})")
    if cfg.fixed_iterations is not None:
        converged = residual < cfg.tolerance
    return SolveResult(x, outer * s, residual, converged, "sstep", history,
                       times, matvecs)


# -- combined (merged vector operation) variants ------------------------------


def _solve_combined(A, b, minv, cfg, rec, variant):
    """Shared driver for the merged CG/PCG: all vector updates run in the
    operator's pre callback operating on r, p (and x every other iteration),
    all reductions accumulate in the post callback, so each iteration touches
    every vector range exactly once around the cell loop."""
    n = A.n_dofs
    if len(b) != n:
        raise ValueError("right-hand side length does not match operator")
    bnorm = _norm(b)
    if bnorm == 0.0:
        return _trivial_result(n, variant)
    comp = getattr(A, "components", 1)
    if minv is None:
        mrep = None
        mscale = 1
    else:
        mscalar = _scalar_inverse_diagonal(minv)
        if len(mscalar) * comp != n:
            raise ValueError("preconditioner length does not match operator")
        mrep = np.repeat(mscalar, comp)
        mscale = comp
    times = {}
    if rec is not None:
        rec.register_dofs("x", n)
        rec.register_dofs("r", n)
        rec.register_dofs("b", n)
        if mrep is not None:
            rec.register_dofs("minv", n // mscale)
        rec.begin_iteration(0)
    x = np.zeros(n)
    p = np.zeros(n)
    v = np.zeros(n)
    with _region(rec, times, "init"):
        r = b.copy()
        _record(rec, reads=("b",), writes=("r",))
    alpha_prev = beta_prev = 0.0
    alpha_prev2 = beta_prev2 = 0.0
    history = []
    limit = cfg.fixed_iterations or cfg.max_iterations
    fixed = cfg.fixed_iterations is not None
    residual = _norm(r) / bnorm
    converged = False
    stagnant = False
    matvecs = 0
    k = 0
    last_rid = None

    def rec_minv_span(lo, hi):
        if rec is not None and mrep is not None:
            rec.record_dofs("minv", lo // mscale, -(-hi // mscale), trace.READ)

    for k in range(1, limit + 1):
        if rec is not None:
            rec.begin_iteration(k)
        sums = np.zeros(7)
        am1, bm1 = alpha_prev, beta_prev
        am2, bm2 = alpha_prev2, beta_prev2
        odd = k % 2 == 1

        def pre(lo, hi, am1=am1, bm1=bm1, am2=am2, bm2=bm2, odd=odd, k=k):
            # the two-step x catch-up: alpha/beta pairs of zero mark frozen
            # (post-convergence) iterations and contribute nothing; the
            # divisor identity needs bm2 != 0 only
            live = am1 != 0.0 or am2 != 0.0
            if k > 1 and live and (cfg.force_x_updates or odd):
                if cfg.force_x_updates:
                    x[lo:hi] += am1 * p[lo:hi]
                elif am2 != 0.0 and bm2 != 0.0:
                    pslice = p[lo:hi]
                    if mrep is None:
                        zslice = r[lo:hi]
                    else:
                        zslice = mrep[lo:hi] * r[lo:hi]
                        rec_minv_span(lo, hi)
                    x[lo:hi] += am1 * pslice + (am2 / bm2) * (pslice - zslice)
                else:
                    x[lo:hi] += am1 * p[lo:hi]
                if rec is not None:
                    rec.record_dofs("x", lo, hi, trace.READWRITE)
                    rec.record_dofs("r", lo, hi, trace.READ)
            r[lo:hi] -= am1 * v[lo:hi]
            if mrep is None:
                p[lo:hi] = r[lo:hi] + bm1 * p[lo:hi]
            else:
                p[lo:hi] = mrep[lo:hi] * r[lo:hi] + bm1 * p[lo:hi]
                rec_minv_span(lo, hi)
            if rec is not None:
                rec.record_dofs("r", lo, hi, trace.READWRITE)
                rec.record_dofs("v", lo, hi, trace.READ)
                rec.record_dofs("p", lo, hi, trace.READWRITE)

        def post(lo, hi):
            sums[:] += fused_reductions(r, v, p, mrep, lo, hi)
            if rec is not None:
                rec.record_dofs("r", lo, hi, trace.READ)
                rec.record_dofs("v", lo, hi, trace.READ)
                rec.record_dofs("p", lo, hi, trace.READ)
                rec_minv_span(lo, hi)

        with _region(rec, times, "iteration") as rid:
            last_rid = rid
            A.apply_with_callbacks(p, v, pre, post, recorder=rec,
                                   src_name="p", dst_name="v")
            matvecs += 1
        gamma, a, bb, cc, d, e, f = sums
        if stagnant:
            alpha = 0.0
            beta = 0.0
            residual = math.sqrt(gamma) / bnorm
        elif gamma == 0.0:
            residual = 0.0
            if fixed:
                stagnant = True
                alpha = 0.0
                beta = 0.0
            else:
                converged = True
                alpha_prev2, beta_prev2 = alpha_prev, beta_prev
                alpha_prev, beta_prev = 0.0, 0.0
                history.append({"k": k, "alpha": 0.0, "beta": 0.0,
                                "gamma": gamma, "residual": residual})
                break
        elif mrep is not None and d <= 0.0:
            raise SolverBreakdown(
                f"combined PCG: preconditioned product r^T M^-1 r = {d:.3e} "
                f"<= 0 at iteration {k} (preconditioner not SPD)")
        elif a <= 0.0:
            if _stagnates(fixed, residual, cfg.tolerance):
                stagnant = True
                alpha = 0.0
                beta = 0.0
            else:
                raise SolverBreakdown(
                    f"combined CG breakdown: p^T A p = {a:.3e} <= 0 at "
                    f"iteration {k}")
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
            residual = math.sqrt(max(stop_sq, 0.0)) / bnorm
            if beta <= 0.0 and fixed:
                # residual-norm recurrence bottomed out; this step's live
                # alpha/beta still enter the stored pair for the catch-up
                if residual < cfg.tolerance:
                    stagnant = True
                else:
                    raise SolverBreakdown(
                        f"combined recurrence collapsed: beta = {beta:.3e} "
                        f"<= 0 at iteration {k} before convergence")
        history.append({"k": k, "alpha": alpha, "beta": beta,
                        "gamma": gamma, "residual": residual})
        alpha_prev2, beta_prev2 = alpha_prev, beta_prev
        alpha_prev, beta_prev = alpha, beta
        if not fixed and residual < cfg.tolerance:
            converged = True
            break
    if fixed:
        converged = residual < cfg.tolerance
    # finalization: bring x up to the last iterate (the loop leaves it one or
    # two combined steps behind)
    if rec is not None and last_rid is not None:
        rec.resume_region(last_rid)
    t0 = time.perf_counter()
    if alpha_prev != 0.0 or k > 0:
        if cfg.force_x_updates or k % 2 == 1:
            x += alpha_prev * p
        else:
            if alpha_prev2 != 0.0 and beta_prev2 != 0.0:
                if mrep is None:
                    z = r
                else:
                    z = mrep * r
                x += alpha_prev * p + (alpha_prev2 / beta_prev2) * (p - z)
            else:
                x += alpha_prev * p
        if rec is not None:
            rec.record_stream("x", trace.READWRITE)
            rec.record_stream("p", trace.READ)
            if not (cfg.force_x_updates or k % 2 == 1):
                rec.record_stream("r", trace.READ)
                if mrep is not None:
                    rec.record_stream("minv", trace.READ)
    times["iteration"] = times.get("iteration", 0.0) + time.perf_counter() - t0
    return SolveResult(x, k, residual, converged, variant, history, times,
                       matvecs)


def solve_combined_cg(A, b, config: SolverConfig = None, *,
                      recorder=None) -> SolveResult:
    """CG with every vector update and reduction merged into the operator's
    cell loop: one fused region per iteration, x updated every other
    iteration through the recurrence identity, termination from the residual
    norm recurrence."""
    return _solve_combined(A, b, None, config or SolverConfig(), recorder,
                           "combined_cg")


def solve_combined_pcg(A, b, minv, config: SolverConfig = None, *,
                       recorder=None) -> SolveResult:
    """Merged Jacobi-PCG: the preconditioned residual is never materialized;
    the scalar inverse diagonal is re-applied on the fly wherever z would be
    read, and the seven reductions of one iteration share the post callback."""
    if minv is None:
        raise ValueError("combined PCG requires a preconditioner")
    return _solve_combined(A, b, minv, config or SolverConfig(), recorder,
                           "combined_pcg")


def solve(variant: str, A, b, *, minv=None, config: SolverConfig = None,
          recorder=None) -> SolveResult:
    """Dispatch by variant name; `minv` is required for the preconditioned
    variants and ignored by the rest.  A non-finite entry in `b` or `minv` is
    rejected up front: no variant could converge on it."""
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    if minv is not None and not np.all(np.isfinite(_scalar_inverse_diagonal(minv))):
        raise ValueError("preconditioner has non-finite entries")
    if variant == "cg":
        return solve_cg(A, b, config, recorder=recorder)
    if variant == "pcg":
        if minv is None:
            raise ValueError("pcg requires a preconditioner")
        return solve_pcg(A, b, minv, config, recorder=recorder)
    if variant == "pipelined":
        return solve_pipelined(A, b, config, recorder=recorder)
    if variant == "sstep":
        return solve_sstep(A, b, config, recorder=recorder)
    if variant == "combined_cg":
        return solve_combined_cg(A, b, config, recorder=recorder)
    if variant == "combined_pcg":
        return solve_combined_pcg(A, b, minv, config, recorder=recorder)
    raise ValueError(f"unknown solver variant {variant!r}")
