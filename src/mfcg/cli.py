"""Command-line harness: verification suites, benchmark sweeps, liveliness
and cache-sweep reports, all emitting CSV.

Configuration is a plain key=value text file plus overriding command-line
flags (flags win).  The environment variable MFCG_THREADS is reserved for
future threaded builds and is a documented no-op here: the reference
implementation is sequential.

Exit codes: 0 ok, 1 property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .bench import BENCHMARK_PROBLEMS, assemble_problem, discretize, run_benchmark
from .dofs import compute_range_schedule
from .locality import (
    CacheModel,
    liveliness,
    predict_transfer,
    replay_cache,
)
from .mesh import GeometryVariant, validate_cells
from .solvers import VARIANTS, SolverBreakdown, SolverConfig, solve
from .tensor import LanesKernels, evaluate_values, gauss_quadrature, lagrange_basis
from .trace import AccessRecorder

# capacities for the cache sweep: 32 KiB ... 64 MiB, powers of two
SWEEP_CAPACITIES = tuple(2 ** k for k in range(15, 27))

# per named key of `Config`: its name in messages and its known values
_CHOICES = {
    "bp": ("benchmark problem", tuple(sorted(BENCHMARK_PROBLEMS))),
    "geometry": ("geometry", tuple(v.value for v in GeometryVariant)),
    "numbering": ("numbering", ("default", "optimized", "both")),
    "traversal": ("traversal", ("lexicographic", "morton")),
}


@dataclass(frozen=True)
class Config:
    """All run parameters a config file or flags can set."""

    bp: str = "BP5"
    degree: int = 3
    cells: tuple = (4, 4, 4)
    geometry: str = "final_tensor_load"
    variant: str = "cg"
    iterations: int = 100
    repeats: int = 8
    numbering: str = "default"
    traversal: str = "morton"
    simd_lanes: int = 8
    cache_bytes: int = 262144
    seed: int = 0
    out: str = ""

    def __post_init__(self):
        for key in ("degree", "iterations", "repeats", "simd_lanes"):
            value = getattr(self, key)
            if value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        for key in ("cache_bytes", "seed"):
            value = getattr(self, key)
            if value < 0:
                raise ValueError(f"{key} must be non-negative, got {value}")
        validate_cells(self.cells)
        for key, (name, known) in _CHOICES.items():
            value = getattr(self, key)
            if value not in known:
                raise ValueError(f"unknown {name} {value!r}; expected one of "
                                 f"{', '.join(known)}")
        _variant_list(self)


_INT_KEYS = {"degree", "iterations", "repeats", "simd_lanes", "cache_bytes",
             "seed"}


def _coerce(key: str, value: str):
    """A config value from its text form, typed as the `Config` field."""
    if key == "cells":
        return _parse_cells(value)
    return int(value) if key in _INT_KEYS else value


def parse_config(text: str, base: Config = None) -> Config:
    """Parse key=value lines ('#' comments and blanks ignored) on top of
    `base`.  Unknown keys or malformed lines raise ValueError."""
    cfg = base or Config()
    known = {f.name for f in fields(Config)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)


def _parse_cells(value: str) -> tuple:
    parts = [p for p in value.split(",") if p.strip()]
    if len(parts) == 1:
        n = int(parts[0])
        return (n, n, n)
    if len(parts) != 3:
        raise ValueError(f"cells wants 1 or 3 integers, got {value!r}")
    return tuple(int(p) for p in parts)


def _variant_list(cfg: Config) -> list:
    names = (list(VARIANTS) if cfg.variant == "all"
             else [v.strip() for v in cfg.variant.split(",") if v.strip()])
    for name in names:
        if name not in VARIANTS:
            raise ValueError(f"unknown solver variant {name!r}; expected "
                             f"one of {', '.join(VARIANTS)} or 'all'")
    if not names:
        raise ValueError("empty variant list")
    return names


def _write_csv(cfg: Config, header, rows) -> None:
    """One header row, comma separator, '.' decimal (repr of Python floats)."""
    sink = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if cfg.out:
            sink.close()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bench(cfg: Config) -> int:
    variants = _variant_list(cfg)
    header = ["bp", "degree", "cells", "n_dofs", "variant", "iterations",
              "wall_time_s", "throughput_dofs_per_s", "final_residual",
              "model_reads_per_dof", "model_writes_per_dof"]
    rows = []
    walls = {}
    for variant in variants:
        rec = run_benchmark(cfg.bp, cfg.degree, cfg.cells, variant,
                            iterations=cfg.iterations, repeats=cfg.repeats,
                            geometry=GeometryVariant(cfg.geometry),
                            numbering=cfg.numbering,
                            traversal=cfg.traversal, simd_lanes=cfg.simd_lanes)
        walls[variant] = rec.wall_time
        rows.append([rec.bp_id, rec.degree,
                     "x".join(str(c) for c in rec.cells), rec.n_dofs,
                     rec.variant, rec.iterations, repr(rec.wall_time),
                     _fmt(rec.throughput), _fmt(rec.final_residual),
                     _fmt(rec.reads_per_dof), _fmt(rec.writes_per_dof)])
    _write_csv(cfg, header, rows)
    if "pcg" in walls and "combined_pcg" in walls:
        ratio = walls["combined_pcg"] / walls["pcg"]
        if ratio > 1.0:
            print(f"warning: combined_pcg wall time is {ratio:.2f}x pcg on "
                  "this host (informational; the transfer advantage shows in "
                  "the cache sweep, not in this reference build's timings)",
                  file=sys.stderr)
    return 0


def _locality_setup(cfg: Config, numbering: str):
    _, handler, plan = discretize(
        BENCHMARK_PROBLEMS[cfg.bp], cfg.degree, cfg.cells, deform=0.05,
        numbering=numbering, traversal=cfg.traversal, simd_lanes=cfg.simd_lanes)
    return handler, plan


def cmd_liveliness(cfg: Config) -> int:
    numberings = (("default", "optimized") if cfg.numbering == "both"
                  else (cfg.numbering,))
    header = ["numbering", "distance", "cumulative_fraction"]
    rows = []
    for numbering in numberings:
        handler, plan = _locality_setup(cfg, numbering)
        report = liveliness(compute_range_schedule(handler, plan))
        print(f"{numbering}: {report.n_ranges} ranges over {report.n_batches} "
              f"batches, same-batch fraction {report.same_batch_fraction:.3f}",
              file=sys.stderr)
        for dist, frac in zip(report.cdf_distances, report.cdf_fractions):
            rows.append([numbering, int(dist), repr(float(frac))])
    _write_csv(cfg, header, rows)
    return 0


def cmd_cachesweep(cfg: Config) -> int:
    variants = _variant_list(cfg)
    if len(variants) != 1:
        raise ValueError("cachesweep traces a single solver variant; "
                         f"got {cfg.variant!r}")
    op, b, minv = assemble_problem(
        cfg.bp, cfg.degree, cfg.cells, geometry=GeometryVariant(cfg.geometry),
        numbering=cfg.numbering, traversal=cfg.traversal,
        simd_lanes=cfg.simd_lanes)
    recorder = AccessRecorder()
    solved = solve(variants[0], op, b, minv=minv, recorder=recorder,
                   config=SolverConfig(fixed_iterations=cfg.iterations))
    # per iteration run (s-step runs whole blocks); a zero b runs and records none
    capacities = sorted(set(SWEEP_CAPACITIES) | {cfg.cache_bytes})
    header = ["capacity_bytes", "loads_per_dof", "stores_per_dof",
              "vector_loads_per_dof", "vector_stores_per_dof",
              "metadata_loads_per_dof", "metadata_stores_per_dof"]
    rows = []
    for capacity in capacities:
        res = replay_cache(recorder, CacheModel(capacity), op.n_dofs,
                           max(solved.iterations, 1))
        rows.append([capacity, repr(res.loads_per_dof), repr(res.stores_per_dof),
                     repr(res.vector_loads_per_dof),
                     repr(res.vector_stores_per_dof),
                     repr(res.metadata_loads_per_dof),
                     repr(res.metadata_stores_per_dof)])
    _write_csv(cfg, header, rows)
    return 0


def cmd_transfer_model(cfg: Config) -> int:
    header = ["variant", "s", "vector_reads_per_dof", "vector_writes_per_dof",
              "matvec_reads_per_dof", "matvec_writes_per_dof",
              "total_reads_per_dof", "total_writes_per_dof"]
    rows = []
    table = [("cg", None), ("pcg", None), ("pipelined", None),
             ("sstep", 2), ("sstep", 4), ("sstep", 6),
             ("combined_cg", None), ("combined_pcg", None), ("matvec", None)]
    for variant, s in table:
        pred = predict_transfer(variant, s=s)
        rows.append([variant, "" if s is None else s,
                     _fmt(pred.vector_reads), _fmt(pred.vector_writes),
                     _fmt(pred.matvec_reads), _fmt(pred.matvec_writes),
                     _fmt(pred.reads_per_dof), _fmt(pred.writes_per_dof)])
    _write_csv(cfg, header, rows)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_oracle(cfg: Config):
    """Matrix-free apply against an explicit-matrix oracle, plus tensor-kernel
    and manufactured-solution identities."""
    checks = []
    rng = np.random.default_rng(cfg.seed)

    op, b, minv = assemble_problem("BP3", 2, (2, 2, 2))
    n = op.n_dofs
    A = np.zeros((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[:] = 0.0
        e[j] = 1.0
        A[:, j] = op.apply(e)
    asym = float(abs(A - A.T).max() / abs(A).max())
    checks.append(("operator-symmetry", asym <= 1e-12,
                   f"rel asymmetry {asym:.2e}"))

    x_dense = np.linalg.solve(A, b)
    try:
        res = solve("cg", op, b, config=SolverConfig(tolerance=1e-12))
        err = float(np.linalg.norm(res.x - x_dense)
                    / np.linalg.norm(x_dense))
        checks.append(("cg-matches-dense", err <= 1e-9,
                       f"rel solution error {err:.2e}"))
    except SolverBreakdown as exc:
        checks.append(("cg-matches-dense", False, f"breakdown: {exc}"))

    quad = gauss_quadrature(5)
    basis = lagrange_basis(3, quad)
    u = rng.standard_normal((4, 4, 4, 4))
    plain = evaluate_values(basis, u, even_odd=False)
    fast = evaluate_values(basis, u, even_odd=True)
    eo = float(abs(plain - fast).max() / abs(plain).max())
    checks.append(("even-odd-equivalence", eo <= 1e-14, f"rel error {eo:.2e}"))

    # apply's columns against the matrix assembled by per-cell quadrature,
    # which shares no sweep code with the cell loop's kernels
    assembled = op.assemble_sparse().toarray()
    gap = float(abs(A - assembled).max() / abs(assembled).max())
    checks.append(("apply-matches-assembled", gap <= 1e-12,
                   f"rel difference {gap:.2e}"))

    try:
        op3, b3, minv3 = assemble_problem("BP3", 3, (3, 3, 3))
        res3 = solve("pcg", op3, b3, minv=minv3,
                     config=SolverConfig(tolerance=1e-10))
        exact = 3.0 * math.pi ** 2 / 8.0
        en = float(res3.x @ b3)
        err = abs(en - exact) / exact
        checks.append(("manufactured-energy", err <= 1e-3,
                       f"x.b = {en:.6f} vs {exact:.6f} (rel {err:.2e})"))
    except SolverBreakdown as exc:
        checks.append(("manufactured-energy", False, f"breakdown: {exc}"))
    return checks


def _suite_scalar_trace(cfg: Config):
    """Combined PCG must reproduce standard PCG's alpha/beta sequences."""
    op, b, minv = assemble_problem("BP3", 3, (2, 2, 2))
    cfgs = SolverConfig(fixed_iterations=10)
    ref = solve("pcg", op, b, minv=minv, config=cfgs)
    fused = solve("combined_pcg", op, b, minv=minv, config=cfgs)
    checks = []
    for scalar in ("alpha", "beta"):
        worst = 0.0
        for h_ref, h_fused in zip(ref.history, fused.history):
            denom = abs(h_ref[scalar]) or 1.0
            worst = max(worst, abs(h_ref[scalar] - h_fused[scalar]) / denom)
        checks.append((f"{scalar}-match", worst <= 1e-8,
                       f"max rel deviation {worst:.2e} over 10 iterations"))
    return checks


def _suite_schedule(cfg: Config):
    """Structural soundness of the pre/post range schedule and the optimized
    renumbering permutation."""
    checks = []
    for numbering in ("default", "optimized"):
        handler, plan = _locality_setup(cfg, numbering)
        sched = compute_range_schedule(handler, plan)
        pre_batch = np.full(sched.n_ranges, -1)
        post_batch = np.full(sched.n_ranges, -1)
        pre_dupes = post_dupes = 0
        for batch, ranges in enumerate(sched.pre_schedule):
            for r in ranges:
                pre_dupes += pre_batch[r] >= 0
                pre_batch[r] = batch
        for batch, ranges in enumerate(sched.post_schedule):
            for r in ranges:
                post_dupes += post_batch[r] >= 0
                post_batch[r] = batch
        covered = bool((pre_batch >= 0).all() and (post_batch >= 0).all()
                       and pre_dupes == 0 and post_dupes == 0)
        checks.append((f"coverage-{numbering}", covered,
                       f"{sched.n_ranges} ranges, {pre_dupes + post_dupes} dupes"))
        ordered = bool((pre_batch <= sched.first_touch_batch).all()
                       and (post_batch >= sched.last_touch_batch).all()
                       and (sched.first_touch_batch
                            <= sched.last_touch_batch).all())
        checks.append((f"window-order-{numbering}", ordered,
                       "pre <= first touch <= last touch <= post"))
    handler, plan = _locality_setup(cfg, "optimized")
    perm = handler.permutation
    valid = perm is not None and bool(
        (np.sort(perm) == np.arange(handler.n_dofs)).all())
    checks.append(("permutation-bijective", valid,
                   f"{handler.n_dofs} dofs"))
    cells = np.sort(np.concatenate([np.asarray(b) for b in plan.batches]))
    checks.append(("batches-cover-cells",
                   bool((cells == np.arange(handler.n_cells)).all()),
                   f"{handler.n_cells} cells in {plan.n_batches} batches"))
    return checks


def _suite_recurrence(cfg: Config):
    """Recurred residual gamma against the true residual ||b - A x_k||^2."""
    op, b, minv = assemble_problem("BP3", 3, (4, 4, 4))
    gamma0 = float(b @ b)
    bnorm = math.sqrt(gamma0)
    worst = 0.0
    for k in range(1, 21):
        res = solve("cg", op, b, config=SolverConfig(fixed_iterations=k))
        recur_sq = (res.residual * bnorm) ** 2
        true_sq = float(np.sum((b - op.apply(res.x)) ** 2))
        worst = max(worst, abs(recur_sq - true_sq))
    ok = worst <= 1e-6 * gamma0
    return [("gamma-drift", ok,
             f"max |gamma - ||r||^2| = {worst:.2e} vs bound {1e-6 * gamma0:.2e}")]


VERIFY_SUITES = (
    ("oracle-equivalence", _suite_oracle),
    ("scalar-trace", _suite_scalar_trace),
    ("schedule-soundness", _suite_schedule),
    ("recurrence-fidelity", _suite_recurrence),
)


def cmd_verify(cfg: Config, name_filter: str = "", mutate: str = "") -> int:
    suites = [(name, fn) for name, fn in VERIFY_SUITES
              if name_filter in name]
    if not suites:
        raise ValueError(f"--filter {name_filter!r} matches no suite; have "
                         f"{', '.join(name for name, _ in VERIFY_SUITES)}")
    restore = None
    if mutate == "sign-flip":
        # fault-injection self-test: flip the sign of the gradient
        # integration that every operator built from here on binds into its
        # cell loop, and expect the oracle to notice
        real = LanesKernels.calls

        def flipped(kernels, kernel):
            calls = real(kernels, kernel)
            if kernel == "integrate_gradients":
                out = kernels.integrated_gradients
                calls += ((np.negative, (out,), out),)
            return calls

        LanesKernels.calls = flipped
        restore = real
    elif mutate:
        raise ValueError(f"unknown mutation {mutate!r}; have sign-flip")
    failures = 0
    try:
        for name, fn in suites:
            try:
                results = fn(cfg)
            except Exception as exc:  # a crashed suite is a failed property
                results = [("completed", False, f"{type(exc).__name__}: {exc}")]
            for prop, ok, detail in results:
                status = "PASS" if ok else "FAIL"
                print(f"{status} {name}/{prop}: {detail}")
                failures += not ok
    finally:
        if restore is not None:
            LanesKernels.calls = restore
    if failures:
        print(f"{failures} propert{'y' if failures == 1 else 'ies'} failed",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for f in fields(Config):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None,
                            help=f"override config key {f.name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcg",
        description="Matrix-free high-order FEM solver benchmarks and "
                    "locality analysis.",
        epilog="MFCG_THREADS is reserved and ignored: this reference build "
               "runs sequentially.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "run the self-verification suites"),
            ("bench", "time solver variants on a benchmark problem"),
            ("liveliness", "range liveliness CDF for a numbering"),
            ("cachesweep", "simulated RAM traffic vs cache capacity"),
            ("transfer-model", "analytic reads/writes per DoF table")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "verify":
            p.add_argument("--filter", default="",
                           help="run only suites whose name contains this")
            p.add_argument("--mutate", default="",
                           help="fault-injection self-test (sign-flip)")
    return parser


def _config_from_args(args) -> Config:
    cfg = Config()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), cfg)
    overrides = {f.name: _coerce(f.name, getattr(args, f.name)) for f in fields(Config)
                 if getattr(args, f.name, None) is not None}
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.filter, args.mutate)
        if args.command == "bench":
            return cmd_bench(cfg)
        if args.command == "liveliness":
            return cmd_liveliness(cfg)
        if args.command == "cachesweep":
            return cmd_cachesweep(cfg)
        if args.command == "transfer-model":
            return cmd_transfer_model(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
