"""Correctness checks for benchmark outputs, and the tally that turns them
into the attempted / failed counts of a run.

Every check recomputes what it judges independently of the solver's own
recurrences: residuals come from a fresh operator application, the energy
from the manufactured solution's closed form, cache monotonicity from the
replayed rows themselves.  A check returns a list of failure messages; an
empty list is a pass.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# x^T b of the manufactured BP5 solution u = prod sin(pi x_i) on the unit
# cube: the energy integral of -lap u = 3 pi^2 u against u.
LAPLACE_ENERGY = 3.0 * math.pi ** 2 / 8.0


class Tally:
    """Counts operations attempted and failed.  An operation fails when it
    raises or when any of its checks reports a message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, name: str, failures) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{name}: {msg}" for msg in failures)
            for msg in failures:
                print(f"FAIL {name}: {msg}", file=sys.stderr)
        return not failures

    def run(self, name: str, operation, check=lambda result: []):
        """Run `operation()`, check its result, and record the outcome.
        Returns the result, or None when the operation raised."""
        try:
            result = operation()
        except Exception as err:  # any raise is a failed operation
            self.record(name, [f"raised {type(err).__name__}: {err}"])
            return None
        self.record(name, check(result))
        return result


def true_residual(op, b: np.ndarray, x: np.ndarray) -> float:
    """||b - A x|| / ||b|| from a fresh operator application."""
    return float(np.linalg.norm(b - op.apply(x)) / np.linalg.norm(b))


def check_converged(true_res: float, tolerance: float) -> list:
    """A solve to tolerance: the recomputed residual meets the tolerance
    (with 1 % slack for the recurrence/true-residual gap)."""
    if not true_res <= 1.01 * tolerance:
        return [f"true residual {true_res:.3e} above tolerance {tolerance:.1e}"]
    return []


def check_energy(x: np.ndarray, b: np.ndarray, expected: float,
                 rtol: float) -> list:
    """x^T b approximates the manufactured solution's energy."""
    energy = float(x @ b)
    err = abs(energy - expected) / expected
    if not err <= rtol:
        return [f"x.b = {energy!r} is {err:.2e} off {expected!r} "
                f"(allowed {rtol:.0e})"]
    return []


def check_fixed_residual(reported: float, true_res: float, tolerance: float,
                         rtol: float = 1e-6) -> list:
    """A fixed-length run: the reported residual matches the recomputed one.
    Once the recurrence has stagnated below the tolerance the two part ways
    in roundoff, so there the recomputed residual must meet the tolerance
    instead."""
    if reported < tolerance:
        if not true_res <= tolerance:
            return [f"stagnated at reported {reported:.3e} but true "
                    f"residual {true_res:.3e} above {tolerance:.1e}"]
        return []
    if not abs(reported - true_res) <= rtol * true_res:
        return [f"reported residual {reported!r} does not match "
                f"recomputed {true_res!r}"]
    return []


def check_equal(what: str, got, expected) -> list:
    if got != expected:
        return [f"{what}: {got!r} != {expected!r}"]
    return []


def check_identical(x: np.ndarray, reference: np.ndarray) -> list:
    """Tracing must not change the arithmetic: bit-identical solutions."""
    if not np.array_equal(x, reference):
        diff = float(np.max(np.abs(x - reference)))
        return [f"traced solution differs from untraced (max |diff| {diff:.3e})"]
    return []


def check_monotone_loads(capacities, loads) -> list:
    """RAM loads of an LRU cache never grow with capacity (LRU inclusion).
    `capacities` must be increasing."""
    failures = []
    for k in range(1, len(loads)):
        if loads[k] > loads[k - 1]:
            failures.append(f"loads rise from {loads[k - 1]!r} at "
                            f"{capacities[k - 1]} B to {loads[k]!r} at "
                            f"{capacities[k]} B")
    return failures


def check_fewer_loads(combined: float, baseline: float, capacity: int) -> list:
    """The merged solver loads fewer vector doubles than its unmerged twin."""
    if not combined < baseline:
        return [f"combined vector loads {combined!r} not below {baseline!r} "
                f"at {capacity} B"]
    return []
