"""The solvers against the pre-skeleton solvers kept in `_oracle_solvers`:
every variant must reproduce the oracle's iterates, scalars, counts, region
tags and access traces exactly, traced and untraced, including fixed runs
long enough to freeze past convergence."""

import numpy as np
import pytest

import _oracle_solvers as oracle
from mfcg import solvers
from mfcg.bench import assemble_problem
from mfcg.trace import AccessRecorder

PROBLEMS = {
    "BP1": dict(bp_id="BP1", degree=2, cells=(2, 2, 2)),
    "BP2": dict(bp_id="BP2", degree=2, cells=(2, 2, 1)),
    "BP3": dict(bp_id="BP3", degree=3, cells=(2, 2, 2)),
    "BP5-optimized": dict(bp_id="BP5", degree=3, cells=(2, 2, 2),
                          numbering="optimized"),
}

CONFIGS = {
    "default": {},
    "fixed8": dict(fixed_iterations=8),
    "fixed150": dict(fixed_iterations=150),
    "s3-fixed9": dict(s=3, fixed_iterations=9),
}


@pytest.fixture(scope="module")
def problems():
    return {}


def _problem(problems, name):
    if name not in problems:
        spec = dict(PROBLEMS[name])
        problems[name] = assemble_problem(spec.pop("bp_id"), spec.pop("degree"),
                                          spec.pop("cells"), **spec)
    return problems[name]


def _run(module, variant, problem, config, traced):
    op, b, minv = problem
    rec = AccessRecorder() if traced else None
    res = module.solve(variant, op, b, minv=minv,
                       config=module.SolverConfig(**config), recorder=rec)
    return res, rec


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_bit_identical_to_oracle(problems, variant, problem, config, traced):
    prob = _problem(problems, problem)
    new, new_rec = _run(solvers, variant, prob, CONFIGS[config], traced)
    old, old_rec = _run(oracle, variant, prob, CONFIGS[config], traced)
    np.testing.assert_array_equal(new.x, old.x)
    assert new.history == old.history
    assert (new.iterations, new.residual, new.converged, new.matvecs,
            new.drift, new.variant) == (
        old.iterations, old.residual, old.converged, old.matvecs,
        old.drift, old.variant)
    assert list(new.region_seconds) == list(old.region_seconds)
    if not traced:
        return
    assert ([(s.name, s.sid, s.n_bytes, s.kind)
             for s in new_rec.streams.values()]
            == [(s.name, s.sid, s.n_bytes, s.kind)
                for s in old_rec.streams.values()])
    assert new_rec._tags == old_rec._tags
    new_cols, old_cols = new_rec.columns(), old_rec.columns()
    for field in new_cols._fields:
        np.testing.assert_array_equal(getattr(new_cols, field),
                                      getattr(old_cols, field), err_msg=field)


@pytest.mark.parametrize("variant,problem", [
    ("cg", "BP2"), ("pcg", "BP2"), ("pipelined", "BP2"), ("sstep", "BP2"),
    ("combined_cg", "BP2"), ("combined_pcg", "BP2")])
def test_long_fixed_runs_freeze(problems, variant, problem):
    # the 150-iteration comparisons above cover the stagnation freeze only if
    # the solvers reach it: a frozen step has alpha = 0 (sstep: a repeated
    # residual, since its rows carry no alpha)
    res, _ = _run(solvers, variant, _problem(problems, problem),
                  CONFIGS["fixed150"], False)
    rows = res.history
    if variant == "sstep":
        assert any(a["residual"] == b["residual"] for a, b in zip(rows, rows[1:]))
    else:
        assert any(row["alpha"] == 0.0 for row in rows)
