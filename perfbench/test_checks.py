"""Tests of the benchmark itself, including negative controls: deliberately
wrong outputs must be counted as failed operations.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from checks import Tally  # noqa: E402
from workloads import CACHE_256K, WORKLOADS, Workload, analyse, run_round, solve_all  # noqa: E402

TINY = Workload("tiny", "BP5", 2, 3, "default", None, 4,
                (CACHE_256K // 64, CACHE_256K), energy_rtol=1e-2)


@pytest.fixture(scope="module")
def problem():
    return TINY.setup(TINY.deformation(0))


def test_round_on_correct_outputs_has_no_failures():
    tally = Tally()
    run_round(TINY, TINY.deformation(0), tally, 0)
    # six solves and the pcg/combined_pcg iteration comparison; per traced
    # variant: plain and traced solve, summary and one replay per capacity
    assert (tally.attempted, tally.failed) == (6 + 1 + 2 * (3 + 2), 0)


def test_sign_flipped_solution_counts_as_failure(problem, monkeypatch):
    real = workloads.solve

    def flipped(variant, *args, **kwargs):
        res = real(variant, *args, **kwargs)
        if variant == "pcg":
            res.x = -res.x
        return res
    monkeypatch.setattr(workloads, "solve", flipped)
    tally = Tally()
    solve_all(TINY, problem, tally)
    assert tally.failed == 1
    assert all(msg.startswith("solve pcg:") for msg in tally.messages)


def test_non_monotone_replay_row_counts_as_failure(problem, monkeypatch):
    real = workloads.replay_cache

    def rising(recorder, model, n_dofs, n_iterations):
        row = real(recorder, model, n_dofs, n_iterations)
        if model.capacity_bytes == CACHE_256K:
            row = dataclasses.replace(row, loads_per_dof=row.loads_per_dof + 1e6)
        return row
    monkeypatch.setattr(workloads, "replay_cache", rising)
    tally = Tally()
    analyse(TINY, problem, tally)
    assert tally.failed == 2  # the top row of each traced variant
    assert all("loads rise" in msg for msg in tally.messages)


def test_raising_operation_counts_as_failure():
    tally = Tally()
    assert tally.run("divide", lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("count", [0, -3, 6])
def test_iteration_counts_below_one_or_off_the_sstep_block_are_rejected(count):
    with pytest.raises(ValueError):
        dataclasses.replace(TINY, fixed_iterations=count)
    with pytest.raises(ValueError):
        dataclasses.replace(TINY, analysis_iterations=count)


def test_every_layer_metric_names_an_end_to_end_metric_it_moves():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.MOVES)
    assert set(layers.MOVES.values()) <= {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("k", range(6))
def test_iteration_counts_are_compared_whatever_the_variant_order(problem, k):
    tally = Tally()
    solve_all(TINY, problem, tally, k)
    assert (tally.attempted, tally.failed) == (6 + 1, 0)


def test_traced_run_counts_failed_combined_solves_instead_of_crashing(monkeypatch):
    real = workloads.solve

    def failing(variant, *args, **kwargs):
        if variant.startswith("combined"):
            raise RuntimeError("deliberate")
        return real(variant, *args, **kwargs)
    monkeypatch.setattr(workloads, "solve", failing)
    tally = Tally()
    values, _ = layers.traced_run(TINY, TINY.deformation(0), 1, tally)
    assert tally.failed >= 2
    assert "operator.callback_s" not in values
    assert values["operator.apply_s"] > 0


def test_set_up_time_outside_the_spans_counts_as_failure(monkeypatch):
    real = layers.compose_setup

    def slow(*args):
        time.sleep(0.05)  # work in the set-up that no span covers
        return real(*args)
    monkeypatch.setattr(layers, "compose_setup", slow)
    tally = Tally()
    layers.traced_run(TINY, TINY.deformation(0), 1, tally)
    assert [m for m in tally.messages if m.startswith("setup spans:")]
