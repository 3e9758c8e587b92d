"""Command-line harness: config handling, subcommands, CSV contracts."""

import contextlib
import csv
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfcg.cli
import mfcg.tensor
from mfcg.bench import BENCHMARK_PROBLEMS
from mfcg.cli import Config, main, parse_config
from mfcg.mesh import GeometryVariant
from mfcg.solvers import VARIANTS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfig:
    # every key of Config, in its text form, as a config file holds it
    DEFAULT_TEXT = ("bp=BP5\ndegree=3\ncells=4,4,4\ngeometry=final_tensor_load\n"
                    "variant=cg\niterations=100\nrepeats=8\nnumbering=default\n"
                    "traversal=morton\nsimd_lanes=8\ncache_bytes=262144\nseed=0\n"
                    "out=\n")
    CUSTOM = Config(bp="BP2", degree=5, cells=(2, 4, 8), variant="all",
                    iterations=7, repeats=3, numbering="optimized",
                    traversal="lexicographic", simd_lanes=4,
                    cache_bytes=1 << 20, seed=42, out="/tmp/x.csv",
                    geometry="affine")
    CUSTOM_TEXT = ("bp=BP2\ndegree=5\ncells=2,4,8\ngeometry=affine\nvariant=all\n"
                   "iterations=7\nrepeats=3\nnumbering=optimized\n"
                   "traversal=lexicographic\nsimd_lanes=4\ncache_bytes=1048576\n"
                   "seed=42\nout=/tmp/x.csv\n")

    def test_round_trip_default(self):
        # parsed on top of a config that differs from the default in every
        # key, so that every key of the text must be read
        default = Config()
        assert all(getattr(self.CUSTOM, f.name) != getattr(default, f.name)
                   for f in fields(Config))
        assert parse_config(self.DEFAULT_TEXT, self.CUSTOM) == default

    def test_round_trip_custom(self):
        assert parse_config(self.CUSTOM_TEXT) == self.CUSTOM

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\ndegree=4  # trailing\n")
        assert cfg.degree == 4
        assert cfg.bp == Config().bp

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("order=3\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("degree 3\n")

    def test_cells_single_int(self):
        assert parse_config("cells=5").cells == (5, 5, 5)

    def test_cells_triple(self):
        assert parse_config("cells=1,2,3").cells == (1, 2, 3)

    def test_cells_bad_count(self):
        with pytest.raises(ValueError):
            parse_config("cells=1,2")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bp=BP3\ndegree=2\ncells=2\nvariant=cg\n"
                            "iterations=5\nrepeats=1\n")
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(["bench", "--config", str(cfg_file),
                              "--degree", "3", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("degree")] == "3"
        assert rows[0][header.index("bp")] == "BP3"


class TestUsageErrors:
    def test_unknown_bp(self, capsys):
        code, _, err = run_cli(["bench", "--bp", "BP9", "--cells", "2",
                                "--iterations", "2", "--repeats", "1"], capsys)
        assert code == 2
        assert "unknown benchmark problem" in err

    def test_unknown_variant(self, capsys):
        code, _, err = run_cli(["bench", "--variant", "gmres", "--cells", "2"],
                               capsys)
        assert code == 2
        assert "unknown solver variant" in err

    def test_unknown_geometry(self, capsys):
        code, _, err = run_cli(["bench", "--geometry", "curvy",
                                "--cells", "2"], capsys)
        assert code == 2
        assert "unknown geometry" in err

    def test_bad_flag(self, capsys):
        assert main(["bench", "--no-such-flag"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command,count", [("cachesweep", "0"),
                                               ("bench", "0"), ("bench", "-3")])
    def test_iterations_below_one_is_usage_error(self, command, count, capsys):
        # cachesweep used to die dividing by zero; bench ran 500 or 0
        code, _, err = run_cli([command, "--cells", "2", "--degree", "2",
                                "--variant", "cg", "--repeats", "1",
                                "--iterations", count], capsys)
        assert code == 2
        assert "iterations must be at least 1" in err

    def test_size_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(["bench", "--cells", "64", "--degree", "8",
                                "--bp", "BP4"], capsys)
        assert code == 2
        assert "size-too-large" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_repeats_below_one_is_usage_error(self, count, capsys):
        # bench used to run one repeat silently
        code, _, err = run_cli(["bench", "--cells", "2", "--degree", "2",
                                "--variant", "cg", "--iterations", "2",
                                "--repeats", count], capsys)
        assert code == 2
        assert "repeats must be at least 1" in err

    def test_huge_mesh_is_refused_before_allocating(self, capsys):
        # numpy used to fail first, asking for 7.11 PiB
        code, _, err = run_cli(["bench", "--cells", "99999", "--variant", "cg",
                                "--iterations", "1", "--repeats", "1"], capsys)
        assert code == 2
        assert "size-too-large" in err

    def test_invalid_cells_is_usage_error(self, capsys):
        # used to be refused as size-too-large, before the cells were checked
        code, _, err = run_cli(["bench", "--cells=-99999,-99999,4", "--variant",
                                "cg", "--iterations", "1", "--repeats", "1"], capsys)
        assert code == 2
        assert "cells_per_dim must be three integers >= 1" in err

    @pytest.mark.parametrize("cells", ["0", "2,0,2"])
    def test_cells_below_one_are_usage_errors(self, cells, capsys, monkeypatch):
        # verify used to exit 1, as a crashed schedule suite
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        for name in ("assemble_problem", "discretize", "run_benchmark"):
            monkeypatch.setattr(mfcg.cli, name, no_setup)
        code, out, err = run_cli(["verify", "--cells", cells, "--filter",
                                  "schedule"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cells_per_dim must be three integers >= 1")
        assert err.count("\n") == 1

    def test_negative_cache_bytes_is_usage_error(self, capsys, monkeypatch):
        # used to be refused by the cache model only after the traced solve
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before cache_bytes was checked")

        monkeypatch.setattr(mfcg.cli, "assemble_problem", no_setup)
        code, _, err = run_cli(["cachesweep", "--cells", "2", "--degree", "2",
                                "--variant", "cg", "--cache-bytes", "-5"], capsys)
        assert code == 2
        assert "cache_bytes must be non-negative, got -5" in err

    @pytest.mark.parametrize("command", ["verify", "liveliness", "bench"])
    @pytest.mark.parametrize("key", ["degree", "simd-lanes"])
    def test_degree_and_lanes_below_one_are_usage_errors(self, command, key, capsys,
                                                         monkeypatch):
        # verify --degree 0 used to exit 1, as a crashed schedule suite
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        for name in ("assemble_problem", "discretize", "run_benchmark"):
            monkeypatch.setattr(mfcg.cli, name, no_setup)
        code, out, err = run_cli([command, f"--{key}", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {key.replace('-', '_')} must be at least 1, got 0\n"

    @pytest.mark.parametrize("args,message", [
        (["verify", "--bp", "BP9"], "unknown benchmark problem 'BP9'"),
        (["verify", "--traversal", "zigzag", "--filter", "schedule"],
         "unknown traversal 'zigzag'"),
        (["verify", "--geometry", "bogus", "--filter", "schedule"],
         "unknown geometry 'bogus'"),
        (["liveliness", "--numbering", "reversed"], "unknown numbering 'reversed'"),
        (["bench", "--variant", "cg,gmres"], "unknown solver variant 'gmres'"),
    ])
    def test_unknown_names_are_usage_errors(self, args, message, capsys, monkeypatch):
        # verify used to exit 1 for --bp BP9 and --traversal zigzag, as a
        # crashed schedule suite, and 0 for --geometry bogus, which it never read
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        for name in ("assemble_problem", "discretize", "run_benchmark"):
            monkeypatch.setattr(mfcg.cli, name, no_setup)
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}; expected one of ")
        assert err.count("\n") == 1

    def test_huge_mesh_refused_on_the_locality_path(self, capsys):
        # liveliness used to report numpy's failure to allocate 7.11 PiB
        code, out, err = run_cli(["liveliness", "--cells", "99999"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: size-too-large: BP5 p=3 cells=(99999, 99999, 99999)")
        assert err.count("\n") == 1

    def test_negative_seed_is_usage_error(self, capsys):
        # used to fail the oracle suite inside the random generator
        code, _, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert code == 2
        assert "seed must be non-negative, got -1" in err

    @pytest.mark.parametrize("command", ["bench", "cachesweep"])
    def test_affine_geometry_runs(self, command, capsys):
        # the CLI's mesh used to be deformed for every geometry, so affine,
        # defined only on undeformed meshes, always exited 2
        code, out, err = run_cli([command, "--geometry", "affine", "--cells", "2",
                                  "--iterations", "4", "--repeats", "1"], capsys)
        assert code == 0, err
        assert out

    def test_cachesweep_needs_single_variant(self, capsys):
        code, _, err = run_cli(["cachesweep", "--variant", "all",
                                "--cells", "2", "--degree", "2",
                                "--iterations", "2"], capsys)
        assert code == 2
        assert "single solver variant" in err


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in out
        for suite in ("oracle-equivalence", "scalar-trace",
                      "schedule-soundness", "recurrence-fidelity"):
            assert suite in out

    def test_filter_selects_one_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--filter", "schedule"], capsys)
        assert code == 0
        assert "schedule-soundness" in out
        assert "oracle-equivalence" not in out

    def test_filter_no_match(self, capsys):
        code, _, err = run_cli(["verify", "--filter", "bogus"], capsys)
        assert code == 2
        assert "matches no suite" in err

    def test_mutation_fails_oracle_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--mutate", "sign-flip",
                                "--filter", "oracle"], capsys)
        assert code == 1
        assert "FAIL oracle-equivalence/cg-matches-dense" in out
        assert "FAIL oracle-equivalence/apply-matches-assembled" in out

    def test_subtracted_gradient_components_fail_assembled_check(self, capsys,
                                                                monkeypatch):
        # the gradient adjoint subtracting its components instead of adding
        # them, in every kernel bound from here on: apply no longer matches
        # the matrix that per-cell quadrature assembles
        real = mfcg.tensor._bind_gradients_t

        def subtracting(*args, **kwargs):
            calls, result = real(*args, **kwargs)
            return tuple((np.subtract, *call[1:]) if call[0] is np.add else call
                         for call in calls), result

        monkeypatch.setattr(mfcg.tensor, "_bind_gradients_t", subtracting)
        code, out, _ = run_cli(["verify", "--filter", "oracle"], capsys)
        assert code == 1
        assert "FAIL oracle-equivalence/apply-matches-assembled" in out

    def test_mutation_restores_cleanly(self, capsys):
        run_cli(["verify", "--mutate", "sign-flip", "--filter", "oracle"],
                capsys)
        code, out, _ = run_cli(["verify", "--filter", "oracle"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_mutation(self, capsys):
        code, _, err = run_cli(["verify", "--mutate", "drop-row"], capsys)
        assert code == 2
        assert "unknown mutation" in err


BENCH_ARGS = ["bench", "--bp", "BP3", "--degree", "2", "--cells", "2",
              "--variant", "cg,sstep", "--iterations", "5", "--repeats", "1"]


class TestBench:
    def test_smoke_row_contents(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(BENCH_ARGS + ["--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "bp"
        assert len(rows) == 2
        by_variant = {r[header.index("variant")]: r for r in rows}
        assert set(by_variant) == {"cg", "sstep"}
        for row in rows:
            assert float(row[header.index("throughput_dofs_per_s")]) > 0
            assert float(row[header.index("wall_time_s")]) > 0
        assert by_variant["sstep"][header.index("iterations")] == "8"

    def test_determinism_modulo_wall_time(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(BENCH_ARGS + ["--out", str(out1)], capsys)[0] == 0
        assert run_cli(BENCH_ARGS + ["--out", str(out2)], capsys)[0] == 0
        header1, rows1 = read_csv(out1)
        header2, rows2 = read_csv(out2)
        assert header1 == header2
        timing = {header1.index("wall_time_s"),
                  header1.index("throughput_dofs_per_s")}
        for r1, r2 in zip(rows1, rows2):
            for i, (a, b) in enumerate(zip(r1, r2)):
                if i not in timing:
                    assert a == b

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(BENCH_ARGS, capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("bp,degree,cells")

    def test_threads_env_is_noop(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(BENCH_ARGS + ["--out", str(out1)], capsys)
        monkeypatch.setenv("MFCG_THREADS", "16")
        run_cli(BENCH_ARGS + ["--out", str(out2)], capsys)
        header, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        timing = {header.index("wall_time_s"),
                  header.index("throughput_dofs_per_s")}
        for r1, r2 in zip(rows1, rows2):
            assert [v for i, v in enumerate(r1) if i not in timing] == \
                   [v for i, v in enumerate(r2) if i not in timing]


class TestLiveliness:
    def test_single_cell_one_row_full_cdf(self, tmp_path, capsys):
        out = tmp_path / "live.csv"
        code, _, _ = run_cli(["liveliness", "--cells", "1", "--degree", "2",
                              "--bp", "BP1", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["numbering", "distance", "cumulative_fraction"]
        assert rows == [["default", "0", "1.0"]]

    def test_paired_dominance(self, tmp_path, capsys):
        out = tmp_path / "live.csv"
        code, _, err = run_cli(["liveliness", "--cells", "8", "--degree", "3",
                                "--bp", "BP1", "--numbering", "both",
                                "--out", str(out)], capsys)
        assert code == 0
        assert "same-batch fraction" in err
        _, rows = read_csv(out)
        cdf = {"default": [], "optimized": []}
        for numbering, dist, frac in rows:
            cdf[numbering].append((int(dist), float(frac)))

        def value_at(steps, d):
            best = 0.0
            for dist, frac in steps:
                if dist <= d:
                    best = frac
            return best

        distances = sorted({d for steps in cdf.values() for d, _ in steps})
        for d in distances:
            assert value_at(cdf["optimized"], d) >= \
                value_at(cdf["default"], d) - 1e-12

    def test_bad_numbering(self, capsys):
        code, _, err = run_cli(["liveliness", "--cells", "2",
                                "--numbering", "reversed"], capsys)
        assert code == 2
        assert "unknown numbering" in err


class TestCachesweep:
    def test_monotone_loads(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["cachesweep", "--bp", "BP5", "--degree", "2",
                              "--cells", "3", "--variant", "cg",
                              "--iterations", "5", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        capacities = [int(r[0]) for r in rows]
        assert capacities == sorted(capacities)
        assert capacities[0] == 32 * 1024 and capacities[-1] == 64 * 1024 ** 2
        loads = [float(r[header.index("loads_per_dof")]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(loads, loads[1:]))

    def test_custom_capacity_included(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["cachesweep", "--bp", "BP5", "--degree", "2",
                              "--cells", "2", "--variant", "cg",
                              "--iterations", "3", "--cache-bytes", "100000",
                              "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert any(int(r[0]) == 100000 for r in rows)

    def test_sstep_normalised_by_iterations_run(self, tmp_path, capsys):
        # s=4 runs whole blocks, so 10 requested iterations run 12; the
        # rows used to divide by 10 and read 12/10 of the 12-iteration rows
        rows = {}
        for count in ("10", "12"):
            out = tmp_path / f"sweep{count}.csv"
            code, _, _ = run_cli(["cachesweep", "--bp", "BP3", "--degree", "2",
                                  "--cells", "3", "--variant", "sstep",
                                  "--iterations", count, "--out", str(out)],
                                 capsys)
            assert code == 0
            rows[count] = read_csv(out)[1]
        assert rows["10"] == rows["12"]

    def test_zero_rhs_gives_zero_rows(self, tmp_path, capsys):
        # one p=1 cell has no interior DoF: b is zero and no iteration runs
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["cachesweep", "--degree", "1", "--cells", "1",
                              "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert rows and all(r[1:] == ["0.0"] * 6 for r in rows)


class TestTransferModelCsv:
    def test_table_contents(self, capsys):
        code, out, _ = run_cli(["transfer-model"], capsys)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        header, body = rows[0], rows[1:]
        assert len(body) == 9
        by_key = {(r[0], r[1]): r for r in body}
        cg = by_key[("cg", "")]
        assert cg[header.index("vector_reads_per_dof")] == "9"
        assert cg[header.index("total_reads_per_dof")] == "11"
        s6 = by_key[("sstep", "6")]
        assert s6[header.index("vector_reads_per_dof")] == "5.66667"
        assert by_key[("matvec", "")][header.index("matvec_reads_per_dof")] == "2"

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(["transfer-model"], capsys)
        _, out2, _ = run_cli(["transfer-model"], capsys)
        assert out1 == out2


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "MFCG_THREADS" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["bench", "--help"]) == 0
        assert "--config" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generated: every command under every small config works or fails fast

# the frozen CSV header of each command that writes one, as README.md states it
FROZEN_HEADERS = dict(re.findall(
    r"^`([a-z-]+)`:\n\n```\n(.+)\n```",
    (Path(__file__).parents[1] / "README.md").read_text(), re.M))

COMMANDS = (("verify",), ("verify", "--mutate", "sign-flip"), ("bench",),
            ("liveliness",), ("cachesweep",), ("transfer-model",))

# per Config key: its values inside a small size budget, as flag text
IN_RANGE = {
    "bp": st.sampled_from(sorted(BENCHMARK_PROBLEMS)),
    "degree": st.integers(1, 6).map(str),
    "cells": st.one_of(st.integers(1, 3).map(str),
                       st.lists(st.integers(1, 3), min_size=3, max_size=3)
                       .map(lambda c: ",".join(map(str, c)))),
    "geometry": st.sampled_from([v.value for v in GeometryVariant]),
    "variant": st.sampled_from(VARIANTS + ("all",)),
    "iterations": st.integers(1, 8).map(str),
    "repeats": st.integers(1, 2).map(str),
    "numbering": st.sampled_from(["default", "optimized", "both"]),
    "traversal": st.sampled_from(["lexicographic", "morton"]),
    "simd_lanes": st.integers(1, 8).map(str),
    "cache_bytes": st.integers(0, 1 << 20).map(str),
    "seed": st.integers(0, 2 ** 32 - 1).map(str),
}
# and one value out of its range
OUT_OF_RANGE = {"bp": "BP9", "degree": "0", "cells": "2,0,2", "geometry": "bogus",
                "variant": "gmres", "iterations": "0", "repeats": "0",
                "numbering": "reversed", "traversal": "zigzag", "simd_lanes": "0",
                "cache_bytes": "-1", "seed": "-1"}
# a small in-range config, the base of each key's explicit out-of-range example
SMALL = dict(bp="BP5", degree="2", cells="2", geometry="final_tensor_load",
             variant="cg", iterations="2", repeats="1", numbering="default",
             traversal="morton", simd_lanes="8", cache_bytes="262144", seed="0")


def _each_key_out_of_range(test):
    """`test` with one explicit example per key, that key out of its range:
    drawn, some keys' values would never be reached out of range."""
    for key in OUT_OF_RANGE:
        test = example(values=SMALL, bad=key)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True)
@_each_key_out_of_range
@given(values=st.fixed_dictionaries(IN_RANGE),
       bad=st.none() | st.sampled_from(sorted(OUT_OF_RANGE)))
def test_every_config_works_or_fails_fast(values, bad):
    if bad is not None:
        values = {**values, bad: OUT_OF_RANGE[bad]}
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, *flags])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        mutated = command[1:] == ("--mutate", "sign-flip")
        assert code in ((0, 1, 2) if mutated else (0, 2)), (command, out + err)
        if code == 2:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
        elif code == 0 and command[0] != "verify":
            assert out.splitlines()[0] == FROZEN_HEADERS[command[0]]
