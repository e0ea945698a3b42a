import concurrent.futures
import csv
import dataclasses
import filecmp
import io
import json
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import pomsim
from pomsim import cli
from pomsim.cli import EXIT_INTERNAL, EXIT_USAGE, main
from pomsim.config import schedule_from_dict
from pomsim.errors import ConfigError
from pomsim.metrics import ComparisonDeltas, compare
from pomsim.reward_curve import base_reward, calibrate_schedule, cutoff_factor, reward
from pomsim.simulator import RunSummary, read_series_csv


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "schedule": {
            "landmarks": {"peak_d": 1.75, "half_d": 2.20, "tenth_d": 2.37, "r_max": 9.0}
        },
        "horizon": 150,
        "seed": 3,
        "population": {
            "explicit": [
                {"id": "a", "hashrate": 10.0, "unit_cost": 0.0},
                {"id": "b", "hashrate": 30.0, "unit_cost": 0.0},
            ]
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCurve:
    def test_landmark_table(self, capsys):
        rc = main(["curve", "--landmarks", "1.75", "2.20", "2.37", "--r-max", "9.0",
                   "--range", "0", "3", "--step", "0.25"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert lines[0] == "d,base,cutoff_factor,reward"
        assert len(lines) == 14  # header + 13 grid points
        # verification table goes to stderr and reports the landmark ratios
        assert "landmark verification" in err
        assert "found d_star=1.75\n" in err

    def test_landmark_table_at_another_scale(self, capsys):
        rc = main(["curve", "--landmarks", "1750", "2200", "2370",
                   "--range", "0", "3000", "--step", "250"])
        assert rc == 0
        assert "found d_star=1750\n" in capsys.readouterr().err

    def test_landmark_table_below_the_old_bracket_end(self, capsys):
        # the peak bracket ends below 1e-12; its lower end scales with it
        rc = main(["curve", "--landmarks", "1.75e-13", "2.2e-13", "2.37e-13",
                   "--range", "0", "3e-13", "--step", "1e-14"])
        assert rc == 0
        assert "found d_star=1.75e-13\n" in capsys.readouterr().err

    @pytest.mark.parametrize("hi,step,rows,last", [
        ("1000", "0.1", 10_001, "1000.0"),
        ("3", "0.01", 301, "3.0"),
    ])
    def test_grid_ends_at_the_range_end(self, hi, step, rows, last, capsys):
        rc = main(["curve", "--params", "1", "2", "1", "--range", "0", hi, "--step", step])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + rows
        assert lines[-1].split(",")[0] == last

    @pytest.mark.parametrize("cap,rc", [(4, 0), (3, EXIT_USAGE)])
    def test_row_cap(self, cap, rc, monkeypatch, capsys):
        # range 0..3 at step 1 is 4 rows
        monkeypatch.setattr(cli, "MAX_CURVE_ROWS", cap)
        assert main(["curve", "--params", "1", "2", "1", "--range", "0", "3", "--step", "1"]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert not out and err == "error: range/step give more than 3 rows\n"
        else:
            assert len(out.splitlines()) == 1 + cap

    def test_single_row_when_step_exceeds_range(self, capsys):
        rc = main(["curve", "--params", "1.0", "2.0", "1.0",
                   "--range", "1.0", "1.5", "--step", "5.0"])
        assert rc == 0
        out, _ = capsys.readouterr()
        assert len(out.strip().splitlines()) == 2

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "curve.csv"
        rc = main(["curve", "--params", "1.0", "2.0", "1.0", "--out", str(dest)])
        assert rc == 0
        assert dest.read_text().startswith("d,base,cutoff_factor,reward")

    def test_bad_param_count(self, capsys):
        rc = main(["curve", "--params", "1.0", "2.0"])
        assert rc == EXIT_USAGE
        assert "needs A B SCALE" in capsys.readouterr().err

    def test_invalid_range(self, capsys):
        rc = main(["curve", "--params", "1.0", "2.0", "1.0", "--range", "2", "1"])
        assert rc == EXIT_USAGE

    def test_invalid_params_exit_code(self, capsys):
        # a >= b describes no schedule: a usage error, like every bad argument
        rc = main(["curve", "--params", "2.0", "1.0", "1.0"])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_sweep_outputs(self, small_config, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [3, 4]
        assert agg["median_mean_hashrate"] == pytest.approx(40.0)
        for seed in (3, 4):
            assert (out / f"seed_{seed}" / "blocks.csv").is_file()
            summary = json.loads((out / f"seed_{seed}" / "summary.json").read_text())
            assert summary["seed"] == seed
            assert summary["config_digest"] == agg["config_digest"]

    def test_result_files_hold_one_key_per_summary_field(self, small_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)]) == 0
        fields = {f.name for f in dataclasses.fields(RunSummary)}
        summary = json.loads((out / "seed_3" / "summary.json").read_text())
        assert set(summary) == fields | {"seed", "config_digest"}
        agg = json.loads((out / "aggregate.json").read_text())
        assert {k for k in agg if k.startswith("median_")} == {f"median_{f}" for f in fields}
        assert set(agg) - {f"median_{f}" for f in fields} == {"config_digest", "seeds", "runs"}
        assert agg["median_burn_in"] == 30.0

    def test_deterministic_across_invocations(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        assert filecmp.cmp(a / "seed_3" / "blocks.csv", b / "seed_3" / "blocks.csv", shallow=False)
        assert (a / "seed_3" / "summary.json").read_text() == (b / "seed_3" / "summary.json").read_text()

    def test_base_seed_override(self, small_config, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["run", "--config", str(small_config), "--base-seed", "9", "--out", str(out)])
        assert rc == 0
        assert (out / "seed_9").is_dir()

    def test_zero_seeds_is_usage_error(self, small_config, tmp_path, capsys):
        rc = main(["run", "--config", str(small_config), "--seeds", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert "cannot load config" in capsys.readouterr().err

    def test_non_integer_thread_count_is_usage_error(self, small_config, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("POM_SIM_THREADS", "abc")
        out = tmp_path / "o"
        rc = main(["run", "--config", str(small_config), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "POM_SIM_THREADS" in err and "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_thread_count_is_usage_error(self, threads, small_config, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setenv("POM_SIM_THREADS", threads)
        out = tmp_path / "o"
        rc = main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "POM_SIM_THREADS" in err and f"'{threads}'" in err
        assert not out.exists()

    def test_worker_pool_never_exceeds_the_seeds(self, small_config, tmp_path, monkeypatch):
        pools = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("POM_SIM_THREADS", "5000")
        out = tmp_path / "o"
        assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)]) == 0
        assert pools == [2]
        assert (out / "seed_4" / "blocks.csv").is_file()

    def test_worker_pool_writes_the_serial_tree(self, small_config, tmp_path, monkeypatch):
        # two real worker processes for three seeds
        trees = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("POM_SIM_THREADS", threads)
            out = tmp_path / f"threads_{threads}"
            argv = ["run", "--config", str(small_config), "--seeds", "3", "--out", str(out)]
            assert main(argv) == 0
            trees[threads] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
        assert set(trees["2"]) == {"aggregate.json"} | {
            f"seed_{s}/{name}" for s in (3, 4, 5) for name in ("blocks.csv", "summary.json")
        }
        assert trees["2"] == trees["1"]

    def test_a_serial_run_loads_no_pool_module(self, small_config, tmp_path):
        # a fresh interpreter: the pool tests load these modules into this one
        out = tmp_path / "o"
        argv = ["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)]
        code = (
            "import sys, pomsim, pomsim.cli\n"
            f"assert pomsim.cli.main({argv!r}) == 0\n"
            "pool = [m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]\n"
            "assert not pool, pool\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "POM_SIM_THREADS"}
        env["PYTHONPATH"] = str(Path(pomsim.__file__).parent.parent)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (out / "seed_4" / "blocks.csv").is_file()

    @staticmethod
    def dynamics_config(tmp_path, **overrides):
        cfg = {**json.loads(Path("configs/dynamics.json").read_text()), "horizon": 300}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg, **overrides}))
        return path

    @pytest.mark.parametrize("threads", ["1", "2"])  # "2": the seed fails in a pool worker
    def test_a_block_that_does_not_advance_the_clock_is_an_internal_error(
            self, threads, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POM_SIM_THREADS", threads)
        cfg = self.dynamics_config(tmp_path, rate_constant=1e300)
        argv = ["run", "--config", str(cfg), "--seeds", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("error: simulation failed: ")
        assert "does not advance the clock 7050.0 s at height 29\n" in err

    def test_an_infinite_block_interval_is_an_internal_error(self, tmp_path, capsys):
        cfg = self.dynamics_config(tmp_path, rate_constant=1e-320, horizon=1)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "error: simulation failed: block interval inf s does not advance the clock" in err
        assert not (out / "seed_0").exists()

    def test_a_solve_rate_that_underflows_is_an_internal_error(self, tmp_path, capsys):
        # kappa * 5e-324 underflows to 0: an infinite interval, not a ZeroDivisionError
        miner = {"id": "m0", "hashrate": 5e-324, "unit_cost": 0.0}
        cfg = self.dynamics_config(tmp_path, horizon=5, population={"explicit": [miner]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            "error: simulation failed: block interval inf s does not advance the clock 0.0 s "
            "at height 0\n"
        )
        assert not (out / "seed_0").exists()

    def test_a_non_finite_summary_is_an_internal_error(self, tmp_path, capsys):
        # intervals near 1e298 s: their stddev overflows, which the summary reports
        miner = {"hashrate": 1e-300, "unit_cost": 0.5}
        cfg = self.dynamics_config(tmp_path, population={"explicit": [miner]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "error: simulation failed: the interval series overflows its mean or stddev" in err
        assert "(largest magnitude 1.066" in err
        assert not (out / "seed_0" / "summary.json").exists()
        assert not (out / "seed_0" / "blocks.csv").exists()

    def test_an_overflowing_median_is_an_internal_error(self, tmp_path, capsys):
        # seeds 7 and 8 give mean intervals near 1.0e308 and 1.2e308: finite, but
        # the median of the two overflows
        cfg = self.dynamics_config(tmp_path, rate_constant=5e-310, horizon=1)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--seeds", "2", "--base-seed", "7", "--out", str(out)]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            f"error: {out / 'aggregate.json'}: median_mean_interval not finite\n"
        )
        assert not (out / "aggregate.json").exists()

    def test_unknown_key_names_field_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schedule": {"a": 1.0, "b": 2.0},
            "horizon": 10, "seed": 0, "horizzon": 5,
        }))
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert "horizzon" in capsys.readouterr().err


class TestCompare:
    def test_self_comparison_zero_deltas(self, small_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(out)]) == 0
        rc = main(["compare", str(out), str(out), "--burn-in", "30"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seed,")
        assert len(lines) == 4  # header + 2 seeds + median row
        for line in lines[1:]:
            fields = line.split(",")
            assert all(float(v) == 0.0 or float(v) == 1.0 for v in fields[1:])

    def test_an_overflowing_median_delta_is_an_internal_error(self, tmp_path, capsys):
        # seeds 7 and 8 at rate constant 5e-310 give mean intervals near 1.0e308 and
        # 1.2e308: each seed's delta_interval is finite, but their median overflows
        dirs, codes = [], []
        for name, rate_constant in [("base", 1.0), ("treat", 5e-310)]:
            (tmp_path / name).mkdir()
            cfg = TestRun.dynamics_config(tmp_path / name, rate_constant=rate_constant, horizon=1)
            dirs.append(str(tmp_path / name / "o"))
            argv = ["run", "--config", str(cfg), "--seeds", "2", "--base-seed", "7"]
            codes.append(main([*argv, "--out", dirs[-1]]))
        assert codes == [0, EXIT_INTERNAL]  # the treatment's aggregate.json overflows too
        capsys.readouterr()
        out = tmp_path / "compare.csv"
        assert main(["compare", *dirs, "--burn-in", "0", "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: median delta_interval not finite\n"
        assert not out.exists()

    def test_out_file(self, small_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        dest = tmp_path / "cmp.csv"
        assert main(["compare", str(out), str(out), "--out", str(dest)]) == 0
        assert dest.read_text().startswith("seed,")

    def test_seed_mismatch_lists_unmatched(self, small_config, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(a)]) == 0
        assert main(["run", "--config", str(small_config), "--base-seed", "4",
                     "--seeds", "2", "--out", str(b)]) == 0
        rc = main(["compare", str(a), str(b)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "seed mismatch" in err
        assert "3" in err and "5" in err

    def test_empty_directories(self, tmp_path, capsys):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        rc = main(["compare", str(tmp_path / "x"), str(tmp_path / "y")])
        assert rc == EXIT_USAGE


class TestCsvTables:
    """`pomsim curve` and `compare` format rows themselves; the csv module is the reference."""

    @staticmethod
    def csv_module_text(header, rows):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()

    @staticmethod
    def table(argv, to_file, tmp_path, capsys):
        """What `main(argv)` writes to `--out` (when `to_file`) or to stdout."""
        dest = tmp_path / "table.csv"
        assert main(argv + ["--out", str(dest)] if to_file else argv) == 0
        out = capsys.readouterr().out
        return dest.read_bytes().decode() if to_file else out

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("args", [
        ["--landmarks", "1.75", "2.2", "2.37", "--r-max", "9.0"],
        ["--params", "1", "4", "0.5"],
        ["--params", "1", "4", "0.5", "2.3", "0.05"],
    ], ids=["landmarks", "no-cutoff", "cutoff"])
    def test_curve(self, args, to_file, tmp_path, capsys):
        if args[0] == "--landmarks":
            schedule = calibrate_schedule(1.75, 2.2, 2.37, 9.0, b_ratio=4.0)
        else:
            schedule = schedule_from_dict(dict(zip(["a", "b", "scale", "d_co", "spread"],
                                                   map(float, args[1:]))))
        assert (schedule.cutoff is None) == (args[1:] == ["1", "4", "0.5"])
        rows = []
        for i in range(301):  # range 0..3 at step 0.01
            d = i * 0.01
            cf = cutoff_factor(d, schedule.cutoff) if schedule.cutoff else 1.0
            rows.append([d, base_reward(d, schedule.base), cf, reward(d, schedule)])
        want = self.csv_module_text(["d", "base", "cutoff_factor", "reward"], rows)
        argv = ["curve", *args, "--range", "0", "3", "--step", "0.01"]
        assert self.table(argv, to_file, tmp_path, capsys) == want

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("overrides", [
        {},
        {"large_threshold": 1e9},  # no large miner: each share ratio, and their median, are nan
    ], ids=["finite", "nan-median"])
    def test_compare(self, overrides, to_file, small_config, tmp_path, capsys):
        base = {**json.loads(small_config.read_text()), **overrides}
        dirs = []
        for name, cfg in [("base", base), ("treat", {**base, "constant_reward": True})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            dirs.append(str(tmp_path / name))
            assert main(["run", "--config", str(path), "--seeds", "2", "--out", dirs[-1]]) == 0
        rows = []
        for seed in (3, 4):
            b, t = (read_series_csv(Path(d) / f"seed_{seed}" / "blocks.csv") for d in dirs)
            rows.append([seed, *dataclasses.astuple(compare(b, t))])
        medians = [float(np.median([r[k] for r in rows])) for k in range(1, len(rows[0]))]
        header = ["seed", *(f.name for f in dataclasses.fields(ComparisonDeltas))]
        want = self.csv_module_text(header, rows + [["median", *medians]])
        assert ("nan" in want.splitlines()[-1]) == bool(overrides)
        capsys.readouterr()
        assert self.table(["compare", *dirs], to_file, tmp_path, capsys) == want


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{config}", "--base-seed", "-1", "--out", "{tmp}/o"],
    ["curve", "--landmarks", "2.2", "1.75", "2.37"],
    ["curve", "--landmarks", "1.75", "2.20", "2.37", "--r-max", "-1"],
    ["curve", "--params", "2", "1", "1"],
    ["compare", "{sweep}", "{sweep}", "--burn-in", "-3"],
    ["compare", "{sweep}", "{sweep}", "--burn-in", "150"],  # the whole series
    ["curve", "--landmarks", "1.75", "2.20", "2.37", "--step", "nan"],
    ["curve", "--landmarks", "1.75", "2.20", "2.37", "--range", "0", "inf"],
    ["curve", "--landmarks", "1.75", "2.20", "2.37", "--r-max", "inf"],
    ["curve", "--landmarks", "1.75", "2.20", "2.37", "--range", "0", "1e308", "--step", "1e-10",
     "--out", "{tmp}/o"],
    ["curve", "--params", "1", "2", "1", "--range", "0", "1", "--step", "1e-12",
     "--out", "{tmp}/o"],
    ["curve", "--params", "1", "4", "0.5", "--range", "-1", "3", "--out", "{tmp}/o"],
    ["curve", "--landmarks", "1.75", "2.2", "2.37", "--b-ratio", "inf", "--out", "{tmp}/o"],
], ids=["negative-base-seed", "unordered-landmarks", "negative-r-max", "a-above-b",
        "negative-burn-in", "burn-in-past-series", "nan-step", "infinite-range", "infinite-r-max",
        "overflowing-row-count", "huge-row-count", "negative-range-start", "infinite-b-ratio"])
def test_bad_arguments_are_usage_errors(argv, small_config, tmp_path, capsys):
    sweep = tmp_path / "sweep"
    if "{sweep}" in argv:
        assert main(["run", "--config", str(small_config), "--out", str(sweep)]) == 0
    capsys.readouterr()
    rc = main([a.format(config=small_config, tmp=tmp_path, sweep=sweep) for a in argv])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


LONG_NAME = "{tmp}/" + "x" * 300  # past the usual 255-byte name limit: ENAMETOOLONG


@pytest.mark.parametrize("argv,path", [
    (["curve", "--params", "1.0", "2.0", "1.0", "--out", "{tmp}/nodir/x.csv"], -1),
    (["run", "--config", "{config}", "--out", "{config}"], -1),  # an existing file
    (["compare", "{sweep}", "{sweep}", "--out", "{tmp}/nodir/x.csv"], -1),
    (["curve", "--params", "1.0", "2.0", "1.0", "--out", LONG_NAME], -1),
    (["run", "--config", "{config}", "--out", LONG_NAME], -1),
    (["compare", LONG_NAME, "{sweep}"], 1),
], ids=["curve", "run", "compare", "curve-long-name", "run-long-name", "compare-long-baseline"])
def test_an_unwritable_out_is_a_usage_error(argv, path, small_config, tmp_path, capsys):
    # `path` indexes the argument that the message must name
    sweep = tmp_path / "sweep"
    if "{sweep}" in argv:
        assert main(["run", "--config", str(small_config), "--out", str(sweep)]) == 0
    capsys.readouterr()
    argv = [a.format(config=small_config, tmp=tmp_path, sweep=sweep) for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert argv[path] in err


def test_compare_names_the_file_and_line_of_a_truncated_run(small_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
    blocks = out / "seed_3" / "blocks.csv"
    lines = blocks.read_text().splitlines()
    short = lines[:-1] + [",".join(lines[-1].split(",")[:3])]  # the last row cut short
    long = lines[:5] + [lines[5] + ",9.99"] + lines[6:]  # one row with an 11th field
    fields = lines[6].split(",")
    garbled = lines[:6] + [",".join([fields[0], "abc", *fields[2:]])] + lines[7:]  # timestamp abc
    fields = lines[8].split(",")
    nan = lines[:8] + [",".join([*fields[:3], "nan", *fields[4:]])] + lines[9:]  # total_hash nan
    fields = lines[3].split(",")
    huge = lines[:3] + [",".join([*fields[:4], "m" * 131_073, *fields[5:]])] + lines[4:]
    # a Latin-1 byte, not UTF-8, in the header and in a row: decoded ahead of the
    # reader, so at no known line
    latin_header = [lines[0].replace("winner", "winn\xe9r")] + lines[1:]
    fields = lines[4].split(",")
    latin_row = lines[:4] + [",".join([*fields[:4], "\xe9" + fields[4], *fields[5:]])] + lines[5:]
    for bad, line in ((short, len(lines)), (long, 6), (garbled, 7), (nan, 9), (huge, 4),
                      (latin_header, None), (latin_row, None)):
        blocks.write_bytes("\n".join(bad).encode("latin-1"))
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert (f"{blocks}, line {line}:" if line else f"{blocks}: not UTF-8 text") in err


def test_a_table_without_the_block_header_is_not_a_run(small_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
    blocks = out / "seed_3" / "blocks.csv"
    blocks.write_text(blocks.read_text().replace("timestamp", "time", 1))
    with pytest.raises(ConfigError, match="^unexpected CSV header in "):
        read_series_csv(blocks)
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == EXIT_USAGE
    assert f"unexpected CSV header in {blocks}" in capsys.readouterr().err


def test_compare_skips_a_seed_directory_not_named_by_an_integer(small_config, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(a)]) == 0
    assert main(["run", "--config", str(small_config), "--seeds", "2", "--out", str(b)]) == 0
    # all but seed_x parse to an int, but only seed_{n} names seed n: none is read
    for name in ("seed_x", "seed_3_0", "seed_03", "seed_+4", "seed_ 4", "seed_4 "):
        (b / name).mkdir()
        (b / name / "blocks.csv").write_bytes((b / "seed_3" / "blocks.csv").read_bytes())
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert [r.split(",")[0] for r in out.splitlines()] == ["seed", "3", "4", "median"]
    assert main(["compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == out  # each seed against its own run


def test_run_and_compare_write_and_read_utf8_under_an_ascii_locale(small_config, tmp_path):
    cfg = json.loads(small_config.read_text())
    cfg["population"]["explicit"][0]["id"] = "mineur-\u00e9"
    small_config.write_text(json.dumps(cfg))
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(Path(pomsim.__file__).parent.parent),
    }
    out = tmp_path / "sweep"
    for args in (["run", "--config", str(small_config), "--out", str(out)],
                 ["compare", str(out), str(out)]):
        done = subprocess.run(
            [sys.executable, "-m", "pomsim.cli", *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    assert ",mineur-\u00e9,".encode() in (out / "seed_3" / "blocks.csv").read_bytes()


def test_compare_rejects_a_run_whose_last_row_has_no_line_terminator(
    small_config, tmp_path, capsys
):
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
    blocks = out / "seed_3" / "blocks.csv"
    data = blocks.read_bytes()
    assert data.endswith(b".0\r\n")
    blocks.write_bytes(data[:-3])  # `...,1,1.`: still a number, but cut
    last_line = data.count(b"\n")
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{blocks}, line {last_line}: no line terminator" in err


def test_the_console_script_and_its_version_resolve_to_the_package(capsys):
    # README runs `pomsim`: pyproject.toml's entry point and dynamic version must name
    # what the package has
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8"))
    assert pkgutil.resolve_name(project["project"]["scripts"]["pomsim"]) is main
    assert "version" in project["project"]["dynamic"]
    version = pkgutil.resolve_name(project["tool"]["setuptools"]["dynamic"]["version"]["attr"])
    assert version == pomsim.__version__ == "0.1.0"
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == "pomsim 0.1.0\n"
