import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tempsched import (
    LpSolution,
    cli,
    discretize,
    dynamics,
    load_schedule,
    parse_instance,
    simplex,
)
from tempsched.cli import main

F = Fraction

TWIN = {
    "machines": 1,
    "alpha": "-1/3",
    "beta": "1",
    "jobs": [{"id": "j1", "p": "2"}, {"id": "j2", "p": "2"}],
}

NAIVE_NATURAL = {
    "kind": "natural",
    "intervals": {"j1": [["0", "1"], ["4", "5"]], "j2": [["1", "2"], ["5", "6"]]},
}

OVERHEATING = {"kind": "natural", "intervals": {"j1": [["0", "2"]]}}

OPTIMUM_NORMAL = {
    "kind": "normal",
    "order": ["j1", "j2"],
    "C": ["5", "5"],
    "W": [["2", "2"], ["2", "2"]],
}


@pytest.fixture
def twin_file(tmp_path):
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(TWIN))
    return str(path)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# Files that json cannot decode for reasons other than a syntax error.
UNDECODABLE = pytest.mark.parametrize("content", [
    b"[" * 100000,
    b'{"machines": ' + b"7" * 5000 + b', "jobs": []}',
    b'{"jobs": [], "note": "\xff"}',
], ids=["deep-nesting", "5000-digit-integer", "not-utf8"])


class TestSolveSum:
    def test_golden(self, twin_file, capsys):
        assert main(["solve-sum", twin_file]) == 0
        out = capsys.readouterr().out
        assert "sum of completion times: 10" in out
        assert "C[j1] = 5" in out
        assert "C[j2] = 5" in out

    def test_explicit_order(self, twin_file, capsys):
        assert main(["solve-sum", twin_file, "--order", "j2,j1"]) == 0
        assert "sum of completion times: 10" in capsys.readouterr().out

    def test_explicit_order_non_optimal_lp_exit_2(self, twin_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_lp", lambda problem: LpSolution("unbounded", None, ()))
        assert main(["solve-sum", twin_file, "--order", "j2,j1"]) == 2
        assert "unbounded" in capsys.readouterr().err

    def test_pivot_cap_exit_2(self, twin_file, monkeypatch, capsys):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
        assert main(["solve-sum", twin_file]) == 2
        assert "pivots" in capsys.readouterr().err

    def test_brute(self, twin_file, capsys):
        assert main(["solve-sum", twin_file, "--order", "brute"]) == 0
        assert "sum of completion times: 10" in capsys.readouterr().out

    def test_brute_cap(self, twin_file, capsys):
        assert main(["solve-sum", twin_file, "--order", "brute", "--brute-cap", "1"]) == 2

    def test_unknown_order_ids(self, twin_file):
        assert main(["solve-sum", twin_file, "--order", "j1,zz"]) == 2

    def test_heterogeneous_rates_with_spt_exits_2(self, tmp_path, capsys):
        data = dict(TWIN, jobs=[
            {"id": "j1", "p": "2"},
            {"id": "j2", "p": "2", "beta": "2"},
        ])
        path = _write(tmp_path, "hetero.json", data)
        assert main(["solve-sum", path]) == 2
        assert "brute" in capsys.readouterr().err
        assert main(["solve-sum", path, "--order", "brute"]) == 0

    def test_artifacts_written(self, twin_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        csv_path = tmp_path / "traj.csv"
        svg_path = tmp_path / "traj.svg"
        code = main([
            "solve-sum", twin_file,
            "--out", str(out), "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert code == 0
        schedule = load_schedule(out, parse_instance(TWIN))
        assert schedule.completions == (F(5), F(5))
        assert csv_path.read_text().startswith("time,")
        assert "<svg" in svg_path.read_text()

    def test_missing_file(self, tmp_path):
        assert main(["solve-sum", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["solve-sum", str(path)]) == 2

    @UNDECODABLE
    def test_undecodable_json_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve-sum", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_decimal_exponent_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "huge.json", {**TWIN, "jobs": [{"id": "j1", "p": "1e10000000"}]})
        assert main(["solve-sum", path]) == 2
        assert "exponent" in capsys.readouterr().err


class TestSolveMakespan:
    def test_golden(self, twin_file, capsys):
        assert main(["solve-makespan", twin_file]) == 0
        out = capsys.readouterr().out
        assert "makespan: 5" in out
        assert "q[j1] = 5" in out

    def test_check_lp(self, twin_file, capsys):
        assert main(["solve-makespan", twin_file, "--check-lp"]) == 0
        out = capsys.readouterr().out
        assert "order-LP minimum: 5" in out
        assert "matches" in out

    def test_empty_jobs(self, tmp_path, capsys):
        path = _write(tmp_path, "empty.json", {"alpha": "-1", "beta": "1", "jobs": []})
        assert main(["solve-makespan", path]) == 0
        assert "makespan: 0" in capsys.readouterr().out

    def test_empty_jobs_check_lp(self, tmp_path, capsys):
        path = _write(tmp_path, "empty.json", {"alpha": "-1", "beta": "1", "jobs": []})
        assert main(["solve-makespan", path, "--check-lp"]) == 0
        captured = capsys.readouterr()
        assert "makespan: 0" in captured.out
        assert captured.err == ""

    def test_mixed_rates_with_check(self, tmp_path, capsys):
        data = {
            "machines": 1,
            "jobs": [
                {"id": "a", "p": "2", "alpha": "-1/3", "beta": "1"},
                {"id": "b", "p": "3", "alpha": "-1", "beta": "1/3"},
            ],
        }
        path = _write(tmp_path, "mixed.json", data)
        assert main(["solve-makespan", path, "--check-lp"]) == 0
        assert "makespan: 5" in capsys.readouterr().out

    def test_result_too_long_to_print_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "big.json",
                      {"alpha": "-1", "beta": 1, "jobs": [{"id": "j1", "p": "1e4300"}]})
        assert main(["solve-makespan", path]) == 2
        assert capsys.readouterr().err.startswith("error: a result has more than")

    def test_result_beyond_float_range_prints(self, tmp_path, capsys):
        path = _write(tmp_path, "big.json",
                      {"alpha": "-1", "beta": 1, "jobs": [{"id": "j1", "p": "1e400"}]})
        assert main(["solve-makespan", path]) == 0
        assert "(~2.00000e+400)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, expected", [
        ("--csv", "2.00000000000e+400,0,1"),
        ("--svg", "t=2.00000000000e+400"),
    ])
    def test_artifacts_beyond_float_range_written(self, tmp_path, flag, expected):
        # The makespan 2e400 is past the float range; the files print it as a
        # decimal, and the plot divides before converting to floats.
        path = _write(tmp_path, "big.json",
                      {"alpha": "-1", "beta": 1, "jobs": [{"id": "j1", "p": "1e400"}]})
        out = tmp_path / f"traj.{flag[2:]}"
        assert main(["solve-makespan", path, flag, str(out)]) == 0
        assert expected in out.read_text()


class TestVerifyAndSimulate:
    def test_feasible_exit_0(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        assert main(["verify", twin_file, sched]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        assert "sum of completion times: 11" in out
        assert "makespan: 6" in out

    def test_infeasible_exit_1(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "hot.json", OVERHEATING)
        assert main(["verify", twin_file, sched]) == 1
        out = capsys.readouterr().out
        assert "feasible: no" in out
        assert "overheat" in out
        assert "missing completion: j2" in out

    def test_normal_schedule_verifies(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        assert main(["verify", twin_file, sched]) == 0
        assert "sum of completion times: 10" in capsys.readouterr().out

    def test_simulate_writes_csv(self, twin_file, tmp_path):
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        csv_path = tmp_path / "out.csv"
        assert main(["simulate", twin_file, sched, "--csv", str(csv_path)]) == 0
        assert csv_path.exists()

    def test_verify_artifacts_reuse_the_checked_trajectory(self, twin_file, tmp_path, monkeypatch):
        calls = []
        simulate = dynamics.simulate

        def counting(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(dynamics, "simulate", counting)
        monkeypatch.setattr(cli, "simulate", counting)
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = ["verify", twin_file, sched, "--csv", str(csv_path), "--svg", str(svg_path)]
        assert main(argv) == 0
        assert len(calls) == 1
        assert csv_path.exists() and svg_path.exists()

    def test_verify_without_artifacts_simulates_nothing(self, twin_file, tmp_path, monkeypatch):
        def no_simulate(*args):
            raise AssertionError("verify without --csv or --svg builds no trajectory")

        monkeypatch.setattr(dynamics, "simulate", no_simulate)
        monkeypatch.setattr(cli, "simulate", no_simulate)
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        assert main(["verify", twin_file, sched]) == 0

    @UNDECODABLE
    def test_undecodable_schedule_exit_2(self, twin_file, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["verify", twin_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_schedule_exit_2(self, twin_file, tmp_path):
        sched = _write(tmp_path, "bad.json", {"kind": "normal", "order": ["j1"]})
        assert main(["verify", twin_file, sched]) == 2

    def test_mixed_order_ids_exit_2(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "mixed.json", {**OPTIMUM_NORMAL, "order": [1, "j2"]})
        assert main(["verify", twin_file, sched]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("span, message", [
        (["3", "2"], "job b: empty or reversed interval [3, 2)"),
        (["0", "x"], "job b: interval end: cannot parse 'x'"),
        (["-1", "1"], "job b: interval starts before t=0"),
        (["0", "1", "2"], "job b: intervals must be [start, end] pairs"),
        ("01", "job b: intervals must be [start, end] pairs"),
    ], ids=["reversed", "unparsable", "negative", "triple", "string"])
    def test_bad_span_names_its_job_exit_2(self, tmp_path, capsys, span, message):
        jobs = [{"id": "a", "p": "1"}, {"id": "b", "p": "1"}]
        inst = _write(tmp_path, "ab.json", {"alpha": "-1", "beta": "1", "jobs": jobs})
        sched = _write(tmp_path, "bad.json",
                       {"kind": "natural", "intervals": {"a": [["0", "1"]], "b": [span]}})
        assert main(["verify", inst, sched]) == 2
        assert message in capsys.readouterr().err

    def test_unwritable_artifact_exit_2(self, twin_file, tmp_path):
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        bad = str(tmp_path / "no_dir" / "x.csv")
        assert main(["simulate", twin_file, sched, "--csv", bad]) == 2


class TestDiscretize:
    def test_auto_writes_feasible_schedule(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        out = tmp_path / "nat.json"
        code = main([
            "discretize", twin_file, sched,
            "--gamma", "101/100", "--auto", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "k: 64" in stdout
        assert "feasible: yes" in stdout
        natural = load_schedule(out, parse_instance(TWIN))
        assert any(natural.intervals.values())
        assert main(["verify", twin_file, str(out)]) == 0

    def test_auto_simulates_each_trial_once(self, twin_file, tmp_path, monkeypatch, capsys):
        checks, slicings = [], []
        check, time_slice = discretize.check_feasibility, discretize.time_slice

        def counting_check(*args):
            checks.append(args)
            return check(*args)

        def counting_slice(*args):
            slicings.append(args)
            return time_slice(*args)

        def no_simulate(*args):
            raise AssertionError("discretize --auto builds no trajectory")

        monkeypatch.setattr(discretize, "check_feasibility", counting_check)
        monkeypatch.setattr(discretize, "time_slice", counting_slice)
        monkeypatch.setattr(dynamics, "simulate", no_simulate)
        monkeypatch.setattr(cli, "simulate", no_simulate)
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        assert main(["discretize", twin_file, sched, "--gamma", "101/100", "--auto"]) == 0
        assert "k: 64" in capsys.readouterr().out
        # the closed form rejects k = 1, ..., 32 without slicing; only the
        # accepted k = 64 is sliced, and checked after the input schedule
        assert len(slicings) == 1
        assert len(checks) == 2

    def test_gamma_at_most_one_exit_2(self, twin_file, tmp_path):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        assert main(["discretize", twin_file, sched, "--gamma", "1"]) == 2

    def test_unparsable_gamma_exit_2(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        assert main(["discretize", twin_file, sched, "--gamma", "abc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_k_reports_feasibility(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        assert main([
            "discretize", twin_file, sched, "--gamma", "101/100", "--k", "2",
        ]) == 0
        assert "feasible: no" in capsys.readouterr().out

    def test_k_over_the_span_limit_exit_2(self, twin_file, tmp_path, capsys):
        sched = _write(tmp_path, "opt.json", OPTIMUM_NORMAL)
        k = str(discretize.MAX_SLICE_SPANS)  # two loaded jobs: 2k spans
        assert main(["discretize", twin_file, sched, "--gamma", "101/100", "--k", k]) == 2
        assert "spans" in capsys.readouterr().err

    def test_natural_input_rejected(self, twin_file, tmp_path):
        sched = _write(tmp_path, "nat.json", NAIVE_NATURAL)
        assert main(["discretize", twin_file, sched, "--gamma", "2"]) == 2

    def test_infeasible_input_rejected(self, twin_file, tmp_path):
        sched = _write(tmp_path, "seq.json", {
            "kind": "normal",
            "order": ["j1", "j2"],
            "C": ["2", "4"],
            "W": [["2", "0"], ["2", "2"]],
        })
        assert main(["discretize", twin_file, sched, "--gamma", "2"]) == 2


class TestThresholdFile:
    def test_output_matches_the_pre_normalized_twin(self, twin_file, tmp_path, capsys):
        # j1 and j2 normalize to TWIN's rates (-1/3, 1)
        scaled = {"machines": 1, "jobs": [
            {"id": "j1", "p": "2", "alpha": "-1", "beta": "3", "threshold": "3"},
            {"id": "j2", "p": "2", "alpha": "-1/6", "beta": "1/2", "threshold": "1/2"},
        ]}
        runs = []
        for name, inst in (("twin", twin_file), ("scaled", _write(tmp_path, "t.json", scaled))):
            normal, natural = tmp_path / f"{name}-opt.json", tmp_path / f"{name}-nat.json"
            assert main(["solve-sum", inst, "--out", str(normal)]) == 0
            assert main(["discretize", inst, str(normal), "--gamma", "11/10", "--auto",
                         "--out", str(natural)]) == 0
            assert main(["verify", inst, str(natural)]) == 0
            runs.append((capsys.readouterr().out, normal.read_bytes(), natural.read_bytes()))
        assert runs[0] == runs[1]


GOLDEN_INSTANCE = {
    "machines": 1,
    "alpha": "-4",
    "beta": "1",
    "jobs": [{"id": "a", "p": "1"}, {"id": "b", "p": "3/2"}, {"id": "c", "p": "5/2"},
             {"id": "d", "p": "4"}],
}

# sha256 of every file the pipeline below writes, and of its printed text,
# as recorded before the load, slice and CSV paths moved onto integers.
# Never re-record these: they pin the output of those paths byte for byte.
GOLDEN_DIGESTS = {
    "normal.json": "9399254ead5eb6ced5f50766c6e4d695057a340950707d99c06d82daef2a69a9",
    "g11_10.json": "966b71458af38e367652a2176b9fad5f4ab79e563cd4b1275158c1d23095fafd",
    "g11_10.csv": "d3f2cc4b0106f78c56da06c4f5661a6c295449c6103aca57b52c0fd427b8f6b3",
    "g101_100.json": "99f383fd2f629d46120c80a3a94dfe9e97baffa27d8cf97dad6f0147273a75d4",
    "g101_100.csv": "db1b40c4a5e95cfaf65bf5d0d0a3ccc78c05b187402be5bc3ed0fc6e65bb83c4",
    "stdout": "05260f58d3c38b19f55a144dc101ef4e57e605fca94d82556468f88570cb1c28",
}


class TestGoldenPipeline:
    def test_files_match_recorded_digests(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", GOLDEN_INSTANCE)
        out = tmp_path / "out"
        out.mkdir()
        # A usage error first: `main` may keep its parser between calls, and
        # a failed parse must leave nothing behind for the next call.
        assert main(["discretize", inst, str(out / "normal.json"), "--k", "2", "--auto"]) == 2
        capsys.readouterr()
        assert main(["solve-sum", inst, "--out", str(out / "normal.json")]) == 0
        for tag, gamma in (("g11_10", "11/10"), ("g101_100", "101/100")):
            natural = str(out / f"{tag}.json")
            assert main(["discretize", inst, str(out / "normal.json"), "--gamma", gamma,
                         "--auto", "--out", natural]) == 0
            assert main(["verify", inst, natural, "--csv", str(out / f"{tag}.csv")]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == GOLDEN_DIGESTS


class TestExactOutput:
    def test_fractional_values_print_as_num_den(self, tmp_path, capsys):
        data = {
            "machines": 1,
            "alpha": "-1",
            "beta": "1",
            "jobs": [{"id": "a", "p": "1"}, {"id": "b", "p": "3/2"}],
        }
        path = _write(tmp_path, "frac.json", data)
        assert main(["solve-sum", path]) == 0
        out = capsys.readouterr().out
        value = out.splitlines()[0].split(": ")[1].split(" ")[0]
        num, _, den = value.partition("/")
        assert num.lstrip("-").isdigit()
        if den:
            assert den.isdigit()
            assert F(int(num), int(den)) == F(value)


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["fix-everything"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0


def test_cli_import_stays_lean():
    # Starting the CLI loads neither `logging` (imported on first DEBUG
    # event), `duals` (brute force only) nor numpy or scipy (never).
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, tempsched.cli; print(sorted(m for m in sys.modules if m in "
            "('logging', 'tempsched.duals', 'numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
