import csv
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempsched import (
    Instance,
    Job,
    NaturalSchedule,
    Trajectory,
    emit_csv,
    emit_svg,
    simulate,
)

from .helpers import natural_cases, normal_cases, reference_emit_csv

F = Fraction


class TestCsv:
    def test_golden_single_job(self, solo_instance, tmp_path):
        traj = simulate(
            solo_instance, NaturalSchedule({"j1": [(0, 1), (4, 5)]})
        )
        path = tmp_path / "traj.csv"
        emit_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "j1.load", "j1.temp"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "4", "5"]
        assert [r[2] for r in rows[1:]] == ["0", "1", "0", "1"]
        assert [r[1] for r in rows[1:]] == ["1", "0", "1", "0"]

    def test_empty_schedule_header_only(self, solo_instance, tmp_path):
        traj = simulate(solo_instance, NaturalSchedule({}))
        path = tmp_path / "empty.csv"
        emit_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["time,j1.load,j1.temp"]

    def test_twelve_significant_digits(self, twin_instance, twin_optimum, tmp_path):
        traj = simulate(twin_instance, twin_optimum)
        path = tmp_path / "frac.csv"
        emit_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1] == "0.4"  # load 2/5
        # temperature slope 1/5 -> value at t=5 is exactly 1
        assert rows[2][2] == "1"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.one_of(natural_cases(), normal_cases()), st.booleans())
    @example((Instance((Job("j1", 1, -1, 1),)), NaturalSchedule({})), False)
    def test_matches_the_row_wise_reference(self, tmp_path_factory, case, huge):
        # Times stretched by 10**400 are past the float range and print
        # through Decimal.
        traj = simulate(*case)
        if huge:
            traj = Trajectory(traj.job_ids, tuple(t * 10**400 for t in traj.breakpoints),
                              traj.loads, traj.temperatures, traj.works)
        out = tmp_path_factory.mktemp("csv")
        emit_csv(traj, out / "columns.csv")
        reference_emit_csv(traj, out / "rows.csv")
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()

class TestSvg:
    def test_panels_and_threshold(self, twin_instance, twin_optimum, tmp_path):
        traj = simulate(twin_instance, twin_optimum)
        path = tmp_path / "plot.svg"
        emit_svg(traj, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("polyline") == 2  # one temperature line per job
        assert "job j1" in text and "job j2" in text
        assert "T=1" in text
        assert "</svg>" in text

    def test_empty_trajectory_still_renders(self, solo_instance, tmp_path):
        traj = simulate(solo_instance, NaturalSchedule({}))
        path = tmp_path / "empty.svg"
        emit_svg(traj, path)
        assert "<svg" in path.read_text()
