import csv
from fractions import Fraction

from tempsched import (
    NaturalSchedule,
    emit_csv,
    emit_svg,
    natural_from_intervals,
    simulate,
)

F = Fraction


class TestCsv:
    def test_golden_single_job(self, solo_instance, tmp_path):
        traj = simulate(
            solo_instance, natural_from_intervals({"j1": [(0, 1), (4, 5)]})
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
