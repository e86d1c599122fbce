import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempsched import (
    Instance,
    InputError,
    Job,
    NaturalSchedule,
    NormalSchedule,
    Trajectory,
    Violation,
    check_feasibility,
    simulate,
)

from .helpers import natural_cases, normal_cases, reference_report, reference_simulate

F = Fraction


class TestSimulateGoldens:
    def test_single_job_two_bursts(self, solo_instance):
        sched = NaturalSchedule({"j1": [(0, 1), (4, 5)]})
        traj = simulate(solo_instance, sched)
        assert traj.breakpoints == (F(0), F(1), F(4), F(5))
        assert traj.temperatures[0] == (F(0), F(1), F(0), F(1))
        assert traj.works[0] == (F(0), F(1), F(1), F(2))
        report = check_feasibility(solo_instance, sched)
        assert report.feasible
        assert report.completions == {"j1": F(5)}

    def test_alternating_two_jobs(self, twin_instance, naive_natural):
        report = check_feasibility(twin_instance, naive_natural)
        assert report.feasible
        assert report.completions == {"j1": F(5), "j2": F(6)}
        assert report.objective_sum == 11
        assert report.makespan == 6

    def test_fractional_optimum(self, twin_instance, twin_optimum):
        traj = simulate(twin_instance, twin_optimum)
        # 5 * (-1/3 * 3/5 + 1 * 2/5) == 1, exactly at the threshold
        assert traj.temperatures[0][-1] == 1
        assert traj.temperatures[1][-1] == 1
        report = check_feasibility(twin_instance, twin_optimum)
        assert report.feasible
        assert report.objective_sum == 10

    def test_late_start_gets_an_idle_first_segment(self, solo_instance):
        traj = simulate(solo_instance, NaturalSchedule({"j1": [(2, 3)]}))
        assert traj.breakpoints == (F(0), F(2), F(3))
        assert traj.loads == ((F(0), F(1)),)
        assert traj.temperatures[0] == (F(0), F(0), F(1))
        assert traj.works[0] == (F(0), F(0), F(1))

    def test_clamp_inserts_exact_breakpoint(self, solo_instance):
        # cooling from T=1 at rate -1/3 hits zero at t=4, inside [1, 10)
        sched = NaturalSchedule({"j1": [(0, 1), (10, 11)]})
        traj = simulate(solo_instance, sched)
        assert traj.breakpoints == (F(0), F(1), F(4), F(10), F(11))
        assert traj.temperatures[0] == (F(0), F(1), F(0), F(0), F(1))


class TestClampsInOneSegment:
    def test_two_jobs_clamp_at_distinct_instants_while_idle(self):
        # both at T=1 at t=1; idle on [1, 10), a cools at -1 and b at -1/2
        inst = Instance((Job("a", 2, -1, 1), Job("b", 1, F(-1, 2), 1)), machines=2)
        sched = NaturalSchedule({"a": [(0, 1), (10, 11)], "b": [(0, 1)]})
        traj = simulate(inst, sched)
        assert traj.breakpoints == (F(0), F(1), F(2), F(3), F(10), F(11))
        assert traj.temperatures == (
            (F(0), F(1), F(0), F(0), F(0), F(1)),
            (F(0), F(1), F(1, 2), F(0), F(0), F(0)),
        )
        assert traj.works == (
            (F(0), F(1), F(1), F(1), F(1), F(2)),
            (F(0), F(1), F(1), F(1), F(1), F(1)),
        )
        assert traj.loads == ((1, 0, 0, 0, 1), (1, 0, 0, 0, 0))

    def test_one_job_clamps_while_the_other_runs(self):
        # a cools from 1 at -1 and reaches 0 at t=2, inside b's run on [1, 3)
        inst = Instance((Job("a", 1, -1, 1), Job("b", 2, -1, F(1, 4))))
        sched = NaturalSchedule({"a": [(0, 1)], "b": [(1, 3)]})
        traj = simulate(inst, sched)
        assert traj.breakpoints == (F(0), F(1), F(2), F(3))
        assert traj.temperatures == (
            (F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(1, 4), F(1, 2)),
        )
        assert traj.works == ((F(0), F(1), F(1), F(1)), (F(0), F(0), F(1), F(2)))
        assert traj.loads == ((1, 0, 0), (0, 1, 1))

    def test_two_jobs_clamping_together_share_one_breakpoint(self):
        # a at T=1 cooling at -1 and b at T=1/2 cooling at -1/2 both reach 0 at t=2
        inst = Instance((Job("a", 2, -1, 1), Job("b", 1, F(-1, 2), F(1, 2))), machines=2)
        sched = NaturalSchedule({"a": [(0, 1), (4, 5)], "b": [(0, 1)]})
        traj = simulate(inst, sched)
        assert traj.breakpoints == (F(0), F(1), F(2), F(4), F(5))
        assert traj.temperatures == (
            (F(0), F(1), F(0), F(0), F(1)),
            (F(0), F(1, 2), F(0), F(0), F(0)),
        )
        assert traj.works == (
            (F(0), F(1), F(1), F(1), F(2)),
            (F(0), F(1), F(1), F(1), F(1)),
        )


class TestIntegerGridEdges:
    """Cases where the grid 1/D and the scales D*R, D*S are all above 1."""

    def test_two_jobs_reaching_zero_together_on_a_fine_grid(self):
        # a at 1/2 cooling at -5/4 and b at 7/24 cooling at -35/48, both idle
        # from 3/7, reach 0 at 29/35; the rates' lcm R is 48 and D is 7
        inst = Instance((Job("a", 1, F(-5, 4), F(7, 6)), Job("b", 1, F(-35, 48), F(7, 2))),
                        machines=2)
        sched = NaturalSchedule({"a": [(0, F(3, 7)), (1, F(8, 7))], "b": [(0, F(1, 7))]})
        traj = simulate(inst, sched)
        assert traj.breakpoints == (F(0), F(1, 7), F(3, 7), F(29, 35), F(1), F(8, 7))
        assert traj.temperatures == (
            (F(0), F(1, 6), F(1, 2), F(0), F(0), F(1, 6)),
            (F(0), F(1, 2), F(7, 24), F(0), F(0), F(0)),
        )
        assert traj.works == (
            (F(0), F(1, 7), F(3, 7), F(3, 7), F(3, 7), F(4, 7)),
            (F(0), F(1, 7), F(1, 7), F(1, 7), F(1, 7), F(1, 7)),
        )
        assert traj.loads == ((1, 1, 0, 0, 1), (1, 0, 0, 0, 0))

    def test_clamp_at_a_segment_end_adds_no_breakpoint(self):
        # 3/7 at 7/3 heats to 1, and cooling at -7/11 takes 11/7: 0 exactly at t=2
        inst = Instance((Job("a", 1, F(-7, 11), F(7, 3)),))
        traj = simulate(inst, NaturalSchedule({"a": [(0, F(3, 7)), (2, F(17, 7))]}))
        assert traj.breakpoints == (F(0), F(3, 7), F(2), F(17, 7))
        assert traj.temperatures == ((F(0), F(1), F(0), F(1)),)
        assert traj.works == ((F(0), F(3, 7), F(3, 7), F(6, 7)),)

    def test_all_idle_schedule_gives_an_empty_trajectory(self):
        inst = Instance((Job("a", 1, F(-1, 7), F(1, 3)), Job("b", 2, F(-1), F(1))), machines=2)
        empty = Trajectory(("a", "b"), (), ((), ()), ((), ()), ((), ()))
        for sched in (NaturalSchedule({}), NaturalSchedule({"a": (), "b": ()})):
            assert simulate(inst, sched) == empty

    def test_per_job_rate_reported_once_on_two_machines(self):
        # a runs at load 3/2 on [0, 2); b cools to 0 at t = 3/2, which splits
        # a's second interval, so a is above rate 1 on three pieces
        inst = Instance((Job("a", 3, F(-1, 10), F(1, 10)), Job("b", F(1, 2), F(-1, 2), 1)),
                        machines=2)
        sched = NormalSchedule((1, 0), (F(1), F(2)), ((F(3, 2), F(1, 2)), (F(3), F(1, 2))))
        traj = simulate(inst, sched)
        assert traj.breakpoints == (F(0), F(1), F(3, 2), F(2))
        assert traj.loads == ((F(3, 2),) * 3, (F(1, 2), F(0), F(0)))
        assert traj.temperatures == (
            (F(0), F(1, 5), F(3, 10), F(2, 5)),
            (F(0), F(1, 4), F(0), F(0)),
        )
        report = check_feasibility(inst, sched)
        assert report.violations == (Violation("a", F(0), "per-job-rate"),)
        assert report.completions == {"a": F(2), "b": F(1)}


class TestCheckFeasibility:
    def test_continuous_run_overheats(self, solo_instance):
        sched = NaturalSchedule({"j1": [(0, 2)]})
        report = check_feasibility(solo_instance, sched)
        assert not report.feasible
        (violation,) = report.violations
        assert violation.kind == "overheat"
        assert violation.job_id == "j1"
        assert violation.time > 1  # T(1) == 1 is still legal
        assert report.completions == {"j1": F(2)}

    def test_temperature_exactly_one_is_feasible(self, solo_instance):
        sched = NaturalSchedule({"j1": [(0, 1)]})
        assert check_feasibility(solo_instance, sched).feasible

    def test_empty_schedule_reports_missing_completion(self, solo_instance):
        # No spans at all and an empty span list both yield no segments.
        for sched in (NaturalSchedule({}), NaturalSchedule({"j1": ()})):
            report = check_feasibility(solo_instance, sched)
            assert report.feasible
            assert report.missing == ("j1",)
            assert report.completions == {}
            assert report.objective_sum is None
            assert report.makespan is None
            traj = simulate(solo_instance, sched)
            assert traj.breakpoints == ()
            assert traj.loads == ((),)

    def test_partial_schedule(self, solo_instance):
        report = check_feasibility(
            solo_instance, NaturalSchedule({"j1": [(0, 1)]})
        )
        assert report.feasible
        assert report.missing == ("j1",)

    def test_manageability_violation_reported(self, twin_instance):
        sched = NaturalSchedule(
            {"j1": [(0, 2)], "j2": [(1, 3)]}
        )
        report = check_feasibility(twin_instance, sched)
        assert any(v.kind == "manageability" and v.time == 1 for v in report.violations)

    def test_one_overload_reported_once(self):
        # c cools to 0 at t = 5/4, which splits the overloaded stretch [1, 3)
        # into two trajectory pieces with the same loads
        inst = Instance(tuple(
            Job(i, p, F(-1), F(1, 4)) for i, p in (("a", 2), ("b", 2), ("c", 1))
        ))
        sched = NaturalSchedule({"c": [(0, 1)], "a": [(1, 3)], "b": [(1, 3)]})
        report = check_feasibility(inst, sched)
        assert F(5, 4) in simulate(inst, sched).breakpoints
        assert [(v.kind, v.time) for v in report.violations] == [("manageability", 1)]

    def test_rate_cap_on_two_machines(self):
        inst = Instance((Job("a", F(3, 2), F(-1, 10), F(1, 10)),), machines=2)
        sched = NormalSchedule((0,), (F(1),), ((F(3, 2),),))
        report = check_feasibility(inst, sched)
        kinds = {v.kind for v in report.violations}
        assert "per-job-rate" in kinds
        assert not report.feasible

    def test_overloaded_single_machine_flags_manageability(self):
        inst = Instance((Job("a", F(3, 2), F(-1, 10), F(1, 10)),), machines=1)
        sched = NormalSchedule((0,), (F(1),), ((F(3, 2),),))
        kinds = {v.kind for v in check_feasibility(inst, sched).violations}
        assert kinds == {"manageability"}

    def test_unknown_job_id_rejected(self, solo_instance):
        with pytest.raises(InputError):
            simulate(solo_instance, NaturalSchedule({"nope": ((F(0), F(1)),)}))


class TestTrajectoryInvariants:
    def _random_natural(self, rng, instance):
        spans = {}
        for job in instance.jobs:
            t = F(rng.randint(0, 3), rng.randint(1, 2))
            pieces = []
            for _ in range(rng.randint(0, 4)):
                gap = F(rng.randint(0, 4), rng.randint(1, 3))
                length = F(rng.randint(1, 5), rng.randint(1, 3))
                start = t + gap
                pieces.append((start, start + length))
                t = start + length
            if pieces:
                spans[job.id] = pieces
        return NaturalSchedule(spans)

    def _instances(self, rng, count):
        for _ in range(count):
            jobs = tuple(
                Job(
                    f"j{i}",
                    F(rng.randint(1, 6), rng.randint(1, 3)),
                    -F(rng.randint(1, 5), rng.randint(1, 3)),
                    F(rng.randint(1, 5), rng.randint(1, 3)),
                )
                for i in range(rng.randint(1, 3))
            )
            yield Instance(jobs)

    def test_temperature_nonnegative_and_recursion_consistent(self):
        rng = random.Random(3)
        for inst in self._instances(rng, 30):
            traj = simulate(inst, self._random_natural(rng, inst))
            for j, job in enumerate(inst.jobs):
                temps = traj.temperatures[j]
                assert all(t >= 0 for t in temps)
                for k in range(len(traj.breakpoints) - 1):
                    dt = traj.breakpoints[k + 1] - traj.breakpoints[k]
                    s = traj.loads[j][k]
                    slope = job.alpha * (1 - s) + job.beta * s
                    expected = max(F(0), temps[k] + slope * dt)
                    assert temps[k + 1] == expected
                    # linear between breakpoints: a clamp instant is never skipped
                    if temps[k] == 0 and slope <= 0:
                        assert temps[k + 1] == 0
                    else:
                        assert temps[k + 1] == temps[k] + slope * dt

    def test_work_conservation(self):
        rng = random.Random(4)
        for inst in self._instances(rng, 30):
            sched = self._random_natural(rng, inst)
            traj = simulate(inst, sched)
            for j, job in enumerate(inst.jobs):
                total = sum(
                    (b - a for a, b in sched.for_job(job.id)), F(0)
                )
                final = traj.works[j][-1] if traj.breakpoints else F(0)
                assert final == total

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.one_of(natural_cases(), normal_cases()))
    def test_simulation_conserves_work(self, case):
        # each job's work never falls, and ends at the sum of load x length
        # over the segments: its spans' total length, or its p
        inst, sched = case
        traj = simulate(inst, sched)
        widths = [b - a for a, b in itertools.pairwise(traj.breakpoints)]
        for j, job in enumerate(inst.jobs):
            works = traj.works[j]
            assert all(a <= b for a, b in itertools.pairwise(works))
            final = works[-1] if works else F(0)
            assert final == sum((s * w for s, w in zip(traj.loads[j], widths)), F(0))
            if isinstance(sched, NormalSchedule):
                assert final == job.p
            else:
                assert final == sum((b - a for a, b in sched.for_job(job.id)), F(0))

    def test_time_shift_invariance(self):
        rng = random.Random(5)
        for inst in self._instances(rng, 15):
            sched = self._random_natural(rng, inst)
            if not any(sched.intervals.values()):
                continue
            delta = F(rng.randint(1, 7), rng.randint(1, 3))
            shifted = NaturalSchedule(
                {
                    job_id: tuple((a + delta, b + delta) for a, b in spans)
                    for job_id, spans in sched.intervals.items()
                }
            )
            base = check_feasibility(inst, sched)
            moved = check_feasibility(inst, shifted)
            assert base.feasible == moved.feasible
            assert set(base.completions) == set(moved.completions)
            for job_id, c in base.completions.items():
                assert moved.completions[job_id] == c + delta


@st.composite
def oracle_cases(draw):
    """A drawn natural or normal case on 1 to 3 machines, with time stretched
    by a factor in (1/2, 7/2] over 2*den, den one of 1, 7, 113 and 10**30 (a
    factor below 1 pushes a normal schedule's loads up to 2). A natural case may get one
    more span for its first job after an idle gap, in which jobs cool to 0,
    and a twin of that job, same rates and spans, so two reach 0 together."""
    instance, schedule = draw(st.one_of(natural_cases(), normal_cases()))
    den = draw(st.sampled_from([1, 7, 113, 10**30]))
    c = F(draw(st.integers(1, 6)) * den + draw(st.integers(1, den)), 2 * den)
    jobs = instance.jobs
    if isinstance(schedule, NormalSchedule):
        schedule = NormalSchedule(schedule.order, [c * t for t in schedule.completions],
                                  schedule.work)
    else:
        spans = {j: [(c * a, c * b) for a, b in sp] for j, sp in schedule.intervals.items()}
        end = max((b for sp in spans.values() for _, b in sp), default=F(0))
        gap = draw(st.sampled_from([F(10**4), F(1, 7), None]))
        if gap is not None:
            spans.setdefault(jobs[0].id, []).append((end + gap, end + gap + c))
        if not draw(st.booleans()):
            first = jobs[0]
            jobs += (Job("twin", first.p, first.alpha, first.beta),)
            spans["twin"] = spans.get(first.id, [])
        schedule = NaturalSchedule(spans)
    return Instance(jobs, machines=draw(st.integers(1, 3))), schedule


_TINY = F(1, 10**30)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
@example((  # twins on one machine: an overload, and two jobs reaching 0 together
    Instance((Job("a", 1, F(-5, 4), F(7, 6)), Job("b", 1, F(-5, 4), F(7, 6)))),
    NaturalSchedule({j: [(0, 3 * _TINY), (1, 2 - _TINY)] for j in "ab"})))
@example((  # two machines, loads above 1 on a grid of 10**30
    Instance((Job("a", 3, F(-1, 10), F(1, 10)), Job("b", F(1, 2), F(-1, 2), 1)), machines=2),
    NormalSchedule((1, 0), (1 + _TINY, F(2)), ((F(3, 2), F(1, 2)), (F(3), F(1, 2))))))
@example((  # c overloads one machine on [1, 2) and [2, 3) at equal loads: one violation
    Instance((Job("a", F(1, 2), -1, 1), Job("b", F(1, 2), -1, 1), Job("c", 3, -1, F(1, 4)))),
    NormalSchedule((0, 1, 2), (1, 2, 3), ((F(1, 2), F(1, 2), 0), (F(1, 2), F(1, 2), F(3, 2)),
                                          (F(1, 2), F(1, 2), 3)))))
@example((  # a's work reaches p = 3/7 at t = 3/7, a segment end; a runs again from t = 1
    Instance((Job("a", F(3, 7), -1, 1), Job("b", 1, -1, F(1, 2))), machines=2),
    NaturalSchedule({"a": [(0, F(3, 7)), (1, F(8, 7))], "b": [(F(1, 7), F(8, 7))]})))
@example((  # a is above 1 from t = 7/4; the first breakpoint past that is b's clamp at t = 2
    Instance((Job("a", 1, -1, 4), Job("b", 1, -1, 1))),
    NaturalSchedule({"a": [(F(3, 2), F(5, 2))], "b": [(0, 1)]})))
def test_integer_simulation_matches_the_fraction_reference(case):
    inst, sched = case
    expected = reference_simulate(inst, sched)
    assert simulate(inst, sched) == expected
    report = check_feasibility(inst, sched)
    violations = [(v.job_id, v.time, v.kind) for v in report.violations]
    assert (violations, report.completions, report.missing, report.objective_sum,
            report.makespan) == reference_report(inst, expected)
