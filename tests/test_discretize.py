import logging
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempsched import (
    InfeasibleScheduleError,
    InputError,
    Instance,
    Job,
    NormalSchedule,
    NotSliceableError,
    SliceLimitError,
    check_feasibility,
    discretize_auto,
    gamma_scale,
    loads_from_normal,
    simulate,
    solve_sum,
    time_slice,
)
from tempsched.discretize import MAX_SLICE_SPANS, _peak, _sliceable_segments

from .helpers import (
    normal_cases, random_instance, reference_time_slice, sequential_full_speed,
    small_rationals, work_at,
)

F = Fraction


class TestGammaScale:
    def test_scales_completions_and_loads(self, twin_instance, twin_optimum):
        scaled = gamma_scale(twin_optimum, F(5, 4))
        assert scaled.completions == (F(25, 4), F(25, 4))
        assert loads_from_normal(scaled) == [
            (F(0), F(25, 4), (F(8, 25), F(8, 25)))
        ]
        traj = simulate(twin_instance, scaled)
        peak = max(max(row) for row in traj.temperatures)
        assert peak == F(7, 12)  # strictly below the threshold
        assert peak < 1

    def test_rejects_gamma_at_most_one(self, twin_optimum):
        for gamma in (F(1), F(1, 2), 0):
            with pytest.raises(InputError):
                gamma_scale(twin_optimum, gamma)

    def test_single_full_rate_job(self):
        sched = NormalSchedule((0,), (F(3),), ((F(3),),))
        scaled = gamma_scale(sched, 2)
        assert scaled.completions == (F(6),)
        assert loads_from_normal(scaled) == [(F(0), F(6), (F(1, 2),))]


# The twin instance stretched by 101/100: k = 32 overheats, k = 64 does not.
TWIN_STRETCHED = (
    Instance((Job("j1", 2, F(-1, 3), 1), Job("j2", 2, F(-1, 3), 1))),
    NormalSchedule((0, 1), (F(101, 20), F(101, 20)), ((F(2), F(2)), (F(2), F(2)))),
)


class TestTimeSlice:
    def test_identity_on_full_rate_single_job(self):
        inst = Instance((Job("a", 1, F(-1), F(1, 2)),))
        sched = NormalSchedule((0,), (F(1),), ((F(1),),))
        nat = time_slice(inst, sched, 1)
        assert nat.for_job("a") == ((F(0), F(1)),)

    def test_micro_schedule_runs_jobs_in_instance_order(self, twin_instance, twin_optimum):
        scaled = gamma_scale(twin_optimum, F(5, 4))
        nat = time_slice(twin_instance, scaled, 4)
        # slice length 25/16; each job occupies 8/25 of it = 1/2
        assert nat.for_job("j1")[0] == (F(0), F(1, 2))
        assert nat.for_job("j2")[0] == (F(1, 2), F(1))
        assert nat.for_job("j1")[1] == (F(25, 16), F(25, 16) + F(1, 2))

    def test_work_is_conserved_per_interval(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 3)
            inst = random_instance(rng, n)
            base = sequential_full_speed(inst, tuple(range(n)))
            scaled = gamma_scale(base, F(rng.randint(5, 9), 4))
            for k in (1, 2, 4, 8):
                nat = time_slice(inst, scaled, k)
                traj = simulate(inst, nat)
                prev_t = F(0)
                for i, c in enumerate(scaled.completions):
                    if c == prev_t:
                        continue
                    for j in range(n):
                        assert work_at(traj, j, c) == scaled.work[i][j]
                    prev_t = c

    def test_completion_deviation_bound(self, twin_instance, twin_optimum):
        gamma = F(101, 100)
        scaled = gamma_scale(twin_optimum, gamma)
        horizon = gamma * 5
        for k in (1, 2, 4, 8, 16):
            nat = time_slice(twin_instance, scaled, k)
            report = check_feasibility(twin_instance, nat)
            assert not report.missing
            for pos, j in enumerate(scaled.order):
                c_nat = report.completions[twin_instance.jobs[j].id]
                assert abs(c_nat - scaled.completions[pos]) <= horizon / k

    def test_rejects_overloaded_interval(self):
        inst = Instance(
            (Job("a", 2, F(-1, 10), F(1, 10)), Job("b", 2, F(-1, 10), F(1, 10))),
            machines=2,
        )
        sched = NormalSchedule(
            (0, 1), (F(2), F(2)), ((F(2), F(2)), (F(2), F(2)))
        )
        with pytest.raises(NotSliceableError):
            time_slice(inst, sched, 2)

    def test_rejects_bad_k(self, twin_instance, twin_optimum):
        with pytest.raises(InputError):
            time_slice(twin_instance, twin_optimum, 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(normal_cases(), st.sampled_from([1, 2, 3, 8]))
@example(TWIN_STRETCHED, 3)
def test_integer_slicing_matches_the_fraction_reference(case, k):
    instance, schedule = case
    assert time_slice(instance, schedule, k).intervals == reference_time_slice(
        instance, schedule, k)


class TestDiscretizeAuto:
    def test_golden_narrow_gamma(self, twin_instance, twin_optimum):
        gamma = F(101, 100)
        nat, k, accepted = discretize_auto(twin_instance, twin_optimum, gamma)
        report = check_feasibility(twin_instance, nat)
        assert report.feasible
        assert accepted.feasible and accepted.completions == report.completions
        bound = gamma * 5 + (gamma * 5) / k
        assert all(c <= bound for c in report.completions.values())
        # k is the first feasible power of two
        if k > 1:
            previous = time_slice(
                twin_instance, gamma_scale(twin_optimum, gamma), k // 2
            )
            assert not check_feasibility(twin_instance, previous).feasible

    def test_loose_gamma_needs_tiny_k(self, twin_instance, twin_optimum):
        nat, k, _ = discretize_auto(twin_instance, twin_optimum, 2)
        assert k <= 2
        assert check_feasibility(twin_instance, nat).feasible

    def test_infeasible_input_rejected(self, solo_instance):
        overheating = sequential_full_speed(solo_instance, (0,))
        assert not check_feasibility(solo_instance, overheating).feasible
        with pytest.raises(InfeasibleScheduleError):
            discretize_auto(solo_instance, overheating, 2)

    def test_ceiling_raises(self, twin_instance, twin_optimum, caplog):
        # two loaded (interval, job) pairs: the search stops at the last k
        # within MAX_SLICE_SPANS spans, before slicing anything
        with caplog.at_level(logging.DEBUG, logger="tempsched"):
            with pytest.raises(SliceLimitError, match="spans"):
                discretize_auto(twin_instance, twin_optimum, 1 + F(1, 10**12))
        (record,) = [r for r in caplog.records if r.getMessage().startswith("discretize_auto")]
        trials = [int(t) for t in re.findall(r"k=(\d+) peak=", record.getMessage())]
        assert trials == [2**i for i in range(20)]
        assert 2 * trials[-1] <= MAX_SLICE_SPANS < 4 * trials[-1]

    def test_temperature_error_shrinks_with_k(self, twin_instance, twin_optimum):
        # max |T^(gamma,k) - T^gamma| at the sliced schedule's breakpoints,
        # nonincreasing along doubling k
        gamma = F(3, 2)
        scaled = gamma_scale(twin_optimum, gamma)
        base = simulate(twin_instance, scaled)

        def base_temp(j, t):
            bps = base.breakpoints
            for i in range(len(bps) - 1):
                if bps[i] <= t <= bps[i + 1]:
                    t0, t1 = bps[i], bps[i + 1]
                    v0 = base.temperatures[j][i]
                    v1 = base.temperatures[j][i + 1]
                    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            return base.temperatures[j][-1]

        prev_err = None
        for k in (1, 2, 4, 8, 16):
            traj = simulate(twin_instance, time_slice(twin_instance, scaled, k))
            err = max(
                abs(traj.temperatures[j][i] - base_temp(j, t))
                for j in range(2)
                for i, t in enumerate(traj.breakpoints)
                if t <= base.end
            )
            if prev_err is not None:
                assert err <= prev_err
            prev_err = err
        assert prev_err < F(1, 8)


@st.composite
def sliceable_cases(draw):
    """An instance, a normal schedule with per-interval total load at most 1
    and a slice count. Cooling can be much faster than heating, so a job can
    reach 0 before and after its on-piece in the same slice."""
    return (*draw(normal_cases()), draw(st.integers(1, 24)))


class TestSlicedPeak:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sliceable_cases())
    @example((*TWIN_STRETCHED, 32))
    @example((*TWIN_STRETCHED, 64))
    def test_closed_form_agrees_with_the_simulator(self, case):
        instance, schedule, k = case
        natural = time_slice(instance, schedule, k)
        peak = _peak(instance.jobs, _sliceable_segments(schedule), k)
        assert (peak > 1) == (not check_feasibility(instance, natural).feasible)
        assert peak == max(t for row in simulate(instance, natural).temperatures for t in row)


@st.composite
def common_rate_optima(draw):
    """A common-rate instance of 1 to 4 jobs on one machine, its sum-optimal
    normal schedule and a gamma."""
    alpha, beta = -draw(small_rationals(1, 4)), draw(small_rationals(1, 4))
    instance = Instance(tuple(Job(f"j{j}", draw(small_rationals(1, 4)), alpha, beta)
                              for j in range(draw(st.integers(1, 4)))))
    return instance, solve_sum(instance)[0], draw(st.sampled_from([F(11, 10), F(3, 2), F(2)]))


class TestDiscretizedCompletions:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(common_rate_optima())
    def test_within_one_slice_of_the_stretched_originals(self, case):
        # A job's stretched completion is the end of the interval in which its
        # work first reaches p; the k-slicing runs its last piece in the last
        # slice of that interval, so it finishes at most one slice earlier.
        instance, schedule, gamma = case
        natural, k, report = discretize_auto(instance, schedule, gamma)
        for j, job in enumerate(instance.jobs):
            i = next(i for i, row in enumerate(schedule.work) if row[j] == job.p)
            end = gamma * schedule.completions[i]
            start = gamma * schedule.completions[i - 1] if i else F(0)
            done = natural.for_job(job.id)[-1][1]
            assert end - (end - start) / k <= done <= end
            assert report.completions[job.id] == done


class TestSliceLimit:
    def test_explicit_k_over_the_limit_raises(self, twin_instance, twin_optimum):
        # one interval, two loaded jobs: 2k spans
        k = MAX_SLICE_SPANS // 2 + 1
        with pytest.raises(InputError, match="spans"):
            time_slice(twin_instance, twin_optimum, k)

    def test_auto_refuses_a_slicing_over_the_limit(self, twin_instance, twin_optimum):
        with pytest.raises(SliceLimitError, match="spans"):
            # the closed form would accept k = 2**20 here, which would take
            # 2**21 spans; the search stops before it
            discretize_auto(twin_instance, twin_optimum, 1 + F(1, 10**6))

    def test_one_exception_type_for_the_limit(self, twin_instance, twin_optimum):
        # time_slice and discretize_auto refuse the one limit alike
        assert issubclass(SliceLimitError, InputError)
        for refuse in (lambda: time_slice(twin_instance, twin_optimum, MAX_SLICE_SPANS),
                       lambda: discretize_auto(twin_instance, twin_optimum, 1 + F(1, 10**6))):
            with pytest.raises(InputError, match="spans"):
                refuse()


class TestDiscretizeLogging:
    def test_debug_event_lists_the_trials(self, twin_instance, twin_optimum, caplog):
        with caplog.at_level(logging.DEBUG, logger="tempsched"):
            _, k, _ = discretize_auto(twin_instance, twin_optimum, F(101, 100))
        (record,) = [r for r in caplog.records if r.getMessage().startswith("discretize_auto")]
        message = record.getMessage()
        trials = [(int(t), F(p)) for t, p in re.findall(r"k=(\d+) peak=(\S+?)[,;]", message)]
        assert [t for t, _ in trials] == [2**i for i in range(k.bit_length())]
        assert all(p > 1 for _, p in trials[:-1]) and trials[-1][1] <= 1
        assert message.endswith(f"accepted k {k}")
        assert "gamma 101/100" in message
