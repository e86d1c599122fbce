import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempsched import (
    BruteForceCapError,
    HeterogeneousRatesError,
    Instance,
    InputError,
    Job,
    LpSolution,
    NoScheduleError,
    build_order_lp,
    check_feasibility,
    dual_bound,
    extract_schedule,
    min_makespan_over_orders,
    min_makespan_single,
    solve_lp,
    solve_makespan,
    solve_sum,
    solve_sum_bruteforce,
    spt_order,
    solvers,
    time_slice,
)

from .helpers import plain_best_order, random_instance

F = Fraction


class TestSolveSum:
    def test_golden_example(self, twin_instance):
        sched, value = solve_sum(twin_instance)
        assert value == 10
        assert sched.completions == (F(5), F(5))

    def test_single_easy_job(self):
        inst = Instance((Job("a", 1, F(-1), 1),))
        _, value = solve_sum(inst)
        assert value == 1

    def test_refuses_job_dependent_rates(self):
        inst = Instance((Job("a", 1, F(-1), 1), Job("b", 1, F(-1), 2)))
        with pytest.raises(HeterogeneousRatesError, match="brute"):
            solve_sum(inst)

    def test_differing_thresholds_that_normalize_alike_are_fine(self):
        inst = Instance((
            Job("a", 2, F(-1), 1, threshold=2),
            Job("b", 2, F(-2), 2, threshold=4),
        ))
        _, value = solve_sum(inst)
        assert value > 0

    def test_empty_instance_rejected(self):
        with pytest.raises(InputError):
            solve_sum(Instance(()))

    def test_spt_order_stable_ties(self):
        inst = Instance((
            Job("big", 3, F(-1), 1),
            Job("tie1", 1, F(-1), 1),
            Job("tie2", 1, F(-1), 1),
        ))
        assert spt_order(inst) == (1, 2, 0)


class TestBruteForce:
    def test_matches_spt_on_symmetric_instance(self, twin_instance):
        sched, value, order = solve_sum_bruteforce(twin_instance)
        assert value == 10
        assert order == (0, 1)  # lexicographically smallest optimum

    def test_single_job_equals_single_job_optimum(self):
        inst = Instance((Job("a", 2, F(-1, 3), 1),))
        _, value, _ = solve_sum_bruteforce(inst)
        assert value == min_makespan_single(inst.jobs[0]) == 5

    def test_cap_enforced(self):
        rng = random.Random(1)
        inst = random_instance(rng, 4)
        with pytest.raises(BruteForceCapError):
            solve_sum_bruteforce(inst, cap=3)

    def test_agrees_with_spt_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(12):
            inst = random_instance(rng, rng.randint(2, 4), rng.choice((1, 2)))
            _, spt_value = solve_sum(inst)
            _, brute_value, _ = solve_sum_bruteforce(inst)
            assert spt_value == brute_value

    def test_some_optimal_order_is_spt(self):
        # exchange argument: an optimum completing in nondecreasing p exists
        rng = random.Random(32)
        for _ in range(6):
            inst = random_instance(rng, 3)
            values = {
                order: solve_lp(build_order_lp(inst, order, "sum")).value
                for order in itertools.permutations(range(3))
            }
            best = min(values.values())
            winners = [order for order, v in values.items() if v == best]
            ps = [job.p for job in inst.jobs]
            assert any(
                all(ps[o[i]] <= ps[o[i + 1]] for i in range(2)) for o in winners
            )


def _pruning_cases():
    """Seeded instances up to n=6 and m=3, rates common and job-dependent,
    with the objectives to check. The two n=6 instances run on one machine
    and check one objective each, so that the plain enumeration's 720 LPs
    stay few."""
    rng = random.Random(1960)
    cases = [(n, rng.randint(1, 3), common, ("sum", "makespan"))
             for n in range(1, 6) for common in (True, False)]
    cases += [(6, 1, True, ("sum",)), (6, 1, False, ("makespan",))]
    return [
        pytest.param(random_instance(rng, n, m, common_rates=common), objectives,
                     id=f"n{n}-m{m}-{'common' if common else 'mixed'}")
        for n, m, common, objectives in cases
    ]


class TestPruning:
    """The pruned search against a plain enumeration of every order LP."""

    @pytest.mark.parametrize("inst, objectives", _pruning_cases())
    def test_same_order_value_and_schedule_as_plain_enumeration(self, inst, objectives):
        if "sum" in objectives:
            order, value, sol = plain_best_order(inst, "sum")
            schedule = extract_schedule(inst, order, sol)
            assert solve_sum_bruteforce(inst) == (schedule, value, order)
        if "makespan" in objectives:
            order, value, _ = plain_best_order(inst, "makespan")
            assert min_makespan_over_orders(inst) == (value, order)

    def test_common_rates_solve_few_lps(self, monkeypatch):
        built, solved = [], []

        def counted_build(instance, order, objective):
            built.append(order)
            return build_order_lp(instance, order, objective)

        def counted_solve(problem):
            solved.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(solvers, "build_order_lp", counted_build)
        monkeypatch.setattr(solvers, "solve_lp", counted_solve)
        inst = random_instance(random.Random(8), 5, 2)
        solve_sum_bruteforce(inst)
        assert len(solved) < 120
        # only the orders solved are built, the guide once
        assert len(built) == len(solved)
        assert built.count(spt_order(inst)) == 1

    def test_one_debug_event_per_search(self, caplog, twin_instance):
        with caplog.at_level(logging.DEBUG, logger="tempsched"):
            solve_sum_bruteforce(twin_instance)
        events = [r for r in caplog.records if r.getMessage().startswith("best order")]
        assert len(events) == 1
        objective, orders, solved, pruned = events[0].args
        # the guide (0, 1) wins; (1, 0) ties it, so its bound prunes it
        assert (objective, orders, solved, pruned) == ("sum", 2, 1, 1)


@st.composite
def _instances(draw, common_rates):
    """Up to five jobs on one to three machines, small rationals; with
    job-dependent rates, thresholds other than 1 too."""
    def rational(lo, hi):
        return st.builds(F, st.integers(lo, hi), st.integers(1, 3))

    def rates():
        return -draw(rational(1, 6)), draw(rational(1, 6))

    n = draw(st.integers(1, 5))
    shared = rates()
    jobs = []
    for j in range(n):
        alpha, beta = shared if common_rates else rates()
        threshold = None if common_rates else draw(st.sampled_from([None, F(1, 2), F(2), F(3)]))
        jobs.append(Job(f"j{j}", draw(rational(1, 10)), alpha, beta, threshold))
    return Instance(tuple(jobs), draw(st.integers(1, 3)))


class TestOracleProperties:
    """The solvers' closed forms against the brute force over all orders."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_instances(common_rates=True))
    def test_spt_value_equals_brute_force_on_common_rates(self, inst):
        assert solve_sum(inst)[1] == solve_sum_bruteforce(inst)[1]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_instances(common_rates=False))
    def test_closed_form_makespan_equals_order_lp_minimum(self, inst):
        assert solve_makespan(inst)[0] == min_makespan_over_orders(inst)[0]


def _certified(inst, order, objective, schedule, value):
    """`value` is a certified optimum of `order`'s LP, and `schedule` is
    feasible and reaches it."""
    prob = build_order_lp(inst, order, objective)
    assert dual_bound(prob, solve_lp(prob).y) == value
    assert check_feasibility(inst, schedule).feasible
    reached = schedule.completions[-1] if objective == "makespan" else sum(schedule.completions)
    assert reached == value


class TestCertifiedOptima:
    """Every optimum the solvers return is certified on its order LP by
    `dual_bound`, which shares no code with the simplex."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(_instances(common_rates=True))
    def test_spt_sum(self, inst):
        schedule, value = solve_sum(inst)
        _certified(inst, schedule.order, "sum", schedule, value)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(_instances(common_rates=False))
    def test_brute_force_sum_and_makespan(self, inst):
        schedule, value, order = solve_sum_bruteforce(inst)
        _certified(inst, order, "sum", schedule, value)
        makespan, order = min_makespan_over_orders(inst)
        schedule = extract_schedule(inst, order, solve_lp(build_order_lp(inst, order, "makespan")))
        _certified(inst, order, "makespan", schedule, makespan)


class TestNonOptimalOrderLp:
    def test_every_order_lp_solver_raises_no_schedule_error(self, twin_instance, monkeypatch):
        monkeypatch.setattr(solvers, "solve_lp", lambda problem: LpSolution("unbounded", None, ()))
        for solve in (solve_sum, solve_sum_bruteforce, min_makespan_over_orders):
            with pytest.raises(NoScheduleError):
                solve(twin_instance)


class TestMinMakespanSingle:
    def test_hot_job(self):
        assert min_makespan_single(Job("a", 2, F(-1, 3), 1)) == 5

    def test_boundary_runs_flat_out(self):
        assert min_makespan_single(Job("a", 3, F(-1), F(1, 3))) == 3

    def test_cross_check_against_lp(self):
        job = Job("a", 1, F(-1), 2)
        assert min_makespan_single(job) == 2
        inst = Instance((job,))
        sol = solve_lp(build_order_lp(inst, (0,), "makespan"))
        assert sol.value == 2

    def test_normalizes_thresholds_itself(self):
        assert min_makespan_single(Job("a", 2, F(-2, 3), 2, threshold=2)) == 5


class TestSolveMakespan:
    def test_golden_example(self, twin_instance):
        value, sched = solve_makespan(twin_instance)
        assert value == 5 == max(F(5), F(4))
        report = check_feasibility(twin_instance, sched)
        assert report.feasible
        assert set(report.completions.values()) == {F(5)}

    def test_two_machines_keeps_hot_job_bound(self, twin_instance):
        inst = Instance(twin_instance.jobs, machines=2)
        value, sched = solve_makespan(inst)
        assert value == 5
        assert check_feasibility(inst, sched).feasible

    def test_mixed_rates_example(self):
        inst = Instance((
            Job("a", 2, F(-1, 3), 1),
            Job("b", 3, F(-1), F(1, 3)),
        ))
        value, _ = solve_makespan(inst)
        assert value == 5
        lp_value, _ = min_makespan_over_orders(inst)
        assert lp_value == 5

    def test_empty_instance(self):
        value, sched = solve_makespan(Instance(()))
        assert value == 0
        assert sched.completions == ()

    def test_machine_bound_dominates(self):
        jobs = tuple(Job(f"j{i}", 1, F(-1), F(1, 2)) for i in range(4))
        value, sched = solve_makespan(Instance(jobs, machines=1))
        assert value == 4  # every q_j = 1, sum p / m = 4
        assert check_feasibility(Instance(jobs, 1), sched).feasible

    def test_lower_bounds_with_equality_somewhere(self):
        rng = random.Random(41)
        for _ in range(15):
            inst = random_instance(
                rng, rng.randint(1, 4), rng.choice((1, 2)), common_rates=False
            )
            value, sched = solve_makespan(inst)
            qs = [min_makespan_single(j) for j in inst.jobs]
            spread = sum((j.p for j in inst.jobs), F(0)) / inst.machines
            assert all(value >= q for q in qs)
            assert value >= spread
            assert value == max(qs) or value == spread
            report = check_feasibility(inst, sched)
            assert report.feasible
            assert set(report.completions.values()) == {value}

    def test_adding_a_job_never_helps(self):
        rng = random.Random(42)
        for _ in range(6):
            inst = random_instance(rng, 3)
            sub = Instance(inst.jobs[:2], inst.machines)
            assert solve_makespan(inst)[0] >= solve_makespan(sub)[0]
            _, v_full, _ = solve_sum_bruteforce(inst)
            _, v_sub, _ = solve_sum_bruteforce(sub)
            assert v_full >= v_sub


class TestManyMachines:
    def test_jobs_decouple_when_machines_abound(self):
        rng = random.Random(43)
        for _ in range(8):
            n = rng.randint(1, 4)
            inst = random_instance(rng, n, machines=n + rng.randint(0, 2))
            _, value = solve_sum(inst)
            expected = sum(
                (min_makespan_single(j) for j in inst.jobs), F(0)
            )
            assert value == expected
            mk, _ = solve_makespan(inst)
            assert mk == max(min_makespan_single(j) for j in inst.jobs)


@pytest.mark.parametrize("bad", [True, False, 2.5, F(2), "3", 0], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda inst, sched, v: time_slice(inst, sched, v),
        lambda inst, sched, v: solve_sum_bruteforce(inst, cap=v),
        lambda inst, sched, v: min_makespan_over_orders(inst, cap=v),
    ],
    ids=["time_slice-k", "bruteforce-cap", "over_orders-cap"],
)
def test_count_arguments_must_be_positive_ints(call, bad, twin_instance, twin_optimum):
    # bool is an int subclass: True would slice with k=1, and a float cap
    # would be compared as a number
    with pytest.raises(InputError):
        call(twin_instance, twin_optimum, bad)
