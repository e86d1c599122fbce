import itertools
import random
import sys
from fractions import Fraction

import pytest

from tempsched import (
    Constraint,
    Instance,
    InputError,
    Job,
    NoScheduleError,
    LpSolution,
    build_order_lp,
    check_feasibility,
    constraint_count,
    dual_bound,
    extract_schedule,
    loads_from_normal,
    lp,
    LpProblem,
    lp_text,
    min_makespan_single,
    solve_lp,
)
from tempsched.duals import OrderDual
from tempsched.generate import random_instance

from .helpers import certified

F = Fraction


@pytest.fixture(autouse=True)
def _every_optimum_certified(monkeypatch):
    """Every optimum solved in this file must carry its exact dual certificate."""
    monkeypatch.setattr(sys.modules[__name__], "solve_lp", certified(solve_lp))


class TestBuildOrderLp:
    def test_golden_two_job_lp(self, twin_instance):
        prob = build_order_lp(twin_instance, (0, 1), "sum")
        assert len(prob.constraints) == constraint_count(2, 1) == 9
        assert prob.variables == ("D_1", "D_2", "w_1_2", "w_2_2", "T_1_1", "T_1_2", "T_2_2")
        by_name = {c.name: c for c in prob.constraints}
        start = by_name["temp_step_1_1"]
        coeffs = {prob.variables[i]: c for i, c in start.coeffs}
        # w_1_1 = p_1 = 2 is a constant: its 4/3 * 2 moves to the right-hand side
        assert coeffs == {"D_1": F(-1, 3), "T_1_1": F(-1)}
        assert start.rhs == F(-8, 3)
        assert by_name["temp_cap_2_2"].rhs == 1

    def test_single_easy_job_completes_at_p(self):
        inst = Instance((Job("a", 1, F(-1), 1),))
        sol = solve_lp(build_order_lp(inst, (0,), "sum"))
        assert sol.status == "optimal"
        assert sol.value == 1

    def test_constraint_count_formula(self):
        rng = random.Random(9)
        for n in range(1, 7):
            for m in (1, 2, 3):
                inst = random_instance(rng, n, m)
                for objective in ("sum", "makespan"):
                    prob = build_order_lp(inst, tuple(range(n)), objective)
                    assert len(prob.constraints) == constraint_count(n, m)
                    assert len(prob.variables) == n * n + 2 * n - 1

    def test_column_functions_lay_out_the_named_columns(self):
        # extract_schedule reads columns through these, lp_text through names
        for n in range(1, 7):
            inst = Instance(tuple(Job(f"j{k}", 1, F(-1), 1) for k in range(n)))
            names = build_order_lp(inst, tuple(range(n)), "sum").variables
            at = {lp._col_d(i): f"D_{i}" for i in range(1, n + 1)}
            for i in range(1, n + 1):
                at.update({lp._col_w(n, i, j): f"w_{i}_{j}" for j in range(max(i, 2), n + 1)})
                at.update({lp._col_t(n, i, j): f"T_{i}_{j}" for j in range(i, n + 1)})
            assert [at[col] for col in range(len(names))] == list(names)

    def test_emitted_rows_need_no_presolve(self):
        # no empty row, no variable pinned by a one-variable equality, no
        # two rows equal up to a positive factor, and no column in no row
        rng = random.Random(10)
        for n in range(1, 7):
            for m in (1, 2, 3):
                inst = random_instance(rng, n, m, common_rates=False)
                for objective in ("sum", "makespan"):
                    prob = build_order_lp(inst, tuple(rng.sample(range(n), n)), objective)
                    seen = set()
                    for con in prob.constraints:
                        coeffs = sorted((i, c) for i, c in con.coeffs if c != 0)
                        assert coeffs, con.name
                        assert not (con.relation == "==" and len(coeffs) == 1), con.name
                        scale = abs(coeffs[0][1])
                        key = (con.relation, tuple((i, c / scale) for i, c in coeffs))
                        assert key not in seen, con.name
                        seen.add(key)
                    used = {i for con in prob.constraints for i, c in con.coeffs if c != 0}
                    assert used == set(range(len(prob.variables)))

    def test_increments_leave_few_rows_needing_an_artificial(self):
        # only done_j (equalities) and the rows holding the constant w_1_1
        # (manage_1, temp_step_1_1 and, when m > 1, rate_1_1) start outside
        # the all-slack basis
        rng = random.Random(11)
        for n in range(1, 7):
            for m in (1, 2):
                inst = random_instance(rng, n, m, common_rates=False)
                prob = build_order_lp(inst, tuple(rng.sample(range(n), n)), "sum")
                needy = [c.name for c in prob.constraints if c.relation == "==" or c.rhs < 0]
                assert len(needy) == n + (2 if m > 1 and n > 1 else 1), needy
                assert not any(
                    c.name.startswith(("order_", "work_monotone_")) for c in prob.constraints
                )
                assert not any(v.startswith(("C_", "W_")) for v in prob.variables)

    def test_objective_weights_give_completions(self):
        # the sum objective weighs D_i by the n - i + 1 completions it delays
        rng = random.Random(12)
        for n in range(1, 6):
            for m in (1, 2):
                inst = random_instance(rng, n, m, common_rates=rng.random() < 0.5)
                order = tuple(rng.sample(range(n), n))
                for objective in ("sum", "makespan"):
                    sol = solve_lp(build_order_lp(inst, order, objective))
                    completions = extract_schedule(inst, order, sol).completions
                    expected = sum(completions) if objective == "sum" else completions[-1]
                    assert sol.value == expected

    def test_empty_instance_rejected(self):
        with pytest.raises(InputError):
            build_order_lp(Instance(()), (), "sum")

    def test_bad_order_rejected(self, twin_instance):
        with pytest.raises(InputError):
            build_order_lp(twin_instance, (0, 0), "sum")

    def test_makespan_objective_targets_last_completion(self, twin_instance):
        prob = build_order_lp(twin_instance, (0, 1), "makespan")
        nonzero = {
            prob.variables[i]: c for i, c in enumerate(prob.objective) if c != 0
        }
        assert nonzero == {"D_1": F(1), "D_2": F(1)}


class TestLpProblem:
    def test_unknown_relation_rejected(self):
        # solve_lp reads any relation other than "<=" as "=="
        with pytest.raises(InputError):
            LpProblem(("x",), (F(1),), (Constraint("c", ((0, F(1)),), ">=", F(-2)),))

    def test_coefficient_outside_the_columns_rejected(self):
        # solve_lp would give the stray index its own column
        with pytest.raises(InputError):
            LpProblem(("x", "y"), (F(1), F(1)), (Constraint("c", ((3, F(1)),), "<=", F(-4)),))
        with pytest.raises(InputError):
            LpProblem(("x",), (F(1),), (Constraint("c", ((-1, F(1)),), "<=", F(1)),))

    def test_inexact_numbers_rejected(self):
        # solve_lp would fail on a float's missing denominator, and read True as 1
        with pytest.raises(InputError):
            LpProblem(("x",), (F(1),), (Constraint("c", ((0, 0.5),), "<=", F(-2)),))
        with pytest.raises(InputError):
            LpProblem(("x",), (F(1),), (Constraint("c", ((0, F(1)),), "<=", 2.0),))
        with pytest.raises(InputError):
            LpProblem(("x",), (F(1),), (Constraint("c", ((0, True),), "<=", F(2)),))

    def test_inexact_objective_rejected(self):
        for entry in (1.5, "1", False):
            with pytest.raises(InputError):
                LpProblem(("x",), (entry,), ())

    def test_ints_accepted(self):
        prob = LpProblem(("x",), (1,), (Constraint("c", ((0, -1),), "<=", -2),))
        assert solve_lp(prob).value == 2

    @pytest.mark.parametrize("start", [
        ((2, 0),), ((0, 2),), ((-1, 0),), ((0, -1),), ((0, 0), (0, 1)), ((0, 0), (1, 0)),
        ((F(0), 1),), ((True, 1),), ((0,),), ((0, 1, 1),), (1,),
    ], ids=repr)
    def test_bad_start_rejected(self, start):
        cons = (Constraint("a", ((0, F(1)),), "<=", F(1)), Constraint("b", ((1, F(1)),), "<=", F(1)))
        LpProblem(("x", "y"), (F(1), F(1)), cons, ((1, 0), (0, 1)))
        with pytest.raises(InputError, match="start"):
            LpProblem(("x", "y"), (F(1), F(1)), cons, start)

    def test_point_of_the_wrong_length_rejected(self):
        prob = LpProblem(("x", "y"), (F(1), F(1)), (Constraint("c", ((1, F(1)),), "<=", F(1)),))
        with pytest.raises(InputError):
            prob.violated_constraints((F(0),))
        with pytest.raises(InputError):
            prob.objective_value((F(0), F(0), F(0)))


class TestDualBound:
    # min x + 2y s.t. x + y >= 3 (as a `<=` row) and y == 1: the optimum is 4,
    # at x = 2, and the optimal dual is (-1, 1).
    PROB = LpProblem(("x", "y"), (F(1), F(2)), (
        Constraint("cover", ((0, F(-1)), (1, F(-1))), "<=", F(-3)),
        Constraint("fix", ((1, F(1)),), "==", F(1)),
    ))

    def test_optimal_dual_certifies_the_optimum(self):
        assert dual_bound(self.PROB, (F(-1), F(1))) == 4
        sol = solve_lp(self.PROB)
        assert (sol.value, sol.y) == (4, (F(-1), F(1)))

    def test_feasible_duals_give_lower_bounds(self):
        assert dual_bound(self.PROB, (F(0), F(0))) == 0
        assert dual_bound(self.PROB, (F(-1, 2), F(0))) == F(3, 2)
        # an equality row's dual may take either sign
        assert dual_bound(self.PROB, (F(-1), F(-5))) == -2

    def test_infeasible_duals_rejected(self):
        assert dual_bound(self.PROB, (F(1), F(0))) is None  # positive on a `<=` row
        assert dual_bound(self.PROB, (F(-2), F(0))) is None  # column x: 2 > 1
        assert dual_bound(self.PROB, (F(-1), F(2))) is None  # column y: 3 > 2
        assert dual_bound(self.PROB, (F(-1),)) is None  # one value short

    def test_inexact_entries_raise(self):
        # min x s.t. -x <= -3: a float a hair off the dual -1 would round to
        # the optimum 3 and "certify" it
        prob = LpProblem(("x",), (F(1),), (Constraint("low", ((0, F(-1)),), "<=", F(-3)),))
        assert dual_bound(prob, (-1,)) == 3
        for y in ((-0.9999999999999999999,), (False,), ("x",)):
            with pytest.raises(InputError, match="ints or Fractions"):
                dual_bound(prob, y)


def _order_dual_cases():
    """(instance, objective, duals): seeded instances, n 1..5 and m 1..3,
    with common rates, job-dependent rates, or job-dependent rates and
    thresholds other than 1. The duals are one order LP's optimal duals and
    three perturbations: one nonzero entry's sign flipped, all halved, and
    one nonzero entry scaled by 3/2."""
    rng = random.Random(1976)
    for n in range(1, 6):
        for shift, kind in enumerate(("common", "mixed", "thresholds")):
            inst = random_instance(rng, n, (n + shift) % 3 + 1, common_rates=kind == "common")
            if kind == "thresholds":
                inst = Instance(tuple(
                    Job(j.id, j.p, j.alpha, j.beta, F(rng.randint(1, 6), rng.randint(1, 3)))
                    for j in inst.jobs), inst.machines)
            for objective in ("sum", "makespan"):
                y = solve_lp(build_order_lp(inst, tuple(rng.sample(range(n), n)), objective)).y
                k = rng.choice([i for i, v in enumerate(y) if v])
                duals = [y, tuple(v / 2 for v in y)]
                duals += [tuple(c * v if i == k else v for i, v in enumerate(y))
                          for c in (-1, F(3, 2))]
                yield inst, objective, duals


class TestOrderDual:
    def test_bound_equals_dual_bound_on_the_built_lp(self):
        found = []
        for inst, objective, duals in _order_dual_cases():
            readers = [OrderDual(inst, objective, y) for y in duals]
            for order in itertools.permutations(range(inst.n)):
                problem = build_order_lp(inst, order, objective)
                for reader, y in zip(readers, duals):
                    expected = dual_bound(problem, y)
                    assert reader.bound(order) == expected, (inst, objective, order, y)
                    found.append(expected is None)
        assert len(found) == 3672 and 0 < sum(found) < len(found)

    def test_foreign_length_gives_none(self, twin_instance):
        assert OrderDual(twin_instance, "sum", (F(0),) * 8).bound((0, 1)) is None

    def test_rejects_inexact_duals_orders_and_objectives(self, twin_instance):
        y = solve_lp(build_order_lp(twin_instance, (0, 1), "sum")).y
        for bad in (0.0, True, "0"):
            with pytest.raises(InputError, match="ints or Fractions"):
                OrderDual(twin_instance, "sum", (bad,) + y[1:])
        with pytest.raises(InputError):
            OrderDual(twin_instance, "profit", y)
        with pytest.raises(InputError):
            OrderDual(twin_instance, "sum", y).bound((0, 0))


class TestSolveGoldenLp:
    def test_optimal_value_ten(self, twin_instance):
        prob = build_order_lp(twin_instance, (0, 1), "sum")
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == 10
        x = dict(zip(prob.variables, sol.x))
        assert (x["D_1"], x["D_2"]) == (5, 0)

    def test_extracted_schedule_loads(self, twin_instance):
        sol = solve_lp(build_order_lp(twin_instance, (0, 1), "sum"))
        sched = extract_schedule(twin_instance, (0, 1), sol)
        assert loads_from_normal(sched) == [(F(0), F(5), (F(2, 5), F(2, 5)))]
        assert check_feasibility(twin_instance, sched).feasible

    def test_assignment_satisfies_constraints(self, twin_instance):
        prob = build_order_lp(twin_instance, (0, 1), "sum")
        sol = solve_lp(prob)
        assert prob.violated_constraints(sol.x) == []
        broken = list(sol.x)
        broken[prob.variables.index("w_1_2")] = F(99)
        assert "done_2" in prob.violated_constraints(broken)

    def test_extract_requires_optimal(self, twin_instance):
        with pytest.raises(NoScheduleError):
            extract_schedule(
                twin_instance, (0, 1), LpSolution("infeasible", None, ())
            )

    def test_extract_rejects_a_foreign_order_or_point(self, twin_instance):
        sol = solve_lp(build_order_lp(twin_instance, (0, 1), "sum"))
        for order in ((0,), (0, 0), (1, 2)):
            with pytest.raises(InputError):
                extract_schedule(twin_instance, order, sol)
        short = LpSolution("optimal", sol.value, sol.x[:-1])
        with pytest.raises(InputError):
            extract_schedule(twin_instance, (0, 1), short)

    def test_extract_keeps_one_fraction_per_value(self, twin_instance):
        prob = build_order_lp(twin_instance, (1, 0), "sum")
        sol = solve_lp(prob)
        sched = extract_schedule(twin_instance, (1, 0), sol)
        kept = [v for row in sched.work for v in row] + list(sched.completions)
        assert len({id(v) for v in kept}) == len(set(kept))
        assert sched.work[0][1] is twin_instance.jobs[1].p
        x = list(sol.x)
        x[prob.variables.index("w_2_2")] += 1
        with pytest.raises(NoScheduleError, match="job 0"):
            extract_schedule(twin_instance, (1, 0), LpSolution("optimal", sol.value, tuple(x)))


class TestStartBasis:
    def test_order_lp_starts_one_job_at_a_time(self):
        # The named basis is the schedule that runs each job alone, at the
        # load that keeps it at temperature 0; that point is feasible.
        rng = random.Random(1998)
        for n in range(1, 6):
            for machines in (1, 2, 3):
                for common in (True, False):
                    inst = random_instance(rng, n, machines, common_rates=common)
                    order = rng.sample(range(n), n)
                    prob = build_order_lp(inst, order, "sum")
                    x = [F(0)] * len(prob.variables)
                    named = {}
                    for j, k in enumerate(order, 1):
                        job = inst.jobs[k]
                        x[lp._col_d(j)] = job.p * (1 - job.beta / job.alpha)
                        named[f"temp_step_{j}_{j}"] = f"D_{j}"
                        if j > 1:
                            x[lp._col_w(n, j, j)] = job.p
                            named[f"done_{j}"] = f"w_{j}_{j}"
                    assert prob.violated_constraints(x) == []
                    assert {prob.constraints[r].name: prob.variables[c]
                            for r, c in prob.start} == named


class TestLpProperties:
    def test_extract_round_trip_feasible(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(1, 4)
            inst = random_instance(rng, n, rng.choice((1, 2)), common_rates=False)
            order = tuple(rng.sample(range(n), n))
            sol = solve_lp(build_order_lp(inst, order, "sum"))
            assert sol.status == "optimal"
            sched = extract_schedule(inst, order, sol)
            report = check_feasibility(inst, sched)
            assert report.feasible
            # at a sum optimum no completion variable has slack
            for pos, j in enumerate(order):
                assert report.completions[inst.jobs[j].id] == sched.completions[pos]

    def test_witness_upper_bounds_real_temperatures(self):
        # converse direction: an LP-feasible (C, W, T) yields a schedule
        # whose simulated temperatures never exceed the witness; a completed
        # job only cools, so its witness stays put from its completion on
        from tempsched import simulate

        rng = random.Random(27)
        for _ in range(15):
            n = rng.randint(1, 4)
            inst = random_instance(rng, n, rng.choice((1, 2)), common_rates=False)
            order = tuple(rng.sample(range(n), n))
            sol = solve_lp(build_order_lp(inst, order, "sum"))
            sched = extract_schedule(inst, order, sol)
            traj = simulate(inst, sched)
            index = {t: k for k, t in enumerate(traj.breakpoints)}
            for i, c in enumerate(sched.completions):
                for j in range(n):
                    simulated = traj.temperatures[j][index[c]]
                    witness = sched.temperatures[i][j]
                    assert simulated <= witness <= 1
                    done = order.index(j)
                    if i > done:
                        assert witness == sched.temperatures[done][j]

    def test_scaling_property(self):
        # p -> lam * p with rates divided by lam scales all completions by lam
        rng = random.Random(22)
        for _ in range(10):
            n = rng.randint(1, 4)
            inst = random_instance(rng, n)
            lam = F(rng.randint(2, 5), rng.randint(1, 3))
            scaled = Instance(
                tuple(
                    Job(j.id, j.p * lam, j.alpha / lam, j.beta / lam)
                    for j in inst.jobs
                ),
                inst.machines,
            )
            order = tuple(range(n))
            base = solve_lp(build_order_lp(inst, order, "sum"))
            big = solve_lp(build_order_lp(scaled, order, "sum"))
            assert big.value == lam * base.value

    def test_symmetry_of_identical_jobs(self):
        inst = Instance(
            (
                Job("a", 2, F(-1, 3), 1),
                Job("b", 2, F(-1, 3), 1),
                Job("c", 1, F(-1, 3), 1),
            )
        )
        values = {
            order: solve_lp(build_order_lp(inst, order, "sum")).value
            for order in itertools.permutations(range(3))
        }
        # swapping the two identical jobs never changes the value
        for order, value in values.items():
            swapped = tuple({0: 1, 1: 0}.get(j, j) for j in order)
            assert values[swapped] == value

    def test_sum_lower_bounds(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(1, 4)
            inst = random_instance(rng, n, 1)
            order = tuple(rng.sample(range(n), n))
            sol = solve_lp(build_order_lp(inst, order, "sum"))
            q_max = max(min_makespan_single(j) for j in inst.jobs)
            p_sum = sum((j.p for j in inst.jobs), F(0))
            assert sol.value >= q_max
            assert sol.value >= p_sum


class TestLpText:
    def test_export_mentions_everything(self, twin_instance):
        prob = build_order_lp(twin_instance, (0, 1), "sum")
        text = lp_text(prob)
        assert text.startswith("Minimize")
        assert "obj: 2 D_1 + D_2" in text
        assert "done_2: w_1_2 + w_2_2 = 2" in text
        assert "temp_step_1_1: -1/3 D_1 - T_1_1 <= -8/3" in text
        assert "temp_step_1_2: -1/3 D_1 + 4/3 w_1_2 - T_1_2 <= 0" in text
        assert text.rstrip().endswith("End")
