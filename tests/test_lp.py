import dataclasses
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
    min_makespan_single,
    solve_lp,
)
from tempsched.duals import OrderDual

from .helpers import (
    certified, lp_columns, lp_rows, random_instance, threshold_edge_instances,
)

F = Fraction


@pytest.fixture(autouse=True)
def _every_optimum_certified(monkeypatch):
    """Every optimum solved in this file must carry its exact dual certificate."""
    monkeypatch.setattr(sys.modules[__name__], "solve_lp", certified(solve_lp))


class TestBuildOrderLp:
    def test_golden_two_job_lp(self, twin_instance):
        # Columns 0..6: D_1, D_2, w_1_2, w_2_2, T_1_1, T_1_2, T_2_2. Rows 0..8:
        # done_2, manage_1, manage_2, temp_step_1_1, temp_step_1_2,
        # temp_step_2_2, temp_cap_1_1, temp_cap_1_2, temp_cap_2_2. Both jobs
        # have p = 2, alpha = -1/3 and beta = 1, so beta - alpha = 4/3.
        prob = build_order_lp(twin_instance, (0, 1), "sum")
        assert len(prob.constraints) == constraint_count(2, 1) == 9
        assert prob.objective == (2, 1, 0, 0, 0, 0, 0)
        assert prob.constraints == (
            Constraint(((2, 1), (3, 1)), "==", 2),
            # w_1_1 = p_1 = 2 is a constant: it moves to the right-hand side
            Constraint(((2, 1), (0, -1)), "<=", -2),
            Constraint(((3, 1), (1, -1)), "<=", 0),
            Constraint(((0, F(-1, 3)), (4, -1)), "<=", F(-8, 3)),
            Constraint(((0, F(-1, 3)), (2, F(4, 3)), (5, -1)), "<=", 0),
            Constraint(((1, F(-1, 3)), (3, F(4, 3)), (6, -1), (5, 1)), "<=", 0),
            Constraint(((4, 1),), "<=", 1),
            Constraint(((5, 1),), "<=", 1),
            Constraint(((6, 1),), "<=", 1),
        )
        # beta * p = 2 > 1: each D_i sits in temp_step_i_i, each T_i_i = 1 in
        # temp_cap_i_i, and w_2_2 in done_2
        assert prob.start == ((0, 3), (3, 0), (6, 4), (5, 1), (8, 6))

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
                    assert len(prob.objective) == n * n + 2 * n - 1

    def test_row_and_column_helpers_tile_the_lp(self):
        # build_order_lp, extract_schedule and OrderDual all lay out the LP
        # through these: each must give every index exactly once
        for n in range(1, 7):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            cols = [lp._col_d(i) for i in range(1, n + 1)]
            cols += [lp._col_w(n, i, j) for i, j in pairs if j > 1]
            cols += [lp._col_t(n, i, j) for i, j in pairs]
            assert sorted(cols) == list(range(n * n + 2 * n - 1))
            for m in range(1, 4):
                m_lp = m if n > 1 else 1
                rows = [lp._row_done(j) for j in range(2, n + 1)]
                rows += [lp._row_manage(n, i) for i in range(1, n + 1)]
                rows += [lp._row_rate(n, i, j) for i, j in pairs if m_lp > 1]
                rows += [lp._row_step(n, m_lp, i, j) for i, j in pairs]
                rows += [lp._row_cap(n, m_lp, i, j) for i, j in pairs]
                assert sorted(rows) == list(range(constraint_count(n, m)))

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
                    for r, con in enumerate(prob.constraints):
                        coeffs = sorted((i, c) for i, c in con.coeffs if c != 0)
                        assert coeffs, r
                        assert not (con.relation == "==" and len(coeffs) == 1), r
                        scale = abs(coeffs[0][1])
                        key = (con.relation, tuple((i, c / scale) for i, c in coeffs))
                        assert key not in seen, r
                        seen.add(key)
                    used = {i for con in prob.constraints for i, c in con.coeffs if c != 0}
                    assert used == set(range(len(prob.objective)))

    def test_increments_leave_few_rows_outside_the_slack_basis(self):
        # only done_j (equalities) and the rows holding the constant w_1_1
        # (manage_1, temp_step_1_1 and, when m > 1, rate_1_1, with a
        # negative right-hand side) cannot keep their slack in a feasible
        # basis
        rng = random.Random(11)
        for n in range(1, 7):
            for m in (1, 2):
                inst = random_instance(rng, n, m, common_rates=False)
                prob = build_order_lp(inst, tuple(rng.sample(range(n), n)), "sum")
                names = lp_rows(n, m)
                needy = {names[r] for r, c in enumerate(prob.constraints)
                         if c.relation == "==" or c.rhs < 0}
                expected = {f"done_{j}" for j in range(2, n + 1)} | {"manage_1", "temp_step_1_1"}
                if m > 1 and n > 1:
                    expected.add("rate_1_1")
                assert needy == expected

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
        assert prob.objective == (1, 1, 0, 0, 0, 0, 0)  # D_1 + D_2


class TestLpProblem:
    def test_unknown_relation_rejected(self):
        # solve_lp reads any relation other than "<=" as "=="
        with pytest.raises(InputError):
            LpProblem((F(1),), (Constraint(((0, F(1)),), ">=", F(-2)),))

    def test_coefficient_outside_the_columns_rejected(self):
        # solve_lp would give the stray index its own column
        ok = Constraint(((0, F(1)),), "<=", F(1))
        with pytest.raises(InputError, match="row 1"):
            LpProblem((F(1), F(1)), (ok, Constraint(((3, F(1)),), "<=", F(-4))))
        with pytest.raises(InputError, match="row 0"):
            LpProblem((F(1),), (Constraint(((-1, F(1)),), "<=", F(1)),))

    def test_inexact_numbers_rejected(self):
        # solve_lp would fail on a float's missing denominator, and read True as 1
        with pytest.raises(InputError):
            LpProblem((F(1),), (Constraint(((0, 0.5),), "<=", F(-2)),))
        with pytest.raises(InputError):
            LpProblem((F(1),), (Constraint(((0, F(1)),), "<=", 2.0),))
        with pytest.raises(InputError):
            LpProblem((F(1),), (Constraint(((0, True),), "<=", F(2)),))

    def test_inexact_objective_rejected(self):
        for entry in (1.5, "1", False):
            with pytest.raises(InputError):
                LpProblem((entry,), ())

    def test_ints_accepted(self):
        prob = LpProblem((1,), (Constraint(((0, -1),), "<=", -2),), ((0, 0),))
        assert solve_lp(prob).value == 2

    @pytest.mark.parametrize("start", [
        ((2, 0),), ((0, 2),), ((-1, 0),), ((0, -1),), ((0, 0), (0, 1)), ((0, 0), (1, 0)),
        ((F(0), 1),), ((True, 1),), ((0,),), ((0, 1, 1),), (1,),
    ], ids=repr)
    def test_bad_start_rejected(self, start):
        cons = (Constraint(((0, F(1)),), "<=", F(1)), Constraint(((1, F(1)),), "<=", F(1)))
        LpProblem((F(1), F(1)), cons, ((1, 0), (0, 1)))
        with pytest.raises(InputError, match="start"):
            LpProblem((F(1), F(1)), cons, start)

    def test_violations_list_rows_then_negative_columns(self):
        # min x + y s.t. -x <= -1 (row 0), x + y <= 2 (row 1), y == 1 (row 2)
        prob = LpProblem((F(1), F(1)), (
            Constraint(((0, F(-1)),), "<=", F(-1)),
            Constraint(((0, F(1)), (1, F(1))), "<=", F(2)),
            Constraint(((1, F(1)),), "==", F(1)),
        ))
        assert prob.violated_constraints((F(1), F(1))) == []
        assert prob.violated_constraints((F(2), F(1))) == [1]
        assert prob.violated_constraints((F(-1), F(0))) == [0, 2, 3 + 0]
        assert prob.violated_constraints((F(3), F(-1))) == [2, 3 + 1]

    def test_point_of_the_wrong_length_rejected(self):
        prob = LpProblem((F(1), F(1)), (Constraint(((1, F(1)),), "<=", F(1)),))
        with pytest.raises(InputError):
            prob.violated_constraints((F(0),))
        with pytest.raises(InputError):
            prob.objective_value((F(0), F(0), F(0)))


class TestDualBound:
    # min x + 2y s.t. x + y >= 3 (as a `<=` row) and y == 1: the optimum is 4,
    # at x = 2, and the optimal dual is (-1, 1).
    PROB = LpProblem((F(1), F(2)), (
        Constraint(((0, F(-1)), (1, F(-1))), "<=", F(-3)),
        Constraint(((1, F(1)),), "==", F(1)),
    ))

    def test_optimal_dual_certifies_the_optimum(self):
        assert dual_bound(self.PROB, (F(-1), F(1))) == 4
        # y == 1 needs a named column, and x + y >= 3 is not met at x = 0
        sol = solve_lp(dataclasses.replace(self.PROB, start=((0, 0), (1, 1))))
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
        prob = LpProblem((F(1),), (Constraint(((0, F(-1)),), "<=", F(-3)),))
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
        assert sol.x[:2] == (5, 0)  # D_1 and D_2

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
        broken[lp_columns(2).index("w_1_2")] = F(99)
        rows = lp_rows(2, 1)
        assert [rows[r] for r in prob.violated_constraints(broken)] == [
            "done_2", "manage_1", "temp_step_1_2"]

    def test_extract_requires_optimal(self, twin_instance):
        with pytest.raises(NoScheduleError):
            extract_schedule(
                twin_instance, (0, 1), LpSolution("unbounded", None, ())
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
        x[lp_columns(2).index("w_2_2")] += 1
        with pytest.raises(NoScheduleError, match="job 0"):
            extract_schedule(twin_instance, (1, 0), LpSolution("optimal", sol.value, tuple(x)))


class TestStartBasis:
    def test_order_lp_starts_one_job_at_a_time(self):
        # The named basis is the schedule that runs each job alone, as fast
        # as its threshold allows, so that D_j is its one-job minimum
        # makespan q_j; that point is feasible.
        rng = random.Random(1998)
        cases = [(random_instance(rng, n, machines, common_rates=common), rng.sample(range(n), n))
                 for n in range(1, 6) for machines in (1, 2, 3) for common in (True, False)]
        for inst, order in cases + list(threshold_edge_instances(rng)):
            n = inst.n
            m = inst.machines if n > 1 else 1
            prob = build_order_lp(inst, order, "sum")
            cols, rows = lp_columns(n), lp_rows(n, m)
            x = [F(0)] * len(cols)
            named = {}
            for j, k in enumerate(order, 1):
                job = inst.jobs[k]
                d, t = cols.index(f"D_{j}"), cols.index(f"T_{j}_{j}")
                x[d] = min_makespan_single(job)
                if job.beta * job.p <= 1:
                    assert x[d] == job.p
                    x[t] = job.beta * job.p
                    named[f"rate_{j}_{j}" if m > 1 else f"manage_{j}"] = f"D_{j}"
                    named[f"temp_step_{j}_{j}"] = f"T_{j}_{j}"
                else:
                    assert x[d] == job.p + (job.beta * job.p - 1) / -job.alpha
                    x[t] = F(1)
                    named[f"temp_step_{j}_{j}"] = f"D_{j}"
                    named[f"temp_cap_{j}_{j}"] = f"T_{j}_{j}"
                if j > 1:
                    x[cols.index(f"w_{j}_{j}")] = job.p
                    named[f"done_{j}"] = f"w_{j}_{j}"
            assert prob.violated_constraints(x) == []
            assert {rows[r]: cols[c] for r, c in prob.start} == named


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
