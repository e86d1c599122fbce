import dataclasses
import itertools
import logging
import random
import sys
from fractions import Fraction

import pytest

from tempsched import (
    Constraint,
    InputError,
    LpProblem,
    PivotLimitError,
    SchedulingError,
    build_order_lp,
    dual_bound,
    simplex,
    solve_lp,
)

from .helpers import (
    certified, feasible_start, random_instance, random_small_lp, threshold_edge_instances,
    vertex_minimum,
)

F = Fraction


@pytest.fixture(autouse=True)
def _every_optimum_certified(monkeypatch):
    """Every optimum solved in this file must carry its exact dual certificate."""
    monkeypatch.setattr(sys.modules[__name__], "solve_lp", certified(solve_lp))


def _lp(objective, constraints, start=()):
    return LpProblem(tuple(objective), tuple(constraints), start)


def _from_feasible_start(prob):
    """`prob` started at `feasible_start(prob)`, or None where it has no
    feasible basis, after checking that `solve_lp` then refuses it."""
    start = feasible_start(prob)
    if start is None:
        with pytest.raises(InputError):
            solve_lp(prob)
        return None
    return dataclasses.replace(prob, start=start)


# Non-integer factors; 113 and 999999937 are prime, so denominators grow fast.
SCALES = (F(355, 113), F(113, 355), F(1, 999999937), F(999999937, 7), F(22, 7))
# Factors far beyond float range, so that no tableau entry converts to a float.
HUGE = 10**400
HUGE_SCALES = (F(HUGE), F(1, HUGE), F(3 * HUGE, 7), F(1))

# Beale (1955): cycles under the textbook largest-coefficient rule; min -1/20.
BEALE = LpProblem(
    (F(-3, 4), F(150), F(-1, 50), F(6)),
    (
        Constraint(((0, F(1, 4)), (1, F(-60)), (2, F(-1, 25)), (3, F(9))), "<=", F(0)),
        Constraint(((0, F(1, 2)), (1, F(-90)), (2, F(-1, 50)), (3, F(3))), "<=", F(0)),
        Constraint(((2, F(1)),), "<=", F(1)),
    ),
)


def _rescaled(prob, rng, scales=SCALES):
    """The same LP with every column, and every row, multiplied by a factor from
    `scales`; equality rows are also negated half the time. Substituting
    x_i = s_i * x'_i keeps the optimal value and feasibility unchanged."""
    col = [rng.choice(scales) for _ in prob.objective]
    cons = []
    for con in prob.constraints:
        r = rng.choice(scales)
        if con.relation == "==" and rng.random() < 0.5:
            r = -r
        coeffs = tuple((i, c * col[i] * r) for i, c in con.coeffs)
        cons.append(Constraint(coeffs, con.relation, con.rhs * r))
    objective = tuple(c * s for c, s in zip(prob.objective, col))
    return LpProblem(objective, tuple(cons))


class TestBasics:
    def test_min_x_at_least_three(self):
        # x >= 3 written as -x <= -3: the slack basis is infeasible, so the
        # start makes x basic in that row, negating it
        prob = _lp((F(1),), [Constraint(((0, F(-1)),), "<=", F(-3))], ((0, 0),))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == 3
        assert sol.x == (F(3),)

    def test_maximize_via_negation(self):
        prob = _lp((F(-1),), [Constraint(((0, F(1)),), "<=", F(5))])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == -5

    def test_unbounded(self):
        prob = _lp((F(-1),), [Constraint(((0, F(-1)),), "<=", F(-1))], ((0, 0),))
        assert solve_lp(prob).status == "unbounded"

    def test_unbounded_unconstrained_variable(self):
        prob = _lp((F(1), F(-2)), [Constraint(((0, F(1)),), "<=", F(4))])
        assert solve_lp(prob).status == "unbounded"

    def test_infeasible_negative_equality(self):
        # no x >= 0 has x == -2, so every start is refused
        prob = _lp((F(1),), [Constraint(((0, F(1)),), "==", F(-2))])
        for start in ((), ((0, 0),)):
            with pytest.raises(InputError):
                solve_lp(dataclasses.replace(prob, start=start))

    def test_infeasible_conflicting_rows(self):
        prob = _lp((F(0),), [
            Constraint(((0, F(1)),), "<=", F(1)),
            Constraint(((0, F(-1)),), "<=", F(-2)),
        ])
        for start in ((), ((0, 0),), ((1, 0),)):
            with pytest.raises(InputError, match="infeasible"):
                solve_lp(dataclasses.replace(prob, start=start))

    def test_empty_row_never_satisfied_is_infeasible(self):
        prob = _lp((F(1),), [Constraint((), "<=", F(-1))])
        with pytest.raises(InputError, match="infeasible"):
            solve_lp(prob)

    def test_two_variable_classic(self):
        # min -(3x + 5y) s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6)
        prob = _lp((F(-3), F(-5)), [
            Constraint(((0, F(1)),), "<=", F(4)),
            Constraint(((1, F(2)),), "<=", F(12)),
            Constraint(((0, F(3)), (1, F(2))), "<=", F(18)),
        ])
        sol = solve_lp(prob)
        assert sol.value == -36
        assert sol.x == (F(2), F(6))

    def test_fractional_data_stays_exact(self):
        prob = _lp((F(1, 3), F(1, 7)), [
            Constraint(((0, F(-2, 5)), (1, F(-1, 11))), "<=", F(-1)),
        ], ((0, 1),))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        # cheapest per unit of constraint coverage: x (rate (1/3)/(2/5) < (1/7)/(1/11))
        assert sol.x[0] == F(5, 2)
        assert sol.value == F(5, 6)

    def test_degenerate_ties(self):
        prob = _lp((F(-1), F(0)), [
            Constraint(((0, F(1)), (1, F(1))), "<=", F(2)),
            Constraint(((0, F(1)), (1, F(-1))), "<=", F(2)),
            Constraint(((0, F(1)),), "<=", F(2)),
        ])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == -2

    def test_zero_coefficients_are_ignored(self):
        prob = _lp((F(1), F(1)), [
            Constraint(((0, F(0)), (1, F(1))), "==", F(2)),
        ])
        with pytest.raises(InputError, match="zero pivot"):
            solve_lp(dataclasses.replace(prob, start=((0, 0),)))
        sol = solve_lp(dataclasses.replace(prob, start=((0, 1),)))
        assert sol.status == "optimal"
        assert sol.x == (F(0), F(2))

    def test_implied_equality_driven_out_on_negative_entry(self):
        # cap and x, y >= 0 already force x = y = 0, so "implied" is redundant.
        # Its row has only negative structural entries; the start negates it
        # to hold x there at 0, a degenerate basis, and its marker never
        # enters, so x and y stay 0 through the solve.
        prob = _lp((F(1), F(2), F(1, 999999937)), [
            Constraint(((0, F(355, 113)), (1, F(1, 999999937))), "<=", F(0)),
            Constraint(((0, F(-355, 113)), (1, F(-2, 999999937))), "==", F(0)),
            Constraint(((2, F(-22, 7)),), "<=", F(-355, 113)),
        ], ((1, 0), (2, 2)))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x == (F(0), F(0), F(2485, 2486))
        assert (sol.status, sol.value) == vertex_minimum(prob)

    def test_pivot_cap_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
        with pytest.raises(PivotLimitError):
            solve_lp(BEALE)
        assert issubclass(PivotLimitError, SchedulingError)

    def test_assignment_covers_all_variables(self):
        prob = _lp((F(1), F(1), F(0)), [
            Constraint(((0, F(2)),), "==", F(6)),
        ], ((0, 0),))
        sol = solve_lp(prob)
        assert sol.x == (F(3), F(0), F(0))


class TestAgainstVertexEnumeration:
    """`solve_lp` from `feasible_start`'s basis against `vertex_minimum`;
    where there is no feasible basis (an infeasible LP, or a redundant `==`
    row that no basis can name), `solve_lp` must refuse the LP."""

    def test_random_lps_match_oracle(self):
        rng = random.Random(2024)
        optimal = infeasible = 0
        for _ in range(120):
            base = random_small_lp(rng)
            status, value = vertex_minimum(base)
            prob = _from_feasible_start(base)
            if prob is None:
                infeasible += status == "infeasible"
                continue
            sol = solve_lp(prob)
            assert (sol.status, sol.value) == (status, value), (prob, sol.status, status)
            optimal += 1
            assert prob.violated_constraints(sol.x) == []
            assert prob.objective_value(sol.x) == sol.value
        # the generator should exercise both outcomes
        assert optimal >= 30
        assert infeasible >= 5

    def test_rescaled_lps_match_oracle(self):
        # Large-denominator coefficients exercise the integer row scaling and
        # gcd reduction that the small-integer LPs above leave untouched.
        rng = random.Random(355113)
        optimal = infeasible = 0
        for _ in range(120):
            base = random_small_lp(rng)
            rescaled = _rescaled(base, rng)
            status, value = vertex_minimum(rescaled)
            prob = _from_feasible_start(rescaled)
            if prob is None:
                infeasible += status == "infeasible"
                continue
            sol = solve_lp(prob)
            assert (sol.status, sol.value) == (status, value), (prob, sol.status, status)
            optimal += 1
            assert sol.value == solve_lp(_from_feasible_start(base)).value
            assert prob.violated_constraints(sol.x) == []
            assert prob.objective_value(sol.x) == sol.value
        assert optimal >= 30
        assert infeasible >= 5

    def test_coefficients_beyond_float_range(self):
        # Pricing divides integers in floats; none of these may overflow.
        b = HUGE
        prob = _lp((F(-b), F(-1)), [
            Constraint(((0, F(1)), (1, F(1))), "<=", F(3 * b)),
            Constraint(((0, F(1)),), "<=", F(2)),
        ])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == -5 * b + 2
        assert sol.x == (F(2), F(3 * b - 2))

        rng = random.Random(400)
        optimal = 0
        for _ in range(60):
            base = random_small_lp(rng)
            rescaled = _rescaled(base, rng, HUGE_SCALES)
            status, value = vertex_minimum(rescaled)
            prob = _from_feasible_start(rescaled)
            if prob is None:
                continue
            sol = solve_lp(prob)
            assert (sol.status, sol.value) == (status, value), (prob, sol.status, status)
            optimal += 1
            assert sol.value == solve_lp(_from_feasible_start(base)).value
            assert prob.violated_constraints(sol.x) == []
        assert optimal >= 15


def _order_lps():
    """Every order LP, both objectives, of small seeded instances."""
    rng = random.Random(1955)
    for n in range(1, 5):
        for machines in (1, 2):
            for common in (True, False):
                inst = random_instance(rng, n, machines, common_rates=common)
                for order in itertools.permutations(range(n)):
                    for objective in ("sum", "makespan"):
                        yield build_order_lp(inst, order, objective)


class TestPricing:
    """Devex pricing against Bland's rule from the first pivot: the value is
    exact either way, only the vertex may differ at alternative optima."""

    @staticmethod
    def _bland(prob, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_DEGENERATE_RUN", 0)
            return solve_lp(prob)

    def test_random_lps_agree_with_bland(self, monkeypatch):
        rng = random.Random(1973)
        for _ in range(120):
            prob = random_small_lp(rng)
            if rng.random() < 0.5:
                prob = _rescaled(prob, rng)
            prob = _from_feasible_start(prob)
            if prob is None:
                continue
            devex, bland = solve_lp(prob), self._bland(prob, monkeypatch)
            assert (devex.status, devex.value) == (bland.status, bland.value)

    def test_order_lps_agree_with_bland(self, monkeypatch):
        count = 0
        for prob in _order_lps():
            devex, bland = solve_lp(prob), self._bland(prob, monkeypatch)
            assert devex.status == bland.status == "optimal"
            assert devex.value == bland.value
            assert prob.violated_constraints(devex.x) == []
            count += 1
        assert count == 2 * 2 * 2 * (1 + 2 + 6 + 24)

    @pytest.mark.parametrize("degenerate_run", [0, 1, simplex._DEGENERATE_RUN])
    def test_beale_cycling_example(self, monkeypatch, degenerate_run):
        monkeypatch.setattr(simplex, "_DEGENERATE_RUN", degenerate_run)
        sol = solve_lp(BEALE)
        assert sol.status == "optimal"
        assert sol.value == F(-1, 20)
        assert sol.x == (F(1, 25), F(0), F(1), F(0))

    def test_one_debug_event_per_solve(self, caplog, monkeypatch):
        pivots = []
        pivot = simplex._pivot

        def spy(rows, basis, r, col):
            pivots.append(col)
            return pivot(rows, basis, r, col)

        monkeypatch.setattr(simplex, "_pivot", spy)
        monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 1)
        with caplog.at_level(logging.DEBUG, logger="tempsched"):
            solve_lp(BEALE)
            beale_pivots = len(pivots)
            # a refused start raises before the simplex runs, and logs nothing
            with pytest.raises(InputError):
                solve_lp(_lp((F(1),), [Constraint(((0, F(1)),), "==", F(-2))], ((0, 0),)))
        records = [r for r in caplog.records if r.name == "tempsched"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        status, rows, columns, made, bland = records[0].args
        assert (status, rows, columns) == ("optimal", 3, 7)
        assert made == beale_pivots and 0 < bland <= made
        assert "Bland" in records[0].getMessage()


def _seeded_order_lps(per_instance):
    """(problem, solution) for up to `per_instance` orders of seeded instances,
    n 1..5, m 1..3, rates common and job-dependent, both objectives."""
    rng = random.Random(2004)
    for n in range(1, 6):
        for machines in (1, 2, 3):
            for common in (True, False):
                inst = random_instance(rng, n, machines, common_rates=common)
                orders = list(itertools.permutations(range(n)))
                for order in rng.sample(orders, min(len(orders), per_instance)):
                    for objective in ("sum", "makespan"):
                        prob = build_order_lp(inst, order, objective)
                        yield prob, solve_lp(prob)


class TestDualCertificate:
    """`solve_lp`'s duals against `dual_bound`, which shares no code with it."""

    def test_order_lps(self):
        count = 0
        for prob, sol in _seeded_order_lps(3):
            assert sol.status == "optimal"
            assert len(sol.y) == len(prob.constraints)
            assert dual_bound(prob, sol.y) == sol.value
            count += 1
        assert count == 2 * 3 * 2 * (1 + 2 + 3 + 3 + 3)

    def test_zero_optimum(self):
        # min x - y s.t. y <= x, x <= 2, y >= 1: the optimum 0 is at x = y, and
        # the only optimal dual is (-1, 0, 0); the last row's slack basis is
        # infeasible, so the start names x = y = 1.
        prob = _lp((F(1), F(-1)), [
            Constraint(((0, F(-1)), (1, F(1))), "<=", F(0)),
            Constraint(((0, F(1)),), "<=", F(2)),
            Constraint(((1, F(-3, 7)),), "<=", F(-3, 7)),
        ], ((0, 0), (2, 1)))
        sol = solve_lp(prob)
        assert sol.value == 0
        assert sol.y == (F(-1), F(0), F(0))
        assert dual_bound(prob, sol.y) == 0

    def test_banned_columns_keep_the_dual_feasible(self):
        # x and y are 0 on every feasible point, and x alone has a negative
        # cost. The equality's marker is banned, so it never enters; the
        # dual read at it is free in sign, as an equality's dual may be.
        prob = _lp((F(-1), F(2), F(1)), [
            Constraint(((0, F(1)), (1, F(1))), "<=", F(0)),
            Constraint(((0, F(-1)), (1, F(-2))), "==", F(0)),
            Constraint(((2, F(-1)),), "<=", F(-1)),
        ], ((1, 0), (2, 2)))
        sol = solve_lp(prob)
        assert (sol.value, sol.x) == (1, (F(0), F(0), F(1)))
        assert dual_bound(prob, sol.y) == 1

    def test_mutated_duals_rejected(self):
        # Every `==` row of an order LP has a positive right-hand side, and
        # every value is positive, so neither mutation can keep the bound.
        mutants = 0
        for prob, sol in _seeded_order_lps(1):
            assert sol.value > 0
            for i, v in enumerate(sol.y):
                if v:
                    flipped = sol.y[:i] + (-v,) + sol.y[i + 1:]
                    assert dual_bound(prob, flipped) != sol.value
                    mutants += 1
            assert dual_bound(prob, tuple(2 * v for v in sol.y)) != sol.value
        assert mutants > 100


class TestStartBasis:
    """The solve starts at the basis the problem names: every order LP's is
    accepted, and a refused one raises `InputError`."""

    def test_order_lps_skip_phase_one(self):
        # There is no phase 1 to fall back on, so every order LP's start
        # must pass the exact checks, jobs at beta * p = 1 and single jobs
        # included.
        rng = random.Random(1992)
        cases = [(random_instance(rng, n, machines, common_rates=common), rng.sample(range(n), n))
                 for n in range(1, 9) for machines in (1, 2, 3) for common in (True, False)]
        count = 0
        for inst, order in cases + list(threshold_edge_instances(rng)):
            for objective in ("sum", "makespan"):
                prob = build_order_lp(inst, order, objective)
                sol = solve_lp(prob)
                assert sol.status == "optimal"
                assert dual_bound(prob, sol.y) == sol.value
                assert prob.violated_constraints(sol.x) == []
                count += 1
        assert count == (8 * 3 * 2 + 4 * 3) * 2

    # min x - y s.t. x + y <= 4 (cap), y <= 5 (ymax), x + y == 3 (sum): rows 0, 1, 2
    HAND = _lp((F(1), F(-1)), [
        Constraint(((0, F(1)), (1, F(1))), "<=", F(4)),
        Constraint(((1, F(1)),), "<=", F(5)),
        Constraint(((0, F(1)), (1, F(1))), "==", F(3)),
    ])
    # x + y == 4 twice over: no basis names both rows
    REDUNDANT = _lp((F(1), F(1)), [
        Constraint(((0, F(1)), (1, F(1))), "==", F(4)),
        Constraint(((0, F(2)), (1, F(2))), "==", F(8)),
    ])
    # 0 == 0: a row no column can hold
    EMPTY = _lp((F(1),), [Constraint((), "==", F(0))])

    @pytest.mark.parametrize("prob, start, reason", [
        (HAND, ((1, 0), (2, 1)), "zero pivot"),  # ymax holds no x
        (HAND, ((1, 1), (2, 0)), "infeasible"),  # y = 5 leaves x = -2 in the sum row
        (HAND, ((0, 0),), "names no column"),  # the sum row keeps its marker
        (HAND, (), "names no column"),  # the slack basis is feasible but leaves sum out
        (REDUNDANT, ((0, 0),), "names no column"),
        (EMPTY, (), "names no column"),
    ], ids=["zero-pivot", "infeasible", "equality-unnamed", "slack-basis", "redundant-equality",
            "empty-equality"])
    def test_refused_start_changes_nothing(self, caplog, prob, start, reason):
        # the refusal comes before the simplex runs: no solve is logged
        with caplog.at_level(logging.DEBUG, logger="tempsched"):
            with pytest.raises(InputError, match=reason):
                solve_lp(dataclasses.replace(prob, start=start))
        assert not [r for r in caplog.records if r.name == "tempsched"]

    def test_feasible_start_on_a_hand_lp(self):
        # y = 3 in the sum row, x = 0: both `<=` rows keep their slack, so
        # their duals are 0, and the sum row's is -1
        sol = solve_lp(dataclasses.replace(self.HAND, start=((2, 1),)))
        assert (sol.value, sol.x) == (-3, (F(0), F(3)))
        assert sol.y == (F(0), F(0), F(-1))
