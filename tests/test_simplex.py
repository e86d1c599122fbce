import dataclasses
import itertools
import logging
import random
import sys
from fractions import Fraction

import pytest

from tempsched import (
    Constraint,
    LpProblem,
    PivotLimitError,
    SchedulingError,
    build_order_lp,
    dual_bound,
    simplex,
    solve_lp,
)
from tempsched.generate import random_instance

from .helpers import certified, random_small_lp, threshold_edge_instances, vertex_minimum

F = Fraction


@pytest.fixture(autouse=True)
def _every_optimum_certified(monkeypatch):
    """Every optimum solved in this file must carry its exact dual certificate."""
    monkeypatch.setattr(sys.modules[__name__], "solve_lp", certified(solve_lp))


def _lp(objective, constraints):
    return LpProblem(tuple(objective), tuple(constraints))


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
        # x >= 3 written as -x <= -3, exercising the artificial-variable path
        prob = _lp((F(1),), [Constraint(((0, F(-1)),), "<=", F(-3))])
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
        prob = _lp((F(-1),), [Constraint(((0, F(-1)),), "<=", F(-1))])
        assert solve_lp(prob).status == "unbounded"

    def test_unbounded_unconstrained_variable(self):
        prob = _lp((F(1), F(-2)), [Constraint(((0, F(1)),), "<=", F(4))])
        assert solve_lp(prob).status == "unbounded"

    def test_infeasible_negative_equality(self):
        prob = _lp((F(1),), [Constraint(((0, F(1)),), "==", F(-2))])
        assert solve_lp(prob).status == "infeasible"

    def test_infeasible_conflicting_rows(self):
        prob = _lp((F(0),), [
            Constraint(((0, F(1)),), "<=", F(1)),
            Constraint(((0, F(-1)),), "<=", F(-2)),
        ])
        assert solve_lp(prob).status == "infeasible"

    def test_redundant_equalities_ok(self):
        prob = _lp((F(1), F(1)), [
            Constraint(((0, F(1)), (1, F(1))), "==", F(4)),
            Constraint(((0, F(2)), (1, F(2))), "==", F(8)),
        ])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == 4

    def test_empty_row_never_satisfied_is_infeasible(self):
        prob = _lp((F(1),), [Constraint((), "<=", F(-1))])
        assert solve_lp(prob).status == "infeasible"

    def test_empty_row_always_satisfied_is_dropped(self):
        prob = _lp((F(1),), [Constraint((), "==", F(0))])
        sol = solve_lp(prob)
        assert (sol.status, sol.value, sol.x) == ("optimal", 0, (F(0),))

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
        ])
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
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x == (F(0), F(2))

    def test_implied_equality_driven_out_on_negative_entry(self):
        # cap and x, y >= 0 already force x = y = 0, so "implied" is redundant.
        # Its row has only negative structural entries, so x and y get positive
        # phase-1 reduced costs: phase 1 ends with its artificial basic at zero,
        # and banning x and y keeps it there through phase 2.
        prob = _lp((F(1), F(2), F(1, 999999937)), [
            Constraint(((0, F(355, 113)), (1, F(1, 999999937))), "<=", F(0)),
            Constraint(((0, F(-355, 113)), (1, F(-2, 999999937))), "==", F(0)),
            Constraint(((2, F(-22, 7)),), "<=", F(-355, 113)),
        ])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x == (F(0), F(0), F(2485, 2486))
        assert (sol.status, sol.value) == vertex_minimum(prob)

    def test_pivot_cap_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
        prob = _lp((F(1),), [Constraint(((0, F(-1)),), "<=", F(-3))])
        with pytest.raises(PivotLimitError):
            solve_lp(prob)
        assert issubclass(PivotLimitError, SchedulingError)

    def test_assignment_covers_all_variables(self):
        prob = _lp((F(1), F(1), F(0)), [
            Constraint(((0, F(2)),), "==", F(6)),
        ])
        sol = solve_lp(prob)
        assert sol.x == (F(3), F(0), F(0))


class TestAgainstVertexEnumeration:
    def test_random_lps_match_oracle(self):
        rng = random.Random(2024)
        optimal = infeasible = 0
        for _ in range(120):
            prob = random_small_lp(rng)
            sol = solve_lp(prob)
            status, value = vertex_minimum(prob)
            assert sol.status == status, (prob, sol.status, status)
            if status == "optimal":
                optimal += 1
                assert sol.value == value
                assert prob.violated_constraints(sol.x) == []
                assert prob.objective_value(sol.x) == sol.value
            else:
                infeasible += 1
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
            prob = _rescaled(base, rng)
            sol = solve_lp(prob)
            status, value = vertex_minimum(prob)
            assert sol.status == status, (prob, sol.status, status)
            if status == "optimal":
                optimal += 1
                assert sol.value == value == solve_lp(base).value
                assert prob.violated_constraints(sol.x) == []
                assert prob.objective_value(sol.x) == sol.value
            else:
                infeasible += 1
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
            prob = _rescaled(base, rng, HUGE_SCALES)
            sol = solve_lp(prob)
            status, value = vertex_minimum(prob)
            assert sol.status == status, (prob, sol.status, status)
            if status == "optimal":
                optimal += 1
                assert sol.value == value == solve_lp(base).value
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
            solve_lp(_lp((F(1),), [Constraint(((0, F(1)),), "==", F(-2))]))
        records = [r for r in caplog.records if r.name == "tempsched"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        status, rows, columns, start, phase1, phase2, bland = records[0].args
        assert (status, rows, columns, start, phase1) == ("optimal", 3, 7, "none", 0)
        assert phase2 == len(pivots) and 0 < bland <= phase2
        assert "Bland" in records[0].getMessage()
        assert records[1].args[:5] == ("infeasible", 1, 2, "none", 0)


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
        # the only optimal dual is (-1, 0, 0); the last row needs an artificial.
        prob = _lp((F(1), F(-1)), [
            Constraint(((0, F(-1)), (1, F(1))), "<=", F(0)),
            Constraint(((0, F(1)),), "<=", F(2)),
            Constraint(((1, F(-3, 7)),), "<=", F(-3, 7)),
        ])
        sol = solve_lp(prob)
        assert sol.value == 0
        assert sol.y == (F(-1), F(0), F(0))
        assert dual_bound(prob, sol.y) == 0

    def test_banned_columns_keep_the_dual_feasible(self):
        # Phase 1 bans x and y (both 0 on every feasible point); phase 2's own
        # prices leave x's reduced cost negative, so phase 1's are added in.
        prob = _lp((F(-1), F(2), F(1)), [
            Constraint(((0, F(1)), (1, F(1))), "<=", F(0)),
            Constraint(((0, F(-1)), (1, F(-2))), "==", F(0)),
            Constraint(((2, F(-1)),), "<=", F(-1)),
        ])
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


def _solve_logged(prob, caplog):
    """The solution and the (start, phase-1 pivots) of its one DEBUG event."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tempsched"):
        sol = solve_lp(prob)
    (event,) = [r for r in caplog.records if r.getMessage().startswith("solve_lp")]
    return sol, event.args[3:5]


class TestStartBasis:
    """A named start basis skips phase 1 where it is feasible, and changes
    nothing where it is refused."""

    def test_order_lps_skip_phase_one(self, caplog):
        # A refused basis falls back to phase 1 without a word, so every
        # order LP must report its start basis used, jobs at beta * p = 1
        # and single jobs included.
        rng = random.Random(1992)
        cases = [(random_instance(rng, n, machines, common_rates=common), rng.sample(range(n), n))
                 for n in range(1, 9) for machines in (1, 2, 3) for common in (True, False)]
        count = 0
        for inst, order in cases + list(threshold_edge_instances(rng)):
            for objective in ("sum", "makespan"):
                prob = build_order_lp(inst, order, objective)
                sol, event = _solve_logged(prob, caplog)
                assert event == ("used", 0)
                assert sol.value == solve_lp(dataclasses.replace(prob, start=())).value
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

    @pytest.mark.parametrize("start", [
        ((1, 0), (2, 1)),  # ymax holds no x: a zero pivot entry
        ((1, 1), (2, 0)),  # y = 5 leaves x = -2 in the sum row: infeasible
        ((0, 0),),  # the equality row keeps its artificial
    ], ids=["zero-pivot", "infeasible", "equality-unnamed"])
    def test_refused_start_changes_nothing(self, caplog, start):
        plain, event = _solve_logged(self.HAND, caplog)
        assert event[0] == "none"
        hinted, event = _solve_logged(dataclasses.replace(self.HAND, start=start), caplog)
        assert event[0] == "refused"
        assert hinted == plain
        assert (plain.value, plain.x) == (-3, (F(0), F(3)))

    def test_feasible_start_on_a_hand_lp(self, caplog):
        # y = 3 in the sum row, x = 0: both `<=` rows keep their slack
        sol, event = _solve_logged(dataclasses.replace(self.HAND, start=((2, 1),)), caplog)
        assert event == ("used", 0)
        assert (sol.value, sol.x) == (-3, (F(0), F(3)))
        assert sol.y == solve_lp(self.HAND).y
