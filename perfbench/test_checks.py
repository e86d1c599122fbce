"""The benchmark's checker accepts known-good schedules and rejects bad ones.

The twin instance has two jobs with p = 2, alpha = -1/3 and beta = 1 on one
machine. Its sum optimum runs both at load 2/5 on [0, 5), so each
temperature reaches exactly 1 at t = 5.
"""

from fractions import Fraction as F

import checks

TWIN = [("j1", F(2), F(-1, 3), F(1)), ("j2", F(2), F(-1, 3), F(1))]
TWIN_OPTIMUM = ((0, 1), (F(5), F(5)), ((F(2), F(2)), (F(2), F(2))))


def test_twin_optimum_passes():
    order, completions, work = TWIN_OPTIMUM
    problems, done = checks.check_normal(TWIN, 1, order, completions, work, F(10))
    assert problems == []
    assert done == {"j1": F(5), "j2": F(5)}
    assert checks.check_lower_bounds(TWIN, done) == []


def test_wrong_value_rejected():
    order, completions, work = TWIN_OPTIMUM
    problems, _ = checks.check_normal(TWIN, 1, order, completions, work, F(9))
    assert any("sum of completions" in p for p in problems)


def test_overheating_natural_rejected():
    problems, _ = checks.check_natural(TWIN, 1, {"j1": [(F(0), F(2))], "j2": [(F(2), F(4))]})
    assert any("j1 overheats" in p for p in problems)


def test_missing_work_rejected():
    problems, _ = checks.check_natural(
        TWIN, 1, {"j1": [(F(0), F(1)), (F(4), F(5))], "j2": [(F(1), F(2))]}
    )
    assert any(p.startswith("j2: work 1") for p in problems)


def test_alternating_natural_passes():
    problems, done = checks.check_natural(
        TWIN, 1, {"j1": [(F(0), F(1)), (F(4), F(5))], "j2": [(F(1), F(2)), (F(5), F(6))]}
    )
    assert problems == []
    assert done == {"j1": F(5), "j2": F(6)}


def test_two_jobs_at_once_on_one_machine_rejected():
    problems, _ = checks.check_natural(
        TWIN, 1, {"j1": [(F(0), F(1)), (F(4), F(5))], "j2": [(F(0), F(1)), (F(5), F(6))]}
    )
    assert any("run at once" in p for p in problems)


def test_overheating_normal_rejected():
    # Both jobs at load 1/2 on [0, 4): slope -1/3 * 1/2 + 1/2 = 1/3, so 4/3 at t = 4.
    problems, _ = checks.check_normal(
        TWIN, 1, (0, 1), (F(4), F(4)), ((F(2), F(2)), (F(2), F(2))), F(8)
    )
    assert any("overheats" in p for p in problems)


def test_makespan_closed_form():
    # q = 1/beta + (p - 1/beta) / (1/4) = 1 + 4 = 5 for a twin job.
    assert checks.one_job_makespan(F(2), F(-1, 3), F(1)) == 5
    assert checks.closed_form_makespan(TWIN, 1) == 5
    cool = [("a", F(1, 2), F(-1), F(1)), ("b", F(1, 2), F(-1), F(1))]
    assert checks.closed_form_makespan(cool, 1) == 1


def test_order_lp_value_matches_twin_optimum():
    assert abs(checks.order_lp_value(TWIN, 1, (0, 1)) - 10) < 1e-7
    assert abs(checks.order_lp_value(TWIN, 1, (0, 1), "makespan") - 5) < 1e-7
