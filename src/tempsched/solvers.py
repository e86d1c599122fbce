"""High-level solvers for the two objectives.

* Sum of completion times: solved by one LP over the shortest-processing-
  time completion order (optimal for common heating/cooling rates), with a
  brute-force all-orders variant kept as the correctness oracle and as the
  fallback for job-dependent rates.
* The brute force (`_best_order`) is branch and bound with LP bounds (Land
  & Doig 1960): the exact optimal duals of every LP solved so far are
  kept, and an order whose LP one of them bounds at a value that cannot
  win is neither built nor solved. Weak duality makes the bound exact, so
  the result is the lexicographically first optimum of a plain
  enumeration.
* Makespan: closed form max(max_j q_j, sum_j p_j / m) where q_j is the
  one-job minimum; the witness schedule runs every job at the constant
  rate p_j / makespan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import Instance, InputError, Job, NormalSchedule, debug, positive_int
from .lp import (
    LpSolution,
    NoScheduleError,
    Objective,
    build_order_lp,
    extract_schedule,
)
from .simplex import solve_lp

DEFAULT_BRUTE_CAP = 7


class HeterogeneousRatesError(InputError):
    """The shortest-processing-time guarantee needs common rates."""


class BruteForceCapError(InputError):
    """Too many jobs for factorial order enumeration."""


def spt_order(instance: Instance) -> tuple[int, ...]:
    """Completion order sorted by processing time, input position breaking
    ties (any tie order is optimal for common rates; this one is stable)."""
    return tuple(sorted(range(instance.n), key=lambda j: (instance.jobs[j].p, j)))


def solve_sum(instance: Instance) -> tuple[NormalSchedule, Fraction]:
    """Minimize the sum of completion times over all schedules.

    Requires common (alpha, beta) across jobs: completing jobs in
    nondecreasing processing-time order is then optimal, so a single LP
    suffices. Refuses job-dependent rates, for which no order guarantee is
    known; use solve_sum_bruteforce there.
    """
    if instance.n == 0:
        raise InputError("cannot solve an instance with no jobs")
    if not instance.has_common_rates():
        raise HeterogeneousRatesError(
            "jobs have different heating/cooling rates; "
            "the shortest-processing-time order is only guaranteed optimal "
            "for common rates. Use solve_sum_bruteforce (or --order=brute) "
            "to search all completion orders."
        )
    order = spt_order(instance)
    solution = solve_lp(build_order_lp(instance, order, "sum"))
    return extract_schedule(instance, order, solution), solution.value


def _best_order(
    instance: Instance, objective: Objective, cap: int
) -> tuple[tuple[int, ...], Fraction, LpSolution]:
    """The lexicographically first optimal order, its value and its LP solution.

    The SPT order's LP is solved first: its value `upper` bounds the
    optimum, and its duals start a pool. An order's solve is skipped when
    a pooled `y` is dual feasible for its LP with `y . b > upper`, or
    `y . b >=` the best value so far: by weak duality the order cannot then
    be a strictly better optimum, so the first optimum, and its solution,
    are those of a plain enumeration. Each pooled `y` is a `duals.OrderDual`,
    which reads that test off the order, so an order's LP is built only
    when it is solved. A solved LP's duals join the pool when their own
    `OrderDual.bound` of the solved order equals its value: by that bound's
    contract this is `dual_bound`'s certificate on the built LP, made
    without a second pass over it. The pool lives only as long as the call.

    Logs one DEBUG event to the `tempsched` logger: the orders enumerated,
    the LPs solved (the guide's included) and the orders pruned.
    """
    positive_int(cap, "brute-force cap")
    if instance.n == 0:
        raise InputError("cannot solve an instance with no jobs")
    if instance.n > cap:
        raise BruteForceCapError(
            f"{instance.n} jobs means {instance.n}! order LPs; the cap is {cap} "
            "(raise it explicitly if you mean it)"
        )
    from .duals import OrderDual  # on first use: no other path needs it

    pool: list[OrderDual] = []

    def solve(order):
        solution = solve_lp(build_order_lp(instance, order, objective))
        if solution.status != "optimal":
            raise NoScheduleError(f"order LP {order} is {solution.status}")
        dual = OrderDual(instance, objective, solution.y)
        if dual.bound(order) == solution.value:
            pool.append(dual)
        return solution

    guide = spt_order(instance)
    guide_solution = solve(guide)
    upper = guide_solution.value

    best = None
    orders, solved, pruned = 0, 1, 0
    for perm in itertools.permutations(range(instance.n)):
        orders += 1
        if _pruned(perm, pool, upper, None if best is None else best[1]):
            pruned += 1
            continue
        if perm == guide:
            solution = guide_solution
        else:
            solution = solve(perm)
            solved += 1
        if best is None or solution.value < best[1]:
            best = (perm, solution.value, solution)
    debug("best order (%s): %d orders, %d LPs solved, %d pruned", objective, orders, solved, pruned)
    return best


def _pruned(order, pool, upper, incumbent) -> bool:
    """Whether a pooled dual proves `order`'s LP value over `upper` or at
    least `incumbent` (None before the first solve).

    The search runs from the end of the pool, and a dual that prunes moves
    there, since the next orders in lexicographic order are close to this one.
    """
    for k in range(len(pool) - 1, -1, -1):
        bound = pool[k].bound(order)
        if bound is not None and (bound > upper or (incumbent is not None and bound >= incumbent)):
            pool.append(pool.pop(k))
            return True
    return False


def solve_sum_bruteforce(
    instance: Instance, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[NormalSchedule, Fraction, tuple[int, ...]]:
    """Minimize the completion-time sum by solving one LP per completion
    order; the minimum over all n! orders is exact for any rates.

    Orders are enumerated lexicographically and ties keep the first
    (lexicographically smallest) optimum, so the result is deterministic.
    """
    order, value, solution = _best_order(instance, "sum", cap)
    return extract_schedule(instance, order, solution), value, order


def min_makespan_over_orders(
    instance: Instance, cap: int = DEFAULT_BRUTE_CAP
) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum over all completion orders of the makespan-objective LP;
    the order-enumeration cross-check for solve_makespan."""
    order, value, _ = _best_order(instance, "makespan", cap)
    return value, order


def min_makespan_single(job: Job) -> Fraction:
    """Minimum makespan of an instance containing only this job.

    A job that can run flat out without overheating (beta * p <= 1) takes
    exactly p. Otherwise the best schedule finishes with the temperature
    exactly at the threshold, giving p * (1 - beta/alpha) + 1/alpha.
    """
    if job.beta * job.p <= 1:
        return job.p
    return job.p * (1 - job.beta / job.alpha) + 1 / job.alpha


def solve_makespan(instance: Instance) -> tuple[Fraction, NormalSchedule]:
    """Minimize the makespan; job-dependent rates are fine.

    The optimum is max(max_j q_j, sum_j p_j / m): every term is a lower
    bound, and running each job at constant rate p_j / makespan for the
    whole horizon attains it. The returned schedule is that constant-rate
    witness (all jobs complete together).
    """
    n = instance.n
    if n == 0:
        return Fraction(0), NormalSchedule((), (), ())
    q_best = max(min_makespan_single(job) for job in instance.jobs)
    spread = sum((job.p for job in instance.jobs), Fraction(0)) / instance.machines
    value = max(q_best, spread)
    row = tuple(job.p for job in instance.jobs)
    schedule = NormalSchedule(
        order=tuple(range(n)),
        completions=(value,) * n,
        work=(row,) * n,
    )
    return value, schedule
