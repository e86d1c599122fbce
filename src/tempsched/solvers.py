"""High-level solvers for the two objectives.

* Sum of completion times: solved by one LP over the shortest-processing-
  time completion order (optimal for common heating/cooling rates), with a
  brute-force all-orders variant kept as the correctness oracle and as the
  fallback for job-dependent rates.
* Makespan: closed form max(max_j q_j, sum_j p_j / m) where q_j is the
  one-job minimum; the witness schedule runs every job at the constant
  rate p_j / makespan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import Instance, InputError, Job, NormalSchedule, normalize, positive_int
from .lp import LpSolution, NoScheduleError, Objective, build_order_lp, extract_schedule
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
    instance = normalize(instance)
    if instance.n == 0:
        raise InputError("cannot solve an instance with no jobs")
    if not instance.has_common_rates():
        raise HeterogeneousRatesError(
            "jobs have different heating/cooling rates after normalization; "
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
    positive_int(cap, "brute-force cap")
    if instance.n == 0:
        raise InputError("cannot solve an instance with no jobs")
    if instance.n > cap:
        raise BruteForceCapError(
            f"{instance.n} jobs means {instance.n}! order LPs; the cap is {cap} "
            "(raise it explicitly if you mean it)"
        )
    best = None
    for perm in itertools.permutations(range(instance.n)):
        solution = solve_lp(build_order_lp(instance, perm, objective))
        if solution.status != "optimal":
            raise NoScheduleError(f"order LP {perm} is {solution.status}")
        if best is None or solution.value < best[1]:
            best = (perm, solution.value, solution)
    return best


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
    (job,) = normalize(Instance((job,))).jobs
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
