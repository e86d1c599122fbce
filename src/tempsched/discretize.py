"""Turning fractional schedules into on/off schedules.

A feasible normal schedule generally needs fractional loads, which real
machines cannot run. Stretching time by a factor gamma > 1 (same work,
loads divided by gamma) pulls every temperature strictly below the
threshold; slicing each completion interval into k equal pieces and running
the jobs one after another inside every slice, each for its load's share of
the slice, then preserves all per-interval work exactly while the
temperature error shrinks like 1/k. Doubling k until the simulator accepts
the result therefore terminates, and the completion times land within one
slice length of the stretched originals.

Slicing is defined for single-machine load profiles (per-interval total
load at most 1); splitting fractional loads across machines is out of
scope here.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Instance,
    InputError,
    NaturalSchedule,
    NormalSchedule,
    RationalLike,
    SchedulingError,
    as_rational,
    loads_from_normal,
    natural_from_intervals,
    positive_int,
)
from .dynamics import FeasibilityReport, check_feasibility

DEFAULT_K_CEILING = 2**20


class InfeasibleScheduleError(SchedulingError):
    """The schedule to discretize must be feasible to begin with."""


class NotSliceableError(SchedulingError):
    """An interval loads more than one machine's worth of work in total."""


class SliceLimitError(SchedulingError):
    """No feasible slicing found below the configured k ceiling."""


def gamma_scale(schedule: NormalSchedule, gamma: RationalLike) -> NormalSchedule:
    """Stretch a normal schedule in time by gamma > 1.

    Completion times scale to gamma * C while the work matrix stays put, so
    every load divides by gamma. For a feasible input the stretched
    schedule's temperatures stay strictly below the threshold, which is the
    headroom time_slice needs.
    """
    gamma = as_rational(gamma, "gamma")
    if gamma <= 1:
        raise InputError(f"gamma must exceed 1, got {gamma}")
    return NormalSchedule(
        order=schedule.order,
        completions=tuple(gamma * c for c in schedule.completions),
        work=schedule.work,
    )


def time_slice(instance: Instance, schedule: NormalSchedule, k: int) -> NaturalSchedule:
    """Slice each completion interval into k equal parts and serialize the
    jobs inside every slice.

    Within one slice, jobs run back to back in instance order, each fully
    loaded for load * slice_length, with the idle remainder at the end.
    Per-interval work per job is preserved exactly; each completion lands
    within one slice length of its fractional counterpart.
    """
    positive_int(k, "slice count")
    if schedule.n != instance.n:
        raise InputError(f"schedule covers {schedule.n} jobs, instance has {instance.n}")
    raw: dict[str, list[tuple[Fraction, Fraction]]] = {job.id: [] for job in instance.jobs}
    for start, end, loads in loads_from_normal(schedule):
        total = sum(loads, Fraction(0))
        if total > 1:
            raise NotSliceableError(
                f"interval [{start}, {end}) has total load {total} > 1; "
                "gamma-scale the schedule (or lower the load) first"
            )
        h = (end - start) / k
        for r in range(k):
            t = start + r * h
            for j, job in enumerate(instance.jobs):
                s = loads[j]
                if s > 0:
                    raw[job.id].append((t, t + s * h))
                    t += s * h
    return natural_from_intervals(raw)


def discretize_auto(
    instance: Instance,
    schedule: NormalSchedule,
    gamma: RationalLike,
    k_ceiling: int = DEFAULT_K_CEILING,
) -> tuple[NaturalSchedule, int, FeasibilityReport]:
    """Gamma-scale, then double k from 1 until the sliced schedule passes
    the feasibility check; returns the first feasible natural schedule, the
    k that produced it, and the report that accepted it.

    Termination is guaranteed for feasible input and gamma > 1 because the
    stretched schedule's peak temperature sits strictly below the threshold
    and slicing error vanishes as k grows; the ceiling only guards against
    misuse.
    """
    positive_int(k_ceiling, "k ceiling")
    report = check_feasibility(instance, schedule)
    if not report.feasible:
        kinds = ", ".join(sorted({v.kind for v in report.violations}))
        raise InfeasibleScheduleError(
            f"input schedule is infeasible ({kinds}); discretization needs a "
            "feasible starting point"
        )
    scaled = gamma_scale(schedule, gamma)
    k = 1
    while k <= k_ceiling:
        candidate = time_slice(instance, scaled, k)
        report = check_feasibility(instance, candidate)
        if report.feasible:
            return candidate, k, report
        k *= 2
    raise SliceLimitError(
        f"no feasible slicing found up to k={k_ceiling}; gamma may be too "
        "close to 1 for this ceiling"
    )
