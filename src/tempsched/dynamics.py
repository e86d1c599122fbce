"""Exact simulation of job temperatures under a schedule.

Within a constant-load segment [a, b) a job's temperature moves linearly at
r = alpha*(1 - s) + beta*s until it reaches 0, where it clamps (a cooling
job stops cooling at 0): starting from T at a, it is max(0, T + r*(t - a))
at t. The simulator walks the segments once and evaluates this closed form
at b and at every clamp instant a + T/(-r) inside (a, b), so the trajectory
is exactly piecewise linear between breakpoints and all feasibility
questions reduce to checks at the breakpoints. Both schedule kinds reduce
to one list of (start, end, loads) segments: a normal schedule's come from
`loads_from_normal`, a natural schedule's 0/1 loads from one sweep over its
sorted span endpoints with one index per job. The rates r are computed once
per distinct load tuple, of which a natural schedule has only a few.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    Instance,
    InputError,
    LoadSegment,
    NaturalSchedule,
    NormalSchedule,
    Trajectory,
    loads_from_normal,
    validate_normal_schedule,
)

Schedule = Union[NormalSchedule, NaturalSchedule]

OVERHEAT = "overheat"
MANAGEABILITY = "manageability"
PER_JOB_RATE = "per-job-rate"

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Violation:
    """One feasibility defect: which job (None for aggregate manageability),
    when, and which rule broke."""

    job_id: str | None
    time: Fraction
    kind: str


@dataclass(frozen=True)
class FeasibilityReport:
    """The verdict on a schedule, with the trajectory it was judged on."""

    violations: tuple[Violation, ...]
    completions: dict[str, Fraction]
    missing: tuple[str, ...]
    objective_sum: Fraction | None
    makespan: Fraction | None
    trajectory: Trajectory

    @property
    def feasible(self) -> bool:
        return not self.violations


def _segments(instance: Instance, schedule: Schedule) -> list[LoadSegment]:
    """Reduce either schedule kind to (start, end, loads) triples covering
    [0, end of the last span or completion); an all-idle schedule yields none."""
    if isinstance(schedule, NormalSchedule):
        validate_normal_schedule(instance, schedule)
        return loads_from_normal(schedule)
    if isinstance(schedule, NaturalSchedule):
        unknown = sorted(set(schedule.intervals) - set(instance.job_ids))
        if unknown:
            raise InputError(f"schedule names unknown job(s): {', '.join(unknown)}")
        spans = [schedule.for_job(job.id) for job in instance.jobs]
        boundaries = sorted({_ZERO} | {t for sp in spans for span in sp for t in span})
        # Every span endpoint is a boundary, and each job's spans are sorted and
        # disjoint, so one index per job walks its spans alongside the boundaries.
        idx = [0] * len(spans)
        segments: list[LoadSegment] = []
        for a, b in itertools.pairwise(boundaries):
            loads = []
            for j, sp in enumerate(spans):
                while idx[j] < len(sp) and sp[idx[j]][1] <= a:
                    idx[j] += 1
                loads.append(_ONE if idx[j] < len(sp) and sp[idx[j]][0] <= a else _ZERO)
            segments.append((a, b, tuple(loads)))
        return segments
    raise InputError(f"unsupported schedule type: {type(schedule).__name__}")


def simulate(instance: Instance, schedule: Schedule) -> Trajectory:
    """Compute each job's exact temperature and cumulative-work curves.

    Total on any structurally valid schedule; feasibility (overheating,
    overload) is judged separately by `check_feasibility`.
    """
    segments = _segments(instance, schedule)
    n = instance.n
    first = [_ZERO] if segments else []
    breakpoints = list(first)
    temperatures: list[list[Fraction]] = [list(first) for _ in range(n)]
    works: list[list[Fraction]] = [list(first) for _ in range(n)]
    loads: list[list[Fraction]] = [[] for _ in range(n)]

    # One pass over the segments. On [a, b) job j starts at temperature T and
    # work W and runs at load s, so at t its temperature is
    # max(0, T + r*(t - a)) with r = alpha*(1 - s) + beta*s, and its work is
    # W + s*(t - a). Breakpoints are b plus the instants a + T/(-r) at which
    # a cooling job reaches 0 inside (a, b): those with T > 0 whose
    # unclamped temperature at b, T + r*(b - a), is negative.
    rates: dict[tuple[Fraction, ...], list[Fraction]] = {}
    for a, b, s in segments:
        r = rates.get(s)
        if r is None:
            r = rates[s] = [job.alpha * (1 - sj) + job.beta * sj
                            for job, sj in zip(instance.jobs, s)]
        temp = [row[-1] for row in temperatures]
        work = [row[-1] for row in works]
        d = b - a
        at_b = [temp[j] + r[j] * d for j in range(n)]
        clamps = {a + temp[j] / -r[j] for j in range(n) if at_b[j] < 0 < temp[j]}
        for t in sorted(clamps) + [b]:
            breakpoints.append(t)
            dt = t - a
            at_t = at_b if t == b else [temp[j] + r[j] * dt for j in range(n)]
            for j in range(n):
                temperatures[j].append(max(_ZERO, at_t[j]))
                works[j].append(work[j] + s[j] * dt if s[j] else work[j])
                loads[j].append(s[j])

    return Trajectory(
        job_ids=instance.job_ids,
        breakpoints=tuple(breakpoints),
        loads=tuple(map(tuple, loads)),
        temperatures=tuple(map(tuple, temperatures)),
        works=tuple(map(tuple, works)),
    )


def completion_from_work(
    breakpoints: tuple[Fraction, ...], work: tuple[Fraction, ...], p: Fraction
) -> Fraction | None:
    """First time cumulative work reaches p, exact within its linear piece;
    None when the schedule never does that much work."""
    if not breakpoints or work[-1] < p:
        return None
    for k in range(len(breakpoints) - 1):
        if work[k + 1] >= p:
            rate = (work[k + 1] - work[k]) / (breakpoints[k + 1] - breakpoints[k])
            return breakpoints[k] + (p - work[k]) / rate
    return None  # unreachable: work[-1] >= p > 0 = work[0]


def check_feasibility(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Simulate and judge a schedule: temperature cap, machine capacity,
    per-job rate cap, and completion times.

    A job whose scheduled work never reaches its processing time is listed
    under `missing` without making the schedule infeasible; the aggregate
    objectives are then None.
    """
    traj = simulate(instance, schedule)
    m = instance.machines
    violations: list[Violation] = []

    for j, job in enumerate(instance.jobs):
        for k, t in enumerate(traj.breakpoints):
            if traj.temperatures[j][k] > 1:
                violations.append(Violation(job.id, t, OVERHEAT))
                break

    # `simulate` splits a constant-load stretch wherever some job cools to 0,
    # so capacity is judged once per run of pieces with equal loads.
    prev = None
    for k, loads in enumerate(zip(*traj.loads)):
        if loads != prev:
            prev = loads
            if sum(loads, _ZERO) > m:
                violations.append(Violation(None, traj.breakpoints[k], MANAGEABILITY))
    if m > 1:
        for j, job in enumerate(instance.jobs):
            for k, s in enumerate(traj.loads[j]):
                if s > 1:
                    violations.append(Violation(job.id, traj.breakpoints[k], PER_JOB_RATE))
                    break

    completions: dict[str, Fraction] = {}
    missing: list[str] = []
    for j, job in enumerate(instance.jobs):
        c = completion_from_work(traj.breakpoints, traj.works[j], job.p)
        if c is None:
            missing.append(job.id)
        else:
            completions[job.id] = c

    if missing:
        objective_sum = makespan = None
    else:
        objective_sum = sum(completions.values(), Fraction(0))
        makespan = max(completions.values(), default=Fraction(0))

    return FeasibilityReport(
        violations=tuple(violations),
        completions=completions,
        missing=tuple(missing),
        objective_sum=objective_sum,
        makespan=makespan,
        trajectory=traj,
    )
