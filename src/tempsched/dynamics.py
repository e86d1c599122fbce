"""Exact simulation of job temperatures under a schedule.

Within a constant-load segment a job's temperature moves linearly at
alpha*(1 - s) + beta*s until it reaches 0, where it clamps (a cooling job
stops cooling at 0). Clamp instants are computed analytically and inserted
as extra breakpoints, so the resulting trajectory is exactly piecewise
linear between breakpoints and all feasibility questions reduce to checks
at the breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    Instance,
    InputError,
    NaturalSchedule,
    NormalSchedule,
    Trajectory,
    loads_from_normal,
    normalize,
    validate_normal_schedule,
)

Schedule = Union[NormalSchedule, NaturalSchedule]

OVERHEAT = "overheat"
MANAGEABILITY = "manageability"
PER_JOB_RATE = "per-job-rate"


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


def _segment_grid(
    instance: Instance, schedule: Schedule
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Reduce either schedule kind to shared boundaries plus per-job constant
    loads. Boundaries start at 0; an all-idle schedule yields no segments."""
    n = instance.n
    if isinstance(schedule, NormalSchedule):
        validate_normal_schedule(instance, schedule)
        segments = loads_from_normal(schedule)
        boundaries = [Fraction(0)] + [end for _, end, _ in segments]
        loads = [[seg[2][j] for seg in segments] for j in range(n)]
        return boundaries if segments else [], loads
    if isinstance(schedule, NaturalSchedule):
        known = set(instance.job_ids)
        unknown = sorted(set(schedule.intervals) - known)
        if unknown:
            raise InputError(f"schedule names unknown job(s): {', '.join(unknown)}")
        events = sorted(
            {Fraction(0)}
            | {t for spans in schedule.intervals.values() for span in spans for t in span}
        )
        if schedule.is_empty():
            return [], [[] for _ in range(n)]
        boundaries = events
        loads = []
        for job in instance.jobs:
            spans = schedule.for_job(job.id)
            row = []
            for a in boundaries[:-1]:
                on = any(s <= a < e for s, e in spans)
                row.append(Fraction(1) if on else Fraction(0))
            loads.append(row)
        return boundaries, loads
    raise InputError(f"unsupported schedule type: {type(schedule).__name__}")


def simulate(instance: Instance, schedule: Schedule) -> Trajectory:
    """Compute each job's exact temperature and cumulative-work curves.

    Total on any structurally valid schedule; feasibility (overheating,
    overload) is judged separately by `check_feasibility`.
    """
    instance = normalize(instance)
    boundaries, seg_loads = _segment_grid(instance, schedule)
    n = instance.n
    if not boundaries:
        empty: tuple[Fraction, ...] = ()
        return Trajectory(
            job_ids=instance.job_ids,
            breakpoints=(),
            loads=tuple(empty for _ in range(n)),
            temperatures=tuple(empty for _ in range(n)),
            works=tuple(empty for _ in range(n)),
        )

    # Per-job temperature knots; clamp instants become extra knots.
    temp_knots: list[list[tuple[Fraction, Fraction]]] = []
    for j, job in enumerate(instance.jobs):
        knots = [(boundaries[0], Fraction(0))]
        temp = Fraction(0)
        for k in range(len(boundaries) - 1):
            a, b = boundaries[k], boundaries[k + 1]
            s = seg_loads[j][k]
            slope = job.alpha * (1 - s) + job.beta * s
            if temp == 0 and slope <= 0:
                temp = Fraction(0)
            elif slope < 0 and temp > 0:
                hit = a + temp / (-slope)
                if hit < b:
                    knots.append((hit, Fraction(0)))
                    temp = Fraction(0)
                else:
                    temp = temp + slope * (b - a)
            else:
                temp = temp + slope * (b - a)
            knots.append((b, temp))
        temp_knots.append(knots)

    grid = sorted({t for knots in temp_knots for t, _ in knots})

    temperatures = []
    works = []
    loads_out = []
    seg_of = {}  # grid segment index -> original segment index
    pos = 0
    for k, t in enumerate(grid[:-1]):
        while boundaries[pos + 1] <= t:
            pos += 1
        seg_of[k] = pos

    for j, job in enumerate(instance.jobs):
        knots = temp_knots[j]
        temps_row = []
        idx = 0
        for t in grid:
            while idx + 1 < len(knots) and knots[idx + 1][0] <= t:
                idx += 1
            t0, v0 = knots[idx]
            if t == t0:
                temps_row.append(v0)
            else:
                t1, v1 = knots[idx + 1]
                temps_row.append(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
        temperatures.append(tuple(temps_row))

        work_row = [Fraction(0)]
        load_row = []
        for k in range(len(grid) - 1):
            s = seg_loads[j][seg_of[k]]
            load_row.append(s)
            work_row.append(work_row[-1] + s * (grid[k + 1] - grid[k]))
        works.append(tuple(work_row))
        loads_out.append(tuple(load_row))

    return Trajectory(
        job_ids=instance.job_ids,
        breakpoints=tuple(grid),
        loads=tuple(loads_out),
        temperatures=tuple(temperatures),
        works=tuple(works),
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
    instance = normalize(instance)
    traj = simulate(instance, schedule)
    m = instance.machines
    violations: list[Violation] = []

    for j, job in enumerate(instance.jobs):
        for k, t in enumerate(traj.breakpoints):
            if traj.temperatures[j][k] > 1:
                violations.append(Violation(job.id, t, OVERHEAT))
                break

    nseg = max(len(traj.breakpoints) - 1, 0)
    for k in range(nseg):
        total = sum((traj.loads[j][k] for j in range(instance.n)), Fraction(0))
        if total > m:
            violations.append(Violation(None, traj.breakpoints[k], MANAGEABILITY))
    if m > 1:
        for j, job in enumerate(instance.jobs):
            for k in range(nseg):
                if traj.loads[j][k] > 1:
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
