"""Exact simulation of job temperatures under a schedule.

Within a constant-load segment [a, b) a job's temperature moves linearly at
r = alpha*(1 - s) + beta*s until it reaches 0, where it clamps (a cooling
job stops cooling at 0): starting from T at a, it is max(0, T + r*(t - a))
at t. The simulator walks the segments once and evaluates this closed form
at b and at every clamp instant a + T/(-r) inside (a, b), so the trajectory
is exactly piecewise linear between breakpoints and all feasibility
questions reduce to checks at the breakpoints.

The walk is exact on integers. Segment ends lie on the grid 1/D, D the lcm
of the schedule's time denominators (a natural schedule's 0/1 loads come
from one sweep that flips a job's bit at each endpoint of its spans).
Temperatures are scaled by D*R and work by D*S, R and S the lcms of the
rate and load denominators over the distinct load tuples. A `Fraction` is
made only for a kept value: a clamp instant, a nonzero temperature, the
work of a loaded job; a segment end is the schedule's own `Fraction`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    Instance,
    InputError,
    NaturalSchedule,
    NormalSchedule,
    Trajectory,
    _scaled,
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


def _segments(instance: Instance, schedule: Schedule) -> tuple[int, list, dict]:
    """D, the (start*D, end*D, end, key) segments that cover [0, end of the
    last span or completion), none if all idle, and each key's loads; end is
    the schedule's own Fraction and D the lcm of its time denominators."""
    if isinstance(schedule, NormalSchedule):
        validate_normal_schedule(instance, schedule)
        pieces = loads_from_normal(schedule)
        grid = math.lcm(*(b.denominator for _, b, _ in pieces))
        ends = [0] + _scaled([b for _, b, _ in pieces], grid)
        return (grid, [(ends[k], ends[k + 1], b, k) for k, (_, b, _) in enumerate(pieces)],
                {k: s for k, (*_, s) in enumerate(pieces)})
    if isinstance(schedule, NaturalSchedule):
        unknown = sorted(set(schedule.intervals) - set(instance.job_ids))
        if unknown:
            raise InputError(f"schedule names unknown job(s): {', '.join(unknown)}")
        spans = [schedule.for_job(job.id) for job in instance.jobs]
        grid = math.lcm(*{t.denominator for sp in spans for span in sp for t in span})
        # A job's spans are disjoint, so flipping its bit at each of their
        # endpoints leaves the mask of the jobs running after a boundary.
        flips, at = {0: 0}, {}
        for j, sp in enumerate(spans):
            for t in itertools.chain.from_iterable(sp):
                g = t.numerator * (grid // t.denominator)
                flips[g] = flips.get(g, 0) ^ 1 << j
                at[g] = t
        segments, mask = [], 0
        for a, b in itertools.pairwise(sorted(flips)):
            mask ^= flips[a]
            segments.append((a, b, at[b], mask))
        return grid, segments, {
            mask: tuple(_ONE if mask >> j & 1 else _ZERO for j in range(len(spans)))
            for mask in {key for *_, key in segments}}
    raise InputError(f"unsupported schedule type: {type(schedule).__name__}")


def simulate(instance: Instance, schedule: Schedule) -> Trajectory:
    """Compute each job's exact temperature and cumulative-work curves.

    Total on any structurally valid schedule; feasibility (overheating,
    overload) is judged separately by `check_feasibility`.
    """
    grid, segments, patterns = _segments(instance, schedule)
    n = instance.n
    if not segments:
        return Trajectory(instance.job_ids, (), ((),) * n, ((),) * n, ((),) * n)
    rates = {key: [job.alpha * (1 - sj) + job.beta * sj for job, sj in zip(instance.jobs, s)]
             for key, s in patterns.items()}
    R = math.lcm(*{r.denominator for rs in rates.values() for r in rs})
    S = math.lcm(*{sj.denominator for s in patterns.values() for sj in s})
    scaled = {key: (_scaled(rates[key], R), _scaled(s, S)) for key, s in patterns.items()}

    # On [a, b) job j starts at temperature T and work W (scaled by D*R and
    # D*S), so q = num/den grid steps later they are max(0, T + r*q) and
    # W + s*q. Breakpoints are b (q = d/1) and, once per instant, each clamp
    # a + T/(-r) inside (a, b): T > 0 and the unclamped value at b is < 0.
    DR, DS = grid * R, grid * S
    temp, work = [0] * n, [0] * n
    breakpoints, temperatures, works, keys = [_ZERO], [[_ZERO] * n], [[_ZERO] * n], []
    for a, b, end, key in segments:
        r, s = scaled[key]
        d = b - a
        clamps = {}
        for T, rj in zip(temp, r):
            if T + rj * d < 0 < T:
                clamps.setdefault(Fraction(T - a * rj, -grid * rj), (T, -rj))
        for t, (num, den) in [*sorted(clamps.items()), (end, (d, 1))]:
            breakpoints.append(t)
            keys.append(key)
            temperatures.append([Fraction(x, DR * den) if (x := T * den + rj * num) > 0
                                 else _ZERO for T, rj in zip(temp, r)])
            works.append([Fraction(W * den + sj * num, DS * den) if sj else old
                          for W, sj, old in zip(work, s, works[-1])])
        temp = [max(T + rj * d, 0) for T, rj in zip(temp, r)]
        work = [W + sj * d for W, sj in zip(work, s)]

    return Trajectory(
        job_ids=instance.job_ids,
        breakpoints=tuple(breakpoints),
        loads=tuple(zip(*(patterns[key] for key in keys))),
        temperatures=tuple(zip(*temperatures)),
        works=tuple(zip(*works)),
    )


def completion_from_work(
    breakpoints: tuple[Fraction, ...], work: tuple[Fraction, ...], p: Fraction
) -> Fraction | None:
    """First time cumulative work reaches p, exact within its linear piece;
    None when the schedule never does that much work. The work row never
    falls, so the piece is found by bisection."""
    if not breakpoints or work[-1] < p:
        return None
    k = bisect.bisect_left(work, p)  # work[k - 1] < p <= work[k], as work[0] = 0 < p
    rate = (work[k] - work[k - 1]) / (breakpoints[k] - breakpoints[k - 1])
    return breakpoints[k - 1] + (p - work[k - 1]) / rate


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

    # A Fraction exceeds 1 exactly when its numerator exceeds its denominator.
    for j, job in enumerate(instance.jobs):
        k = next((k for k, t in enumerate(traj.temperatures[j]) if t.numerator > t.denominator),
                 None)
        if k is not None:
            violations.append(Violation(job.id, traj.breakpoints[k], OVERHEAT))

    # One capacity verdict per run of equal loads (simulate splits a run where
    # a job cools to 0), kept under the loads' ids: simulate reuses its loads.
    prev, over = None, {}
    for k, loads in enumerate(zip(*traj.loads)):
        if loads != prev:
            prev, key = loads, tuple(map(id, loads))
            if key not in over:
                over[key] = sum(loads, _ZERO) > m
            if over[key]:
                violations.append(Violation(None, traj.breakpoints[k], MANAGEABILITY))
    if m > 1:
        for j, job in enumerate(instance.jobs):
            k = next((k for k, s in enumerate(traj.loads[j]) if s.numerator > s.denominator), None)
            if k is not None:
                violations.append(Violation(job.id, traj.breakpoints[k], PER_JOB_RATE))

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
