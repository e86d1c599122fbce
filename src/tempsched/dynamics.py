"""Exact simulation and feasibility check of job temperatures.

Within a constant-load segment [a, b) a job's temperature moves linearly at
r = alpha*(1 - s) + beta*s until it reaches 0, where it clamps (a cooling
job stops cooling at 0): starting from T at a, it is max(0, T + r*(t - a))
at t. `simulate` walks the segments once and evaluates this closed form at
b and at every clamp instant a + T/(-r) inside (a, b), so the trajectory is
exactly piecewise linear between breakpoints.

`check_feasibility` walks the same segments and builds no trajectory. A
temperature exceeds 1 on a segment only if it does at the end, and only
then are the clamp instants computed, for the time it is reported at.
Capacity and the per-job rate are read once per run of equal loads, and a
completion is one exact division in its segment, where work is linear.

Both walks are exact on integers. Segment ends lie on the grid 1/D, D the
lcm of the schedule's time denominators (a natural schedule's 0/1 loads
come from one sweep that flips a job's bit at each endpoint of its spans).
Temperatures are scaled by D*R and work by D*S, R and S the lcms of the
rate and load denominators over the distinct load tuples. A `Fraction` is
made only for a kept value: a clamp instant, a nonzero temperature, the
work of a loaded job; a segment end is the schedule's own `Fraction`.
"""

from __future__ import annotations

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
    """The verdict on a schedule, without its trajectory (`simulate` builds
    that): violations, completions, and the objectives if none is missing."""

    violations: tuple[Violation, ...]
    completions: dict[str, Fraction]
    missing: tuple[str, ...]
    objective_sum: Fraction | None
    makespan: Fraction | None

    @property
    def feasible(self) -> bool:
        return not self.violations


def _segments(instance: Instance, schedule: Schedule) -> tuple[int, list, dict]:
    """D, the (start*D, end*D, end, key) segments that cover [0, end of the
    last span or completion), none if all idle, and each key's loads; end is
    the schedule's own Fraction and D the lcm of its time denominators. Equal
    loads share a key: the load tuple, or the mask of the running jobs."""
    if isinstance(schedule, NormalSchedule):
        validate_normal_schedule(instance, schedule)
        pieces = loads_from_normal(schedule)
        grid = math.lcm(*(b.denominator for _, b, _ in pieces))
        ends = [0] + _scaled([b for _, b, _ in pieces], grid)
        return (grid, [(ends[k], ends[k + 1], b, s) for k, (_, b, s) in enumerate(pieces)],
                {s: s for *_, s in pieces})
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


def _scale(instance: Instance, patterns: dict) -> tuple[int, int, dict]:
    """R and S, the lcms of the rate and load denominators over the keys'
    loads, and each key's rates times R and loads times S as ints."""
    rates = {key: [job.alpha * (1 - sj) + job.beta * sj for job, sj in zip(instance.jobs, s)]
             for key, s in patterns.items()}
    R = math.lcm(*{r.denominator for rs in rates.values() for r in rs})
    S = math.lcm(*{sj.denominator for s in patterns.values() for sj in s})
    return R, S, {key: (_scaled(rates[key], R), _scaled(s, S)) for key, s in patterns.items()}


def simulate(instance: Instance, schedule: Schedule) -> Trajectory:
    """Compute each job's exact temperature and cumulative-work curves.

    Total on any structurally valid schedule; feasibility (overheating,
    overload) is judged separately by `check_feasibility`.
    """
    grid, segments, patterns = _segments(instance, schedule)
    n = instance.n
    if not segments:
        return Trajectory(instance.job_ids, (), ((),) * n, ((),) * n, ((),) * n)
    R, S, scaled = _scale(instance, patterns)

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


def check_feasibility(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Judge a schedule: temperature cap, machine capacity, per-job rate cap,
    and completion times.

    A job whose scheduled work never reaches its processing time is listed
    under `missing` without making the schedule infeasible; the aggregate
    objectives are then None.
    """
    grid, segments, patterns = _segments(instance, schedule)
    R, S, scaled = _scale(instance, patterns)
    DR, DS = grid * R, grid * S
    m, n = instance.machines, instance.n
    # Per key: its scaled rates, whether its loads exceed the m machines,
    # which jobs run above rate 1 (a rule only on several machines; on one it
    # is an overload), and the loaded jobs with their scaled loads.
    memo = {key: (r, sum(s) > m * S, [j for j, sj in enumerate(s) if sj > S] if m > 1 else [],
                  [(j, sj) for j, sj in enumerate(s) if sj])
            for key, (r, s) in scaled.items()}
    # Job j completes once its scaled work reaches p*D*S; work is an int, so
    # it reaches the ceiling.
    ps = [(job.p.numerator * DS, job.p.denominator) for job in instance.jobs]
    need = [-(-num // den) for num, den in ps]

    temp, work = [0] * n, [0] * n
    hot, fast, done = {}, {}, {}
    overloads: list[Violation] = []
    prev, start = None, _ZERO
    for a, b, end, key in segments:
        d = b - a
        if key != prev:
            prev = key
            r, over, above, loaded = memo[key]
            if over:
                overloads.append(Violation(None, start, MANAGEABILITY))
            for j in above:
                fast.setdefault(j, start)
        at_b = [x if (x := T + rj * d) > 0 else 0 for T, rj in zip(temp, r)]
        if max(at_b) > DR:
            # Job j heats from T and is above D*R after (D*R - T)/r steps;
            # its overheat time is simulate's first breakpoint past that:
            # another job's clamp instant T_k/(-r_k) inside (a, b), else b.
            for j, x in enumerate(at_b):
                if x > DR and j not in hot:
                    T, rj = temp[j], r[j]
                    hot[j] = min((Fraction(Tk - a * rk, -grid * rk) for Tk, rk in zip(temp, r)
                                  if Tk + rk * d < 0 < Tk and Tk * rj > (DR - T) * -rk),
                                 default=end)
        temp = at_b
        for j, sj in loaded:
            W = work[j]
            work[j] = W + sj * d
            if j not in done and work[j] >= need[j]:
                num, den = ps[j]
                done[j] = Fraction(a * sj * den + num - W * den, sj * den * grid)
        start = end

    jobs = list(enumerate(instance.jobs))
    violations = [Violation(job.id, hot[j], OVERHEAT) for j, job in jobs if j in hot]
    violations += overloads
    violations += [Violation(job.id, fast[j], PER_JOB_RATE) for j, job in jobs if j in fast]
    completions = {job.id: done[j] for j, job in jobs if j in done}
    missing = tuple(job.id for j, job in jobs if j not in done)
    objective_sum = None if missing else sum(completions.values(), _ZERO)
    makespan = None if missing else max(completions.values(), default=_ZERO)
    return FeasibilityReport(tuple(violations), completions, missing, objective_sum, makespan)
