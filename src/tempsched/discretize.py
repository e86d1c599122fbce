"""Turning fractional schedules into on/off schedules.

A feasible normal schedule generally needs fractional loads, which real
machines cannot run. Stretching time by a factor gamma > 1 (same work,
loads divided by gamma) pulls every temperature strictly below the
threshold; slicing each completion interval into k equal pieces and running
the jobs one after another inside every slice, each for its load's share of
the slice, then preserves all per-interval work exactly while the
temperature error shrinks like 1/k. Doubling k until the sliced schedule
stays within the threshold therefore terminates, and the completion times
land within one slice length of the stretched originals.

The doubling search never builds a rejected slicing. Within one interval
every slice is the same for a job: idle, on, idle. Each piece maps the
temperature x to max(0, x + rate*duration), so a slice is a map
x -> max(A, x + B); such maps compose in closed form (max-plus algebra), so
the peak temperature of a slicing is exact in O(1) per job and interval,
whatever k is. Only the k the closed form accepts is sliced and passed to
the simulator, which stays the judge of every returned schedule.

Slicing is defined for single-machine load profiles (per-interval total
load at most 1); splitting fractional loads across machines is out of
scope here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    Instance,
    InputError,
    Job,
    LoadSegment,
    NaturalSchedule,
    NormalSchedule,
    RationalLike,
    SchedulingError,
    _scaled,
    as_rational,
    debug,
    loads_from_normal,
    positive_int,
)
from .dynamics import FeasibilityReport, check_feasibility

# Most spans `time_slice` builds: k times the number of (interval, job)
# pairs with a positive load. Slicing and checking cost grows linearly in
# the spans: 2**16 spans took 8.9 s and 73 MB on one core of a 2-CPU x86
# box, so this limit allows about 2.5 minutes and 1.2 GB. `time_slice`
# refuses a larger slicing with InputError, and `discretize_auto` stops its
# search before one with SliceLimitError, a subclass of InputError.
MAX_SLICE_SPANS = 2**20

_ZERO = Fraction(0)


class InfeasibleScheduleError(SchedulingError):
    """The schedule to discretize must be feasible to begin with."""


class NotSliceableError(SchedulingError):
    """An interval loads more than one machine's worth of work in total."""


class SliceLimitError(InputError):
    """No feasible slicing found within MAX_SLICE_SPANS spans. An InputError,
    as `time_slice`'s refusal of the same limit is."""


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


def _loaded_pairs(segments: list[LoadSegment]) -> int:
    """The (interval, job) pairs with a positive load: a k-slicing's spans
    are k times as many."""
    return sum(s > 0 for _, _, loads in segments for s in loads)


def _sliceable_segments(schedule: NormalSchedule) -> list[LoadSegment]:
    """The schedule's load segments, each with total load at most 1."""
    segments = loads_from_normal(schedule)
    for start, end, loads in segments:
        total = sum(loads, _ZERO)
        if total > 1:
            raise NotSliceableError(
                f"interval [{start}, {end}) has total load {total} > 1; "
                "gamma-scale the schedule (or lower the load) first"
            )
    return segments


def time_slice(instance: Instance, schedule: NormalSchedule, k: int) -> NaturalSchedule:
    """Slice each completion interval into k equal parts and serialize the
    jobs inside every slice.

    Within one slice, jobs run back to back in instance order, each fully
    loaded for load * slice_length, with the idle remainder at the end.
    Per-interval work per job is preserved exactly; each completion lands
    within one slice length of its fractional counterpart. A slicing of
    more than MAX_SLICE_SPANS spans raises InputError before any is built.
    """
    positive_int(k, "slice count")
    if schedule.n != instance.n:
        raise InputError(f"schedule covers {schedule.n} jobs, instance has {instance.n}")
    segments = _sliceable_segments(schedule)
    spans = k * _loaded_pairs(segments)
    if spans > MAX_SLICE_SPANS:
        raise InputError(
            f"k={k} would slice the schedule into {spans} spans, over the limit "
            f"of {MAX_SLICE_SPANS}; use a smaller k or a larger gamma"
        )
    raw: dict[str, list[tuple[Fraction, Fraction]]] = {job.id: [] for job in instance.jobs}
    for start, end, loads in segments:
        # With G and L the lcms of the interval's and the loads' denominators,
        # S = start*G and E = end*G, slice r puts the boundary after the
        # loaded jobs of scaled load sum O at (S*k*L + (E-S)*(r*L + O)) / (G*k*L):
        # the value of the running sum t = start + r*h, t += s*h, one
        # Fraction per endpoint.
        G = math.lcm(start.denominator, end.denominator)
        L = math.lcm(*(s.denominator for s in loads))
        S, E = _scaled((start, end), G)
        offsets = [0]
        for w in _scaled([s for s in loads if s > 0], L):
            offsets.append(offsets[-1] + w * (E - S))
        loaded = [raw[job.id] for job, s in zip(instance.jobs, loads) if s > 0]
        for r in range(k):
            base = (S * k + (E - S) * r) * L
            times = [Fraction(base + o, G * k * L) for o in offsets]
            for job_spans, a, b in zip(loaded, times, times[1:]):
                job_spans.append((a, b))
    return NaturalSchedule(raw)


def _iterate(a: Fraction, b: Fraction, x: Fraction, r: int) -> Fraction:
    """F^r(x) for F(x) = max(a, x + b) and r >= 1."""
    return max(x + r * b, a + max(_ZERO, (r - 1) * b))


def _peak(jobs: Sequence[Job], segments: list[LoadSegment], k: int) -> Fraction:
    """Peak temperature of the k-slicing of `segments`, in closed form.

    In one slice of length h, a job with load s > 0 idles for pre = o*h
    (o: the summed load of the jobs before it), runs for on = s*h, then
    idles for post = h - pre - on, so the slice maps its temperature x to
    F(x) = max(A, x + B) with
    A = max(0, beta*on + alpha*post) and B = alpha*(h - on) + beta*on.
    The peak comes at the end of an on-piece, G(y) = max(0, y + alpha*pre)
    + beta*on for the slice-start temperature y; G is monotone, so it is G
    of the largest of x, F(x), ..., F^(k-1)(x). A job with zero load only
    cools.
    """
    temps = [_ZERO] * len(jobs)
    peak = _ZERO
    for start, end, loads in segments:
        h = (end - start) / k
        o = _ZERO
        for j, (job, s) in enumerate(zip(jobs, loads)):
            alpha, beta, x = job.alpha, job.beta, temps[j]
            if s == 0:
                temps[j] = max(_ZERO, x + alpha * (end - start))
                continue
            pre, on = o * h, s * h
            o += s
            a = max(_ZERO, beta * on + alpha * (h - pre - on))
            b = alpha * (h - on) + beta * on
            if k == 1:
                top = x
            elif b >= 0:
                top = _iterate(a, b, x, k - 1)
            else:
                top = max(x, a)
            peak = max(peak, max(_ZERO, top + alpha * pre) + beta * on)
            temps[j] = _iterate(a, b, x, k)
    return peak


def discretize_auto(
    instance: Instance, schedule: NormalSchedule, gamma: RationalLike
) -> tuple[NaturalSchedule, int, FeasibilityReport]:
    """Gamma-scale, then find the first k among 1, 2, 4, ... whose sliced
    schedule passes the feasibility check; returns that natural schedule,
    the k that produced it, and the report that accepted it.

    Each k is first judged by the closed-form peak temperature of its
    slicing (`_peak`); only a k it admits is sliced and simulated. The
    search logs one DEBUG event to the "tempsched" logger with gamma, every
    k tried with its peak, and the accepted k.

    A feasible slicing exists for feasible input and gamma > 1 because the
    stretched schedule's peak temperature sits strictly below the threshold
    and slicing error vanishes as k grows. The search stops with
    SliceLimitError before a k whose slicing would take more than
    MAX_SLICE_SPANS spans, which happens when gamma is very close to 1.
    """
    report = check_feasibility(instance, schedule)
    if not report.feasible:
        kinds = ", ".join(sorted({v.kind for v in report.violations}))
        raise InfeasibleScheduleError(
            f"input schedule is infeasible ({kinds}); discretization needs a "
            "feasible starting point"
        )
    scaled = gamma_scale(schedule, gamma)
    segments = _sliceable_segments(scaled)
    pairs = max(_loaded_pairs(segments), 1)
    trials: list[tuple[int, Fraction]] = []
    accepted = None
    k = 1
    try:
        while k * pairs <= MAX_SLICE_SPANS:
            peak = _peak(instance.jobs, segments, k)
            trials.append((k, peak))
            if peak <= 1:
                candidate = time_slice(instance, scaled, k)
                report = check_feasibility(instance, candidate)
                if report.feasible:
                    accepted = k
                    return candidate, k, report
            k *= 2
        raise SliceLimitError(
            f"no feasible slicing within {MAX_SLICE_SPANS} spans: k={k} would "
            f"take {k * pairs}; gamma may be too close to 1"
        )
    finally:
        debug(
            "discretize_auto gamma %s: trials %s; accepted k %s",
            gamma, ", ".join(f"k={t} peak={p}" for t, p in trials), accepted,
        )
