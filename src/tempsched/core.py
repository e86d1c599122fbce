"""Exact-rational domain model: jobs, instances, and schedule representations.

Every quantity is a `fractions.Fraction`; nothing in this package rounds.
Two schedule forms exist side by side:

* `NormalSchedule` -- fractional loads, constant between consecutive
  completion times, parameterized by the completion vector and the
  cumulative-work matrix at those times.
* `NaturalSchedule` -- on/off processing given by half-open intervals;
  its constructor is the one place that parses, sorts and merges them.

Neither type knows the machine count; `check_feasibility` judges whether a
schedule loads more than `m` jobs at once.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Largest decimal exponent `as_rational` accepts: CPython's default digit
# limit for int strings, so a decimal implies no more digits than an integer.
MAX_DECIMAL_EXPONENT = 4300


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SchedulingError):
    """Invalid instance, schedule, or argument data."""


class InconsistentScheduleError(InputError):
    """A normal schedule claims work inside a zero-length interval."""


def as_rational(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce ints, "num/den" or decimal strings, and Fractions to Fraction.

    Floats are rejected: their binary value is rarely what the author meant,
    and exactness is the whole point here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"{what}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            _, e, exponent = text.lower().partition("e")
            if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                raise InputError(f"{what}: exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise InputError(
            f"{what}: got float {value!r}; pass a string (e.g. \"{value}\") "
            "or a Fraction to keep arithmetic exact"
        )
    raise InputError(f"{what}: unsupported type {type(value).__name__}")


def debug(fmt: str, *args) -> None:
    """Log a DEBUG event to the "tempsched" logger. `logging` is imported
    here, on first use: at module level it would add about a tenth to the
    time of `import tempsched`, which runs that log nothing pay too."""
    import logging

    logging.getLogger("tempsched").debug(fmt, *args)


def positive_int(value: int, what: str) -> None:
    """Raise InputError unless `value` is an int, not a bool, of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Job:
    """One job: processing time `p`, cooling rate `alpha` (< 0) and heating
    rate `beta` (> 0), relative to a temperature threshold of 1.

    A job given a threshold t is the job with rates alpha/t and beta/t and
    threshold 1: the constructor divides the rates by t and keeps no
    threshold, so a job and its threshold-scaled twin compare equal.
    """

    id: str
    p: Fraction
    alpha: Fraction
    beta: Fraction
    threshold: InitVar[Fraction | None] = None

    def __post_init__(self, threshold):
        object.__setattr__(self, "p", as_rational(self.p, f"job {self.id}: p"))
        object.__setattr__(self, "alpha", as_rational(self.alpha, f"job {self.id}: alpha"))
        object.__setattr__(self, "beta", as_rational(self.beta, f"job {self.id}: beta"))
        if not isinstance(self.id, str) or not self.id:
            raise InputError("job id must be a non-empty string")
        if self.p <= 0:
            raise InputError(f"job {self.id}: processing time must be positive, got {self.p}")
        if self.alpha >= 0:
            raise InputError(f"job {self.id}: cooling rate must be negative, got {self.alpha}")
        if self.beta <= 0:
            raise InputError(f"job {self.id}: heating rate must be positive, got {self.beta}")
        if threshold is not None:
            t = as_rational(threshold, f"job {self.id}: threshold")
            if t <= 0:
                raise InputError(f"job {self.id}: threshold must be positive, got {t}")
            object.__setattr__(self, "alpha", self.alpha / t)
            object.__setattr__(self, "beta", self.beta / t)


@dataclass(frozen=True)
class Instance:
    """A set of jobs plus the number of identical machines."""

    jobs: tuple[Job, ...]
    machines: int = 1

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        positive_int(self.machines, "machine count")
        ids = [job.id for job in self.jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate job ids: {', '.join(dupes)}")

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def job_ids(self) -> tuple[str, ...]:
        return tuple(job.id for job in self.jobs)

    def index_of(self, job_id: str) -> int:
        for i, job in enumerate(self.jobs):
            if job.id == job_id:
                return i
        raise InputError(f"unknown job id: {job_id!r}")

    def has_common_rates(self) -> bool:
        """True when every job shares one (alpha, beta) pair; rates are
        relative to threshold 1, so threshold-scaled twins share theirs."""
        if not self.jobs:
            return True
        first = (self.jobs[0].alpha, self.jobs[0].beta)
        return all((j.alpha, j.beta) == first for j in self.jobs)


@dataclass(frozen=True)
class NormalSchedule:
    """Fractional schedule with loads constant between completion times.

    `order[i]` is the instance index of the job completing i-th;
    `completions[i]` is that completion time; `work[i][j]` is the cumulative
    work done on instance job j by `completions[i]`. `temperatures`, when
    present, is the matching feasibility witness from the LP (an upper bound
    on the true temperatures at the completion breakpoints). Every number
    goes through `as_rational`, so floats and bools are refused.
    """

    order: tuple[int, ...]
    completions: tuple[Fraction, ...]
    work: tuple[tuple[Fraction, ...], ...]
    temperatures: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        def matrix(rows, what):
            return tuple(tuple(as_rational(v, what) for v in row) for row in rows)

        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "completions",
                           tuple(as_rational(c, "completion time") for c in self.completions))
        object.__setattr__(self, "work", matrix(self.work, "work"))
        if self.temperatures is not None:
            object.__setattr__(self, "temperatures", matrix(self.temperatures, "temperature"))
        n = len(self.order)
        if not all(type(k) is int for k in self.order) or sorted(self.order) != list(range(n)):
            raise InputError(f"order must be a permutation of 0..{n - 1}")
        if len(self.completions) != n or len(self.work) != n:
            raise InputError("completions and work must have one entry per job")
        if self.temperatures is not None and (
                len(self.temperatures) != n or any(len(row) != n for row in self.temperatures)):
            raise InputError("temperature witness must be n x n")
        prev = Fraction(0)
        for c in self.completions:
            if c < prev:
                raise InputError("completion times must be nonnegative and nondecreasing")
            prev = c
        for row in self.work:
            if len(row) != n:
                raise InputError("work matrix must be n x n")
            if any(w < 0 for w in row):
                raise InputError("work entries must be nonnegative")
        for j in range(n):
            for i in range(1, n):
                if self.work[i][j] < self.work[i - 1][j]:
                    raise InputError(f"work on job {j} decreases at breakpoint {i}")

    @property
    def n(self) -> int:
        return len(self.order)


def validate_normal_schedule(instance: Instance, schedule: NormalSchedule) -> None:
    """Check the instance-dependent invariants: size match and the rule that
    a job's cumulative work equals its processing time from its completion
    breakpoint onward."""
    n = instance.n
    if schedule.n != n:
        raise InputError(f"schedule covers {schedule.n} jobs, instance has {n}")
    for pos, j in enumerate(schedule.order):
        p = instance.jobs[j].p
        for i in range(pos, n):
            if schedule.work[i][j] != p:
                raise InputError(
                    f"job {instance.jobs[j].id} completes at breakpoint {pos} "
                    f"but work[{i}] is {schedule.work[i][j]}, expected {p}"
                )


LoadSegment = tuple[Fraction, Fraction, tuple[Fraction, ...]]


def loads_from_normal(schedule: NormalSchedule) -> list[LoadSegment]:
    """Recover the per-interval constant loads of a normal schedule.

    Returns (start, end, loads) triples covering [0, C_n) with zero-length
    intervals (tied completions) skipped. Loads are work deltas over the
    interval length; for a schedule obeying the rate caps they lie in [0, 1].
    """
    segments: list[LoadSegment] = []
    n = schedule.n
    prev_t = Fraction(0)
    prev_w: Sequence[Fraction] = (Fraction(0),) * n
    for i in range(n):
        t = schedule.completions[i]
        row = schedule.work[i]
        dt = t - prev_t
        if dt == 0:
            if any(row[j] != prev_w[j] for j in range(n)):
                raise InconsistentScheduleError(
                    f"zero-length interval at t={t} carries nonzero work"
                )
            continue
        loads = tuple((row[j] - prev_w[j]) / dt for j in range(n))
        segments.append((prev_t, t, loads))
        prev_t, prev_w = t, row
    return segments


Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class NaturalSchedule:
    """On/off schedule: per job id, sorted disjoint half-open [start, end)
    intervals during which the job is fully loaded.

    The constructor takes any mapping of job id to (start, end) pairs, in
    any order, and keeps each job's sorted union: overlapping or touching
    spans fuse. Each endpoint is parsed once by `as_rational`, then sorted
    and merged as integers on the lcm of that job's denominators. It raises
    InputError for an id that is not a non-empty string, a span that is not
    a pair, an unparsable endpoint, an empty or reversed span, and a span
    that starts before t=0. How many jobs run at once is a verdict of
    `check_feasibility`, against the instance's machines."""

    intervals: dict[str, tuple[Interval, ...]]

    def __post_init__(self):
        cleaned: dict[str, tuple[Interval, ...]] = {}
        for job_id, spans in self.intervals.items():
            if not isinstance(job_id, str) or not job_id:
                raise InputError("job id must be a non-empty string")
            start, end = f"job {job_id}: interval start", f"job {job_id}: interval end"
            not_pairs = f"job {job_id}: intervals must be [start, end] pairs"
            if isinstance(spans, (str, Mapping)) or not isinstance(spans, Iterable):
                raise InputError(not_pairs)
            times: list[Fraction] = []
            for span in spans:
                if not isinstance(span, (tuple, list)) or len(span) != 2:
                    raise InputError(not_pairs)
                times += (as_rational(span[0], start), as_rational(span[1], end))
            scaled = _scaled(times, math.lcm(*(t.denominator for t in times)))
            at = dict(zip(scaled, times))
            merged: list[list[int]] = []
            for x, y in sorted(zip(scaled[::2], scaled[1::2])):
                if x >= y:
                    raise InputError(f"job {job_id}: empty or reversed interval [{at[x]}, {at[y]})")
                if merged and x <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], y)
                else:
                    merged.append([x, y])
            if merged and merged[0][0] < 0:
                raise InputError(f"job {job_id}: interval starts before t=0")
            cleaned[job_id] = tuple((at[x], at[y]) for x, y in merged)
        object.__setattr__(self, "intervals", cleaned)

    def for_job(self, job_id: str) -> tuple[Interval, ...]:
        return self.intervals.get(job_id, ())


def _scaled(values, den: int) -> list[int]:
    """Each Fraction times den, a multiple of every one's denominator."""
    return [v.numerator * (den // v.denominator) for v in values]


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear temperature and work curves for every job.

    `breakpoints` is the sorted global event list; between consecutive
    breakpoints every job's load is constant and its temperature linear.
    `loads[j][k]` applies on [breakpoints[k], breakpoints[k+1]);
    `temperatures[j][k]` and `works[j][k]` are values at breakpoints[k].
    An all-idle schedule yields an empty breakpoint list. Not re-checked:
    `simulate` builds the breakpoints increasing and every row to size.
    """

    job_ids: tuple[str, ...]
    breakpoints: tuple[Fraction, ...]
    loads: tuple[tuple[Fraction, ...], ...]
    temperatures: tuple[tuple[Fraction, ...], ...]
    works: tuple[tuple[Fraction, ...], ...]

    @property
    def end(self) -> Fraction:
        return self.breakpoints[-1] if self.breakpoints else Fraction(0)
