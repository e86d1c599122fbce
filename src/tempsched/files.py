"""JSON file formats for instances and schedules.

Rationals travel as strings ("2/5", "0.25", "7"); integers are also
accepted as plain JSON numbers, and decimal literals in files are read as
their exact decimal value (0.1 means 1/10, never the nearest float).
Files written here always use the string form, so a write/read round trip
reproduces every value exactly.

Instance files::

    {"machines": 1, "alpha": "-1/3", "beta": 1,
     "jobs": [{"id": "j1", "p": 2}, {"id": "j2", "p": 2, "beta": "1/2"}]}

Per-job rates override the global ones. A per-job "threshold" t divides
that job's rates as it is read (see `Job`), so files are written with
rates relative to threshold 1 and no threshold. Schedule files carry
either kind::

    {"kind": "natural", "intervals": {"j1": [["0", "1"], ["4", "5"]]}}
    {"kind": "normal", "order": ["j1", "j2"], "C": [...], "W": [[...]]}

In a normal schedule file, W row i gives the cumulative work at C[i] and
its columns follow the "order" list (column j belongs to order[j]). A
natural schedule file's spans may come in any order and may overlap or
touch: they go as read to `NaturalSchedule`, which sorts, merges and
checks them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .core import (
    Instance,
    InputError,
    Job,
    NaturalSchedule,
    NormalSchedule,
    as_rational,
    validate_normal_schedule,
)

Schedule = Union[NormalSchedule, NaturalSchedule]


def _load_json(path: Union[str, Path]) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # parse_float=str keeps decimal literals exact ("0.1" -> 1/10)
            return json.load(fh, parse_float=str)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an int past the digit limit
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_json(path: Union[str, Path], data: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def parse_instance(data: Any) -> Instance:
    """Build an Instance from decoded instance-file JSON; a job's
    "threshold", when given, is folded into its rates by `Job`."""
    if not isinstance(data, dict):
        raise InputError("instance file must contain a JSON object")
    jobs_data = data.get("jobs")
    if not isinstance(jobs_data, list):
        raise InputError('instance file needs a "jobs" array')
    default_alpha = data.get("alpha")
    default_beta = data.get("beta")
    jobs = []
    for k, entry in enumerate(jobs_data):
        if not isinstance(entry, dict):
            raise InputError(f"jobs[{k}] must be an object")
        job_id = entry.get("id")
        if not isinstance(job_id, str) or not job_id:
            raise InputError(f"jobs[{k}] needs a non-empty string id")
        if "p" not in entry:
            raise InputError(f"job {job_id} needs a processing time p")
        alpha = entry.get("alpha", default_alpha)
        beta = entry.get("beta", default_beta)
        if alpha is None:
            raise InputError(f"job {job_id}: no alpha given (neither per-job nor global)")
        if beta is None:
            raise InputError(f"job {job_id}: no beta given (neither per-job nor global)")
        jobs.append(Job(job_id, entry["p"], alpha, beta, entry.get("threshold")))
    return Instance(tuple(jobs), data.get("machines", 1))


def load_instance(path: Union[str, Path]) -> Instance:
    return parse_instance(_load_json(path))


def dump_instance(instance: Instance) -> dict:
    jobs = [
        {"id": job.id, "p": str(job.p), "alpha": str(job.alpha), "beta": str(job.beta)}
        for job in instance.jobs
    ]
    return {"machines": instance.machines, "jobs": jobs}


def save_instance(path: Union[str, Path], instance: Instance) -> None:
    _write_json(path, dump_instance(instance))


def _matrix(data: Any, name: str, order: tuple[int, ...],
            shape_error: str) -> tuple[tuple[Fraction, ...], ...]:
    """An n x n matrix of a normal schedule file, its columns moved from the
    file's "order" to instance order; `shape_error` is raised when `data`
    is not n lists of n entries."""
    n = len(order)
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        raise InputError(shape_error)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][order[j]] = as_rational(data[i][j], f"{name}[{i}][{j}]")
    return tuple(tuple(row) for row in rows)


def parse_schedule(data: Any, instance: Instance) -> Schedule:
    """Build a schedule from decoded schedule-file JSON, resolving job ids
    against the given instance.

    Structural problems (bad shapes, unknown ids, broken schedule
    invariants) raise InputError; feasibility is not judged here, so an
    overloaded or overheating schedule still loads and can be reported on.
    """
    if not isinstance(data, dict):
        raise InputError("schedule file must contain a JSON object")
    kind = data.get("kind")
    if kind == "natural":
        intervals = data.get("intervals")
        if not isinstance(intervals, dict):
            raise InputError('natural schedule needs an "intervals" object')
        known = set(instance.job_ids)
        for job_id in intervals:
            if job_id not in known:
                raise InputError(f"schedule names unknown job id {job_id!r}")
        return NaturalSchedule(intervals)
    if kind == "normal":
        order_ids = data.get("order")
        if (not isinstance(order_ids, list) or not all(isinstance(v, str) for v in order_ids)
                or sorted(order_ids) != sorted(instance.job_ids)):
            raise InputError('"order" must list every instance job id exactly once')
        n = instance.n
        c_data = data.get("C")
        if not isinstance(c_data, list) or len(c_data) != n:
            raise InputError(f'"C" must be a list of {n} completion times')
        order = tuple(instance.index_of(job_id) for job_id in order_ids)
        completions = tuple(as_rational(v, f"C[{i}]") for i, v in enumerate(c_data))
        work = _matrix(data.get("W"), "W", order, f'"W" must be a {n}x{n} matrix')
        t_data = data.get("T")
        temps = None
        if t_data is not None:
            temps = _matrix(t_data, "T", order, f'"T" must be a {n}x{n} matrix when present')
        schedule = NormalSchedule(
            order=order,
            completions=completions,
            work=work,
            temperatures=temps,
        )
        validate_normal_schedule(instance, schedule)
        return schedule
    raise InputError(f'schedule "kind" must be "normal" or "natural", got {kind!r}')


def load_schedule(path: Union[str, Path], instance: Instance) -> Schedule:
    return parse_schedule(_load_json(path), instance)


def dump_schedule(schedule: Schedule, instance: Instance) -> dict:
    if isinstance(schedule, NaturalSchedule):
        return {
            "kind": "natural",
            "intervals": {
                job.id: [[str(a), str(b)]
                         for a, b in schedule.for_job(job.id)]
                for job in instance.jobs
                if schedule.for_job(job.id)
            },
        }
    if isinstance(schedule, NormalSchedule):
        data = {
            "kind": "normal",
            "order": [instance.jobs[j].id for j in schedule.order],
            "C": [str(c) for c in schedule.completions],
            "W": [
                [str(schedule.work[i][j]) for j in schedule.order]
                for i in range(schedule.n)
            ],
        }
        if schedule.temperatures is not None:
            data["T"] = [
                [str(schedule.temperatures[i][j]) for j in schedule.order]
                for i in range(schedule.n)
            ]
        return data
    raise InputError(f"unsupported schedule type: {type(schedule).__name__}")


def save_schedule(path: Union[str, Path], schedule: Schedule, instance: Instance) -> None:
    _write_json(path, dump_schedule(schedule, instance))
