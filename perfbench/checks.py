"""Correctness checks of the benchmark, written apart from the program.

Nothing here imports `tempsched`. Schedules arrive as plain numbers and are
judged against the model itself: temperature rises at beta while a job is
processed at full load, moves at alpha*(1 - s) + beta*s under load s, and is
clamped at 0 while cooling; it must never exceed the threshold 1. Each job
runs at load at most 1, and the loads at any instant sum to at most m.

The `check_*` functions return a list of problems, empty when the check
passes; the two simulators also return each job's completion time.
"""

from __future__ import annotations

from fractions import Fraction as F

# A job is (id, p, alpha, beta) with Fraction values and threshold 1.


def one_job_makespan(p: F, alpha: F, beta: F) -> F:
    """Least time to finish a job alone on a machine.

    If beta * p <= 1 it runs flat out. Otherwise it runs flat out until its
    temperature reaches 1, at time 1/beta, then at the load that holds the
    temperature there, s = -alpha / (beta - alpha).
    """
    if beta * p <= 1:
        return p
    hold = -alpha / (beta - alpha)
    return 1 / beta + (p - 1 / beta) / hold


def closed_form_makespan(jobs, machines: int) -> F:
    """max(max_j q_j, sum_j p_j / m)."""
    q = max(one_job_makespan(p, a, b) for _, p, a, b in jobs)
    return max(q, sum((p for _, p, _, _ in jobs), F(0)) / machines)


def check_lower_bounds(jobs, completions: dict) -> list[str]:
    """No job finishes before its one-job minimum makespan."""
    return [
        f"{j}: completes at {completions[j]} < one-job minimum {one_job_makespan(p, a, b)}"
        for j, p, a, b in jobs
        if completions[j] < one_job_makespan(p, a, b)
    ]


def check_normal(jobs, machines, order, completions, work, value):
    """Simulate a normal schedule exactly.

    `order[i]` is the index of the job completing i-th at `completions[i]`,
    and `work[i][j]` the work done on job j by then. Returns (problems,
    completions by job id).
    """
    n = len(jobs)
    problems = []
    if sorted(order) != list(range(n)):
        return [f"order {order} is not a permutation"], {}
    temps = [F(0)] * n
    prev_t, prev_w = F(0), [F(0)] * n
    for i in range(n):
        t, row = completions[i], work[i]
        dt = t - prev_t
        deltas = [row[j] - prev_w[j] for j in range(n)]
        if dt < 0:
            problems.append(f"completion {i} at {t} precedes {prev_t}")
            break
        if any(d < 0 for d in deltas):
            problems.append(f"work decreases by completion {i}")
        if dt == 0:
            if any(deltas):
                problems.append(f"work in a zero-length interval at {t}")
            continue
        loads = [d / dt for d in deltas]
        if any(s > 1 for s in loads):
            problems.append(f"a job runs above load 1 before {t}")
        if sum(loads, F(0)) > machines:
            problems.append(f"loads exceed {machines} machine(s) before {t}")
        for j, (_, _, a, b) in enumerate(jobs):
            # Linear within the interval, so the peak is at an end; the
            # clamp only ever stops a fall.
            temps[j] = max(F(0), temps[j] + (a * (1 - loads[j]) + b * loads[j]) * dt)
            if temps[j] > 1:
                problems.append(f"{jobs[j][0]} overheats to {temps[j]} at {t}")
        prev_t, prev_w = t, row
    done = {}
    for pos, j in enumerate(order):
        job_id, p = jobs[j][0], jobs[j][1]
        done[job_id] = completions[pos]
        if work[pos][j] != p:
            problems.append(f"{job_id}: work {work[pos][j]} at its completion, p = {p}")
        if work[-1][j] != p:
            problems.append(f"{job_id}: total work {work[-1][j]}, p = {p}")
    if value != sum(completions, F(0)):
        problems.append(f"reported value {value} != sum of completions {sum(completions)}")
    return problems, done


def check_natural(jobs, machines, intervals):
    """Simulate an on/off schedule exactly: `intervals` maps job id to
    sorted half-open [start, end) spans at full load. Returns (problems,
    completions by job id)."""
    problems = []
    events = []
    done = {}
    unknown = set(intervals) - {j for j, _, _, _ in jobs}
    if unknown:
        problems.append(f"unknown jobs {sorted(unknown)}")
    for job_id, p, a, b in jobs:
        spans = intervals.get(job_id, [])
        temp, t, work = F(0), F(0), F(0)
        for start, end in spans:
            if start < t or end <= start:
                problems.append(f"{job_id}: span [{start}, {end}) overlaps or is empty")
                break
            temp = max(F(0), temp + a * (start - t)) + b * (end - start)
            if temp > 1:
                problems.append(f"{job_id} overheats to {temp} at {end}")
            work += end - start
            t = end
            events += [(start, 1), (end, -1)]
        if work != p:
            problems.append(f"{job_id}: work {work}, p = {p}")
        done[job_id] = t
    active = 0
    for t, step in sorted(events):
        active += step
        if active > machines:
            problems.append(f"{active} jobs run at once at {t}")
            break
    return problems, done


def order_lp_value(jobs, machines, order, objective="sum") -> float:
    """Optimum of the order LP of a completion order, by scipy's HiGHS.

    Variables, all nonnegative: completion times C_i, cumulative work W_ij
    and a temperature bound T_ij, with i the completion position and j the
    position of the job in `order`.
    """
    import numpy as np
    from scipy.optimize import linprog

    n = len(order)
    seq = [jobs[k] for k in order]

    def C(i):
        return i

    def W(i, j):
        return n + i * n + j

    def T(i, j):
        return n + n * n + i * n + j

    size = n + 2 * n * n
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []

    def row(terms):
        r = np.zeros(size)
        for var, coeff in terms:
            r[var] += float(coeff)
        return r

    def step(i, j):
        """Terms of W_ij - W_(i-1)j."""
        return [(W(i, j), 1)] + ([(W(i - 1, j), -1)] if i else [])

    def dt(i, scale=1):
        """Terms of scale * (C_i - C_(i-1))."""
        return [(C(i), scale)] + ([(C(i - 1), -scale)] if i else [])

    for i in range(n):
        for j, (_, p, a, b) in enumerate(seq):
            ub_rows.append(row([(v, -c) for v, c in step(i, j)]))  # work grows
            ub_rhs.append(0)
            ub_rows.append(row(step(i, j) + dt(i, -1)))  # load <= 1
            ub_rhs.append(0)
            # T_ij >= T_(i-1)j + alpha * dt + (beta - alpha) * dW
            heat = dt(i, a) + [(v, c * (b - a)) for v, c in step(i, j)] + [(T(i, j), -1)]
            if i:
                heat.append((T(i - 1, j), 1))
            ub_rows.append(row(heat))
            ub_rhs.append(0)
            if i >= j:
                eq_rows.append(row([(W(i, j), 1)]))
                eq_rhs.append(float(p))
        ub_rows.append(row([t for j in range(n) for t in step(i, j)] + dt(i, -machines)))
        ub_rhs.append(0)
        if i:
            ub_rows.append(row([(C(i - 1), 1), (C(i), -1)]))
            ub_rhs.append(0)
    cost = np.zeros(size)
    if objective == "sum":
        cost[:n] = 1
    else:
        cost[n - 1] = 1
    bounds = [(0, None)] * (n + n * n) + [(0, 1)] * (n * n)
    res = linprog(cost, A_ub=np.array(ub_rows), b_ub=np.array(ub_rhs),
                  A_eq=np.array(eq_rows), b_eq=np.array(eq_rhs),
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def check_close(label, exact: F, reference: float, rel=1e-6) -> list[str]:
    if abs(float(exact) - reference) <= rel * max(1.0, abs(reference)):
        return []
    return [f"{label}: {exact} (~{float(exact):.9g}) vs HiGHS {reference:.9g}"]
