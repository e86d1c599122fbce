"""Independent cross-checking machinery for the test suite.

The vertex enumerator here shares no code with the simplex solver: it
row-reduces the equality system by plain Gaussian elimination and then
tries every basis subset, so agreement between the two is meaningful.
It also holds the seeded random instance generator the tests share.
"""

from __future__ import annotations

import csv
import itertools
import random
from decimal import Decimal
from fractions import Fraction

from hypothesis import strategies as st

from tempsched import (
    InputError, Instance, Job, LpProblem, NaturalSchedule, NormalSchedule, Trajectory,
    build_order_lp, dual_bound, loads_from_normal, simulate, solve_lp,
    validate_normal_schedule,
)

F = Fraction


def small_rationals(lo, hi, den=4):
    """Rationals in [lo, hi] with denominators up to `den`."""
    return st.builds(F, st.integers(lo * den, hi * den), st.integers(1, den)).filter(
        lambda x: lo <= x <= hi
    )


def _drawn_jobs(draw, works):
    """Jobs j0, j1, ... with the given processing times and drawn rates and
    thresholds; cooling can be much faster than heating."""
    return tuple(
        Job(
            f"j{j}",
            p,
            -draw(small_rationals(1, 8)),
            draw(small_rationals(1, 4)),
            draw(st.sampled_from([None, F(1, 2), F(1), F(3, 2), F(2), F(3)])),
        )
        for j, p in enumerate(works)
    )


@st.composite
def normal_cases(draw):
    """An instance and a normal schedule with per-interval total load at most
    1. Rates and thresholds vary per job; a job's p is the work the drawn
    loads give it."""
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    lengths = [draw(small_rationals(1, 6)) for _ in range(n)]
    position = {j: pos for pos, j in enumerate(order)}
    loads = []
    for i in range(n):
        weights = [
            draw(st.integers(1 if position[j] == i else 0, 4)) if position[j] >= i else 0
            for j in range(n)
        ]
        total = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1)]))
        loads.append([total * w / sum(weights) for w in weights])
    work, completions, done, t = [], [], [F(0)] * n, F(0)
    for length, row in zip(lengths, loads):
        t += length
        done = [d + s * length for d, s in zip(done, row)]
        completions.append(t)
        work.append(tuple(done))
    instance = Instance(_drawn_jobs(draw, done), machines=draw(st.sampled_from([1, 2])))
    return instance, NormalSchedule(order, completions, work)


@st.composite
def natural_cases(draw):
    """An instance and a natural schedule: each job gets up to three drawn
    spans (touching ones merge), with denominators such as 113, and may be
    left idle or unfinished."""
    n = draw(st.integers(1, 3))
    times = st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 7, 113]))
    spans = {}
    for j in range(n):
        pieces = [sorted(draw(st.tuples(times, times).filter(lambda ab: ab[0] != ab[1])))
                  for _ in range(draw(st.integers(0, 3)))]
        if pieces:
            spans[f"j{j}"] = pieces
    instance = Instance(_drawn_jobs(draw, [F(1)] * n))
    return instance, NaturalSchedule(spans)


def vertex_minimum(problem: LpProblem):
    """(status, value) by exhaustive basic-solution enumeration.

    Suitable only for tiny problems. status is "infeasible" when no basic
    feasible solution exists, otherwise "optimal" with the minimum
    objective over all vertices (which equals the LP optimum whenever the
    problem is bounded).
    """
    nvars = len(problem.objective)
    total = nvars + sum(con.relation == "<=" for con in problem.constraints)
    rows = _dense_rows(problem)

    reduced = _row_reduce(rows, total)
    if reduced is None:
        return "infeasible", None
    rank = len(reduced)

    best = None
    for basis in itertools.combinations(range(total), rank):
        x = _solve_basis(reduced, basis, total)
        if x is None or any(v < 0 for v in x):
            continue
        value = sum(
            (problem.objective[i] * x[i] for i in range(nvars)), F(0)
        )
        if best is None or value < best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def _dense_rows(problem: LpProblem):
    """[A | I | b] as lists of `Fraction`s: one row per constraint, the
    structural columns, then one slack column per `<=` row, then the
    right-hand side."""
    cons = problem.constraints
    nvars = len(problem.objective)
    slacks = [r for r, con in enumerate(cons) if con.relation == "<="]
    width = nvars + len(slacks)
    rows = []
    for r, con in enumerate(cons):
        dense = [F(0)] * (width + 1)
        for i, coeff in con.coeffs:
            dense[i] = coeff
        if con.relation == "<=":
            dense[nvars + slacks.index(r)] = F(1)
        dense[width] = con.rhs
        rows.append(dense)
    return rows


def _row_reduce(rows, width):
    """Gauss-Jordan on [A | b]; returns independent rows or None when some
    row reduces to 0 = nonzero."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][col]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][-1] != 0:
            return None
    return mat[:r]


def _solve_basis(reduced, basis, width):
    """Solve the reduced system with non-basis variables at zero; None when
    the basis submatrix is singular."""
    rank = len(reduced)
    sub = [[reduced[i][j] for j in basis] + [reduced[i][-1]] for i in range(rank)]
    # Gaussian elimination with exact pivoting
    for col in range(rank):
        pivot_row = next((i for i in range(col, rank) if sub[i][col] != 0), None)
        if pivot_row is None:
            return None
        sub[col], sub[pivot_row] = sub[pivot_row], sub[col]
        piv = sub[col][col]
        sub[col] = [v / piv for v in sub[col]]
        for i in range(rank):
            if i != col and sub[i][col] != 0:
                f = sub[i][col]
                sub[i] = [a - f * b for a, b in zip(sub[i], sub[col])]
    x = [F(0)] * width
    for i, col in enumerate(basis):
        x[col] = sub[i][-1]
    return x


def feasible_start(problem: LpProblem):
    """The first feasible basis of `problem` as `LpProblem.start` pairs, or
    None where there is none.

    A basis is a choice of as many columns as there are rows, from the
    structural columns and the slacks of the `<=` rows, tried in
    `itertools.combinations` order. The rows whose slack is not chosen,
    every `==` row among them, pair with the chosen structural columns by
    Gauss-Jordan elimination over `Fraction`s: each such row, in row order,
    takes the first unused chosen column with a nonzero entry in it. The
    basis is singular where some row finds none, and feasible where every
    basic value is nonnegative. Shares no code with the simplex, so it
    serves as the oracle's way into `solve_lp`, which needs a start.
    """
    cons = problem.constraints
    nvars = len(problem.objective)
    slack_of = [r for r, con in enumerate(cons) if con.relation == "<="]
    width = nvars + len(slack_of)
    table = _dense_rows(problem)
    for basis in itertools.combinations(range(width), len(cons)):
        kept = {slack_of[c - nvars] for c in basis if c >= nvars}
        free = [c for c in basis if c < nvars]
        mat = [row[:] for row in table]
        pairs = []
        for r in range(len(cons)):
            if r in kept:
                continue
            col = next((c for c in free if mat[r][c] != 0), None)
            if col is None:
                break
            free.remove(col)
            piv = mat[r][col]
            mat[r] = [v / piv for v in mat[r]]
            for i, row in enumerate(mat):
                if i != r and row[col] != 0:
                    f = row[col]
                    mat[i] = [a - f * b for a, b in zip(row, mat[r])]
            pairs.append((r, col))
        else:
            if all(row[width] >= 0 for row in mat):
                return tuple(pairs)
    return None


def random_small_lp(rng: random.Random) -> LpProblem:
    """A tiny LP with a nonnegative objective (hence never unbounded)."""
    from tempsched import Constraint

    nvars = rng.randint(1, 4)
    nrows = rng.randint(1, 4)
    cons = []
    for _ in range(nrows):
        coeffs = []
        for v in range(nvars):
            c = rng.randint(-3, 3)
            if c:
                coeffs.append((v, F(c)))
        if not coeffs:
            coeffs.append((rng.randrange(nvars), F(1)))
        rel = "==" if rng.random() < 0.3 else "<="
        rhs = F(rng.randint(-2, 6))
        cons.append(Constraint(tuple(coeffs), rel, rhs))
    objective = tuple(F(rng.randint(0, 4)) for _ in range(nvars))
    return LpProblem(objective, tuple(cons))


def sequential_full_speed(instance: Instance, order) -> NormalSchedule:
    """Run jobs back to back at load 1 in the given completion order.

    Always manageable on one machine; overheats exactly when some job has
    beta * p > 1.
    """
    n = instance.n
    completions = []
    t = F(0)
    for j in order:
        t += instance.jobs[j].p
        completions.append(t)
    work = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for pos in range(i + 1):
            work[i][order[pos]] = instance.jobs[order[pos]].p
    return NormalSchedule(
        order=tuple(order),
        completions=tuple(completions),
        work=tuple(tuple(row) for row in work),
    )


def work_at(traj, j: int, t: Fraction) -> Fraction:
    """Evaluate job j's piecewise-linear cumulative work at any time."""
    import bisect

    bps = traj.breakpoints
    if not bps or t <= bps[0]:
        return F(0)
    if t >= bps[-1]:
        return traj.works[j][-1]
    i = bisect.bisect_right(bps, t) - 1
    t0, t1 = bps[i], bps[i + 1]
    w0, w1 = traj.works[j][i], traj.works[j][i + 1]
    return w0 + (w1 - w0) * (t - t0) / (t1 - t0)


def lp_columns(n: int) -> tuple[str, ...]:
    """The order LP's columns by name, in the layout its docstring gives:
    D_i, then w_i_j for i <= j without w_1_1, then T_i_j for i <= j, each
    row by row. Written out here so that tests can name a column without
    going through `tempsched.lp`."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return (tuple(f"D_{i}" for i in range(1, n + 1))
            + tuple(f"w_{i}_{j}" for i, j in pairs if j > 1)
            + tuple(f"T_{i}_{j}" for i, j in pairs))


def lp_rows(n: int, machines: int) -> tuple[str, ...]:
    """The order LP's rows by name, in the layout its docstring gives: done_j
    (j >= 2), manage_i, rate_i_j (only with more than one machine and job),
    temp_step_i_j and temp_cap_i_j, each row by row over i <= j."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    rates = machines > 1 and n > 1
    return (tuple(f"done_{j}" for j in range(2, n + 1))
            + tuple(f"manage_{i}" for i in range(1, n + 1))
            + tuple(f"rate_{i}_{j}" for i, j in pairs if rates)
            + tuple(f"temp_step_{i}_{j}" for i, j in pairs)
            + tuple(f"temp_cap_{i}_{j}" for i, j in pairs))


def threshold_edge_instances(rng: random.Random):
    """Instances whose jobs sit at beta * p = 1 exactly, the one place the
    order LPs' start basis changes shape, between jobs on either side of
    it; n 1..4 and machines 1..3, each with a seeded order."""
    jobs = [Job("edge", 2, F(-1, 3), F(1, 2)), Job("cool", 1, F(-1), F(1, 3)),
            Job("hot", 3, F(-1, 2), 1), Job("edge2", F(3, 4), F(-2), F(4, 3))]
    for n in range(1, 5):
        for machines in (1, 2, 3):
            yield Instance(tuple(jobs[:n]), machines), rng.sample(range(n), n)


def lemma_assignment(instance: Instance, schedule: NormalSchedule) -> tuple[Fraction, ...]:
    """Map a normal schedule plus its simulated breakpoint temperatures onto
    the order-LP's columns (positions re-indexed along schedule.order), as a
    point with one value per name in `lp_columns(n)`: interval lengths D_i,
    per-interval work w_i_j and temperatures T_i_j.

    The simulated temperatures are the pointwise-minimal witness satisfying
    the temperature recursion, so the LP constraint set accepts the result
    exactly when the schedule is feasible.
    """
    traj = simulate(instance, schedule)
    time_index = {t: k for k, t in enumerate(traj.breakpoints)}
    n = schedule.n
    values: dict[str, Fraction] = {}
    for i in range(n):
        c_i = schedule.completions[i]
        values[f"D_{i + 1}"] = c_i - (schedule.completions[i - 1] if i else F(0))
        k = time_index[c_i]
        for j in range(n):
            job_index = schedule.order[j]
            before = schedule.work[i - 1][job_index] if i else F(0)
            values[f"w_{i + 1}_{j + 1}"] = schedule.work[i][job_index] - before
            values[f"T_{i + 1}_{j + 1}"] = traj.temperatures[job_index][k]
    return tuple(values[v] for v in lp_columns(n))


def certified(solve):
    """`solve` that also asserts the exact dual certificate of every optimum:
    the returned `y` is dual feasible with `y . b` equal to the value."""

    def solve_and_check(problem):
        sol = solve(problem)
        if sol.status == "optimal":
            assert dual_bound(problem, sol.y) == sol.value, (problem, sol)
        return sol

    return solve_and_check


def plain_best_order(instance: Instance, objective: str):
    """(order, value, solution) of the lexicographically first optimal
    completion order, found by solving every order LP."""
    best = None
    for order in itertools.permutations(range(instance.n)):
        sol = solve_lp(build_order_lp(instance, order, objective))
        assert sol.status == "optimal", order
        if best is None or sol.value < best[1]:
            best = (order, sol.value, sol)
    return best


def _reference_segments(instance: Instance, schedule):
    """(start, end, loads) segments covering [0, end of the last span or
    completion): a normal schedule's from `loads_from_normal`, a natural
    schedule's 0/1 loads from one sweep over its sorted span endpoints."""
    if isinstance(schedule, NormalSchedule):
        validate_normal_schedule(instance, schedule)
        return loads_from_normal(schedule)
    unknown = sorted(set(schedule.intervals) - set(instance.job_ids))
    if unknown:
        raise InputError(f"schedule names unknown job(s): {', '.join(unknown)}")
    spans = [schedule.for_job(job.id) for job in instance.jobs]
    boundaries = sorted({F(0)} | {t for sp in spans for span in sp for t in span})
    idx = [0] * len(spans)
    segments = []
    for a, b in itertools.pairwise(boundaries):
        loads = []
        for j, sp in enumerate(spans):
            while idx[j] < len(sp) and sp[idx[j]][1] <= a:
                idx[j] += 1
            loads.append(F(1) if idx[j] < len(sp) and sp[idx[j]][0] <= a else F(0))
        segments.append((a, b, tuple(loads)))
    return segments


def reference_simulate(instance: Instance, schedule) -> Trajectory:
    """The simulator with one `Fraction` operation per job per breakpoint,
    kept as the oracle for `tempsched.simulate`, which works on integers.

    On [a, b) at load s a job's temperature is max(0, T + r*(t - a)) with
    r = alpha*(1 - s) + beta*s; breakpoints are b and the instants
    a + T/(-r) inside (a, b) at which a cooling job reaches 0."""
    segments = _reference_segments(instance, schedule)
    n = instance.n
    first = [F(0)] if segments else []
    breakpoints = list(first)
    temperatures = [list(first) for _ in range(n)]
    works = [list(first) for _ in range(n)]
    loads = [[] for _ in range(n)]
    for a, b, s in segments:
        r = [job.alpha * (1 - sj) + job.beta * sj for job, sj in zip(instance.jobs, s)]
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
                temperatures[j].append(max(F(0), at_t[j]))
                works[j].append(work[j] + s[j] * dt if s[j] else work[j])
                loads[j].append(s[j])
    return Trajectory(
        job_ids=instance.job_ids,
        breakpoints=tuple(breakpoints),
        loads=tuple(map(tuple, loads)),
        temperatures=tuple(map(tuple, temperatures)),
        works=tuple(map(tuple, works)),
    )


def reference_report(instance: Instance, traj: Trajectory):
    """(violations as (job id, time, kind), completions, missing, sum,
    makespan) judged from a trajectory with plain `Fraction` comparisons and
    a linear scan: the first breakpoint above 1 per job, an overload once per
    run of equal loads, the first load above 1 per job on several machines,
    and each job's first time of reaching its p."""
    m, bps = instance.machines, traj.breakpoints
    violations = []
    for j, job in enumerate(instance.jobs):
        hot = [t for t, x in zip(bps, traj.temperatures[j]) if x > 1]
        if hot:
            violations.append((job.id, hot[0], "overheat"))
    prev = None
    for t, loads in zip(bps, zip(*traj.loads)):
        if loads != prev and sum(loads) > m:
            violations.append((None, t, "manageability"))
        prev = loads
    for j, job in enumerate(instance.jobs):
        fast = [t for t, s in zip(bps, traj.loads[j]) if s > 1]
        if m > 1 and fast:
            violations.append((job.id, fast[0], "per-job-rate"))
    completions = {}
    for j, job in enumerate(instance.jobs):
        w = traj.works[j]
        for k in range(len(bps) - 1):
            if w[k + 1] >= job.p:
                rate = (w[k + 1] - w[k]) / (bps[k + 1] - bps[k])
                completions[job.id] = bps[k] + (job.p - w[k]) / rate
                break
    missing = tuple(job.id for job in instance.jobs if job.id not in completions)
    if missing:
        return violations, completions, missing, None, None
    return (violations, completions, missing, sum(completions.values(), F(0)),
            max(completions.values(), default=F(0)))


def reference_merge(spans) -> tuple[tuple[Fraction, Fraction], ...]:
    """One job's spans sorted and united by plain `Fraction` comparisons,
    touching spans fused: the oracle for the `NaturalSchedule`
    constructor, which merges on integers."""
    merged = []
    for a, b in sorted(spans):
        assert a < b, (a, b)
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def reference_time_slice(instance: Instance, schedule: NormalSchedule, k: int):
    """The `intervals` of `time_slice(instance, schedule, k)`, built with one
    running `Fraction` sum per slice: each slice of length h starts at
    start + r*h and runs the loaded jobs back to back in instance order, job
    j for s_j*h. The oracle for `time_slice`, which computes every endpoint
    from integers."""
    raw = {job.id: [] for job in instance.jobs}
    for start, end, loads in loads_from_normal(schedule):
        h = (end - start) / k
        for r in range(k):
            t = start + r * h
            for job, s in zip(instance.jobs, loads):
                if s > 0:
                    raw[job.id].append((t, t + s * h))
                    t += s * h
    return {job_id: reference_merge(spans) for job_id, spans in raw.items()}


def reference_emit_csv(trajectory: Trajectory, path) -> None:
    """`emit_csv` a row at a time: every value through `float`, or through
    `Decimal` beyond the float range, to 12 significant digits. The oracle
    for `emit_csv`, which renders by column and writes exact 0 and 1 as
    they are."""
    def dec(value):
        try:
            approx = float(value)
        except OverflowError:
            approx = Decimal(value.numerator) / value.denominator
        return format(approx, ".12g")

    header = ["time"]
    for job_id in trajectory.job_ids:
        header += [f"{job_id}.load", f"{job_id}.temp"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        nseg = max(len(trajectory.breakpoints) - 1, 0)
        for k, t in enumerate(trajectory.breakpoints):
            row = [dec(t)]
            for j in range(len(trajectory.job_ids)):
                load = trajectory.loads[j][k] if k < nseg else F(0)
                row += [dec(load), dec(trajectory.temperatures[j][k])]
            writer.writerow(row)


def random_rational(
    rng: random.Random, lo: int = 1, hi: int = 8, max_den: int = 4
) -> Fraction:
    """A positive rational with a small numerator and denominator."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_instance(
    rng: random.Random,
    n: int,
    machines: int = 1,
    *,
    common_rates: bool = True,
    max_p: int = 10,
    max_rate: int = 5,
    max_den: int = 4,
) -> Instance:
    """A random normalized instance with small-denominator rationals.

    With common_rates every job shares one (alpha, beta) pair, matching the
    setting where the shortest-processing-time guarantee applies.
    """

    def rates() -> tuple[Fraction, Fraction]:
        return (
            -random_rational(rng, 1, max_rate, max_den),
            random_rational(rng, 1, max_rate, max_den),
        )

    shared = rates()
    jobs = []
    for i in range(n):
        alpha, beta = shared if common_rates else rates()
        jobs.append(Job(
            id=f"j{i + 1}",
            p=random_rational(rng, 1, max_p, max_den),
            alpha=alpha,
            beta=beta,
        ))
    return Instance(tuple(jobs), machines)
