"""Independent cross-checking machinery for the test suite.

The vertex enumerator here shares no code with the simplex solver: it
row-reduces the equality system by plain Gaussian elimination and then
tries every basis subset, so agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tempsched import (
    Instance, LpProblem, NormalSchedule, build_order_lp, dual_bound, simulate, solve_lp,
)

F = Fraction


def vertex_minimum(problem: LpProblem):
    """(status, value) by exhaustive basic-solution enumeration.

    Suitable only for tiny problems. status is "infeasible" when no basic
    feasible solution exists, otherwise "optimal" with the minimum
    objective over all vertices (which equals the LP optimum whenever the
    problem is bounded).
    """
    nvars = len(problem.variables)
    n_ineq = sum(1 for c in problem.constraints if c.relation == "<=")
    total = nvars + n_ineq
    rows = []
    slack = 0
    for con in problem.constraints:
        dense = [F(0)] * total
        for i, coeff in con.coeffs:
            dense[i] = coeff
        if con.relation == "<=":
            dense[nvars + slack] = F(1)
            slack += 1
        rows.append(dense + [con.rhs])

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


def random_small_lp(rng: random.Random) -> LpProblem:
    """A tiny LP with a nonnegative objective (hence never unbounded)."""
    from tempsched import Constraint

    nvars = rng.randint(1, 4)
    nrows = rng.randint(1, 4)
    cons = []
    for r in range(nrows):
        coeffs = []
        for v in range(nvars):
            c = rng.randint(-3, 3)
            if c:
                coeffs.append((v, F(c)))
        if not coeffs:
            coeffs.append((rng.randrange(nvars), F(1)))
        rel = "==" if rng.random() < 0.3 else "<="
        rhs = F(rng.randint(-2, 6))
        cons.append(Constraint(f"r{r}", tuple(coeffs), rel, rhs))
    objective = tuple(F(rng.randint(0, 4)) for _ in range(nvars))
    names = tuple(f"x{i}" for i in range(nvars))
    return LpProblem(names, objective, tuple(cons))


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


def lemma_assignment(
    instance: Instance, schedule: NormalSchedule, variables: tuple[str, ...]
) -> tuple[Fraction, ...]:
    """Map a normal schedule plus its simulated breakpoint temperatures onto
    the order-LP's variables (positions re-indexed along schedule.order),
    as a point with one value per name in `variables`: interval lengths
    D_i, per-interval work w_i_j and temperatures T_i_j.

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
    return tuple(values[v] for v in variables)


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
