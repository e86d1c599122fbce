"""Linear programs over completion orders.

For a fixed completion order the feasible normal schedules form a
polyhedron in the interval lengths D_i between consecutive completions,
the work w_i_j done on each job in each interval, and a temperature
witness T_i_j (all nonnegative). `build_order_lp` emits that polyhedron's
constraints together with either the sum-of-completions or the makespan
objective; `extract_schedule` turns an optimal vertex back into a
`NormalSchedule`, whose completion times and cumulative work are prefix
sums of D and w.

Indices inside the LP are completion positions: w_1_2 is the work done on
the job completing second during the first interval, from time 0 to the
first completion. A job does no work after it completes, and it only
cools, so only w_i_j and T_i_j with i <= j are variables of the LP;
`extract_schedule` reads T_i_j for i > j as T_j_j.

An LP speaks indices only: a point `x` holds one value per column, and
rows and columns are known by position. `_col_d`, `_col_w` and `_col_t` lay
out the order LP's columns for both `build_order_lp` and `extract_schedule`,
and the `_row_*` helpers its rows for both `build_order_lp` and
`duals.OrderDual`. Names such as D_i or done_j appear only in the docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import Instance, InputError, NormalSchedule, SchedulingError

Relation = Literal["<=", "=="]


class NoScheduleError(SchedulingError):
    """Raised when asked to extract a schedule from a non-optimal solution."""


class PivotLimitError(SchedulingError):
    """The simplex reached its pivot cap. Its pricing falls back to Bland's
    rule on degenerate stalls and so cannot cycle; reaching the cap is a bug,
    reported as a typed failure rather than a crash."""


def _exact(value) -> bool:
    """True for an int or a Fraction; bools and floats are not exact numbers."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Constraint:
    """Sparse linear constraint: sum(coeff * x[column]) <relation> rhs."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    """Minimize objective . x subject to constraints and x >= 0; there is
    one column per objective entry.

    `start` names the solver's starting basis as (row, column) pairs, each
    column to be made basic in its row; a row it leaves out keeps its
    slack, so an empty start is the slack basis. The solver checks the
    basis exactly and raises `InputError` where it is singular, leaves an
    `==` row out or is infeasible.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    start: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        columns = len(self.objective)
        if not all(map(_exact, self.objective)):
            raise InputError("objective entries must be ints or Fractions")
        for r, con in enumerate(self.constraints):
            if con.relation not in ("<=", "=="):
                raise InputError(f"row {r}: relation must be <= or ==, got {con.relation!r}")
            if any(not 0 <= i < columns for i, _ in con.coeffs):
                raise InputError(f"row {r}: a coefficient names no column")
            if not (_exact(con.rhs) and all(_exact(c) for _, c in con.coeffs)):
                raise InputError(f"row {r}: coefficients and right-hand side must be ints or Fractions")
        for k, size in enumerate((len(self.constraints), columns)):
            named = {e[k] for e in self.start if isinstance(e, tuple) and len(e) == 2}
            if len(named) < len(self.start) or not all(type(i) is int and 0 <= i < size for i in named):
                raise InputError("start must pair distinct rows with distinct columns, all in range")

    def _check_point(self, x: Sequence[Fraction]) -> None:
        if len(x) != len(self.objective):
            raise InputError(f"point has {len(x)} values, the problem has {len(self.objective)} columns")

    def violated_constraints(self, x: Sequence[Fraction]) -> list[int]:
        """What the point `x`, one value per column, breaks: the index of each
        row it violates, then `len(constraints) + c` for each column c with
        `x[c] < 0`. An empty list means the point is feasible."""
        self._check_point(x)
        bad = []
        for r, con in enumerate(self.constraints):
            lhs = sum((c * x[i] for i, c in con.coeffs), Fraction(0))
            if not (lhs <= con.rhs if con.relation == "<=" else lhs == con.rhs):
                bad.append(r)
        return bad + [len(self.constraints) + c for c, xi in enumerate(x) if xi < 0]

    def objective_value(self, x: Sequence[Fraction]) -> Fraction:
        self._check_point(x)
        return sum((c * xi for c, xi in zip(self.objective, x)), Fraction(0))


@dataclass(frozen=True)
class LpSolution:
    """A solver's verdict. `x` is the optimal vertex, one value per column
    (per entry of `LpProblem.objective`); it is empty unless the status is
    "optimal".

    `y` holds the optimal duals, one per constraint in the constraint's own
    orientation: `y_i <= 0` on a `<=` row, any sign on a `==` row, and
    `A^T y <= c` column by column. By weak duality `y . b` is then a lower
    bound on the LP, and `dual_bound(problem, y) == value` certifies the
    optimum without trusting the solver. `y` is empty where no solver
    supplied it.
    """

    status: Literal["optimal", "unbounded"]
    value: Fraction | None
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...] = ()


def dual_bound(problem: LpProblem, y: Sequence[Fraction]) -> Fraction | None:
    """`y . b` if `y`, one value per constraint, is dual feasible; else None.

    Dual feasible means `y_i <= 0` on every `<=` row and `A^T y <= c` on
    every column. Weak duality then makes `y . b` a lower bound on
    `c . x` at every feasible x, so a bound equal to a solution's value
    proves that solution optimal. Entries must be ints or Fractions: a
    float could pass the test by rounding.
    """
    _check_dual(y)
    if len(y) != len(problem.constraints):
        return None
    reduced = list(problem.objective)  # c - A^T y, column by column
    bound = Fraction(0)
    for con, yi in zip(problem.constraints, y):
        if not yi:
            continue
        if yi > 0 and con.relation == "<=":
            return None
        for i, c in con.coeffs:
            reduced[i] -= c * yi
        bound += con.rhs * yi
    if any(r < 0 for r in reduced):
        return None
    return bound


def _check_dual(y: Sequence[Fraction]) -> None:
    if not all(map(_exact, y)):
        raise InputError("dual values must be ints or Fractions")


Objective = Literal["sum", "makespan"]


def _tri(n: int, i: int, j: int) -> int:
    """Index of (i, j), i <= j, in the upper triangle of an n x n table
    laid out row by row: (1, 1) is 0 and (n, n) is n(n+1)/2 - 1."""
    return (i - 1) * (2 * n + 2 - i) // 2 + (j - i)


def _col_d(i: int) -> int:
    """Column of D_i (positions are 1-based): the interval lengths come first."""
    return i - 1


def _col_w(n: int, i: int, j: int) -> int:
    """Column of w_i_j, i <= j and (i, j) != (1, 1): the per-interval work
    follows, row by row."""
    return n - 1 + _tri(n, i, j)


def _col_t(n: int, i: int, j: int) -> int:
    """Column of T_i_j, i <= j: the temperature witness comes last, row by row."""
    return n - 1 + n * (n + 1) // 2 + _tri(n, i, j)


def _row_done(j: int) -> int:
    """Row of done_j, j >= 2: the work rows come first."""
    return j - 2


def _row_manage(n: int, i: int) -> int:
    """Row of manage_i: the machine-time rows follow, one per interval."""
    return n - 2 + i


def _row_rate(n: int, i: int, j: int) -> int:
    """Row of rate_i_j, i <= j, when m > 1: the one-machine rows follow."""
    return 2 * n - 1 + _tri(n, i, j)


def _row_step(n: int, m: int, i: int, j: int) -> int:
    """Row of temp_step_i_j, i <= j: after the rate rows, which exist only
    when m > 1."""
    return 2 * n - 1 + (n * (n + 1) // 2 if m > 1 else 0) + _tri(n, i, j)


def _row_cap(n: int, m: int, i: int, j: int) -> int:
    """Row of temp_cap_i_j, i <= j: the threshold rows come last."""
    return _row_step(n, m, i, j) + n * (n + 1) // 2


def _lp_shape(instance: Instance, objective: Objective) -> tuple[int, int]:
    """n and the order LPs' machine count m, which is 1 for one job (see
    `build_order_lp`)."""
    if instance.n == 0:
        raise InputError("cannot build an LP for an instance with no jobs")
    if objective not in ("sum", "makespan"):
        raise InputError(f"unknown objective {objective!r}")
    return instance.n, instance.machines if instance.n > 1 else 1


def _check_order(n: int, order: Sequence[int]) -> None:
    if sorted(order) != list(range(n)):
        raise InputError(f"order must be a permutation of 0..{n - 1}")


def build_order_lp(instance: Instance, order: Sequence[int], objective: Objective) -> LpProblem:
    """Emit the exact LP for the best normal schedule completing jobs in
    `order` (instance indices, first to complete first).

    Positions i and j are 1-based: job j completes j-th, and interval i
    runs from the (i-1)-th completion to the i-th, the first from time 0.
    The columns, in the order of `_col_d`, `_col_w` and `_col_t`, are:
      * D_i, the length of interval i;
      * w_i_j for i <= j, the work done on job j during interval i, row
        by row; a job does no work after it completes, so w_i_j for i > j
        is 0 and not a column. The first job does all its work in
        interval 1, so w_1_1 is the constant p of that job;
      * T_i_j for i <= j, job j's temperature witness at the i-th
        completion, row by row. A completed job only cools, so T_j_j
        bounds its temperature for good.
    Completion times and cumulative work are prefix sums of D and w, so
    both are nondecreasing by the columns' nonnegativity alone. Constant
    terms move to the right-hand side.

    Constraint families, in row order (the `_row_*` helpers):
      * done_j (j >= 2): the work on job j over intervals 1..j is p_j;
      * manage_i: per interval, total work fits in m machine-time;
      * rate_i_j (only m > 1, j >= i): per interval, a running job gets
        at most one machine;
      * temp_step_i_j (i <= j): the temperature recursion lower-bounds
        the witness T over interval i; T_0_j = 0 drops out for i = 1;
      * temp_cap_i_j (i <= j): the witness stays at most the threshold 1.
    With one job, rate_1_1 (D_1 >= p_1) implies manage_1 (m D_1 >= p_1),
    so a one-job LP is built with m = 1: manage_1 is then that rate row.

    The sum of completions is sum_i (n - i + 1) D_i, since D_i is part of
    every completion from the i-th on; the makespan is sum_i D_i.

    The LP names a feasible starting basis, `LpProblem.start`. It is the
    schedule that runs each job alone in its own interval, as fast as its
    threshold allows, so that D_i is the job's one-job minimum makespan q_i
    (`solvers.min_makespan_single`): w_j_j = p_j is basic in done_j
    (j >= 2), and every w_i_j with i < j and every T_i_j with i < j is 0.
      * beta_i p_i <= 1: the job runs flat out. D_i = p_i is basic in
        rate_i_i (in manage_i when m = 1), and T_i_i = beta_i p_i <= 1 in
        temp_step_i_i.
      * beta_i p_i > 1: the job ends at the threshold. D_i = p_i +
        (beta_i p_i - 1)/|alpha_i| is basic in temp_step_i_i, and T_i_i = 1
        in temp_cap_i_i.
    Every other row keeps its slack. D_i >= p_i, so manage_i and rate_i_j
    hold, manage_1 and rate_1_1 too, whose constant w_1_1 gives them a
    negative right-hand side; temp_step_i_j for j > i reads alpha D_i <= 0,
    and T_i_i <= 1.
    """
    n, m = _lp_shape(instance, objective)
    _check_order(n, order)
    jobs = [instance.jobs[k] for k in order]  # jobs[j-1] completes j-th

    zero, one = Fraction(0), Fraction(1)

    def w(i: int, j: int, coeff: Fraction) -> tuple[int | None, Fraction]:
        """The term coeff * w_i_j as (column, coeff), or (None, value) for
        the constant w_1_1."""
        return (None, coeff * jobs[0].p) if i == j == 1 else (_col_w(n, i, j), coeff)

    cons: list[Constraint | None] = [None] * constraint_count(n, m)

    def emit(row: int, terms, relation: Relation = "<=", rhs: Fraction = zero) -> None:
        coeffs = []
        for col, c in terms:
            if col is None:
                rhs -= c
            else:
                coeffs.append((col, c))
        cons[row] = Constraint(tuple(coeffs), relation, rhs)

    for j in range(2, n + 1):
        emit(_row_done(j), [w(i, j, one) for i in range(1, j + 1)], "==", jobs[j - 1].p)
    for i in range(1, n + 1):
        emit(_row_manage(n, i),
             [w(i, j, one) for j in range(i, n + 1)] + [(_col_d(i), Fraction(-m))])
        for j in range(i, n + 1):
            if m > 1:
                emit(_row_rate(n, i, j), (w(i, j, one), (_col_d(i), -one)))
            a, b = jobs[j - 1].alpha, jobs[j - 1].beta
            terms = [(_col_d(i), a), w(i, j, b - a), (_col_t(n, i, j), -one)]
            if i > 1:
                terms.append((_col_t(n, i - 1, j), one))
            emit(_row_step(n, m, i, j), terms)
            emit(_row_cap(n, m, i, j), ((_col_t(n, i, j), one),), rhs=one)

    obj = [zero] * (_col_t(n, n, n) + 1)
    for i in range(1, n + 1):
        obj[_col_d(i)] = Fraction(n - i + 1) if objective == "sum" else one

    start = [(_row_done(j), _col_w(n, j, j)) for j in range(2, n + 1)]
    for i, job in enumerate(jobs, 1):
        d, t, step = _col_d(i), _col_t(n, i, i), _row_step(n, m, i, i)
        if job.beta * job.p <= 1:
            start += [(_row_rate(n, i, i) if m > 1 else _row_manage(n, i), d), (step, t)]
        else:
            start += [(step, d), (_row_cap(n, m, i, i), t)]
    return LpProblem(tuple(obj), tuple(cons), tuple(start))


def constraint_count(n: int, machines: int) -> int:
    """Closed-form size of the constraint list emitted by build_order_lp."""
    return _row_cap(n, machines if n > 1 else 1, n, n) + 1


def extract_schedule(
    instance: Instance, order: Sequence[int], solution: LpSolution
) -> NormalSchedule:
    """Turn an optimal order-LP vertex into the corresponding normal
    schedule: completions and cumulative work are prefix sums of the
    interval lengths D and the per-interval work w (mapped back to
    instance job indices, w_1_1 filled in from p), and the T values are
    kept as the feasibility witness, with a completed job's T_j_j carried
    on to every later position."""
    if solution.status != "optimal":
        raise NoScheduleError(f"no schedule available: solver status is {solution.status}")
    n = instance.n
    _check_order(n, order)
    x = solution.x
    columns = _col_t(n, n, n) + 1
    if len(x) != columns:
        raise InputError(f"solution has {len(x)} values, the order LP has {columns} columns")
    # A kept schedule holds one Fraction per distinct value: equal sums share
    # one object, a job's work ends at its own p, and a zero step adds none.
    t = zero = Fraction(0)
    values = {zero: zero}

    def share(v: Fraction) -> Fraction:
        return values.setdefault(v, v)

    done = [zero] * n  # cumulative work, by instance index
    completions, work, temps = [], [], []
    for i in range(1, n + 1):
        if x[_col_d(i)]:
            t = share(t + x[_col_d(i)])
        completions.append(t)
        temp = [zero] * n
        for j, k in enumerate(order, 1):
            if i < j and x[_col_w(n, i, j)]:
                done[k] = share(done[k] + x[_col_w(n, i, j)])
            elif i == j:
                p = instance.jobs[k].p
                if j > 1 and done[k] + x[_col_w(n, j, j)] != p:
                    raise NoScheduleError(f"the solution does not complete job {k}'s work")
                done[k] = share(p)
            temp[k] = x[_col_t(n, min(i, j), j)]
        work.append(tuple(done))
        temps.append(temp)
    return NormalSchedule(tuple(order), tuple(completions), tuple(work), tuple(temps))
