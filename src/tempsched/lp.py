"""Linear programs over completion orders.

For a fixed completion order the feasible normal schedules form a
polyhedron in the completion times C_i, the cumulative-work matrix W_i_j,
and a temperature witness T_i_j (all nonnegative). `build_order_lp`
emits that polyhedron's constraints together with either the
sum-of-completions or the makespan objective; `extract_schedule` turns an
optimal vertex back into a `NormalSchedule`.

Indices inside the LP are completion positions: W_1_2 is the work done on
the job completing second, measured at the first completion time, and
position 0 is time 0. A complete job's work is its processing time and
it only cools, so only W_i_j with i < j and T_i_j with i <= j are
variables of the LP; `extract_schedule` reads T_i_j for i > j as T_j_j.

A point `x` of an LP holds one value per column. `_col_c`, `_col_w` and
`_col_t` lay out the order LP's columns for both `build_order_lp` and
`extract_schedule`; the names in `LpProblem.variables` serve only
`lp_text` and `violated_constraints`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import Instance, InputError, NormalSchedule, SchedulingError, normalize

Relation = Literal["<=", "=="]


class NoScheduleError(SchedulingError):
    """Raised when asked to extract a schedule from a non-optimal solution."""


class PivotLimitError(SchedulingError):
    """The simplex reached its pivot cap. Its pricing falls back to Bland's
    rule on degenerate stalls and so cannot cycle; reaching the cap is a bug,
    reported as a typed failure rather than a crash."""


@dataclass(frozen=True)
class Constraint:
    """Sparse linear constraint: sum(coeff * var) <relation> rhs."""

    name: str
    coeffs: tuple[tuple[int, Fraction], ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    """Minimize objective . x subject to constraints and x >= 0."""

    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if len(self.objective) != len(self.variables):
            raise InputError("objective length must match variable count")
        for con in self.constraints:
            if con.relation not in ("<=", "=="):
                raise InputError(f"{con.name}: relation must be <= or ==, got {con.relation!r}")
            if any(not 0 <= i < len(self.variables) for i, _ in con.coeffs):
                raise InputError(f"{con.name}: a coefficient names no variable")

    def violated_constraints(self, x: Sequence[Fraction]) -> list[str]:
        """Names of constraints (or nonnegativity bounds) the point `x`, one
        value per column, breaks; empty list means the point is feasible."""
        bad = [f"nonneg({v})" for v, xi in zip(self.variables, x) if xi < 0]
        for con in self.constraints:
            lhs = sum((c * x[i] for i, c in con.coeffs), Fraction(0))
            ok = lhs <= con.rhs if con.relation == "<=" else lhs == con.rhs
            if not ok:
                bad.append(con.name)
        return bad

    def objective_value(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * xi for c, xi in zip(self.objective, x)), Fraction(0))


@dataclass(frozen=True)
class LpSolution:
    """A solver's verdict. `x` is the optimal vertex, one value per column
    in the order of `LpProblem.variables`; it is empty unless the status
    is "optimal"."""

    status: Literal["optimal", "infeasible", "unbounded"]
    value: Fraction | None
    x: tuple[Fraction, ...]


Objective = Literal["sum", "makespan"]


def _col_c(i: int) -> int:
    """Column of C_i (positions are 1-based): the completions come first."""
    return i - 1


def _col_w(n: int, i: int, j: int) -> int:
    """Column of W_i_j, i < j: the live work follows, row by row."""
    return n + (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def _col_t(n: int, i: int, j: int) -> int:
    """Column of T_i_j, i <= j: the temperature witness comes last, row by row."""
    return n + n * (n - 1) // 2 + (i - 1) * (2 * n + 2 - i) // 2 + (j - i)


def build_order_lp(instance: Instance, order: Sequence[int], objective: Objective) -> LpProblem:
    """Emit the exact LP for the best normal schedule completing jobs in
    `order` (instance indices, first to complete first).

    Positions i and j are 1-based: job j completes j-th, and position 0 is
    time 0, where C_0, W_0_j and T_0_j are 0. From its completion on a
    job's cumulative work is its processing time, so W_i_j = p_j for
    i >= j is a constant, not a variable; the job then only cools, so
    T_j_j bounds its temperature for good. Only the live variables are
    declared, in the column order of `_col_c`, `_col_w` and `_col_t`:
      * C_i, the i-th completion time;
      * W_i_j for i < j, the work done on job j by C_i, row by row;
      * T_i_j for i <= j, job j's temperature witness at C_i, row by row.
    Constant terms move to the right-hand side.

    Constraint families, in emission order:
      * work_monotone_i_j (1 < i <= j): work never decreases between
        breakpoints; for i = j it caps W_(j-1)_j at p_j;
      * manage_i: per interval, total new work fits in m machine-time;
      * order_i (i > 1): completion times are nondecreasing;
      * rate_i_j (only m > 1, j >= i): per interval, a running job gets
        at most one machine (for a completed job, j < i, this is order_i);
      * temp_step_i_j (i <= j): the temperature recursion lower-bounds
        the witness T over the interval from C_(i-1) to C_i;
      * temp_cap_i_j (i <= j): the witness stays at most the threshold 1.
    With one job, rate_1_1 (C_1 >= p_1) implies manage_1 (m C_1 >= p_1),
    so a one-job LP is built with m = 1: manage_1 is then that rate row.
    """
    instance = normalize(instance)
    n = instance.n
    if n == 0:
        raise InputError("cannot build an LP for an instance with no jobs")
    if sorted(order) != list(range(n)):
        raise InputError(f"order must be a permutation of 0..{n - 1}")
    if objective not in ("sum", "makespan"):
        raise InputError(f"unknown objective {objective!r}")
    m = instance.machines if n > 1 else 1
    jobs = [instance.jobs[k] for k in order]  # jobs[j-1] completes j-th

    names: list[str] = [f"C_{i}" for i in range(1, n + 1)]
    names += [f"W_{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names += [f"T_{i}_{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    zero, one = Fraction(0), Fraction(1)

    # Each helper returns the term coeff * variable as (column, coeff), or
    # (None, value) for a constant: position 0 and pinned work.
    def C(i: int, coeff: Fraction) -> tuple[int | None, Fraction]:
        return (_col_c(i), coeff) if i else (None, zero)

    def W(i: int, j: int, coeff: Fraction) -> tuple[int | None, Fraction]:
        if i < j:
            return (_col_w(n, i, j), coeff) if i else (None, zero)
        return None, coeff * jobs[j - 1].p

    def T(i: int, j: int, coeff: Fraction) -> tuple[int | None, Fraction]:
        return (_col_t(n, i, j), coeff) if i else (None, zero)

    cons: list[Constraint] = []

    def emit(name: str, terms, rhs: Fraction = zero) -> None:
        coeffs = []
        for col, c in terms:
            if col is None:
                rhs -= c
            else:
                coeffs.append((col, c))
        cons.append(Constraint(name, tuple(coeffs), "<=", rhs))

    for j in range(1, n + 1):
        for i in range(2, j + 1):
            emit(f"work_monotone_{i}_{j}", (W(i - 1, j, one), W(i, j, -one)))
    for i in range(1, n + 1):
        terms = [W(i, j, one) for j in range(1, n + 1)]
        terms += [W(i - 1, j, -one) for j in range(1, n + 1)]
        emit(f"manage_{i}", terms + [C(i, Fraction(-m)), C(i - 1, Fraction(m))])
    for i in range(2, n + 1):
        emit(f"order_{i}", (C(i - 1, one), C(i, -one)))
    if m > 1:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                emit(f"rate_{i}_{j}", (
                    W(i, j, one), C(i, -one), W(i - 1, j, -one), C(i - 1, one),
                ))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            a, b = jobs[j - 1].alpha, jobs[j - 1].beta
            emit(f"temp_step_{i}_{j}", (
                C(i, a), C(i - 1, -a),
                W(i, j, b - a), W(i - 1, j, -(b - a)),
                T(i, j, -one), T(i - 1, j, one),
            ))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            emit(f"temp_cap_{i}_{j}", (T(i, j, one),), one)

    obj = [zero] * len(names)
    if objective == "sum":
        for i in range(1, n + 1):
            obj[_col_c(i)] = one
    else:
        obj[_col_c(n)] = one

    return LpProblem(tuple(names), tuple(obj), tuple(cons))


def constraint_count(n: int, machines: int) -> int:
    """Closed-form size of the constraint list emitted by build_order_lp."""
    count = (3 * n * n + 5 * n) // 2 - 1
    if machines > 1 and n > 1:
        count += n * (n + 1) // 2
    return count


def extract_schedule(
    instance: Instance, order: Sequence[int], solution: LpSolution
) -> NormalSchedule:
    """Turn an optimal order-LP vertex into the corresponding normal
    schedule (work columns mapped back to instance job indices, pinned
    work filled in from p, the T values kept as the feasibility witness,
    with a completed job's T_j_j carried on to every later position)."""
    if solution.status != "optimal":
        raise NoScheduleError(f"no schedule available: solver status is {solution.status}")
    n = instance.n
    order = tuple(order)
    x = solution.x
    completions = tuple(x[_col_c(i)] for i in range(1, n + 1))
    work = [[Fraction(0)] * n for _ in range(n)]
    temps = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = order[j - 1]
            work[i - 1][k] = x[_col_w(n, i, j)] if i < j else instance.jobs[k].p
            temps[i - 1][k] = x[_col_t(n, min(i, j), j)]
    return NormalSchedule(
        order=order,
        completions=completions,
        work=tuple(tuple(row) for row in work),
        temperatures=tuple(tuple(row) for row in temps),
    )


def lp_text(problem: LpProblem) -> str:
    """Render the problem in an LP-style text format for eyeballing.

    Coefficients stay exact ("4/3 W_1_1"), which standard LP parsers will
    not accept; this output is a debugging aid, not an interchange format.
    """

    def term(coeff: Fraction, name: str, first: bool) -> str:
        sign = "-" if coeff < 0 else ("" if first else "+")
        mag = abs(coeff)
        body = name if mag == 1 else f"{mag} {name}"
        return f"{sign} {body}" if not first else f"{sign}{body}"

    lines = ["Minimize", " obj: " + " ".join(
        term(c, v, i == 0)
        for i, (v, c) in enumerate(
            (v, c) for v, c in zip(problem.variables, problem.objective) if c != 0
        )
    )]
    lines.append("Subject To")
    for con in problem.constraints:
        rel = "<=" if con.relation == "<=" else "="
        body = " ".join(
            term(c, problem.variables[i], k == 0) for k, (i, c) in enumerate(con.coeffs)
        )
        lines.append(f" {con.name}: {body} {rel} {con.rhs}")
    lines.append("Bounds")
    lines.append("\\ all variables >= 0 (default)")
    lines.append("End")
    return "\n".join(lines) + "\n"
