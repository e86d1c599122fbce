"""Exact LP solving: one-phase simplex on a fraction-free integer tableau.

The tableau has one unit column per row after the structural columns: a
slack for each `<=` row, then a marker for each `==` row, so every slack
has the same index whatever equalities there are. A marker never enters
the basis, which keeps its row an equality.

The solve starts from the basis the problem names (`LpProblem.start`;
every order LP names one, see `lp.build_order_lp`): each named column is
pivoted into its row in turn, the row negated first where its pivot entry
is negative, and every row left out keeps its unit column. An empty start
is the slack basis. The basis is refused with `InputError`, by exact tests,
where a pivot entry is zero, where an `==` row keeps its marker (no named
column holds it), or where a right-hand side is negative (the basis is not
primal feasible). The simplex then runs from that feasible basis, so it
needs a single phase.

Devex pricing (Harris 1973; Forrest & Goldfarb 1992) picks the entering
column: among the columns with a negative reduced cost, the one with the
largest squared reduced cost over a float reference weight. The floats only
rank candidates that the integers have already admitted; optimality,
unboundedness and the ratio test are exact integer tests, so the value is
exact and independent of the pricing. After a run of degenerate pivots,
Bland's rule picks the entering column until the objective strictly
improves, so the method terminates on every input. At alternative optima
the returned vertex depends on the pricing.

Pivoting is fraction-free (after Edmonds 1967 and Bareiss 1968): each
tableau row is a sparse map from column to nonzero Python `int`, holding
the rational row times a positive factor. That factor is the row's
denominator, and it is the row's own entry in its basic column. A pivot
clears a column from row i as `row * (p/g) - (f/g) * pivot_row`, with
`g = gcd(p, f)`, then divides the row by the gcd of its entries. The
reduced-cost row is kept the same way, up to a positive factor. Pricing
and the ratio test read only signs, within-row ratios (compared by
cross-multiplying, or divided in floats for Devex) and basis indices, all
unchanged by positive row factors, so the pivots, the vertex and the
value are those of the rational tableau. Values become `Fraction`s only
when the optimal vertex is read off.

The optimal duals are read off the final reduced-cost row: row i's unit
column has objective entry 0 and a single 1, in row i, so its reduced cost
is `-y_i`. The cost row carries its positive factor in a column no
constraint row holds. Every column but the markers ends with a nonnegative
reduced cost, which makes `y_i <= 0` on each `<=` row and `A^T y <= c`;
an `==` row's dual may take either sign, so `y` is dual feasible
(`lp.dual_bound` checks it).

`solve_lp` logs one DEBUG event per solved problem to the `tempsched`
logger: the status, the tableau's rows and columns, the pivots and how
many of them Bland's rule picked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .core import InputError, debug
from .lp import LpProblem, LpSolution, PivotLimitError

_MAX_PIVOTS = 1_000_000
# Degenerate pivots in a row after which Bland's rule takes over pricing.
_DEGENERATE_RUN = 50


def _eliminate(row, prow, col):
    """Clear `row[col]` with a multiple of `prow`, whose `prow[col]` is positive.

    Returns `p/g * row - f/g * prow` (p = prow[col], f = row[col],
    g = gcd(p, f)) divided by the gcd of its entries: the same equation as
    the rational update `row - (f/p) * prow`, up to a positive factor.
    """
    p = prow[col]
    f = row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, pv in prow.items():
        v = new.get(j, 0) - b * pv
        if v:
            new[j] = v
        else:
            del new[j]
    g = gcd(*new.values())
    if g > 1:
        new = {j: v // g for j, v in new.items()}
    return new


def _pivot(rows, basis, r, col):
    """Make `col` basic in row r and return the pivot row. The ratio test
    admits only rows with a positive entry in `col`, so the pivot entry
    `prow[col]` is positive, as `_eliminate` needs."""
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and col in row:
            rows[i] = _eliminate(row, prow, col)
    basis[r] = col
    return prow


def _ratio(a, b):
    """`a / b` as a float for nonzero int b; `inf` where that overflows."""
    try:
        return a / b
    except OverflowError:
        return inf


def _entering(cost, marker0, weights, bland):
    """The entering column, or None when no reduced cost is negative.

    Candidates are the columns before the markers (index `marker0` on) with
    a negative integer reduced cost. Bland's rule takes the lowest index;
    Devex takes the largest `d_j**2 / w_j`, ties broken by the lowest
    index. Each `d_j` is divided by the largest candidate magnitude first,
    so no conversion overflows and the positive row factor cancels. The
    score only ranks: a candidate whose score underflows to 0 can still
    enter.
    """
    neg = [(j, v) for j, v in cost.items() if v < 0 and j < marker0]
    if not neg:
        return None
    if bland:
        return min(neg)[0]
    big = -min(v for _, v in neg)
    return max(neg, key=lambda c: ((c[1] / big) ** 2 / weights.get(c[0], 1.0), -c[0]))[0]


def _update_weights(weights, prow, enter, leave_col, rhs_col):
    """Devex reference weights after pivoting `enter` in for `leave_col`.

    With `a_j` the pivot row's entries, each nonbasic column j gets
    `max(w_j, (a_j/a_q)**2 * w_q)`, and the leaving column, whose entry in
    the new pivot row is `a_leave/a_q`, gets `max((a_leave/a_q)**2 * w_q, 1)`.
    The ratios are within one row, so the row factor cancels; a ratio
    beyond float range reads as `inf`, which only ranks its column last.
    """
    aq = prow[enter]
    wq = weights.get(enter, 1.0)
    for j, a in prow.items():
        if j in (enter, leave_col, rhs_col):
            continue
        r = _ratio(a, aq)
        w = r * r * wq
        if w > weights.get(j, 1.0):
            weights[j] = w
    r = _ratio(prow[leave_col], aq)
    weights[leave_col] = max(1.0, r * r * wq)


def _run_simplex(rows, cost, basis, rhs_col, marker0, counts):
    """Minimize until no negative reduced cost remains.

    Devex pricing picks the entering column from float weights; after
    `_DEGENERATE_RUN` pivots in a row that leave the objective unchanged,
    Bland's rule picks it until a pivot strictly improves the objective,
    so the method cannot cycle. The optimality, unboundedness and ratio
    tests read only signs and within-row ratios of the integers, which the
    positive row scales leave unchanged; the ratio test breaks ties by the
    lowest basic index. `counts` gains the pivots made and, of those, the
    ones Bland's rule picked. Returns the status and the final
    reduced-cost row.
    """
    weights = {}
    stall = 0
    for _ in range(_MAX_PIVOTS):
        bland = stall >= _DEGENERATE_RUN
        enter = _entering(cost, marker0, weights, bland)
        if enter is None:
            return "optimal", cost
        leave = None
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                b = row.get(rhs_col, 0)
                if leave is not None:
                    # ratio b / a against best_b / best_a; both a > 0
                    here, best = b * best_a, best_b * a
                    if here > best or (here == best and basis[i] > basis[leave]):
                        continue
                best_b, best_a = b, a
                leave = i
        if leave is None:
            return "unbounded", cost
        stall = stall + 1 if best_b == 0 else 0
        counts[0] += 1
        counts[1] += bland
        leave_col = basis[leave]
        prow = _pivot(rows, basis, leave, enter)
        cost = _eliminate(cost, prow, enter)
        _update_weights(weights, prow, enter, leave_col, rhs_col)
    raise PivotLimitError(
        f"simplex stopped after {_MAX_PIVOTS} pivots; the degenerate-run "
        "fallback to Bland's rule should make this impossible"
    )


def _start(rows, basis, pivots, marker0, rhs_col):
    """Pivot each (row, column) of `pivots` into the tableau in turn.

    A row is negated first where its pivot entry is negative, since
    `_eliminate` needs a positive one. Raises `InputError` where the basis
    has a zero pivot entry, leaves an `==` row its marker or has a negative
    right-hand side; every test is exact.
    """
    for r, col in pivots:
        a = rows[r].get(col, 0)
        if not a:
            raise InputError(f"start basis refused: row {r} has a zero pivot entry in column {col}")
        if a < 0:
            rows[r] = {j: -v for j, v in rows[r].items()}
        _pivot(rows, basis, r, col)
    for r, b in enumerate(basis):
        if b >= marker0:
            raise InputError(f"start basis refused: equality row {r} names no column")
    for r, row in enumerate(rows):
        if row.get(rhs_col, 0) < 0:
            raise InputError(f"start basis refused: it is infeasible in row {r}")


def _scaled_ints(values):
    """Nonzero integers proportional (by a positive factor) to the given rationals."""
    scale = lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (scale // v.denominator) for j, v in values.items() if v}


def _reduced_costs(objective, rows, basis):
    """The objective row with every basic column eliminated, up to positive scale."""
    cost = _scaled_ints(objective)
    for row, b in zip(rows, basis):
        if b in cost:
            cost = _eliminate(cost, row, b)
    return cost


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve min c.x s.t. the problem's constraints and x >= 0, exactly,
    from the start basis the problem names.

    Returns an optimal vertex, one value per column, with optimal duals,
    one per constraint, or a solution object whose status reports
    unboundedness. Raises `InputError` where the start basis is refused.
    """
    nstruct = len(problem.objective)
    constraints = problem.constraints

    # Column layout: structural vars, a slack per `<=` row, then a marker per
    # `==` row; the RHS sits in column `rhs_col`, after all of them.
    marker0 = nstruct + sum(con.relation == "<=" for con in constraints)
    rhs_col = nstruct + len(constraints)
    # No row holds this column, so a cost row's entry there is its scale.
    scale_col = rhs_col + 1

    slacks, markers = iter(range(nstruct, marker0)), iter(range(marker0, rhs_col))
    units = [next(slacks if con.relation == "<=" else markers) for con in constraints]
    rows = [
        _scaled_ints(dict(con.coeffs) | {unit: 1, rhs_col: con.rhs})
        for con, unit in zip(constraints, units)
    ]
    basis = list(units)
    _start(rows, basis, problem.start, marker0, rhs_col)

    counts = [0, 0]
    cost = _reduced_costs(dict(enumerate(problem.objective)) | {scale_col: 1}, rows, basis)
    status, cost = _run_simplex(rows, cost, basis, rhs_col, marker0, counts)
    debug("solve_lp %s: %d rows, %d columns, pivots %d, Bland %d",
          status, len(constraints), rhs_col, *counts)
    if status != "optimal":
        return LpSolution(status, None, ())

    x = [Fraction(0)] * nstruct
    for row, b in zip(rows, basis):
        if b < nstruct:
            x[b] = Fraction(row.get(rhs_col, 0), row[b])
    scale = cost[scale_col]
    y = tuple(Fraction(-cost.get(u, 0), scale) for u in units)
    return LpSolution("optimal", problem.objective_value(x), tuple(x), y)
