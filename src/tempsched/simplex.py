"""Exact LP solving: two-phase simplex on a fraction-free integer tableau.

Devex pricing (Harris 1973; Forrest & Goldfarb 1992) picks the entering
column: among the columns with a negative reduced cost, the one with the
largest squared reduced cost over a float reference weight. The floats only
rank candidates that the integers have already admitted; optimality,
unboundedness and the ratio test are exact integer tests, so the value is
exact and independent of the pricing. After a run of degenerate pivots,
Bland's rule picks the entering column until the objective strictly
improves, so the method terminates on every input. At alternative optima
the returned vertex depends on the pricing.

Phase 1 minimizes the sum of the artificials; one that leaves the basis
never re-enters. Phase 2 starts from phase 1's basis with every column of
positive phase-1 reduced cost banned too (Chvátal 1983, ch. 8): those are 0
on every feasible point, and while they stay 0 so does every artificial
still basic, so phase 2 needs no row dropped and no pivot out.

A problem may name a start basis (`LpProblem.start`; every order LP names
one, see `lp.build_order_lp`). Its columns are pivoted in first, then each
`>=` row whose artificial is still basic takes its surplus instead. If that
basis has no artificial and no negative right-hand side, both exact tests,
it is primal feasible: phase 1 is skipped, and phase 2 starts there with
every artificial banned and nonbasic, so the duals are read as below. A
zero pivot entry, an artificial left basic (an equality row no named
column holds) or a negative value refuses the basis, and the solve then
starts from the slack basis as if none had been named.

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

The optimal duals are read off the final phase-2 reduced-cost row at each
row's slack or artificial column, undoing the row's sign flip; the cost row
carries its positive factor in a column no constraint row holds. Phase 2
bans columns that may keep a negative reduced cost; phase 1's duals, of
value 0 and positive on those columns, are then added in until none is
negative, so `y` is always dual feasible (`lp.dual_bound` checks it).

`solve_lp` logs one DEBUG event per call to the `tempsched` logger: the
tableau's rows and columns, whether a start basis was used, refused or
not named, the pivots of each phase and how many of them Bland's rule
picked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .core import debug
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


def _entering(cost, rhs_col, banned, weights, bland):
    """The entering column, or None when no reduced cost is negative.

    Candidates are the columns with a negative integer reduced cost. Bland's
    rule takes the lowest index; Devex takes the largest `d_j**2 / w_j`,
    ties broken by the lowest index. Each `d_j` is divided by the largest
    candidate magnitude first, so no conversion overflows and the positive
    row factor cancels. The score only ranks: a candidate whose score
    underflows to 0 can still enter.
    """
    neg = [(j, v) for j, v in cost.items() if v < 0 and j != rhs_col and j not in banned]
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


def _run_simplex(rows, cost, basis, rhs_col, banned, counts):
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
        enter = _entering(cost, rhs_col, banned, weights, bland)
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


def _start(rows, basis, pivots, art0, rhs_col):
    """The tableau and basis after pivoting each (row, column) of `pivots`
    in, or None where that basis is singular, keeps an artificial or is
    infeasible.

    A pair pivots only while its row still holds its first basic column, so
    a row's trailing (row, surplus) pair swaps out an artificial that no
    named column replaced. A row is negated first where its pivot entry is
    negative, since `_eliminate` needs a positive one; every test is exact.
    """
    rows, basis, first = list(rows), list(basis), list(basis)
    for r, col in pivots:
        if basis[r] != first[r]:
            continue
        a = rows[r].get(col, 0)
        if not a:
            return None
        if a < 0:
            rows[r] = {j: -v for j, v in rows[r].items()}
        _pivot(rows, basis, r, col)
    if any(b >= art0 for b in basis) or any(row.get(rhs_col, 0) < 0 for row in rows):
        return None
    return rows, basis


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


def _prices(cost, starts, art0, scale_col, art_cost):
    """The simplex multipliers of the rows as set up, read off a final cost row.

    Row i's first basic column is its slack or artificial, with coefficient
    1 in row i only before the row was scaled by a positive factor, so its
    reduced cost is its objective coefficient (`art_cost` for an
    artificial, 0 for a slack) minus row i's multiplier; the factor scales
    the column and the row alike and cancels.
    """
    scale = cost[scale_col]
    return [
        Fraction((art_cost if b >= art0 else 0) * scale - cost.get(b, 0), scale)
        for b in starts
    ]


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve min c.x s.t. the problem's constraints and x >= 0, exactly.

    Returns an optimal vertex, one value per column, with optimal duals,
    one per constraint, or a solution object whose status reports
    infeasibility/unboundedness.
    """
    nstruct = len(problem.objective)

    # Column layout: structural vars, one slack/surplus per inequality,
    # then artificials; the RHS sits in column `rhs_col`, after all of them.
    specs = []
    for con in problem.constraints:
        coeffs = {v: c for v, c in con.coeffs if c != 0}
        rel, rhs = con.relation, con.rhs
        if rhs < 0:
            rhs = -rhs
            coeffs = {v: -c for v, c in coeffs.items()}
            rel = ">=" if rel == "<=" else "=="
        specs.append((coeffs, rel, rhs))
    nslack = sum(1 for _, rel, _ in specs if rel in ("<=", ">="))
    narts = sum(1 for _, rel, _ in specs if rel != "<=")
    rhs_col = nstruct + nslack + narts
    # No row holds this column, so a cost row's entry there is its scale.
    scale_col = rhs_col + 1

    rows = []
    basis = []
    slack_idx = nstruct
    art0 = art_idx = nstruct + nslack
    art_cols = []
    surplus = []
    for coeffs, rel, rhs in specs:
        row = {**coeffs, rhs_col: rhs}
        if rel != "==":
            row[slack_idx] = 1 if rel == "<=" else -1
            slack_idx += 1
        if rel == "<=":
            basis.append(slack_idx - 1)
        else:
            if rel == ">=":
                surplus.append((len(rows), slack_idx - 1))
            row[art_idx] = 1
            basis.append(art_idx)
            art_cols.append(art_idx)
            art_idx += 1
        rows.append(_scaled_ints(row))
    starts = list(basis)

    started = problem.start and _start(rows, basis, problem.start + tuple(surplus), art0, rhs_col)
    if started:
        rows, basis = started
    # An artificial that leaves the basis never re-enters.
    banned = set(art_cols)
    phase1, phase2 = [0, 0], [0, 0]
    status = "optimal"
    cost1 = None
    if art_cols and not started:
        cost = _reduced_costs({a: 1 for a in art_cols} | {scale_col: 1}, rows, basis)
        status, cost1 = _run_simplex(rows, cost, basis, rhs_col, banned, phase1)
        if status != "optimal" or cost1.get(rhs_col, 0) < 0:
            status = "infeasible"
        else:
            # Keeps every artificial still basic at zero (see the module notes).
            banned.update(j for j, v in cost1.items() if v > 0 and j < rhs_col)

    if status == "optimal":
        cost = _reduced_costs(dict(enumerate(problem.objective)) | {scale_col: 1}, rows, basis)
        status, cost = _run_simplex(rows, cost, basis, rhs_col, banned, phase2)
    debug(
        "solve_lp %s: %d rows, %d columns, start basis %s, pivots phase 1 %d, phase 2 %d, Bland %d",
        status, len(specs), rhs_col, "used" if started else "refused" if problem.start else "none",
        phase1[0], phase2[0], phase1[1] + phase2[1],
    )
    if status != "optimal":
        return LpSolution(status, None, ())

    x = [Fraction(0)] * nstruct
    for row, b in zip(rows, basis):
        if b < nstruct:
            x[b] = Fraction(row.get(rhs_col, 0), row[b])
    y = _prices(cost, starts, art0, scale_col, 0)
    # A banned column may end phase 2 with a negative reduced cost. Phase 1's
    # prices have value 0 and a positive reduced cost on every banned column,
    # so adding enough of them makes every reduced cost nonnegative.
    short = [j for j in banned if j < art0 and cost.get(j, 0) < 0]
    if short:
        y1 = _prices(cost1, starts, art0, scale_col, 1)
        t = max(
            Fraction(-cost[j] * cost1[scale_col], cost[scale_col] * cost1[j]) for j in short
        )
        y = [a + t * b for a, b in zip(y, y1)]
    signs = [-1 if con.rhs < 0 else 1 for con in problem.constraints]
    y = tuple(v * s for v, s in zip(y, signs))
    return LpSolution("optimal", problem.objective_value(x), tuple(x), y)
