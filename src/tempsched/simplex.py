"""Exact LP solving: two-phase simplex on a fraction-free integer tableau.

Bland's rule picks the entering and leaving variables, so the method
terminates on every input with no further anti-cycling machinery.

Pivoting is fraction-free (after Edmonds 1967 and Bareiss 1968): each
tableau row is a sparse map from column to nonzero Python `int`, holding
the rational row times a positive factor. That factor is the row's
denominator, and it is the row's own entry in its basic column. A pivot
clears a column from row i as `row * (p/g) - (f/g) * pivot_row`, with
`g = gcd(p, f)`, then divides the row by the gcd of its entries. The
reduced-cost row is kept the same way, up to a positive factor. Bland's
rule reads only signs, within-row ratios (compared by cross-multiplying)
and basis indices, all unchanged by positive row factors, so the pivots,
the vertex and the value are those of the rational tableau. Values
become `Fraction`s only when the optimal vertex is read off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .lp import LpProblem, LpSolution, PivotLimitError

_MAX_PIVOTS = 1_000_000


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
    """Make `col` basic in row r; returns the (sign-normalized) pivot row."""
    prow = rows[r]
    if prow[col] < 0:
        rows[r] = prow = {j: -v for j, v in prow.items()}
    for i, row in enumerate(rows):
        if i != r and col in row:
            rows[i] = _eliminate(row, prow, col)
    basis[r] = col
    return prow


def _run_simplex(rows, cost, basis, rhs_col, banned):
    """Minimize until no negative reduced cost remains (Bland's rule).

    Only signs and within-row ratios are read, and both are invariant
    under the positive row scales the integer tableau carries. Returns
    the status and the final reduced-cost row.
    """
    for _ in range(_MAX_PIVOTS):
        enter = min(
            (j for j, v in cost.items() if v < 0 and j != rhs_col and j not in banned),
            default=None,
        )
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
        prow = _pivot(rows, basis, leave, enter)
        cost = _eliminate(cost, prow, enter)
    raise PivotLimitError(
        f"simplex stopped after {_MAX_PIVOTS} pivots; this is a bug (Bland's rule cannot cycle)"
    )


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
    """Solve min c.x s.t. the problem's constraints and x >= 0, exactly.

    Returns an optimal vertex, one value per column, or a solution object
    whose status reports infeasibility/unboundedness.
    """
    nstruct = len(problem.variables)

    # Column layout: structural vars, one slack/surplus per inequality,
    # then artificials; the RHS sits in column `rhs_col`, after all of them.
    specs = []
    for con in problem.constraints:
        coeffs = {v: c for v, c in con.coeffs if c != 0}
        rel, rhs = con.relation, con.rhs
        if coeffs:
            # Phase 1 weighs each artificial by its row's scale, so the
            # scale fixes the pivots: divide by the lowest-index magnitude.
            scale = abs(coeffs[min(coeffs)])
            coeffs = {v: c / scale for v, c in coeffs.items()}
            rhs = rhs / scale
        if rhs < 0:
            rhs = -rhs
            coeffs = {v: -c for v, c in coeffs.items()}
            rel = ">=" if rel == "<=" else "=="
        specs.append((coeffs, rel, rhs))
    nslack = sum(1 for _, rel, _ in specs if rel in ("<=", ">="))
    art_base = nstruct + nslack
    narts = sum(1 for _, rel, _ in specs if rel != "<=")
    rhs_col = nstruct + nslack + narts

    rows = []
    basis = []
    slack_idx = nstruct
    art_idx = art_base
    art_cols = []
    for coeffs, rel, rhs in specs:
        row = {**coeffs, rhs_col: rhs}
        if rel == "<=":
            row[slack_idx] = 1
            basis.append(slack_idx)
            slack_idx += 1
        elif rel == ">=":
            row[slack_idx] = -1
            slack_idx += 1
            row[art_idx] = 1
            basis.append(art_idx)
            art_cols.append(art_idx)
            art_idx += 1
        else:
            row[art_idx] = 1
            basis.append(art_idx)
            art_cols.append(art_idx)
            art_idx += 1
        rows.append(_scaled_ints(row))

    banned: set[int] = set()
    if art_cols:
        cost = _reduced_costs({a: 1 for a in art_cols}, rows, basis)
        status, cost = _run_simplex(rows, cost, basis, rhs_col, banned)
        if status != "optimal" or cost.get(rhs_col, 0) < 0:
            return LpSolution("infeasible", None, ())
        banned = set(art_cols)
        # Drive artificials still basic (at zero) out, or drop their rows.
        keep = []
        for i in range(len(rows)):
            if basis[i] in banned:
                pivot_col = min((j for j in rows[i] if j < art_base), default=None)
                if pivot_col is None:
                    continue  # redundant row
                _pivot(rows, basis, i, pivot_col)
            keep.append(i)
        if len(keep) != len(rows):
            rows = [rows[i] for i in keep]
            basis = [basis[i] for i in keep]

    cost = _reduced_costs(dict(enumerate(problem.objective)), rows, basis)
    status, _ = _run_simplex(rows, cost, basis, rhs_col, banned)
    if status == "unbounded":
        return LpSolution("unbounded", None, ())

    x = [Fraction(0)] * nstruct
    for row, b in zip(rows, basis):
        if b < nstruct:
            x[b] = Fraction(row.get(rhs_col, 0), row[b])
    return LpSolution("optimal", problem.objective_value(x), tuple(x))
