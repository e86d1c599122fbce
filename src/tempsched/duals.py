"""Order-free reading of order-LP duals, for the brute-force search.

The row layout it reads is `lp`'s `_row_*` helpers, which `build_order_lp`
also emits by. The module is kept apart from `lp`, and the brute-force
search imports it on first use, so that the program's other paths do not
load it, nor compile it where no bytecode is cached.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import Instance
from .lp import (
    Objective,
    _check_dual,
    _check_order,
    _lp_shape,
    _row_cap,
    _row_done,
    _row_manage,
    _row_rate,
    _row_step,
    constraint_count,
)


class OrderDual:
    """A dual `y` of an order LP of `instance`, read for every order at once.

    Across orders, an order LP moves only with the job at each position:
    its rates set the `D_i` and `w_i_j` coefficients of temp_step_i_j, and
    its p sets the right-hand side of done_j and, through the constant
    w_1_1, of manage_1, rate_1_1 and temp_step_1_1. What does not move is
    read once, here: the sign of `y` on the `<=` rows, the `T` columns, each
    `D_i` column's room before its alpha terms, and the jobs whose `w`
    columns stay dual feasible at each position. `bound(order)` is then
    `dual_bound(build_order_lp(instance, order, objective), y)`, in
    O(n + nnz(y)) exact arithmetic, without building that LP.
    """

    def __init__(self, instance: Instance, objective: Objective, y: Sequence[Fraction]):
        _check_dual(y)
        n, m = _lp_shape(instance, objective)
        self._n = n
        tri = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        self._usable = (
            len(y) == constraint_count(n, m)
            and all(v <= 0 for v in y[_row_manage(n, 1):])
            and all(  # T_i_j: in temp_step_i_j at -1, temp_step_(i+1)_j and temp_cap_i_j at +1
                y[_row_step(n, m, i, j)] - y[_row_cap(n, m, i, j)]
                >= (y[_row_step(n, m, i + 1, j)] if i < j else 0)
                for i, j in tri
            )
        )
        if not self._usable:
            return
        p = [job.p for job in instance.jobs]
        gap = [job.beta - job.alpha for job in instance.jobs]

        def rate(i: int, j: int) -> Fraction:
            return y[_row_rate(n, i, j)] if m > 1 else 0

        # D_i: its cost, m y_manage_i and the rate duals must cover the
        # alpha y_step_i_j of the jobs in interval i.
        self._room = [
            (n - i + 1 if objective == "sum" else 1) + m * y[_row_manage(n, i)]
            + sum(rate(i, j) for j in range(i, n + 1))
            for i in range(1, n + 1)
        ]
        self._steps = [
            [(j - 1, [job.alpha * y[_row_step(n, m, i, j)] for job in instance.jobs])
             for j in range(i, n + 1) if y[_row_step(n, m, i, j)]]
            for i in range(1, n + 1)
        ]
        # w_i_j, j >= 2: which jobs may complete j-th; w_1_1 is no column.
        self._fits = [[True] * n]
        for j in range(2, n + 1):
            terms = [(y[_row_done(j)] + y[_row_manage(n, i)] + rate(i, j), y[_row_step(n, m, i, j)])
                     for i in range(1, j + 1)]
            fits = {g: all(s + g * t <= 0 for s, t in terms) for g in set(gap)}
            self._fits.append([fits[g] for g in gap])
        # y . b: the caps, the done rows and the rows holding w_1_1.
        caps = sum((y[_row_cap(n, m, i, j)] for i, j in tri), Fraction(0))
        head, step = y[_row_manage(n, 1)] + rate(1, 1), y[_row_step(n, m, 1, 1)]
        self._first = [caps - pk * (head + g * step) for pk, g in zip(p, gap)]
        self._done = [(j - 1, [y[_row_done(j)] * pk for pk in p])
                      for j in range(2, n + 1) if y[_row_done(j)]]

    def bound(self, order: Sequence[int]) -> Fraction | None:
        """`y . b` of `order`'s LP if `y` is dual feasible for it; else None."""
        _check_order(self._n, order)
        if not self._usable or not all(fits[k] for fits, k in zip(self._fits, order)):
            return None
        for room, steps in zip(self._room, self._steps):
            if room < sum(terms[order[pos]] for pos, terms in steps):
                return None
        return self._first[order[0]] + sum(terms[order[pos]] for pos, terms in self._done)
