"""What one operation of each workload does, and how its output is checked.

An operation takes one instance file through the workload's pipeline. The
program is reached through module attributes at call time (`ts.solve_sum`,
not a name imported here), so the traced run's wrappers see every call.
An operation in `OPS` returns (summary, result): the summary is a string
that must be the same in every round, and the result is what its entry in
`CHECKS` judges after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction as F

import checks
from inputs import GAMMAS


def _normal(schedule):
    return schedule.order, schedule.completions, schedule.work


def _spt_sum(ts, path, work_dir, name):
    schedule, value = ts.solve_sum(ts.load_instance(path))
    return str(value), {"sum": (_normal(schedule), value)}


def _brute_oracle(ts, path, work_dir, name):
    instance = ts.load_instance(path)
    schedule, value, order = ts.solve_sum_bruteforce(instance)
    makespan, _ = ts.min_makespan_over_orders(instance)
    result = {"brute": (_normal(schedule), value, order), "makespan": makespan}
    spt_value = None
    if instance.has_common_rates():
        spt_schedule, spt_value = ts.solve_sum(instance)
        result["sum"] = (_normal(spt_schedule), spt_value)
    return f"{value} {makespan} {spt_value}", result


def _cli(ts, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ts.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tempsched {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _gamma_tag(gamma: F) -> str:
    return f"g{gamma.numerator}_{gamma.denominator}"


def _discretize_cli(ts, path, work_dir, name):
    normal = work_dir / f"{name}.normal.json"
    texts = [_cli(ts, ["solve-sum", str(path), "--out", str(normal)])]
    for gamma in GAMMAS:
        natural = work_dir / f"{name}.{_gamma_tag(gamma)}.json"
        csv_path = work_dir / f"{name}.{_gamma_tag(gamma)}.csv"
        texts.append(_cli(ts, ["discretize", str(path), str(normal), "--gamma", str(gamma),
                               "--auto", "--out", str(natural)]))
        texts.append(_cli(ts, ["verify", str(path), str(natural), "--csv", str(csv_path)]))
    return "\n".join(texts), {"texts": texts}


OPS = {"spt-sum": _spt_sum, "brute-oracle": _brute_oracle, "discretize-cli": _discretize_cli}


# -- checks -----------------------------------------------------------------


def _check_sum(label, jobs, machines, normal, value, lp_order=None):
    """A sum-objective schedule: exact simulation, lower bounds, and the
    value against HiGHS on the order LP of `lp_order` (default: its own)."""
    order, completions, work = normal
    problems, done = checks.check_normal(jobs, machines, order, completions, work, value)
    if not problems:
        problems += checks.check_lower_bounds(jobs, done)
    reference = checks.order_lp_value(jobs, machines, lp_order or order)
    problems += checks.check_close(f"{label} value", value, reference)
    return [f"{label}: {p}" for p in problems]


def _spt(jobs):
    return tuple(sorted(range(len(jobs)), key=lambda j: (jobs[j][1], j)))


def _check_spt_sum(instance, result, work_dir):
    normal, value = result["sum"]
    return _check_sum("solve_sum", instance["jobs"], instance["machines"], normal, value,
                      _spt(instance["jobs"]))


def _check_brute_oracle(instance, result, work_dir):
    jobs, m = instance["jobs"], instance["machines"]
    normal, value, order = result["brute"]
    problems = _check_sum("bruteforce", jobs, m, normal, value)
    if tuple(order) != tuple(normal[0]):
        problems.append(f"bruteforce: order {order} differs from its schedule's")
    expected = checks.closed_form_makespan(jobs, m)
    if result["makespan"] != expected:
        problems.append(f"makespan over orders {result['makespan']} != closed form {expected}")
    if instance["common"]:
        spt_normal, spt_value = result["sum"]
        problems += _check_sum("solve_sum", jobs, m, spt_normal, spt_value, _spt(jobs))
        if spt_value != value:
            problems.append(f"SPT {spt_value} != brute force {value} on common rates")
    return problems


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_SUM_LINE = re.compile(r"^sum of completion times: (\S+)", re.M)
_K_LINE = re.compile(r"^k: (\d+)$", re.M)


def _check_discretize_cli(instance, result, work_dir):
    jobs, m, name = instance["jobs"], instance["machines"], instance["name"]
    ids = [j for j, _, _, _ in jobs]
    texts = result["texts"]
    data = _read_json(work_dir / f"{name}.normal.json")
    order = tuple(ids.index(j) for j in data["order"])
    completions = [F(c) for c in data["C"]]
    work = [[F(0)] * len(jobs) for _ in jobs]
    for i, row in enumerate(data["W"]):
        for col, w in enumerate(row):
            work[i][order[col]] = F(w)
    value = F(_SUM_LINE.search(texts[0]).group(1))
    problems = _check_sum("solve-sum", jobs, m, (order, completions, work), value, _spt(jobs))
    c_max = max(completions)
    for g, gamma in enumerate(GAMMAS):
        label = f"discretize --gamma {gamma}"
        k = int(_K_LINE.search(texts[1 + 2 * g]).group(1))
        if k < 1 or k & (k - 1):
            problems.append(f"{label}: k = {k} is not a power of two")
        natural = _read_json(work_dir / f"{name}.{_gamma_tag(gamma)}.json")
        intervals = {j: [(F(a), F(b)) for a, b in spans]
                     for j, spans in natural["intervals"].items()}
        found, done = checks.check_natural(jobs, m, intervals)
        problems += [f"{label}: {p}" for p in found]
        if found:
            continue
        problems += [f"{label}: {p}" for p in checks.check_lower_bounds(jobs, done)]
        bound = gamma * c_max * (1 + F(1, k))
        problems += [f"{label}: {j} completes at {c} > {bound}"
                     for j, c in done.items() if c > bound]
        reported = F(_SUM_LINE.search(texts[2 + 2 * g]).group(1))
        if reported != sum(done.values(), F(0)):
            problems.append(f"{label}: verify reports {reported}, simulated "
                            f"{sum(done.values(), F(0))}")
    return problems


CHECKS = {
    "spt-sum": _check_spt_sum,
    "brute-oracle": _check_brute_oracle,
    "discretize-cli": _check_discretize_cli,
}
