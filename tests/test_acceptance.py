"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear;
the heavy randomized suites are seeded and deterministic.
"""

import json
import random
import time
from fractions import Fraction

from tempsched import (
    Instance,
    Job,
    NaturalSchedule,
    NormalSchedule,
    build_order_lp,
    check_feasibility,
    discretize_auto,
    dump_instance,
    dump_schedule,
    extract_schedule,
    gamma_scale,
    min_makespan_over_orders,
    min_makespan_single,
    parse_instance,
    parse_schedule,
    solve_lp,
    solve_makespan,
    solve_sum,
    solve_sum_bruteforce,
    time_slice,
)
from tempsched.cli import main as cli_main

from .helpers import lemma_assignment, random_instance, sequential_full_speed

F = Fraction


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _twin() -> Instance:
    return Instance((Job("j1", 2, F(-1, 3), 1), Job("j2", 2, F(-1, 3), 1)), 1)


def test_criterion_1_golden_sum():
    start = time.perf_counter()
    sched, value = solve_sum(_twin())
    elapsed = time.perf_counter() - start
    ok = value == 10 and sched.completions == (F(5), F(5)) and elapsed < 1.0
    _verdict(1, f"sum optimum 10 with C=(5,5) in {elapsed:.3f}s", ok)


def test_criterion_2_golden_simulation():
    inst = _twin()
    both = NaturalSchedule(
        {"j1": [(0, 1), (4, 5)], "j2": [(1, 2), (5, 6)]}
    )
    report = check_feasibility(inst, both)
    solo = Instance((inst.jobs[0],), 1)
    solo_report = check_feasibility(
        solo, NaturalSchedule({"j1": [(0, 1), (4, 5)]})
    )
    ok = (
        report.feasible
        and report.objective_sum == 11
        and report.makespan == 6
        and solo_report.completions == {"j1": F(5)}
    )
    _verdict(2, "alternating schedule gives sum 11, makespan 6; solo job completes at 5", ok)


def test_criterion_3_golden_makespan():
    inst = _twin()
    value, sched = solve_makespan(inst)
    q = min_makespan_single(inst.jobs[0])
    report = check_feasibility(inst, sched)
    from tempsched import loads_from_normal, simulate

    (segment,) = loads_from_normal(sched)
    traj = simulate(inst, sched)
    ok = (
        value == 5 == max(q, F(4))
        and q == 5
        and segment[2] == (F(2, 5), F(2, 5))
        and report.feasible
        and traj.temperatures[0][-1] == 1
        and traj.temperatures[1][-1] == 1
    )
    _verdict(3, "makespan 5 = max(q=5, sum p/m=4); rate-2/5 schedule ends at T=1", ok)


def test_criterion_4_spt_oracle_suite():
    rng = random.Random(20240)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.choice((1, 2))
        inst = random_instance(rng, n, m, common_rates=True)
        _, spt_value = solve_sum(inst)
        _, brute_value, _ = solve_sum_bruteforce(inst)
        assert spt_value == brute_value, (
            f"SPT value {spt_value} != brute-force value {brute_value} on {inst}"
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 300.0
    _verdict(4, f"200 SPT-vs-brute-force equalities (n 2..5, m 1..2) in {elapsed:.1f}s", ok)


def test_criterion_5_lemma_round_trip():
    rng = random.Random(515)
    feasible_checked = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        m = rng.choice((1, 2))
        inst = random_instance(rng, n, m, common_rates=rng.random() < 0.5)
        order = tuple(rng.sample(range(n), n))
        problem = build_order_lp(inst, order, "sum")
        solution = solve_lp(problem)
        assert solution.status == "optimal"
        sched = extract_schedule(inst, order, solution)
        report = check_feasibility(inst, sched)
        assert report.feasible, f"extracted schedule infeasible on {inst}"
        assignment = lemma_assignment(inst, sched)
        violated = problem.violated_constraints(assignment)
        assert violated == [], f"constraints {violated} rejected a feasible schedule"
        feasible_checked += 1

    broken_checked = 0
    while broken_checked < 50:
        n = rng.randint(2, 4)
        inst = random_instance(rng, n, 1, common_rates=rng.random() < 0.5)
        order = tuple(rng.sample(range(n), n))
        if broken_checked % 2 == 0:
            if all(j.beta * j.p <= 1 for j in inst.jobs):
                continue  # nothing would overheat at full speed
            bad = sequential_full_speed(inst, order)
        else:
            solution = solve_lp(build_order_lp(inst, order, "sum"))
            sched = extract_schedule(inst, order, solution)
            bad = None
            shrink = F(1, 2)
            for _ in range(20):
                candidate = NormalSchedule(
                    sched.order,
                    tuple(c * shrink for c in sched.completions),
                    sched.work,
                )
                if not check_feasibility(inst, candidate).feasible:
                    bad = candidate
                    break
                shrink /= 2
            assert bad is not None, "compression never broke feasibility"
        report = check_feasibility(inst, bad)
        assert not report.feasible
        problem = build_order_lp(inst, bad.order, "sum")
        violated = problem.violated_constraints(lemma_assignment(inst, bad))
        assert violated, "simulator saw a violation but the constraint set did not"
        broken_checked += 1

    ok = feasible_checked == 200 and broken_checked == 50
    _verdict(5, "200 feasible + 50 broken schedules agree with the constraint system", ok)


def test_criterion_6_makespan_closed_form_vs_lp():
    rng = random.Random(66)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 5)
        inst = random_instance(rng, n, 1, common_rates=rng.random() < 0.3)
        closed, _ = solve_makespan(inst)
        lp_value, _ = min_makespan_over_orders(inst)
        assert closed == lp_value, (
            f"closed form {closed} != order-LP minimum {lp_value} on {inst}"
        )
    elapsed = time.perf_counter() - start
    _verdict(6, f"100 closed-form = order-LP-min equalities in {elapsed:.1f}s", True)


def test_criterion_7_discretization_convergence():
    inst = _twin()
    optimum = NormalSchedule((0, 1), (F(5), F(5)), ((F(2), F(2)), (F(2), F(2))))
    gamma = F(101, 100)
    natural, k_used, _ = discretize_auto(inst, optimum, gamma)
    report = check_feasibility(inst, natural)
    horizon = gamma * 5
    bound_ok = report.feasible and all(
        c <= horizon + horizon / k_used for c in report.completions.values()
    )

    scaled = gamma_scale(optimum, gamma)
    deviations_ok = True
    for k in (1, 2, 4, 8, 16):
        sliced = time_slice(inst, scaled, k)
        sliced_report = check_feasibility(inst, sliced)
        assert not sliced_report.missing
        worst = max(
            abs(sliced_report.completions[inst.jobs[j].id] - scaled.completions[pos])
            for pos, j in enumerate(scaled.order)
        )
        if worst > horizon / k:
            deviations_ok = False
    ok = bound_ok and deviations_ok
    _verdict(
        7,
        f"auto-discretized at k={k_used}, feasible, completions within gamma*5/k bounds",
        ok,
    )


def test_criterion_8_many_machines_decouple():
    rng = random.Random(88)
    for _ in range(50):
        n = rng.randint(1, 4)
        inst = random_instance(rng, n, machines=n + rng.randint(0, 2))
        _, sum_value = solve_sum(inst)
        mk_value, _ = solve_makespan(inst)
        qs = [min_makespan_single(j) for j in inst.jobs]
        assert sum_value == sum(qs, F(0)), f"sum {sum_value} != sum of q {qs}"
        assert mk_value == max(qs)
    _verdict(8, "50 instances with m >= n match per-job optima exactly", True)


def test_criterion_9_cli_contract(tmp_path, capsys):
    twin = {
        "machines": 1,
        "alpha": "-1/3",
        "beta": "1",
        "jobs": [{"id": "j1", "p": "2"}, {"id": "j2", "p": "2"}],
    }
    instance_path = tmp_path / "twin.json"
    instance_path.write_text(json.dumps(twin))

    # round trips stay bit-faithful, including ugly rationals
    rng = random.Random(99)
    round_trips = True
    for i in range(20):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2))
        inst = Instance(
            tuple(
                Job(j.id, j.p + F(355, 113), j.alpha, j.beta + F(1, 999999937))
                for j in inst.jobs
            ),
            inst.machines,
        )
        if parse_instance(json.loads(json.dumps(dump_instance(inst)))) != inst:
            round_trips = False
        order = tuple(rng.sample(range(inst.n), inst.n))
        solution = solve_lp(build_order_lp(inst, order, "sum"))
        sched = extract_schedule(inst, order, solution)
        encoded = json.loads(json.dumps(dump_schedule(sched, inst)))
        if parse_schedule(encoded, inst) != sched:
            round_trips = False

    feasible_sched = tmp_path / "ok.json"
    feasible_sched.write_text(json.dumps({
        "kind": "natural",
        "intervals": {"j1": [["0", "1"], ["4", "5"]], "j2": [["1", "2"], ["5", "6"]]},
    }))
    overheating = tmp_path / "hot.json"
    overheating.write_text(json.dumps({
        "kind": "natural", "intervals": {"j1": [["0", "2"]]},
    }))
    malformed = tmp_path / "broken.json"
    malformed.write_text("{this is not json")
    bad_shape = tmp_path / "shape.json"
    bad_shape.write_text(json.dumps({"kind": "normal", "order": ["j1"]}))

    codes = [
        cli_main(["solve-sum", str(instance_path)]) == 0,
        cli_main(["solve-makespan", str(instance_path)]) == 0,
        cli_main(["verify", str(instance_path), str(feasible_sched)]) == 0,
        cli_main(["verify", str(instance_path), str(overheating)]) == 1,
        cli_main(["verify", str(instance_path), str(malformed)]) == 2,
        cli_main(["verify", str(instance_path), str(bad_shape)]) == 2,
        cli_main(["solve-sum", str(tmp_path / "missing.json")]) == 2,
        cli_main(["solve-sum", str(instance_path), "--order", "zz"]) == 2,
    ]
    capsys.readouterr()  # swallow the CLI chatter before the verdict line
    ok = round_trips and all(codes)
    _verdict(9, "serialization is bit-faithful and exit codes follow 0/1/2", ok)
