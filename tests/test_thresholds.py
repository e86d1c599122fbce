"""A job with threshold t and rates t*alpha, t*beta is the job with
threshold 1 and rates alpha, beta. `Job` folds the threshold into the
rates when it is made, so a threshold-scaled twin equals its instance, and
every public entry must give exactly the same result on both."""

import random
from fractions import Fraction

from tempsched import (
    Instance,
    Job,
    build_order_lp,
    check_feasibility,
    discretize_auto,
    gamma_scale,
    min_makespan_over_orders,
    simulate,
    solve_makespan,
    solve_sum_bruteforce,
    time_slice,
)

from .helpers import random_instance, sequential_full_speed

F = Fraction

THRESHOLDS = (F(1), F(2), F(1, 3), F(7, 5))


def _scaled_twin(instance: Instance, rng: random.Random) -> tuple[Instance, int]:
    """The twin with each job's rates and threshold scaled by a drawn t, and
    how many of the drawn t differ from 1."""
    jobs, scaled = [], 0
    for job in instance.jobs:
        t = rng.choice(THRESHOLDS)
        scaled += t != 1
        jobs.append(Job(job.id, job.p, job.alpha * t, job.beta * t, threshold=t))
    return Instance(tuple(jobs), instance.machines), scaled


def test_scaled_twins_agree_at_every_entry():
    rng = random.Random(606)
    scaled_jobs = 0
    for _ in range(16):
        n = rng.randint(1, 3)
        m = rng.choice((1, 2))
        base = random_instance(rng, n, m, common_rates=rng.random() < 0.5)
        twin, scaled = _scaled_twin(base, rng)
        scaled_jobs += scaled
        assert twin == base
        order = tuple(rng.sample(range(n), n))
        for objective in ("sum", "makespan"):
            assert build_order_lp(twin, order, objective) == build_order_lp(base, order, objective)
        brute = solve_sum_bruteforce(base)
        assert solve_sum_bruteforce(twin) == brute
        assert min_makespan_over_orders(twin) == min_makespan_over_orders(base)
        makespan = solve_makespan(base)
        assert solve_makespan(twin) == makespan
        # the last one overheats whenever some job has beta * p > 1
        for schedule in (brute[0], makespan[1], sequential_full_speed(base, order)):
            assert simulate(twin, schedule) == simulate(base, schedule)
            assert check_feasibility(twin, schedule) == check_feasibility(base, schedule)
        if m == 1:
            stretched = gamma_scale(brute[0], 2)
            sliced = time_slice(base, stretched, 3)
            assert time_slice(twin, stretched, 3) == sliced
            assert check_feasibility(twin, sliced) == check_feasibility(base, sliced)
            gamma = F(11, 10)
            assert discretize_auto(twin, brute[0], gamma) == discretize_auto(base, brute[0], gamma)
    assert scaled_jobs >= 10
