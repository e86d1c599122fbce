import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempsched import (
    InconsistentScheduleError,
    InputError,
    Instance,
    Job,
    NaturalSchedule,
    NormalSchedule,
    as_rational,
    check_feasibility,
    loads_from_normal,
)

from .helpers import reference_merge

F = Fraction


class TestRationals:
    def test_parse_forms(self):
        assert as_rational(3) == 3
        assert as_rational("2/5") == F(2, 5)
        assert as_rational("0.25") == F(1, 4)
        assert as_rational("-1/3") == F(-1, 3)
        assert as_rational(F(7, 2)) == F(7, 2)

    def test_huge_decimal_exponents_rejected(self):
        for text in ("1e10000000", "1e-10000000", "1E+4301"):
            with pytest.raises(InputError, match="exponent"):
                as_rational(text)
        assert as_rational("1e4300") == 10**4300
        assert as_rational(" 2.5E-4300 ") == F(25, 10**4301)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(InputError):
            as_rational(0.1)
        with pytest.raises(InputError):
            as_rational("1/0")
        with pytest.raises(InputError):
            as_rational("pi")
        with pytest.raises(InputError):
            as_rational(True)


class TestJobAndInstance:
    def test_validation(self):
        with pytest.raises(InputError):
            Job("a", 0, F(-1), 1)
        with pytest.raises(InputError):
            Job("a", 1, F(1), 1)
        with pytest.raises(InputError):
            Job("a", 1, F(-1), 0)
        with pytest.raises(InputError):
            Job("a", 1, F(-1), 1, threshold=0)
        with pytest.raises(InputError):
            Job("", 1, F(-1), 1)

    def test_instance_validation(self):
        job = Job("a", 1, F(-1), 1)
        with pytest.raises(InputError):
            Instance((job, job))
        with pytest.raises(InputError):
            Instance((job,), machines=0)

    def test_bool_machines_rejected(self):
        # bool is an int subclass; True would pass as one machine and then
        # save as "machines": true, which load_instance rejects
        job = Job("a", 1, F(-1), 1)
        for flag in (True, False):
            with pytest.raises(InputError):
                Instance((job,), machines=flag)

    def test_common_rates(self):
        a = Job("a", 1, F(-1), 1)
        b = Job("b", 2, F(-1), 1)
        c = Job("c", 2, F(-1), 2)
        assert Instance((a, b)).has_common_rates()
        assert not Instance((a, c)).has_common_rates()

    def test_common_rates_of_threshold_twins(self):
        a = Job("a", 1, F(-1), 1)
        b = Job("b", 2, F(-2), 2, threshold=2)
        c = Job("c", 2, F(-1, 3), F(1, 3), threshold=F(1, 3))
        d = Job("d", 2, F(-1), 1, threshold=2)
        assert Instance((a, b, c)).has_common_rates()
        assert not Instance((a, d)).has_common_rates()


class TestNormalize:
    """`Job` folds a threshold t into its rates: alpha/t and beta/t, with
    no threshold kept."""

    def test_scales_rates_by_threshold(self):
        job = Job("a", 2, F(-2, 3), 2, threshold=2)
        assert (job.p, job.alpha, job.beta) == (2, F(-1, 3), 1)
        assert [f.name for f in fields(job)] == ["id", "p", "alpha", "beta"]

    def test_identity_without_threshold(self):
        job = Job("a", 2, F(-1, 3), 1)
        assert (job.alpha, job.beta) == (F(-1, 3), 1)
        assert Job("a", 2, F(-1, 3), 1, threshold=1) == job
        assert Job("a", "2", "-1/3", "1", threshold="1") == job

    def test_second_example(self):
        job = Job("a", 1, F(-1), 3, threshold=3)
        assert (job.alpha, job.beta) == (F(-1, 3), 1)

    def test_idempotent(self):
        rng = random.Random(42)
        for _ in range(25):
            p = F(rng.randint(1, 9), rng.randint(1, 4))
            alpha = -F(rng.randint(1, 9), rng.randint(1, 4))
            beta = F(rng.randint(1, 9), rng.randint(1, 4))
            t = F(rng.randint(1, 5), rng.randint(1, 3))
            job = Job("j", p, alpha * t, beta * t, threshold=t)
            # threshold twins compare and hash equal
            assert job == Job("j", p, alpha, beta)
            assert hash(job) == hash(Job("j", p, alpha, beta))
            # replace rebuilds from the folded rates and does not fold again
            assert replace(job) == job
            assert replace(job, p=p + 1) == Job("j", p + 1, alpha, beta)
            assert replace(job, threshold=t) == Job("j", p, alpha / t, beta / t)


class TestLoadsFromNormal:
    def test_shared_interval(self):
        sched = NormalSchedule((0, 1), (F(5), F(5)), ((F(2), F(2)), (F(2), F(2))))
        assert loads_from_normal(sched) == [
            (F(0), F(5), (F(2, 5), F(2, 5))),
        ]

    def test_single_full_rate_job(self):
        sched = NormalSchedule((0,), (F(1),), ((F(1),),))
        assert loads_from_normal(sched) == [(F(0), F(1), (F(1),))]

    def test_two_intervals(self):
        sched = NormalSchedule(
            (0, 1), (F(2), F(4)), ((F(1), F(1)), (F(1), F(3)))
        )
        assert loads_from_normal(sched) == [
            (F(0), F(2), (F(1, 2), F(1, 2))),
            (F(2), F(4), (F(0), F(1))),
        ]

    def test_zero_length_interval_with_work_is_inconsistent(self):
        sched = NormalSchedule(
            (0, 1), (F(2), F(2)), ((F(1), F(0)), (F(1), F(1)))
        )
        with pytest.raises(InconsistentScheduleError):
            loads_from_normal(sched)

    def test_tied_completions_are_skipped(self):
        sched = NormalSchedule(
            (0, 1), (F(2), F(2)), ((F(1), F(1)), (F(1), F(1)))
        )
        assert loads_from_normal(sched) == [
            (F(0), F(2), (F(1, 2), F(1, 2))),
        ]


def _random_normal_schedule(rng: random.Random, n: int) -> tuple[Instance, NormalSchedule]:
    """Identity-order schedule with each job's work spread randomly over the
    intervals up to its completion; structurally valid by construction."""
    jobs = tuple(
        Job(f"j{i}", F(rng.randint(1, 8), rng.randint(1, 3)), F(-1, 2), F(1, 2))
        for i in range(n)
    )
    inst = Instance(jobs)
    steps = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
    completions = []
    t = F(0)
    for s in steps:
        t += s
        completions.append(t)
    work = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(j))
        shares = []
        prev = F(0)
        for c in cuts + [F(1)]:
            shares.append(c - prev)
            prev = c
        total = F(0)
        for i, share in enumerate(shares):
            total += jobs[j].p * share
            work[i][j] = total
        for i in range(j, n):
            work[i][j] = jobs[j].p
    sched = NormalSchedule(
        tuple(range(n)), tuple(completions), tuple(tuple(r) for r in work)
    )
    return inst, sched


class TestNormalScheduleInvariants:
    def test_structural_validation(self):
        with pytest.raises(InputError):
            NormalSchedule((0, 0), (F(1), F(2)), ((F(1), F(1)), (F(1), F(1))))
        with pytest.raises(InputError):
            NormalSchedule((0, 1), (F(2), F(1)), ((F(1), F(1)), (F(1), F(1))))
        with pytest.raises(InputError):
            NormalSchedule((0,), (F(-1),), ((F(1),),))
        with pytest.raises(InputError):  # work decreases
            NormalSchedule((0, 1), (F(1), F(2)), ((F(1), F(2)), (F(1), F(1))))

    @pytest.mark.parametrize("args", [
        ((0,), (0.1 + 0.2,), ((F(3, 10),),)),
        ((0,), (F(3, 10),), ((0.3,),)),
        ((0,), (F(1),), ((True,),)),
        ((0,), (F(1),), ((F(1),),), ((0.5,),)),
        ((0,), (F(1),), ((F(1),),), ((False,),)),
        ((0.0,), (F(1),), ((F(1),),)),
        (("a", 0), (F(1), F(1)), ((F(1), F(1)),) * 2),
    ], ids=["float-completion", "float-work", "bool-work", "float-witness", "bool-witness",
            "float-order", "str-order"])
    def test_inexact_numbers_rejected(self, args):
        # a float completion once loaded, and check_feasibility then called
        # the job missing: its work never reached p exactly
        with pytest.raises(InputError):
            NormalSchedule(*args)

    @pytest.mark.parametrize("temps", [((F(0),),), ((F(0), F(0)), (F(0),)), ((F(0),) * 2,) * 3])
    def test_witness_of_the_wrong_shape_rejected(self, temps):
        with pytest.raises(InputError, match="temperature witness"):
            NormalSchedule((0, 1), (F(1), F(2)), ((F(1), F(0)), (F(1), F(1))), temps)

    def test_entries_become_fractions_and_fractions_stay_themselves(self):
        p = F(3, 10)
        sched = NormalSchedule([0], [1], [[p]], [["1/2"]])
        assert sched.completions == (F(1),) and type(sched.completions[0]) is F
        assert sched.work[0][0] is p
        assert sched.temperatures == ((F(1, 2),),)

    def test_round_trip_work_reconstruction(self):
        rng = random.Random(7)
        for _ in range(40):
            _, sched = _random_normal_schedule(rng, rng.randint(1, 5))
            n = sched.n
            segments = loads_from_normal(sched)
            for i, c in enumerate(sched.completions):
                rebuilt = [
                    sum(
                        (loads[j] * (end - start)
                         for start, end, loads in segments if end <= c),
                        F(0),
                    )
                    for j in range(n)
                ]
                assert rebuilt == list(sched.work[i])

    def test_manageability_matches_scaled_inequalities(self):
        # loads sum to <= m on every interval exactly when the per-interval
        # work deltas fit in m * (C_i - C_{i-1})
        rng = random.Random(11)
        for _ in range(40):
            inst, sched = _random_normal_schedule(rng, rng.randint(1, 5))
            for m in (1, 2, 3):
                by_loads = all(
                    sum(loads, F(0)) <= m
                    for _, _, loads in loads_from_normal(sched)
                )
                prev_t, prev_w = F(0), [F(0)] * sched.n
                by_ineq = True
                for i, c in enumerate(sched.completions):
                    delta = sum(
                        (sched.work[i][j] - prev_w[j] for j in range(sched.n)),
                        F(0),
                    )
                    if delta > m * (c - prev_t):
                        by_ineq = False
                    prev_t, prev_w = c, list(sched.work[i])
                assert by_loads == by_ineq


class TestNaturalFromIntervals:
    def test_valid_alternating_schedule(self):
        sched = NaturalSchedule(
            {"j1": [(0, 1), (4, 5)], "j2": [(1, 2), (5, 6)]}
        )
        assert sched.for_job("j1") == ((F(0), F(1)), (F(4), F(5)))

    def test_conflict_on_one_machine(self):
        # Building never judges the machine count; the report flags the overlap.
        sched = NaturalSchedule({"j1": [(0, 1)], "j2": [(0, 1)]})
        assert sched.for_job("j2") == ((F(0), F(1)),)
        inst = Instance((Job("j1", 1, -1, 1), Job("j2", 1, -1, 1)), machines=1)
        violations = check_feasibility(inst, sched).violations
        assert [(v.job_id, v.time, v.kind) for v in violations] == [
            (None, F(0), "manageability")
        ]

    def test_touching_intervals_merge(self):
        sched = NaturalSchedule({"j1": [(0, 1), (1, 2)]})
        assert sched.for_job("j1") == ((F(0), F(2)),)

    def test_overlapping_intervals_merge(self):
        sched = NaturalSchedule({"j1": [(0, 2), (1, 3)]})
        assert sched.for_job("j1") == ((F(0), F(3)),)

    def test_two_machines_allow_overlap(self):
        sched = NaturalSchedule({"j1": [(0, 1)], "j2": [(0, 1)]})
        inst = Instance((Job("j1", 1, -1, 1), Job("j2", 1, -1, 1)), machines=2)
        assert check_feasibility(inst, sched).feasible

    def test_reversed_interval_rejected(self):
        with pytest.raises(InputError):
            NaturalSchedule({"j1": [(2, 1)]})

    def test_bad_span_errors_name_the_job(self):
        with pytest.raises(InputError, match="job b: empty or reversed interval"):
            NaturalSchedule({"a": [("0", "1")], "b": [("3", "2")]})
        with pytest.raises(InputError, match="job b: interval start: cannot parse"):
            NaturalSchedule({"a": ((F(0), F(1)),), "b": (("x", F(1)),)})
        with pytest.raises(InputError, match="job b: interval end: cannot parse"):
            NaturalSchedule({"b": [("0", "1/0")]})
        with pytest.raises(InputError, match="job b: interval starts before t=0"):
            NaturalSchedule({"a": [(0, 1)], "b": [(1, 2), (F(-1), F(1, 2))]})
        for spans in (5, [(1, 2, 3)], [1, 2], "", {}):
            with pytest.raises(InputError, match=r"job a: intervals must be \[start, end\] pairs"):
                NaturalSchedule({"a": spans})
        for raw in ({1: [(0, 1)], "b": [(0, 1)]}, {None: [(0, 1)]}):
            with pytest.raises(InputError, match="job id must be a non-empty string"):
                NaturalSchedule(raw)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5),
                              st.sampled_from([1, 2, 3, 113]), st.sampled_from([1, 2, 3, 113])),
                    max_size=6))
    def test_integer_merge_matches_the_fraction_reference(self, drawn):
        # Denominators of 113 put near-touching spans a grid step apart.
        spans = [(F(a, d), F(a, d) + F(w, e)) for a, w, d, e in drawn]
        s = NaturalSchedule({"j": spans})
        assert s.for_job("j") == reference_merge(spans)
        assert NaturalSchedule(s.intervals) == s
        halves = [half for a, b in spans for half in ((a, (a + b) / 2), ((a + b) / 2, b))]
        assert NaturalSchedule({"j": halves[::-1]}) == s
