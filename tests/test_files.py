import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempsched import (
    InputError,
    Instance,
    Job,
    NaturalSchedule,
    NormalSchedule,
    dump_instance,
    dump_schedule,
    load_instance,
    load_schedule,
    parse_instance,
    parse_schedule,
    save_instance,
    save_schedule,
)

from .helpers import natural_cases, normal_cases, random_instance

F = Fraction


class TestInstanceFiles:
    def test_globals_with_per_job_override(self):
        inst = parse_instance({
            "machines": 2,
            "alpha": "-1/3",
            "beta": 1,
            "jobs": [
                {"id": "a", "p": 2},
                {"id": "b", "p": "5/2", "beta": "1/2", "threshold": "2"},
            ],
        })
        assert inst.machines == 2
        assert inst.jobs[0].alpha == F(-1, 3)
        assert inst.jobs[0].beta == 1
        # job b's threshold 2 is folded into the global alpha and its own beta
        assert (inst.jobs[1].alpha, inst.jobs[1].beta) == (F(-1, 6), F(1, 4))

    def test_machines_default_one(self):
        inst = parse_instance({"alpha": "-1", "beta": "1", "jobs": [{"id": "a", "p": 1}]})
        assert inst.machines == 1

    def test_decimal_literals_parse_exactly(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            '{"alpha": -0.5, "beta": 0.1, "jobs": [{"id": "a", "p": 2.5}]}'
        )
        inst = load_instance(path)
        assert inst.jobs[0].alpha == F(-1, 2)
        assert inst.jobs[0].beta == F(1, 10)
        assert inst.jobs[0].p == F(5, 2)

    def test_missing_rates_rejected(self):
        with pytest.raises(InputError, match="alpha"):
            parse_instance({"beta": 1, "jobs": [{"id": "a", "p": 1}]})

    def test_malformed_shapes_rejected(self):
        for data in (
            [],
            {"jobs": "nope"},
            {"machines": "2", "alpha": "-1", "beta": 1, "jobs": []},
            {"alpha": "-1", "beta": 1, "jobs": [{"p": 1}]},
            {"alpha": "-1", "beta": 1, "jobs": [{"id": "a"}]},
            {"alpha": "-1", "beta": 1, "jobs": [{"id": "a", "p": "1/0"}]},
        ):
            with pytest.raises(InputError):
                parse_instance(data)

    def test_round_trip(self, tmp_path):
        rng = random.Random(71)
        for i in range(10):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 3))
            if i % 2:
                inst = Instance(
                    tuple(
                        Job(j.id, j.p, j.alpha * 3, j.beta * 3, threshold=F(3))
                        for j in inst.jobs
                    ),
                    inst.machines,
                )
            path = tmp_path / f"inst{i}.json"
            save_instance(path, inst)
            assert load_instance(path) == inst


class TestScheduleFiles:
    def test_natural_round_trip(self, tmp_path, twin_instance):
        sched = NaturalSchedule(
            {"j1": [(0, 1), (4, 5)], "j2": [(F(1), F(355, 113))]}
        )
        path = tmp_path / "nat.json"
        save_schedule(path, sched, twin_instance)
        again = load_schedule(path, twin_instance)
        assert again == sched

    def test_normal_round_trip_with_witness(self, tmp_path, twin_instance):
        sched = NormalSchedule(
            order=(1, 0),
            completions=(F(7, 3), F(14, 3)),
            work=((F(1, 3), F(2)), (F(2), F(2))),
            temperatures=((F(1, 7), F(1)), (F(1), F(1))),
        )
        path = tmp_path / "norm.json"
        save_schedule(path, sched, twin_instance)
        again = load_schedule(path, twin_instance)
        assert again == sched

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.one_of(natural_cases(), normal_cases()), st.booleans(), st.data())
    def test_round_trip_is_bit_faithful(self, case, witness, data):
        inst, sched = case
        if witness and isinstance(sched, NormalSchedule):
            temps = st.builds(F, st.integers(0, 400), st.sampled_from([1, 3, 113, 10**30]))
            n = sched.n
            sched = NormalSchedule(sched.order, sched.completions, sched.work,
                                   data.draw(st.lists(st.lists(temps, min_size=n, max_size=n),
                                                      min_size=n, max_size=n)))
        text = json.dumps(dump_schedule(sched, inst))
        assert parse_schedule(json.loads(text), inst) == sched

    def test_normal_file_columns_follow_order(self, twin_instance):
        sched = NormalSchedule(
            order=(1, 0),
            completions=(F(2), F(4)),
            work=((F(0), F(2)), (F(2), F(2))),
        )
        data = dump_schedule(sched, twin_instance)
        assert data["order"] == ["j2", "j1"]
        # first column belongs to j2 (completes first)
        assert data["W"] == [["2", "0"], ["2", "2"]]

    def test_overloaded_natural_schedule_still_loads(self, twin_instance):
        # feasibility verdicts belong to check_feasibility, not the parser
        sched = parse_schedule(
            {"kind": "natural", "intervals": {"j1": [[0, 2]], "j2": [[0, 2]]}},
            twin_instance,
        )
        assert isinstance(sched, NaturalSchedule)

    def test_bad_schedules_rejected(self, twin_instance):
        cases = [
            {"kind": "nonsense"},
            {"kind": "natural", "intervals": {"zz": [[0, 1]]}},
            {"kind": "natural", "intervals": {"j1": [[1]]}},
            {"kind": "natural", "intervals": {"j1": [[2, 1]]}},
            {"kind": "normal", "order": ["j1"], "C": ["1"], "W": [["2"]]},
            {"kind": "normal", "order": ["j1", "j2"], "C": ["1"], "W": [["2"]]},
            {
                "kind": "normal",
                "order": ["j1", "j2"],
                "C": ["5", "4"],  # decreasing
                "W": [["2", "2"], ["2", "2"]],
            },
            {
                "kind": "normal",
                "order": ["j1", "j2"],
                "C": ["4", "5"],
                "W": [["1", "1"], ["2", "2"]],  # j1 not pinned at its completion
            },
        ]
        for data in cases:
            with pytest.raises(InputError):
                parse_schedule(data, twin_instance)

    def test_non_string_order_ids_rejected(self, twin_instance):
        # ids are compared by sorting, so a non-string id must be refused first
        for order in ([1, "j2"], ["j1", 2], [None, "j2"]):
            data = {"kind": "normal", "order": order, "C": ["5", "5"],
                    "W": [["2", "2"], ["2", "2"]]}
            with pytest.raises(InputError):
                parse_schedule(data, twin_instance)

    def test_json_is_strings_only_for_rationals(self, twin_instance, twin_optimum):
        data = dump_schedule(twin_optimum, twin_instance)
        text = json.dumps(data)
        parsed = json.loads(text)
        assert parsed["C"] == ["5", "5"]
        assert all(isinstance(v, str) for row in parsed["W"] for v in row)

    def test_instance_dump_uses_strings(self, twin_instance):
        data = dump_instance(twin_instance)
        assert data["jobs"][0]["alpha"] == "-1/3"
        assert data["jobs"][0]["p"] == "2"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            load_instance(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_instance(path)
