from fractions import Fraction

import pytest

from tempsched import Instance, Job, NaturalSchedule, NormalSchedule

F = Fraction


@pytest.fixture
def twin_instance() -> Instance:
    """Two identical jobs (p=2, alpha=-1/3, beta=1) on one machine."""
    return Instance(
        (Job("j1", 2, F(-1, 3), 1), Job("j2", 2, F(-1, 3), 1)),
        machines=1,
    )


@pytest.fixture
def solo_instance() -> Instance:
    return Instance((Job("j1", 2, F(-1, 3), 1),), machines=1)


@pytest.fixture
def twin_optimum() -> NormalSchedule:
    """The sum-optimal normal schedule for the twin instance: both jobs at
    load 2/5 on [0, 5), completing together."""
    return NormalSchedule(
        order=(0, 1),
        completions=(F(5), F(5)),
        work=((F(2), F(2)), (F(2), F(2))),
    )


@pytest.fixture
def naive_natural():
    """Alternating full-load schedule: j1 on [0,1) and [4,5), j2 filling the
    gaps, completing at 6."""
    return NaturalSchedule(
        {"j1": [(0, 1), (4, 5)], "j2": [(1, 2), (5, 6)]}
    )
