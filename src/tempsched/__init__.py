"""tempsched: exact solvers for scheduling jobs with temperature limits.

Jobs heat up at rate beta while processed and cool at rate alpha < 0 while
idle, clamped at 0 and capped by a threshold normalized to 1. Preemption is
free and loads may be fractional. The package solves two objectives
exactly over rationals -- the sum of completion times (via a linear
program over the shortest-processing-time completion order) and the
makespan (closed form) -- and can simulate, verify, and discretize the
resulting schedules.
"""

from .core import (
    InconsistentScheduleError,
    InputError,
    Instance,
    Job,
    NaturalSchedule,
    NormalSchedule,
    SchedulingError,
    Trajectory,
    as_rational,
    loads_from_normal,
    validate_normal_schedule,
)
from .discretize import (
    InfeasibleScheduleError,
    NotSliceableError,
    SliceLimitError,
    discretize_auto,
    gamma_scale,
    time_slice,
)
from .dynamics import FeasibilityReport, Violation, check_feasibility, simulate
from .files import (
    dump_instance,
    dump_schedule,
    load_instance,
    load_schedule,
    parse_instance,
    parse_schedule,
    save_instance,
    save_schedule,
)
from .lp import (
    Constraint,
    LpProblem,
    LpSolution,
    NoScheduleError,
    PivotLimitError,
    build_order_lp,
    constraint_count,
    dual_bound,
    extract_schedule,
)
from .plot import emit_csv, emit_svg
from .simplex import solve_lp
from .solvers import (
    BruteForceCapError,
    HeterogeneousRatesError,
    min_makespan_over_orders,
    min_makespan_single,
    solve_makespan,
    solve_sum,
    solve_sum_bruteforce,
    spt_order,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceCapError",
    "Constraint",
    "FeasibilityReport",
    "HeterogeneousRatesError",
    "InconsistentScheduleError",
    "InfeasibleScheduleError",
    "InputError",
    "Instance",
    "Job",
    "LpProblem",
    "LpSolution",
    "NaturalSchedule",
    "NoScheduleError",
    "NormalSchedule",
    "NotSliceableError",
    "PivotLimitError",
    "SchedulingError",
    "SliceLimitError",
    "Trajectory",
    "Violation",
    "as_rational",
    "build_order_lp",
    "check_feasibility",
    "constraint_count",
    "discretize_auto",
    "dual_bound",
    "dump_instance",
    "dump_schedule",
    "emit_csv",
    "emit_svg",
    "extract_schedule",
    "gamma_scale",
    "load_instance",
    "load_schedule",
    "loads_from_normal",
    "min_makespan_over_orders",
    "min_makespan_single",
    "parse_instance",
    "parse_schedule",
    "save_instance",
    "save_schedule",
    "simulate",
    "solve_lp",
    "solve_makespan",
    "solve_sum",
    "solve_sum_bruteforce",
    "spt_order",
    "time_slice",
    "validate_normal_schedule",
]
