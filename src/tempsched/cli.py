"""Command-line interface.

Exit codes are a stable contract: 0 for success (and for a feasible
schedule under simulate/verify), 1 for an infeasible schedule under
simulate/verify, 2 for any input or usage error. Exact values print as
"num/den" with a decimal approximation in parentheses.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .core import (
    Instance,
    InputError,
    NormalSchedule,
    SchedulingError,
    Trajectory,
    as_rational,
)
from .discretize import discretize_auto, gamma_scale, time_slice
from .dynamics import FeasibilityReport, check_feasibility, simulate
from .files import load_instance, load_schedule, save_schedule
from .lp import build_order_lp, extract_schedule
from .plot import approx, emit_csv, emit_svg
from .simplex import solve_lp
from .solvers import (
    DEFAULT_BRUTE_CAP,
    min_makespan_over_orders,
    min_makespan_single,
    solve_makespan,
    solve_sum,
    solve_sum_bruteforce,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _rat(value: Fraction) -> str:
    try:
        exact = str(value)
    except ValueError as exc:  # over the interpreter's int-to-text digit limit
        raise InputError(
            f"a result has more than {sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from exc
    return f"{exact} (~{approx(value):.6g})"


def _print_report(instance: Instance, report: FeasibilityReport) -> None:
    print(f"feasible: {'yes' if report.feasible else 'no'}")
    for v in report.violations:
        who = f"job {v.job_id}" if v.job_id is not None else "machines"
        print(f"violation: {v.kind} ({who}) at t = {_rat(v.time)}")
    for job in instance.jobs:
        if job.id in report.completions:
            print(f"C[{job.id}] = {_rat(report.completions[job.id])}")
    for job_id in report.missing:
        print(f"missing completion: {job_id} (scheduled work never reaches p)")
    if report.objective_sum is not None:
        print(f"sum of completion times: {_rat(report.objective_sum)}")
        print(f"makespan: {_rat(report.makespan)}")


def _emit_artifacts(traj: Trajectory, csv_path, svg_path) -> None:
    if csv_path:
        emit_csv(traj, csv_path)
    if svg_path:
        emit_svg(traj, svg_path)


def _parse_order(spec: str, instance: Instance) -> tuple[int, ...]:
    ids = [part.strip() for part in spec.split(",")]
    if sorted(ids) != sorted(instance.job_ids):
        raise InputError(
            f"--order must list every job id exactly once; expected a "
            f"permutation of {', '.join(instance.job_ids)}"
        )
    return tuple(instance.index_of(job_id) for job_id in ids)


def _cmd_solve_sum(args) -> int:
    instance = load_instance(args.instance)
    if args.order == "spt":
        schedule, value = solve_sum(instance)
        order = schedule.order
    elif args.order == "brute":
        schedule, value, order = solve_sum_bruteforce(instance, cap=args.brute_cap)
    else:
        order = _parse_order(args.order, instance)
        solution = solve_lp(build_order_lp(instance, order, "sum"))
        schedule, value = extract_schedule(instance, order, solution), solution.value
    print(f"sum of completion times: {_rat(value)}")
    print("completion order: " + ", ".join(instance.jobs[j].id for j in order))
    for pos, j in enumerate(schedule.order):
        print(f"C[{instance.jobs[j].id}] = {_rat(schedule.completions[pos])}")
    if args.out:
        save_schedule(args.out, schedule, instance)
    if args.csv or args.svg:
        _emit_artifacts(simulate(instance, schedule), args.csv, args.svg)
    return EXIT_OK


def _cmd_solve_makespan(args) -> int:
    instance = load_instance(args.instance)
    value, schedule = solve_makespan(instance)
    print(f"makespan: {_rat(value)}")
    for job in instance.jobs:
        print(f"q[{job.id}] = {_rat(min_makespan_single(job))}")
    if args.out and instance.n:
        save_schedule(args.out, schedule, instance)
    if instance.n and (args.csv or args.svg):
        _emit_artifacts(simulate(instance, schedule), args.csv, args.svg)
    if args.check_lp and instance.n:
        lp_value, lp_order = min_makespan_over_orders(instance, cap=args.brute_cap)
        print(f"order-LP minimum: {_rat(lp_value)}")
        if lp_value != value:
            print(
                f"MISMATCH: closed form {value} != order-LP minimum {lp_value}",
                file=sys.stderr,
            )
            return EXIT_INFEASIBLE
        print("closed form matches the order-LP minimum")
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule, instance)
    report = check_feasibility(instance, schedule)
    _print_report(instance, report)
    if args.csv or args.svg:
        _emit_artifacts(simulate(instance, schedule), args.csv, args.svg)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_discretize(args) -> int:
    gamma = as_rational(args.gamma, "gamma")
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule, instance)
    if not isinstance(schedule, NormalSchedule):
        raise InputError("discretize needs a normal schedule file")
    scaled = gamma_scale(schedule, gamma)
    if args.k is not None:
        k_used = args.k
        natural = time_slice(instance, scaled, k_used)
        report = check_feasibility(instance, natural)
    else:
        natural, k_used, report = discretize_auto(instance, schedule, gamma)
    print(f"gamma: {gamma}")
    print(f"k: {k_used}")
    print(f"feasible: {'yes' if report.feasible else 'no'}")
    for pos, j in enumerate(schedule.order):
        job_id = instance.jobs[j].id
        target = scaled.completions[pos]
        if job_id in report.completions:
            delta = report.completions[job_id] - target
            print(
                f"C[{job_id}] = {_rat(report.completions[job_id])}, "
                f"delta vs scaled = {_rat(delta)}"
            )
    if args.out:
        save_schedule(args.out, natural, instance)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempsched",
        description=(
            "Exact solvers for preemptive scheduling of jobs that heat up "
            "while processed and must never exceed their temperature threshold."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-sum", help="minimize the sum of completion times")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--order",
        default="spt",
        help='completion order: "spt" (default), "brute", or a comma-separated id list',
    )
    p.add_argument("--brute-cap", type=int, default=DEFAULT_BRUTE_CAP,
                   help="max job count for --order=brute (default %(default)s)")
    p.add_argument("--out", help="write the optimal schedule JSON here")
    p.add_argument("--csv", help="write the optimal schedule's trajectory CSV here")
    p.add_argument("--svg", help="write the optimal schedule's trajectory SVG here")
    p.set_defaults(func=_cmd_solve_sum)

    p = sub.add_parser("solve-makespan", help="minimize the makespan (closed form)")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--check-lp", action="store_true",
                   help="cross-check against makespan LPs over all completion orders")
    p.add_argument("--brute-cap", type=int, default=DEFAULT_BRUTE_CAP,
                   help="max job count for --check-lp (default %(default)s)")
    p.add_argument("--out", help="write the constant-rate schedule JSON here")
    p.add_argument("--csv", help="write the schedule's trajectory CSV here")
    p.add_argument("--svg", help="write the schedule's trajectory SVG here")
    p.set_defaults(func=_cmd_solve_makespan)

    for name, blurb in (
        ("simulate", "simulate a schedule and report on it"),
        ("verify", "check a schedule's feasibility"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("schedule", help="schedule JSON file")
        p.add_argument("--csv", help="write the trajectory CSV here")
        p.add_argument("--svg", help="write the trajectory SVG here")
        p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "discretize",
        help="turn a feasible normal schedule into an on/off schedule",
    )
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("schedule", help="normal schedule JSON file")
    p.add_argument("--gamma", required=True,
                   help="time-stretch factor, a rational > 1")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, help="slice count (may yield an infeasible result)")
    group.add_argument("--auto", action="store_true",
                       help="double k until feasible (default)")
    p.add_argument("--out", help="write the natural schedule JSON here")
    p.set_defaults(func=_cmd_discretize)

    return parser


# Built by the first `main` call and reused by later calls in the same
# process, as parsing leaves it unchanged. Built at import, it would cost
# every `import tempsched.cli` that never parses a command line.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
