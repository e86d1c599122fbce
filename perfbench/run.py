"""Benchmark of tempsched: seeded workloads, timed end to end or per layer.

    python3 perfbench/run.py --workload spt-sum --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory and nowhere else. Set-up is timed in fresh processes. The
operations then run in this process, one after another, in whole rounds
over the workload's instances until the next round would pass --seconds
(at least one round). Outputs are checked after the timed region.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced round, taken after
one untraced round that gives the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setups(workload, seed, input_dir):
    """Median seconds of SETUP_REPEATS cold set-ups, each in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(input_dir)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    import tempsched
    import tempsched.cli  # noqa: F401

    if Path(tempsched.__file__).resolve().parent != SRC / "tempsched":
        raise RuntimeError(f"tempsched imported from {tempsched.__file__}, not {SRC}")
    return tempsched


def run_round(workload, ts, instances, input_dir, work_dir):
    """One pass over the instances: (per-op seconds, summaries, results,
    failures). A failed operation has summary and result None."""
    times, summaries, results, failures = [], [], [], []
    for instance in instances:
        path = input_dir / f"{instance['name']}.json"
        start = time.perf_counter()
        try:
            summary, result = workloads.OPS[workload](ts, path, work_dir, instance["name"])
        except Exception:  # a failed operation is counted, and the run goes on
            summary = result = None
            failures.append(f"{instance['name']}: {traceback.format_exc()}")
        times.append(time.perf_counter() - start)
        summaries.append(summary)
        results.append(result)
    return times, summaries, results, failures


def check_outputs(workload, instances, rounds, work_dir):
    problems = []
    first = rounds[0]
    for later in rounds[1:]:
        if later[1] != first[1]:
            problems.append("outputs differ between rounds")
            break
    for instance, result in zip(instances, first[2]):
        if result is not None:
            problems += [f"{instance['name']}: {p}"
                         for p in workloads.CHECKS[workload](instance, result, work_dir)]
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tempsched" / "__init__.py").is_file():
        print(f"error: no tempsched sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    base = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    input_dir, work_dir = base / "inputs", base / "work"
    work_dir.mkdir(parents=True)

    setup_s = timed_setups(args.workload, args.seed, input_dir)
    ts = import_program()
    instances = inputs.generate(args.workload, args.seed)

    def one_round():
        return run_round(args.workload, ts, instances, input_dir, work_dir)

    start = time.perf_counter()
    rounds, round_s = [], []
    if args.trace:
        from tracing import Tracer

        rounds.append(one_round())
        untraced_s = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            rounds.append(one_round())
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.write(base / "spans.jsonl")
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        while True:
            t0 = time.perf_counter()
            rounds.append(one_round())
            round_s.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(round_s) > start + args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_op = [statistics.median(op_s) for op_s in zip(*(r[0] for r in rounds))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(round_s), "s"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for failure in rounds[0][3]:
        print(f"failed: {failure}", file=sys.stderr)
    problems = check_outputs(args.workload, instances, rounds, work_dir)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(instances)} operations", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(instances) * len(rounds),
        "failed": sum(len(r[3]) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
