"""Seeded inputs of the benchmark workloads, and the timed set-up.

The generator is the benchmark's own: it does not call `tempsched.generate`,
so a change to the program cannot change what is measured. Each workload is
a fixed list of slots (job count, machines, rate family); the seed draws the
processing times, and for job-dependent rates which job gets which pair.

Run as a script, this module is one set-up of a workload: it imports
`tempsched` (with its CLI), builds the inputs and writes them as instance
files, then prints the seconds that took as JSON. `run.py` runs it in fresh
processes so that every import is cold.

    python3 perfbench/inputs.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("spt-sum", "brute-oracle", "discretize-cli")

# (alpha, beta) pairs. The benchmark fixes which pair a slot uses: the pair
# decides most of an instance's cost (how many jobs are heat-bound, and so
# the pivot count and the slice count k), and a seeded pair would make the
# cost of a whole run swing with the seed.
RATE_PAIRS = (
    (F(-1, 3), F(1)),
    (F(-1, 2), F(3, 2)),
    (F(-2), F(1, 2)),
)
# Pairs of the discretize-cli slots. With these, the k that gamma = 101/100
# needs is the same on nearly every seed (32 and 64), where pairs such as
# (-2, 1/2) or (-1/2, 1/2) need 16 on one seed and 32 or 256 on the next:
# k doubles the slices and about quadruples the time of a pipeline.
SLICE_RATE_PAIRS = ((F(-4), F(1)), (F(-6), F(3)))

GAMMAS = (F(11, 10), F(101, 100))


def _processing_times(rng: random.Random, n: int) -> list[F]:
    """One p from each of n equal bands of the halves 1, 3/2, ..., 10, in
    seeded order: every instance spans short and long jobs alike, which
    keeps the cost of an instance from swinging with the seed."""
    lo, hi = 2, 20  # numerators over 2
    ps = [F(rng.randint(lo + (hi - lo + 1) * j // n, lo + (hi - lo + 1) * (j + 1) // n - 1), 2)
          for j in range(n)]
    rng.shuffle(ps)
    return ps


def _common(rng, name, n, machines, pair):
    alpha, beta = pair
    jobs = [(f"j{i + 1}", p, alpha, beta) for i, p in enumerate(_processing_times(rng, n))]
    return {"name": name, "machines": machines, "common": True, "jobs": jobs}


def _mixed(rng, name, n, machines):
    """Job-dependent rates: the pairs are shuffled and dealt out in turn, so
    at least two distinct pairs occur whenever n >= 2."""
    pairs = list(RATE_PAIRS)
    rng.shuffle(pairs)
    jobs = [(f"j{i + 1}", p, *pairs[i % len(pairs)])
            for i, p in enumerate(_processing_times(rng, n))]
    return {"name": name, "machines": machines, "common": False, "jobs": jobs}


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Spread each group evenly over the round. The machine has slow spells
    of a few seconds; run back to back, the instances of one group would all
    meet the same spell, and the median operation would move with it."""
    keyed = [((k + 0.5) / len(group), g, instance)
             for g, group in enumerate(groups) for k, instance in enumerate(group)]
    return [instance for _, _, instance in sorted(keyed, key=lambda e: e[:2])]


def generate(workload: str, seed: int) -> list[dict]:
    """The instances of one workload, in the order a round runs them; the
    same seed gives the same list.

    Each job is (id, p, alpha, beta) with Fraction values, thresholds 1.
    """
    rng = random.Random(f"{workload}/{seed}")
    groups = []
    if workload == "spt-sum":
        for n, m in ((10, 1), (12, 1), (14, 1), (8, 2), (10, 2)):
            groups.append([_common(rng, f"n{n}-m{m}-r{r}-{rep}", n, m, pair)
                           for rep in range(2) for r, pair in enumerate(RATE_PAIRS)])
    elif workload == "brute-oracle":
        for n, m, reps in ((3, 1, 2), (3, 2, 2), (4, 2, 8), (5, 1, 4)):
            group = []
            for rep in range(reps):
                group.append(_common(rng, f"n{n}-m{m}-common-{rep}", n, m, RATE_PAIRS[rep % 3]))
                group.append(_mixed(rng, f"n{n}-m{m}-mixed-{rep}", n, m))
            groups.append(group)
    elif workload == "discretize-cli":
        for n, r, reps in ((3, 0, 8), (4, 0, 12), (5, 0, 6), (3, 1, 4)):
            groups.append([_common(rng, f"n{n}-r{r}-{rep}", n, 1, SLICE_RATE_PAIRS[r])
                           for rep in range(reps)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _interleave(groups)


def instance_json(instance: dict) -> dict:
    """The tempsched instance-file form, rationals as "num/den" strings."""
    return {
        "machines": instance["machines"],
        "jobs": [
            {"id": j, "p": str(p), "alpha": str(a), "beta": str(b)}
            for j, p, a, b in instance["jobs"]
        ],
    }


def write_inputs(instances: list[dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for instance in instances:
        path = directory / f"{instance['name']}.json"
        path.write_text(json.dumps(instance_json(instance), indent=2) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    start = time.perf_counter()
    import tempsched.cli  # noqa: F401  (the import is part of what is timed)

    write_inputs(generate(workload, seed), directory)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
