"""Measure the corridor stage over a range of seeds.

Prints how often a plan needs a corridor at all, how often the pruned wall
graph was enough to route on, how many candidates the optimizer weighed,
why the invalid ones were thrown out, and how much floor the winners cost.
Run it after touching anything in corridor.py to see whether the stage's
behaviour drifted.

    python3 scripts/corridor_stats.py -n 2000
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter

from planwright.plan import GenerationError, generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=1000, help="seeds to scan (default 1000)")
    parser.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--json", action="store_true", help="dump the raw tally as JSON")
    args = parser.parse_args()

    tally: Counter[str] = Counter()
    rejections: Counter[str] = Counter()
    candidate_counts: list[int] = []
    winner_areas: list[float] = []
    for seed in range(args.start, args.start + args.n):
        try:
            plan = generate(seed, trace=True)
        except GenerationError:
            tally["failed"] += 1
            continue
        tally["plans"] += 1
        if plan.corridor is None:
            continue
        tally["corridor_plans"] += 1
        trace = plan.trace
        if trace["routed_on_pruned"]:
            tally["routed_on_pruned"] += 1
        candidate_counts.append(len(trace["candidates"]))
        winner_areas.append(trace["winner_area"])
        for cand in trace["candidates"]:
            if not cand["valid"]:
                rejections[cand["reason"]] += 1

    if args.json:
        print(json.dumps({
            "tally": dict(tally),
            "rejections": dict(rejections),
            "candidate_counts": candidate_counts,
            "winner_areas": winner_areas,
        }))
        return

    plans = tally["plans"]
    corridor = tally["corridor_plans"]
    print(f"seeds scanned      {args.n}")
    print(f"plans generated    {plans}  (failed {tally['failed']})")
    if plans:
        print(f"needed a corridor  {corridor}  ({corridor / plans:.1%})")
    if corridor:
        print(f"routed on pruned   {tally['routed_on_pruned']}  ({tally['routed_on_pruned'] / corridor:.1%})")
        print(f"candidates/plan    mean {statistics.mean(candidate_counts):.2f}  max {max(candidate_counts)}")
        print(
            "winner area m^2    "
            f"min {min(winner_areas):.2f}  median {statistics.median(winner_areas):.2f}  "
            f"max {max(winner_areas):.2f}"
        )
    if rejections:
        print("rejection reasons")
        width = max(len(reason) for reason in rejections)
        for reason, count in rejections.most_common():
            print(f"  {reason:<{width}}  {count}")


if __name__ == "__main__":
    main()
