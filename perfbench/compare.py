"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py perfbench/out/parent perfbench/out/change
    python3 perfbench/compare.py perfbench/out/parent

Each set is a directory of run outputs as ``sweep.py`` writes them. One row
is printed per (workload, metric) with each side's median and quartiles.
For an end-to-end metric with a bound in BENCHMARK.json the verdict is:

- ``regressed``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: a side's run-to-run spread (quartile distance over median)
  is wider than the bound, unless every run of one side beats every run of
  the other;
- ``improved``: better by more than the parent's own quartile distance, and
  winning at least nine tenths of the runs paired by seed;
- ``same`` otherwise.

Per-layer metrics have no bound and get no verdict. With one set, each row
shows the spread against a third of the bound, the target a steady benchmark
meets. The exit code is 1 when any row regressed or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from measure import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_FILE = re.compile(r"^(?P<workload>.+)\.seed(?P<seed>-?\d+)\.trace(?P<trace>[01])\.out$")


def load_set(directory: Path) -> tuple[dict, list[str]]:
    """{(workload, metric): {seed: value}} and the names of incorrect runs."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    bad: list[str] = []
    for path in sorted(directory.iterdir()):
        m = RUN_FILE.match(path.name)
        if not m:
            continue
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            bad.append(path.name)
            continue
        if not result.get("correct"):
            bad.append(path.name)
        for name, metric in result["metrics"].items():
            values.setdefault((m["workload"], name), {})[int(m["seed"])] = metric["value"]
    return values, bad


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(parent.values()), list(change.values())
    q1_a, med_a, q3_a = quartiles(a)
    med_b = quartiles(b)[1]
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if worse < 0 and abs(med_b - med_a) > q3_a - q1_a and wins >= 0.9 * len(pairs):
        return "improved"
    return "same"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two run directories")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two run directories")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    loaded = [load_set(d) for d in args.sets]
    status = 0
    for directory, (_, bad) in zip(args.sets, loaded):
        for name in bad:
            print(f"{directory}/{name}: incorrect or unreadable run")
            status = 1

    base = loaded[0][0]
    for key in sorted(base):
        workload, metric = key
        better, bound = bounds.get(metric, ("", None))
        a = base[key]
        if len(args.sets) == 1:
            s = spread(list(a.values()))
            note = "" if bound is None else (
                f"bound {bound:g}  {'ok' if s < bound / 3 else 'TOO WIDE'}"
            )
            print(f"{workload:14} {metric:28} n={len(a):<3} {fmt(list(a.values()))}  "
                  f"spread {s:.4f}  {note}")
            continue
        b = loaded[1][0].get(key)
        if not b:
            print(f"{workload:14} {metric:28} missing from {args.sets[1]}")
            continue
        med_a, med_b = quartiles(list(a.values()))[1], quartiles(list(b.values()))[1]
        change = (med_b / med_a - 1) * 100 if med_a else 0.0
        word = verdict(a, b, better, bound) if bound is not None else "-"
        if word == "regressed":
            status = 1
        print(f"{workload:14} {metric:28} {fmt(list(a.values()))}  {fmt(list(b.values()))}  "
              f"{change:+7.2f}%  {word}")
    return status


if __name__ == "__main__":
    sys.exit(main())
