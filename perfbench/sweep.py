"""Run the benchmark over several seeds and keep each run's output.

    python3 perfbench/sweep.py --out perfbench/out/parent --seeds 1..10
    python3 perfbench/sweep.py --out perfbench/out/traced --trace 1 --workloads plan-io

Runs are made one after another, each in its own interpreter, and each
run's standard output is written to ``<out>/<workload>.seed<N>.trace<T>.out``
for ``compare.py`` to read. Every run measures for BENCHMARK.json's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for run outputs")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1..10"), help="A..B inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            path = args.out / f"{workload}.seed{seed}.trace{args.trace}.out"
            path.write_text(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            print(f"{path.name}: exit {proc.returncode} {last[:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
