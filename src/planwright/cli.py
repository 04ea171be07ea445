"""Command line front end: batch generation, validation, benchmarks, galleries.

Exit codes are 0 for success, 1 when any plan fails to generate or validate,
and 2 for usage or configuration problems.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from .openings import validate
from .plan import (
    FloorPlan,
    GenerationError,
    PlanParseError,
    from_json,
    gallery_svg,
    generate,
    to_json,
    to_svg,
)
from .sampling import ConfigError, GenConfig


def _seed_range(text: str) -> list[int]:
    """Parse "7" or "1..100" (inclusive) into a seed list."""
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            return [int(lo)]
        first, last = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}, expected N or A..B")
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def _positive(text: str) -> int:
    """Parse an integer count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {value}")
    return value


def _load_config(path: str | None) -> GenConfig:
    path = path or os.environ.get("PLANWRIGHT_CONFIG")
    if not path:
        return GenConfig()
    return GenConfig.load(path)


def _percentile(samples: list[float], q: float) -> float:
    idx = max(0, math.ceil(q * len(samples)) - 1)
    return sorted(samples)[idx]


def generate_cmd(args: argparse.Namespace, cfg: GenConfig) -> int:
    seeds = args.seeds
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    written = 0
    failures = 0
    for seed in seeds:
        try:
            plan = generate(seed, cfg, trace=args.trace)
        except GenerationError as exc:
            print(exc, file=sys.stderr)
            failures += 1
            continue
        stem = out / f"plan-{seed:06d}"
        if args.format in ("json", "both"):
            stem.with_suffix(".json").write_text(to_json(plan))
        if args.format in ("svg", "both"):
            stem.with_suffix(".svg").write_text(to_svg(plan))
        if args.trace:
            doc = {"seed": seed, "attempts": plan.attempts, "corridor": plan.trace}
            stem.with_suffix(".trace.json").write_text(json.dumps(doc, indent=2) + "\n")
        written += 1
    elapsed = time.perf_counter() - t0
    print(f"{written} plan(s) written to {out}, {failures} failure(s), {elapsed:.2f} s")
    return 1 if failures else 0


def validate_cmd(args: argparse.Namespace, cfg: GenConfig) -> int:
    if not args.files:
        print("no input files given", file=sys.stderr)
        return 0
    failures = 0
    for name in args.files:
        try:
            plan = from_json(Path(name).read_text())
        except (OSError, PlanParseError) as exc:
            print(f"{name}: FAIL ({exc})")
            failures += 1
            continue
        report = validate(plan, cfg)
        if report.ok:
            print(f"{name}: PASS")
        else:
            print(f"{name}: FAIL ({report.failures[0]})")
            failures += 1
    return 1 if failures else 0


def bench_cmd(args: argparse.Namespace, cfg: GenConfig) -> int:
    """Time seeds 0..n-1; --trace adds attempt and corridor stats, and its cost to the times."""
    times_ms: list[float] = []
    failed_ms: list[float] = []
    attempts: list[int] = []
    candidates: list[int] = []
    areas: list[float] = []
    shares: list[float] = []
    rejections: Counter[str] = Counter()
    give_up_rejections: Counter[str] = Counter()
    for seed in range(args.n):
        t0 = time.perf_counter()
        try:
            plan = generate(seed, cfg, trace=args.trace)
        except GenerationError as exc:
            failed_ms.append((time.perf_counter() - t0) * 1000.0)
            give_up_rejections.update(exc.rejections)
            continue
        times_ms.append((time.perf_counter() - t0) * 1000.0)
        if args.trace:
            attempts.append(plan.attempts)
            candidates.append(plan.corridor_candidates)
            rejections.update(c["reason"] for c in plan.trace["candidates"] if not c["valid"])
            if plan.corridor is not None:
                areas.append(plan.trace["winner_area"])
                x0, y0, x1, y1 = plan.footprint
                shares.append(plan.corridor.area_mm2 / ((x1 - x0) * (y1 - y0)))
    report = {
        "plans": len(times_ms),
        "failures": len(failed_ms),
        "median_ms": round(statistics.median(times_ms), 3) if times_ms else None,
        "p95_ms": round(_percentile(times_ms, 0.95), 3) if times_ms else None,
        "failure_median_ms": round(statistics.median(failed_ms), 3) if failed_ms else None,
    }
    if args.trace:
        spread = (min(areas), statistics.median(areas), max(areas)) if areas else None
        # The paper's minimum-used-space objective: corridor area over footprint area.
        share = (statistics.median(shares), _percentile(shares, 0.95), max(shares)) if shares else None
        report.update(
            corridor_plans=len(areas),
            mean_candidates=round(statistics.mean(candidates), 2) if candidates else None,
            max_candidates=max(candidates, default=None),
            mean_attempts=round(statistics.mean(attempts), 2) if attempts else None,
            attempts_histogram=dict(sorted(Counter(attempts).items())),
            winner_area=spread and dict(zip(("min", "median", "max"), (round(a, 2) for a in spread))),
            corridor_share=share and dict(zip(("median", "p95", "max"), (round(v, 3) for v in share))),
            rejections=dict(sorted(rejections.items(), key=lambda kv: (-kv[1], kv[0]))),
            give_up_rejections=dict(give_up_rejections),
        )
    print(json.dumps(report))
    return 0


def _room_mix(plan: FloorPlan) -> str:
    """One line per plan: seed, footprint size, corridor or not, room kinds."""
    mix = Counter(room.kind.value for room in plan.rooms)
    rooms = ", ".join(f"{kind} x{n}" if n > 1 else kind for kind, n in sorted(mix.items()))
    corridor = "corridor" if plan.corridor is not None else "open"
    x0, y0, x1, y1 = plan.footprint
    size = f"{(x1 - x0) / 1000:.1f}x{(y1 - y0) / 1000:.1f} m"
    return f"seed {plan.seed:>6}  {size}  {corridor:<8}  {rooms}"


def gallery_cmd(args: argparse.Namespace, cfg: GenConfig) -> int:
    plans, skipped = [], []
    for seed in args.seeds:
        try:
            plans.append(generate(seed, cfg))
        except GenerationError:
            skipped.append(seed)
    for plan in plans:
        print(_room_mix(plan))
    if skipped:
        print(f"skipped (no plan within budget): {skipped}")
    if not plans:
        print("no plans to draw", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(gallery_svg(plans, columns=args.columns))
    print(f"{len(plans)} plan(s) on {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planwright")
    parser.add_argument("--config", help="config JSON path (or set PLANWRIGHT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write plan files for a seed range")
    pick = gen.add_mutually_exclusive_group(required=True)
    pick.add_argument("--seed", type=int, help="single seed")
    pick.add_argument("--seeds", type=_seed_range, help="inclusive range A..B")
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--format", choices=("json", "svg", "both"), default="both")
    gen.add_argument("--trace", action="store_true", help="also write corridor traces")
    gen.set_defaults(func=generate_cmd)

    val = sub.add_parser("validate", help="re-check invariants of plan JSON files")
    val.add_argument("files", nargs="*", help="plan JSON files")
    val.set_defaults(func=validate_cmd)

    ben = sub.add_parser("bench", help="time plan generation")
    ben.add_argument("-n", type=_positive, default=100, help="number of seeds, from 0")
    ben.add_argument("--trace", action="store_true", help="trace plans; add attempt and corridor stats")
    ben.set_defaults(func=bench_cmd)

    gal = sub.add_parser("gallery", help="draw a contact sheet of many seeds")
    gal.add_argument("--seeds", type=_seed_range, default=list(range(1, 16)))
    gal.add_argument("--columns", type=_positive, default=5)
    gal.add_argument("--out", default="gallery.svg")
    gal.set_defaults(func=gallery_cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", None) is not None:
        args.seeds = [args.seed]
    try:
        cfg = _load_config(args.config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return args.func(args, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
