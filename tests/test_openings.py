"""Connection graph, door/window placement, and the plan self-check.

Hand-built three-room tilings make every adjacency explicit, so the expected
edge sets and failure messages can be written down exactly.  The validator
tests corrupt real generated plans one field at a time and require that the
right complaint, and only the right complaint, appears.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from planwright.geometry import Grid, Point, Rect, RectilinearPolygon, Segment, mm_box
from planwright.hierarchy import OUTSIDE_ID
from planwright.openings import (
    DOOR,
    ENTRY_DOOR,
    WINDOW,
    ConnectionGraph,
    Opening,
    OpeningError,
    _WallLedger,
    build_connection_graph,
    place_doors,
    place_windows,
    validate,
)
from planwright.plan import FloorPlan, Room, from_json, generate
from planwright.sampling import GenConfig, RandomStream, RoomKind

K = RoomKind
CFG = GenConfig()


def grid_rooms(*specs):
    """The plan's grid of the room boxes, and each room as a mask on it."""
    boxes = [(rid, kind, mm_box(Rect(x, y, w, h))) for rid, kind, x, y, w, h in specs]
    grid = Grid([box for _, _, box in boxes])
    return grid, tuple((rid, kind, grid.mask(box)) for rid, kind, box in boxes)


# Living room column plus a kitchen/dining stack; everything is adjacent.
TRIO_FP = Rect(0, 0, 6, 6)
TRIO_BOX = mm_box(TRIO_FP)  # the footprint as placement sees it, in mm
TRIO = grid_rooms(
    (0, K.LIVING_ROOM, 0, 0, 3, 6),
    (1, K.KITCHEN, 3, 0, 3, 3),
    (2, K.DINING_ROOM, 3, 3, 3, 3),
)
TRIO_PARENTS = {1: 0, 2: 0}


def cfg_with_doors(*rules) -> GenConfig:
    return GenConfig(optional_doors=tuple(rules))


# ------------------------------------------------------------- graph edges


def test_mandatory_edges_and_outside():
    cfg = cfg_with_doors()
    graph = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(1), cfg)
    assert graph.nodes == frozenset({OUTSIDE_ID, 0, 1, 2})
    assert graph.edges == ((OUTSIDE_ID, 0), (0, 1), (0, 2))


def test_optional_edge_follows_coin():
    always = cfg_with_doors((K.KITCHEN, K.DINING_ROOM, 1.0))
    never = cfg_with_doors((K.KITCHEN, K.DINING_ROOM, 0.0))
    with_door = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(1), always)
    without = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(1), never)
    assert (1, 2) in with_door.edges
    assert (1, 2) not in without.edges


def test_optional_edge_skipped_when_already_mandatory():
    # Dining's parent is the living room, so the optional rule is moot.
    cfg = cfg_with_doors((K.LIVING_ROOM, K.DINING_ROOM, 1.0))
    graph = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(1), cfg)
    assert graph.edges.count((0, 2)) == 1


def test_mandatory_edge_without_shared_wall_raises():
    rooms = grid_rooms(
        (0, K.LIVING_ROOM, 0, 0, 3, 3),
        (1, K.BEDROOM, 3, 3, 3, 3),
    )
    with pytest.raises(OpeningError):
        build_connection_graph(*rooms, {1: 0}, 0, RandomStream(1), CFG)


def test_prohibited_pairs_never_added():
    rooms = grid_rooms(
        (0, K.LIVING_ROOM, 0, 0, 3, 6),
        (1, K.BEDROOM, 3, 0, 3, 3),
        (2, K.MASTER_BEDROOM, 3, 3, 3, 3),
    )
    cfg = cfg_with_doors((K.BEDROOM, K.MASTER_BEDROOM, 1.0))
    graph = build_connection_graph(*rooms, {1: 0, 2: 0}, 0, RandomStream(1), cfg)
    assert (1, 2) not in graph.edges
    kitchen = grid_rooms(
        (0, K.LIVING_ROOM, 0, 0, 3, 6),
        (1, K.KITCHEN, 3, 0, 3, 3),
        (2, K.BEDROOM, 3, 3, 3, 3),
    )
    cfg = cfg_with_doors((K.KITCHEN, K.BEDROOM, 1.0))
    graph = build_connection_graph(*kitchen, {1: 0, 2: 0}, 0, RandomStream(1), cfg)
    assert (1, 2) not in graph.edges


def test_bathroom_never_bridges_bedrooms():
    # The bathroom already serves bedroom 1 (its parent); the optional door
    # to bedroom 3 would turn it into a pass-through and must be skipped.
    rooms = grid_rooms(
        (0, K.LIVING_ROOM, 0, 0, 3, 9),
        (1, K.BEDROOM, 3, 6, 3, 3),
        (2, K.BATHROOM, 3, 3, 3, 3),
        (3, K.BEDROOM, 3, 0, 3, 3),
    )
    cfg = cfg_with_doors((K.BATHROOM, K.BEDROOM, 1.0))
    graph = build_connection_graph(*rooms, {1: 0, 2: 1, 3: 0}, 0, RandomStream(1), cfg)
    assert (1, 2) in graph.edges
    assert (2, 3) not in graph.edges
    # With every room under the living room, the optional door to bedroom 1
    # is what joins the bathroom to a bedroom, so bedroom 3 gets none.
    graph = build_connection_graph(*rooms, {1: 0, 2: 0, 3: 0}, 0, RandomStream(1), cfg)
    assert (1, 2) in graph.edges
    assert (2, 3) not in graph.edges


def test_graph_json_round_trip():
    graph = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(1), CFG)
    doc = {"nodes": sorted(graph.nodes), "edges": [list(e) for e in graph.edges]}
    assert ConnectionGraph.from_json(doc) == graph


# ------------------------------------------------------------- wall ledger


def test_ledger_splits_free_spans():
    ledger = _WallLedger()
    wall = (False, 0, 0, 6000)
    assert ledger.free_spans(wall) == [(0, 6000)]
    ledger.occupy(wall, 2000, 3000)
    assert ledger.free_spans(wall) == [(0, 2000), (3000, 6000)]
    # Occupation is per line, so a collinear wall sees the same blocks.
    other = (False, 0, 1000, 2500)
    assert ledger.free_spans(other) == [(1000, 2000)]


# ------------------------------------------------------------------- doors


def trio_doors(seed: int = 1):
    cfg = cfg_with_doors()
    graph = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(seed), cfg)
    return place_doors(*TRIO, graph, TRIO_BOX, RandomStream(seed), cfg), graph


def test_entry_door_on_longest_exterior_living_wall():
    (openings, _), graph = trio_doors()
    entry = openings[0]
    assert entry.kind == ENTRY_DOOR
    assert entry.rooms == (OUTSIDE_ID, 0)
    # The living room's west wall is its longest exterior run (6 m).
    assert not entry.wall.horizontal and entry.wall.a.x == 0
    _, lo, hi = entry.mm()
    assert 0 <= lo and hi <= 6000 and hi - lo == 900


def test_one_door_per_interior_edge():
    (openings, _), graph = trio_doors()
    interior = [o for o in openings if o.kind == DOOR]
    assert {o.rooms for o in interior} == {(0, 1), (0, 2)}
    assert all(o.width == CFG.door_width for o in openings)


def test_doors_deterministic():
    first, _ = trio_doors(seed=7)
    second, _ = trio_doors(seed=7)
    assert first[0] == second[0]


def test_door_positions_vary_with_stream():
    positions = set()
    for seed in range(8):
        (openings, _), _ = trio_doors(seed=seed)
        positions.add(openings[0].mm())
    assert len(positions) > 1


# ----------------------------------------------------------------- windows


def test_windows_skip_banned_kinds():
    rooms = grid_rooms(
        (0, K.LIVING_ROOM, 0, 0, 3, 6),
        (1, K.KITCHEN, 3, 0, 3, 3),
        (2, K.BATHROOM, 3, 3, 3, 3),
    )
    cfg = cfg_with_doors()
    graph = build_connection_graph(*rooms, {1: 0, 2: 0}, 0, RandomStream(3), cfg)
    _, ledger = place_doors(*rooms, graph, TRIO_BOX, RandomStream(3), cfg)
    windows = place_windows(*rooms, TRIO_BOX, ledger, RandomStream(3), cfg)
    assert {o.rooms[0] for o in windows} == {0, 1}
    for window in windows:
        assert window.kind == WINDOW
        assert window.rooms[1] == OUTSIDE_ID
        assert window.width == cfg.window_width


def test_windows_do_not_collide_with_doors():
    cfg = cfg_with_doors()
    graph = build_connection_graph(*TRIO, TRIO_PARENTS, 0, RandomStream(5), cfg)
    doors, ledger = place_doors(*TRIO, graph, TRIO_BOX, RandomStream(5), cfg)
    windows = place_windows(*TRIO, TRIO_BOX, ledger, RandomStream(5), cfg)
    assert len(windows) == 3
    by_line: dict[tuple, list[tuple[int, int]]] = {}
    for opening in doors + windows:
        wall, lo, hi = opening.mm()
        by_line.setdefault(wall[:2], []).append((lo, hi))
    for intervals in by_line.values():
        intervals.sort()
        for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
            assert ahi <= blo


# -------------------------------------------------------------- validation


def hand_plan(rooms, openings, edges, footprint) -> FloorPlan:
    return FloorPlan(
        seed=0,
        config_fingerprint="0" * 16,
        footprint=footprint,
        rooms=tuple(rooms),
        corridor=None,
        openings=tuple(openings),
        graph=ConnectionGraph(
            frozenset({OUTSIDE_ID, *(r.id for r in rooms)}), tuple(sorted(edges))
        ),
        attempts=1,
        corridor_candidates=0,
    )


def make_room(rid: int, kind: RoomKind, x, y, w, h) -> Room:
    corners = (Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h))
    return Room(rid, kind, RectilinearPolygon(corners), float(w * h))


def door(wall: Segment, offset: float, rooms: tuple[int, int], kind: str = DOOR) -> Opening:
    return Opening(kind, wall, offset, 0.9, rooms)


def test_validate_accepts_clean_hand_plan():
    rooms = [
        make_room(0, K.LIVING_ROOM, 0, 0, 3, 6),
        make_room(1, K.KITCHEN, 3, 0, 3, 3),
        make_room(2, K.DINING_ROOM, 3, 3, 3, 3),
    ]
    openings = [
        door(Segment(Point(0, 0), Point(0, 6)), 1.0, (OUTSIDE_ID, 0), ENTRY_DOOR),
        door(Segment(Point(3, 0), Point(3, 3)), 1.0, (0, 1)),
        door(Segment(Point(3, 3), Point(3, 6)), 1.0, (0, 2)),
    ]
    plan = hand_plan(rooms, openings, [(OUTSIDE_ID, 0), (0, 1), (0, 2)], TRIO_FP)
    report = validate(plan, CFG)
    assert report.ok and report.failures == ()
    assert report.to_json() == {"ok": True, "failures": []}


def test_validate_rejects_prohibited_bedroom_door():
    rooms = [
        make_room(0, K.LIVING_ROOM, 0, 0, 3, 6),
        make_room(1, K.BEDROOM, 3, 0, 3, 3),
        make_room(2, K.BEDROOM, 3, 3, 3, 3),
    ]
    openings = [
        door(Segment(Point(0, 0), Point(0, 6)), 1.0, (OUTSIDE_ID, 0), ENTRY_DOOR),
        door(Segment(Point(3, 0), Point(3, 3)), 1.0, (0, 1)),
        door(Segment(Point(3, 3), Point(6, 3)), 1.0, (1, 2)),
    ]
    plan = hand_plan(rooms, openings, [(OUTSIDE_ID, 0), (0, 1), (1, 2)], TRIO_FP)
    report = validate(plan)
    assert list(report.failures) == ["prohibited door between 1 (bedroom) and 2 (bedroom)"]


def test_validate_rejects_bridging_bathroom():
    fp = Rect(0, 0, 6, 9)
    rooms = [
        make_room(0, K.LIVING_ROOM, 0, 0, 3, 9),
        make_room(1, K.BEDROOM, 3, 6, 3, 3),
        make_room(2, K.BATHROOM, 3, 3, 3, 3),
        make_room(3, K.BEDROOM, 3, 0, 3, 3),
    ]
    openings = [
        door(Segment(Point(0, 0), Point(0, 9)), 1.0, (OUTSIDE_ID, 0), ENTRY_DOOR),
        door(Segment(Point(3, 6), Point(3, 9)), 1.0, (0, 1)),
        door(Segment(Point(3, 0), Point(3, 3)), 1.0, (0, 3)),
        door(Segment(Point(3, 6), Point(6, 6)), 1.0, (1, 2)),
        door(Segment(Point(3, 3), Point(6, 3)), 1.0, (2, 3)),
    ]
    edges = [(OUTSIDE_ID, 0), (0, 1), (0, 3), (1, 2), (2, 3)]
    report = validate(hand_plan(rooms, openings, edges, fp))
    assert any("bathroom 2 bridges bedrooms [1, 3]" in f for f in report.failures)


def trio_with_dining_at(x: float) -> FloorPlan:
    """TRIO with the dining room moved to ``x``, doors where they were."""
    rooms = [
        make_room(0, K.LIVING_ROOM, 0, 0, 3, 6),
        make_room(1, K.KITCHEN, 3, 0, 3, 3),
        make_room(2, K.DINING_ROOM, x, 3, 3, 3),
    ]
    openings = [
        door(Segment(Point(0, 0), Point(0, 6)), 1.0, (OUTSIDE_ID, 0), ENTRY_DOOR),
        door(Segment(Point(3, 0), Point(3, 3)), 1.0, (0, 1)),
        door(Segment(Point(3, 3), Point(3, 6)), 1.0, (0, 2)),
    ]
    return hand_plan(rooms, openings, [(OUTSIDE_ID, 0), (0, 1), (0, 2)], TRIO_FP)


def test_validate_names_overlapping_rooms_and_their_door():
    # The dining room slides into the living room; the areas still sum to
    # the footprint, and the door's wall is no longer a shared wall.
    assert list(validate(trio_with_dining_at(2.0), CFG).failures) == [
        "overlap: rooms 0 and 2",
        "door between 0 and 2 is not on their shared wall",
    ]


def test_validate_names_the_room_leaving_the_footprint():
    assert list(validate(trio_with_dining_at(3.5), CFG).failures) == [
        "containment: room 2 leaves the footprint",
        "door between 0 and 2 is not on their shared wall",
    ]


@pytest.fixture(scope="module")
def sample_plan() -> FloorPlan:
    for seed in range(64):
        try:
            plan = generate(seed)
        except Exception:
            continue
        has_window = any(o.kind == WINDOW for o in plan.openings)
        has_door = any(o.kind == DOOR for o in plan.openings)
        if has_window and has_door:
            return plan
    raise RuntimeError("no suitable sample plan in the first 64 seeds")


def test_generated_plans_validate(sample_plan):
    assert validate(sample_plan, CFG).ok


def test_validate_catches_missing_entry(sample_plan):
    broken = dataclasses.replace(
        sample_plan,
        openings=tuple(o for o in sample_plan.openings if o.kind != ENTRY_DOOR),
    )
    failures = validate(broken).failures
    assert any("no entry door" in f for f in failures)


def test_validate_catches_dropped_door(sample_plan):
    doors = [o for o in sample_plan.openings if o.kind == DOOR]
    broken = dataclasses.replace(
        sample_plan,
        openings=tuple(o for o in sample_plan.openings if o is not doors[0]),
    )
    failures = validate(broken).failures
    assert any("do not match the connection graph" in f for f in failures)


def test_validate_catches_shifted_room(sample_plan):
    victim = sample_plan.rooms[-1]
    moved = dataclasses.replace(
        victim,
        polygon=type(victim.polygon)(
            tuple(Point(p.x + 0.4, p.y) for p in victim.polygon.vertices)
        ),
    )
    broken = dataclasses.replace(
        sample_plan, rooms=sample_plan.rooms[:-1] + (moved,)
    )
    failures = validate(broken).failures
    assert any("overlap" in f or "containment" in f or "partition" in f for f in failures)


def test_validate_catches_interior_entry(sample_plan):
    entry = next(o for o in sample_plan.openings if o.kind == ENTRY_DOOR)
    if entry.wall.horizontal:
        inner = Segment(
            Point(entry.wall.a.x, entry.wall.a.y + 0.5),
            Point(entry.wall.b.x, entry.wall.b.y + 0.5),
        )
    else:
        inner = Segment(
            Point(entry.wall.a.x + 0.5, entry.wall.a.y),
            Point(entry.wall.b.x + 0.5, entry.wall.b.y),
        )
    moved = dataclasses.replace(entry, wall=inner)
    broken = dataclasses.replace(
        sample_plan,
        openings=tuple(moved if o is entry else o for o in sample_plan.openings),
    )
    failures = validate(broken).failures
    assert any("entry door not on the footprint boundary" in f for f in failures)


def test_validate_catches_isolated_room(sample_plan):
    victim = next(o for o in sample_plan.openings if o.kind == DOOR).rooms
    broken = dataclasses.replace(
        sample_plan,
        openings=tuple(
            o
            for o in sample_plan.openings
            if o.kind == WINDOW or victim[0] not in o.rooms and victim[1] not in o.rooms
        ),
    )
    failures = validate(broken).failures
    assert any("do not match" in f for f in failures) or any(
        "disconnected" in f for f in failures
    )


def test_validate_enforces_window_ban(sample_plan):
    window = next(o for o in sample_plan.openings if o.kind == WINDOW)
    kind = next(r.kind for r in sample_plan.rooms if r.id == window.rooms[0])
    strict = GenConfig(window_banned=(kind,))
    failures = validate(sample_plan, strict).failures
    assert any("window in banned kind" in f for f in failures)


def _notch_kitchen(doc: dict) -> None:
    """Cut a 4 mm x 4 mm notch from the kitchen's corner at the footprint's (x1, y)."""
    kitchen = doc["rooms"][1]
    assert kitchen["kind"] == "kitchen" and kitchen["polygon"][1] == [5.568, 0.0]
    kitchen["polygon"][1:2] = [[5.564, 0.0], [5.564, 0.004], [5.568, 0.004]]


def _split_kitchen(doc: dict) -> None:
    """Split the kitchen at y = 1.5 m into two rooms that both keep id 1.

    The door moves onto the upper half's wall, so the plan is consistent if
    only the last room listed under id 1 is looked at.
    """
    kitchen = doc["rooms"][1]
    assert kitchen["kind"] == "kitchen" and kitchen["polygon"][0] == [3.095, 0.0]
    lower = dict(kitchen, polygon=[[3.095, 0.0], [5.568, 0.0], [5.568, 1.5], [3.095, 1.5]])
    upper = dict(kitchen, polygon=[[3.095, 1.5], [5.568, 1.5], [5.568, 3.126], [3.095, 3.126]])
    doc["rooms"][1:2] = [lower, upper]
    door = doc["openings"][1]
    assert door["kind"] == "door" and door["rooms"] == [0, 1]
    door.update(wall=[[3.095, 1.5], [3.095, 3.126]], offset=0.2)


@pytest.mark.parametrize(
    "mutate, failure",
    [
        pytest.param(_notch_kitchen, "partition: room areas sum to", id="notched-kitchen"),
        pytest.param(_split_kitchen, "room id 1 is listed 2 times", id="duplicate-room-id"),
        pytest.param(
            lambda d: d["openings"][1].update(kind="portal"),
            "unknown opening kind 'portal'",
            id="unknown-kind",
        ),
        pytest.param(
            lambda d: d["connection_graph"].update(nodes=[]),
            "connection graph nodes are not the rooms plus outside",
            id="no-nodes",
        ),
        pytest.param(
            lambda d: d["openings"][1].update(rooms=[99, 0]),
            "door names unknown room 99",
            id="unknown-room",
        ),
        pytest.param(
            lambda d: d["openings"][1].update(width=0.3),
            "opening width: door (0, 1) is 300 mm, not 900 mm",
            id="narrow-door",
        ),
        pytest.param(
            lambda d: d["openings"][2].update(width=0.05),
            "opening width: window (0, -1) is 50 mm, not 1200 mm",
            id="narrow-window",
        ),
        pytest.param(
            lambda d: d.update(corridor=[[3.5, 0.5], [4.5, 0.5], [4.5, 1.5], [3.5, 1.5]]),
            "corridor not inside the living room",
            id="corridor-in-kitchen",
        ),
        pytest.param(
            lambda d: (
                d.update(corridor=[[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]),
                d["rooms"][0].update(kind="dining_room"),
            ),
            "corridor not inside the living room",
            id="corridor-without-living-room",
        ),
        # A window or entry door on a footprint line, but off its room's exterior walls.
        pytest.param(
            lambda d: d["openings"][2].update(wall=[[10.0, 3.126], [20.0, 3.126]]),
            "window not on an exterior wall of room 0",
            id="window-beyond-footprint",
        ),
        pytest.param(
            lambda d: (d["openings"][2].update(rooms=[1, -1]), d["openings"][3].update(rooms=[0, -1])),
            "window not on an exterior wall of room 1",
            id="windows-swapped",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(wall=[[5.568, 0.0], [5.568, 3.126]], offset=2.2),
            "entry door not on an exterior wall of room 0",
            id="entry-on-kitchen-wall",
        ),
    ],
)
def test_validate_rejects_mutated_golden_plan(mutate, failure):
    doc = json.loads((Path(__file__).parent / "data" / "plan-seed1.json").read_text())
    assert validate(from_json(json.dumps(doc)), CFG).ok
    mutate(doc)
    failures = validate(from_json(json.dumps(doc)), CFG).failures
    assert any(f.startswith(failure) for f in failures), failures
