"""Corridor stage: wall graph, pruning, routing, candidate selection.

Two hand-built tilings anchor the exact assertions.  In the "pin" layout the
stranded bathroom meets the living room at a single corner, so routing
degenerates to an anchor vertex and candidates are borrowed incident walls.
In the "strip" layout the stranded bedroom sits across a dining room and the
optimal corridor is a single 1 m x 3 m strip whose location is forced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.corridor import (
    CorridorError,
    EdgeAction,
    WallGraph,
    build_wall_graph,
    identify_corridor_rooms,
    plan_corridor,
    prune,
    route,
)
from planwright.corridor import _contact_vertices
from planwright.geometry import Rect, Region, mm_box
from planwright.sampling import GenConfig, RandomStream, RoomKind
from planwright.treemap import LayoutRequest, squarify

from oracles import shortest_path_bruteforce

CFG = GenConfig()

K = RoomKind


def seg(ax: float, ay: float, bx: float, by: float) -> tuple[int, int, int, int]:
    """A wall-graph edge in mm from its end points in metres."""
    return tuple(round(v * 1000) for v in (ax, ay, bx, by))


def box(x: float, y: float, w: float, h: float) -> tuple[int, int, int, int]:
    return mm_box(Rect(x, y, w, h))


def room(rid: int, kind: RoomKind, x: float, y: float, w: float, h: float):
    return (rid, kind, box(x, y, w, h))


def degrees_of(edges) -> dict[tuple[int, int], int]:
    degrees: dict[tuple[int, int], int] = {}
    for ax, ay, bx, by in edges:
        for v in ((ax, ay), (bx, by)):
            degrees[v] = degrees.get(v, 0) + 1
    return degrees


def path_mm(path) -> int:
    return sum(bx - ax + by - ay for ax, ay, bx, by in path.edges)


# Bathroom touches the living room only at the corner (3, 3).
PIN_FOOTPRINT = box(0, 0, 8, 6)
PIN_ROOMS = [
    room(0, K.LIVING_ROOM, 0, 0, 3, 3),
    room(1, K.KITCHEN, 3, 0, 5, 3),
    room(2, K.BEDROOM, 0, 3, 3, 3),
    room(3, K.BATHROOM, 3, 3, 5, 3),
]
PIN_PARENTS = {1: 0, 2: 0, 3: 0}

# Bedroom is separated from the living room by the kitchen/dining column.
STRIP_FOOTPRINT = box(0, 0, 9, 6)
STRIP_ROOMS = [
    room(0, K.LIVING_ROOM, 0, 0, 3, 6),
    room(1, K.KITCHEN, 3, 0, 3, 3),
    room(2, K.DINING_ROOM, 3, 3, 3, 3),
    room(3, K.BEDROOM, 6, 0, 3, 6),
]
STRIP_PARENTS = {1: 0, 2: 0, 3: 0}


def grid_layout(n: int, size: float = 3.0):
    """n x n grid of identical rooms; the wall graph is a full lattice."""
    rooms = []
    for row in range(n):
        for col in range(n):
            rooms.append(room(row * n + col, K.BEDROOM, col * size, row * size, size, size))
    return box(0, 0, n * size, n * size), rooms


def graph_to_oracle_edges(graph: WallGraph):
    return [((ax, ay), (bx, by), bx - ax + by - ay) for ax, ay, bx, by in graph.edges]


# ---------------------------------------------------------------- detection


def test_identify_flags_corner_contact_only():
    assert identify_corridor_rooms(PIN_ROOMS, PIN_PARENTS, CFG) == {3}
    assert identify_corridor_rooms(STRIP_ROOMS, STRIP_PARENTS, CFG) == {3}


def test_identify_accepts_door_width_contact():
    # 0.9 m of shared wall is exactly enough for a door.
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 3),
        room(1, K.BEDROOM, 3, 2.1, 3, 3),
    ]
    assert identify_corridor_rooms(rooms, {1: 0}, CFG) == set()
    rooms[1] = room(1, K.BEDROOM, 3, 2.2, 3, 3)
    assert identify_corridor_rooms(rooms, {1: 0}, CFG) == {1}


def test_identify_ignores_parents_outside_layout():
    rooms = [room(0, K.LIVING_ROOM, 0, 0, 3, 3)]
    assert identify_corridor_rooms(rooms, {0: 99}, CFG) == set()


# --------------------------------------------------------------- wall graph


def test_wall_graph_pin_layout():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS, frozenset({3}))
    expected = {
        seg(3, 0, 3, 3),
        seg(3, 3, 3, 6),
        seg(0, 3, 3, 3),
        seg(3, 3, 8, 3),
    }
    assert set(graph.edges) == expected
    assert len(graph.vertices) == 5
    assert graph.terminals == frozenset({3})


def test_wall_graph_excludes_footprint_boundary():
    # Two rooms: the only interior wall is the one between them.
    fp = box(0, 0, 6, 4)
    rooms = [room(0, K.LIVING_ROOM, 0, 0, 3, 4), room(1, K.KITCHEN, 3, 0, 3, 4)]
    graph = build_wall_graph(fp, rooms)
    assert set(graph.edges) == {seg(3, 0, 3, 4)}


def test_wall_graph_splits_runs_at_junctions():
    # The long wall at x=3 is split where the y=2 wall meets it.
    fp = box(0, 0, 6, 4)
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 4),
        room(1, K.KITCHEN, 3, 0, 3, 2),
        room(2, K.BEDROOM, 3, 2, 3, 2),
    ]
    graph = build_wall_graph(fp, rooms)
    assert set(graph.edges) == {seg(3, 0, 3, 2), seg(3, 2, 3, 4), seg(3, 2, 6, 2)}


def test_wall_graph_grid_lattice():
    fp, rooms = grid_layout(3)
    graph = build_wall_graph(fp, rooms)
    # Two vertical and two horizontal lines, each split into three edges.
    assert len(graph.edges) == 12
    degrees = degrees_of(graph.edges)
    # Eight stubs end on the boundary; four full crossings sit inside.
    assert sorted(degrees.values()) == [1] * 8 + [4] * 4


# ------------------------------------------------------------------ pruning


def test_prune_peels_tree_to_nothing():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS, frozenset({3}))
    pruned = prune(graph)
    assert pruned.edges == ()
    assert pruned.vertices == ()
    assert pruned.terminals == graph.terminals


def test_prune_keeps_interior_ring():
    fp, rooms = grid_layout(3)
    pruned = prune(build_wall_graph(fp, rooms))
    # The boundary stubs peel away; the walls of the centre room survive.
    assert set(pruned.edges) == {
        seg(3, 3, 6, 3),
        seg(3, 6, 6, 6),
        seg(3, 3, 3, 6),
        seg(6, 3, 6, 6),
    }


def test_prune_idempotent_on_fixtures():
    for fp, rooms in [(PIN_FOOTPRINT, PIN_ROOMS), grid_layout(3), grid_layout(4)]:
        pruned = prune(build_wall_graph(fp, rooms))
        assert prune(pruned).edges == pruned.edges


@st.composite
def random_layouts(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    areas = [draw(st.floats(min_value=1.0, max_value=30.0)) for _ in range(n)]
    aspect = draw(st.floats(min_value=1.0, max_value=2.0))
    total = sum(areas)
    h = (total / aspect) ** 0.5
    fp = Rect(0, 0, aspect * h, h)
    rects = squarify(LayoutRequest(fp, tuple(enumerate(areas))))
    rooms = [(i, K.BEDROOM, mm_box(r)) for i, r in enumerate(rects)]
    return mm_box(fp), rooms


@settings(max_examples=150, deadline=None)
@given(random_layouts())
def test_prune_two_core_property(layout):
    fp, rooms = layout
    graph = build_wall_graph(fp, rooms)
    pruned = prune(graph)
    assert set(pruned.edges) <= set(graph.edges)
    degrees = degrees_of(pruned.edges)
    assert all(d >= 2 for d in degrees.values())
    again = prune(pruned)
    assert again.edges == pruned.edges and again.vertices == pruned.vertices


# ------------------------------------------------------------------ routing


def test_route_corner_contact_yields_anchor():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS)
    sets = [
        (0, _contact_vertices(graph, PIN_ROOMS[0][2])),
        (3, _contact_vertices(graph, PIN_ROOMS[3][2])),
    ]
    path = route(graph, sets)
    assert path.edges == ()
    assert path.anchor == (3000, 3000)


def test_route_single_edge_path():
    graph = build_wall_graph(STRIP_FOOTPRINT, STRIP_ROOMS)
    sets = [
        (0, _contact_vertices(graph, STRIP_ROOMS[0][2])),
        (3, _contact_vertices(graph, STRIP_ROOMS[3][2])),
    ]
    path = route(graph, sets)
    assert path.edges == (seg(3, 3, 6, 3),)
    assert path.anchor is None
    assert path_mm(path) == 3000


def test_route_across_grid_matches_bruteforce():
    fp, rooms = grid_layout(3)
    graph = build_wall_graph(fp, rooms)
    # Opposite corners of the grid: vertex-disjoint contact sets.
    a = _contact_vertices(graph, rooms[0][2])
    b = _contact_vertices(graph, rooms[8][2])
    path = route(graph, [(0, a), (8, b)])
    cost = shortest_path_bruteforce(graph_to_oracle_edges(graph), a, b)
    assert cost == 6000
    assert path_mm(path) == cost


def test_route_raises_when_sets_empty_or_unreachable():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS)
    with pytest.raises(CorridorError):
        route(graph, [(0, frozenset()), (3, frozenset({(3000, 3000)}))])
    # Two parallel walls with nothing joining them.
    fp = box(0, 0, 9, 3)
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 3),
        room(1, K.KITCHEN, 3, 0, 3, 3),
        room(2, K.BEDROOM, 6, 0, 3, 3),
    ]
    split = build_wall_graph(fp, rooms)
    sets = [
        (0, _contact_vertices(split, rooms[0][2])),
        (2, _contact_vertices(split, rooms[2][2])),
    ]
    with pytest.raises(CorridorError):
        route(split, sets)


@settings(max_examples=100, deadline=None)
@given(random_layouts())
def test_route_length_matches_bruteforce(layout):
    fp, rooms = layout
    graph = build_wall_graph(fp, rooms)
    if len(graph.edges) == 0 or len(graph.edges) > 12:
        return
    a = _contact_vertices(graph, rooms[0][2])
    b = _contact_vertices(graph, rooms[-1][2])
    if not a or not b:
        return
    cost = shortest_path_bruteforce(graph_to_oracle_edges(graph), a, b)
    if cost is None:
        with pytest.raises(CorridorError):
            route(graph, [(0, a), (len(rooms) - 1, b)])
        return
    path = route(graph, [(0, a), (len(rooms) - 1, b)])
    assert path_mm(path) == cost


# ------------------------------------------------------------ edge actions


def test_edge_action_ordering():
    keep = EdgeAction()
    ext_hi = EdgeAction(extend_hi=900)
    ext_lo = EdgeAction(extend_lo=900)
    shift_pos = EdgeAction(shift=1000)
    shift_neg = EdgeAction(shift=-1000)
    far = EdgeAction(shift=-2000)
    ordered = sorted([far, shift_neg, ext_lo, keep, shift_pos, ext_hi], key=EdgeAction.sort_key)
    assert ordered == [keep, ext_hi, ext_lo, shift_pos, shift_neg, far]


def test_edge_action_json():
    # Actions hold mm; the trace reports metres.
    act = EdgeAction(shift=-1000, extend_lo=900)
    assert act.to_json() == {"shift": -1.0, "extend_lo": 0.9, "extend_hi": 0.0}


# ------------------------------------------------------- end-to-end planning


def test_plan_corridor_identity_when_all_adjacent():
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 6),
        room(1, K.KITCHEN, 3, 0, 3, 3),
        room(2, K.DINING_ROOM, 3, 3, 3, 3),
    ]
    result = plan_corridor(box(0, 0, 6, 6), rooms, {1: 0, 2: 0}, 0, CFG)
    assert result.corridor is None
    assert result.reparented == ()
    assert result.trace["corridor_rooms"] == 0
    assert [rid for rid, _, _ in result.rooms] == [0, 1, 2]
    for (_, placed_kind, (x0, y0, x1, y1)), (_, kind, region) in zip(rooms, result.rooms):
        assert kind is placed_kind
        assert region.area == (x1 - x0) * (y1 - y0)


def region_equal(a: Region, b: Region) -> bool:
    return a.subtract(b).is_empty and b.subtract(a).is_empty


def test_plan_corridor_strip_layout_winner():
    result = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG)
    assert result.reparented == (3,)
    # The cheapest corridor thickens the routed wall in place: 1 m x 3 m.
    assert result.corridor is not None
    assert result.corridor.area == pytest.approx(3.0)
    assert region_equal(Region.from_polygon(result.corridor), Region.from_rect(Rect(3, 3, 3, 1)))
    # The dining room lost the strip to the living room, nobody else changed.
    areas = {rid: region.area for rid, _, region in result.rooms}
    assert areas == {0: 21_000_000, 1: 9_000_000, 2: 6_000_000, 3: 18_000_000}
    trace = result.trace
    assert trace["routed_on_pruned"] is False
    assert trace["path_edges"] == 1
    assert trace["winner_area"] == pytest.approx(3.0)
    # One edge, four variants: keep, lengthen, flip+lengthen, plain flip.
    summary = [(c["area"], c["valid"]) for c in trace["candidates"]]
    assert sorted(summary) == [(3.0, True), (3.0, True), (3.9, True), (3.9, True)]
    # The all-zero action wins its area tie against the side flip.
    winners = [c for c in trace["candidates"] if c["valid"] and c["area"] == trace["winner_area"]]
    assert any(
        all(a == {"shift": 0.0, "extend_lo": 0.0, "extend_hi": 0.0} for a in c["actions"])
        for c in winners
    )


def test_plan_corridor_pin_layout_borrows_incident_walls():
    result = plan_corridor(PIN_FOOTPRINT, PIN_ROOMS, PIN_PARENTS, 0, CFG)
    assert result.reparented == (3,)
    assert result.trace["path_edges"] == 0
    assert result.trace["graph_edges"] == 4
    assert result.trace["pruned_edges"] == 0
    assert result.corridor is not None
    # Each borrowed wall yields a 3 m strip; no cheaper corridor exists.
    assert result.trace["winner_area"] == pytest.approx(3.0)


def test_plan_corridor_winner_is_linear_scan_minimum():
    for fp, rooms, parents in [
        (PIN_FOOTPRINT, PIN_ROOMS, PIN_PARENTS),
        (STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS),
    ]:
        trace = plan_corridor(fp, rooms, parents, 0, CFG).trace
        valid = [c["area"] for c in trace["candidates"] if c["valid"]]
        assert valid
        assert trace["winner_area"] == pytest.approx(min(valid))


def test_plan_corridor_conserves_area():
    # The room polygons still tile the footprint after extrusion; the
    # corridor is counted inside the living room, not beside it.
    for fp, rooms, parents, living in [
        (PIN_FOOTPRINT, PIN_ROOMS, PIN_PARENTS, 0),
        (STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0),
    ]:
        result = plan_corridor(fp, rooms, parents, living, CFG)
        total = sum(region.area for _, _, region in result.rooms)
        x0, y0, x1, y1 = fp
        assert total == (x1 - x0) * (y1 - y0)
        regions = {rid: region for rid, _, region in result.rooms}
        ids = sorted(regions)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert regions[a].intersect(regions[b]).is_empty
        corridor = Region.from_polygon(result.corridor)
        assert corridor.subtract(regions[living]).is_empty


def test_plan_corridor_raises_on_disconnected_walls():
    fp = box(0, 0, 9, 3)
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 3),
        room(1, K.KITCHEN, 3, 0, 3, 3),
        room(2, K.BEDROOM, 6, 0, 3, 3),
    ]
    with pytest.raises(CorridorError):
        plan_corridor(fp, rooms, {1: 0, 2: 0}, 0, CFG)


def test_plan_corridor_deterministic():
    first = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG)
    second = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG)
    assert first.trace == second.trace
    assert first.corridor.vertices == second.corridor.vertices
    assert [(rid, region.to_polygon()) for rid, _, region in first.rooms] == [
        (rid, region.to_polygon()) for rid, _, region in second.rooms
    ]
