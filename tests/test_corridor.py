"""Corridor stage: wall graph, routing, candidate selection.

Two hand-built tilings anchor the exact assertions.  In the "pin" layout the
stranded bathroom meets the living room at a single corner, so routing
degenerates to an anchor vertex and candidates are borrowed incident walls.
In the "strip" layout the stranded bedroom sits across a dining room and the
optimal corridor is a single 1 m x 3 m strip whose location is forced.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planwright.corridor
from planwright.corridor import (
    CorridorError,
    EdgeAction,
    build_wall_graph,
    identify_corridor_rooms,
    plan_corridor,
    route,
)
from planwright.corridor import (
    _boxes_connected,
    _boxes_pass,
    _contact_vertices,
    _peculiar,
    _room_verdict,
    _union_area,
)
from planwright.geometry import Grid, mm_box
from planwright.sampling import GenConfig, RandomStream, RoomKind
from planwright.treemap import squarify

import oracles
from oracles import CellRegion, shortest_path_bruteforce

CFG = GenConfig()

K = RoomKind


def seg(ax: float, ay: float, bx: float, by: float) -> tuple[int, int, int, int]:
    """A wall-graph edge in mm from its end points in metres."""
    return tuple(round(v * 1000) for v in (ax, ay, bx, by))


def box(x: float, y: float, w: float, h: float) -> tuple[int, int, int, int]:
    return mm_box((x, y, w, h))


def room(rid: int, kind: RoomKind, x: float, y: float, w: float, h: float):
    return (rid, kind, box(x, y, w, h))


def boxes_of(rooms) -> dict[int, tuple[int, int, int, int]]:
    return {rid: b for rid, _, b in rooms}


def degrees_of(edges) -> dict[tuple[int, int], int]:
    degrees: dict[tuple[int, int], int] = {}
    for ax, ay, bx, by in edges:
        for v in ((ax, ay), (bx, by)):
            degrees[v] = degrees.get(v, 0) + 1
    return degrees


def path_mm(path) -> int:
    return sum(bx - ax + by - ay for ax, ay, bx, by in path[0])


def contacts(graph, box) -> frozenset[tuple[int, int]]:
    """The graph's vertices on the box's boundary."""
    return _contact_vertices(set(degrees_of(graph)), box)


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


def graph_to_oracle_edges(graph):
    return [((ax, ay), (bx, by), bx - ax + by - ay) for ax, ay, bx, by in graph]


# ---------------------------------------------------------------- detection


def test_identify_flags_corner_contact_only():
    assert identify_corridor_rooms(boxes_of(PIN_ROOMS), PIN_PARENTS, CFG) == {3}
    assert identify_corridor_rooms(boxes_of(STRIP_ROOMS), STRIP_PARENTS, CFG) == {3}


def test_identify_accepts_door_width_contact():
    # 0.9 m of shared wall is exactly enough for a door.
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 3),
        room(1, K.BEDROOM, 3, 2.1, 3, 3),
    ]
    assert identify_corridor_rooms(boxes_of(rooms), {1: 0}, CFG) == set()
    rooms[1] = room(1, K.BEDROOM, 3, 2.2, 3, 3)
    assert identify_corridor_rooms(boxes_of(rooms), {1: 0}, CFG) == {1}


def test_identify_ignores_parents_outside_layout():
    rooms = [room(0, K.LIVING_ROOM, 0, 0, 3, 3)]
    assert identify_corridor_rooms(boxes_of(rooms), {0: 99}, CFG) == set()


# --------------------------------------------------------------- wall graph


def test_wall_graph_pin_layout():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS)
    expected = {
        seg(3, 0, 3, 3),
        seg(3, 3, 3, 6),
        seg(0, 3, 3, 3),
        seg(3, 3, 8, 3),
    }
    assert set(graph) == expected
    assert len(degrees_of(graph)) == 5


def test_wall_graph_excludes_footprint_boundary():
    # Two rooms: the only interior wall is the one between them.
    fp = box(0, 0, 6, 4)
    rooms = [room(0, K.LIVING_ROOM, 0, 0, 3, 4), room(1, K.KITCHEN, 3, 0, 3, 4)]
    graph = build_wall_graph(fp, rooms)
    assert set(graph) == {seg(3, 0, 3, 4)}


def test_wall_graph_splits_runs_at_junctions():
    # The long wall at x=3 is split where the y=2 wall meets it.
    fp = box(0, 0, 6, 4)
    rooms = [
        room(0, K.LIVING_ROOM, 0, 0, 3, 4),
        room(1, K.KITCHEN, 3, 0, 3, 2),
        room(2, K.BEDROOM, 3, 2, 3, 2),
    ]
    graph = build_wall_graph(fp, rooms)
    assert set(graph) == {seg(3, 0, 3, 2), seg(3, 2, 3, 4), seg(3, 2, 6, 2)}


def test_wall_graph_grid_lattice():
    fp, rooms = grid_layout(3)
    graph = build_wall_graph(fp, rooms)
    # Two vertical and two horizontal lines, each split into three edges.
    assert len(graph) == 12
    degrees = degrees_of(graph)
    # Eight stubs end on the boundary; four full crossings sit inside.
    assert sorted(degrees.values()) == [1] * 8 + [4] * 4


@st.composite
def random_layouts(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    areas = [draw(st.floats(min_value=1.0, max_value=30.0)) for _ in range(n)]
    aspect = draw(st.floats(min_value=1.0, max_value=2.0))
    total = sum(areas)
    h = (total / aspect) ** 0.5
    fp = (0, 0, aspect * h, h)
    cuts = squarify(fp, tuple(enumerate(areas)))
    rooms = [(i, K.BEDROOM, mm_box(cut)) for i, cut in enumerate(cuts)]
    return mm_box(fp), rooms


# ------------------------------------------------------------------ routing


def test_route_corner_contact_yields_anchor():
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS)
    sets = [
        (0, contacts(graph, PIN_ROOMS[0][2])),
        (3, contacts(graph, PIN_ROOMS[3][2])),
    ]
    path = route(graph, sets)
    assert path[0] == ()
    assert path[1] == (3000, 3000)


def test_route_single_edge_path():
    graph = build_wall_graph(STRIP_FOOTPRINT, STRIP_ROOMS)
    sets = [
        (0, contacts(graph, STRIP_ROOMS[0][2])),
        (3, contacts(graph, STRIP_ROOMS[3][2])),
    ]
    path = route(graph, sets)
    assert path[0] == (seg(3, 3, 6, 3),)
    assert path[1] is None
    assert path_mm(path) == 3000


def test_route_across_grid_matches_bruteforce():
    fp, rooms = grid_layout(3)
    graph = build_wall_graph(fp, rooms)
    # Opposite corners of the grid: vertex-disjoint contact sets.
    a = contacts(graph, rooms[0][2])
    b = contacts(graph, rooms[8][2])
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
        (0, contacts(split, rooms[0][2])),
        (2, contacts(split, rooms[2][2])),
    ]
    with pytest.raises(CorridorError):
        route(split, sets)


@settings(max_examples=100, deadline=None)
@given(random_layouts())
def test_route_length_matches_bruteforce(layout):
    fp, rooms = layout
    graph = build_wall_graph(fp, rooms)
    if len(graph) == 0 or len(graph) > 12:
        return
    a = contacts(graph, rooms[0][2])
    b = contacts(graph, rooms[-1][2])
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
    result = plan_corridor(box(0, 0, 6, 6), rooms, {1: 0, 2: 0}, 0, CFG, trace=True)
    assert result.corridor is None
    assert result.reparented == ()
    assert result.trace["corridor_rooms"] == 0
    assert [rid for rid, _, _ in result.rooms] == [0, 1, 2]
    # The plan's grid is the footprint's and the rooms', one mask per room box.
    assert result.grid.xs == (0, 3000, 6000) and result.grid.ys == (0, 3000, 6000)
    for (_, placed_kind, placed), (_, kind, m) in zip(rooms, result.rooms):
        assert kind is placed_kind
        assert m == result.grid.mask(placed)


def area(grid: Grid, m: int) -> int:
    return CellRegion.from_mask(grid, m).area


def test_plan_corridor_strip_layout_winner():
    result = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG, trace=True)
    assert result.reparented == (3,)
    # The cheapest corridor thickens the routed wall in place: 1 m x 3 m.
    assert result.corridor is not None
    assert result.corridor.area_mm2 == 3_000_000
    assert result.corridor.mm == ((3000, 3000), (6000, 3000), (6000, 4000), (3000, 4000))
    # The dining room lost the strip to the living room, nobody else changed.
    areas = {rid: area(result.grid, m) for rid, _, m in result.rooms}
    assert areas == {0: 21_000_000, 1: 9_000_000, 2: 6_000_000, 3: 18_000_000}
    trace = result.trace
    # Routing runs on the full wall graph.
    graph = build_wall_graph(STRIP_FOOTPRINT, STRIP_ROOMS)
    assert trace["routing"]["edges"] == [list(e) for e in graph]
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
    result = plan_corridor(PIN_FOOTPRINT, PIN_ROOMS, PIN_PARENTS, 0, CFG, trace=True)
    assert result.reparented == (3,)
    assert result.trace["path_edges"] == 0
    assert result.trace["graph_edges"] == 4
    graph = build_wall_graph(PIN_FOOTPRINT, PIN_ROOMS)
    assert result.trace["routing"]["edges"] == [list(e) for e in graph]
    assert result.corridor is not None
    # Each borrowed wall yields a 3 m strip; no cheaper corridor exists.
    assert result.trace["winner_area"] == pytest.approx(3.0)


def test_plan_corridor_winner_is_linear_scan_minimum():
    for fp, rooms, parents in [
        (PIN_FOOTPRINT, PIN_ROOMS, PIN_PARENTS),
        (STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS),
    ]:
        trace = plan_corridor(fp, rooms, parents, 0, CFG, trace=True).trace
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
        grid = result.grid
        total = sum(area(grid, m) for _, _, m in result.rooms)
        x0, y0, x1, y1 = fp
        assert total == (x1 - x0) * (y1 - y0)
        masks = {rid: m for rid, _, m in result.rooms}
        ids = sorted(masks)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert masks[a] & masks[b] == 0
        corridor = CellRegion.from_polygon(result.corridor)
        assert corridor.subtract(CellRegion.from_mask(grid, masks[living])).is_empty
        assert grid.fill(result.corridor) & ~masks[living] == 0


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
    first = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG, trace=True)
    second = plan_corridor(STRIP_FOOTPRINT, STRIP_ROOMS, STRIP_PARENTS, 0, CFG, trace=True)
    assert first.trace == second.trace
    assert first.corridor.mm == second.corridor.mm
    assert [(rid, first.grid.outline(m)) for rid, _, m in first.rooms] == [
        (rid, second.grid.outline(m)) for rid, _, m in second.rooms
    ]


# ------------------------------------------------- box-level search checks


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@st.composite
def small_boxes(draw):
    """An mm box on a coarse 0.5 m lattice, so edges and corners coincide often."""
    x0 = draw(st.integers(0, 8))
    y0 = draw(st.integers(0, 8))
    w = draw(st.integers(1, 4))
    h = draw(st.integers(1, 4))
    return (x0 * 500, y0 * 500, (x0 + w) * 500, (y0 + h) * 500)


def test_boxes_pass_requires_living_room_contact():
    # Two strips inside the footprint that join each other but stop 2 m short
    # of the living room: the untraced search must drop them before ranking.
    ws = SimpleNamespace(fp_box=(0, 0, 10000, 6000), living_box=(0, 0, 4000, 6000))
    apart = [(6000, 0, 7000, 6000), (6000, 3000, 9000, 4000)]
    assert _boxes_connected(apart)
    assert not _boxes_pass(apart, ws)
    touching = [(4000, 0, 5000, 6000), (4000, 3000, 9000, 4000)]
    assert _boxes_pass(touching, ws)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_boxes(), min_size=1, max_size=7))
def test_box_connectivity_and_area_match_region(boxes):
    region = CellRegion.from_boxes(boxes)
    assert _boxes_connected(boxes) == region.connected()
    assert _union_area(boxes) == region.area


@settings(max_examples=300, deadline=None)
@given(
    small_boxes(),
    st.lists(small_boxes(), min_size=1, max_size=5),
    st.sampled_from([500, 1000, 1800]),
    st.sampled_from([1.5, 4.0]),
)
def test_room_remainder_matches_full_subtract(room, boxes, min_width, max_aspect):
    # The search takes a room's remainder as room & ~corridor on the search's
    # grid; every check it runs must read the same as on the full subtract.
    cfg = GenConfig(min_room_width=min_width / 1000, max_room_aspect=max_aspect)
    full = CellRegion.from_boxes([room]).subtract(CellRegion.from_boxes(boxes))
    grid = Grid([room, *boxes])
    corridor = union_mask(grid, boxes)
    after = grid.mask(room) & ~corridor
    local = CellRegion.from_mask(grid, after)
    # What the corridor takes from the room is the boxes clipped to it.
    clipped = [
        (max(b[0], room[0]), max(b[1], room[1]), min(b[2], room[2]), min(b[3], room[3]))
        for b in boxes
        if b[0] < room[2] and b[2] > room[0] and b[1] < room[3] and b[3] > room[1]
    ]
    assert grid.mask(room) & ~after == union_mask(grid, clipped)
    assert local.area == full.area
    assert local.connected() == full.connected() == grid.connected(after)
    assert _peculiar(after, grid, cfg) == oracles.peculiar(full, min_width, max_aspect)
    assert _outcome(lambda: grid.outline(after)) == _outcome(full.to_polygon)


def union_mask(grid: Grid, boxes) -> int:
    mask = 0
    for b in boxes:
        mask |= grid.mask(b)
    return mask


@settings(max_examples=400, deadline=None)
@given(
    st.lists(small_boxes(), min_size=1, max_size=6),
    st.lists(small_boxes(), min_size=1, max_size=4),
    st.lists(small_boxes(), max_size=3),
    st.sampled_from([500, 1000, 1800]),
    st.sampled_from([1.5, 4.0]),
)
def test_grid_masks_match_the_cell_set_oracle(a_boxes, b_boxes, spare, min_width, max_aspect):
    """Every shape test on the search grid reads as the cell-set Region does."""
    grid = Grid(a_boxes + b_boxes + spare)
    a = union_mask(grid, a_boxes)
    b = union_mask(grid, b_boxes) & ~a
    # The oracle on the very same cells, and on its own breakpoints.
    same = CellRegion.from_mask(grid, a)
    own = CellRegion.from_boxes(a_boxes)
    assert own.subtract(same).is_empty and same.subtract(own).is_empty
    # The winner's polygon: traced off the mask as off the cells.
    assert _outcome(lambda: grid.outline(a)) == _outcome(same.to_polygon)
    assert _outcome(lambda: grid.outline(a)) == _outcome(own.to_polygon)
    for oracle in (same, own):
        assert grid.connected(a) == oracle.connected()
        assert grid.pinch(a) == oracle.has_pinch()
        assert grid.full_rect(a) == oracle.full_rect_mm()
        assert grid.thickness(a) == oracle.thickness()
        assert grid.simple(a) == oracles.simple(oracle)
    # has_hole skips regions under 8 cells, a count that depends on the grid,
    # so only the oracle on the same cells reads the same when a pinch is there.
    assert grid.hole(a) == same.has_hole()
    if not grid.pinch(a):
        assert grid.hole(a) == own.has_hole()
    cfg = GenConfig(min_room_width=min_width / 1000, max_room_aspect=max_aspect)
    ws = SimpleNamespace(grid=grid, verdicts={}, cfg=cfg)
    assert _room_verdict(7, a, ws) == oracles.room_verdict(7, same, min_width, max_aspect)
    assert ws.verdicts == {(7, a): _room_verdict(7, a, ws)}
    # The door-width check: the longest wall run the two regions share.
    b_own = CellRegion.from_boxes(b_boxes).subtract(own)
    expected = own.shared_border_mm(b_own)
    assert grid.shared_border(a, b) == grid.shared_border(b, a) == expected
    assert expected == same.shared_border_mm(CellRegion.from_mask(grid, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identify_on_boxes_matches_regions(data):
    fp, rooms = data.draw(random_layouts())
    parent_of = {i: data.draw(st.integers(0, len(rooms))) for i in range(1, len(rooms))}
    door = data.draw(st.sampled_from([0.5, 0.9, 2.0]))
    cfg = GenConfig(door_width=door)
    regions = {rid: CellRegion.from_boxes([b]) for rid, _, b in rooms}
    expected = oracles.identify_corridor_rooms(regions, parent_of, cfg)
    assert identify_corridor_rooms(boxes_of(rooms), parent_of, cfg) == expected


@st.composite
def corridor_instances(draw):
    fp, rooms = draw(random_layouts())
    parent_of = {i: draw(st.integers(0, i - 1)) for i in range(1, len(rooms))}
    return fp, rooms, parent_of


@settings(max_examples=120, deadline=None)
@given(corridor_instances())
def test_plan_corridor_same_with_and_without_trace(instance):
    fp, rooms, parent_of = instance

    def run(trace: bool):
        try:
            return plan_corridor(fp, rooms, parent_of, 0, CFG, trace=trace)
        except CorridorError as exc:
            return str(exc)

    traced, plain = run(True), run(False)
    if isinstance(traced, str):
        assert plain == traced
        return
    assert plain.trace is None
    assert plain.corridor == traced.corridor
    assert plain.reparented == traced.reparented
    assert plain.candidates == traced.candidates == len(traced.trace["candidates"])
    assert [(rid, kind) for rid, kind, _ in plain.rooms] == [(rid, kind) for rid, kind, _ in traced.rooms]
    # Both searches lay every strip they can produce on the grid, so it is one grid.
    assert (plain.grid.xs, plain.grid.ys) == (traced.grid.xs, traced.grid.ys)
    assert plain.rooms == traced.rooms



@settings(max_examples=120, deadline=None)
@given(corridor_instances())
def test_untraced_search_ranks_only_valid_candidates(instance):
    """Untraced, the valid candidates are the traced search's, in product order.

    Only they get an area, and a search none of whose combinations passes
    the box checks builds no grid.  A plan that needs no corridor gets the
    one grid of its room boxes.
    """
    fp, rooms, parent_of = instance
    enumerate_candidates = planwright.corridor.enumerate_candidates
    union_area = planwright.corridor._union_area
    runs = {}

    def run(trace: bool):
        seen = runs[trace] = {"lists": [], "areas": 0, "grids": 0, "result": None}

        class CountingGrid(Grid):
            def __init__(self, boxes):
                super().__init__(boxes)
                seen["grids"] += 1

        def counting_area(boxes):
            seen["areas"] += 1
            return union_area(boxes)

        def recording(path, ws):
            seen["lists"].append(enumerate_candidates(path, ws))
            return seen["lists"][-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planwright.corridor, "enumerate_candidates", recording)
            mp.setattr(planwright.corridor, "_union_area", counting_area)
            mp.setattr(planwright.corridor, "Grid", CountingGrid)
            try:
                seen["result"] = plan_corridor(fp, rooms, parent_of, 0, CFG, trace=trace)
            except CorridorError:
                pass

    run(True)
    run(False)
    traced, plain = runs[True], runs[False]
    assert len(traced["lists"]) == len(plain["lists"]) <= 1
    if not plain["lists"]:  # no room needed a corridor, or no route joined them
        assert plain["areas"] == 0
        assert plain["grids"] == (0 if plain["result"] is None else 1)
        return
    (traced_list,), (plain_list,) = traced["lists"], plain["lists"]
    valid = [c for c in plain_list if c.valid]
    assert valid == [c for c in traced_list if c.valid]
    assert all(c.area == 0 for c in plain_list if not c.valid)
    assert plain["areas"] == len(valid)
    assert plain["grids"] == (1 if plain_list else 0)
