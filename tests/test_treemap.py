"""Squarified treemap: canonical golden, exactness, and the room layout."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.geometry import Rect, Region
from planwright.hierarchy import build_hierarchy
from planwright.sampling import RandomStream, RoomEntry, RoomKind, RoomProgram
from planwright.treemap import LayoutError, LayoutRequest, layout_rooms, squarify

from oracles import rect_mm, row_rects, squarify_sorted, worst_aspect

K = RoomKind

# Greedy-row oracle output for {6,6,4,3,2,2,1} in a 6 x 4 container, frozen
# as (x0, y0, x1, y1) in millimetres.  Derivation: [6,6] fill a 3-wide left
# strip, [4,3] a 7/3-tall bottom row of the rest, [2],[2],[1] three columns.
CANONICAL_AREAS = [6, 6, 4, 3, 2, 2, 1]
CANONICAL_GOLDEN = [
    (0, 0, 3000, 2000),
    (0, 2000, 3000, 4000),
    (3000, 0, 4714, 2333),
    (4714, 0, 6000, 2333),
    (3000, 2333, 4200, 4000),
    (4200, 2333, 5400, 4000),
    (5400, 2333, 6000, 4000),
]


def mm_boxes(rects):
    return [rect_mm((r.x, r.y, r.width, r.height)) for r in rects]


def request(areas, container):
    return LayoutRequest(container, tuple(enumerate(areas)))


def test_canonical_case_matches_frozen_oracle():
    oracle = [rect_mm(r) for r in squarify_sorted(CANONICAL_AREAS, (0, 0, 6, 4))]
    assert oracle == CANONICAL_GOLDEN
    got = squarify(request(CANONICAL_AREAS, Rect(0, 0, 6, 4)))
    assert mm_boxes(got) == CANONICAL_GOLDEN


def test_single_item_fills_container():
    got = squarify(request([12], Rect(1, 2, 3, 4)))
    assert got == [Rect(1, 2, 3, 4)]


def test_two_equal_areas_make_squares():
    got = squarify(request([1, 1], Rect(0, 0, 2, 1)))
    assert mm_boxes(got) == [(0, 0, 1000, 1000), (1000, 0, 2000, 1000)]


def test_result_parallels_input_order():
    areas = [1, 6, 2, 3]
    got = squarify(request(areas, Rect(0, 0, 4, 3)))
    for area, rect in zip(areas, got):
        assert rect.area == pytest.approx(area, rel=1e-9)


def test_request_validation():
    with pytest.raises(LayoutError):
        request([], Rect(0, 0, 1, 1))
    with pytest.raises(LayoutError):
        request([1, -1], Rect(0, 0, 1, 1))
    with pytest.raises(LayoutError):
        request([1, 1], Rect(0, 0, 1, 1))


areas_lists = st.lists(
    st.floats(min_value=0.5, max_value=40.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def fitted_container(areas, aspect):
    total = sum(areas)
    width = (total * aspect) ** 0.5
    return Rect(0, 0, width, total / width)


@settings(max_examples=200, deadline=None)
@given(areas_lists, st.floats(min_value=1.0, max_value=2.0))
def test_exact_partition(areas, aspect):
    container = fitted_container(areas, aspect)
    rects = squarify(request(areas, container))
    # cuts are shared, so the areas add up exactly, not merely approximately
    assert sum(r.area for r in rects) == pytest.approx(container.area, rel=1e-12)
    for r in rects:
        assert r.x >= container.x - 1e-12 and r.y >= container.y - 1e-12
        assert r.x1 <= container.x1 + 1e-12 and r.y1 <= container.y1 + 1e-12
    boxes = mm_boxes(rects)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            w = min(a[2], b[2]) - max(a[0], b[0])
            h = min(a[3], b[3]) - max(a[1], b[1])
            assert w <= 0 or h <= 0, (a, b)


def test_agrees_with_row_oracle_on_fixed_corpus():
    """300 pseudorandom requests, compared rect by rect against the oracle.

    The corpus is fixed (and so tie-free: an exact worst-ratio tie could
    legitimately break either way at float precision) rather than fuzzed.
    """
    rng = RandomStream(2024)
    for case in range(300):
        n = 1 + rng.randrange(12)
        areas = [0.5 + 39.5 * rng.random() for _ in range(n)]
        aspect = 1.0 + rng.random()
        container = fitted_container(areas, aspect)
        got = squarify(request(areas, container))
        want = squarify_sorted(areas, (0.0, 0.0, container.width, container.height))
        for rect, (wx, wy, ww, wh) in zip(got, want):
            assert rect.x == pytest.approx(wx, abs=1e-6), case
            assert rect.y == pytest.approx(wy, abs=1e-6), case
            assert rect.width == pytest.approx(ww, abs=1e-6), case
            assert rect.height == pytest.approx(wh, abs=1e-6), case


def reconstruct_rows(cells, container):
    """Split the output rects back into the greedy rows they came from."""
    x, y, w, h = container.x, container.y, container.width, container.height
    i = 0
    while i < len(cells):
        vertical = w >= h
        row = [cells[i]]
        for cell in cells[i + 1 :]:
            if vertical:
                same = abs(cell.x - cells[i].x) < 1e-9 and abs(cell.width - cells[i].width) < 1e-9
            else:
                same = abs(cell.y - cells[i].y) < 1e-9 and abs(cell.height - cells[i].height) < 1e-9
            if not same:
                break
            row.append(cell)
        yield i, len(row), (x, y, w, h)
        thickness = cells[i].width if vertical else cells[i].height
        if vertical:
            x, w = x + thickness, w - thickness
        else:
            y, h = y + thickness, h - thickness
        i += len(row)


@settings(max_examples=200, deadline=None)
@given(areas_lists, st.floats(min_value=1.0, max_value=2.0))
def test_rows_satisfy_monotone_improvement(areas, aspect):
    """Each accepted row beats (or ties) both its shorter and longer variants."""
    container = fitted_container(areas, aspect)
    ordered = sorted(areas, reverse=True)
    cells = squarify(request(ordered, container), keep_order=True)
    for start, size, box in reconstruct_rows(cells, container):
        for m in range(1, size):
            shorter, _ = row_rects(ordered[start : start + m], box)
            grown, _ = row_rects(ordered[start : start + m + 1], box)
            assert worst_aspect(grown) <= worst_aspect(shorter) + 1e-9
        if start + size < len(ordered):
            accepted, _ = row_rects(ordered[start : start + size], box)
            over, _ = row_rects(ordered[start : start + size + 1], box)
            assert worst_aspect(over) > worst_aspect(accepted) - 1e-9


@settings(max_examples=100, deadline=None)
@given(areas_lists, st.randoms(use_true_random=False))
def test_order_independence_of_dimension_multiset(areas, rnd):
    container = fitted_container(areas, 1.5)
    base = sorted(mm_boxes(squarify(request(areas, container))))
    shuffled = list(areas)
    rnd.shuffle(shuffled)
    again = sorted(mm_boxes(squarify(request(shuffled, container))))
    assert base == again


def test_keep_order_pins_first_item_to_origin():
    areas = [2, 9, 7, 6]
    container = fitted_container(areas, 1.3)
    rects = squarify(request(areas, container), keep_order=True)
    assert rects[0].x == container.x and rects[0].y == container.y
    assert sum(r.area for r in rects) == pytest.approx(container.area, rel=1e-12)


# --- two-phase room layout ---------------------------------------------------


def program_of(*kinds_areas):
    entries = tuple(RoomEntry(i, k, float(a)) for i, (k, a) in enumerate(kinds_areas))
    bedrooms = sum(1 for k, _ in kinds_areas if k in (K.MASTER_BEDROOM, K.BEDROOM))
    return RoomProgram(bedrooms, len(entries), entries)


def test_single_room_house_is_the_footprint():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 36)))
    rooms = layout_rooms(Rect(0, 0, 6, 6), tree)
    assert len(rooms) == 1
    assert rooms[0].rect == Rect(0, 0, 6, 6)
    assert rooms[0].kind is K.LIVING_ROOM


def test_living_room_plus_subtree_split_into_slabs():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 20), (K.MASTER_BEDROOM, 16)))
    rooms = layout_rooms(Rect(0, 0, 6, 6), tree)
    by_id = {r.id: r.rect for r in rooms}
    assert by_id[0].area == pytest.approx(20, rel=1e-9)
    assert by_id[1].area == pytest.approx(16, rel=1e-9)
    # one vertical cut: living slab carries the full height at the origin
    assert by_id[0].x == 0 and by_id[0].height == pytest.approx(6)
    assert by_id[1].x == pytest.approx(by_id[0].x1)


def test_parent_room_sits_inside_its_allotment_corner():
    tree = build_hierarchy(
        program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4), (K.PANTRY, 5))
    )
    footprint = Rect(0, 0, 6, 5)
    rooms = layout_rooms(footprint, tree)
    by_id = {r.id: r.rect for r in rooms}
    assert Region.from_rect(by_id[0]).subtract(Region.from_rect(footprint)).is_empty
    assert by_id[0].x == 0 and by_id[0].y == 0
    assert sum(r.rect.area for r in rooms) == pytest.approx(footprint.area, rel=1e-9)


KINDS = [K.KITCHEN, K.DINING_ROOM, K.MASTER_BEDROOM, K.BEDROOM, K.BATHROOM, K.LAUNDRY, K.PANTRY, K.STORAGE]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.floats(min_value=3, max_value=18)),
        max_size=9,
    ),
    st.floats(min_value=1.0, max_value=2.0),
)
def test_every_leaf_gets_its_target_area(extras, aspect):
    prog = program_of((K.LIVING_ROOM, 9.0), *extras)
    tree = build_hierarchy(prog)
    total = sum(e.target_area for e in prog.entries)
    width = (total * aspect) ** 0.5
    rooms = layout_rooms(Rect(0, 0, width, total / width), tree)
    targets = {e.id: e.target_area for e in prog.entries}
    assert sorted(r.id for r in rooms) == sorted(targets)
    for room in rooms:
        assert room.rect.area == pytest.approx(targets[room.id], rel=1e-6)


def test_layout_requires_outside_root():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 10)))
    with pytest.raises(LayoutError):
        layout_rooms(Rect(0, 0, 5, 2), tree.children[0])
