"""Squarified treemap: canonical golden, exactness, and the room layout."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planwright.plan
import planwright.treemap
from planwright.hierarchy import build_hierarchy
from planwright.plan import GenerationError, generate
from planwright.sampling import GenConfig, RandomStream, RoomEntry, RoomKind
from planwright.treemap import LayoutError, layout_rooms, squarify

from oracles import (
    CellRegion,
    Rect,
    eager_room_check,
    layout_rooms_per_level,
    rect_mm,
    row_rects,
    squarify_sorted,
    worst_aspect,
)
from oracles import _fill as fill_as_first_written

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


def mm_boxes(cuts):
    return [rect_mm(cut) for cut in cuts]


def area(cut):
    return cut[2] * cut[3]


def squarify_areas(areas, container, *, keep_order=False):
    """Squarify with the item ids 0, 1, 2, ... in the order given."""
    return squarify(container, tuple(enumerate(areas)), keep_order=keep_order)


def test_canonical_case_matches_frozen_oracle():
    oracle = [rect_mm(r) for r in squarify_sorted(CANONICAL_AREAS, (0, 0, 6, 4))]
    assert oracle == CANONICAL_GOLDEN
    got = squarify_areas(CANONICAL_AREAS, (0, 0, 6, 4))
    assert mm_boxes(got) == CANONICAL_GOLDEN


def test_single_item_fills_container():
    got = squarify_areas([12], (1, 2, 3, 4))
    assert got == [(1, 2, 3, 4)]


def test_two_equal_areas_make_squares():
    got = squarify_areas([1, 1], (0, 0, 2, 1))
    assert mm_boxes(got) == [(0, 0, 1000, 1000), (1000, 0, 2000, 1000)]


def test_result_parallels_input_order():
    areas = [1, 6, 2, 3]
    got = squarify_areas(areas, (0, 0, 4, 3))
    for want, cut in zip(areas, got):
        assert area(cut) == pytest.approx(want, rel=1e-9)


def test_request_validation():
    """A level needs items, positive areas named by item id, and a total that fills the container."""
    with pytest.raises(LayoutError, match="^layout request with no items$"):
        squarify((0, 0, 1, 1), ())
    with pytest.raises(LayoutError, match=r"^item 7 has non-positive area -1$"):
        squarify((0, 0, 1, 1), ((3, 2), (7, -1), (8, 0)))
    # A NaN is not positive, wherever it stands, and is named before a later zero.
    nan = float("nan")
    with pytest.raises(LayoutError, match=r"^item 3 has non-positive area nan$"):
        squarify((0, 0, 1, 1), ((3, nan), (8, 0)))
    with pytest.raises(LayoutError, match=r"^item 0 has non-positive area nan$"):
        squarify((0, 0, 2, 1), ((0, nan), (1, 1.0)))
    with pytest.raises(LayoutError, match=r"^item 1 has non-positive area nan$"):
        squarify((0, 0, 2, 1), ((0, 1.0), (1, nan)))
    with pytest.raises(LayoutError, match="^item areas sum to 2, container holds 1$"):
        squarify((0, 0, 1, 1), ((0, 1), (1, 1)))
    # A container with a side that is not positive holds no area to fill.
    for container in ((0, 0, -1, 1), (0, 0, 0, 1)):
        with pytest.raises(LayoutError, match="^item areas sum to 1, container holds"):
            squarify(container, ((0, 1),))
    with pytest.raises(LayoutError, match="^item areas sum to 1, container holds nan$"):
        squarify((0, 0, nan, 1), ((0, 1),))


@pytest.mark.parametrize(
    "container, areas",
    [
        # Far from the origin, x1 - x0 rounds to 0 although the width is 1.
        ((1e20, 0, 1, 4), [2, 2]),
        # The first row's height, 1e-13, does not move y off 1e6.
        ((0, 1e6, 10, 10), [1e-12, 100 - 1e-12]),
    ],
    ids=["container-side", "rect-side"],
)
def test_sides_lost_to_float_precision_are_a_layout_error(container, areas):
    with pytest.raises(LayoutError, match="rounds to zero"):
        squarify_areas(areas, container, keep_order=True)


def test_a_row_too_thin_to_weigh_is_a_layout_error():
    """A row whose thickness squared underflows to zero cannot be weighed."""
    with pytest.raises(LayoutError, match="row thickness rounds to zero"):
        squarify((0, 0, 1e-100, 1e100), ((0, 1e-300), (1, 1.0 - 1e-300)), keep_order=True)
    # The row filling as first written divided by the zero.
    with pytest.raises(ZeroDivisionError):
        fill_as_first_written(Rect(0, 0, 1e-100, 1e100), [1e-300, 1.0 - 1e-300])


# Tiny areas beside large ones, in containers far from the origin, lose a
# side to float precision ("rect side rounds to zero"); a far offset can also
# lose the container's own side.
mixed_areas = st.lists(
    st.one_of(
        st.floats(min_value=0.5, max_value=40.0),
        st.floats(min_value=1e-13, max_value=1e-9),
        st.floats(min_value=1e3, max_value=1e6),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(
    mixed_areas,
    st.floats(min_value=0.25, max_value=4.0),
    st.sampled_from([0.0, 3.5, 1e6, 1e17]),
    st.booleans(),
)
@example([2.0, 2.0], 1.0, 0.0, False)  # the grown row ties the row: it grows
@example([1e-12, 100 - 1e-12], 1.0, 1e6, True)
@example([2.0, 2.0], 0.25, 1e17, False)
def test_one_pass_cuts_the_floats_of_the_row_filling_it_replaced(areas, aspect, offset, keep_order):
    """Cell for cell float-equal to the earlier O(n**2) rows, or the same LayoutError."""
    total = sum(areas)
    width = (total * aspect) ** 0.5
    container = (offset, offset, width, total / width)
    order = list(range(len(areas)))
    if not keep_order:
        order.sort(key=lambda i: (-areas[i], i))
    try:
        want = fill_as_first_written(Rect(*container), [areas[i] for i in order])
    except LayoutError as exc:
        with pytest.raises(LayoutError) as got:
            squarify_areas(areas, container, keep_order=keep_order)
        assert str(got.value) == str(exc)
        return
    got = squarify_areas(areas, container, keep_order=keep_order)
    assert [Rect(*got[i]) for i in order] == want


areas_lists = st.lists(
    st.floats(min_value=0.5, max_value=40.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def fitted_container(areas, aspect):
    total = sum(areas)
    width = (total * aspect) ** 0.5
    return (0, 0, width, total / width)


@settings(max_examples=200, deadline=None)
@given(areas_lists, st.floats(min_value=1.0, max_value=2.0))
def test_exact_partition(areas, aspect):
    container = fitted_container(areas, aspect)
    cuts = squarify_areas(areas, container)
    # cuts are shared, so the areas add up exactly, not merely approximately
    assert sum(area(c) for c in cuts) == pytest.approx(area(container), rel=1e-12)
    cx, cy, cw, ch = container
    for x, y, w, h in cuts:
        assert x >= cx - 1e-12 and y >= cy - 1e-12
        assert x + w <= cx + cw + 1e-12 and y + h <= cy + ch + 1e-12
    boxes = mm_boxes(cuts)
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
        got = squarify_areas(areas, container)
        want = squarify_sorted(areas, (0.0, 0.0, container[2], container[3]))
        for (x, y, w, h), (wx, wy, ww, wh) in zip(got, want):
            assert x == pytest.approx(wx, abs=1e-6), case
            assert y == pytest.approx(wy, abs=1e-6), case
            assert w == pytest.approx(ww, abs=1e-6), case
            assert h == pytest.approx(wh, abs=1e-6), case


def reconstruct_rows(cells, container):
    """Split the output cells back into the greedy rows they came from."""
    x, y, w, h = container
    i = 0
    while i < len(cells):
        vertical = w >= h
        row = [cells[i]]
        # A row shares its position and thickness across it: x and width
        # for a column, y and height for a row.
        a, b = (0, 2) if vertical else (1, 3)
        for cell in cells[i + 1 :]:
            if abs(cell[a] - cells[i][a]) >= 1e-9 or abs(cell[b] - cells[i][b]) >= 1e-9:
                break
            row.append(cell)
        yield i, len(row), (x, y, w, h)
        thickness = cells[i][b]
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
    cells = squarify_areas(ordered, container, keep_order=True)
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
    base = sorted(mm_boxes(squarify_areas(areas, container)))
    shuffled = list(areas)
    rnd.shuffle(shuffled)
    again = sorted(mm_boxes(squarify_areas(shuffled, container)))
    assert base == again


def test_keep_order_pins_first_item_to_origin():
    areas = [2, 9, 7, 6]
    container = fitted_container(areas, 1.3)
    cuts = squarify_areas(areas, container, keep_order=True)
    assert cuts[0][:2] == container[:2]
    assert sum(area(c) for c in cuts) == pytest.approx(area(container), rel=1e-12)


# --- two-phase room layout ---------------------------------------------------


def program_of(*kinds_areas):
    return tuple(RoomEntry(i, k, float(a)) for i, (k, a) in enumerate(kinds_areas))


def accept(rid, kind, cut):
    """A layout check that accepts every room and lists it as (id, kind, cut)."""
    return rid, kind, cut


def cuts_by_id(rooms):
    return {rid: cut for rid, _, cut in rooms}


def test_single_room_house_is_the_footprint():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 36)))
    rooms = layout_rooms((0, 0, 6, 6), tree, accept)
    assert rooms == [(0, K.LIVING_ROOM, (0, 0, 6, 6))]


def test_living_room_plus_subtree_split_into_slabs():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 20), (K.MASTER_BEDROOM, 16)))
    by_id = cuts_by_id(layout_rooms((0, 0, 6, 6), tree, accept))
    assert area(by_id[0]) == pytest.approx(20, rel=1e-9)
    assert area(by_id[1]) == pytest.approx(16, rel=1e-9)
    # one vertical cut: living slab carries the full height at the origin
    assert by_id[0][0] == 0 and by_id[0][3] == pytest.approx(6)
    assert by_id[1][0] == pytest.approx(by_id[0][0] + by_id[0][2])


def test_parent_room_sits_inside_its_allotment_corner():
    tree = build_hierarchy(
        program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4), (K.PANTRY, 5))
    )
    footprint = (0, 0, 6, 5)
    rooms = layout_rooms(footprint, tree, accept)
    by_id = cuts_by_id(rooms)
    living = CellRegion.from_rect(Rect(*by_id[0]))
    assert living.subtract(CellRegion.from_rect(Rect(*footprint))).is_empty
    assert by_id[0][:2] == (0, 0)
    assert sum(area(cut) for _, _, cut in rooms) == pytest.approx(area(footprint), rel=1e-9)


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
    total = sum(e.target_area for e in prog)
    width = (total * aspect) ** 0.5
    rooms = layout_rooms((0, 0, width, total / width), tree, accept)
    targets = {e.id: e.target_area for e in prog}
    assert sorted(rid for rid, _, _ in rooms) == sorted(targets)
    for rid, _, cut in rooms:
        assert area(cut) == pytest.approx(targets[rid], rel=1e-6)


def test_layout_builds_a_rect_only_for_the_rooms_its_check_reaches(monkeypatch):
    """A level is cut only when the walk reaches it, and each room's cut goes to the check as is.

    A layout rejected at its living room lays out one level.
    """
    tree = build_hierarchy(
        program_of(
            (K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4),
            (K.MASTER_BEDROOM, 16), (K.BATHROOM, 5), (K.BEDROOM, 10),
        )
    )
    footprint = (0, 0, 8, 7)
    levels, made = [], []
    cuts = planwright.treemap._cuts

    def counting_cuts(container, areas):
        levels.append(len(areas))
        made.extend(cuts(container, areas))
        return made[-len(areas) :]

    monkeypatch.setattr(planwright.treemap, "_cuts", counting_cuts)

    # Living room and its four subtrees at the top, the kitchen's level below.
    cells = layout_rooms(footprint, tree, lambda rid, kind, cut: cut)
    assert levels == [5, 2]
    # Every room's cell is a cut its level made, passed on as is; the one cut
    # left over is the kitchen's allotment, which its own level splits.
    assert len(cells) == len(made) - 1
    assert all(any(cell is cut for cut in made) for cell in cells)

    levels.clear()

    def reject(rid, kind, cut):
        raise LayoutError(f"room {rid} rejected")

    with pytest.raises(LayoutError, match="room 0 rejected"):
        layout_rooms(footprint, tree, reject)
    assert levels == [5]


def both_layouts(footprint):
    """The package layout on the footprint cut and the per-level oracle on its Rect.

    Each takes the tree and a check; without a check it accepts every room
    and returns each room's id.
    """
    return (
        lambda tree, check=lambda rid, kind, cut: rid: layout_rooms(footprint, tree, check),
        lambda tree, check=lambda room: room.id: layout_rooms_per_level(Rect(*footprint), tree, check),
    )


def test_layout_checks_the_tree_total_against_the_footprint():
    """A tree whose aggregate does not fill the footprint fails before any room is checked."""
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4)))
    seen = []
    for footprint in ((0, 0, 5, 6), (0, 0, 5, 4.9)):
        with pytest.raises(LayoutError, match="item areas sum to 25.0, container holds"):
            layout_rooms(footprint, tree, lambda rid, kind, cut: seen.append(rid))
        with pytest.raises(LayoutError, match="item areas sum to 25.0, container holds"):
            layout_rooms_per_level(Rect(*footprint), tree)
    assert seen == []
    # A mismatch within the tolerance passes on both paths.
    for layout in both_layouts((0, 0, 5, 5 * (1 + 1e-9))):
        assert layout(tree) == [0, 1, 2]


def test_a_lone_living_room_is_held_to_the_footprint():
    """A one-room tree has no level to check, so its room is checked against the footprint."""
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 36)))
    seen = []
    with pytest.raises(LayoutError, match=r"^item areas sum to 36\.0, container holds 1$"):
        layout_rooms((0, 0, 1, 1), tree, lambda rid, kind, cut: seen.append(rid))
    assert seen == []
    assert layout_rooms((0, 0, 4, 9), tree, accept) == [(0, K.LIVING_ROOM, (0, 0, 4, 9))]
    # The footprint cut is handed to the check as it is, within the tolerance.
    assert layout_rooms((0, 0, 6, 6 * (1 + 1e-9)), tree, accept)[0][2] == (0, 0, 6, 6 * (1 + 1e-9))
    tree = build_hierarchy(program_of((K.LIVING_ROOM, float("nan"))))
    with pytest.raises(LayoutError, match=r"^item 0 has non-positive area nan$"):
        layout_rooms((0, 0, 6, 6), tree, accept)


def test_a_non_positive_area_fails_when_its_level_is_reached():
    """As with a request per level: a room placed before that level is checked first."""
    tree = build_hierarchy(
        program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 0), (K.MASTER_BEDROOM, 16))
    )
    layouts = both_layouts((0, 0, 5, 7.4))
    for layout in layouts:
        with pytest.raises(LayoutError, match=r"^item 2 has non-positive area 0\.0$"):
            layout(tree)

    def reject_bedroom(*room):
        rid = room[0] if len(room) == 3 else room[0].id
        if rid == 3:
            raise LayoutError("bedroom rejected")
        return rid

    # The bedroom's subtree outweighs the kitchen's, so it is placed first.
    for layout in layouts:
        with pytest.raises(LayoutError, match="bedroom rejected"):
            layout(tree, reject_bedroom)

    # A NaN is not positive: the package names it, where the request as first
    # written let it pass and named the zero behind it.
    tree = build_hierarchy(program_of((K.LIVING_ROOM, float("nan")), (K.KITCHEN, 0)))
    package, first_written = layouts
    with pytest.raises(LayoutError, match=r"^item 0 has non-positive area nan$"):
        package(tree)
    with pytest.raises(LayoutError, match=r"^item 1 has non-positive area 0\.0$"):
        first_written(tree)


def mm_check(min_mm, max_aspect, veto):
    """One room rule as a check on cut floats and as one on PlacedRooms."""

    def decide(rid, kind, x, y, w, h):
        x0, y0 = round(round(x, 3) * 1000), round(round(y, 3) * 1000)
        x1, y1 = round(round(x + w, 3) * 1000), round(round(y + h, 3) * 1000)
        if rid in veto:
            raise LayoutError(f"room {rid} vetoed")
        if min(x1 - x0, y1 - y0) < min_mm:
            raise LayoutError(f"room {rid} narrower than {min_mm} mm")
        if max(x1 - x0, y1 - y0) > max_aspect * min(x1 - x0, y1 - y0):
            raise LayoutError(f"room {rid} too elongated")
        return rid, kind, (x0, y0, x1, y1)

    def on_cut(rid, kind, cut):
        return decide(rid, kind, *cut)

    def on_room(room):
        r = room.rect
        return decide(room.id, room.kind, r.x, r.y, r.width, r.height)

    return on_cut, on_room


room_areas = st.one_of(
    st.floats(min_value=0.5, max_value=40.0),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1e3, max_value=1e5),
)


@settings(max_examples=400, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=40.0),
    st.lists(st.tuples(st.sampled_from(KINDS), room_areas), max_size=9),
    st.booleans(),
    st.floats(min_value=0.3, max_value=3.0),
    st.sampled_from([0.0, 3.5, 1e6]),
    st.sampled_from([0, 500, 1500, 2200]),
    st.sampled_from([2.0, 3.0, 1e9]),
    st.sets(st.integers(min_value=0, max_value=9), max_size=2),
)
# An inner level whose cut lost more than the tolerance of a 1e-9 m² laundry's
# area: the level's sum check fails before the kitchen's aspect check can.
@example(2.509765625, [(K.KITCHEN, 1e-9), (K.KITCHEN, 14.0), (K.LAUNDRY, 1e-9)], False, 1.0, 0.0, 0, 1e9, set())
def test_layout_on_cut_floats_matches_the_request_per_level(
    living, extras, via_dining, aspect, offset, min_mm, max_aspect, veto
):
    """Same rooms to the check in the same order, or the same failure at the same room."""
    tree = build_hierarchy(program_of((K.LIVING_ROOM, living), *extras), kitchen_via_dining=via_dining)
    total = tree.children[0].aggregate_area
    width = (total * aspect) ** 0.5
    footprint = (offset, offset, width, total / width)
    on_cut, on_room = mm_check(min_mm, max_aspect, veto)
    outcomes = []
    for layout, check in (
        (layout_rooms, on_cut),
        (lambda footprint, tree, check: layout_rooms_per_level(Rect(*footprint), tree, check), on_room),
    ):
        seen = []

        def recording(*room, check=check, seen=seen):
            seen.append(check(*room))
            return seen[-1]

        try:
            outcomes.append((layout(footprint, tree, recording), seen, None))
        except LayoutError as exc:
            outcomes.append((None, seen, str(exc)))
    assert outcomes[0] == outcomes[1]


def test_layout_requires_outside_root():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 10)))
    with pytest.raises(LayoutError):
        layout_rooms((0, 0, 5, 2), tree.children[0], accept)


def test_layout_lists_what_its_check_returns_in_placement_order():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4)))
    rooms = layout_rooms((0, 0, 5, 5), tree, accept)
    assert [rid for rid, _, _ in rooms] == [0, 1, 2]
    assert layout_rooms((0, 0, 5, 5), tree, lambda rid, kind, cut: cut) == [cut for _, _, cut in rooms]
    # The same rooms, kinds and floats as the per-level walk's PlacedRooms.
    oracle = layout_rooms_per_level(Rect(0, 0, 5, 5), tree)
    assert rooms == [(r.id, r.kind, (r.rect.x, r.rect.y, r.rect.width, r.rect.height)) for r in oracle]


def test_layout_stops_at_the_first_room_its_check_rejects():
    tree = build_hierarchy(program_of((K.LIVING_ROOM, 12), (K.KITCHEN, 9), (K.LAUNDRY, 4)))
    order = [rid for rid, _, _ in layout_rooms((0, 0, 5, 5), tree, accept)]
    seen = []

    def check(rid, kind, cut):
        seen.append(rid)
        if len(seen) == 2:
            raise LayoutError(f"room {rid} rejected")
        return rid

    with pytest.raises(LayoutError, match=f"room {order[1]} rejected"):
        layout_rooms((0, 0, 5, 5), tree, check)
    assert seen == order[:2]


@pytest.mark.parametrize("knobs", [{}, {"min_room_width": 2.2}], ids=["default", "strict"])
def test_room_check_during_layout_matches_eager_check(knobs, monkeypatch):
    """The pipeline's check inside the layout fails where checking afterwards does.

    Every layout ``generate`` asks for over seeds 0-299 is also laid out in
    full and checked room by room in placement order.  The check inside the
    layout must raise the same message, after placing the same boxes, and
    stop at the failing room.
    """
    cfg = GenConfig(**knobs)
    outcomes = {"passed": 0, "failed": 0}

    def layout(footprint, tree, check):
        try:
            full = layout_rooms(footprint, tree, accept)
        except LayoutError as exc:
            pytest.fail(f"the layout itself failed: {exc}")
        rects = [(rid, x, y, x + w, y + h) for rid, _, (x, y, w, h) in full]
        boxes, failure = eager_room_check(rects, cfg.min_room_width, cfg.max_room_aspect)
        placed = []

        def recording(rid, kind, cut):
            result = check(rid, kind, cut)
            placed.append((result[0], result[2]))
            return result

        try:
            rooms = layout_rooms(footprint, tree, recording)
        except LayoutError as exc:
            assert str(exc) == failure
            assert placed == boxes[: len(placed)]
            assert failure.startswith(f"room {boxes[len(placed)][0]} ")
            outcomes["failed"] += 1
            raise
        assert failure is None
        assert [(rid, box) for rid, _, box in rooms] == placed == boxes
        outcomes["passed"] += 1
        return rooms

    monkeypatch.setattr(planwright.plan, "layout_rooms", layout)
    for seed in range(300):
        try:
            generate(seed, cfg)
        except GenerationError:
            pass
    assert outcomes["passed"] > 0 and outcomes["failed"] > 0
