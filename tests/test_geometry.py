"""Geometry layer: snapping, rects, polygons, and the millimetre region grid."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.geometry import (
    Point,
    Rect,
    RectilinearPolygon,
    Region,
    Segment,
    aspect_ratio,
    mm_box,
    snap,
)

from oracles import (
    CellRegion,
    normalise_polygon,
    pairwise_overlap_mm2,
    polygon_slabs,
    shared_walls,
    shoelace_area,
)


def test_snap_is_millimetre_rounding():
    assert snap(1.2344) == 1.234
    assert snap(1.2345000001) == 1.235
    assert snap(-0.0004) == -0.0
    assert snap(2.0) == 2.0


def test_point_repairs_arithmetic_noise():
    p = Point(0.1 + 0.2, 1.0)
    assert p.x == 0.3


def test_segment_basics():
    s = Segment(Point(1, 2), Point(4, 2))
    assert s.horizontal
    assert s.line == 2.0
    assert s.span == (1.0, 4.0)
    with pytest.raises(ValueError):
        Segment(Point(0, 0), Point(1, 1))


def test_rect_keeps_full_precision():
    r = Rect(0, 0, 12 / 7, 7 / 3)
    assert r.width == 12 / 7
    assert mm_box(r) == (0, 0, 1714, 2333)
    with pytest.raises(ValueError):
        Rect(0, 0, -1, 1)


def test_aspect_ratio_orientation_free():
    assert aspect_ratio(6, 2) == 3.0
    assert aspect_ratio(2, 6) == 3.0
    assert aspect_ratio(5, 5) == 1.0


def test_rect_polygon_round_trip():
    poly = Region.from_rect(Rect(1, 2, 3, 4)).to_polygon()
    assert poly.mm == ((1000, 2000), (4000, 2000), (4000, 6000), (1000, 6000))
    assert poly.area == pytest.approx(12.0)


def test_polygon_l_shape():
    poly = RectilinearPolygon(
        (Point(0, 0), Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4))
    )
    assert len(poly.vertices) == 6
    assert poly.area == pytest.approx(12.0)
    region = Region.from_polygon(poly)
    # A square around (1, 3) lies inside; one around (3, 3) lies outside.
    assert CellRegion.from_boxes([(500, 2500, 1500, 3500)]).subtract(region).is_empty
    assert CellRegion.from_boxes([(2500, 2500, 3500, 3500)]).intersect(region).is_empty


def test_polygon_rejects_self_intersection():
    with pytest.raises(ValueError):
        RectilinearPolygon(
            (Point(0, 0), Point(4, 0), Point(4, 4), Point(2, 4), Point(2, -1), Point(0, -1))
        )


def test_shared_walls_of_adjacent_rects():
    a = Region.from_rect(Rect(0, 0, 2, 2))
    b = Region.from_rect(Rect(2, 0.5, 2, 1))
    assert a.shared_walls(b) == [(False, 2000, 500, 1500)]
    assert b.shared_walls(a) == [(False, 2000, 500, 1500)]
    assert a.shared_walls(Region.from_rect(Rect(3, 0, 1, 1))) == []


# --- regions ----------------------------------------------------------------

mm = st.integers(min_value=0, max_value=20000)


@st.composite
def boxes(draw, n=st.integers(min_value=1, max_value=5)):
    out = []
    for _ in range(draw(n)):
        x0 = draw(mm)
        y0 = draw(mm)
        x1 = draw(st.integers(min_value=x0 + 1, max_value=21000))
        y1 = draw(st.integers(min_value=y0 + 1, max_value=21000))
        out.append((x0, y0, x1, y1))
    return out


def region_of(box_list):
    return CellRegion.from_boxes(list(box_list))


def test_region_constructors_agree():
    r = Rect(1, 1, 2, 3)
    assert Region.from_rect(r).area == Region.from_boxes([(1000, 1000, 3000, 4000)]).area


@settings(max_examples=150, deadline=None)
@given(boxes(), boxes())
def test_region_boolean_algebra(a_boxes, b_boxes):
    a, b = region_of(a_boxes), region_of(b_boxes)
    union = a.union(b)
    inter = a.intersect(b)
    diff = a.subtract(b)
    # inclusion-exclusion holds exactly on the integer grid
    assert round(union.area + inter.area - a.area - b.area, 9) == 0
    assert round(diff.area + inter.area - a.area, 9) == 0
    assert diff.intersect(b).is_empty
    assert union.subtract(a).subtract(b).is_empty


@settings(max_examples=150, deadline=None)
@given(boxes())
def test_from_boxes_matches_union_chain(box_list):
    chained = CellRegion.empty()
    for x0, y0, x1, y1 in box_list:
        chained = chained.union(
            CellRegion.from_rect(Rect(x0 / 1000, y0 / 1000, (x1 - x0) / 1000, (y1 - y0) / 1000))
        )
    assert region_of(box_list).subtract(chained).is_empty
    assert chained.subtract(region_of(box_list)).is_empty


def test_region_connectivity():
    assert region_of([(0, 0, 1000, 1000), (1000, 0, 2000, 1000)]).connected()
    assert not region_of([(0, 0, 1000, 1000), (2000, 0, 3000, 1000)]).connected()
    assert not Region.empty().connected()


def test_region_full_rect():
    assert region_of([(0, 0, 1000, 500), (1000, 0, 2000, 500)]).full_rect_mm() == (2000, 500)
    l_shape = region_of([(0, 0, 2000, 1000), (0, 1000, 1000, 2000)])
    assert l_shape.full_rect_mm() is None


def test_region_pinch_and_hole():
    pinched = region_of([(0, 0, 1000, 1000), (1000, 1000, 2000, 2000)])
    assert pinched.has_pinch()
    assert not pinched.connected()
    ring = region_of(
        [(0, 0, 3000, 1000), (0, 2000, 3000, 3000), (0, 0, 1000, 3000), (2000, 0, 3000, 3000)]
    )
    assert ring.has_hole()
    assert ring.connected() and not ring.has_pinch()
    plain = region_of([(0, 0, 3000, 1000), (0, 1000, 1000, 2000)])
    assert plain.connected() and not plain.has_pinch() and not plain.has_hole()


def test_region_to_polygon_l_shape():
    poly = region_of([(0, 0, 2000, 1000), (0, 1000, 1000, 2000)]).to_polygon()
    assert poly.area == pytest.approx(3.0)
    assert len(poly.vertices) == 6


def test_region_to_polygon_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Region.empty().to_polygon()
    with pytest.raises(ValueError):
        region_of([(0, 0, 1000, 1000), (2000, 0, 3000, 1000)]).to_polygon()
    with pytest.raises(ValueError):
        region_of([(0, 0, 1000, 1000), (1000, 1000, 2000, 2000)]).to_polygon()
    # Connected, but the walled-off middle cell touches the outside at one corner.
    pinched = [
        (0, 0, 3000, 1000),
        (0, 1000, 1000, 2000),
        (2000, 1000, 3000, 3000),
        (1000, 2000, 2000, 3000),
    ]
    with pytest.raises(ValueError, match="pinches to a corner contact"):
        region_of(pinched).to_polygon()
    ring = [
        (0, 0, 3000, 1000),
        (0, 2000, 3000, 3000),
        (0, 1000, 1000, 2000),
        (2000, 1000, 3000, 2000),
    ]
    with pytest.raises(ValueError, match="has a hole"):
        region_of(ring).to_polygon()


@settings(max_examples=120, deadline=None)
@given(boxes())
def test_region_polygon_round_trip_preserves_area(box_list):
    region = region_of(box_list)
    try:
        poly = region.to_polygon()
    except ValueError:
        return
    assert math.isclose(poly.area, region.area / 1e6, rel_tol=0, abs_tol=1e-9)
    back = CellRegion.from_polygon(poly)
    assert back.subtract(region).is_empty
    assert region.subtract(back).is_empty


def test_region_thickness():
    assert region_of([(0, 0, 5000, 1000)]).thickness() == 1000
    l_shape = region_of([(0, 0, 5000, 2000), (0, 2000, 700, 5000)])
    assert l_shape.thickness() == 700


def test_shared_border_mm():
    a = region_of([(0, 0, 2000, 2000)])
    b = region_of([(2000, 500, 4000, 1500)])
    assert a.shared_border_mm(b) == 1000
    c = region_of([(5000, 0, 6000, 1000)])
    assert a.shared_border_mm(c) == 0


@settings(max_examples=120, deadline=None)
@given(boxes(), boxes())
def test_shared_border_agrees_with_polygon_walls(a_boxes, b_boxes):
    """The region border and the polygon-edge oracle agree run for run."""
    a = region_of(a_boxes)
    b = region_of(b_boxes).subtract(a)
    try:
        pa, pb = a.to_polygon(), b.to_polygon()
    except ValueError:
        return
    expected = shared_walls([(p.x, p.y) for p in pa.vertices], [(p.x, p.y) for p in pb.vertices])
    assert a.shared_walls(b) == expected
    assert b.shared_walls(a) == expected
    assert a.shared_border_mm(b) == max((hi - lo for _, _, lo, hi in expected), default=0)


def fresh_borders(region):
    """The region's borders computed on a new Region with nothing cached."""
    return Region(region.xs, region.ys, region.cells)._facing_borders()


@settings(max_examples=150, deadline=None)
@given(boxes(), boxes())
def test_cached_borders_match_a_fresh_computation(a_boxes, b_boxes):
    """Borders are computed once per Region and never go stale."""
    a, b = region_of(a_boxes), region_of(b_boxes)
    warm = {id(r): r._facing_borders() for r in (a, b)}
    derived = [a.union(b), a.subtract(b), b.subtract(a), a.intersect(b), region_of(a_boxes + b_boxes)]
    for region in (a, b, *derived):
        borders = region._facing_borders()
        assert borders == fresh_borders(region)
        assert region._facing_borders() is borders
    assert a._facing_borders() is warm[id(a)] and b._facing_borders() is warm[id(b)]
    rest = derived[2]
    assert a.shared_walls(rest) == Region(a.xs, a.ys, a.cells).shared_walls(rest)
    try:
        first = a.to_polygon()
    except ValueError:
        return
    assert a.to_polygon() == first
    assert a._facing_borders() == fresh_borders(a)


# Coordinates that collide often: integers and their float twins, half
# steps, off-grid values that snap onto a neighbour, and a negative zero.
coord = st.sampled_from([0, 1, 2, 3, 0.0, 1.0, 2.0, 0.5, 1.5, 2.0004, 0.9996, -0.0, -1.0])


@st.composite
def walks(draw):
    """Alternating horizontal/vertical steps, often closed by one more step.

    Zero steps give repeated vertices, backtracking gives collinear runs and
    crossings; an unclosed walk usually ends in a non-axis-aligned edge.
    """
    x0, y0 = draw(coord), draw(coord)
    x, y = x0, y0
    out = [(x, y)]
    horizontal = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=3, max_value=9))):
        if horizontal:
            x = draw(coord)
        else:
            y = draw(coord)
        horizontal = not horizontal
        out.append((x, y))
    if draw(st.booleans()):
        out.append((x0, y) if horizontal else (x, y0))
    return out


@st.composite
def reshaped_polygons(draw):
    """A valid polygon's vertices, then reversed, rotated or padded."""
    poly = draw(boxes(n=st.integers(min_value=1, max_value=3)))
    try:
        verts = [(p.x, p.y) for p in Region.from_boxes(poly).to_polygon().vertices]
    except ValueError:
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    if draw(st.booleans()):
        verts.reverse()
    k = draw(st.integers(min_value=0, max_value=len(verts) - 1))
    verts = verts[k:] + verts[:k]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(verts) - 1))
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % len(verts)]
        verts.insert(i + 1, draw(st.sampled_from([(x0, y0), ((x0 + x1) / 2, (y0 + y1) / 2)])))
    return verts


@settings(max_examples=500, deadline=None)
@given(st.one_of(walks(), reshaped_polygons(), st.lists(st.tuples(coord, coord), min_size=3, max_size=8)))
def test_polygon_normalisation_matches_oracle(verts):
    """Same vertices (same int/float types) or the same ValueError message."""
    try:
        expected = normalise_polygon(verts)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            RectilinearPolygon(tuple(Point(x, y) for x, y in verts))
        assert str(err.value) == str(exc)
        return
    poly = RectilinearPolygon(tuple(Point(x, y) for x, y in verts))
    assert repr([(p.x, p.y) for p in poly.vertices]) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(boxes())
def test_polygon_area_against_shoelace(box_list):
    region = region_of(box_list)
    try:
        poly = region.to_polygon()
    except ValueError:
        return
    verts = [(p.x, p.y) for p in poly.vertices]
    assert math.isclose(poly.area, shoelace_area(verts), rel_tol=0, abs_tol=1e-9)
    slab_mm2 = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in polygon_slabs(verts))
    assert math.isclose(poly.area, slab_mm2 / 1e6, rel_tol=0, abs_tol=1e-9)


def test_overlap_oracle_is_sane():
    a = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    b = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
    assert pairwise_overlap_mm2([a, b]) == 1000 * 1000
