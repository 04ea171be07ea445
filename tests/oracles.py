"""Reference implementations the suite checks the package against.

Everything here is deliberately naive: row layouts are evaluated by building
the actual rectangles, shortest paths by enumerating every simple path, area
audits by scanline decomposition of the polygons themselves.  None of it
imports package internals beyond plain data.
"""

from __future__ import annotations

import json
from itertools import combinations

MM = 1000.0


# --- squarified treemap ----------------------------------------------------


def row_rects(areas, container):
    """Lay one row of areas along the shorter side; return (rects, rest)."""
    x, y, w, h = container
    total = sum(areas)
    rects = []
    if w >= h:
        t = total / h
        yy = y
        for a in areas:
            rects.append((x, yy, t, a / t))
            yy += a / t
        rest = (x + t, y, w - t, h)
    else:
        t = total / w
        xx = x
        for a in areas:
            rects.append((xx, y, a / t, t))
            xx += a / t
        rest = (x, y + t, w, h - t)
    return rects, rest


def worst_aspect(rects):
    return max(max(w / h, h / w) for _, _, w, h in rects)


def squarify_rows(areas, container):
    """Greedy row partition in the order given (no sorting).

    Each step enumerates candidate rows of 1..k items and keeps growing while
    the row with one more item is no worse; the accepted row is peeled off
    and the rest of the container is processed the same way.
    """
    out = []
    pos = 0
    while pos < len(areas):
        k = 1
        while pos + k < len(areas):
            cur, _ = row_rects(areas[pos : pos + k], container)
            grown, _ = row_rects(areas[pos : pos + k + 1], container)
            if worst_aspect(grown) <= worst_aspect(cur):
                k += 1
            else:
                break
        rects, container = row_rects(areas[pos : pos + k], container)
        out.extend(rects)
        pos += k
    return out


def squarify_sorted(areas, container):
    """Descending-area squarify returning rects in the input order."""
    order = sorted(range(len(areas)), key=lambda i: (-areas[i], i))
    rects = squarify_rows([areas[i] for i in order], container)
    out = [None] * len(areas)
    for slot, i in enumerate(order):
        out[i] = rects[slot]
    return out


def rect_mm(rect):
    """Rect rounded onto the millimetre grid as (x0, y0, x1, y1)."""
    x, y, w, h = rect
    return (
        round(x * MM),
        round(y * MM),
        round((x + w) * MM),
        round((y + h) * MM),
    )


# --- room check ------------------------------------------------------------


def eager_room_check(rects, min_room_width, max_room_aspect):
    """Lay out first, then check every room in placement order.

    ``rects`` is [(room_id, x, y, x1, y1)] in metres, in placement order.
    Each rect is snapped to the millimetre grid.  A room fails when its
    shorter side is below ``min_room_width``, or when its aspect ratio, taken
    on the sides in metres, exceeds ``max_room_aspect``.  Returns every
    room's [(room_id, (x0, y0, x1, y1))] mm box and the first failure's
    message, or None when all rooms pass.
    """
    boxes = [(rid, tuple(round(round(v, 3) * MM) for v in rect)) for rid, *rect in rects]
    for rid, (x0, y0, x1, y1) in boxes:
        if min(x1 - x0, y1 - y0) < round(min_room_width * MM):
            return boxes, f"room {rid} narrower than {min_room_width} m"
        width, height = x1 / MM - x0 / MM, y1 / MM - y0 / MM
        if max(width / height, height / width) > max_room_aspect:
            return boxes, f"room {rid} too elongated"
    return boxes, None


# --- shortest paths --------------------------------------------------------


def shortest_path_bruteforce(edges, sources, targets):
    """Minimum total weight over every simple path between two vertex sets.

    ``edges`` is [(u, v, weight)] with hashable vertices.  Returns None when
    no path exists; a source that already is a target gives 0.
    """
    if set(sources) & set(targets):
        return 0
    adjacency = {}
    for u, v, weight in edges:
        adjacency.setdefault(u, []).append((v, weight))
        adjacency.setdefault(v, []).append((u, weight))
    best = None

    def walk(vertex, seen, cost):
        nonlocal best
        if best is not None and cost >= best:
            return
        if vertex in targets:
            best = cost
            return
        for nxt, weight in adjacency.get(vertex, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, cost + weight)

    for s in sources:
        walk(s, {s}, 0)
    return best


# --- room program ----------------------------------------------------------

BEDROOMS = {"master_bedroom", "bedroom"}


def assign_program_oracle(bedrooms, rooms, priority):
    """Kinds (as strings) the priority-list walk should pick.

    The walk keeps a running slot budget: a non-bedroom kind is taken only
    when the rooms still owed (remaining bedrooms, plus one bathroom whenever
    the house has bedrooms and space for it) fit in the slots left over.
    """
    chosen = []
    owed_beds = bedrooms
    owed_bath = 1 if bedrooms >= 1 and rooms >= bedrooms + 2 else 0
    for kind in priority:
        if len(chosen) == rooms:
            break
        if kind == "outside":
            continue
        if kind in BEDROOMS:
            if owed_beds:
                chosen.append("bedroom")
                owed_beds -= 1
            continue
        owed = owed_beds + (0 if kind == "bathroom" else owed_bath)
        if rooms - len(chosen) - 1 < owed:
            continue
        chosen.append(kind)
        if kind == "bathroom":
            owed_bath = 0
    while owed_beds and len(chosen) < rooms:
        chosen.append("bedroom")
        owed_beds -= 1
    for i, kind in enumerate(chosen):
        if kind == "bedroom":
            chosen[i] = "master_bedroom"
            break
    return chosen


# --- polygon audits --------------------------------------------------------


def shoelace_area(vertices):
    """Polygon area from the classic cross-product sum."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0


def polygon_slabs(vertices):
    """Decompose a rectilinear polygon into disjoint mm boxes by scanline.

    Vertices are (x, y) in metres; boxes come back as (x0, y0, x1, y1) mm.
    Even-odd crossing counts per horizontal slab decide what is inside.
    """
    pts = [(round(x * MM), round(y * MM)) for x, y in vertices]
    vlines = []
    n = len(pts)
    for i in range(n):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % n]
        if x0 == x1:
            vlines.append((x0, min(y0, y1), max(y0, y1)))
    cuts = sorted({y for _, y in pts})
    boxes = []
    for y0, y1 in zip(cuts, cuts[1:]):
        mid2 = y0 + y1
        xs = sorted(x for x, lo, hi in vlines if 2 * lo < mid2 < 2 * hi)
        for i in range(0, len(xs) - 1, 2):
            boxes.append((xs[i], y0, xs[i + 1], y1))
    return boxes


def overlap_area_mm2(boxes_a, boxes_b):
    """Total intersection area between two disjoint box sets, in mm²."""
    total = 0
    for ax0, ay0, ax1, ay1 in boxes_a:
        for bx0, by0, bx1, by1 in boxes_b:
            w = min(ax1, bx1) - max(ax0, bx0)
            h = min(ay1, by1) - max(ay0, by0)
            if w > 0 and h > 0:
                total += w * h
    return total


def pairwise_overlap_mm2(polygons):
    """Largest pairwise interior overlap across a list of vertex lists."""
    slabs = [polygon_slabs(p) for p in polygons]
    worst = 0
    for i, j in combinations(range(len(slabs)), 2):
        worst = max(worst, overlap_area_mm2(slabs[i], slabs[j]))
    return worst


def _point_text(x, y):
    return f"Point(x={x!r}, y={y!r})"


def normalise_polygon(vertices):
    """Vertex normalisation of a rectilinear polygon, done on the snapped floats.

    ``vertices`` is a list of (x, y) in metres.  Every vertex is rounded to
    the millimetre grid; then, in this order: vertices collinear with both
    neighbours in the input cycle are dropped, each edge must be axis-aligned
    and of nonzero length, clockwise input is reversed, the area must be
    positive, no vertex may repeat, no two non-adjacent edges may touch, and
    the cycle is rotated to start at the smallest (x, y).  Returns the
    vertex list, or raises ValueError with the message the package gives.
    """
    verts = [(round(x, 3), round(y, 3)) for x, y in vertices]
    if len(verts) < 4:
        raise ValueError("rectilinear polygon needs at least 4 vertices")
    n = len(verts)
    verts = [
        p
        for i, p in enumerate(verts)
        if not (
            verts[i - 1][0] == p[0] == verts[(i + 1) % n][0]
            or verts[i - 1][1] == p[1] == verts[(i + 1) % n][1]
        )
    ]
    if len(verts) < 4:
        raise ValueError("degenerate polygon after merging collinear vertices")
    edges = list(zip(verts, verts[1:] + verts[:1]))
    for p, q in edges:
        if p[0] != q[0] and p[1] != q[1]:
            raise ValueError(f"edge not axis-aligned: {_point_text(*p)} -> {_point_text(*q)}")
        if p == q:
            raise ValueError(f"repeated vertex {_point_text(*p)}")

    def signed_area(vs):
        pts = [(round(x * MM), round(y * MM)) for x, y in vs]
        return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))

    if signed_area(verts) < 0:
        verts.reverse()
    if signed_area(verts) <= 0:
        raise ValueError("polygon area must be positive")
    if len(set(verts)) != len(verts):
        raise ValueError("polygon repeats a vertex")
    edges = list(zip(verts, verts[1:] + verts[:1]))
    for i, j in combinations(range(len(edges)), 2):
        if j == i + 1 or (i == 0 and j == len(edges) - 1):
            continue
        (a, b), (c, d) = edges[i], edges[j]
        if (
            min(a[0], b[0]) <= max(c[0], d[0])
            and min(c[0], d[0]) <= max(a[0], b[0])
            and min(a[1], b[1]) <= max(c[1], d[1])
            and min(c[1], d[1]) <= max(a[1], b[1])
        ):
            raise ValueError("polygon boundary self-intersects")
    start = verts.index(min(verts))
    return verts[start:] + verts[:start]


# --- plan document ---------------------------------------------------------


def plan_json(plan):
    """The plan document as the standard library writes it.

    Builds the document dict in schema order and dumps it with indent=2.
    """
    fp = plan.footprint

    def points(poly):
        return [[p.x, p.y] for p in poly.vertices]

    doc = {
        "schema_version": 1,
        "seed": plan.seed,
        "config_fingerprint": plan.config_fingerprint,
        "attempts": plan.attempts,
        "corridor_candidates": plan.corridor_candidates,
        "footprint": {
            "x": fp.x,
            "y": fp.y,
            "x1": round(fp.x1, 3),
            "y1": round(fp.y1, 3),
        },
        "rooms": [
            {
                "id": room.id,
                "kind": room.kind.value,
                "target_area": room.target_area,
                "polygon": points(room.polygon),
            }
            for room in plan.rooms
        ],
        "corridor": points(plan.corridor) if plan.corridor is not None else None,
        "openings": [
            {
                "kind": o.kind,
                "wall": [[o.wall.a.x, o.wall.a.y], [o.wall.b.x, o.wall.b.y]],
                "offset": o.offset,
                "width": o.width,
                "rooms": list(o.rooms),
            }
            for o in plan.openings
        ],
        "connection_graph": {
            "nodes": sorted(plan.graph.nodes),
            "edges": [list(e) for e in plan.graph.edges],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _edges_mm(vertices):
    """Polygon edges as (horizontal, line, lo, hi) in mm."""
    pts = [(round(x * MM), round(y * MM)) for x, y in vertices]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        if y0 == y1:
            yield (True, y0, min(x0, x1), max(x0, x1))
        else:
            yield (False, x0, min(y0, y1), max(y0, y1))


def shared_walls(vertices_a, vertices_b):
    """Maximal collinear overlaps of two polygon boundaries.

    Compares every edge of one polygon with every edge of the other and
    merges the overlaps per line.  Runs come back as sorted
    (horizontal, line, lo, hi) tuples in mm.
    """
    by_line = {}
    for ha, la, loa, hia in _edges_mm(vertices_a):
        for hb, lb, lob, hib in _edges_mm(vertices_b):
            lo, hi = max(loa, lob), min(hia, hib)
            if (ha, la) == (hb, lb) and lo < hi:
                by_line.setdefault((ha, la), []).append((lo, hi))
    out = []
    for (horizontal, line), spans in by_line.items():
        spans.sort()
        merged = [list(spans[0])]
        for lo, hi in spans[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out.extend((horizontal, line, lo, hi) for lo, hi in merged)
    return sorted(out)
