"""Reference implementations the suite checks the package against.

Everything here is deliberately naive: row layouts are evaluated by building
the actual rectangles, shortest paths by enumerating every simple path,
Steiner trees by the textbook Dreyfus-Wagner program, area audits by
scanline decomposition of the polygons themselves.  None of it
imports package internals beyond plain data, the grid helpers and the error
types, except the four sections of copies at the end, which are the package's
own earlier code kept as a reference for its rewrite: the front stage, the
cell-set Region (as CellRegion) that held every area before one grid per plan
replaced it, with the corridor checks and wall queries made on it, the
treemap's row filling before it became one pass per level, and the room
layout's level walk before its check read the cut floats.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from itertools import combinations, count
from typing import Iterator

from planwright.geometry import (
    GRID, MAX_EXACT, Box, Grid, Point, Rect, RectilinearPolygon, Run, _m, _mm, merge_runs, snap
)
from planwright.sampling import BEDROOM_KINDS, ConfigError, RoomKind, SamplingError
from planwright.treemap import LayoutError, LayoutRequest, PlacedRoom

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


def steiner_optimum(edges, contact_sets):
    """Least total weight of a tree touching every contact set (Dreyfus-Wagner, 1971).

    ``edges`` is [(u, v, weight)] with hashable vertices and ``contact_sets``
    a list of vertex collections.  Each set gets a virtual terminal joined to
    its vertices by a weight larger than all the edges together, so a
    cheapest tree reaches each terminal by exactly one such edge whenever the
    sets can be joined at all; the optimum is the Steiner tree's weight less
    those k joins.  Returns None when the sets cannot be joined.
    """
    big = sum(w for _, _, w in edges) + 1
    adjacency = {}
    for u, v, weight in edges:
        adjacency.setdefault(u, []).append((v, weight))
        adjacency.setdefault(v, []).append((u, weight))
    terminals = [("terminal", i) for i in range(len(contact_sets))]
    for t, verts in zip(terminals, contact_sets):
        adjacency[t] = [(v, big) for v in verts]
        for v in verts:
            adjacency.setdefault(v, []).append((t, big))

    def relax(cost):
        """Cheapest ``cost[u] + dist(u, v)`` for every v: Dijkstra from all u at once."""
        tie = count()
        heap = [(c, next(tie), v) for v, c in cost.items() if c < math.inf]
        heapq.heapify(heap)
        done = {}
        while heap:
            c, _, v = heapq.heappop(heap)
            if v in done:
                continue
            done[v] = c
            for u, weight in adjacency[v]:
                if u not in done:
                    heapq.heappush(heap, (c + weight, next(tie), u))
        return {v: done.get(v, math.inf) for v in adjacency}

    k = len(terminals)
    # tree[S][v]: least weight of a tree holding v and the terminals in bit set S.
    tree = [None] * (1 << k)
    for i, t in enumerate(terminals):
        tree[1 << i] = relax({t: 0})
    for s in range(1, 1 << k):
        if s & (s - 1) == 0:
            continue
        low = s & -s
        merged = {}
        for v in adjacency:
            best = math.inf
            a = (s - 1) & s
            while a:
                # Each split once: the part holding the lowest terminal.
                if a & low:
                    best = min(best, tree[a][v] + tree[s ^ a][v])
                a = (a - 1) & s
            merged[v] = best
        tree[s] = relax(merged)
    full = tree[(1 << k) - 1]
    optimum = min((c for v, c in full.items() if v not in terminals), default=math.inf) - k * big
    # A tree that needs one more join passes through a virtual terminal: the
    # sets lie in different pieces of the graph.
    return None if optimum >= big else optimum


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


# --- front stage as first written ------------------------------------------
# The sampling and hierarchy functions as they were before programs were
# memoised and the tree built in one pass, copied unchanged with their data
# types.  The package versions must give equal programs and trees, leave the
# stream at the same counter and raise the same errors.

OUTSIDE_ID = -1


@dataclass(frozen=True)
class RoomEntry:
    id: int
    kind: RoomKind
    target_area: float


@dataclass(frozen=True)
class RoomProgram:
    bedrooms: int
    rooms: int
    entries: tuple[RoomEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rooms:
            raise ValueError("entry count does not match room count")
        kinds = [e.kind for e in self.entries]
        if kinds.count(RoomKind.LIVING_ROOM) != 1:
            raise ValueError("program must contain exactly one living room")
        if sum(1 for k in kinds if k in BEDROOM_KINDS) != self.bedrooms:
            raise ValueError("bedroom entries do not match bedroom count")
        if any(e.target_area < 0 for e in self.entries):
            raise ValueError("target areas must be non-negative")

    @property
    def total_area(self) -> float:
        return sum(e.target_area for e in self.entries)


def assign_functions(bedrooms: int, rooms: int, priority: tuple[RoomKind, ...]) -> RoomProgram:
    """Pick the N highest-priority feasible room functions.

    Walks the priority list reserving slots for the required bedrooms and,
    when the house has bedrooms and capacity allows, one bathroom; entries
    that would squeeze those out are skipped.  Extra bedroom entries are
    appended when the list runs short of them.  The first bedroom entry is
    the master bedroom.  Target areas come later, from ``sample_areas``.
    """
    if rooms < 1:
        raise ValueError("a program needs at least one room")
    if bedrooms < 0 or bedrooms > rooms - 1:
        raise ValueError(f"cannot fit {bedrooms} bedrooms in {rooms} rooms")
    slots = rooms
    beds = bedrooms
    bath_needed = bedrooms >= 1 and rooms >= bedrooms + 2
    kinds: list[RoomKind] = []
    for kind in priority:
        if slots == 0:
            break
        if kind is RoomKind.OUTSIDE:
            continue
        if kind in BEDROOM_KINDS:
            if beds > 0:
                kinds.append(kind)
                beds -= 1
                slots -= 1
            continue
        reserved = beds if kind is RoomKind.BATHROOM else beds + (1 if bath_needed else 0)
        if slots - 1 < reserved:
            continue
        kinds.append(kind)
        slots -= 1
        if kind is RoomKind.BATHROOM:
            bath_needed = False
    while beds > 0 and slots > 0:
        kinds.append(RoomKind.BEDROOM)
        beds -= 1
        slots -= 1
    if slots > 0:
        # The census table carries a sliver of mass on room counts the
        # priority list cannot staff (one cell, ~1e-4); that draw is
        # unusable rather than a caller bug, so the attempt is retried.
        raise SamplingError(f"priority list too short for {rooms} rooms")
    first_bed = True
    for i, kind in enumerate(kinds):
        if kind in BEDROOM_KINDS:
            kinds[i] = RoomKind.MASTER_BEDROOM if first_bed else RoomKind.BEDROOM
            first_bed = False
    entries = tuple(RoomEntry(i, kind, 0.0) for i, kind in enumerate(kinds))
    return RoomProgram(bedrooms, rooms, entries)


def sample_areas(program: RoomProgram, rng: RandomStream, cfg: GenConfig) -> RoomProgram:
    """Draw a target area for every entry from its kind's distribution."""
    entries = []
    for entry in program.entries:
        dist = cfg.areas.get(entry.kind)
        if dist is None:
            raise ConfigError(f"no area distribution for {entry.kind.value}")
        entries.append(RoomEntry(entry.id, entry.kind, snap(dist.sample(rng))))
    return RoomProgram(program.bedrooms, program.rooms, tuple(entries))


def derive_footprint(program: RoomProgram, rng: RandomStream, cfg: GenConfig) -> tuple[Rect, RoomProgram]:
    """Derive the footprint rect whose area is the program's total area.

    width = sqrt(area * AR), height = area / width, both snapped to the grid.
    Snapping perturbs the footprint area by a fraction of a square
    millimetre per metre of side, so the residual is folded into the target
    with the most slack to its distribution bounds; the returned program sums
    exactly to the footprint area.
    """
    total = program.total_area
    for _ in range(4096):
        ratio = cfg.footprint_aspect.sample(rng)
        if ratio <= cfg.max_footprint_aspect:
            break
    else:
        raise SamplingError("footprint aspect draws all exceed the configured cap")
    width = snap(math.sqrt(total * ratio))
    height = snap(total / width) if width > 0 else 0.0
    # Snapping may push the realized ratio a hair past the cap; walk it back.
    for _ in range(16):
        if min(width, height) <= 0 or max(width, height) > MAX_EXACT:
            raise SamplingError(f"a footprint side snaps to 0 mm or exceeds {MAX_EXACT:g} m")
        if max(width, height) / min(width, height) <= cfg.max_footprint_aspect:
            break
        if width >= height:
            width = snap(width - GRID)
        else:
            height = snap(height - GRID)
        if width >= height:
            height = snap(total / width)
        else:
            width = snap(total / height)
    else:
        raise SamplingError("could not realize footprint aspect ratio on the grid")
    footprint = Rect(0.0, 0.0, width, height)
    delta = footprint.area - total
    host = max(program.entries, key=lambda e: cfg.areas[e.kind].margin(e.target_area))
    adjusted_area = host.target_area + delta
    if cfg.areas[host.kind].margin(adjusted_area) < 0:
        raise SamplingError("footprint rounding residual does not fit any room's distribution")
    entries = tuple(
        RoomEntry(e.id, e.kind, adjusted_area) if e.id == host.id else e for e in program.entries
    )
    return footprint, RoomProgram(program.bedrooms, program.rooms, entries)


@dataclass
class HierarchyNode:
    room_id: int
    kind: RoomKind
    target_area: float
    children: list["HierarchyNode"] = field(default_factory=list)
    aggregate_area: float = 0.0

    def walk(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal, children in insertion order."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_hierarchy(program: RoomProgram, *, kitchen_via_dining: bool = False) -> HierarchyNode:
    """Attach every program entry under its rule-given parent.

    Rules, applied in order: the living room hangs off the Outside root;
    dining room, kitchen (unless ``kitchen_via_dining`` and a dining room
    exists), all bedrooms, the first bathroom and any kind without a rule of
    its own go under the living room; the largest bedroom becomes the master
    bedroom (ties break to the lowest id); bathrooms past the first go under
    bedrooms, largest bedroom first, spilling back to the living room if the
    bedrooms run out; laundry and pantry go under the kitchen when there is
    one.
    """
    entries = sorted(program.entries, key=lambda e: e.id)
    living = [e for e in entries if e.kind is RoomKind.LIVING_ROOM]
    if len(living) != 1:
        raise ValueError("program must contain exactly one living room")

    nodes = {e.id: HierarchyNode(e.id, e.kind, e.target_area) for e in entries}
    root = HierarchyNode(OUTSIDE_ID, RoomKind.OUTSIDE, 0.0)
    lr = nodes[living[0].id]
    root.children.append(lr)

    bedrooms = [nodes[e.id] for e in entries if e.kind in BEDROOM_KINDS]
    if bedrooms:
        master = max(bedrooms, key=lambda n: (n.target_area, -n.room_id))
        for node in bedrooms:
            node.kind = RoomKind.MASTER_BEDROOM if node is master else RoomKind.BEDROOM

    dining = [nodes[e.id] for e in entries if e.kind is RoomKind.DINING_ROOM]
    kitchens = [nodes[e.id] for e in entries if e.kind is RoomKind.KITCHEN]
    kitchen_parent = dining[0] if (kitchen_via_dining and dining) else lr

    lr.children.extend(dining)
    kitchen_parent.children.extend(kitchens)
    lr.children.extend(bedrooms)

    bathrooms = [nodes[e.id] for e in entries if e.kind is RoomKind.BATHROOM]
    by_size = sorted(bedrooms, key=lambda n: (-n.target_area, n.room_id))
    for i, bath in enumerate(bathrooms):
        if i == 0 or i - 1 >= len(by_size):
            lr.children.append(bath)
        else:
            by_size[i - 1].children.append(bath)

    for entry in entries:
        node = nodes[entry.id]
        if entry.kind in (RoomKind.LAUNDRY, RoomKind.PANTRY):
            (kitchens[0] if kitchens else lr).children.append(node)
        elif entry.kind in (
            RoomKind.LIVING_ROOM,
            RoomKind.DINING_ROOM,
            RoomKind.KITCHEN,
            RoomKind.BATHROOM,
        ) or entry.kind in BEDROOM_KINDS:
            continue
        else:
            lr.children.append(node)

    return aggregate_areas(root)


def aggregate_areas(root: HierarchyNode) -> HierarchyNode:
    """Fill every node's aggregate_area with its subtree's total target area."""
    total = root.target_area
    for child in root.children:
        total += aggregate_areas(child).aggregate_area
    root.aggregate_area = total
    return root


# --- cell-set regions and the checks on them --------------------------------
# The cell-set Region the package used for every area before one grid per
# plan replaced it, with the set algebra and shape tests the corridor search
# ran before it decided candidates on integer masks, and the exterior-wall
# query door and window placement made on it.  Copied unchanged except that
# everything builds CellRegion.


class CellRegion:
    """Set of axis-aligned cells over an integer-millimetre breakpoint grid.

    Areas are in square millimetres and exact.  Regions are immutable; each
    computes its boundary runs once, on first use.
    """

    __slots__ = ("xs", "ys", "cells", "_borders")

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...], cells: frozenset[tuple[int, int]]):
        self.xs = xs
        self.ys = ys
        self.cells = cells
        self._borders: dict[tuple[str, int, int], list[tuple[int, int]]] | None = None

    @classmethod
    def empty(cls) -> "CellRegion":
        return cls((), (), frozenset())

    @classmethod
    def from_rect(cls, rect: Rect) -> "CellRegion":
        xs = (_mm(rect.x), _mm(rect.x1))
        ys = (_mm(rect.y), _mm(rect.y1))
        return cls(xs, ys, frozenset({(0, 0)}))

    @classmethod
    def from_boxes(cls, boxes: list[Box]) -> "CellRegion":
        """Union of (x0, y0, x1, y1) millimetre boxes, built in one pass."""
        boxes = [b for b in boxes if b[0] < b[2] and b[1] < b[3]]
        if not boxes:
            return cls.empty()
        xs = tuple(sorted({v for b in boxes for v in (b[0], b[2])}))
        ys = tuple(sorted({v for b in boxes for v in (b[1], b[3])}))
        xi = {x: i for i, x in enumerate(xs)}
        yi = {y: j for j, y in enumerate(ys)}
        cells = set()
        for x0, y0, x1, y1 in boxes:
            for i in range(xi[x0], xi[x1]):
                for j in range(yi[y0], yi[y1]):
                    cells.add((i, j))
        return cls(xs, ys, frozenset(cells))

    @classmethod
    def from_polygon(cls, polygon: RectilinearPolygon) -> "CellRegion":
        xs = tuple(sorted({x for x, _ in polygon.mm}))
        ys = tuple(sorted({y for _, y in polygon.mm}))
        xi = {x: i for i, x in enumerate(xs)}
        # Vertical polygon edges, for midline crossing parity per row slab.
        vedges = [
            (ax, min(ay, by), max(ay, by)) for (ax, ay), (bx, by) in polygon.edges_mm() if ax == bx
        ]
        cells = set()
        for j in range(len(ys) - 1):
            ymid2 = ys[j] + ys[j + 1]  # 2 * midpoint, keeps everything integral
            crossings = sorted(x for x, ylo, yhi in vedges if 2 * ylo < ymid2 < 2 * yhi)
            for k in range(0, len(crossings) - 1, 2):
                cells.update((i, j) for i in range(xi[crossings[k]], xi[crossings[k + 1]]))
        return cls(xs, ys, frozenset(cells))

    @classmethod
    def from_mask(cls, grid: Grid, m: int) -> "CellRegion":
        """The cells of a grid mask, on all the grid's lines."""
        s = grid.stride
        cells = frozenset((k % s, k // s) for k in range(m.bit_length()) if m >> k & 1)
        return cls(grid.xs, grid.ys, cells)

    @property
    def area(self) -> int:
        total = 0
        for i, j in self.cells:
            total += (self.xs[i + 1] - self.xs[i]) * (self.ys[j + 1] - self.ys[j])
        return total

    def realign(self, xs: tuple[int, ...], ys: tuple[int, ...]) -> frozenset[tuple[int, int]]:
        """Re-express this region's cells on a finer breakpoint grid."""
        if not self.cells:
            return frozenset()
        xi = {x: i for i, x in enumerate(xs)}
        yi = {y: j for j, y in enumerate(ys)}
        out = set()
        for i, j in self.cells:
            for ii in range(xi[self.xs[i]], xi[self.xs[i + 1]]):
                for jj in range(yi[self.ys[j]], yi[self.ys[j + 1]]):
                    out.add((ii, jj))
        return frozenset(out)

    def connected(self) -> bool:
        """True when nonempty and all cells are reachable via shared edges."""
        if not self.cells:
            return False
        if len(self.cells) == 1:
            return True
        seen = set()
        stack = [next(iter(self.cells))]
        while stack:
            i, j = stack.pop()
            if (i, j) in seen:
                continue
            seen.add((i, j))
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in self.cells and nb not in seen:
                    stack.append(nb)
        return len(seen) == len(self.cells)

    def _facing_borders(self) -> dict[tuple[str, int, int], list[tuple[int, int]]]:
        """Merged boundary runs keyed by (axis, line mm, facing sign); do not mutate."""
        if self._borders is not None:
            return self._borders
        raw: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
        for i, j in self.cells:
            x0, x1 = self.xs[i], self.xs[i + 1]
            y0, y1 = self.ys[j], self.ys[j + 1]
            if (i + 1, j) not in self.cells:
                raw.setdefault(("v", x1, 1), []).append((y0, y1))
            if (i - 1, j) not in self.cells:
                raw.setdefault(("v", x0, -1), []).append((y0, y1))
            if (i, j + 1) not in self.cells:
                raw.setdefault(("h", y1, 1), []).append((x0, x1))
            if (i, j - 1) not in self.cells:
                raw.setdefault(("h", y0, -1), []).append((x0, x1))
        self._borders = {key: merge_runs(runs) for key, runs in raw.items()}
        return self._borders

    def shared_walls(self, other: "CellRegion") -> list[Run]:
        """Maximal wall runs shared with a disjoint neighbour.

        Each run is ``(horizontal, line, lo, hi)`` in mm: a stretch of this
        region's boundary that the other region's boundary covers from the
        opposite side.  Runs on one line merge where they touch, and the list
        comes back sorted for deterministic downstream iteration.
        """
        theirs = other._facing_borders()
        by_line: dict[tuple[bool, int], list[tuple[int, int]]] = {}
        for (axis, line, face), runs in self._facing_borders().items():
            opposite = theirs.get((axis, line, -face))
            if not opposite:
                continue
            k = 0
            for lo, hi in runs:
                while k < len(opposite) and opposite[k][1] <= lo:
                    k += 1
                m = k
                while m < len(opposite) and opposite[m][0] < hi:
                    by_line.setdefault((axis == "h", line), []).append(
                        (max(lo, opposite[m][0]), min(hi, opposite[m][1]))
                    )
                    m += 1
        out = []
        for (horizontal, line), spans in by_line.items():
            out.extend((horizontal, line, lo, hi) for lo, hi in merge_runs(spans))
        return sorted(out)

    def shared_border_mm(self, other: "CellRegion") -> int:
        """Longest straight wall run shared with a disjoint neighbour, in mm."""
        return max((hi - lo for _, _, lo, hi in self.shared_walls(other)), default=0)

    def to_polygon(self) -> RectilinearPolygon:
        """Trace the boundary into a single simple polygon.

        Raises ValueError when the region is empty, disconnected, has a hole,
        or pinches down to a corner contact.
        """
        if not self.cells:
            raise ValueError("empty region has no boundary")
        if not self.connected():
            raise ValueError("region is disconnected")
        # Each merged boundary run, directed with the interior on its left.
        edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (axis, line, face), runs in self._facing_borders().items():
            for lo, hi in runs:
                a, b = ((lo, line), (hi, line)) if axis == "h" else ((line, lo), (line, hi))
                if (axis == "h") == (face == 1):
                    a, b = b, a
                edges.setdefault(a, []).append(b)
        start = min(edges)
        loop = [start]
        cur = start
        total = sum(len(v) for v in edges.values())
        for _ in range(total):
            nxts = edges.get(cur)
            if not nxts:
                raise ValueError("region boundary is not a closed loop")
            if len(nxts) > 1:
                raise ValueError("region pinches to a corner contact")
            cur = nxts.pop()
            if cur == start:
                break
            loop.append(cur)
        else:
            raise ValueError("region boundary does not close")
        if any(edges.values()):
            raise ValueError("region has a hole or multiple boundary loops")
        return RectilinearPolygon(tuple(Point(_m(x), _m(y)) for x, y in loop))

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def _common(self, other: "CellRegion") -> tuple[tuple[int, ...], tuple[int, ...], frozenset, frozenset]:
        xs = tuple(sorted(set(self.xs) | set(other.xs)))
        ys = tuple(sorted(set(self.ys) | set(other.ys)))
        return xs, ys, self.realign(xs, ys), other.realign(xs, ys)

    def union(self, other: "CellRegion") -> "CellRegion":
        xs, ys, a, b = self._common(other)
        return CellRegion(xs, ys, a | b)

    def subtract(self, other: "CellRegion") -> "CellRegion":
        xs, ys, a, b = self._common(other)
        return CellRegion(xs, ys, a - b)

    def intersect(self, other: "CellRegion") -> "CellRegion":
        xs, ys, a, b = self._common(other)
        return CellRegion(xs, ys, a & b)

    def full_rect_mm(self) -> tuple[int, int] | None:
        """(width, height) in mm when the cells tile one solid rectangle."""
        if not self.cells:
            return None
        imin = imax = next(iter(self.cells))[0]
        jmin = jmax = next(iter(self.cells))[1]
        for i, j in self.cells:
            imin, imax = min(imin, i), max(imax, i)
            jmin, jmax = min(jmin, j), max(jmax, j)
        if len(self.cells) != (imax - imin + 1) * (jmax - jmin + 1):
            return None
        return (self.xs[imax + 1] - self.xs[imin], self.ys[jmax + 1] - self.ys[jmin])

    def has_pinch(self) -> bool:
        """True when two cells meet only at a corner (a checkerboard vertex)."""
        cells = self.cells
        for i, j in cells:
            if (i + 1, j + 1) in cells and (i + 1, j) not in cells and (i, j + 1) not in cells:
                return True
            if (i + 1, j - 1) in cells and (i + 1, j) not in cells and (i, j - 1) not in cells:
                return True
        return False

    def has_hole(self) -> bool:
        """True when part of the complement is walled off inside the region."""
        if len(self.cells) < 8:
            # A hole needs a full ring of cells around a missing one.
            return False
        imin = min(i for i, _ in self.cells) - 1
        imax = max(i for i, _ in self.cells) + 1
        jmin = min(j for _, j in self.cells) - 1
        jmax = max(j for _, j in self.cells) + 1
        seen = {(imin, jmin)}
        stack = [(imin, jmin)]
        while stack:
            i, j = stack.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if (
                    imin <= nb[0] <= imax
                    and jmin <= nb[1] <= jmax
                    and nb not in self.cells
                    and nb not in seen
                ):
                    seen.add(nb)
                    stack.append(nb)
        box = (imax - imin + 1) * (jmax - jmin + 1)
        return len(seen) + len(self.cells) != box

    def thickness(self) -> int:
        """Width of the narrowest limb, in mm.

        Every maximal contiguous run of cells in a row contributes its width
        and every column run its height; the minimum over both passes is the
        narrowest limb.  For a plain rectangle this is min(width, height).
        """
        if not self.cells:
            return 0
        best: int | None = None
        for transpose in (False, True):
            axis = self.ys if transpose else self.xs
            rows: dict[int, set[int]] = {}
            for i, j in self.cells:
                if transpose:
                    i, j = j, i
                rows.setdefault(j, set()).add(i)
            for filled in rows.values():
                runs: list[list[int]] = []
                for i in sorted(filled):
                    if runs and runs[-1][1] == i:
                        runs[-1][1] = i + 1
                    else:
                        runs.append([i, i + 1])
                for a, b in runs:
                    width = axis[b] - axis[a]
                    if best is None or width < best:
                        best = width
        return best if best is not None else 0


def peculiar(region: CellRegion, min_room_width: int, max_room_aspect: float) -> bool:
    if region.has_pinch():
        return True
    rect = region.full_rect_mm()
    if rect is not None:
        w, h = rect
        return min(w, h) < min_room_width or max(w, h) > max_room_aspect * min(w, h)
    return region.thickness() < min_room_width


def simple(region: CellRegion) -> bool:
    return not (region.has_pinch() or region.has_hole())


def room_verdict(rid: int, after: CellRegion, min_room_width: int, max_room_aspect: float) -> str:
    """The rejection reason for what the corridor leaves of room ``rid``; "" when it passes."""
    if after.is_empty:
        return f"room {rid} swallowed by the corridor"
    if not after.connected():
        return f"room {rid} split by the corridor"
    if peculiar(after, min_room_width, max_room_aspect):
        return f"room {rid} left peculiar"
    return ""


def identify_corridor_rooms(regions: dict[int, CellRegion], parent_of: dict[int, int], cfg) -> set[int]:
    """Rooms lacking a door-width shared wall with their hierarchy parent."""
    door_mm = _mm(cfg.door_width)
    stranded: set[int] = set()
    for child_id, parent_id in parent_of.items():
        if parent_id not in regions:
            continue
        if regions[child_id].shared_border_mm(regions[parent_id]) < door_mm:
            stranded.add(child_id)
    return stranded


def exterior_walls(region: CellRegion, footprint: Box) -> list[Run]:
    """Boundary runs of the room lying on the footprint boundary."""
    fx0, fy0, fx1, fy1 = footprint
    return [
        (axis == "h", line, lo, hi)
        for (axis, line, _), runs in region._facing_borders().items()
        if line in ((fy0, fy1) if axis == "h" else (fx0, fx1))
        for lo, hi in runs
    ]


# --- treemap rows as first written ----------------------------------------
# The row filling the treemap used before each level became one pass with a
# running sum, smallest and largest area, copied unchanged.  ``_worst``
# re-sums and re-scans the row for every candidate, so a row costs O(n**2).
# The package must cut the same floats and raise the same errors.


def _worst(areas: list[float], start: int, end: int, side: float) -> float:
    """Worst aspect ratio in the row areas[start:end] against a side of the container."""
    thickness = sum(areas[start:end]) / side
    t2 = thickness * thickness
    worst = 1.0
    for a in areas[start:end]:
        worst = max(worst, t2 / a, a / t2)
    return worst


def _fill(container: Rect, areas: list[float]) -> list[Rect]:
    rects: list[Rect] = []
    x0, y0, x1, y1 = container.x, container.y, container.x1, container.y1
    start = 0
    while start < len(areas):
        # A row is laid along the shorter side (v) and grows across it (u):
        # a column at the left of a wide container, a row at the bottom of a
        # tall one.
        vertical = x1 - x0 >= y1 - y0
        u0, u1, v0, v1 = (x0, x1, y0, y1) if vertical else (y0, y1, x0, x1)
        side = v1 - v0
        if side <= 0:
            raise LayoutError("container side rounds to zero")
        end = start + 1
        while end < len(areas) and _worst(areas, start, end + 1, side) <= _worst(
            areas, start, end, side
        ):
            end += 1
        thickness = sum(areas[start:end]) / side
        usplit = u1 if end == len(areas) else u0 + thickness
        v = v0
        for k in range(start, end):
            vnext = v1 if k == end - 1 else v + areas[k] / thickness
            du, dv = usplit - u0, vnext - v
            if du <= 0 or dv <= 0:
                # An area too small beside the others to move a float coordinate.
                raise LayoutError("rect side rounds to zero")
            rects.append(Rect(u0, v, du, dv) if vertical else Rect(v, u0, dv, du))
            v = vnext
        if vertical:
            x0 = usplit
        else:
            y0 = usplit
        start = end
    return rects


# --- room layout as first written -----------------------------------------
# The level walk of ``layout_rooms`` before its check read the cut floats,
# copied unchanged except that each level is cut by ``_fill`` above.  Every
# level builds and validates a LayoutRequest, and each room reaches the check
# as a PlacedRoom with its Rect.  The package must pass the same rooms to its
# check in the same order and fail at the same room with the same message.


def layout_rooms_per_level(footprint: Rect, tree, check=None) -> list:
    if tree.kind is not RoomKind.OUTSIDE or len(tree.children) != 1:
        raise LayoutError("layout expects the Outside root with its living-room child")
    rooms: list = []
    _place(tree.children[0], footprint, rooms, check or (lambda room: room))
    return rooms


def _place(node, rect: Rect, rooms: list, check) -> None:
    if not node.children:
        rooms.append(check(PlacedRoom(node.room_id, node.kind, rect)))
        return
    children = sorted(node.children, key=lambda c: (-c.aggregate_area, c.room_id))
    items = ((node.room_id, node.target_area), *((c.room_id, c.aggregate_area) for c in children))
    req = LayoutRequest(rect, items)
    rects = _fill(rect, [area for _, area in req.items])
    rooms.append(check(PlacedRoom(node.room_id, node.kind, rects[0])))
    for child, child_rect in zip(children, rects[1:]):
        _place(child, child_rect, rooms, check)
