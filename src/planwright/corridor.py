"""Corridor detection, routing, optimization and extrusion.

A room whose hierarchy parent it does not touch (with enough shared wall for
a door) cannot be entered.  This module fixes that: it builds a graph from
the interior walls of the placed rooms, prunes it to its 2-core, routes the
shortest tree connecting the stranded rooms to the living room, widens the
routed walls into corridor strips - trying a bounded set of per-edge Shift
and Lengthen variants - and extrudes the cheapest valid corridor from the
rooms it crosses.  The corridor then counts as living-room space, and the
rooms it serves hang off the living room in the connection graph.

Everything operates on millimetre-snapped rects, so containment, contact and
area tests are exact integer comparisons.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import product

from .geometry import (
    Point,
    Rect,
    RectilinearPolygon,
    Region,
    Segment,
    _m,
    _mm,
    merge_runs,
)
from .sampling import GenConfig, RoomKind
from .treemap import PlacedRoom

MAX_ALTERNATIVES = 4
MAX_ACTIONABLE_EDGES = 3


class CorridorError(RuntimeError):
    """This placement cannot be given a workable corridor; resample."""


def _seg_key(seg: Segment) -> tuple:
    return (seg.a.x, seg.a.y, seg.b.x, seg.b.y)


def _vert_key(p: Point) -> tuple[float, float]:
    return (p.x, p.y)


@dataclass(frozen=True)
class WallGraph:
    vertices: tuple[Point, ...]
    edges: tuple[Segment, ...]
    terminals: frozenset[int] = frozenset()

    def adjacency(self) -> dict[Point, list[tuple[Point, Segment]]]:
        adj: dict[Point, list[tuple[Point, Segment]]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            adj[edge.a].append((edge.b, edge))
            adj[edge.b].append((edge.a, edge))
        for nbrs in adj.values():
            nbrs.sort(key=lambda pair: _vert_key(pair[0]))
        return adj


@dataclass(frozen=True)
class CorridorPath:
    edges: tuple[Segment, ...]
    anchor: Point | None
    contacts: tuple[tuple[int, str], ...] = ()

    @property
    def length(self) -> float:
        return _m(sum(_mm(e.length) for e in self.edges))


@dataclass(frozen=True)
class EdgeAction:
    """Modification of one path edge before thickening.

    shift moves the wall line sideways (signed; -corridor_width is the plain
    side flip), extend_lo/extend_hi stretch the strip past the low/high
    endpoint.  The all-zero action thickens the edge in place.
    """

    shift: float = 0.0
    extend_lo: float = 0.0
    extend_hi: float = 0.0

    def sort_key(self) -> tuple[int, int, int, int]:
        s = _mm(self.shift)
        return (abs(s), 0 if s >= 0 else 1, _mm(self.extend_lo), _mm(self.extend_hi))

    def to_json(self) -> dict:
        return {"shift": self.shift, "extend_lo": self.extend_lo, "extend_hi": self.extend_hi}


@dataclass(frozen=True)
class CorridorCandidate:
    edges: tuple[Segment, ...]
    actions: tuple[EdgeAction, ...]
    region: Region
    area: float
    length: float
    valid: bool
    reason: str = ""
    rooms_after: tuple[tuple[int, Region], ...] = ()

    def sort_key(self) -> tuple:
        return (
            round(self.area * 1e6),
            _mm(self.length),
            tuple(a.sort_key() for a in self.actions),
        )


@dataclass(frozen=True)
class CorridorResult:
    """What the pipeline needs downstream plus the full trace for debugging."""

    corridor: RectilinearPolygon | None
    rooms: tuple[tuple[int, RoomKind, Region], ...]
    reparented: tuple[int, ...]
    trace: dict = field(default_factory=dict)


def identify_corridor_rooms(
    rooms: list[PlacedRoom], parent_of: dict[int, int], cfg: GenConfig
) -> set[int]:
    """Rooms lacking a door-width shared wall with their hierarchy parent."""
    regions = {room.id: Region.from_rect(room.rect) for room in rooms}
    door_mm = _mm(cfg.door_width)
    stranded: set[int] = set()
    for child_id, parent_id in parent_of.items():
        if parent_id not in regions:
            continue
        if regions[child_id].shared_border_mm(regions[parent_id]) < door_mm:
            stranded.add(child_id)
    return stranded


def _wall_lines(
    footprint: Rect, rooms: list[PlacedRoom]
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """Interior wall runs in mm, merged per horizontal/vertical line."""
    fx0, fx1 = _mm(footprint.x), _mm(footprint.x1)
    fy0, fy1 = _mm(footprint.y), _mm(footprint.y1)
    h_lines: dict[int, list[tuple[int, int]]] = {}
    v_lines: dict[int, list[tuple[int, int]]] = {}
    for room in rooms:
        x0, x1 = _mm(room.rect.x), _mm(room.rect.x1)
        y0, y1 = _mm(room.rect.y), _mm(room.rect.y1)
        if y0 not in (fy0, fy1):
            h_lines.setdefault(y0, []).append((x0, x1))
        if y1 not in (fy0, fy1):
            h_lines.setdefault(y1, []).append((x0, x1))
        if x0 not in (fx0, fx1):
            v_lines.setdefault(x0, []).append((y0, y1))
        if x1 not in (fx0, fx1):
            v_lines.setdefault(x1, []).append((y0, y1))
    h_merged = {line: merge_runs(spans) for line, spans in h_lines.items()}
    v_merged = {line: merge_runs(spans) for line, spans in v_lines.items()}
    return h_merged, v_merged


def build_wall_graph(
    footprint: Rect, rooms: list[PlacedRoom], terminals: frozenset[int] = frozenset()
) -> WallGraph:
    """Graph of all interior wall segments, split at every coincident vertex.

    Walls on the footprint boundary are excluded.  Collinear overlapping wall
    runs are merged, then re-split wherever another wall starts, ends or
    crosses, so graph vertices are exactly the wall junctions.
    """
    h_merged, v_merged = _wall_lines(footprint, rooms)

    edges: list[Segment] = []
    for y, spans in sorted(h_merged.items()):
        cuts = {c for lo, hi in spans for c in (lo, hi)}
        for x, vspans in v_merged.items():
            if any(lo <= y <= hi for lo, hi in vspans):
                cuts.add(x)
        for lo, hi in spans:
            inner = sorted(c for c in cuts if lo <= c <= hi)
            for a, b in zip(inner, inner[1:]):
                edges.append(Segment(Point(_m(a), _m(y)), Point(_m(b), _m(y))))
    for x, spans in sorted(v_merged.items()):
        cuts = {c for lo, hi in spans for c in (lo, hi)}
        for y, hspans in h_merged.items():
            if any(lo <= x <= hi for lo, hi in hspans):
                cuts.add(y)
        for lo, hi in spans:
            inner = sorted(c for c in cuts if lo <= c <= hi)
            for a, b in zip(inner, inner[1:]):
                edges.append(Segment(Point(_m(x), _m(a)), Point(_m(x), _m(b))))

    edges.sort(key=_seg_key)
    vertices = sorted({p for e in edges for p in (e.a, e.b)}, key=_vert_key)
    return WallGraph(tuple(vertices), tuple(edges), terminals)


def prune(graph: WallGraph) -> WallGraph:
    """Iteratively drop edges at degree-1 vertices; returns the 2-core."""
    adj = {v: {e for _, e in nbrs} for v, nbrs in graph.adjacency().items()}
    stack = [v for v, es in adj.items() if len(es) == 1]
    alive = set(graph.edges)
    while stack:
        v = stack.pop()
        if len(adj[v]) != 1:
            continue
        edge = next(iter(adj[v]))
        alive.discard(edge)
        adj[v].clear()
        other = edge.b if edge.a == v else edge.a
        adj[other].discard(edge)
        if len(adj[other]) == 1:
            stack.append(other)
    edges = tuple(sorted(alive, key=_seg_key))
    vertices = tuple(sorted({p for e in edges for p in (e.a, e.b)}, key=_vert_key))
    return WallGraph(vertices, edges, graph.terminals)


def _contact_vertices(graph: WallGraph, rect: Rect) -> frozenset[Point]:
    """Graph vertices lying on the rect's boundary."""
    x0, x1 = _mm(rect.x), _mm(rect.x1)
    y0, y1 = _mm(rect.y), _mm(rect.y1)
    hits = []
    for p in graph.vertices:
        px, py = _mm(p.x), _mm(p.y)
        on_v = px in (x0, x1) and y0 <= py <= y1
        on_h = py in (y0, y1) and x0 <= px <= x1
        if on_v or on_h:
            hits.append(p)
    return frozenset(hits)


def _edge_on_rect(edge: Segment, rect: Rect) -> bool:
    x0, x1 = _mm(rect.x), _mm(rect.x1)
    y0, y1 = _mm(rect.y), _mm(rect.y1)
    if edge.horizontal:
        return _mm(edge.a.y) in (y0, y1) and x0 <= _mm(edge.a.x) and _mm(edge.b.x) <= x1
    return _mm(edge.a.x) in (x0, x1) and y0 <= _mm(edge.a.y) and _mm(edge.b.y) <= y1


def _dijkstra(
    adj: dict[Point, list[tuple[Point, Segment]]], sources: set[Point]
) -> tuple[dict[Point, int], dict[Point, tuple[Point, Segment] | None]]:
    dist: dict[Point, int] = {}
    parent: dict[Point, tuple[Point, Segment] | None] = {}
    heap: list[tuple[int, tuple[float, float], Point]] = []
    for v in sorted(sources, key=_vert_key):
        if v in adj:
            dist[v] = 0
            parent[v] = None
            heapq.heappush(heap, (0, _vert_key(v), v))
    while heap:
        d, _, v = heapq.heappop(heap)
        if d != dist.get(v):
            continue
        for u, edge in adj[v]:
            nd = d + _mm(edge.length)
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                parent[u] = (v, edge)
                heapq.heappush(heap, (nd, _vert_key(u), u))
    return dist, parent


def route(graph: WallGraph, contact_sets: list[tuple[int, frozenset[Point]]]) -> CorridorPath:
    """Connect every contact set to the first one (the living room's).

    Two sets are joined by a weighted shortest path; further sets join the
    grown component nearest-first, Steiner-tree style.  A set already
    touching the component contributes no edges.
    """
    for room_id, verts in contact_sets:
        if not verts:
            raise CorridorError(f"room {room_id} has no walls in the corridor graph")
    adj = graph.adjacency()
    component = {v for v in contact_sets[0][1] if v in adj}
    if not component:
        raise CorridorError("living room has no walls in the corridor graph")
    remaining = list(contact_sets[1:])
    chosen: set[Segment] = set()
    anchors: list[Point] = []
    while remaining:
        dist, parent = _dijkstra(adj, component)
        best: tuple[int, int, tuple[float, float], Point] | None = None
        for room_id, verts in remaining:
            for v in verts:
                d = dist.get(v)
                if d is None:
                    continue
                key = (d, room_id, _vert_key(v), v)
                if best is None or key[:3] < best[:3]:
                    best = key
        if best is None:
            raise CorridorError("a corridor room is unreachable in the wall graph")
        d, picked, _, v = best
        if d == 0:
            anchors.append(v)
        while parent[v] is not None:
            u, edge = parent[v]  # type: ignore[misc]
            chosen.add(edge)
            component.add(v)
            v = u
        component.add(v)
        remaining = [(rid, verts) for rid, verts in remaining if rid != picked]
    edges = tuple(sorted(chosen, key=_seg_key))
    anchor = min(anchors, key=_vert_key) if (not edges and anchors) else None
    return CorridorPath(edges, anchor)


@dataclass
class _Workspace:
    """Precomputed geometry shared by every candidate evaluation."""

    footprint: Rect
    rooms: tuple[PlacedRoom, ...]
    parent_of: dict[int, int]
    terminals: frozenset[int]
    living_id: int
    cfg: GenConfig
    fp_region: Region
    fp_box: tuple[int, int, int, int]
    room_regions: dict[int, Region]
    room_boxes: dict[int, tuple[int, int, int, int]]
    h_lines: dict[int, list[tuple[int, int]]]
    v_lines: dict[int, list[tuple[int, int]]]

    @classmethod
    def build(
        cls,
        footprint: Rect,
        rooms: list[PlacedRoom],
        parent_of: dict[int, int],
        terminals: frozenset[int],
        living_id: int,
        cfg: GenConfig,
    ) -> "_Workspace":
        h_lines, v_lines = _wall_lines(footprint, rooms)
        return cls(
            footprint=footprint,
            rooms=tuple(rooms),
            parent_of=dict(parent_of),
            terminals=terminals,
            living_id=living_id,
            cfg=cfg,
            fp_region=Region.from_rect(footprint),
            fp_box=_rect_box(footprint),
            room_regions={room.id: Region.from_rect(room.rect) for room in rooms},
            room_boxes={room.id: _rect_box(room.rect) for room in rooms},
            h_lines=h_lines,
            v_lines=v_lines,
        )


def _rect_box(rect: Rect) -> tuple[int, int, int, int]:
    return (_mm(rect.x), _mm(rect.y), _mm(rect.x1), _mm(rect.y1))


def _strip_intervals(edge: Segment, action: EdgeAction, width: float) -> tuple[int, int, int, int]:
    """Across-interval and along-interval of the thickened edge, in mm."""
    w = _mm(width)
    s = _mm(action.shift)
    if edge.horizontal:
        line = _mm(edge.a.y)
        lo, hi = _mm(edge.a.x), _mm(edge.b.x)
    else:
        line = _mm(edge.a.x)
        lo, hi = _mm(edge.a.y), _mm(edge.b.y)
    return (line + s, line + s + w, lo - _mm(action.extend_lo), hi + _mm(action.extend_hi))


def _strip_rect(edge: Segment, action: EdgeAction, width: float) -> Rect:
    c0, c1, a0, a1 = _strip_intervals(edge, action, width)
    if edge.horizontal:
        return Rect(_m(a0), _m(c0), _m(a1 - a0), _m(c1 - c0))
    return Rect(_m(c0), _m(a0), _m(c1 - c0), _m(a1 - a0))


def _nearest_align_shifts(edge: Segment, ws: _Workspace) -> list[float]:
    """Shifts that land the strip against the nearest parallel wall lines."""
    w = _mm(ws.cfg.corridor_width)
    if edge.horizontal:
        line = _mm(edge.a.y)
        lo, hi = _mm(edge.a.x), _mm(edge.b.x)
        lines = ws.h_lines
    else:
        line = _mm(edge.a.x)
        lo, hi = _mm(edge.a.y), _mm(edge.b.y)
        lines = ws.v_lines
    below = [
        c
        for c, spans in lines.items()
        if c < line and any(min(hi, b) - max(lo, a) > 0 for a, b in spans)
    ]
    above = [
        c
        for c, spans in lines.items()
        if c > line and any(min(hi, b) - max(lo, a) > 0 for a, b in spans)
    ]
    shifts: list[float] = []
    if below:
        shifts.append(_m(max(below) - line))
    if above:
        shifts.append(_m(min(above) - line - w))
    return [s for s in shifts if _mm(s) not in (0,)]


def _lengthen_priority(edge: Segment, degrees: dict[Point, int], ws: _Workspace) -> list[str]:
    """Free endpoints of the edge, the one reaching toward the living room first."""
    free: list[str] = []
    if degrees.get(edge.a, 0) == 1:
        free.append("lo")
    if degrees.get(edge.b, 0) == 1:
        free.append("hi")
    if len(free) < 2:
        return free
    lr = ws.room_regions[ws.living_id]

    def gain(which: str) -> float:
        act = EdgeAction(extend_lo=ws.cfg.door_width) if which == "lo" else EdgeAction(
            extend_hi=ws.cfg.door_width
        )
        ext = Region.from_rect(_strip_rect(edge, act, ws.cfg.corridor_width))
        return ext.intersect(lr).area

    free.sort(key=lambda which: (-gain(which), which))
    return free


def _alternatives(edge: Segment, degrees: dict[Point, int], ws: _Workspace) -> list[EdgeAction]:
    """At most MAX_ALTERNATIVES actions: keep, lengthen, flip+lengthen, shift."""
    w = ws.cfg.corridor_width
    d = ws.cfg.door_width
    alts: list[EdgeAction] = [EdgeAction()]
    lengthens: list[EdgeAction] = []
    for which in _lengthen_priority(edge, degrees, ws):
        if which == "lo":
            lengthens.append(EdgeAction(extend_lo=d))
        else:
            lengthens.append(EdgeAction(extend_hi=d))
    if lengthens:
        first = lengthens[0]
        alts.append(first)
        alts.append(EdgeAction(shift=-w, extend_lo=first.extend_lo, extend_hi=first.extend_hi))
    shifts = sorted({-w, *(_nearest_align_shifts(edge, ws))}, key=lambda s: (abs(_mm(s)), _mm(s)))
    for s in shifts:
        alts.append(EdgeAction(shift=s))
    seen: set[EdgeAction] = set()
    unique = [a for a in alts if not (a in seen or seen.add(a))]
    return unique[:MAX_ALTERNATIVES]


def enumerate_candidates(
    path: CorridorPath, ws: _Workspace, graph: WallGraph
) -> list[CorridorCandidate]:
    """Evaluate the bounded Cartesian product of per-edge actions.

    A zero-length path (vertex-only contact) borrows each graph edge incident
    to the anchor vertex as a one-edge path of its own.
    """
    paths: list[tuple[Segment, ...]]
    if path.edges:
        paths = [path.edges]
    elif path.anchor is not None:
        incident = [e for e in graph.edges if path.anchor in (e.a, e.b)]
        incident.sort(key=_seg_key)
        paths = [(e,) for e in incident[:MAX_ALTERNATIVES]]
    else:
        return []

    width = ws.cfg.corridor_width
    candidates: list[CorridorCandidate] = []
    for edges in paths:
        degrees: dict[Point, int] = {}
        for e in edges:
            degrees[e.a] = degrees.get(e.a, 0) + 1
            degrees[e.b] = degrees.get(e.b, 0) + 1
        order = sorted(
            range(len(edges)),
            key=lambda i: (0 if _touches_any_terminal(edges[i], ws) else 1, _seg_key(edges[i])),
        )
        actionable = set(order[:MAX_ACTIONABLE_EDGES])
        per_edge = [
            _alternatives(e, degrees, ws) if i in actionable else [EdgeAction()]
            for i, e in enumerate(edges)
        ]
        # The product revisits each (edge, action) pair many times; intervals
        # and joint pairs are computed once instead of per combination.
        horiz = [e.horizontal for e in edges]
        iv_cache: list[dict[EdgeAction, tuple[int, int, int, int]]] = [{} for _ in edges]
        joints = _joint_pairs(edges)
        for combo in product(*per_edge):
            ivs = []
            boxes = []
            for i, action in enumerate(combo):
                iv = iv_cache[i].get(action)
                if iv is None:
                    iv = _strip_intervals(edges[i], action, width)
                    iv_cache[i][action] = iv
                ivs.append(iv)
                c0, c1, a0, a1 = iv
                boxes.append((a0, c0, a1, c1) if horiz[i] else (c0, a0, c1, a1))
            # Perpendicular strips thickened to opposite sides meet only at
            # a point; the corner square between them restores an edge-wide
            # connection.
            for h, v in joints:
                boxes.append((ivs[v][0], ivs[h][0], ivs[v][1], ivs[h][1]))
            candidates.append(_evaluate(edges, tuple(combo), ws, boxes))
    return candidates


def _joint_pairs(edges: tuple[Segment, ...]) -> list[tuple[int, int]]:
    """(horizontal, vertical) index pairs of edges meeting at a shared vertex."""
    by_vertex: dict[Point, list[int]] = {}
    for i, edge in enumerate(edges):
        by_vertex.setdefault(edge.a, []).append(i)
        by_vertex.setdefault(edge.b, []).append(i)
    pairs = []
    for indices in by_vertex.values():
        for k, i in enumerate(indices):
            for j in indices[k + 1 :]:
                if edges[i].horizontal == edges[j].horizontal:
                    continue
                pairs.append((i, j) if edges[i].horizontal else (j, i))
    return pairs


def _touches_any_terminal(edge: Segment, ws: _Workspace) -> bool:
    return any(_edge_on_rect(edge, _room_rect(ws, t)) for t in sorted(ws.terminals))


def _room_rect(ws: _Workspace, room_id: int) -> Rect:
    for room in ws.rooms:
        if room.id == room_id:
            return room.rect
    raise KeyError(room_id)


def _peculiar(region: Region, cfg: GenConfig) -> bool:
    if region.has_pinch():
        return True
    rect = region.full_rect_mm()
    if rect is not None:
        w, h = rect
        return min(w, h) < _mm(cfg.min_room_width) or max(w, h) > cfg.max_room_aspect * min(w, h)
    return _mm(region.thickness()) < _mm(cfg.min_room_width)


def _evaluate(
    edges: tuple[Segment, ...],
    actions: tuple[EdgeAction, ...],
    ws: _Workspace,
    boxes: list[tuple[int, int, int, int]],
) -> CorridorCandidate:
    cfg = ws.cfg
    region = Region.from_boxes(boxes)
    length_mm = sum(_mm(e.length) for e in edges) + sum(
        _mm(a.extend_lo) + _mm(a.extend_hi) for a in actions
    )
    base = dict(
        edges=edges,
        actions=actions,
        region=region,
        area=region.area,
        length=_m(length_mm),
    )

    def reject(reason: str) -> CorridorCandidate:
        return CorridorCandidate(valid=False, reason=reason, **base)

    fx0, fy0, fx1, fy1 = ws.fp_box
    if any(b[0] < fx0 or b[1] < fy0 or b[2] > fx1 or b[3] > fy1 for b in boxes):
        return reject("corridor leaves the footprint")
    if not region.connected():
        return reject("corridor is disconnected")
    if region.has_pinch() or region.has_hole():
        return reject("corridor is not a simple region")

    changed: dict[int, Region] = {}
    for room in ws.rooms:
        if room.id == ws.living_id:
            continue
        rx0, ry0, rx1, ry1 = ws.room_boxes[room.id]
        if not any(b[0] < rx1 and b[2] > rx0 and b[1] < ry1 and b[3] > ry0 for b in boxes):
            continue
        before = ws.room_regions[room.id]
        after = before.subtract(region)
        if after.area == before.area:
            continue
        if after.is_empty:
            return reject(f"room {room.id} swallowed by the corridor")
        if not after.connected():
            return reject(f"room {room.id} split by the corridor")
        if _peculiar(after, cfg):
            return reject(f"room {room.id} left peculiar")
        changed[room.id] = after

    living_after = ws.room_regions[ws.living_id].union(region)
    if not living_after.connected():
        return reject("corridor does not reach the living room")
    if living_after.has_pinch() or living_after.has_hole():
        return reject("living space is not a simple region")
    changed[ws.living_id] = living_after

    def region_of(room_id: int) -> Region:
        return changed.get(room_id) or ws.room_regions[room_id]

    door_mm = _mm(cfg.door_width)
    for child, parent in sorted(ws.parent_of.items()):
        if child in ws.terminals:
            parent = ws.living_id
        if child not in changed and parent not in changed:
            continue
        if region_of(child).shared_border_mm(region_of(parent)) < door_mm:
            return reject(f"no door-width wall between rooms {child} and {parent}")

    return CorridorCandidate(
        valid=True,
        rooms_after=tuple(sorted(changed.items())),
        **base,
    )


def filter_and_select(candidates: list[CorridorCandidate]) -> CorridorCandidate:
    """Smallest-area valid candidate; ties by length, then action vector."""
    valid = [c for c in candidates if c.valid]
    if not valid:
        raise CorridorError("no valid corridor candidate")
    return min(valid, key=lambda c: c.sort_key())


def extrude(ws: _Workspace, winner: CorridorCandidate) -> CorridorResult:
    """Carve the corridor out of the rooms it crosses and give it to the living room."""
    changed = dict(winner.rooms_after)
    return CorridorResult(
        corridor=winner.region.to_polygon(),
        rooms=tuple(
            (room.id, room.kind, changed.get(room.id) or ws.room_regions[room.id])
            for room in ws.rooms
        ),
        reparented=tuple(sorted(ws.terminals)),
    )


def plan_corridor(
    footprint: Rect,
    rooms: list[PlacedRoom],
    parent_of: dict[int, int],
    living_id: int,
    cfg: GenConfig,
) -> CorridorResult:
    """Run the whole corridor stage; identity result when no room needs one."""
    terminals = frozenset(identify_corridor_rooms(rooms, parent_of, cfg))
    if not terminals:
        plain = tuple((r.id, r.kind, Region.from_rect(r.rect)) for r in rooms)
        return CorridorResult(None, plain, (), {"corridor_rooms": 0, "candidates": []})

    graph = build_wall_graph(footprint, rooms, terminals)
    pruned = prune(graph)
    by_id = {room.id: room for room in rooms}

    # Route on the pruned graph when it still touches every room involved;
    # tilings whose rooms all reach the boundary peel away completely, and
    # then the full wall graph is the only routable one (the area objective
    # already punishes corridors that end blind, which is all pruning trims).
    path = None
    routing_graph = pruned
    last_error: CorridorError | None = None
    for candidate_graph in (pruned, graph):
        contact_sets = [(living_id, _contact_vertices(candidate_graph, by_id[living_id].rect))]
        for t in sorted(terminals):
            contact_sets.append((t, _contact_vertices(candidate_graph, by_id[t].rect)))
        try:
            path = route(candidate_graph, contact_sets)
            routing_graph = candidate_graph
            break
        except CorridorError as exc:
            last_error = exc
    if path is None:
        raise last_error if last_error is not None else CorridorError("unroutable")

    ws = _Workspace.build(footprint, rooms, parent_of, terminals, living_id, cfg)
    candidates = enumerate_candidates(path, ws, routing_graph)
    winner = filter_and_select(candidates)
    result = extrude(ws, winner)

    trace = {
        "corridor_rooms": len(terminals),
        "graph_edges": len(graph.edges),
        "pruned_edges": len(pruned.edges),
        "routed_on_pruned": routing_graph is pruned,
        "path_edges": len(path.edges),
        "path_length": path.length,
        # The routing instance in mm, replayable by an external checker.
        "routing": {
            "edges": [
                [_mm(e.a.x), _mm(e.a.y), _mm(e.b.x), _mm(e.b.y)]
                for e in routing_graph.edges
            ],
            "contacts": [
                [rid, sorted([_mm(p.x), _mm(p.y)] for p in verts)]
                for rid, verts in contact_sets
            ],
            "path_mm": sum(_mm(e.length) for e in path.edges),
        },
        "candidates": [
            {
                "actions": [a.to_json() for a in c.actions],
                "area": c.area,
                "length": c.length,
                "valid": c.valid,
                "reason": c.reason,
            }
            for c in candidates
        ],
        "winner_area": winner.area,
    }
    return CorridorResult(result.corridor, result.rooms, result.reparented, trace)
