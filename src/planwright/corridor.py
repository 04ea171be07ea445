"""Corridor detection, routing, optimization and extrusion.

A room whose hierarchy parent it does not touch (with enough shared wall for
a door) cannot be entered.  This module fixes that: it builds a graph from
the interior walls of the placed rooms, prunes it to its 2-core, routes the
shortest tree connecting the stranded rooms to the living room, widens the
routed walls into corridor strips - trying a bounded set of per-edge Shift
and Lengthen variants - and extrudes the cheapest valid corridor from the
rooms it crosses.  The corridor then counts as living-room space, and the
rooms it serves hang off the living room in the connection graph.

The stage works in integer millimetres throughout: the footprint and the
rooms arrive as ``(x0, y0, x1, y1)`` boxes, wall-graph vertices are ``(x, y)``
tuples and edges ``(ax, ay, bx, by)`` tuples with the lower end first, and
the config's lengths are converted once per call, so containment, contact
and area tests are exact integer comparisons.  Only the trace reports
metres.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

from .geometry import Box, RectilinearPolygon, Region, Run, _m, _mm, merge_runs
from .sampling import GenConfig, RoomKind

Vertex = tuple[int, int]
Edge = tuple[int, int, int, int]
Rooms = Sequence[tuple[int, RoomKind, Box]]

MAX_ALTERNATIVES = 4
MAX_ACTIONABLE_EDGES = 3


class CorridorError(RuntimeError):
    """This placement cannot be given a workable corridor; resample."""


def _ends(edge: Edge) -> tuple[Vertex, Vertex]:
    return (edge[0], edge[1]), (edge[2], edge[3])


def _run(edge: Edge) -> Run:
    ax, ay, bx, by = edge
    if ay == by:
        return True, ay, ax, bx
    return False, ax, ay, by


def _length(edge: Edge) -> int:
    return edge[2] - edge[0] + edge[3] - edge[1]


@dataclass(frozen=True)
class WallGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    terminals: frozenset[int] = frozenset()

    def adjacency(self) -> dict[Vertex, list[tuple[Vertex, Edge]]]:
        adj: dict[Vertex, list[tuple[Vertex, Edge]]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            a, b = _ends(edge)
            adj[a].append((b, edge))
            adj[b].append((a, edge))
        for nbrs in adj.values():
            nbrs.sort()
        return adj


@dataclass(frozen=True)
class CorridorPath:
    edges: tuple[Edge, ...]
    anchor: Vertex | None


@dataclass(frozen=True)
class EdgeAction:
    """Modification of one path edge before thickening, in mm.

    shift moves the wall line sideways (signed; -corridor_width is the plain
    side flip), extend_lo/extend_hi stretch the strip past the low/high
    endpoint.  The all-zero action thickens the edge in place.
    """

    shift: int = 0
    extend_lo: int = 0
    extend_hi: int = 0

    def sort_key(self) -> tuple[int, int, int, int]:
        s = self.shift
        return (abs(s), 0 if s >= 0 else 1, self.extend_lo, self.extend_hi)

    def to_json(self) -> dict:
        """The action in metres."""
        return {
            "shift": _m(self.shift),
            "extend_lo": _m(self.extend_lo),
            "extend_hi": _m(self.extend_hi),
        }


@dataclass(frozen=True)
class CorridorCandidate:
    """One evaluated corridor: ``area`` in mm², ``length`` in mm."""

    edges: tuple[Edge, ...]
    actions: tuple[EdgeAction, ...]
    region: Region
    area: int
    length: int
    valid: bool
    reason: str = ""
    rooms_after: tuple[tuple[int, Region], ...] = ()

    def sort_key(self) -> tuple:
        return (self.area, self.length, tuple(a.sort_key() for a in self.actions))


@dataclass(frozen=True)
class CorridorResult:
    """What the pipeline needs downstream plus the full trace for debugging."""

    corridor: RectilinearPolygon | None
    rooms: tuple[tuple[int, RoomKind, Region], ...]
    reparented: tuple[int, ...]
    trace: dict = field(default_factory=dict)


def identify_corridor_rooms(rooms: Rooms, parent_of: dict[int, int], cfg: GenConfig) -> set[int]:
    """Rooms lacking a door-width shared wall with their hierarchy parent."""
    regions = {rid: Region.from_boxes([box]) for rid, _, box in rooms}
    door_mm = _mm(cfg.door_width)
    stranded: set[int] = set()
    for child_id, parent_id in parent_of.items():
        if parent_id not in regions:
            continue
        if regions[child_id].shared_border_mm(regions[parent_id]) < door_mm:
            stranded.add(child_id)
    return stranded


def _wall_lines(
    footprint: Box, rooms: Rooms
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """Interior wall runs, merged per horizontal/vertical line."""
    fx0, fy0, fx1, fy1 = footprint
    h_lines: dict[int, list[tuple[int, int]]] = {}
    v_lines: dict[int, list[tuple[int, int]]] = {}
    for _, _, (x0, y0, x1, y1) in rooms:
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


def _graph(edges) -> tuple[tuple[Vertex, ...], tuple[Edge, ...]]:
    """Sorted vertices and edges of an edge set."""
    edges = tuple(sorted(edges))
    return tuple(sorted({v for e in edges for v in _ends(e)})), edges


def build_wall_graph(footprint: Box, rooms: Rooms, terminals: frozenset[int] = frozenset()) -> WallGraph:
    """Graph of all interior wall segments, split at every coincident vertex.

    Walls on the footprint boundary are excluded.  Collinear overlapping wall
    runs are merged, then re-split wherever another wall starts, ends or
    crosses, so graph vertices are exactly the wall junctions.
    """
    h_merged, v_merged = _wall_lines(footprint, rooms)

    edges: list[Edge] = []
    for y, spans in h_merged.items():
        cuts = {c for lo, hi in spans for c in (lo, hi)}
        for x, vspans in v_merged.items():
            if any(lo <= y <= hi for lo, hi in vspans):
                cuts.add(x)
        for lo, hi in spans:
            inner = sorted(c for c in cuts if lo <= c <= hi)
            edges.extend((a, y, b, y) for a, b in zip(inner, inner[1:]))
    for x, spans in v_merged.items():
        cuts = {c for lo, hi in spans for c in (lo, hi)}
        for y, hspans in h_merged.items():
            if any(lo <= x <= hi for lo, hi in hspans):
                cuts.add(y)
        for lo, hi in spans:
            inner = sorted(c for c in cuts if lo <= c <= hi)
            edges.extend((x, a, x, b) for a, b in zip(inner, inner[1:]))
    return WallGraph(*_graph(edges), terminals)


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
        a, b = _ends(edge)
        other = b if a == v else a
        adj[other].discard(edge)
        if len(adj[other]) == 1:
            stack.append(other)
    return WallGraph(*_graph(alive), graph.terminals)


def _contact_vertices(graph: WallGraph, box: Box) -> frozenset[Vertex]:
    """Graph vertices lying on the box's boundary."""
    x0, y0, x1, y1 = box
    return frozenset(
        (px, py)
        for px, py in graph.vertices
        if (px in (x0, x1) and y0 <= py <= y1) or (py in (y0, y1) and x0 <= px <= x1)
    )


def _edge_on_box(edge: Edge, box: Box) -> bool:
    ax, ay, bx, by = edge
    x0, y0, x1, y1 = box
    if ay == by:
        return ay in (y0, y1) and x0 <= ax and bx <= x1
    return ax in (x0, x1) and y0 <= ay and by <= y1


def _dijkstra(
    adj: dict[Vertex, list[tuple[Vertex, Edge]]], sources: set[Vertex]
) -> tuple[dict[Vertex, int], dict[Vertex, tuple[Vertex, Edge] | None]]:
    dist: dict[Vertex, int] = {}
    parent: dict[Vertex, tuple[Vertex, Edge] | None] = {}
    heap: list[tuple[int, Vertex]] = []
    for v in sorted(sources):
        if v in adj:
            dist[v] = 0
            parent[v] = None
            heapq.heappush(heap, (0, v))
    while heap:
        d, v = heapq.heappop(heap)
        if d != dist.get(v):
            continue
        for u, edge in adj[v]:
            nd = d + _length(edge)
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                parent[u] = (v, edge)
                heapq.heappush(heap, (nd, u))
    return dist, parent


def route(graph: WallGraph, contact_sets: list[tuple[int, frozenset[Vertex]]]) -> CorridorPath:
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
    chosen: set[Edge] = set()
    anchors: list[Vertex] = []
    while remaining:
        dist, parent = _dijkstra(adj, component)
        best: tuple[int, int, Vertex] | None = None
        for room_id, verts in remaining:
            for v in verts:
                d = dist.get(v)
                if d is None:
                    continue
                if best is None or (d, room_id, v) < best:
                    best = (d, room_id, v)
        if best is None:
            raise CorridorError("a corridor room is unreachable in the wall graph")
        d, picked, v = best
        if d == 0:
            anchors.append(v)
        while parent[v] is not None:
            u, edge = parent[v]  # type: ignore[misc]
            chosen.add(edge)
            component.add(v)
            v = u
        component.add(v)
        remaining = [(rid, verts) for rid, verts in remaining if rid != picked]
    edges = tuple(sorted(chosen))
    anchor = min(anchors) if (not edges and anchors) else None
    return CorridorPath(edges, anchor)


@dataclass
class _Workspace:
    """Precomputed geometry and mm lengths shared by every candidate evaluation."""

    rooms: tuple[tuple[int, RoomKind, Box], ...]
    parent_of: dict[int, int]
    terminals: frozenset[int]
    living_id: int
    corridor_width: int
    door_width: int
    min_room_width: int
    max_room_aspect: float
    fp_box: Box
    room_regions: dict[int, Region]
    room_boxes: dict[int, Box]
    h_lines: dict[int, list[tuple[int, int]]]
    v_lines: dict[int, list[tuple[int, int]]]

    @classmethod
    def build(
        cls,
        footprint: Box,
        rooms: Rooms,
        parent_of: dict[int, int],
        terminals: frozenset[int],
        living_id: int,
        cfg: GenConfig,
    ) -> "_Workspace":
        h_lines, v_lines = _wall_lines(footprint, rooms)
        return cls(
            rooms=tuple(rooms),
            parent_of=dict(parent_of),
            terminals=terminals,
            living_id=living_id,
            corridor_width=_mm(cfg.corridor_width),
            door_width=_mm(cfg.door_width),
            min_room_width=_mm(cfg.min_room_width),
            max_room_aspect=cfg.max_room_aspect,
            fp_box=footprint,
            room_regions={rid: Region.from_boxes([box]) for rid, _, box in rooms},
            room_boxes={rid: box for rid, _, box in rooms},
            h_lines=h_lines,
            v_lines=v_lines,
        )


def _strip_intervals(edge: Edge, action: EdgeAction, width: int) -> tuple[int, int, int, int]:
    """Across-interval and along-interval of the thickened edge."""
    _, line, lo, hi = _run(edge)
    s = action.shift
    return (line + s, line + s + width, lo - action.extend_lo, hi + action.extend_hi)


def _strip_box(intervals: tuple[int, int, int, int], horizontal: bool) -> Box:
    c0, c1, a0, a1 = intervals
    return (a0, c0, a1, c1) if horizontal else (c0, a0, c1, a1)


def _nearest_align_shifts(edge: Edge, ws: _Workspace) -> list[int]:
    """Shifts that land the strip against the nearest parallel wall lines."""
    horizontal, line, lo, hi = _run(edge)
    lines = ws.h_lines if horizontal else ws.v_lines
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
    shifts: list[int] = []
    if below:
        shifts.append(max(below) - line)
    if above:
        shifts.append(min(above) - line - ws.corridor_width)
    return [s for s in shifts if s != 0]


def _lengthen_priority(edge: Edge, degrees: dict[Vertex, int], ws: _Workspace) -> list[str]:
    """Free endpoints of the edge, the one reaching toward the living room first."""
    a, b = _ends(edge)
    free: list[str] = []
    if degrees.get(a, 0) == 1:
        free.append("lo")
    if degrees.get(b, 0) == 1:
        free.append("hi")
    if len(free) < 2:
        return free
    lr = ws.room_regions[ws.living_id]

    def gain(which: str) -> int:
        act = EdgeAction(extend_lo=ws.door_width) if which == "lo" else EdgeAction(
            extend_hi=ws.door_width
        )
        strip = _strip_intervals(edge, act, ws.corridor_width)
        ext = Region.from_boxes([_strip_box(strip, edge[1] == edge[3])])
        return ext.intersect(lr).area

    free.sort(key=lambda which: (-gain(which), which))
    return free


def _alternatives(edge: Edge, degrees: dict[Vertex, int], ws: _Workspace) -> list[EdgeAction]:
    """At most MAX_ALTERNATIVES actions: keep, lengthen, flip+lengthen, shift."""
    w = ws.corridor_width
    d = ws.door_width
    alts: list[EdgeAction] = [EdgeAction()]
    free = _lengthen_priority(edge, degrees, ws)
    if free:
        first = EdgeAction(extend_lo=d) if free[0] == "lo" else EdgeAction(extend_hi=d)
        alts.append(first)
        alts.append(EdgeAction(shift=-w, extend_lo=first.extend_lo, extend_hi=first.extend_hi))
    shifts = sorted({-w, *(_nearest_align_shifts(edge, ws))}, key=lambda s: (abs(s), s))
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
    paths: list[tuple[Edge, ...]]
    if path.edges:
        paths = [path.edges]
    elif path.anchor is not None:
        incident = sorted(e for e in graph.edges if path.anchor in _ends(e))
        paths = [(e,) for e in incident[:MAX_ALTERNATIVES]]
    else:
        return []

    width = ws.corridor_width
    candidates: list[CorridorCandidate] = []
    for edges in paths:
        degrees: dict[Vertex, int] = {}
        for e in edges:
            for v in _ends(e):
                degrees[v] = degrees.get(v, 0) + 1
        order = sorted(
            range(len(edges)),
            key=lambda i: (0 if _touches_any_terminal(edges[i], ws) else 1, edges[i]),
        )
        actionable = set(order[:MAX_ACTIONABLE_EDGES])
        per_edge = [
            _alternatives(e, degrees, ws) if i in actionable else [EdgeAction()]
            for i, e in enumerate(edges)
        ]
        # The product revisits each (edge, action) pair many times; intervals
        # and joint pairs are computed once instead of per combination.
        horiz = [e[1] == e[3] for e in edges]
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
                boxes.append(_strip_box(iv, horiz[i]))
            # Perpendicular strips thickened to opposite sides meet only at
            # a point; the corner square between them restores an edge-wide
            # connection.
            for h, v in joints:
                boxes.append((ivs[v][0], ivs[h][0], ivs[v][1], ivs[h][1]))
            candidates.append(_evaluate(edges, tuple(combo), ws, boxes))
    return candidates


def _joint_pairs(edges: tuple[Edge, ...]) -> list[tuple[int, int]]:
    """(horizontal, vertical) index pairs of edges meeting at a shared vertex."""
    by_vertex: dict[Vertex, list[int]] = {}
    for i, edge in enumerate(edges):
        for v in _ends(edge):
            by_vertex.setdefault(v, []).append(i)
    pairs = []
    for indices in by_vertex.values():
        for k, i in enumerate(indices):
            for j in indices[k + 1 :]:
                i_horizontal = edges[i][1] == edges[i][3]
                if i_horizontal == (edges[j][1] == edges[j][3]):
                    continue
                pairs.append((i, j) if i_horizontal else (j, i))
    return pairs


def _touches_any_terminal(edge: Edge, ws: _Workspace) -> bool:
    return any(_edge_on_box(edge, ws.room_boxes[t]) for t in ws.terminals)


def _peculiar(region: Region, ws: _Workspace) -> bool:
    if region.has_pinch():
        return True
    rect = region.full_rect_mm()
    if rect is not None:
        w, h = rect
        return min(w, h) < ws.min_room_width or max(w, h) > ws.max_room_aspect * min(w, h)
    return region.thickness() < ws.min_room_width


def _evaluate(
    edges: tuple[Edge, ...],
    actions: tuple[EdgeAction, ...],
    ws: _Workspace,
    boxes: list[Box],
) -> CorridorCandidate:
    region = Region.from_boxes(boxes)
    length = sum(_length(e) for e in edges) + sum(a.extend_lo + a.extend_hi for a in actions)
    base = dict(edges=edges, actions=actions, region=region, area=region.area, length=length)

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
    for rid, _, (rx0, ry0, rx1, ry1) in ws.rooms:
        if rid == ws.living_id:
            continue
        if not any(b[0] < rx1 and b[2] > rx0 and b[1] < ry1 and b[3] > ry0 for b in boxes):
            continue
        before = ws.room_regions[rid]
        after = before.subtract(region)
        if after.area == before.area:
            continue
        if after.is_empty:
            return reject(f"room {rid} swallowed by the corridor")
        if not after.connected():
            return reject(f"room {rid} split by the corridor")
        if _peculiar(after, ws):
            return reject(f"room {rid} left peculiar")
        changed[rid] = after

    living_after = ws.room_regions[ws.living_id].union(region)
    if not living_after.connected():
        return reject("corridor does not reach the living room")
    if living_after.has_pinch() or living_after.has_hole():
        return reject("living space is not a simple region")
    changed[ws.living_id] = living_after

    def region_of(room_id: int) -> Region:
        return changed.get(room_id) or ws.room_regions[room_id]

    for child, parent in sorted(ws.parent_of.items()):
        if child in ws.terminals:
            parent = ws.living_id
        if child not in changed and parent not in changed:
            continue
        if region_of(child).shared_border_mm(region_of(parent)) < ws.door_width:
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
            (rid, kind, changed.get(rid) or ws.room_regions[rid]) for rid, kind, _ in ws.rooms
        ),
        reparented=tuple(sorted(ws.terminals)),
    )


def plan_corridor(
    footprint: Box,
    rooms: Rooms,
    parent_of: dict[int, int],
    living_id: int,
    cfg: GenConfig,
) -> CorridorResult:
    """Run the whole corridor stage; identity result when no room needs one."""
    terminals = frozenset(identify_corridor_rooms(rooms, parent_of, cfg))
    if not terminals:
        plain = tuple((rid, kind, Region.from_boxes([box])) for rid, kind, box in rooms)
        return CorridorResult(None, plain, (), {"corridor_rooms": 0, "candidates": []})

    graph = build_wall_graph(footprint, rooms, terminals)
    pruned = prune(graph)
    boxes = {rid: box for rid, _, box in rooms}

    # Route on the pruned graph when it still touches every room involved;
    # tilings whose rooms all reach the boundary peel away completely, and
    # then the full wall graph is the only routable one (the area objective
    # already punishes corridors that end blind, which is all pruning trims).
    path = None
    routing_graph = pruned
    last_error: CorridorError | None = None
    for candidate_graph in (pruned, graph):
        contact_sets = [
            (rid, _contact_vertices(candidate_graph, boxes[rid]))
            for rid in (living_id, *sorted(terminals))
        ]
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

    path_mm = sum(_length(e) for e in path.edges)
    trace = {
        "corridor_rooms": len(terminals),
        "graph_edges": len(graph.edges),
        "pruned_edges": len(pruned.edges),
        "routed_on_pruned": routing_graph is pruned,
        "path_edges": len(path.edges),
        "path_length": _m(path_mm),
        # The routing instance in mm, replayable by an external checker.
        "routing": {
            "edges": [list(e) for e in routing_graph.edges],
            "contacts": [[rid, sorted(map(list, verts))] for rid, verts in contact_sets],
            "path_mm": path_mm,
        },
        # Areas in m², lengths in m.
        "candidates": [
            {
                "actions": [a.to_json() for a in c.actions],
                "area": c.area / 1e6,
                "length": _m(c.length),
                "valid": c.valid,
                "reason": c.reason,
            }
            for c in candidates
        ],
        "winner_area": winner.area / 1e6,
    }
    return CorridorResult(result.corridor, result.rooms, result.reparented, trace)
