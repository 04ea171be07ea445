"""Corridor detection, routing, optimization and extrusion.

A room whose hierarchy parent it does not touch (with enough shared wall for
a door) cannot be entered.  This module fixes that: it builds a graph from
the interior walls of the placed rooms, routes on it the shortest tree
connecting the stranded rooms to the living room, widens the routed walls
into corridor strips - trying a bounded set of per-edge Shift and Lengthen
variants - and extrudes the cheapest valid corridor from the rooms it
crosses.  The corridor then counts as living-room space, and the rooms it
serves hang off the living room in the connection graph.

Each candidate corridor is a handful of strip and joint boxes.  Area,
footprint containment, connectivity and contact with the living room are
decided on those boxes.  Everything else is decided on one breakpoint
``Grid`` per search, built from the footprint, the rooms and every strip the
search can produce, on which a region is one int with a bit per cell: a
room's remainder is ``room & ~corridor``, its verdict (swallowed, split,
peculiar or fine) is memoised per search, and shape and door-width checks are
shifts and masks.  That grid and the winner's masks are the plan's geometry
from here on: doors, windows and the room polygons are read off them, and a
plan that needs no corridor gets the grid of its footprint and room boxes.
The trace is opt-in.  Traced, every candidate is evaluated in product order
with its area, and its rejection reason recorded.  Untraced, candidates that
the box checks reject are never evaluated, and the rest are evaluated in
product order with the area of the valid ones alone, so a search that finds
no valid corridor ranks nothing; the least valid candidate, first in product
order on ties, is the same winner.

The stages pass plain values, all in integer millimetres: the footprint and
the rooms arrive as ``(x0, y0, x1, y1)`` boxes, the wall graph is the sorted
tuple of its edges ``(ax, ay, bx, by)`` with the lower end first, vertices
are ``(x, y)`` tuples, and a route is its ``(edges, anchor)`` pair.  The
config's lengths are read in mm off the frozen config, which converts them
once.  Only the trace reports metres.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from itertools import product
from math import prod
from typing import NamedTuple, Sequence

from .geometry import Box, Grid, RectilinearPolygon, Run, _m, merge_runs
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


class EdgeAction(NamedTuple):
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


class CorridorCandidate(NamedTuple):
    """One evaluated corridor: ``area`` in mm², ``length`` in mm.

    An untraced search leaves a rejected candidate's area uncomputed, at 0.
    A valid candidate carries the corridor and the rooms it changed as masks
    on the search's grid; the winner's are the plan's.
    """

    edges: tuple[Edge, ...]
    actions: tuple[EdgeAction, ...]
    area: int
    length: int
    valid: bool
    reason: str = ""
    corridor: int = 0
    rooms_after: tuple[tuple[int, int], ...] = ()

    def sort_key(self) -> tuple:
        """Selection order: least area, then shortest, then the action vector."""
        return (self.area, self.length, tuple(a.sort_key() for a in self.actions))


@dataclass(frozen=True)
class CorridorResult:
    """What the pipeline needs downstream, plus the trace when one was asked for.

    ``rooms`` holds each room's mask on ``grid``: the search's grid when the
    plan has a corridor, the grid of the footprint and the room boxes when it
    has none.  ``candidates`` is the number of corridors the search weighed
    (the size of the action product), traced or not.
    """

    corridor: RectilinearPolygon | None
    grid: Grid
    rooms: tuple[tuple[int, RoomKind, int], ...]
    reparented: tuple[int, ...]
    candidates: int = 0
    trace: dict | None = None


def _shared_wall(a: Box, b: Box) -> int:
    """Length of the wall two disjoint boxes share, in mm: the overlap of two facing sides."""
    if a[2] == b[0] or b[2] == a[0]:
        return max(0, min(a[3], b[3]) - max(a[1], b[1]))
    if a[3] == b[1] or b[3] == a[1]:
        return max(0, min(a[2], b[2]) - max(a[0], b[0]))
    return 0


def identify_corridor_rooms(
    boxes: dict[int, Box], parent_of: dict[int, int], cfg: GenConfig
) -> set[int]:
    """Rooms lacking a door-width shared wall with their hierarchy parent."""
    return {
        child_id
        for child_id, parent_id in parent_of.items()
        if parent_id in boxes and _shared_wall(boxes[child_id], boxes[parent_id]) < cfg.door_mm
    }


def build_wall_graph(footprint: Box, rooms: Rooms) -> tuple[Edge, ...]:
    """Graph of all interior wall segments, split at every coincident vertex, as sorted edges.

    Walls on the footprint boundary are excluded.  Collinear overlapping wall
    runs are merged, then re-split wherever another wall starts, ends or
    crosses, so graph vertices are exactly the wall junctions.
    """
    fx0, fy0, fx1, fy1 = footprint
    # Wall spans by line, per axis: horizontal walls keyed by y, vertical by x.
    lines: tuple[dict[int, list[tuple[int, int]]], ...] = ({}, {})
    for _, _, (x0, y0, x1, y1) in rooms:
        for by_line, span, ends, boundary in (
            (lines[0], (x0, x1), (y0, y1), (fy0, fy1)),
            (lines[1], (y0, y1), (x0, x1), (fx0, fx1)),
        ):
            for line in ends:
                if line not in boundary:
                    by_line.setdefault(line, []).append(span)
    horizontal, vertical = (
        {line: merge_runs(spans) for line, spans in by_line.items()} for by_line in lines
    )

    edges: list[Edge] = []
    for along, across, flip in ((horizontal, vertical, False), (vertical, horizontal, True)):
        for line, spans in along.items():
            cuts = {c for lo, hi in spans for c in (lo, hi)}
            cuts.update(c for c, cross in across.items() if any(lo <= line <= hi for lo, hi in cross))
            for lo, hi in spans:
                inner = sorted(c for c in cuts if lo <= c <= hi)
                for a, b in zip(inner, inner[1:]):
                    edges.append((line, a, line, b) if flip else (a, line, b, line))
    return tuple(sorted(edges))


def _contact_vertices(vertices: set[Vertex], box: Box) -> frozenset[Vertex]:
    """The vertices lying on the box's boundary."""
    x0, y0, x1, y1 = box
    return frozenset(
        (px, py)
        for px, py in vertices
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


def route(
    graph: tuple[Edge, ...], contact_sets: list[tuple[int, frozenset[Vertex]]]
) -> tuple[tuple[Edge, ...], Vertex | None]:
    """Connect every contact set to the first one (the living room's): ``(edges, anchor)``.

    Two sets are joined by a weighted shortest path; further sets join the
    grown component nearest-first, Steiner-tree style.  A set already
    touching the component contributes no edges.  When no set needs an edge,
    the anchor is the least vertex where a set touches the component, and
    None otherwise.
    """
    for room_id, verts in contact_sets:
        if not verts:
            raise CorridorError(f"room {room_id} has no walls in the corridor graph")
    adj: dict[Vertex, list[tuple[Vertex, Edge]]] = {}
    for edge in graph:
        a, b = _ends(edge)
        adj.setdefault(a, []).append((b, edge))
        adj.setdefault(b, []).append((a, edge))
    for nbrs in adj.values():
        nbrs.sort()
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
    return edges, anchor


@dataclass
class _Workspace:
    """Room boxes, wall lines and the config shared by every candidate evaluation.

    ``door_pairs`` are the (child, parent) pairs each candidate's door check
    reads, sorted, with every terminal hung on the living room.
    ``enumerate_candidates`` sets the search's ``grid``, the room ``masks`` on it and
    ``combinations``, the size of the action product; ``verdicts`` memoises room verdicts.
    """

    rooms: Rooms
    walls: tuple[Edge, ...]
    door_pairs: tuple[tuple[int, int], ...]
    terminals: frozenset[int]
    living_id: int
    living_box: Box
    fp_box: Box
    cfg: GenConfig
    trace: bool = False
    grid: Grid | None = None
    masks: dict[int, int] = field(default_factory=dict)
    verdicts: dict[tuple[int, int], str] = field(default_factory=dict)
    combinations: int = 0


def _strip(edge: Edge, action: EdgeAction, width: int) -> Box:
    """The box of the edge thickened by ``width`` after the action."""
    horizontal, line, lo, hi = _run(edge)
    c0, a0, a1 = line + action.shift, lo - action.extend_lo, hi + action.extend_hi
    return (a0, c0, a1, c0 + width) if horizontal else (c0, a0, c0 + width, a1)


def _nearest_align_shifts(edge: Edge, ws: _Workspace) -> list[int]:
    """Shifts that land the strip against the nearest parallel wall lines."""
    horizontal, line, lo, hi = _run(edge)
    below: int | None = None
    above: int | None = None
    for wall in ws.walls:
        wall_horizontal, c, a, b = _run(wall)
        if wall_horizontal != horizontal or min(hi, b) - max(lo, a) <= 0:
            continue
        if c < line and (below is None or c > below):
            below = c
        elif c > line and (above is None or c < above):
            above = c
    shifts: list[int] = []
    if below is not None:
        shifts.append(below - line)
    if above is not None:
        shifts.append(above - line - ws.cfg.corridor_mm)
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
    lx0, ly0, lx1, ly1 = ws.living_box
    d = ws.cfg.door_mm

    def gain(which: str) -> int:
        act = EdgeAction(extend_lo=d) if which == "lo" else EdgeAction(extend_hi=d)
        x0, y0, x1, y1 = _strip(edge, act, ws.cfg.corridor_mm)
        return max(0, min(x1, lx1) - max(x0, lx0)) * max(0, min(y1, ly1) - max(y0, ly0))

    free.sort(key=lambda which: (-gain(which), which))
    return free


def _alternatives(edge: Edge, degrees: dict[Vertex, int], ws: _Workspace) -> list[EdgeAction]:
    """At most MAX_ALTERNATIVES actions: keep, lengthen, flip+lengthen, shift."""
    w = ws.cfg.corridor_mm
    d = ws.cfg.door_mm
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
    path: tuple[tuple[Edge, ...], Vertex | None], ws: _Workspace
) -> list[CorridorCandidate]:
    """Evaluate the bounded Cartesian product of per-edge actions on ``route``'s ``(edges, anchor)``.

    A zero-length path (vertex-only contact) borrows each graph edge incident
    to the anchor vertex as a one-edge path of its own.  Traced, every
    combination is evaluated in product order.  Untraced, strips that leave
    the footprint are dropped before the product is taken and combinations
    that fail ``_boxes_pass`` are never evaluated; the rest are evaluated in
    product order, and only a valid one's area is computed (a rejected one
    reads area 0), so the list holds every candidate evaluated and a search
    that finds none computes no area.  ``filter_and_select`` then takes the
    first valid candidate of least ``sort_key``, the one ranking the full
    product would give.  ``ws.combinations`` counts the whole product.
    """
    path_edges, anchor = path
    paths: list[tuple[Edge, ...]]
    if path_edges:
        paths = [path_edges]
    elif anchor is not None:
        incident = sorted(e for e in ws.walls if anchor in _ends(e))
        paths = [(e,) for e in incident[:MAX_ALTERNATIVES]]
    else:
        return []

    # Every strip box each (edge, action) pair can give goes on the grid; joint
    # boxes take their sides from the strips.  The grid and the room masks are
    # built only once a combination needs them, so a search whose every
    # combination fails the box checks builds neither.
    searches = []
    seen = [ws.fp_box, *(box for _, _, box in ws.rooms)]
    width = ws.cfg.corridor_mm
    n_combos = 0
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
        options = [
            [(a, _strip(e, a, width)) for a in actions] for e, actions in zip(edges, per_edge)
        ]
        seen.extend(box for pairs in options for _, box in pairs)
        n_combos += prod(map(len, options))
        if not ws.trace:
            # A joint box spans the across intervals of its two strips, so a
            # corridor stays in the footprint exactly when its strips do.
            options = [[(a, box) for a, box in pairs if _inside([box], ws.fp_box)] for pairs in options]
        searches.append((edges, options))
    ws.combinations = n_combos

    grid = None
    candidates: list[CorridorCandidate] = []
    for edges, options in searches:
        joints = _joint_pairs(edges)
        path_length = sum(_length(e) for e in edges)
        for picks in product(*options):
            combo, strips = zip(*picks)
            boxes = list(strips)
            # Perpendicular strips thickened to opposite sides meet only at
            # a point; the corner square between them restores an edge-wide
            # connection.
            for h, v in joints:
                boxes.append((boxes[v][0], boxes[h][1], boxes[v][2], boxes[h][3]))
            # Untraced, a corridor the boxes already rule out is never evaluated.
            if not (ws.trace or _boxes_pass(boxes, ws)):
                continue
            if grid is None:
                ws.grid = grid = Grid(seen)
                ws.masks = {rid: grid.mask(box) for rid, _, box in ws.rooms}
            length = path_length + sum(a.extend_lo + a.extend_hi for a in combo)
            area = _union_area(boxes) if ws.trace else None
            candidates.append(_evaluate(edges, combo, boxes, area, length, ws))
    return candidates


def _union_area(boxes: list[Box]) -> int:
    """Area of the union of the boxes in mm², by a sweep over x."""
    xs = sorted({x for b in boxes for x in (b[0], b[2])})
    total = 0
    for xa, xb in zip(xs, xs[1:]):
        spans = merge_runs((b[1], b[3]) for b in boxes if b[0] <= xa and b[2] >= xb)
        total += (xb - xa) * sum(hi - lo for lo, hi in spans)
    return total


def _inside(boxes: list[Box], footprint: Box) -> bool:
    fx0, fy0, fx1, fy1 = footprint
    return all(fx0 <= b[0] and fy0 <= b[1] and b[2] <= fx1 and b[3] <= fy1 for b in boxes)


def _boxes_pass(boxes: list[Box], ws: _Workspace) -> bool:
    """In one piece, and joined by the living room at one box (so to all of them)."""
    if not _boxes_connected(boxes):
        return False
    # The living room joins a box as in _boxes_connected: overlap or a shared edge, not a corner.
    lx0, ly0, lx1, ly1 = ws.living_box
    for bx0, by0, bx1, by1 in boxes:
        if (
            bx0 <= lx1 and lx0 <= bx1 and by0 <= ly1 and ly0 <= by1
            and not ((bx0 == lx1 or bx1 == lx0) and (by0 == ly1 or by1 == ly0))
        ):
            return True
    return False


def _boxes_connected(boxes: list[Box]) -> bool:
    """True when the union of the boxes is one piece.

    Two boxes join when they overlap or share an edge of positive length;
    meeting at a corner does not count.
    """
    rest = boxes[1:]
    stack = [boxes[0]]
    while stack and rest:
        ax0, ay0, ax1, ay1 = stack.pop()
        keep = []
        for b in rest:
            bx0, by0, bx1, by1 = b
            if (
                bx0 <= ax1 and ax0 <= bx1 and by0 <= ay1 and ay0 <= by1
                and not ((bx0 == ax1 or bx1 == ax0) and (by0 == ay1 or by1 == ay0))
            ):
                stack.append(b)
            else:
                keep.append(b)
        rest = keep
    return not rest


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
    return any(_edge_on_box(edge, box) for rid, _, box in ws.rooms if rid in ws.terminals)


def _room_verdict(rid: int, after: int, ws: _Workspace) -> str:
    """Why what the corridor leaves of the room fails ("" when it passes); memoised per search."""
    verdict = ws.verdicts.get((rid, after))
    if verdict is None:
        grid = ws.grid
        if not after:
            verdict = f"room {rid} swallowed by the corridor"
        elif not grid.connected(after):
            verdict = f"room {rid} split by the corridor"
        elif _peculiar(after, grid, ws.cfg):
            verdict = f"room {rid} left peculiar"
        else:
            verdict = ""
        ws.verdicts[rid, after] = verdict
    return verdict


def _peculiar(m: int, grid: Grid, cfg: GenConfig) -> bool:
    if grid.pinch(m):
        return True
    rect = grid.full_rect(m)
    if rect is not None:
        w, h = rect
        return min(w, h) < cfg.min_room_mm or max(w, h) > cfg.max_room_aspect * min(w, h)
    return grid.thickness(m) < cfg.min_room_mm


def _evaluate(
    edges: tuple[Edge, ...],
    actions: tuple[EdgeAction, ...],
    boxes: list[Box],
    area: int | None,
    length: int,
    ws: _Workspace,
) -> CorridorCandidate:
    """The candidate's verdict; an ``area`` of None is computed only if it is valid."""

    def reject(reason: str) -> CorridorCandidate:
        return CorridorCandidate(edges, actions, area or 0, length, False, reason)

    grid, masks = ws.grid, ws.masks
    corridor = 0
    for box in boxes:
        corridor |= grid.mask(box)
    # Traced, the checks run in the order their reasons are reported in.
    # Untraced, the boxes passed _boxes_pass before evaluation, and the memoised
    # room verdicts run before the corridor's own shape is checked.
    if ws.trace:
        if not _inside(boxes, ws.fp_box):
            return reject("corridor leaves the footprint")
        if not _boxes_connected(boxes):
            return reject("corridor is disconnected")
        if not grid.simple(corridor):
            return reject("corridor is not a simple region")

    changed: dict[int, int] = {}
    for rid, _, _ in ws.rooms:
        room = masks[rid]
        after = room & ~corridor
        if rid == ws.living_id or after == room:
            continue
        reason = _room_verdict(rid, after, ws)
        if reason:
            return reject(reason)
        changed[rid] = after

    if ws.trace:
        if not _boxes_pass(boxes, ws):  # the boxes are one piece by now
            return reject("corridor does not reach the living room")
    elif not grid.simple(corridor):
        return reject("corridor is not a simple region")
    living = masks[ws.living_id] | corridor
    if not grid.simple(living):
        return reject("living space is not a simple region")
    changed[ws.living_id] = living

    door = ws.cfg.door_mm
    for child, parent in ws.door_pairs:
        if child not in changed and parent not in changed:
            continue
        a, b = (changed.get(r, masks[r]) for r in (child, parent))
        if grid.shared_border(a, b) < door:
            return reject(f"no door-width wall between rooms {child} and {parent}")

    return CorridorCandidate(
        edges, actions, _union_area(boxes) if area is None else area, length, True,
        corridor=corridor, rooms_after=tuple(sorted(changed.items())),
    )


def filter_and_select(candidates: list[CorridorCandidate]) -> CorridorCandidate:
    """Smallest-area valid candidate; ties by length, then action vector."""
    valid = [c for c in candidates if c.valid]
    if not valid:
        raise CorridorError("no valid corridor candidate")
    return min(valid, key=lambda c: c.sort_key())


def plan_corridor(
    footprint: Box,
    rooms: Rooms,
    parent_of: dict[int, int],
    living_id: int,
    cfg: GenConfig,
    *,
    trace: bool = False,
) -> CorridorResult:
    """Run the whole corridor stage; identity result when no room needs one.

    With ``trace`` the result carries the trace: the routing instance and
    every candidate with its area, length and rejection reason.
    """
    boxes = {rid: box for rid, _, box in rooms}
    terminals = frozenset(identify_corridor_rooms(boxes, parent_of, cfg))
    if not terminals:
        grid = Grid([footprint, *boxes.values()])
        return CorridorResult(
            None,
            grid,
            tuple((rid, kind, grid.mask(box)) for rid, kind, box in rooms),
            (),
            trace={"corridor_rooms": 0, "candidates": []} if trace else None,
        )

    graph = build_wall_graph(footprint, rooms)
    vertices = {v for e in graph for v in _ends(e)}
    contact_sets = [
        (rid, _contact_vertices(vertices, boxes[rid])) for rid in (living_id, *sorted(terminals))
    ]
    path = route(graph, contact_sets)

    ws = _Workspace(
        rooms=rooms,
        walls=graph,
        door_pairs=tuple(
            (child, living_id if child in terminals else parent)
            for child, parent in sorted(parent_of.items())
        ),
        terminals=terminals,
        living_id=living_id,
        living_box=boxes[living_id],
        fp_box=footprint,
        cfg=cfg,
        trace=trace,
    )
    candidates = enumerate_candidates(path, ws)
    winner = filter_and_select(candidates)
    # Carve the corridor out of the rooms it crosses; the living room gains it.
    grid = ws.grid
    masks = ws.masks | dict(winner.rooms_after)
    result = CorridorResult(
        corridor=grid.outline(winner.corridor),  # type: ignore[union-attr]
        grid=grid,  # type: ignore[arg-type]
        rooms=tuple((rid, kind, masks[rid]) for rid, kind, _ in rooms),
        reparented=tuple(sorted(terminals)),
        candidates=ws.combinations,
    )
    if not trace:
        return result

    path_mm = sum(_length(e) for e in path[0])
    doc = {
        "corridor_rooms": len(terminals),
        "graph_edges": len(graph),
        "path_edges": len(path[0]),
        "path_length": _m(path_mm),
        # The routing instance in mm, replayable by an external checker.
        "routing": {
            "edges": [list(e) for e in graph],
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
    return replace(result, trace=doc)
