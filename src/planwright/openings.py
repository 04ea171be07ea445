"""Connection graph, door and window placement, and plan validation.

The hierarchy tree (with corridor-served rooms re-hung off the living room)
dictates the mandatory door set; configured optional pairs are added by coin
flip when the rooms actually share enough wall.  Every edge then gets one
door at a uniformly random feasible position, the house gets an entry door
on the living room's longest exterior wall, and eligible exterior rooms get
a window.  Rooms arrive as masks on the plan's ``Grid``, so shared and
exterior walls are runs read off those masks.  An opening is its host wall
run and the (lo, hi) it takes along it, all in integer millimetres; the plan
writer turns them into the document's metre wall, offset and width.
``validate`` re-checks the finished plan from scratch, with every polygon
filled onto one common grid; it is what the CLI's validate subcommand and
the batch audits run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geometry import Box, Grid, Run
from .hierarchy import OUTSIDE_ID
from .sampling import BEDROOM_KINDS, GenConfig, RandomStream, RoomKind

DOOR = "door"
ENTRY_DOOR = "entry_door"
WINDOW = "window"


class OpeningError(RuntimeError):
    """Doors cannot be realized for this placement; resample."""


@dataclass(frozen=True)
class Opening:
    """A door or window: its host ``wall`` run and the (``lo``, ``hi``) it takes along it, in mm."""

    kind: str
    wall: Run
    lo: int
    hi: int
    rooms: tuple[int, int]


@dataclass(frozen=True)
class ConnectionGraph:
    nodes: frozenset[int]
    edges: tuple[tuple[int, int], ...]


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _run_order(run: Run) -> tuple[int, int, int, int]:
    """The run's end points (ax, ay, bx, by): the order walls are tried in."""
    horizontal, line, lo, hi = run
    return (lo, line, hi, line) if horizontal else (line, lo, line, hi)


def _prohibited(kind_a: RoomKind, kind_b: RoomKind) -> bool:
    bed_a, bed_b = kind_a in BEDROOM_KINDS, kind_b in BEDROOM_KINDS
    if bed_a and bed_b:
        return True
    if (bed_a and kind_b is RoomKind.KITCHEN) or (bed_b and kind_a is RoomKind.KITCHEN):
        return True
    return False


def build_connection_graph(
    grid: Grid,
    rooms: tuple[tuple[int, RoomKind, int], ...],
    parent_of: dict[int, int],
    living_id: int,
    rng: RandomStream,
    cfg: GenConfig,
) -> ConnectionGraph:
    """Mandatory tree edges plus random adjacency-feasible optional edges.

    Raises when a mandatory edge has no door-width shared wall left; the
    corridor stage is supposed to have guaranteed them all.
    """
    masks = {rid: m for rid, _, m in rooms}
    kinds = {rid: kind for rid, kind, _ in rooms}
    door_mm = cfg.door_mm

    edges: list[tuple[int, int]] = [(OUTSIDE_ID, living_id)]
    for child, parent in sorted(parent_of.items()):
        if grid.shared_border(masks[child], masks[parent]) < door_mm:
            raise OpeningError(f"rooms {child} and {parent} share no door-width wall")
        edges.append(_pair(child, parent))

    have = set(edges)
    # Bathrooms a door already joins to a bedroom.
    bedroom_baths = {
        bath
        for a, b in edges
        if a != OUTSIDE_ID
        for bath, other in ((a, b), (b, a))
        if kinds[bath] is RoomKind.BATHROOM and kinds[other] in BEDROOM_KINDS
    }

    for i, j in combinations(sorted(masks), 2):
        for kind_a, kind_b, prob in cfg.optional_doors:
            if {kinds[i], kinds[j]} != {kind_a, kind_b}:
                continue
            if _pair(i, j) in have or _prohibited(kinds[i], kinds[j]):
                continue
            # Such a bathroom gets no door to a second bedroom.
            if any(b in bedroom_baths and kinds[o] in BEDROOM_KINDS for b, o in ((i, j), (j, i))):
                continue
            if grid.shared_border(masks[i], masks[j]) < door_mm:
                continue
            if rng.random() < prob:
                have.add(_pair(i, j))
                edges.append(_pair(i, j))
                for b, o in ((i, j), (j, i)):
                    if kinds[b] is RoomKind.BATHROOM and kinds[o] in BEDROOM_KINDS:
                        bedroom_baths.add(b)
            break

    nodes = frozenset(masks) | {OUTSIDE_ID}
    return ConnectionGraph(nodes, tuple(sorted(edges)))


class _WallLedger:
    """Occupied intervals per wall line, so openings never collide."""

    def __init__(self) -> None:
        self._taken: dict[tuple[bool, int], list[tuple[int, int]]] = {}

    def free_spans(self, wall: Run) -> list[tuple[int, int]]:
        _, _, lo, hi = wall
        spans = [(lo, hi)]
        for tlo, thi in self._taken.get(wall[:2], []):
            spans = [
                piece
                for a, b in spans
                for piece in ((a, min(b, tlo)), (max(a, thi), b))
                if piece[0] < piece[1]
            ]
        return sorted(spans)

    def occupy(self, wall: Run, lo: int, hi: int) -> None:
        self._taken.setdefault(wall[:2], []).append((lo, hi))


def _choose_position(
    spans: list[tuple[int, int]], width_mm: int, rng: RandomStream
) -> tuple[int, int, int] | None:
    """Uniform position for a width_mm opening across the free spans.

    Returns (span index, start, end) in mm, or None when nothing fits.  The
    chosen span's identity matters to the caller because spans from several
    wall lines are pooled.
    """
    fits = [(i, lo, hi) for i, (lo, hi) in enumerate(spans) if hi - lo >= width_mm]
    if not fits:
        return None
    slacks = [hi - lo - width_mm for _, lo, hi in fits]
    total = sum(slacks)
    r = rng.random()
    if total == 0:
        i, lo, _ = fits[0]
        return (i, lo, lo + width_mm)
    target = r * total
    for (i, lo, hi), slack in zip(fits[:-1], slacks[:-1]):
        if target <= slack:
            start = lo + min(slack, round(target))
            return (i, start, start + width_mm)
        target -= slack
    i, lo, hi = fits[-1]
    start = lo + min(hi - lo - width_mm, round(target))
    return (i, start, start + width_mm)


def _place(
    kind: str,
    walls: list[Run],
    width_mm: int,
    rooms: tuple[int, int],
    ledger: _WallLedger,
    rng: RandomStream,
) -> Opening | None:
    """Place one opening uniformly over the free spans of ``walls``.

    Occupies its interval in the ledger; None when no free span is wide enough.
    """
    spans = sorted(
        ((span, wall) for wall in walls for span in ledger.free_spans(wall)),
        key=lambda pair: (pair[0][0], _run_order(pair[1])),
    )
    choice = _choose_position([span for span, _ in spans], width_mm, rng)
    if choice is None:
        return None
    idx, lo, hi = choice
    wall = spans[idx][1]
    ledger.occupy(wall, lo, hi)
    return Opening(kind, wall, lo, hi, rooms)


def place_doors(
    grid: Grid,
    rooms: tuple[tuple[int, RoomKind, int], ...],
    graph: ConnectionGraph,
    footprint: Box,
    rng: RandomStream,
    cfg: GenConfig,
) -> tuple[list[Opening], _WallLedger]:
    """One door per graph edge, entry door first, uniform over feasible spots."""
    masks = {rid: m for rid, _, m in rooms}
    door_mm = cfg.door_mm
    ledger = _WallLedger()

    living_id = next(rid for rid, kind, _ in rooms if kind is RoomKind.LIVING_ROOM)
    exterior = [w for w in grid.exterior_walls(masks[living_id], footprint) if w[3] - w[2] >= door_mm]
    if not exterior:
        raise OpeningError("living room has no exterior wall wide enough for the entry")
    host = min(exterior, key=lambda w: (w[2] - w[3], _run_order(w)))
    entry = _place(ENTRY_DOOR, [host], door_mm, (OUTSIDE_ID, living_id), ledger, rng)
    if entry is None:
        raise OpeningError("entry door does not fit")
    openings = [entry]

    for a, b in graph.edges:
        if a == OUTSIDE_ID or b == OUTSIDE_ID:
            continue
        walls = grid.shared_walls(masks[a], masks[b])
        placed = _place(DOOR, walls, door_mm, (a, b), ledger, rng)
        if placed is None:
            raise OpeningError(f"no room left for a door between {a} and {b}")
        openings.append(placed)

    return openings, ledger


def place_windows(
    grid: Grid,
    rooms: tuple[tuple[int, RoomKind, int], ...],
    footprint: Box,
    ledger: _WallLedger,
    rng: RandomStream,
    cfg: GenConfig,
) -> list[Opening]:
    """One window per exterior room of an allowed kind, on a free exterior span."""
    width_mm = cfg.window_mm
    openings: list[Opening] = []
    for rid, kind, m in sorted(rooms, key=lambda r: r[0]):
        if kind in cfg.window_banned:
            continue
        walls = grid.exterior_walls(m, footprint)
        window = _place(WINDOW, walls, width_mm, (rid, OUTSIDE_ID), ledger, rng)
        if window is not None:
            openings.append(window)
    return openings


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(plan, cfg: GenConfig | None = None) -> ValidationReport:
    """Re-check a finished plan from scratch.

    Verifies unique room ids, the area partition, pairwise disjointness,
    containment, that the corridor lies in the living room, opening kinds and
    the rooms they name, opening geometry (a door on its rooms' shared wall,
    a window and the entry door on an exterior wall of their room), the
    graph's node set, one-door-per-edge correspondence, door-graph
    connectivity (Outside included), the entry door, the connection
    prohibitions, at least one attempt, and corridor candidates counted
    exactly when there is a corridor.  Areas are the polygons' exact mm²
    areas; containment, overlap and walls are mask operations on one grid of
    every polygon.  Passing the config adds its window-ban check, caps the
    attempts at ``max_attempts`` and requires every door to be ``door_width``
    and every window ``window_width`` wide; everything else is
    self-contained in the plan document.
    """
    failures: list[str] = []
    fp_box = plan.footprint
    # Every room, the footprint and the corridor on one breakpoint grid:
    # containment is a subset test and overlap a shared cell.
    corridor = [] if plan.corridor is None else [plan.corridor]
    grid = Grid([fp_box], [*(room.polygon for room in plan.rooms), *corridor])
    fp_mask = grid.mask(fp_box)
    masks = {room.id: grid.fill(room.polygon) for room in plan.rooms}
    kinds = {room.id: room.kind for room in plan.rooms}

    # Every check below names rooms by id, so a repeated id hides a room.
    listed = [room.id for room in plan.rooms]
    for rid in sorted({rid for rid in listed if listed.count(rid) > 1}):
        failures.append(f"room id {rid} is listed {listed.count(rid)} times")
    # One area per listed room, so a room listed twice counts twice.
    total = sum(room.polygon.area_mm2 for room in plan.rooms)
    fp_area = (fp_box[2] - fp_box[0]) * (fp_box[3] - fp_box[1])
    if total != fp_area:
        failures.append(f"partition: room areas sum to {total} mm², footprint is {fp_area} mm²")
    for rid in sorted(masks):
        if masks[rid] & ~fp_mask:
            failures.append(f"containment: room {rid} leaves the footprint")
    # The corridor is living-room space.
    if corridor:
        living = 0
        for rid, kind in kinds.items():
            if kind is RoomKind.LIVING_ROOM:
                living |= masks[rid]
        if grid.fill(plan.corridor) & ~living:
            failures.append("corridor not inside the living room")
    overlapping: set[tuple[int, int]] = set()
    ids = sorted(masks)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if masks[a] & masks[b]:
                overlapping.add((a, b))
                failures.append(f"overlap: rooms {a} and {b}")

    nodes = set(masks) | {OUTSIDE_ID}
    # With a config, each opening is as wide as the config makes its kind.
    widths: dict[str, int] = {}
    if cfg is not None:
        widths = {DOOR: cfg.door_mm, ENTRY_DOOR: cfg.door_mm, WINDOW: cfg.window_mm}
    door_edges: set[tuple[int, int]] = set()
    entry_count = 0
    # Keyed (vertical, line), so horizontal walls are reported first.
    by_line: dict[tuple[bool, int], list[tuple[int, int, str]]] = {}
    for opening in plan.openings:
        if opening.kind not in (DOOR, ENTRY_DOOR, WINDOW):
            failures.append(f"unknown opening kind {opening.kind!r}: {opening.rooms}")
            continue
        unknown = [rid for rid in opening.rooms if rid not in nodes]
        if unknown:
            failures.append(f"{opening.kind} names unknown room {unknown[0]}: {opening.rooms}")
            continue
        wall, lo, hi = opening.wall, opening.lo, opening.hi
        horizontal, line, slo, shi = wall
        if lo < slo or hi > shi:
            failures.append(f"opening outside its wall: {opening.kind} {opening.rooms}")
        if widths and hi - lo != widths[opening.kind]:
            failures.append(
                f"opening width: {opening.kind} {opening.rooms} is {hi - lo} mm, "
                f"not {widths[opening.kind]} mm"
            )
        by_line.setdefault((not horizontal, line), []).append((lo, hi, opening.kind))
        on_boundary = line in ((fp_box[1], fp_box[3]) if horizontal else (fp_box[0], fp_box[2]))
        a, b = opening.rooms
        if opening.kind == WINDOW:
            if b != OUTSIDE_ID or not on_boundary:
                failures.append(f"window not on the footprint boundary: room {a}")
            elif not _on_wall(wall, grid.exterior_walls(masks.get(a, 0), fp_box)):
                failures.append(f"window not on an exterior wall of room {a}")
            continue
        if opening.kind == ENTRY_DOOR:
            entry_count += 1
            if not on_boundary:
                failures.append("entry door not on the footprint boundary")
            for rid in (a, b):
                if rid != OUTSIDE_ID and not _on_wall(wall, grid.exterior_walls(masks[rid], fp_box)):
                    failures.append(f"entry door not on an exterior wall of room {rid}")
            door_edges.add(_pair(a, b))
            continue
        door_edges.add(_pair(a, b))
        if (
            _pair(a, b) in overlapping
            or OUTSIDE_ID in (a, b)
            or not _on_wall(wall, grid.shared_walls(masks[a], masks[b]))
        ):
            failures.append(f"door between {a} and {b} is not on their shared wall")

    for line, intervals in sorted(by_line.items()):
        intervals.sort()
        for (alo, ahi, akind), (blo, bhi, bkind) in zip(intervals, intervals[1:]):
            if blo < ahi:
                failures.append(f"openings overlap on a wall: {akind} and {bkind}")

    if entry_count == 0:
        failures.append("no entry door")

    if set(plan.graph.nodes) != nodes:
        failures.append("connection graph nodes are not the rooms plus outside")
    graph_edges = {(_pair(a, b)) for a, b in plan.graph.edges}
    if door_edges != graph_edges:
        failures.append("realized doors do not match the connection graph")

    adjacency: dict[int, set[int]] = {n: set() for n in nodes}
    for a, b in door_edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {OUTSIDE_ID}
    frontier = [OUTSIDE_ID]
    while frontier:
        for nbr in adjacency[frontier.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    if seen != nodes:
        failures.append(f"door graph disconnected: unreachable rooms {sorted(nodes - seen)}")

    for a, b in sorted(door_edges):
        if a == OUTSIDE_ID:
            continue
        if _prohibited(kinds[a], kinds[b]):
            failures.append(f"prohibited door between {a} ({kinds[a].value}) and {b} ({kinds[b].value})")
    for rid, kind in sorted(kinds.items()):
        if kind is not RoomKind.BATHROOM:
            continue
        bed_neighbours = [
            other
            for a, b in door_edges
            for bath, other in ((a, b), (b, a))
            if bath == rid and other != OUTSIDE_ID and kinds[other] in BEDROOM_KINDS
        ]
        if len(bed_neighbours) > 1:
            failures.append(f"bathroom {rid} bridges bedrooms {sorted(bed_neighbours)}")

    if plan.attempts < 1:
        failures.append(f"attempts: {plan.attempts} is below 1")
    if plan.corridor_candidates < 0 or (plan.corridor_candidates == 0) != (plan.corridor is None):
        having = "no corridor" if plan.corridor is None else "a corridor"
        failures.append(f"corridor_candidates: {plan.corridor_candidates} with {having}")

    if cfg is not None:
        for opening in plan.openings:
            if opening.kind == WINDOW and kinds.get(opening.rooms[0]) in cfg.window_banned:
                failures.append(f"window in banned kind: room {opening.rooms[0]}")
        if plan.attempts > cfg.max_attempts:
            failures.append(f"attempts: {plan.attempts} exceeds max_attempts {cfg.max_attempts}")
    # Without a config no width is expected, but an opening still needs one.
    for opening in plan.openings:
        if opening.hi <= opening.lo:
            width = opening.hi - opening.lo
            failures.append(f"opening width: {opening.kind} {opening.rooms} is {width} mm, not positive")

    return ValidationReport(tuple(failures))


def _on_wall(wall: Run, runs: list[Run]) -> bool:
    """The wall lies within one of the runs."""
    horizontal, line, lo, hi = wall
    for h, run_line, run_lo, run_hi in runs:
        if h == horizontal and run_line == line and run_lo <= lo and hi <= run_hi:
            return True
    return False
