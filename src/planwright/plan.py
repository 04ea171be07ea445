"""Floor-plan assembly: the generate pipeline, JSON contract and SVG render.

``generate`` runs sampling, hierarchy, placement, corridor and openings under
one seeded stream.  Recoverable stage failures (an unroutable corridor, a
room squeezed too thin, a door that cannot fit) restart the whole house on
the next substream, bounded by the config's attempt budget, so the result is
a pure function of (seed, config).  An attempt whose program holds a room
with less target area than any cut passing the width check needs
(``_area_floor``) stops right after sampling, as the layout failure it would
be, without building the hierarchy or cutting the treemap; each attempt has
its own substream, so the draws it skips move nothing.  The last attempt is
always laid out in full, so a give-up names the first room the layout refuses.

A finished plan holds every length in integer millimetres.  The JSON and the
SVG are the only places it is written in metres: ``_m`` gives each length as
the float the millimetre grid stands for, and ``from_json`` accepts only
lengths that are whole millimetres, so JSON round-trips reproduce the plan
exactly; room target areas live on the micro-square-metre grid (a product of
two millimetre lengths) and survive round-tripping for the same reason.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .corridor import CorridorError, plan_corridor
from .geometry import MAX_EXACT, Box, Cut, RectilinearPolygon, _m, aspect_ratio, mm_box
from .hierarchy import OUTSIDE_ID, build_hierarchy
from .openings import (
    ENTRY_DOOR,
    WINDOW,
    ConnectionGraph,
    Opening,
    OpeningError,
    ValidationReport,
    build_connection_graph,
    place_doors,
    place_windows,
    validate,
)
from .sampling import (
    GenConfig,
    RandomStream,
    RoomKind,
    SamplingError,
    assign_functions,
    derive_footprint,
    sample_areas,
    sample_counts,
)
from .treemap import LayoutError, layout_rooms

SCHEMA_VERSION = 1


class GenerationError(RuntimeError):
    """The attempt budget ran out without a valid plan.

    ``rejections`` counts the failed attempts by the stage that rejected them.
    """

    def __init__(self, message: str, rejections: dict[str, int] | None = None) -> None:
        super().__init__(message)
        self.rejections = rejections or {}


class PlanParseError(ValueError):
    """A plan document that does not match the schema; message names the path."""


@dataclass(frozen=True)
class Room:
    id: int
    kind: RoomKind
    polygon: RectilinearPolygon
    target_area: float

    @property
    def area(self) -> float:
        """The polygon's area in m²."""
        return self.polygon.area_mm2 / 1e6


@dataclass(frozen=True)
class FloorPlan:
    seed: int
    config_fingerprint: str
    footprint: Box
    rooms: tuple[Room, ...]
    corridor: RectilinearPolygon | None
    openings: tuple[Opening, ...]
    graph: ConnectionGraph
    attempts: int
    corridor_candidates: int
    trace: dict | None = field(default=None, compare=False, repr=False)


# The stage each retryable attempt failure comes from.
_STAGE = {SamplingError: "sampling", LayoutError: "layout", CorridorError: "corridor", OpeningError: "openings"}


def generate(seed: int, cfg: GenConfig | None = None, *, trace: bool = False) -> FloorPlan:
    """Deterministically generate one house for (seed, config).

    With ``trace`` the plan carries the winning attempt's corridor trace;
    without it ``FloorPlan.trace`` is None.  The plan is the same either way.
    """
    cfg = cfg if cfg is not None else GenConfig()
    root = RandomStream(seed)
    last: Exception | None = None
    rejections = dict.fromkeys(_STAGE.values(), 0)
    for attempt in range(cfg.max_attempts):
        rng = root.substream(attempt)
        try:
            return _attempt(seed, rng, cfg, attempt + 1, trace)
        except tuple(_STAGE) as exc:
            last = exc
            rejections[_STAGE[type(exc)]] += 1
    raise GenerationError(
        f"seed {seed}: no valid plan in {cfg.max_attempts} attempts (last: {last})", rejections
    ) from last


def _attempt(seed: int, rng: RandomStream, cfg: GenConfig, attempt: int, trace: bool) -> FloorPlan:
    bedrooms, n_rooms = sample_counts(rng, cfg.joint_table)
    program = assign_functions(bedrooms, n_rooms, cfg.priority)
    program = sample_areas(program, rng, cfg)
    footprint, program = derive_footprint(program, rng, cfg)
    min_mm = cfg.min_room_mm
    if attempt < cfg.max_attempts:
        # A room under the floor fails the width check whatever its cut.  The
        # last attempt runs in full, so a give-up names the room the layout
        # refuses first.
        floor = _area_floor(min_mm)
        small = [e.id for e in program if e.target_area * 1e6 < floor]
        if small:
            raise LayoutError(f"room {min(small)} narrower than {cfg.min_room_width} m")
    via_dining = rng.random() < cfg.kitchen_via_dining_prob
    tree = build_hierarchy(program, kitchen_via_dining=via_dining)

    # From here to the finished plan, geometry is in integer millimetres.
    fp_box = mm_box(footprint)

    def check(rid: int, kind: RoomKind, cut: Cut) -> tuple[int, RoomKind, Box]:
        """The room as an mm box, checked as the treemap places it."""
        x0, y0, x1, y1 = box = mm_box(cut)
        if min(x1 - x0, y1 - y0) < min_mm:
            raise LayoutError(f"room {rid} narrower than {cfg.min_room_width} m")
        # Sides in metres, so a ratio right on the bound compares as it did
        # on the snapped treemap rect.
        if aspect_ratio(_m(x1) - _m(x0), _m(y1) - _m(y0)) > cfg.max_room_aspect:
            raise LayoutError(f"room {rid} too elongated")
        return rid, kind, box

    placed = layout_rooms(footprint, tree, check)

    parent_of: dict[int, int] = {}
    for node in tree.walk():
        for child in node.children:
            if node.room_id != OUTSIDE_ID:
                parent_of[child.room_id] = node.room_id
    living_id = tree.children[0].room_id

    corridor = plan_corridor(fp_box, placed, parent_of, living_id, cfg, trace=trace)
    for t in corridor.reparented:
        parent_of[t] = living_id

    grid = corridor.grid
    graph = build_connection_graph(grid, corridor.rooms, parent_of, living_id, rng, cfg)
    doors, ledger = place_doors(grid, corridor.rooms, graph, fp_box, rng, cfg)
    windows = place_windows(grid, corridor.rooms, fp_box, ledger, rng, cfg)

    targets = {e.id: round(e.target_area, 6) for e in program}
    rooms = tuple(
        Room(rid, kind, grid.outline(m), targets[rid]) for rid, kind, m in corridor.rooms
    )
    plan = FloorPlan(
        seed=seed,
        config_fingerprint=cfg.fingerprint(),
        footprint=fp_box,
        rooms=rooms,
        corridor=corridor.corridor,
        openings=tuple(doors + windows),
        graph=graph,
        attempts=attempt,
        corridor_candidates=corridor.candidates,
        trace=corridor.trace,
    )
    report = validate(plan, cfg)
    if not report.ok:
        raise OpeningError(f"self-check failed: {report.failures[0]}")
    return plan


def _area_floor(min_mm: int) -> int:
    """The least target area, in mm², of a room that can pass a ``min_mm`` width check.

    ``mm_box`` moves each cut edge by at most 0.5 mm, so a room whose snapped
    sides reach ``min_mm`` has float sides above ``min_mm - 1`` mm, and the
    treemap cuts it to its target area up to float error: that area exceeds
    ``(min_mm - 1)**2``.  The floor keeps one more millimetre per side as slack.
    """
    return max(min_mm - 2, 0) ** 2


# Each reader below checks one value of a plan document.  It takes the JSON
# path of that value as a tuple of parts - a key as a string, a list index as
# an int - and joins it with ``_at`` only when it raises, so a document that
# parses formats no path.


def _at(path: tuple) -> str:
    """The path ``("rooms", 0, "polygon")`` written as ``$.rooms[0].polygon``."""
    return "$" + "".join(f"[{part}]" if type(part) is int else f".{part}" for part in path)


def _poly_from_json(doc, path: tuple) -> RectilinearPolygon:
    if not isinstance(doc, list) or len(doc) < 4:
        raise PlanParseError(f"{_at(path)}: expected a vertex list")
    vertices = [_point(v, path + (k,)) for k, v in enumerate(doc)]
    try:
        return RectilinearPolygon(vertices)
    except ValueError as exc:
        raise PlanParseError(f"{_at(path)}: {exc}") from exc


def _int(value, path: tuple) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanParseError(f"{_at(path)}: expected an integer")
    return value


def _number(value, path: tuple) -> float:
    # Exact types leave out bool; the bound leaves out NaN, the infinities
    # and integers too large for a float.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise PlanParseError(f"{_at(path)}: expected a finite number")
    return value


def _length(value, path: tuple) -> int:
    """A length or coordinate given in metres, as whole millimetres."""
    if type(value) in (int, float) and abs(value) <= MAX_EXACT:
        mm = round(value * 1000)
        if _m(mm) == value:
            return mm
        raise PlanParseError(f"{_at(path)}: {value!r} m is not a whole number of millimetres")
    _number(value, path)  # a value that is not a finite number fails here
    raise PlanParseError(f"{_at(path)}: coordinate beyond {MAX_EXACT:g} m")


def _str(value, path: tuple) -> str:
    if not isinstance(value, str):
        raise PlanParseError(f"{_at(path)}: expected a string")
    return value


def _list(value, path: tuple) -> list:
    if not isinstance(value, list):
        raise PlanParseError(f"{_at(path)}: expected a list")
    return value


def _pair(value, path: tuple, item) -> tuple:
    """A two-element list whose elements ``item`` checks."""
    if not isinstance(value, list) or len(value) != 2:
        raise PlanParseError(f"{_at(path)}: expected a pair")
    return item(value[0], path + (0,)), item(value[1], path + (1,))


def _ids(value, path: tuple) -> tuple[int, int]:
    """A pair of integers; two plain ints, as ``to_json`` writes them, take one call."""
    if type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return value[0], value[1]
    return _pair(value, path, _int)


def _point(value, path: tuple) -> tuple[int, int]:
    """An [x, y] pair of lengths; two floats on the grid, as ``to_json`` writes them, take one call."""
    if type(value) is list and len(value) == 2:
        x, y = value
        if type(x) is float and type(y) is float and abs(x) <= MAX_EXACT and abs(y) <= MAX_EXACT:
            mx, my = round(x * 1000), round(y * 1000)
            if mx / 1000 == x and my / 1000 == y:  # the check _length makes, without its calls
                return mx, my
    return _pair(value, path, _length)


# The plan writer.  It writes the document exactly as json.dumps(indent=2)
# lays it out: each object below is its own template, and each list helper
# returns one JSON value laid out for a first line at indent ``pad``.
# Numbers print as their repr and strings as the json module's ASCII encoder
# quotes them, which is what json.dumps writes.  A document's lengths come
# from ``metres``, a ``_Text`` that writes each distinct millimetre value once.


class _Text(dict):
    """Each key's text, written by ``write`` when first asked for; one lives for one document."""

    __slots__ = ("write",)

    def __init__(self, write) -> None:
        self.write = write

    def __missing__(self, key):
        text = self[key] = self.write(key)
        return text


# A string as json.dumps writes it, without building an encoder.
_quote = json.encoder.encode_basestring_ascii


def _list_json(items: list[str], pad: str) -> str:
    """A list of values already laid out at ``pad`` plus two spaces."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _pairs_json(pairs, pad: str) -> str:
    """A list of two-number lists, each number given as its text."""
    if not pairs:
        return "[]"
    inner, item = pad + "  ", pad + "    "
    body = f"\n{inner}],\n{inner}[\n{item}".join([f"{a},\n{item}{b}" for a, b in pairs])
    return f"[\n{inner}[\n{item}{body}\n{inner}]\n{pad}]"


def _poly_json(poly: RectilinearPolygon, pad: str, metres: _Text) -> str:
    return _pairs_json([(metres[x], metres[y]) for x, y in poly.mm], pad)


def _room_json(room: Room, metres: _Text) -> str:
    return (
        "{\n"
        f'      "id": {room.id!r},\n'
        f'      "kind": {_quote(room.kind.value)},\n'
        f'      "target_area": {room.target_area!r},\n'
        f'      "polygon": {_poly_json(room.polygon, "      ", metres)}\n'
        "    }"
    )


def _opening_json(opening: Opening, metres: _Text) -> str:
    horizontal, line, lo, hi = opening.wall
    (ax, ay), (bx, by) = ((lo, line), (hi, line)) if horizontal else ((line, lo), (line, hi))
    return (
        "{\n"
        f'      "kind": {_quote(opening.kind)},\n'
        f'      "wall": [\n        [\n          {metres[ax]},\n          {metres[ay]}\n        ],\n'
        f'        [\n          {metres[bx]},\n          {metres[by]}\n        ]\n      ],\n'
        f'      "offset": {metres[opening.lo - lo]},\n'
        f'      "width": {metres[opening.hi - opening.lo]},\n'
        f'      "rooms": {_list_json([repr(r) for r in opening.rooms], "      ")}\n'
        "    }"
    )


def to_json(plan: FloorPlan) -> str:
    """Serialize with stable field order; every number sits on its grid.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` for the document
    dict with its keys in the order written here.
    """
    metres = _Text(lambda mm: repr(_m(mm)))
    x, y, x1, y1 = [metres[v] for v in plan.footprint]
    corridor = "null" if plan.corridor is None else _poly_json(plan.corridor, "  ", metres)
    nodes = _list_json([repr(n) for n in sorted(plan.graph.nodes)], "    ")
    edges = _pairs_json([(repr(a), repr(b)) for a, b in plan.graph.edges], "    ")
    return (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION!r},\n'
        f'  "seed": {plan.seed!r},\n'
        f'  "config_fingerprint": {_quote(plan.config_fingerprint)},\n'
        f'  "attempts": {plan.attempts!r},\n'
        f'  "corridor_candidates": {plan.corridor_candidates!r},\n'
        f'  "footprint": {{\n    "x": {x},\n    "y": {y},\n    "x1": {x1},\n    "y1": {y1}\n  }},\n'
        f'  "rooms": {_list_json([_room_json(room, metres) for room in plan.rooms], "  ")},\n'
        f'  "corridor": {corridor},\n'
        f'  "openings": {_list_json([_opening_json(o, metres) for o in plan.openings], "  ")},\n'
        f'  "connection_graph": {{\n    "nodes": {nodes},\n    "edges": {edges}\n  }}\n'
        "}\n"
    )


_TOP_FIELDS = {
    "schema_version",
    "seed",
    "config_fingerprint",
    "attempts",
    "corridor_candidates",
    "footprint",
    "rooms",
    "corridor",
    "openings",
    "connection_graph",
}
_ROOM_FIELDS = {"id", "kind", "target_area", "polygon"}
_OPENING_FIELDS = {"kind", "wall", "offset", "width", "rooms"}


def from_json(text: str) -> FloorPlan:
    """Read an untrusted plan document; one off the schema raises
    ``PlanParseError`` naming the JSON path of its first bad value."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise PlanParseError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise PlanParseError("$: expected an object")
    unknown = doc.keys() - _TOP_FIELDS
    if unknown:
        raise PlanParseError(f"$.{sorted(unknown)[0]}: unknown field")
    missing = _TOP_FIELDS - doc.keys()
    if missing:
        raise PlanParseError(f"$.{sorted(missing)[0]}: missing field")
    if _int(doc["schema_version"], ("schema_version",)) != SCHEMA_VERSION:
        raise PlanParseError(f"$.schema_version: unsupported {doc['schema_version']!r}")
    seed = _int(doc["seed"], ("seed",))
    fingerprint = _str(doc["config_fingerprint"], ("config_fingerprint",))
    attempts = _int(doc["attempts"], ("attempts",))
    candidates = _int(doc["corridor_candidates"], ("corridor_candidates",))

    fp = doc["footprint"]
    if not isinstance(fp, dict) or fp.keys() != {"x", "y", "x1", "y1"}:
        raise PlanParseError("$.footprint: expected x, y, x1, y1")
    footprint = tuple(_length(fp[k], ("footprint", k)) for k in ("x", "y", "x1", "y1"))
    x, y, x1, y1 = footprint
    if x1 <= x or y1 <= y:
        raise PlanParseError("$.footprint: x1 and y1 must exceed x and y")

    rooms = []
    for i, rdoc in enumerate(_list(doc["rooms"], ("rooms",))):
        if not isinstance(rdoc, dict) or rdoc.keys() != _ROOM_FIELDS:
            raise PlanParseError(f"$.rooms[{i}]: expected fields {sorted(_ROOM_FIELDS)}")
        try:
            kind = RoomKind(rdoc["kind"])
        except ValueError as exc:
            raise PlanParseError(f"$.rooms[{i}].kind: {rdoc['kind']!r}") from exc
        rid = _int(rdoc["id"], ("rooms", i, "id"))
        polygon = _poly_from_json(rdoc["polygon"], ("rooms", i, "polygon"))
        rooms.append(Room(rid, kind, polygon, _number(rdoc["target_area"], ("rooms", i, "target_area"))))

    corridor = None
    if doc["corridor"] is not None:
        corridor = _poly_from_json(doc["corridor"], ("corridor",))

    openings = []
    for i, odoc in enumerate(_list(doc["openings"], ("openings",))):
        if not isinstance(odoc, dict) or odoc.keys() != _OPENING_FIELDS:
            raise PlanParseError(f"$.openings[{i}]: expected fields {sorted(_OPENING_FIELDS)}")
        kind = _str(odoc["kind"], ("openings", i, "kind"))
        ids = _ids(odoc["rooms"], ("openings", i, "rooms"))
        (ax, ay), (bx, by) = a, b = _pair(odoc["wall"], ("openings", i, "wall"), _point)
        offset = _length(odoc["offset"], ("openings", i, "offset"))
        width = _length(odoc["width"], ("openings", i, "width"))
        if ax != bx and ay != by:
            raise PlanParseError(f"$.openings[{i}]: segment not axis-aligned: {a} -> {b} mm")
        if a == b:
            raise PlanParseError(f"$.openings[{i}]: zero-length segment at {a} mm")
        # The wall runs from its low end, whichever end the document names first.
        wall = (True, ay, *sorted((ax, bx))) if ay == by else (False, ax, *sorted((ay, by)))
        lo = wall[2] + offset
        openings.append(Opening(kind, wall, lo, lo + width, ids))

    gdoc = doc["connection_graph"]
    if not isinstance(gdoc, dict) or gdoc.keys() != {"nodes", "edges"}:
        raise PlanParseError("$.connection_graph: expected nodes and edges")
    graph = ConnectionGraph(
        nodes=frozenset(
            _int(node, ("connection_graph", "nodes", j))
            for j, node in enumerate(_list(gdoc["nodes"], ("connection_graph", "nodes")))
        ),
        edges=tuple(
            _ids(edge, ("connection_graph", "edges", j))
            for j, edge in enumerate(_list(gdoc["edges"], ("connection_graph", "edges")))
        ),
    )

    return FloorPlan(
        seed=seed,
        config_fingerprint=fingerprint,
        footprint=footprint,
        rooms=tuple(rooms),
        corridor=corridor,
        openings=tuple(openings),
        graph=graph,
        attempts=attempts,
        corridor_candidates=candidates,
    )


@dataclass(frozen=True)
class SvgStyle:
    scale: float = 60.0
    margin: float = 24.0
    background: str = "#faf9f6"
    wall: str = "#2b2b2b"
    wall_width: float = 2.5
    outline_width: float = 4.0
    door_color: str = "#8a6d3b"
    entry_color: str = "#b3541e"
    window_color: str = "#3a6ea5"
    label_color: str = "#3c3c3c"
    font_size: float = 11.0
    labels: bool = True
    fills: tuple[tuple[str, str], ...] = (
        ("social", "#f7e9c6"),
        ("service", "#dcebe4"),
        ("private", "#e6e1f2"),
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label_point(poly: RectilinearPolygon) -> tuple[int, int]:
    """A point inside the polygon in mm: the centre of its largest cell on its own grid lines.

    Ties go to the leftmost, then lowest, cell.
    """
    if len(poly.mm) == 4:
        # A rectangle is its own one cell, from its least vertex to the opposite one.
        (x0, y0), _, (x1, y1), _ = poly.mm
        return round(x0 + (x1 - x0) / 2), round(y0 + (y1 - y0) / 2)
    xs = sorted({x for x, _ in poly.mm})
    ys = sorted({y for _, y in poly.mm})
    column = {x: i for i, x in enumerate(xs)}
    walls = [(ax, min(ay, by), max(ay, by)) for (ax, ay), (bx, by) in poly.edges_mm() if ax == bx]
    best = None
    for y0, y1 in zip(ys, ys[1:]):
        # A row is inside from the first wall across it to the second, the third to the fourth...
        cuts = iter(sorted(x for x, lo, hi in walls if lo <= y0 and y1 <= hi))
        for left, right in zip(cuts, cuts):
            i, k = column[left], column[right]
            for x0, x1 in zip(xs[i:k], xs[i + 1 : k + 1]):
                key = ((x1 - x0) * (y1 - y0), -x0, -y0)
                if best is None or key > best[0]:
                    best = (key, (x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2))
    assert best is not None
    return round(best[1][0]), round(best[1][1])


def _footprint_m(plan: FloorPlan) -> tuple[float, float, float, float]:
    """The footprint's (x, y, width, height) in metres, as the drawing scales it."""
    x0, y0, x1, y1 = map(_m, plan.footprint)
    return x0, y0, x1 - x0, y1 - y0


def _render_plan(plan: FloorPlan, style: SvgStyle, ox: float, oy: float) -> list[str]:
    """SVG fragments for one plan with its footprint origin at (ox, oy) px."""
    s = style.scale
    fx, fy, fw, fh = _footprint_m(plan)

    def page_x(x: int) -> float:
        return ox + (_m(x) - fx) * s

    def page_y(y: int) -> float:
        return oy + (fy + fh - _m(y)) * s

    # The text of each page x and y given in mm, written once per plan.
    xt, yt = _Text(lambda x: _fmt(page_x(x))), _Text(lambda y: _fmt(page_y(y)))

    def path_of(poly: RectilinearPolygon) -> str:
        return "M " + " L ".join([f"{xt[x]} {yt[y]}" for x, y in poly.mm]) + " Z"

    fills = dict(style.fills)
    paths = [path_of(room.polygon) for room in plan.rooms]
    out: list[str] = []
    for room, path in zip(plan.rooms, paths):
        fill = fills.get(room.kind.category, "#eeeeee")
        out.append(f'<path d="{path}" fill="{fill}" stroke="none"/>')
    if plan.corridor is not None:
        out.append(
            f'<path d="{path_of(plan.corridor)}" fill="#f3dfae" stroke="none" opacity="0.85"/>'
        )
    wall_width = _fmt(style.wall_width)
    for path in paths:
        out.append(
            f'<path d="{path}" fill="none" stroke="{style.wall}" '
            f'stroke-width="{wall_width}" stroke-linejoin="miter"/>'
        )
    out.append(
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{_fmt(fw * s)}" '
        f'height="{_fmt(fh * s)}" fill="none" stroke="{style.wall}" '
        f'stroke-width="{_fmt(style.outline_width)}"/>'
    )

    gap = _fmt(max(style.wall_width, style.outline_width) + 2)
    for opening in plan.openings:
        horizontal, line, _, _ = opening.wall
        lo, hi = opening.lo, opening.hi
        # The opening's ends in mm.
        (x0, y0), (x1, y1) = ((lo, line), (hi, line)) if horizontal else ((line, lo), (line, hi))
        out.append(
            f'<line x1="{xt[x0]}" y1="{yt[y0]}" x2="{xt[x1]}" y2="{yt[y1]}" '
            f'stroke="{style.background}" stroke-width="{gap}"/>'
        )
        if opening.kind == WINDOW:
            ax, ay, bx, by = page_x(x0), page_y(y0), page_x(x1), page_y(y1)
            dx, dy = (0.0, 2.0) if horizontal else (2.0, 0.0)
            for sign in (-1, 1):
                out.append(
                    f'<line x1="{_fmt(ax + sign * dx)}" y1="{_fmt(ay + sign * dy)}" '
                    f'x2="{_fmt(bx + sign * dx)}" y2="{_fmt(by + sign * dy)}" '
                    f'stroke="{style.window_color}" stroke-width="1.5"/>'
                )
            continue
        color = style.entry_color if opening.kind == ENTRY_DOOR else style.door_color
        r = _m(hi - lo) * s
        # The leaf's free end: up from a horizontal wall's first end, right of a vertical one's.
        leaf = f"{xt[x0]} {_fmt(page_y(y0) - r)}" if horizontal else f"{_fmt(page_x(x0) + r)} {yt[y0]}"
        radius = _fmt(r)
        out.append(
            f'<path d="M {xt[x0]} {yt[y0]} L {leaf} A {radius} {radius} 0 0 1 {xt[x1]} {yt[y1]}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    if style.labels:
        font_size, line_gap = _fmt(style.font_size), _fmt(style.font_size + 1)
        for room in plan.rooms:
            x, y = _label_point(room.polygon)
            name = room.kind.value.replace("_", " ").capitalize()
            out.append(
                f'<text x="{xt[x]}" y="{yt[y]}" text-anchor="middle" '
                f'font-family="Helvetica, Arial, sans-serif" font-size="{font_size}" '
                f'fill="{style.label_color}">{name}'
                f'<tspan x="{xt[x]}" dy="{line_gap}">'
                f"{room.area:.1f} m²</tspan></text>"
            )
    return out


def _svg_document(width: float, height: float, background: str, body: list[str]) -> str:
    """A standalone SVG of the given size: background rect, then ``body``."""
    w, h = _fmt(width), _fmt(height)
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="{background}"/>',
        *body,
        "</svg>",
    ]) + "\n"


def to_svg(plan: FloorPlan, style: SvgStyle | None = None) -> str:
    """Deterministic standalone SVG drawing of one plan."""
    style = style if style is not None else SvgStyle()
    _, _, fw, fh = _footprint_m(plan)
    width = fw * style.scale + 2 * style.margin
    height = fh * style.scale + 2 * style.margin
    body = _render_plan(plan, style, style.margin, style.margin)
    return _svg_document(width, height, style.background, body)


def gallery_svg(plans: list[FloorPlan], columns: int = 5) -> str:
    """Contact sheet of several plans, one labelled cell each."""
    if not plans:
        raise ValueError("gallery of zero plans")
    if columns < 1:
        raise ValueError("gallery needs at least one column")
    style = SvgStyle(labels=False)
    cell = 320.0
    caption = 18.0
    pad = 16.0
    rows = (len(plans) + columns - 1) // columns
    parts = []
    for i, plan in enumerate(plans):
        col, row = i % columns, i // columns
        avail = cell - 2 * pad
        _, _, fw, fh = _footprint_m(plan)
        scale = min(avail / fw, avail / fh)
        pw = fw * scale
        ph = fh * scale
        ox = col * cell + (cell - pw) / 2
        oy = row * (cell + caption) + (cell - ph) / 2
        cell_style = SvgStyle(scale=scale, labels=False, wall_width=1.5, outline_width=2.5)
        parts.extend(_render_plan(plan, cell_style, ox, oy))
        cx = col * cell + cell / 2
        cy = row * (cell + caption) + cell + caption - 6
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
            f'font-family="Helvetica, Arial, sans-serif" font-size="12" '
            f'fill="{style.label_color}">seed {plan.seed}</text>'
        )
    return _svg_document(columns * cell, rows * (cell + caption), style.background, parts)
