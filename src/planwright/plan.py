"""Floor-plan assembly: the generate pipeline, JSON contract and SVG render.

``generate`` runs sampling, hierarchy, placement, corridor and openings under
one seeded stream.  Recoverable stage failures (an unroutable corridor, a
room squeezed too thin, a door that cannot fit) restart the whole house on
the next substream, bounded by the config's attempt budget, so the result is
a pure function of (seed, config).

Serialized coordinates all sit on the millimetre grid, so JSON round-trips
reproduce the in-memory plan exactly; room target areas live on the
micro-square-metre grid (a product of two millimetre lengths) and survive
round-tripping for the same reason.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .corridor import CorridorError, plan_corridor
from .geometry import (
    MAX_COORD, Box, Grid, Point, Rect, RectilinearPolygon, Segment, _bits, _m, _mm, aspect_ratio, mm_box,
    snap,
)
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
from .treemap import Cut, LayoutError, layout_rooms

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
        return self.polygon.area


@dataclass(frozen=True)
class FloorPlan:
    seed: int
    config_fingerprint: str
    footprint: Rect
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
    via_dining = rng.random() < cfg.kitchen_via_dining_prob
    tree = build_hierarchy(program, kitchen_via_dining=via_dining)

    # From here to the finished rooms, geometry is in integer millimetres.
    fp_box = mm_box(footprint)
    min_mm = _mm(cfg.min_room_width)

    def check(rid: int, kind: RoomKind, cut: Cut) -> tuple[int, RoomKind, Box]:
        """The room as an mm box, checked as the treemap places it.

        The cut's floats are snapped as ``mm_box`` snaps a Rect.
        """
        x, y, w, h = cut
        x0, y0 = round(round(x, 3) * 1000), round(round(y, 3) * 1000)
        x1, y1 = round(round(x + w, 3) * 1000), round(round(y + h, 3) * 1000)
        if min(x1 - x0, y1 - y0) < min_mm:
            raise LayoutError(f"room {rid} narrower than {cfg.min_room_width} m")
        # Sides in metres, so a ratio right on the bound compares as it did
        # on the snapped treemap rect.
        if aspect_ratio(_m(x1) - _m(x0), _m(y1) - _m(y0)) > cfg.max_room_aspect:
            raise LayoutError(f"room {rid} too elongated")
        return rid, kind, (x0, y0, x1, y1)

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

    targets = {e.id: round(e.target_area, 6) for e in program.entries}
    rooms = tuple(
        Room(rid, kind, grid.outline(m), targets[rid]) for rid, kind, m in corridor.rooms
    )
    plan = FloorPlan(
        seed=seed,
        config_fingerprint=cfg.fingerprint(),
        footprint=footprint,
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


def _poly_from_json(doc, path: str) -> RectilinearPolygon:
    if not isinstance(doc, list) or len(doc) < 4:
        raise PlanParseError(f"{path}: expected a vertex list")
    points = [Point(*_point(v, f"{path}[{k}]")) for k, v in enumerate(doc)]
    try:
        return RectilinearPolygon(points)
    except ValueError as exc:
        raise PlanParseError(f"{path}: {exc}") from exc


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanParseError(f"{path}: expected an integer")
    return value


def _number(value, path: str) -> float:
    # Exact types leave out bool; the bound leaves out NaN, the infinities
    # and integers too large for a float.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise PlanParseError(f"{path}: expected a finite number")
    return value


def _coord(value, path: str) -> float:
    """A length or coordinate in metres."""
    if type(value) in (int, float) and abs(value) <= MAX_COORD:
        return value
    _number(value, path)  # a value that is not a finite number fails here
    raise PlanParseError(f"{path}: coordinate beyond {MAX_COORD:g} m")


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise PlanParseError(f"{path}: expected a string")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise PlanParseError(f"{path}: expected a list")
    return value


def _pair(value, path: str, item) -> tuple:
    """A two-element list whose elements ``item`` checks."""
    if not isinstance(value, list) or len(value) != 2:
        raise PlanParseError(f"{path}: expected a pair")
    return (item(value[0], f"{path}[0]"), item(value[1], f"{path}[1]"))


def _point(value, path: str) -> tuple[float, float]:
    return _pair(value, path, _coord)


# The plan writer.  Each helper returns one JSON value laid out exactly as
# json.dumps(indent=2) lays it out when the value's first line sits at
# indent ``pad``.  Numbers print as their repr, which is what the json module
# writes for ints and floats.


def _object_json(fields: tuple[tuple[str, str], ...], pad: str) -> str:
    inner = pad + "  "
    return "{\n" + ",\n".join(f'{inner}"{key}": {value}' for key, value in fields) + f"\n{pad}}}"


def _list_json(items: list[str], pad: str) -> str:
    """A list of values already laid out at ``pad`` plus two spaces."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _pairs_json(pairs, pad: str) -> str:
    """A list of two-number lists."""
    if not pairs:
        return "[]"
    inner, item = pad + "  ", pad + "    "
    body = f"\n{inner}],\n{inner}[\n{item}".join(f"{a!r},\n{item}{b!r}" for a, b in pairs)
    return f"[\n{inner}[\n{item}{body}\n{inner}]\n{pad}]"


def _poly_json(poly: RectilinearPolygon, pad: str) -> str:
    return _pairs_json([(p.x, p.y) for p in poly.vertices], pad)


def _room_json(room: Room) -> str:
    fields = (
        ("id", repr(room.id)),
        ("kind", json.dumps(room.kind.value)),
        ("target_area", repr(room.target_area)),
        ("polygon", _poly_json(room.polygon, "      ")),
    )
    return _object_json(fields, "    ")


def _opening_json(opening: Opening) -> str:
    a, b = opening.wall.a, opening.wall.b
    fields = (
        ("kind", json.dumps(opening.kind)),
        ("wall", _pairs_json(((a.x, a.y), (b.x, b.y)), "      ")),
        ("offset", repr(opening.offset)),
        ("width", repr(opening.width)),
        ("rooms", _list_json([repr(r) for r in opening.rooms], "      ")),
    )
    return _object_json(fields, "    ")


def to_json(plan: FloorPlan) -> str:
    """Serialize with stable field order; every number sits on its grid.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` for the document
    dict with its keys in the order written here.
    """
    fp = plan.footprint
    footprint = (
        ("x", repr(fp.x)),
        ("y", repr(fp.y)),
        ("x1", repr(snap(fp.x1))),
        ("y1", repr(snap(fp.y1))),
    )
    graph = (
        ("nodes", _list_json([repr(n) for n in sorted(plan.graph.nodes)], "    ")),
        ("edges", _pairs_json(plan.graph.edges, "    ")),
    )
    doc = (
        ("schema_version", repr(SCHEMA_VERSION)),
        ("seed", repr(plan.seed)),
        ("config_fingerprint", json.dumps(plan.config_fingerprint)),
        ("attempts", repr(plan.attempts)),
        ("corridor_candidates", repr(plan.corridor_candidates)),
        ("footprint", _object_json(footprint, "  ")),
        ("rooms", _list_json([_room_json(room) for room in plan.rooms], "  ")),
        ("corridor", "null" if plan.corridor is None else _poly_json(plan.corridor, "  ")),
        ("openings", _list_json([_opening_json(o) for o in plan.openings], "  ")),
        ("connection_graph", _object_json(graph, "  ")),
    )
    return _object_json(doc, "") + "\n"


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
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise PlanParseError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise PlanParseError("$: expected an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise PlanParseError(f"$.{sorted(unknown)[0]}: unknown field")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise PlanParseError(f"$.{sorted(missing)[0]}: missing field")
    if _int(doc["schema_version"], "$.schema_version") != SCHEMA_VERSION:
        raise PlanParseError(f"$.schema_version: unsupported {doc['schema_version']!r}")
    seed = _int(doc["seed"], "$.seed")
    fingerprint = _str(doc["config_fingerprint"], "$.config_fingerprint")
    attempts = _int(doc["attempts"], "$.attempts")
    candidates = _int(doc["corridor_candidates"], "$.corridor_candidates")

    fp = doc["footprint"]
    if not isinstance(fp, dict) or set(fp) != {"x", "y", "x1", "y1"}:
        raise PlanParseError("$.footprint: expected x, y, x1, y1")
    x, y, x1, y1 = (_coord(fp[k], f"$.footprint.{k}") for k in ("x", "y", "x1", "y1"))
    if x1 <= x or y1 <= y:
        raise PlanParseError("$.footprint: x1 and y1 must exceed x and y")
    footprint = Rect(x, y, x1 - x, y1 - y)

    rooms = []
    for i, rdoc in enumerate(_list(doc["rooms"], "$.rooms")):
        if not isinstance(rdoc, dict) or set(rdoc) != _ROOM_FIELDS:
            raise PlanParseError(f"$.rooms[{i}]: expected fields {sorted(_ROOM_FIELDS)}")
        try:
            kind = RoomKind(rdoc["kind"])
        except ValueError as exc:
            raise PlanParseError(f"$.rooms[{i}].kind: {rdoc['kind']!r}") from exc
        rooms.append(
            Room(
                id=_int(rdoc["id"], f"$.rooms[{i}].id"),
                kind=kind,
                polygon=_poly_from_json(rdoc["polygon"], f"$.rooms[{i}].polygon"),
                target_area=_number(rdoc["target_area"], f"$.rooms[{i}].target_area"),
            )
        )

    corridor = None
    if doc["corridor"] is not None:
        corridor = _poly_from_json(doc["corridor"], "$.corridor")

    openings = []
    for i, odoc in enumerate(_list(doc["openings"], "$.openings")):
        if not isinstance(odoc, dict) or set(odoc) != _OPENING_FIELDS:
            raise PlanParseError(f"$.openings[{i}]: expected fields {sorted(_OPENING_FIELDS)}")
        kind = _str(odoc["kind"], f"$.openings[{i}].kind")
        ids = _pair(odoc["rooms"], f"$.openings[{i}].rooms", _int)
        a, b = _pair(odoc["wall"], f"$.openings[{i}].wall", _point)
        offset, width = (_coord(odoc[key], f"$.openings[{i}].{key}") for key in ("offset", "width"))
        try:
            wall = Segment(Point(*a), Point(*b))
        except ValueError as exc:
            raise PlanParseError(f"$.openings[{i}]: {exc}") from exc
        openings.append(Opening(kind, wall, offset, width, ids))

    gdoc = doc["connection_graph"]
    if not isinstance(gdoc, dict) or set(gdoc) != {"nodes", "edges"}:
        raise PlanParseError("$.connection_graph: expected nodes and edges")
    for j, node in enumerate(_list(gdoc["nodes"], "$.connection_graph.nodes")):
        _int(node, f"$.connection_graph.nodes[{j}]")
    for j, edge in enumerate(_list(gdoc["edges"], "$.connection_graph.edges")):
        _pair(edge, f"$.connection_graph.edges[{j}]", _int)
    graph = ConnectionGraph.from_json(gdoc)

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


def _label_point(poly: RectilinearPolygon) -> Point:
    """A point inside the polygon: the centre of its largest cell on its own grid lines."""
    grid = Grid((), [poly])
    xs, ys, s = grid.xs, grid.ys, grid.stride
    best = None
    for k in _bits(grid.fill(poly)):
        i, j = k % s, k // s
        w, h = xs[i + 1] - xs[i], ys[j + 1] - ys[j]
        key = (w * h, -xs[i], -ys[j])
        if best is None or key > best[0]:
            best = (key, (xs[i] + w / 2, ys[j] + h / 2))
    assert best is not None
    return Point(_m(round(best[1][0])), _m(round(best[1][1])))


def _render_plan(plan: FloorPlan, style: SvgStyle, ox: float, oy: float) -> list[str]:
    """SVG fragments for one plan with its footprint origin at (ox, oy) px."""
    s = style.scale
    fp = plan.footprint

    def px(p: Point | tuple[float, float]) -> tuple[float, float]:
        x, y = (p.x, p.y) if isinstance(p, Point) else p
        return (ox + (x - fp.x) * s, oy + (fp.y + fp.height - y) * s)

    def path_of(poly: RectilinearPolygon) -> str:
        parts = []
        for i, p in enumerate(poly.vertices):
            x, y = px(p)
            parts.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
        return " ".join(parts) + " Z"

    fills = dict(style.fills)
    out: list[str] = []
    for room in plan.rooms:
        fill = fills.get(room.kind.category, "#eeeeee")
        out.append(f'<path d="{path_of(room.polygon)}" fill="{fill}" stroke="none"/>')
    if plan.corridor is not None:
        out.append(
            f'<path d="{path_of(plan.corridor)}" fill="#f3dfae" stroke="none" opacity="0.85"/>'
        )
    for room in plan.rooms:
        out.append(
            f'<path d="{path_of(room.polygon)}" fill="none" stroke="{style.wall}" '
            f'stroke-width="{_fmt(style.wall_width)}" stroke-linejoin="miter"/>'
        )
    x0, y0 = px((fp.x, fp.y + fp.height))
    out.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(fp.width * s)}" '
        f'height="{_fmt(fp.height * s)}" fill="none" stroke="{style.wall}" '
        f'stroke-width="{_fmt(style.outline_width)}"/>'
    )

    for opening in plan.openings:
        wall = opening.wall
        _, lo_mm, hi_mm = opening.mm()
        if wall.horizontal:
            a = Point(_m(lo_mm), wall.a.y)
            b = Point(_m(hi_mm), wall.a.y)
        else:
            a = Point(wall.a.x, _m(lo_mm))
            b = Point(wall.a.x, _m(hi_mm))
        (ax, ay), (bx, by) = px(a), px(b)
        gap = max(style.wall_width, style.outline_width) + 2
        out.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{style.background}" stroke-width="{_fmt(gap)}"/>'
        )
        if opening.kind == WINDOW:
            dx, dy = (0.0, 2.0) if wall.horizontal else (2.0, 0.0)
            for sign in (-1, 1):
                out.append(
                    f'<line x1="{_fmt(ax + sign * dx)}" y1="{_fmt(ay + sign * dy)}" '
                    f'x2="{_fmt(bx + sign * dx)}" y2="{_fmt(by + sign * dy)}" '
                    f'stroke="{style.window_color}" stroke-width="1.5"/>'
                )
            continue
        color = style.entry_color if opening.kind == ENTRY_DOOR else style.door_color
        r = opening.width * s
        leaf = (ax, ay - r) if wall.horizontal else (ax + r, ay)
        out.append(
            f'<path d="M {_fmt(ax)} {_fmt(ay)} L {_fmt(leaf[0])} {_fmt(leaf[1])} '
            f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(bx)} {_fmt(by)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    if style.labels:
        for room in plan.rooms:
            cx, cy = px(_label_point(room.polygon))
            name = room.kind.value.replace("_", " ").capitalize()
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
                f'font-family="Helvetica, Arial, sans-serif" font-size="{_fmt(style.font_size)}" '
                f'fill="{style.label_color}">{name}'
                f'<tspan x="{_fmt(cx)}" dy="{_fmt(style.font_size + 1)}">'
                f"{room.area:.1f} m²</tspan></text>"
            )
    return out


def _svg_document(width: float, height: float, background: str, body: list[str]) -> str:
    """A standalone SVG of the given size: background rect, then ``body``."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="{background}"/>',
        *body,
        "</svg>",
    ]) + "\n"


def to_svg(plan: FloorPlan, style: SvgStyle | None = None) -> str:
    """Deterministic standalone SVG drawing of one plan."""
    style = style if style is not None else SvgStyle()
    width = plan.footprint.width * style.scale + 2 * style.margin
    height = plan.footprint.height * style.scale + 2 * style.margin
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
        scale = min(avail / plan.footprint.width, avail / plan.footprint.height)
        pw = plan.footprint.width * scale
        ph = plan.footprint.height * scale
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
