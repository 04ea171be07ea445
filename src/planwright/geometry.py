"""Axis-aligned geometry primitives on a 1 mm grid.

Two units, each in its own place.  The plan document's types - Point,
Segment, Rect and RectilinearPolygon's ``vertices`` - carry metres, as the
JSON, the SVG and the config give them; Point, Segment and polygon
constructors snap their inputs to the grid, and Rect keeps full float
precision because the treemap subdivides with it.  Everything the generator
computes on runs in integer millimetres: ``mm_box`` turns a treemap rect into
an ``(x0, y0, x1, y1)`` box once, polygons keep their vertices in mm as
``mm`` and their area in mm² as ``area_mm2``, and wall runs are
``(horizontal, line, lo, hi)`` tuples.  An area is a mask on a Grid, the
breakpoint grid of a plan's boxes or polygons, with a bit per cell: the
corridor search, door and window placement, ``validate`` and the SVG label
all work on such masks, and ``Grid.outline`` turns one into a polygon.
Coordinate equality is exact ``==`` everywhere: adjacency, vertex
coincidence and boolean ops never need an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

GRID = 0.001
# Plan coordinates, config lengths and area bounds beyond this many metres
# (square metres for areas) are refused: it keeps their millimetre values, and
# the square-millimetre areas built from them, within float range.
MAX_COORD = 1e150
# Millimetre coordinates up to this many metres go to float metres and back
# exactly; the generator keeps its footprint within it.
MAX_EXACT = 1e12

# An (x0, y0, x1, y1) rectangle in mm.
Box = tuple[int, int, int, int]
# A wall run (horizontal, line, lo, hi) in mm: on the line y = line (or
# x = line when vertical), from lo to hi.
Run = tuple[bool, int, int, int]


def snap(value: float) -> float:
    """Round a coordinate to the 1 mm grid."""
    return round(value, 3)


def _mm(value: float) -> int:
    return round(value * 1000)


def _m(value: int) -> float:
    return value / 1000


def mm_box(rect: "Rect") -> Box:
    """The rect snapped to the grid as an (x0, y0, x1, y1) millimetre box."""
    return (
        round(round(rect.x, 3) * 1000),
        round(round(rect.y, 3) * 1000),
        round(round(rect.x + rect.width, 3) * 1000),
        round(round(rect.y + rect.height, 3) * 1000),
    )


@dataclass(frozen=True, order=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", snap(self.x))
        object.__setattr__(self, "y", snap(self.y))


@dataclass(frozen=True)
class Segment:
    """Axis-aligned segment with nonzero length, endpoints in sorted order."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"segment not axis-aligned: {self.a} -> {self.b}")
        if self.a == self.b:
            raise ValueError(f"zero-length segment at {self.a}")
        if self.b < self.a:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def line(self) -> float:
        """The fixed coordinate (y for horizontal segments, x for vertical)."""
        return self.a.y if self.horizontal else self.a.x

    @property
    def span(self) -> tuple[float, float]:
        """(lo, hi) of the varying coordinate."""
        if self.horizontal:
            return self.a.x, self.b.x
        return self.a.y, self.b.y


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in metres.

    Unlike Point, a Rect keeps its floats unsnapped: the treemap subdivides at
    full precision and the pipeline turns each rect into an ``mm_box`` once.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"rect sides must be positive: {self.width} x {self.height}")

    @property
    def x1(self) -> float:
        return self.x + self.width

    @property
    def y1(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


def aspect_ratio(width: float, height: float) -> float:
    """Longer side over shorter side; always >= 1."""
    return max(width / height, height / width)


class RectilinearPolygon:
    """Simple axis-aligned polygon, stored counter-clockwise.

    The vertex list is normalised on construction: collinear runs are merged,
    orientation is forced counter-clockwise and the cycle is rotated to start
    at the lexicographically smallest vertex, so equal polygons compare equal
    and serialise identically.  ``mm`` holds the same vertices in integer
    millimetres; every check runs on it.  The area is computed once, exactly
    in mm² as ``area_mm2`` and in m² as ``area``.
    """

    __slots__ = ("vertices", "mm", "area", "area_mm2")

    def __init__(self, vertices: Sequence[Point]) -> None:
        pts = list(vertices)  # Points sit on the grid already
        if len(pts) < 4:
            raise ValueError("rectilinear polygon needs at least 4 vertices")
        mm = [(round(p.x * 1000), round(p.y * 1000)) for p in pts]
        n = len(mm)
        # Drop each vertex that lies on a straight line with both neighbours.
        keep = []
        for i, (x, y) in enumerate(mm):
            (px, py), (nx, ny) = mm[i - 1], mm[(i + 1) % n]
            if not (px == x == nx or py == y == ny):
                keep.append(i)
        if len(keep) < 4:
            raise ValueError("degenerate polygon after merging collinear vertices")
        pts = [pts[i] for i in keep]
        mm = [mm[i] for i in keep]
        n = len(mm)
        twice_area = 0
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(mm, mm[1:] + mm[:1])):
            if x0 != x1 and y0 != y1:
                raise ValueError(f"edge not axis-aligned: {pts[i]} -> {pts[(i + 1) % n]}")
            if x0 == x1 and y0 == y1:
                raise ValueError(f"repeated vertex {pts[i]}")
            twice_area += x0 * y1 - x1 * y0
        if twice_area < 0:
            pts.reverse()
            mm.reverse()
            twice_area = -twice_area
        if twice_area == 0:
            raise ValueError("polygon area must be positive")
        if len(set(mm)) != n:
            raise ValueError("polygon repeats a vertex")
        # Edge bounding boxes; for axis-aligned edges, overlapping boxes
        # means touching edges, which only neighbours in the cycle may do.
        boxes = [
            (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
            for (x0, y0), (x1, y1) in zip(mm, mm[1:] + mm[:1])
        ]
        for i, (ax0, ax1, ay0, ay1) in enumerate(boxes):
            for bx0, bx1, by0, by1 in boxes[i + 2 : n if i else n - 1]:
                if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                    raise ValueError("polygon boundary self-intersects")
        start = mm.index(min(mm))
        self.vertices: tuple[Point, ...] = tuple(pts[start:] + pts[:start])
        self.mm: tuple[tuple[int, int], ...] = tuple(mm[start:] + mm[:start])
        self.area: float = twice_area / 2 / 1e6
        self.area_mm2: int = twice_area // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RectilinearPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"RectilinearPolygon({list(self.vertices)!r})"

    def edges_mm(self) -> Iterable[tuple[tuple[int, int], tuple[int, int]]]:
        """Consecutive vertex pairs in mm, closing edge included."""
        return zip(self.mm, self.mm[1:] + self.mm[:1])


def merge_runs(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted union of intervals on one line; touching intervals merge."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged




# The sides of a cell, in the order ``Grid._faces`` gives them: (horizontal,
# far), far being 0 for the bottom or left side and 1 for the top or right.
_SIDES = ((True, 0), (True, 1), (False, 0), (False, 1))


class Grid:
    """An integer breakpoint grid on which a region is one int with a bit per cell.

    The grid lines are the sides of the boxes and the vertex coordinates of
    the polygons it is built from.  Cell (i, j) spans ``xs[i]..xs[i + 1]`` by
    ``ys[j]..ys[j + 1]`` and is bit ``j * stride + i``.  The stride is the
    column count plus one: the spare guard column is never set, so a one-cell
    shift left or right lands there instead of wrapping into the next row.
    Each box's mask is built once.
    """

    __slots__ = ("xs", "ys", "stride", "full", "border", "_xi", "_yi", "_masks")

    def __init__(self, boxes: Iterable[Box], polygons: Iterable[RectilinearPolygon] = ()) -> None:
        xs: set[int] = set()
        ys: set[int] = set()
        for x0, y0, x1, y1 in boxes:
            xs.update((x0, x1))
            ys.update((y0, y1))
        for polygon in polygons:
            for x, y in polygon.mm:
                xs.add(x)
                ys.add(y)
        self.xs = tuple(sorted(xs))
        self.ys = tuple(sorted(ys))
        self._xi = {x: i for i, x in enumerate(self.xs)}
        self._yi = {y: j for j, y in enumerate(self.ys)}
        self._masks: dict[Box, int] = {}
        self.stride = len(self.xs)
        self.full = self.mask((self.xs[0], self.ys[0], self.xs[-1], self.ys[-1]))
        full, s = self.full, self.stride
        self.border = full & ~(full >> 1 & full << 1 & full >> s & full << s)

    def mask(self, box: Box) -> int:
        m = self._masks.get(box)
        if m is None:
            x0, y0, x1, y1 = box
            i0, j0, s = self._xi[x0], self._yi[y0], self.stride
            row = ((1 << (self._xi[x1] - i0)) - 1) << i0
            # The row times 1 + 2**s + 2**(2s) + ...: one copy per row of the box.
            m = row * (((1 << (s * (self._yi[y1] - j0))) - 1) // ((1 << s) - 1)) << (j0 * s)
            self._masks[box] = m
        return m

    def fill(self, polygon: RectilinearPolygon) -> int:
        """The cells inside a polygon whose vertices lie on the grid lines.

        A cell is inside when the vertical edges spanning its row at or left
        of it are odd in number, so each such edge flips the cells from its
        column rightward.
        """
        right, m = self.xs[-1], 0
        for (ax, ay), (bx, by) in polygon.edges_mm():
            if ax == bx:
                m ^= self.mask((ax, min(ay, by), right, max(ay, by)))
        return m

    def _flood(self, seen: int, within: int) -> int:
        """The cells of ``within`` that ``seen`` reaches through shared edges."""
        s = self.stride
        while True:
            grown = (seen | seen << 1 | seen >> 1 | seen << s | seen >> s) & within
            if grown == seen:
                return seen
            seen = grown

    def connected(self, m: int) -> bool:
        """True when nonempty and one piece."""
        return bool(m) and self._flood(m & -m, m) == m

    def pinch(self, m: int) -> bool:
        """True when two cells meet only at a corner."""
        s = self.stride
        return bool(m & ~(m >> 1) & (m >> (s + 1) & ~(m >> s) | m << (s - 1) & ~(m << s)))

    def hole(self, m: int) -> bool:
        """True when part of the complement is walled off inside the region."""
        if m.bit_count() < 8:
            # A hole needs a full ring of cells around a missing one.
            return False
        free = self.full & ~m
        return self._flood(free & self.border, free) != free

    def simple(self, m: int) -> bool:
        return not (self.pinch(m) or self.hole(m))

    def full_rect(self, m: int) -> tuple[int, int] | None:
        """(width, height) in mm when the cells tile one solid rectangle."""
        s = self.stride
        cols, rest = 0, m
        while rest:
            cols, rest = cols | rest, rest >> s
        cols &= (1 << s) - 1
        i0, i1 = (cols & -cols).bit_length() - 1, cols.bit_length() - 1
        j0, j1 = ((m & -m).bit_length() - 1) // s, (m.bit_length() - 1) // s
        if m.bit_count() != (i1 - i0 + 1) * (j1 - j0 + 1):
            return None
        return self.xs[i1 + 1] - self.xs[i0], self.ys[j1 + 1] - self.ys[j0]

    def thickness(self, m: int) -> int:
        """Width of the narrowest limb in mm: the shortest row or column run."""
        runs = self._sides(m, True, 0) + self._sides(m, False, 0)
        return min((hi - lo for _, _, lo, hi in runs), default=0)

    def shared_border(self, a: int, b: int) -> int:
        """Longest straight wall run between two disjoint regions, in mm."""
        return max((hi - lo for _, _, lo, hi in self.shared_walls(a, b)), default=0)

    def _faces(self, m: int) -> tuple[int, int, int, int]:
        """The cells of ``m`` with no cell of ``m`` below, above, left and right of them."""
        s = self.stride
        return m & ~(m << s), m & ~(m >> s), m & ~(m << 1), m & ~(m >> 1)

    def _sides(self, f: int, horizontal: bool, far: int) -> list[Run]:
        """Wall runs along one side of the cells of ``f``, merged where they touch.

        Horizontal runs follow the rows, on the cells' bottom (``far`` 0) or
        top side; vertical runs follow the columns, on their left or right side.
        """
        s, xs, ys = self.stride, self.xs, self.ys
        runs: list[Run] = []
        if horizontal:
            # Row runs never cross the guard column, so their ends pair up in order.
            starts, ends = f & ~(f << 1), f & ~(f >> 1)
            while starts:
                a, b = (starts & -starts).bit_length() - 1, (ends & -ends).bit_length() - 1
                starts &= starts - 1
                ends &= ends - 1
                runs.append((True, ys[a // s + far], xs[a % s], xs[b % s + 1]))
            return runs
        # Column runs interleave in bit order, so each column's open run is kept.
        starts, ends = f & ~(f << s), f & ~(f >> s)
        opened: dict[int, list[int]] = {}
        while starts:
            k = (starts & -starts).bit_length() - 1
            starts &= starts - 1
            opened.setdefault(k % s, []).append(k // s)
        while ends:
            k = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            runs.append((False, xs[k % s + far], ys[opened[k % s].pop(0)], ys[k // s + 1]))
        return runs

    def shared_walls(self, a: int, b: int) -> list[Run]:
        """Maximal wall runs where a cell of ``a`` alone meets a cell of ``b`` alone.

        Runs on one line merge where they touch, and the list comes back
        sorted for deterministic downstream iteration.
        """
        s = self.stride
        a, b = a & ~b, b & ~a
        down = self._sides(a & b >> 1 | b & a >> 1, False, 1)
        along = self._sides(a & b >> s | b & a >> s, True, 1)
        return sorted(down + along)

    def exterior_walls(self, m: int, box: Box) -> list[Run]:
        """The boundary runs of ``m`` on the box's sides, facing out of the box.

        Bottom runs come first, then top, left and right ones.
        """
        runs: list[Run] = []
        for f, g, (horizontal, far) in zip(self._faces(m), self._faces(self.mask(box)), _SIDES):
            if f & g:
                runs += self._sides(f & g, horizontal, far)
        return runs

    def outline(self, m: int) -> RectilinearPolygon:
        """Trace the boundary of ``m`` into a single simple polygon.

        Raises ValueError when the region is empty, disconnected, has a hole,
        or pinches down to a corner contact.
        """
        # Each boundary run, directed with the interior on its left: bottom
        # and right sides run up the axis, top and left ones down it.
        edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for f, (horizontal, far) in zip(self._faces(m), _SIDES):
            for _, line, lo, hi in self._sides(f, horizontal, far):
                a, b = ((lo, line), (hi, line)) if horizontal else ((line, lo), (line, hi))
                if horizontal == far:
                    a, b = b, a
                edges.setdefault(a, []).append(b)
        try:
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
        except ValueError:
            # One loop through every run encloses one piece, so only a walk
            # that fails needs the pieces counted.
            if not m:
                raise ValueError("empty region has no boundary") from None
            if not self.connected(m):
                raise ValueError("region is disconnected") from None
            raise
        return RectilinearPolygon(tuple(Point(_m(x), _m(y)) for x, y in loop))


def _bits(m: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low
