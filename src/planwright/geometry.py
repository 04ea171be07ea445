"""Axis-aligned geometry on a 1 mm grid.

One unit from the treemap's snap onwards: integer millimetres.  Only the
footprint and the treemap work in metres, on unsnapped ``(x, y, width,
height)`` float tuples (``Cut``), and ``mm_box`` snaps each cut to an
``(x0, y0, x1, y1)`` box once.  Polygons hold their vertices as int pairs in
``mm`` and their area in mm² as ``area_mm2``, and wall runs are
``(horizontal, line, lo, hi)`` tuples.  Metres return only at
the plan's edges - its JSON, its SVG, the CLI report and the config - where
``_m`` writes a length exactly as the snapped float it stands for.  An area
is a mask on a Grid, the breakpoint grid of a plan's boxes or polygons, with
a bit per cell: the corridor search, door and window placement,
``validate`` and the SVG label all work on such masks, and ``Grid.outline``
turns one into a polygon.  Coordinate equality is exact ``==`` everywhere:
adjacency, vertex coincidence and boolean ops never need an epsilon.
"""

from __future__ import annotations

from typing import Iterable, Sequence

GRID = 0.001
# Config lengths and area bounds beyond this many metres (square metres for
# areas) are refused: it keeps their millimetre values, and the
# square-millimetre areas built from them, within float range.
MAX_COORD = 1e150
# Millimetre coordinates up to this many metres go to float metres and back
# exactly: for an int k with |k| <= MAX_EXACT * 1000, k / 1000 is the float
# round(k / 1000, 3) gives, and its repr reads back as itself.  The generator
# keeps its footprint within it, and a plan document's lengths must lie within it.
MAX_EXACT = 1e12

# An (x0, y0, x1, y1) rectangle in mm.
Box = tuple[int, int, int, int]
# An (x, y, width, height) rectangle in metres, kept unsnapped: the footprint
# and the treemap's cells.
Cut = tuple[float, float, float, float]
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


def mm_box(cut: Cut) -> Box:
    """An (x, y, width, height) cut in metres snapped to an (x0, y0, x1, y1) mm box."""
    x, y, w, h = cut
    return (
        round(round(x, 3) * 1000),
        round(round(y, 3) * 1000),
        round(round(x + w, 3) * 1000),
        round(round(y + h, 3) * 1000),
    )


def aspect_ratio(width: float, height: float) -> float:
    """Longer side over shorter side; always >= 1."""
    return max(width / height, height / width)


class RectilinearPolygon:
    """Simple axis-aligned polygon on integer millimetre vertices, stored counter-clockwise.

    The vertex list is normalised on construction: collinear runs are merged,
    orientation is forced counter-clockwise and the cycle is rotated to start
    at the lexicographically smallest vertex, so equal polygons compare equal
    and serialise identically.  The area is computed once, exactly, in mm².
    """

    __slots__ = ("mm", "area_mm2")

    def __init__(self, vertices: Sequence[tuple[int, int]]) -> None:
        mm = list(vertices)
        if len(mm) < 4:
            raise ValueError("rectilinear polygon needs at least 4 vertices")
        # Drop each vertex that lies on a straight line with both neighbours.
        mm = [
            v
            for (px, py), v, (nx, ny) in zip(mm[-1:] + mm[:-1], mm, mm[1:] + mm[:1])
            if not (px == v[0] == nx or py == v[1] == ny)
        ]
        n = len(mm)
        if n < 4:
            raise ValueError("degenerate polygon after merging collinear vertices")
        twice_area = 0
        for (x0, y0), (x1, y1) in zip(mm, mm[1:] + mm[:1]):
            if x0 != x1 and y0 != y1:
                raise ValueError(f"edge not axis-aligned: ({x0}, {y0}) -> ({x1}, {y1}) mm")
            if x0 == x1 and y0 == y1:
                raise ValueError(f"repeated vertex ({x0}, {y0}) mm")
            twice_area += x0 * y1 - x1 * y0
        if twice_area < 0:
            mm.reverse()
            twice_area = -twice_area
        if twice_area == 0:
            raise ValueError("polygon area must be positive")
        if len(set(mm)) != n:
            raise ValueError("polygon repeats a vertex")
        # Edge bounding boxes; for axis-aligned edges, overlapping boxes
        # means touching edges, which only neighbours in the cycle may do.
        # Four vertices that pass the checks above are a rectangle's corners,
        # and a rectangle's boundary cannot cross itself.
        boxes = [
            (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
            for (x0, y0), (x1, y1) in zip(mm, mm[1:] + mm[:1])
        ] if n > 4 else []
        for i, (ax0, ax1, ay0, ay1) in enumerate(boxes):
            for bx0, bx1, by0, by1 in boxes[i + 2 : n if i else n - 1]:
                if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                    raise ValueError("polygon boundary self-intersects")
        start = mm.index(min(mm))
        self.mm: tuple[tuple[int, int], ...] = tuple(mm[start:] + mm[:start])
        self.area_mm2: int = twice_area // 2

    @classmethod
    def _normal(cls, mm: list[tuple[int, int]]) -> RectilinearPolygon:
        """The polygon of a vertex loop already in the constructor's normal form, unchecked.

        The loop must be simple, counter-clockwise, free of collinear vertices
        and start at its least vertex; only the area is computed.
        """
        poly = cls.__new__(cls)
        poly.mm = tuple(mm)
        poly.area_mm2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(mm, mm[1:] + mm[:1])) // 2
        return poly

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RectilinearPolygon) and self.mm == other.mm

    def __hash__(self) -> int:
        return hash(self.mm)

    def __repr__(self) -> str:
        return f"RectilinearPolygon({list(self.mm)!r})"

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
    """

    __slots__ = ("xs", "ys", "stride", "full", "border", "_xi", "_yi", "_outside")

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
        self.stride = len(self.xs)
        self.full = self.mask((self.xs[0], self.ys[0], self.xs[-1], self.ys[-1]))
        full, s = self.full, self.stride
        self.border = full & ~(full >> 1 & full << 1 & full >> s & full << s)
        # The last box exterior_walls was asked about, with its mask's faces.
        self._outside: tuple = (None, ())

    def mask(self, box: Box) -> int:
        x0, y0, x1, y1 = box
        i0, j0, s = self._xi[x0], self._yi[y0], self.stride
        row = ((1 << (self._xi[x1] - i0)) - 1) << i0
        # The row times 1 + 2**s + 2**(2s) + ...: one copy per row of the box.
        return row * (((1 << (s * (self._yi[y1] - j0))) - 1) // ((1 << s) - 1)) << (j0 * s)

    def fill(self, polygon: RectilinearPolygon) -> int:
        """The cells inside a polygon whose vertices lie on the grid lines.

        A cell is inside when the vertical edges spanning its row at or left
        of it are odd in number, so each such edge flips the cells from its
        column rightward.  A rectangle is the box from its least vertex to
        the opposite one.
        """
        if len(polygon.mm) == 4:
            (x0, y0), _, (x1, y1), _ = polygon.mm
            return self.mask((x0, y0, x1, y1))
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
        return max((hi - lo for _, _, lo, hi in self._shared_runs(a, b)), default=0)

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
        return sorted(self._shared_runs(a, b))

    def _shared_runs(self, a: int, b: int) -> list[Run]:
        """``shared_walls`` unsorted: the vertical runs, then the horizontal ones."""
        s = self.stride
        a, b = a & ~b, b & ~a
        return self._sides(a & b >> 1 | b & a >> 1, False, 1) + self._sides(a & b >> s | b & a >> s, True, 1)

    def exterior_walls(self, m: int, box: Box) -> list[Run]:
        """The boundary runs of ``m`` on the box's sides, facing out of the box.

        Bottom runs come first, then top, left and right ones.  The grid
        keeps the faces of the last box it was asked about, so the many calls
        a plan makes with its footprint compute the footprint's faces once.
        """
        if self._outside[0] != box:
            self._outside = (box, self._faces(self.mask(box)))
        runs: list[Run] = []
        for f, g, (horizontal, far) in zip(self._faces(m), self._outside[1], _SIDES):
            if f & g:
                runs += self._sides(f & g, horizontal, far)
        return runs

    def outline(self, m: int) -> RectilinearPolygon:
        """Trace the boundary of ``m`` into a single simple polygon.

        Raises ValueError when the region is empty, disconnected, has a hole,
        or pinches down to a corner contact.  A loop walked to the end is
        already in normal form: its runs keep the interior on their left, so
        it runs counter-clockwise; runs along one side merge where they touch,
        so no vertex is collinear; each vertex has one outgoing run, so it is
        simple; and the walk starts at the least vertex.
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
        return RectilinearPolygon._normal(loop)
