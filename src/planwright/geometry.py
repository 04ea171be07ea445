"""Axis-aligned geometry primitives on a 1 mm grid.

Two units, each in its own place.  The plan document's types - Point,
Segment, Rect and RectilinearPolygon's ``vertices`` - carry metres, as the
JSON, the SVG and the config give them; Point, Segment and polygon
constructors snap their inputs to the grid, and Rect keeps full float
precision because the treemap subdivides with it.  Everything the generator
computes on runs in integer millimetres: ``mm_box`` turns a treemap rect into
an ``(x0, y0, x1, y1)`` box once, polygons keep their vertices in mm as
``mm``, wall runs are ``(horizontal, line, lo, hi)`` tuples, and Region is a
cell set over an integer breakpoint grid whose areas are in square
millimetres.  Coordinate equality is exact ``==`` everywhere: adjacency,
vertex coincidence and boolean ops never need an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

GRID = 0.001

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
        _mm(snap(rect.x)),
        _mm(snap(rect.y)),
        _mm(snap(rect.x1)),
        _mm(snap(rect.y1)),
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
    millimetres; every check runs on it, and ``area`` is computed once.
    """

    __slots__ = ("vertices", "mm", "area")

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


class Region:
    """Set of axis-aligned cells over an integer-millimetre breakpoint grid.

    Backs the boolean operations: every op realigns both operands onto the
    union of their breakpoints and manipulates plain cell sets, so areas,
    unions and differences are exact.  Areas are in square millimetres.
    """

    __slots__ = ("xs", "ys", "cells")

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...], cells: frozenset[tuple[int, int]]):
        self.xs = xs
        self.ys = ys
        self.cells = cells

    @classmethod
    def empty(cls) -> "Region":
        return cls((), (), frozenset())

    @classmethod
    def from_rect(cls, rect: Rect) -> "Region":
        xs = (_mm(rect.x), _mm(rect.x1))
        ys = (_mm(rect.y), _mm(rect.y1))
        return cls(xs, ys, frozenset({(0, 0)}))

    @classmethod
    def from_boxes(cls, boxes: list[Box]) -> "Region":
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
    def from_polygon(cls, polygon: RectilinearPolygon) -> "Region":
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

    @property
    def is_empty(self) -> bool:
        return not self.cells

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

    def _common(self, other: "Region") -> tuple[tuple[int, ...], tuple[int, ...], frozenset, frozenset]:
        xs = tuple(sorted(set(self.xs) | set(other.xs)))
        ys = tuple(sorted(set(self.ys) | set(other.ys)))
        return xs, ys, self.realign(xs, ys), other.realign(xs, ys)

    def union(self, other: "Region") -> "Region":
        xs, ys, a, b = self._common(other)
        return Region(xs, ys, a | b)

    def subtract(self, other: "Region") -> "Region":
        xs, ys, a, b = self._common(other)
        return Region(xs, ys, a - b)

    def intersect(self, other: "Region") -> "Region":
        xs, ys, a, b = self._common(other)
        return Region(xs, ys, a & b)

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

    def _facing_borders(self) -> dict[tuple[str, int, int], list[tuple[int, int]]]:
        """Merged boundary runs keyed by (axis, line mm, facing sign)."""
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
        return {key: merge_runs(runs) for key, runs in raw.items()}

    def shared_walls(self, other: "Region") -> list[Run]:
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

    def shared_border_mm(self, other: "Region") -> int:
        """Longest straight wall run shared with a disjoint neighbour, in mm."""
        return max((hi - lo for _, _, lo, hi in self.shared_walls(other)), default=0)

    def _boundary_edges(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Directed boundary edges (interior on the left), keyed by start vertex.

        Vertices are in millimetres.
        """
        out: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j in self.cells:
            x0, x1 = self.xs[i], self.xs[i + 1]
            y0, y1 = self.ys[j], self.ys[j + 1]
            if (i, j - 1) not in self.cells:
                out.setdefault((x0, y0), []).append((x1, y0))
            if (i + 1, j) not in self.cells:
                out.setdefault((x1, y0), []).append((x1, y1))
            if (i, j + 1) not in self.cells:
                out.setdefault((x1, y1), []).append((x0, y1))
            if (i - 1, j) not in self.cells:
                out.setdefault((x0, y1), []).append((x0, y0))
        return out

    def to_polygon(self) -> RectilinearPolygon:
        """Trace the boundary into a single simple polygon.

        Raises ValueError when the region is empty, disconnected, has a hole,
        or pinches down to a corner contact.
        """
        if not self.cells:
            raise ValueError("empty region has no boundary")
        if not self.connected():
            raise ValueError("region is disconnected")
        edges = self._boundary_edges()
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

