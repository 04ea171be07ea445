"""Squarified-treemap subdivision and two-phase room placement.

``squarify`` partitions a rectangle into one rect per requested area with no
gaps or overlaps, greedily keeping each rect as square as the row rule
allows.  ``layout_rooms`` applies it level by level to the hierarchy tree:
the footprint is split among the living room and its child subtrees by
aggregate area, then each subtree's allotment is split among the parent room
itself and its children, recursively.  A per-room check passed in sees each
room as it is placed, so a failing layout stops at its first failing room.

All arithmetic here stays at full float precision; the pipeline's check
snaps each rect onto the millimetre grid as it is placed.  Every cut
coordinate is computed once and shared by the rects on both sides, so the
partition is exact by construction (the last rect of each row is pinned to
the container edge rather than accumulated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import Rect
from .hierarchy import HierarchyNode
from .sampling import RoomKind

AREA_TOLERANCE = 1e-6


class LayoutError(RuntimeError):
    """A layout request that cannot be satisfied."""


@dataclass(frozen=True)
class LayoutRequest:
    container: Rect
    items: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise LayoutError("layout request with no items")
        for item_id, area in self.items:
            if area <= 0:
                raise LayoutError(f"item {item_id} has non-positive area {area!r}")
        total = sum(area for _, area in self.items)
        if abs(total - self.container.area) > AREA_TOLERANCE * self.container.area:
            raise LayoutError(
                f"item areas sum to {total!r}, container holds {self.container.area!r}"
            )


@dataclass(frozen=True)
class PlacedRoom:
    id: int
    kind: RoomKind
    rect: Rect


def squarify(req: LayoutRequest, *, keep_order: bool = False) -> list[Rect]:
    """Partition the container; result is parallel to ``req.items``.

    Areas are laid out largest first in greedy rows along the shorter side of
    the remaining container; a row closes when appending the next area would
    worsen the row's worst aspect ratio.  With ``keep_order`` the items are
    taken in the order given instead of sorted (the room layout uses this to
    pin a parent room at its allotment's origin corner).
    """
    order = list(range(len(req.items)))
    if not keep_order:
        order.sort(key=lambda i: (-req.items[i][1], i))
    areas = [req.items[i][1] for i in order]
    cells = _fill(req.container, areas)
    out: list[Rect | None] = [None] * len(order)
    for pos, idx in enumerate(order):
        out[idx] = cells[pos]
    return out  # type: ignore[return-value]


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


def layout_rooms(footprint: Rect, tree: HierarchyNode, check: Callable | None = None) -> list:
    """Place every room of the (area-annotated) hierarchy inside the footprint.

    A parent room is the first, unsorted item of its own allotment so it
    stays adjacent to the edge it shares with the level above; child subtrees
    follow in decreasing aggregate area.

    The result lists each PlacedRoom in placement order, or what ``check``
    returns for it; ``check`` sees each room as it is placed and may raise.
    """
    if tree.kind is not RoomKind.OUTSIDE or len(tree.children) != 1:
        raise LayoutError("layout expects the Outside root with its living-room child")
    rooms: list = []
    _place(tree.children[0], footprint, rooms, check or (lambda room: room))
    return rooms


def _place(node: HierarchyNode, rect: Rect, rooms: list, check: Callable) -> None:
    if not node.children:
        rooms.append(check(PlacedRoom(node.room_id, node.kind, rect)))
        return
    children = sorted(node.children, key=lambda c: (-c.aggregate_area, c.room_id))
    items = [(node.room_id, node.target_area)]
    items += [(child.room_id, child.aggregate_area) for child in children]
    cells = squarify(LayoutRequest(rect, tuple(items)), keep_order=True)
    rooms.append(check(PlacedRoom(node.room_id, node.kind, cells[0])))
    for child, cell in zip(children, cells[1:]):
        _place(child, cell, rooms, check)
