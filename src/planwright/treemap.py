"""Squarified-treemap subdivision and two-phase room placement.

``squarify`` partitions a rectangle into one rect per requested area with no
gaps or overlaps, greedily keeping each rect as square as the row rule
allows.  ``layout_rooms`` applies it level by level to the hierarchy tree:
the footprint is split among the living room and its child subtrees by
aggregate area, then each subtree's allotment is split among the parent room
itself and its children, recursively.  A per-room check passed in sees each
room as it is placed, so a failing layout stops at its first failing room.

Both share one pass per level, ``_cuts``: it decides each row from the row's
running sum, smallest and largest area, so a level costs time linear in its
items, and returns the cuts as plain ``(x, y, width, height)`` floats.
``layout_rooms`` hands those floats straight to its check and lays out a
child level only when its walk reaches that child.  It builds no Rect and no
LayoutRequest: each level's area list is checked as a request would check
it, in the same order, so a layout fails where and how it did with one.

All arithmetic here stays at full float precision; the pipeline's check
snaps each cut onto the millimetre grid as it is placed.  Every cut
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

# A cell of a level as plain ``(x, y, width, height)`` floats.
Cut = tuple[float, float, float, float]


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
        _check_total(sum(area for _, area in self.items), self.container.area)


def _check_total(total: float, area: float) -> None:
    if abs(total - area) > AREA_TOLERANCE * area:
        raise LayoutError(f"item areas sum to {total!r}, container holds {area!r}")


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
    c = req.container
    cuts = _cuts((c.x, c.y, c.width, c.height), [req.items[i][1] for i in order])
    out: list[Rect | None] = [None] * len(order)
    for idx, cut in zip(order, cuts):
        out[idx] = Rect(*cut)
    return out  # type: ignore[return-value]


def _cuts(container: Cut, areas: list[float]) -> list[Cut]:
    """One ``(x, y, width, height)`` per area, in order, cut row by row in one pass."""
    cuts = []
    x0, y0, width, height = container
    x1, y1 = x0 + width, y0 + height
    n = len(areas)
    start = 0
    while start < n:
        # A row is laid along the shorter side (v) and grows across it (u):
        # a column at the left of a wide container, a row at the bottom of a
        # tall one.
        vertical = x1 - x0 >= y1 - y0
        u0, u1, v0, v1 = (x0, x1, y0, y1) if vertical else (y0, y1, x0, x1)
        side = v1 - v0
        if side <= 0:
            raise LayoutError("container side rounds to zero")
        # A row's worst aspect ratio comes from its running sum, smallest and
        # largest area: t2 / a and a / t2 peak at the extremes of the row.
        # It is worked out only once a longer row is weighed, so a lone last
        # item is never weighed; a row whose t2 underflows to zero cannot be.
        total = lo = hi = areas[start]
        worst = None
        end = start + 1
        while end < n:
            if worst is None:
                t = total / side
                t2 = t * t
                if not t2:
                    raise LayoutError("row thickness rounds to zero")
                worst = max(1.0, t2 / lo, hi / t2)
            a = areas[end]
            grown = total + a
            t = grown / side
            t2 = t * t
            glo, ghi = min(lo, a), max(hi, a)
            grown_worst = max(1.0, t2 / glo, ghi / t2)
            if not grown_worst <= worst:
                break
            total, lo, hi, worst = grown, glo, ghi, grown_worst
            end += 1
        thickness = total / side
        usplit = u1 if end == n else u0 + thickness
        v = v0
        for k in range(start, end):
            vnext = v1 if k == end - 1 else v + areas[k] / thickness
            du, dv = usplit - u0, vnext - v
            if du <= 0 or dv <= 0:
                # An area too small beside the others to move a float coordinate.
                raise LayoutError("rect side rounds to zero")
            cuts.append((u0, v, du, dv) if vertical else (v, u0, dv, du))
            v = vnext
        if vertical:
            x0 = usplit
        else:
            y0 = usplit
        start = end
    return cuts


def layout_rooms(footprint: Rect, tree: HierarchyNode, check: Callable | None = None) -> list:
    """Place every room of the (area-annotated) hierarchy inside the footprint.

    A parent room is the first, unsorted item of its own allotment so it
    stays adjacent to the edge it shares with the level above; child subtrees
    follow in decreasing aggregate area.

    ``check(room_id, kind, cut)`` sees each room as it is placed, with its
    ``(x, y, width, height)`` floats, and may raise.  The result lists what it
    returns, in placement order; without a check, each room's PlacedRoom.
    """
    if tree.kind is not RoomKind.OUTSIDE or len(tree.children) != 1:
        raise LayoutError("layout expects the Outside root with its living-room child")
    rooms: list = []
    _place(
        tree.children[0],
        (footprint.x, footprint.y, footprint.width, footprint.height),
        rooms,
        check or (lambda rid, kind, cut: PlacedRoom(rid, kind, Rect(*cut))),
    )
    return rooms


def _place(node: HierarchyNode, cut: Cut, rooms: list, check: Callable) -> None:
    if not node.children:
        rooms.append(check(node.room_id, node.kind, cut))
        return
    children = sorted(node.children, key=lambda c: (-c.aggregate_area, c.room_id))
    areas = [node.target_area, *[c.aggregate_area for c in children]]
    if not min(areas) > 0:  # also true when a NaN comes first
        for k, area in enumerate(areas):
            if area <= 0:
                item_id = children[k - 1].room_id if k else node.room_id
                raise LayoutError(f"item {item_id} has non-positive area {area!r}")
    _check_total(sum(areas), cut[2] * cut[3])
    # The level's cuts are all made before its first room is checked, so a
    # side lost to float precision anywhere in the level fails the layout first.
    cuts = _cuts(cut, areas)
    rooms.append(check(node.room_id, node.kind, cuts[0]))
    for child, child_cut in zip(children, cuts[1:]):
        _place(child, child_cut, rooms, check)
