"""Squarified-treemap subdivision and two-phase room placement.

``squarify`` partitions a rectangle into one cell per requested area with no
gaps or overlaps, greedily keeping each cell as square as the row rule
allows.  ``layout_rooms`` applies it level by level to the levels
``build_hierarchy`` returns: the footprint is split among the living room
and its child subtrees by subtree area, then each subtree's allotment is
split among the parent room itself and its children, recursively.  A
per-room check passed in sees each room as it is placed, so a failing
layout stops at its first failing room.

Rectangles here are plain ``(x, y, width, height)`` float tuples (``Cut``),
in and out.  Both functions check a level with ``_check_level`` (it has
items, every area is positive, and the areas fill the container) and cut it
with ``_cuts``, one pass that decides each row from the row's running sum,
smallest and largest area, so a level costs time linear in its items.
``layout_rooms`` hands each room's cut straight to its check and lays out a
child level only when its walk reaches that child.

All arithmetic here stays at full float precision; the pipeline's check
snaps each cut onto the millimetre grid as it is placed.  Every cut
coordinate is computed once and shared by the cells on both sides, so the
partition is exact by construction (the last cell of each row is pinned to
the container edge rather than accumulated).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .geometry import Cut

AREA_TOLERANCE = 1e-6


class LayoutError(RuntimeError):
    """A layout request that cannot be satisfied."""


def _check_level(container: Cut, ids: Sequence[int], areas: list[float]) -> None:
    """The rule a level meets before it is cut, naming a bad area by its item id."""
    if not areas:
        raise LayoutError("layout request with no items")
    total, area = sum(areas), container[2] * container[3]
    # min() passes over a NaN that does not come first; the sum does not.
    # Written as negations, both tests also refuse a NaN (a NaN container too).
    if not (min(areas) > 0 and total == total):
        for item_id, item_area in zip(ids, areas):
            if not item_area > 0:
                raise LayoutError(f"item {item_id} has non-positive area {item_area!r}")
    if not abs(total - area) <= AREA_TOLERANCE * area:
        raise LayoutError(f"item areas sum to {total!r}, container holds {area!r}")


def squarify(
    container: Cut, items: Sequence[tuple[int, float]], *, keep_order: bool = False
) -> list[Cut]:
    """Partition the container among ``(id, area)`` items; the cells parallel ``items``.

    Areas are laid out largest first in greedy rows along the shorter side of
    the remaining container; a row closes when appending the next area would
    worsen the row's worst aspect ratio.  With ``keep_order`` the items are
    taken in the order given instead of sorted (the room layout uses this to
    pin a parent room at its allotment's origin corner).
    """
    areas = [area for _, area in items]
    _check_level(container, [item_id for item_id, _ in items], areas)
    order = list(range(len(areas)))
    if not keep_order:
        order.sort(key=lambda i: (-areas[i], i))
    out: list = [None] * len(order)
    for i, cut in zip(order, _cuts(container, [areas[i] for i in order])):
        out[i] = cut
    return out


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


def layout_rooms(footprint: Cut, levels: dict, check: Callable) -> list:
    """Place every room of the hierarchy's ``levels`` inside the footprint.

    ``levels`` maps each room to ``(kind, target_area, children)``, with
    ``(child_id, subtree_area)`` children and the living room's entry last,
    as ``build_hierarchy`` returns it.  A parent room is the first, unsorted
    item of its own allotment so it stays adjacent to the edge it shares with
    the level above; child subtrees follow in decreasing subtree area.

    ``check(room_id, kind, cut)`` sees each room as it is placed, with its
    ``(x, y, width, height)`` floats, and may raise.  The result lists what it
    returns, in placement order.
    """
    living = next(reversed(levels))
    _, area, children = levels[living]
    if not children:
        # A lone room is no level's item, so it is held to the footprint here.
        _check_level(footprint, [living], [area])
    rooms: list = []
    _place(levels, living, footprint, rooms, check)
    return rooms


def _place(levels: dict, room_id: int, cut: Cut, rooms: list, check: Callable) -> None:
    kind, area, children = levels[room_id]
    if not children:
        rooms.append(check(room_id, kind, cut))
        return
    children = sorted(children, key=lambda c: (-c[1], c[0]))
    areas = [area, *[child_area for _, child_area in children]]
    _check_level(cut, [room_id, *[child_id for child_id, _ in children]], areas)
    # The level's cuts are all made before its first room is checked, so a
    # side lost to float precision anywhere in the level fails the layout first.
    cuts = _cuts(cut, areas)
    rooms.append(check(room_id, kind, cuts[0]))
    for (child_id, _), child_cut in zip(children, cuts[1:]):
        _place(levels, child_id, child_cut, rooms, check)
