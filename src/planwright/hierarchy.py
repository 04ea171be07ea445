"""Room hierarchy assembly.

Turns a flat room program, a tuple of ``RoomEntry``, into the hierarchy that
drives both placement grouping and door connectivity, as two plain values:
each room's level (kind, target area, and children with their subtree areas)
and each room's parent.  The living room is reached from outside and every
other room hangs under the room it should be reached from.  A program without
exactly one living room is the one program ``build_hierarchy`` refuses.  The
rule engine is deterministic; the one random choice in this stage (kitchen
under dining room instead of under the living room) is drawn by the caller
and passed in as a flag.
"""

from __future__ import annotations

from operator import attrgetter

from .sampling import RoomEntry, RoomKind

# Each kind's rule group, in the order build_hierarchy unpacks them; kinds
# without a rule of their own make up group 6.
_GROUP = {
    RoomKind.LIVING_ROOM: 0, RoomKind.DINING_ROOM: 1, RoomKind.KITCHEN: 2, RoomKind.MASTER_BEDROOM: 3,
    RoomKind.BEDROOM: 3, RoomKind.BATHROOM: 4, RoomKind.LAUNDRY: 5, RoomKind.PANTRY: 5,
}


def build_hierarchy(program: tuple[RoomEntry, ...], *, kitchen_via_dining: bool = False) -> tuple[dict, dict]:
    """Attach every program entry under its rule-given parent; return ``(levels, parent_of)``.

    ``levels[room_id]`` is ``(kind, target_area, children)`` for every room,
    the living room's entry last.  ``children`` lists ``(child_id,
    subtree_area)`` in the order the children were attached, and a subtree
    area is the room's own target plus its children's subtree areas, added
    in that order.  ``parent_of`` maps every room but the living room to its
    parent.

    Rules, applied in order: dining room, kitchen (unless
    ``kitchen_via_dining`` and a dining room exists), all bedrooms, the first
    bathroom and any kind without a rule of its own go under the living room;
    the largest bedroom becomes the master bedroom (ties break to the lowest
    id); bathrooms past the first go under bedrooms, largest bedroom first,
    spilling back to the living room if the bedrooms run out; laundry and
    pantry go under the kitchen when there is one.
    """
    groups = ([], [], [], [], [], [], [])
    for entry in sorted(program, key=attrgetter("id")):
        groups[_GROUP.get(entry.kind, 6)].append(entry)
    living, dining, kitchens, bedrooms, bathrooms, service, rest = groups
    if len(living) != 1:
        raise ValueError("program must contain exactly one living room")
    levels, parent_of = {}, {}
    if kitchens:
        served = _attach(levels, parent_of, *kitchens[0], _leaves(levels, service))
        kitchens = [served, *_leaves(levels, kitchens[1:])]
    elif service:
        # Without a kitchen they join the rooms that have no rule, in id order.
        rest = sorted(rest + service, key=attrgetter("id"))
    baths = _leaves(levels, bathrooms)
    by_size = sorted(bedrooms, key=lambda e: (-e.target_area, e.id))
    beds = []
    for entry in bedrooms:
        rank = by_size.index(entry)
        kind = RoomKind.BEDROOM if rank else RoomKind.MASTER_BEDROOM
        beds.append(_attach(levels, parent_of, entry.id, kind, entry.target_area, baths[rank + 1 : rank + 2]))
    if kitchen_via_dining and dining:
        dining = [_attach(levels, parent_of, *dining[0], kitchens), *_leaves(levels, dining[1:])]
        kitchens = []
    else:
        dining = _leaves(levels, dining)
    # The first bathroom, and any past one per bedroom, stay under the living room.
    baths = baths[:1] + baths[len(by_size) + 1 :]
    _attach(levels, parent_of, *living[0], dining + kitchens + beds + baths + _leaves(levels, rest))
    return levels, parent_of


# Module functions, not closures: two closures made per call cost build_hierarchy a tenth of its time.
def _attach(levels: dict, parent_of: dict, room_id: int, kind: RoomKind, area: float, children: list) -> tuple:
    """Record the room with its children; return its ``(id, subtree area)``."""
    total = area
    for child_id, child_area in children:
        total += child_area
        parent_of[child_id] = room_id
    levels[room_id] = (kind, area, children)
    return room_id, total


def _leaves(levels: dict, entries: list) -> list:
    """Record rooms without children; return their ``(id, subtree area)`` pairs."""
    pairs = []
    for room_id, kind, area in entries:
        levels[room_id] = (kind, area, [])
        pairs.append((room_id, area))
    return pairs
