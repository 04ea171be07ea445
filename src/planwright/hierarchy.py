"""Room hierarchy assembly.

Turns a flat room program, a tuple of ``RoomEntry``, into the tree that
drives both placement grouping and door connectivity: Outside at the root,
the living room as its only child, and every other room attached under the
room it should be reached from.  A program without exactly one living room
is the one program ``build_hierarchy`` refuses.  The rule engine is
deterministic; the one random choice in this stage (kitchen under dining
room instead of directly under the living room) is drawn by the caller and
passed in as a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from .sampling import RoomEntry, RoomKind

OUTSIDE_ID = -1


@dataclass(slots=True)
class HierarchyNode:
    room_id: int
    kind: RoomKind
    target_area: float
    children: list["HierarchyNode"] = field(default_factory=list)
    aggregate_area: float = 0.0

    def walk(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal, children in insertion order."""
        yield self
        for child in self.children:
            yield from child.walk()


# Each kind's rule group, in the order build_hierarchy unpacks them; kinds
# without a rule of their own make up group 6.
_GROUP = {
    RoomKind.LIVING_ROOM: 0, RoomKind.DINING_ROOM: 1, RoomKind.KITCHEN: 2, RoomKind.MASTER_BEDROOM: 3,
    RoomKind.BEDROOM: 3, RoomKind.BATHROOM: 4, RoomKind.LAUNDRY: 5, RoomKind.PANTRY: 5,
}


def build_hierarchy(program: tuple[RoomEntry, ...], *, kitchen_via_dining: bool = False) -> HierarchyNode:
    """Attach every program entry under its rule-given parent.

    Rules, applied in order: the living room hangs off the Outside root;
    dining room, kitchen (unless ``kitchen_via_dining`` and a dining room
    exists), all bedrooms, the first bathroom and any kind without a rule of
    its own go under the living room; the largest bedroom becomes the master
    bedroom (ties break to the lowest id); bathrooms past the first go under
    bedrooms, largest bedroom first, spilling back to the living room if the
    bedrooms run out; laundry and pantry go under the kitchen when there is
    one.
    """
    groups = ([], [], [], [], [], [], [])
    for room_id, kind, area in sorted(program, key=attrgetter("id")):
        groups[_GROUP.get(kind, 6)].append(HierarchyNode(room_id, kind, area))
    living, dining, kitchens, bedrooms, bathrooms, service, rest = groups
    if len(living) != 1:
        raise ValueError("program must contain exactly one living room")
    lr = living[0]

    by_size = sorted(bedrooms, key=lambda n: (-n.target_area, n.room_id))
    for node in by_size:
        node.kind = RoomKind.MASTER_BEDROOM if node is by_size[0] else RoomKind.BEDROOM
    if kitchens:
        kitchens[0].children += service
    elif service:
        # Without a kitchen they join the rooms that have no rule, in id order.
        rest = sorted(rest + service, key=attrgetter("room_id"))
    for bedroom, bath in zip(by_size, bathrooms[1:]):
        bedroom.children.append(bath)
    if kitchen_via_dining and dining:
        dining[0].children += kitchens
        kitchens = []
    # The first bathroom, and any past one per bedroom, stay under the living room.
    lr.children += dining + kitchens + bedrooms + bathrooms[:1] + bathrooms[len(by_size) + 1:] + rest
    return aggregate_areas(HierarchyNode(OUTSIDE_ID, RoomKind.OUTSIDE, 0.0, [lr]))


def aggregate_areas(root: HierarchyNode) -> HierarchyNode:
    """Fill every node's aggregate_area with its subtree's total target area."""
    total = root.target_area
    for child in root.children:
        total += aggregate_areas(child).aggregate_area
    root.aggregate_area = total
    return root
