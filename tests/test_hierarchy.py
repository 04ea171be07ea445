"""Room hierarchy rules: who hangs under whom, and aggregate bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.hierarchy import OUTSIDE_ID, aggregate_areas, build_hierarchy
from planwright.sampling import RoomEntry, RoomKind

K = RoomKind


def program_of(*kinds_areas):
    return tuple(RoomEntry(i, kind, float(area)) for i, (kind, area) in enumerate(kinds_areas))


def children_of(node, kind):
    return [c for c in node.children if c.kind is kind]


def find(root, room_id):
    for node in root.walk():
        if node.room_id == room_id:
            return node
    raise KeyError(room_id)


def parent_map(root):
    out = {}

    def visit(node):
        for child in node.children:
            out[child.room_id] = node.room_id
            visit(child)

    visit(root)
    return out


def test_minimal_house():
    root = build_hierarchy(program_of((K.LIVING_ROOM, 10)))
    assert root.kind is K.OUTSIDE and root.room_id == OUTSIDE_ID
    assert [c.kind for c in root.children] == [K.LIVING_ROOM]
    assert root.children[0].children == []
    assert root.aggregate_area == pytest.approx(10)


def test_missing_living_room_rejected():
    with pytest.raises(ValueError):
        build_hierarchy(program_of((K.KITCHEN, 8)))


def test_second_living_room_rejected():
    with pytest.raises(ValueError, match="^program must contain exactly one living room$"):
        build_hierarchy(program_of((K.LIVING_ROOM, 10), (K.KITCHEN, 8), (K.LIVING_ROOM, 12)))


def test_second_bathroom_under_largest_bedroom():
    root = build_hierarchy(
        program_of(
            (K.LIVING_ROOM, 9),
            (K.KITCHEN, 7),
            (K.MASTER_BEDROOM, 16),
            (K.BEDROOM, 10),
            (K.BATHROOM, 5),
            (K.BATHROOM, 4),
        )
    )
    parents = parent_map(root)
    living = root.children[0]
    assert parents[4] == living.room_id  # first bathroom stays social
    assert parents[5] == 2  # second goes under the 16 m2 bedroom


def test_bathrooms_spill_back_to_living_room():
    root = build_hierarchy(
        program_of(
            (K.LIVING_ROOM, 9),
            (K.MASTER_BEDROOM, 12),
            (K.BATHROOM, 5),
            (K.BATHROOM, 4),
            (K.BATHROOM, 3),
        )
    )
    parents = parent_map(root)
    living = root.children[0]
    assert parents[2] == living.room_id
    assert parents[3] == 1
    assert parents[4] == living.room_id  # more bathrooms than bedrooms


def test_laundry_and_pantry_under_kitchen():
    root = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.KITCHEN, 8), (K.LAUNDRY, 4), (K.PANTRY, 3))
    )
    kitchen = find(root, 1)
    assert sorted(c.kind.value for c in kitchen.children) == ["laundry", "pantry"]
    assert kitchen.aggregate_area == pytest.approx(15)


def test_master_label_follows_largest_area():
    # assign_functions marks the first bedroom as master, but a later bedroom
    # can draw the bigger area; the tree moves the label (ties: lowest id).
    root = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.MASTER_BEDROOM, 9), (K.BEDROOM, 15))
    )
    assert find(root, 1).kind is K.BEDROOM
    assert find(root, 2).kind is K.MASTER_BEDROOM
    tie = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.MASTER_BEDROOM, 12), (K.BEDROOM, 12))
    )
    assert find(tie, 1).kind is K.MASTER_BEDROOM


def test_kitchen_via_dining_flag():
    prog = program_of((K.LIVING_ROOM, 9), (K.KITCHEN, 8), (K.DINING_ROOM, 6))
    direct = build_hierarchy(prog)
    assert parent_map(direct)[1] == 0
    via = build_hierarchy(prog, kitchen_via_dining=True)
    assert parent_map(via)[1] == 2
    assert parent_map(via)[2] == 0
    # without a dining room the flag cannot re-parent anything
    lone = build_hierarchy(program_of((K.LIVING_ROOM, 9), (K.KITCHEN, 8)), kitchen_via_dining=True)
    assert parent_map(lone)[1] == 0


def test_storage_defaults_to_living_room():
    root = build_hierarchy(program_of((K.LIVING_ROOM, 9), (K.STORAGE, 4)))
    assert parent_map(root)[1] == 0


def test_deterministic_rebuild():
    prog = program_of(
        (K.LIVING_ROOM, 9),
        (K.KITCHEN, 7),
        (K.MASTER_BEDROOM, 14),
        (K.BEDROOM, 11),
        (K.BATHROOM, 6),
        (K.LAUNDRY, 4),
    )
    a = build_hierarchy(prog)
    b = build_hierarchy(prog)
    assert [(n.room_id, n.kind) for n in a.walk()] == [(n.room_id, n.kind) for n in b.walk()]


KINDS = [K.KITCHEN, K.DINING_ROOM, K.MASTER_BEDROOM, K.BEDROOM, K.BATHROOM, K.LAUNDRY, K.PANTRY, K.STORAGE]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.floats(min_value=3, max_value=18)),
        max_size=9,
    ),
    st.booleans(),
)
def test_every_entry_appears_once_with_correct_aggregates(extras, via):
    prog = program_of((K.LIVING_ROOM, 9.0), *extras)
    root = build_hierarchy(prog, kitchen_via_dining=via)
    nodes = list(root.walk())
    assert sorted(n.room_id for n in nodes) == sorted([OUTSIDE_ID] + [e.id for e in prog])
    assert root.children[0].kind is K.LIVING_ROOM and len(root.children) == 1
    total = sum(e.target_area for e in prog)
    assert root.aggregate_area == pytest.approx(total)
    for node in nodes:
        assert node.aggregate_area == pytest.approx(
            node.target_area + sum(c.aggregate_area for c in node.children)
        )


def test_aggregate_areas_recomputes():
    root = build_hierarchy(program_of((K.LIVING_ROOM, 9), (K.KITCHEN, 8), (K.PANTRY, 3)))
    find(root, 2).target_area = 5.0
    aggregate_areas(root)
    assert find(root, 1).aggregate_area == pytest.approx(13)
    assert root.aggregate_area == pytest.approx(22)
