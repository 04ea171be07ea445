"""Room hierarchy rules: who hangs under whom, and subtree-area bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.hierarchy import build_hierarchy
from planwright.sampling import RoomEntry, RoomKind

import oracles

K = RoomKind


def program_of(*kinds_areas):
    return tuple(RoomEntry(i, kind, float(area)) for i, (kind, area) in enumerate(kinds_areas))


def parents(*kinds_areas, kitchen_via_dining=False):
    return build_hierarchy(program_of(*kinds_areas), kitchen_via_dining=kitchen_via_dining)[1]


def test_minimal_house():
    levels, parent_of = build_hierarchy(program_of((K.LIVING_ROOM, 10)))
    assert levels == {0: (K.LIVING_ROOM, 10.0, [])}
    assert parent_of == {}


def test_missing_living_room_rejected():
    with pytest.raises(ValueError):
        build_hierarchy(program_of((K.KITCHEN, 8)))


def test_second_living_room_rejected():
    with pytest.raises(ValueError, match="^program must contain exactly one living room$"):
        build_hierarchy(program_of((K.LIVING_ROOM, 10), (K.KITCHEN, 8), (K.LIVING_ROOM, 12)))


def test_second_bathroom_under_largest_bedroom():
    parent_of = parents(
        (K.LIVING_ROOM, 9),
        (K.KITCHEN, 7),
        (K.MASTER_BEDROOM, 16),
        (K.BEDROOM, 10),
        (K.BATHROOM, 5),
        (K.BATHROOM, 4),
    )
    assert parent_of[4] == 0  # first bathroom stays social
    assert parent_of[5] == 2  # second goes under the 16 m2 bedroom


def test_bathrooms_spill_back_to_living_room():
    parent_of = parents(
        (K.LIVING_ROOM, 9),
        (K.MASTER_BEDROOM, 12),
        (K.BATHROOM, 5),
        (K.BATHROOM, 4),
        (K.BATHROOM, 3),
    )
    assert parent_of[2] == 0
    assert parent_of[3] == 1
    assert parent_of[4] == 0  # more bathrooms than bedrooms


def test_laundry_and_pantry_under_kitchen():
    levels, _ = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.KITCHEN, 8), (K.LAUNDRY, 4), (K.PANTRY, 3))
    )
    assert sorted(levels[child][0].value for child, _ in levels[1][2]) == ["laundry", "pantry"]
    assert levels[0][2] == [(1, 15.0)]


def test_master_label_follows_largest_area():
    # assign_functions marks the first bedroom as master, but a later bedroom
    # can draw the bigger area; the hierarchy moves the label (ties: lowest id).
    levels, _ = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.MASTER_BEDROOM, 9), (K.BEDROOM, 15))
    )
    assert levels[1][0] is K.BEDROOM
    assert levels[2][0] is K.MASTER_BEDROOM
    tie, _ = build_hierarchy(
        program_of((K.LIVING_ROOM, 9), (K.MASTER_BEDROOM, 12), (K.BEDROOM, 12))
    )
    assert tie[1][0] is K.MASTER_BEDROOM


def test_kitchen_via_dining_flag():
    rooms = ((K.LIVING_ROOM, 9), (K.KITCHEN, 8), (K.DINING_ROOM, 6))
    assert parents(*rooms)[1] == 0
    via = parents(*rooms, kitchen_via_dining=True)
    assert via[1] == 2
    assert via[2] == 0
    # without a dining room the flag cannot re-parent anything
    assert parents((K.LIVING_ROOM, 9), (K.KITCHEN, 8), kitchen_via_dining=True)[1] == 0


def test_storage_defaults_to_living_room():
    assert parents((K.LIVING_ROOM, 9), (K.STORAGE, 4))[1] == 0


def test_deterministic_rebuild():
    prog = program_of(
        (K.LIVING_ROOM, 9),
        (K.KITCHEN, 7),
        (K.MASTER_BEDROOM, 14),
        (K.BEDROOM, 11),
        (K.BATHROOM, 6),
        (K.LAUNDRY, 4),
    )
    (a, a_parents), (b, b_parents) = build_hierarchy(prog), build_hierarchy(prog)
    assert list(a.items()) == list(b.items())
    assert list(a_parents.items()) == list(b_parents.items())


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
    """Each room's parent, children and subtree areas are the reference tree's, floats exactly.

    A subtree area is its room's target plus its children's subtree areas in
    attach order; a sum in another order could differ in its last bit.  The
    programs reach kitchens missing beside service rooms and more bathrooms
    than bedrooms, which sampled programs seldom hold.
    """
    prog = program_of((K.LIVING_ROOM, 9.0), *extras)
    levels, parent_of = build_hierarchy(prog, kitchen_via_dining=via)
    assert sorted(levels) == [e.id for e in prog]
    assert list(levels)[-1] == 0 and sorted(parent_of) == [e.id for e in prog[1:]]
    expected = oracles.hierarchy_values(oracles.hierarchy_of(prog, kitchen_via_dining=via))
    assert (levels, parent_of) == expected
