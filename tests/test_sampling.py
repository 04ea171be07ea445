"""Sampling layer: the seeded stream, census table, programs, footprints."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.geometry import aspect_ratio
from planwright.sampling import (
    AreaDistribution,
    ConfigError,
    GenConfig,
    JointCountTable,
    RandomStream,
    RoomKind,
    SamplingError,
    assign_functions,
    derive_footprint,
    sample_areas,
    sample_counts,
)

from oracles import assign_program_oracle

PRIORITY = GenConfig().priority


def test_stream_is_platform_stable():
    rng = RandomStream(42)
    # Frozen SplitMix64 values; any drift here breaks every golden file.
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_stream_reproducible_and_counter_based():
    a = RandomStream(7)
    burned = [a.random() for _ in range(5)]
    b = RandomStream(7)
    assert burned == [b.random() for _ in range(5)]
    assert RandomStream(7).substream(3).random() == RandomStream(7).substream(3).random()
    assert RandomStream(7).substream(3).random() != RandomStream(7).substream(4).random()


def test_stream_ranges():
    rng = RandomStream(1)
    for _ in range(1000):
        assert 0.0 <= rng.random() < 1.0
    assert {RandomStream(5).randrange(3) for _ in range(1)} <= {0, 1, 2}
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_joint_table_normalizes_and_masks():
    table = JointCountTable.default()
    assert sum(sum(row) for row in table.rows) == pytest.approx(1.0)
    for bedrooms in range(5):
        for rooms in range(1, 11):
            if bedrooms >= rooms:
                assert table.probability(bedrooms, rooms) == 0.0
    assert table.probability(3, 6) == pytest.approx(0.10599, abs=1e-4)


def test_joint_table_rejects_impossible_mass():
    rows = [[0.0] * 10 for _ in range(5)]
    rows[2][1] = 1.0  # 2 bedrooms in a 2-room house
    with pytest.raises(ConfigError):
        JointCountTable(rows)
    with pytest.raises(ConfigError):
        JointCountTable([[0.0] * 10 for _ in range(5)])


def test_sample_counts_degenerate_cell():
    rows = [[0.0] * 10 for _ in range(5)]
    rows[3][5] = 0.7  # any positive mass; normalization rescales
    table = JointCountTable(rows)
    rng = RandomStream(11)
    assert all(sample_counts(rng, table) == (3, 6) for _ in range(50))


def test_sample_counts_never_draws_zero_cells():
    table = JointCountTable.default()
    rng = RandomStream(2)
    for _ in range(2000):
        bedrooms, rooms = sample_counts(rng, table)
        assert table.probability(bedrooms, rooms) > 0


def test_assign_functions_fixed_cases():
    assert [e.kind for e in assign_functions(0, 1, PRIORITY).entries] == [RoomKind.LIVING_ROOM]
    got = [e.kind for e in assign_functions(2, 4, PRIORITY).entries]
    assert got == [
        RoomKind.LIVING_ROOM,
        RoomKind.MASTER_BEDROOM,
        RoomKind.BATHROOM,
        RoomKind.BEDROOM,
    ]
    ten = assign_functions(4, 10, PRIORITY)
    beds = [e for e in ten.entries if e.kind in (RoomKind.MASTER_BEDROOM, RoomKind.BEDROOM)]
    assert len(beds) == 4
    assert sum(1 for e in ten.entries if e.kind is RoomKind.MASTER_BEDROOM) == 1


def test_assign_functions_matches_oracle_exhaustively():
    pri = tuple(k.value for k in PRIORITY)
    for rooms in range(1, 6):
        for bedrooms in range(0, rooms):
            program = assign_functions(bedrooms, rooms, PRIORITY)
            got = [
                "bedroom" if e.kind is RoomKind.MASTER_BEDROOM else e.kind.value
                for e in program.entries
            ]
            want = [
                "bedroom" if k == "master_bedroom" else k
                for k in assign_program_oracle(bedrooms, rooms, pri)
            ]
            assert got == want, (bedrooms, rooms)
            master = [e for e in program.entries if e.kind is RoomKind.MASTER_BEDROOM]
            assert len(master) == (1 if bedrooms else 0)


def test_assign_functions_errors():
    with pytest.raises(ValueError):
        assign_functions(0, 0, PRIORITY)
    with pytest.raises(ValueError):
        assign_functions(3, 3, PRIORITY)


def test_assign_functions_retryable_when_list_runs_short():
    # The census table puts ~1e-4 mass on (1 bedroom, 10 rooms), which the
    # default list cannot staff; that must surface as a retryable draw.
    with pytest.raises(SamplingError):
        assign_functions(1, 10, PRIORITY)


def test_sample_areas_ranges_and_point_mass():
    cfg = GenConfig()
    rng = RandomStream(3)
    program = sample_areas(assign_functions(2, 6, PRIORITY), rng, cfg)
    for entry in program.entries:
        lo, hi = (8, 18) if entry.kind in (RoomKind.MASTER_BEDROOM, RoomKind.BEDROOM) else (3, 11)
        assert lo <= entry.target_area <= hi
    fixed = GenConfig(areas={k: AreaDistribution(12, 12) for k in cfg.areas})
    program = sample_areas(assign_functions(1, 3, PRIORITY), RandomStream(4), fixed)
    assert all(e.target_area == 12.0 for e in program.entries)


def test_derive_footprint_algebra():
    cfg = GenConfig(
        areas={k: AreaDistribution(8, 8) for k in GenConfig().areas},
        footprint_aspect=AreaDistribution(2, 2),
    )
    program = sample_areas(assign_functions(1, 4, PRIORITY), RandomStream(5), cfg)
    footprint, adjusted = derive_footprint(program, RandomStream(6), cfg)
    assert footprint.width == pytest.approx(8.0, abs=2e-3)
    assert footprint.height == pytest.approx(4.0, abs=2e-3)
    assert footprint.area == pytest.approx(sum(e.target_area for e in adjusted.entries), rel=1e-6)

    square = GenConfig(
        areas={k: AreaDistribution(6.25, 6.25) for k in GenConfig().areas},
        footprint_aspect=AreaDistribution(1, 1),
    )
    program = sample_areas(assign_functions(0, 4, PRIORITY), RandomStream(7), square)
    footprint, _ = derive_footprint(program, RandomStream(8), square)
    assert footprint.width == pytest.approx(footprint.height)
    assert footprint.width == pytest.approx(5.0, abs=2e-3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_derive_footprint_aspect_within_bounds(seed):
    cfg = GenConfig()
    rng = RandomStream(seed)
    bedrooms, rooms = sample_counts(rng, cfg.joint_table)
    program = sample_areas(assign_functions(bedrooms, rooms, PRIORITY), rng, cfg)
    footprint, adjusted = derive_footprint(program, rng, cfg)
    assert 1.0 <= aspect_ratio(footprint.width, footprint.height) <= cfg.max_footprint_aspect + 1e-9
    assert footprint.area == pytest.approx(
        sum(e.target_area for e in adjusted.entries), rel=1e-6
    )


def test_config_fingerprint_tracks_content():
    assert GenConfig().fingerprint() == GenConfig().fingerprint()
    tweaked = GenConfig(door_width=0.8)
    assert tweaked.fingerprint() != GenConfig().fingerprint()


def test_config_json_round_trip():
    cfg = GenConfig(corridor_width=1.2, kitchen_via_dining_prob=0.25)
    again = GenConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again.fingerprint() == cfg.fingerprint()


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        GenConfig(door_width=0.0)
    with pytest.raises(ConfigError):
        GenConfig(priority=(RoomKind.LIVING_ROOM, RoomKind.OUTSIDE))
    with pytest.raises(ConfigError):
        GenConfig(max_attempts=0)
    with pytest.raises(ConfigError):
        AreaDistribution(5, 4)
    with pytest.raises(ConfigError):
        GenConfig.from_json({"door_width": 0.9, "no_such_knob": 1})


def test_config_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"door_width": 0.8}))
    cfg = GenConfig.load(path)
    assert cfg.door_width == 0.8
    assert cfg.corridor_width == GenConfig().corridor_width
