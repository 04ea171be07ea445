"""Sampling layer: the seeded stream, census table, programs, footprints."""

from __future__ import annotations

import copy
import functools
import json
import math
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planwright
from planwright import sampling
from planwright.geometry import aspect_ratio
from planwright.hierarchy import build_hierarchy
from planwright.plan import GenerationError, generate
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

import oracles
from oracles import assign_program_oracle

PRIORITY = GenConfig().priority

# Joint tables that normalise to no positive cell: one with a NaN cell, and
# one whose two cells at 1e308 sum to infinity.
NAN_CELL_TABLE = [[float("nan"), 1.0] + [0.0] * 8] + [[0.0] * 10] * 4
OVERFLOWING_TABLE = [[1e308, 1e308] + [0.0] * 8] + [[0.0] * 10] * 4


def test_stream_is_platform_stable():
    rng = RandomStream(42)
    # Frozen SplitMix64 values; any drift here breaks every golden file.
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def splitmix64(seed: int, k: int) -> int:
    """Draw ``k`` of a stream: the SplitMix64 finalizer of ``seed + k * gamma``."""
    mask = (1 << 64) - 1
    z = (seed + k * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 7, 2**63 + 5, 2**64 - 1, -3])
def test_draws_are_the_splitmix64_formula(seed):
    """random and uniform spell out next_u64; they and randrange must equal the formula."""
    for index in (None, 0, 1, 27, 2**20):
        for start in (0, 1, 1000, 2**40, 2**64 - 3):
            rng = RandomStream(seed)
            if index is not None:
                rng = rng.substream(index)
            rng.counter = start
            for k in range(start + 1, start + 31):
                u = splitmix64(rng.seed, k)
                assert u == sampling._mix64(rng.seed + k * sampling._GAMMA)
                unit = (u >> 11) * 2.0**-53
                if k % 3 == 0:
                    assert rng.random() == unit
                elif k % 3 == 1:
                    assert rng.uniform(-2.5, 7.25) == -2.5 + 9.75 * unit
                else:
                    n = 1 + k % 1000
                    assert rng.randrange(n) == (u * n) >> 64
                assert rng.counter == k


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
    assert [e.kind for e in assign_functions(0, 1, PRIORITY)] == [RoomKind.LIVING_ROOM]
    got = [e.kind for e in assign_functions(2, 4, PRIORITY)]
    assert got == [
        RoomKind.LIVING_ROOM,
        RoomKind.MASTER_BEDROOM,
        RoomKind.BATHROOM,
        RoomKind.BEDROOM,
    ]
    ten = assign_functions(4, 10, PRIORITY)
    beds = [e for e in ten if e.kind in (RoomKind.MASTER_BEDROOM, RoomKind.BEDROOM)]
    assert len(beds) == 4
    assert sum(1 for e in ten if e.kind is RoomKind.MASTER_BEDROOM) == 1


def test_assign_functions_matches_oracle_exhaustively():
    pri = tuple(k.value for k in PRIORITY)
    for rooms in range(1, 6):
        for bedrooms in range(0, rooms):
            program = assign_functions(bedrooms, rooms, PRIORITY)
            got = [
                "bedroom" if e.kind is RoomKind.MASTER_BEDROOM else e.kind.value
                for e in program
            ]
            want = [
                "bedroom" if k == "master_bedroom" else k
                for k in assign_program_oracle(bedrooms, rooms, pri)
            ]
            assert got == want, (bedrooms, rooms)
            master = [e for e in program if e.kind is RoomKind.MASTER_BEDROOM]
            assert len(master) == (1 if bedrooms else 0)


def test_assign_functions_errors():
    with pytest.raises(ValueError):
        assign_functions(0, 0, PRIORITY)
    with pytest.raises(ValueError):
        assign_functions(3, 3, PRIORITY)


def test_assign_functions_retryable_when_list_runs_short():
    # The census table puts ~1e-4 mass on (1 bedroom, 10 rooms), which the
    # default list cannot staff; that must surface as a retryable draw, on
    # every call, since the memo keeps no errors.
    for _ in range(3):
        with pytest.raises(SamplingError, match="priority list too short for 10 rooms"):
            assign_functions(1, 10, PRIORITY)


def test_assign_functions_memo_shares_frozen_programs():
    first = assign_functions(2, 6, PRIORITY)
    again = assign_functions(2, 6, PRIORITY)
    assert again is first
    with pytest.raises(TypeError):
        again[0] = again[1]
    with pytest.raises(AttributeError):
        again[0].target_area = 5.0
    # Areas are drawn into a new program; the shared one keeps its zeros.
    sample_areas(again, RandomStream(1), GenConfig())
    assert all(e.target_area == 0.0 for e in assign_functions(2, 6, PRIORITY))
    dining_first = PRIORITY[:2] + (RoomKind.DINING_ROOM,) + PRIORITY[2:6] + PRIORITY[7:]
    assert [e.kind for e in assign_functions(2, 6, dining_first)] != [e.kind for e in first]
    maxsize = assign_functions.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0
    # The priority is part of the memo key, so a config given a list keeps a tuple.
    assert GenConfig(priority=list(PRIORITY)).priority == PRIORITY


def test_sample_areas_ranges_and_point_mass():
    cfg = GenConfig()
    rng = RandomStream(3)
    program = sample_areas(assign_functions(2, 6, PRIORITY), rng, cfg)
    for entry in program:
        lo, hi = (8, 18) if entry.kind in (RoomKind.MASTER_BEDROOM, RoomKind.BEDROOM) else (3, 11)
        assert lo <= entry.target_area <= hi
    fixed = GenConfig(areas={k: AreaDistribution(12, 12) for k in cfg.areas})
    program = sample_areas(assign_functions(1, 3, PRIORITY), RandomStream(4), fixed)
    assert all(e.target_area == 12.0 for e in program)


def test_derive_footprint_algebra():
    cfg = GenConfig(
        areas={k: AreaDistribution(8, 8) for k in GenConfig().areas},
        footprint_aspect=AreaDistribution(2, 2),
    )
    program = sample_areas(assign_functions(1, 4, PRIORITY), RandomStream(5), cfg)
    (x, y, width, height), adjusted = derive_footprint(program, RandomStream(6), cfg)
    assert (x, y) == (0.0, 0.0)
    assert width == pytest.approx(8.0, abs=2e-3)
    assert height == pytest.approx(4.0, abs=2e-3)
    assert width * height == pytest.approx(sum(e.target_area for e in adjusted), rel=1e-6)

    square = GenConfig(
        areas={k: AreaDistribution(6.25, 6.25) for k in GenConfig().areas},
        footprint_aspect=AreaDistribution(1, 1),
    )
    program = sample_areas(assign_functions(0, 4, PRIORITY), RandomStream(7), square)
    (_, _, width, height), _ = derive_footprint(program, RandomStream(8), square)
    assert width == pytest.approx(height)
    assert width == pytest.approx(5.0, abs=2e-3)


def test_derive_footprint_cap_missed_is_a_sampling_error():
    # Only a draw within 0.01 of the low end meets the cap, about one in
    # 1e22, so every draw misses: the attempt fails and generate retries
    # instead of crashing.
    cfg = GenConfig(footprint_aspect=AreaDistribution(1.99, 1e20), max_footprint_aspect=2.0)
    program = sample_areas(assign_functions(1, 4, PRIORITY), RandomStream(5), cfg)
    with pytest.raises(SamplingError):
        derive_footprint(program, RandomStream(6), cfg)


@pytest.mark.parametrize(
    "doc",
    [
        {"areas": {kind.value: {"constant": 1e-4} for kind in GenConfig().areas}},
        {"footprint_aspect": {"constant": 1e9}, "max_footprint_aspect": 1e9},
    ],
    ids=["every-area-snaps-to-zero", "height-snaps-to-zero"],
)
def test_derive_footprint_side_snapping_to_zero_is_a_sampling_error(doc):
    cfg = GenConfig.from_json(doc)
    program = sample_areas(assign_functions(1, 4, PRIORITY), RandomStream(5), cfg)
    with pytest.raises(SamplingError, match="snaps to 0 mm"):
        derive_footprint(program, RandomStream(6), cfg)
    with pytest.raises(GenerationError):
        generate(0, replace(cfg, max_attempts=2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_derive_footprint_aspect_within_bounds(seed):
    cfg = GenConfig()
    rng = RandomStream(seed)
    bedrooms, rooms = sample_counts(rng, cfg.joint_table)
    program = sample_areas(assign_functions(bedrooms, rooms, PRIORITY), rng, cfg)
    (_, _, width, height), adjusted = derive_footprint(program, rng, cfg)
    assert 1.0 <= aspect_ratio(width, height) <= cfg.max_footprint_aspect + 1e-9
    assert width * height == pytest.approx(sum(e.target_area for e in adjusted), rel=1e-6)


NEW_FRONT = SimpleNamespace(
    assign_functions=assign_functions,
    sample_areas=sample_areas,
    derive_footprint=derive_footprint,
    build_hierarchy=build_hierarchy,
)


def _front(stages, bedrooms, rooms, seed, cfg, via):
    """Each front stage's output, or the error that stopped them, and the stream counter.

    A program is compared as its bedroom and room counts and its entries, the
    footprint as its four floats and the hierarchy as ``(levels, parent_of)``.
    The first version's programs and Rect carry these as fields, and its
    hierarchy is a tree; the package's are a tuple of entries, a float tuple
    and the two dicts, so their counts are read off the entries and the tree
    is projected onto the dicts.
    """
    first = stages is oracles

    def program(p):
        if first:
            return p.bedrooms, p.rooms, [(e.id, e.kind, e.target_area) for e in p.entries]
        beds = sum(1 for e in p if e.kind in sampling.BEDROOM_KINDS)
        return beds, len(p), [(e.id, e.kind, e.target_area) for e in p]

    rng = RandomStream(seed)
    out = []
    try:
        drawn = stages.assign_functions(bedrooms, rooms, cfg.priority)
        out.append(program(drawn))
        drawn = stages.sample_areas(drawn, rng, cfg)
        out.append(program(drawn))
        footprint, drawn = stages.derive_footprint(drawn, rng, cfg)
        if first:
            footprint = (footprint.x, footprint.y, footprint.width, footprint.height)
        out += [footprint, program(drawn)]
        hierarchy = stages.build_hierarchy(drawn, kitchen_via_dining=via)
        if first:
            hierarchy = oracles.hierarchy_values(hierarchy)
        # Compared exactly: the floats, and the order of each level's children.
        out.append(hierarchy)
    except (ValueError, SamplingError) as exc:
        out.append((type(exc), str(exc)))
    return out, rng.counter


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.booleans(),
    st.sampled_from([GenConfig(), GenConfig(min_room_width=2.2)]),
)
def test_front_stage_matches_its_first_version(seed, bedrooms, rooms, via, cfg):
    # Counts outside the table's support reach the error paths too.
    assert _front(NEW_FRONT, bedrooms, rooms, seed, cfg, via) == _front(oracles, bedrooms, rooms, seed, cfg, via)


def test_config_fingerprint_tracks_content():
    assert GenConfig().fingerprint() == GenConfig().fingerprint()
    tweaked = GenConfig(door_width=0.8)
    assert tweaked.fingerprint() != GenConfig().fingerprint()
    # A variant built from a config whose fingerprint is cached gets its own.
    cfg = GenConfig()
    cfg.fingerprint()
    assert replace(cfg, door_width=0.8).fingerprint() == tweaked.fingerprint()
    assert replace(cfg, door_width=0.8).door_mm == 800


def test_config_is_frozen_after_its_checks():
    cfg = GenConfig()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    with pytest.raises(TypeError):
        cfg.areas[RoomKind.KITCHEN] = AreaDistribution(1.0, 1.0)  # type: ignore[index]
    # An assignment once let each of these past the checks; a variant cannot.
    for knobs in ({"door_width": 0.9004}, {"max_attempts": 0}, {"min_room_width": -1.0}):
        with pytest.raises(ConfigError):
            replace(cfg, **knobs)
    assert cfg == GenConfig()
    assert (cfg.corridor_mm, cfg.door_mm, cfg.window_mm, cfg.min_room_mm) == (1000, 900, 1200, 1800)
    # The read-only areas do not stop a config from being copied or pickled.
    for again in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert again == cfg and again.fingerprint() == cfg.fingerprint()


def test_equal_configs_hash_equal_and_key_a_cache():
    cfg = GenConfig(corridor_width=1.2)
    copies = [
        GenConfig(corridor_width=1.2),
        copy.deepcopy(cfg),
        pickle.loads(pickle.dumps(cfg)),
        replace(GenConfig(), corridor_width=1.2),
        GenConfig(corridor_width=1.2, areas=dict(reversed(list(cfg.areas.items())))),
        # Lists where the defaults hold tuples.
        GenConfig(
            corridor_width=1.2,
            priority=list(cfg.priority),
            optional_doors=[list(door) for door in cfg.optional_doors],
            window_banned=list(cfg.window_banned),
        ),
    ]
    for again in copies:
        assert again == cfg and hash(again) == hash(cfg)
    assert hash(JointCountTable.default()) == hash(JointCountTable.default())
    # Equal, though their fingerprints differ: the hash follows ==.
    four, four_float = GenConfig(max_room_aspect=4), GenConfig(max_room_aspect=4.0)
    assert four == four_float and four.fingerprint() != four_float.fingerprint()
    assert hash(four) == hash(four_float)
    # -0.0 is stored as 0.0, so these fingerprint alike too.
    zero, negative_zero = GenConfig(kitchen_via_dining_prob=0.0), GenConfig(kitchen_via_dining_prob=-0.0)
    assert zero == negative_zero and zero.fingerprint() == negative_zero.fingerprint()
    assert hash(zero) == hash(negative_zero)

    assert {cfg: "wide", GenConfig(): "default"}[copies[-1]] == "wide"
    calls = []

    @functools.lru_cache(maxsize=None)
    def width(c: GenConfig) -> int:
        calls.append(c)
        return c.corridor_mm

    assert [width(c) for c in (cfg, *copies, GenConfig())] == [1200] * 7 + [1000]
    assert calls == [cfg, GenConfig()]


def test_unordered_or_repeated_config_lists_are_refused():
    K = RoomKind
    banned, doors = GenConfig().window_banned, GenConfig().optional_doors
    for knobs in (
        {"window_banned": set(banned)},
        {"window_banned": frozenset(banned)},
        {"window_banned": dict.fromkeys(banned)},
        {"window_banned": dict.fromkeys(banned).keys()},
        {"optional_doors": set(doors)},
        {"priority": dict.fromkeys(PRIORITY)},
        {"priority": frozenset(PRIORITY)},
    ):
        with pytest.raises(ConfigError, match="must be a list"):
            GenConfig(**knobs)
    # A kind pair twice, in either order, and a banned kind twice.
    for twice in ((K.KITCHEN, K.DINING_ROOM, 0.5), (K.DINING_ROOM, K.KITCHEN, 0.2)):
        with pytest.raises(ConfigError, match=r"lists the pair \(\w+, \w+\) twice"):
            GenConfig(optional_doors=(*doors, twice))
    with pytest.raises(ConfigError, match="window_banned lists bathroom twice"):
        GenConfig(window_banned=(K.BATHROOM, K.KITCHEN, K.BATHROOM))
    # Lists and one-room pairs stay as they were.
    assert GenConfig(optional_doors=[*doors, (K.BEDROOM, K.BEDROOM, 0.5)]).optional_doors[-1][0] is K.BEDROOM
    assert GenConfig(window_banned=[K.KITCHEN, K.BATHROOM]).window_banned == (K.KITCHEN, K.BATHROOM)


def test_negative_zero_is_stored_as_zero():
    # A zero probability and a zero joint-table cell, each written as 0.0 and as -0.0.
    for path in (("kitchen_via_dining_prob",), ("optional_doors", 0, 2), ("joint_table", 0, 5)):
        configs = []
        for zero in (0.0, -0.0):
            doc = GenConfig().to_json()
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = zero
            configs.append(GenConfig.from_json(doc))
        plus, minus = configs
        assert minus == plus and minus.fingerprint() == plus.fingerprint()
        assert "-0.0" not in json.dumps(minus.to_json())
    assert math.copysign(1, GenConfig(kitchen_via_dining_prob=-0.0).kitchen_via_dining_prob) == 1
    # A zero written as an int stays one, so no fingerprint but a -0.0 one moves.
    assert type(GenConfig(kitchen_via_dining_prob=0).kitchen_via_dining_prob) is int
    assert GenConfig().fingerprint() == "aeaeba853cc33c38"


# Set-free configs, built the same way here and in the child interpreters below.
CONFIGS_SOURCE = """
from planwright.sampling import GenConfig, RoomKind as K
CONFIGS = [
    GenConfig(),
    GenConfig(min_room_width=2.2),
    GenConfig(window_banned=[K.KITCHEN, K.BATHROOM, K.STORAGE]),
    GenConfig(optional_doors=[
        (K.KITCHEN, K.DINING_ROOM, 0.5), (K.BATHROOM, K.BEDROOM, 0.25), (K.LIVING_ROOM, K.DINING_ROOM, 1.0),
    ]),
]
"""


def test_config_fingerprint_is_hash_seed_independent():
    scope: dict = {}
    exec(CONFIGS_SOURCE, scope)
    expected = [cfg.fingerprint() for cfg in scope["CONFIGS"]]
    assert expected[0] == "aeaeba853cc33c38"
    script = CONFIGS_SOURCE + "print(*(cfg.fingerprint() for cfg in CONFIGS))"
    # The child imports the same planwright this process does.
    package_root = str(Path(planwright.__file__).resolve().parents[1])
    for hash_seed in ("0", "1", "2", "3"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == expected


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


@pytest.mark.parametrize(
    "doc",
    [
        {"areas": None},
        {"areas": [1]},
        {"max_attempts": float("inf")},
        {"door_width": 0.9004},
        {"corridor_width": float("nan")},
        {"min_room_width": float("inf")},
        {"max_room_aspect": float("nan")},
        {"door_width": True},
        {"max_room_aspect": True},
        {"kitchen_via_dining_prob": True},
        {"optional_doors": [["kitchen", "dining_room", True]]},
        {"max_attempts": True},
        {"areas": {"kitchen": {"constant": True}}},
        {"areas": {}},
        {"window_banned": {"bathroom": 1}},
        {"areas": {"kitchen": {"constant": float("nan")}}},
        {"max_room_aspect": float("inf")},
        {"max_footprint_aspect": float("inf")},
        {"footprint_aspect": {"uniform": [1, float("inf")]}},
        {"max_attempts": 2.5},
        {"footprint_aspect": {"uniform": [2.5, 3.0]}, "max_footprint_aspect": 2.0},
        {"footprint_aspect": {"uniform": [2.0, 3.0]}, "max_footprint_aspect": 2.0},
        {"joint_table": NAN_CELL_TABLE},
        {"joint_table": OVERFLOWING_TABLE},
        {"door_width": 1e308},
        {"corridor_width": 1e308},
        {"window_width": 1e308},
        {"min_room_width": 1e308},
        {"areas": {"kitchen": {"constant": 1e308}}},
    ],
    ids=[
        "null-areas",
        "list-areas",
        "infinite-attempts",
        "off-grid-door",
        "nan-corridor",
        "infinite-width",
        "nan-aspect",
        "bool-length",
        "bool-aspect",
        "bool-probability",
        "bool-door-probability",
        "bool-attempts",
        "bool-area",
        "empty-areas",
        "object-window-banned",
        "nan-area",
        "infinite-room-aspect",
        "infinite-footprint-aspect",
        "infinite-footprint-aspect-bound",
        "fractional-attempts",
        "footprint-aspect-above-cap",
        "footprint-aspect-at-cap",
        "nan-joint-cell",
        "overflowing-joint-table",
        "huge-door",
        "huge-corridor",
        "huge-window",
        "huge-min-room-width",
        "huge-area",
    ],
)
def test_config_from_json_rejects_malformed_values(doc):
    with pytest.raises(ConfigError):
        GenConfig.from_json(doc)


def test_config_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"door_width": 0.8}))
    cfg = GenConfig.load(path)
    assert cfg.door_width == 0.8
    assert cfg.corridor_width == GenConfig().corridor_width
