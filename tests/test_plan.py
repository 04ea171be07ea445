"""End-to-end generation, the JSON document format, and SVG rendering.

Seed 1's plan is frozen under tests/data/ as the golden document: any change
to sampling order, placement, serialization or rounding shows up as a byte
diff there.  The parser tests feed corrupted documents and pin the error
paths, since the CLI surfaces those messages verbatim.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planwright
import planwright.plan
from planwright.geometry import MAX_EXACT, Grid, RectilinearPolygon, mm_box
from planwright.openings import Opening, validate
from planwright.plan import (
    SCHEMA_VERSION,
    FloorPlan,
    GenerationError,
    PlanParseError,
    SvgStyle,
    _area_floor,
    _attempt,
    _label_point,
    from_json,
    gallery_svg,
    generate,
    to_json,
    to_svg,
)
from planwright.sampling import GenConfig, RandomStream, RoomKind
from planwright.treemap import LayoutError

import oracles
from oracles import plan_json

DATA = Path(__file__).parent / "data"

# Scanned once: seed 2 needs no corridor, seed 3 does, seed 5 exhausts its
# attempt budget under the default config.
PLAIN_SEED = 2
CORRIDOR_SEED = 3
HOPELESS_SEED = 5
# Attempts the room-area floor stops over min_room_width=2.2 seeds 0-199.
STRICT_STOPPED_0_199 = 3079


@pytest.fixture(scope="module")
def plain_plan() -> FloorPlan:
    return generate(PLAIN_SEED)


@pytest.fixture(scope="module")
def corridor_plan() -> FloorPlan:
    return generate(CORRIDOR_SEED)


# --------------------------------------------------------------- generation


# The API the package root exports; stage functions stay in their modules.
ROOT_API = [
    "ConfigError", "FloorPlan", "GenConfig", "GenerationError", "PlanParseError", "Room",
    "RoomKind", "SvgStyle", "ValidationReport", "from_json", "gallery_svg", "generate",
    "to_json", "to_svg", "validate",
]


def test_package_root_exports_only_the_documented_api():
    assert sorted(planwright.__all__) == ROOT_API
    for name in ROOT_API:
        assert getattr(planwright, name) is not None
    assert isinstance(planwright.__version__, str)
    for name in ("route", "build_wall_graph", "squarify", "Grid", "RandomStream", "Opening", "layout_rooms"):
        assert not hasattr(planwright, name), name
    # The README's library example.
    from planwright import GenConfig, generate, to_json, to_svg  # noqa: F401


# Defined under src/planwright but called only by the tests: entry points
# kept for callers of the stage modules.
TEST_ONLY_ENTRY_POINTS = [
    "sampling.JointCountTable.probability",
    "sampling.RandomStream.randrange",
    "treemap.squarify",
]


def _definitions(package: Path) -> tuple[list[tuple[str, str]], set[str], set[str]]:
    """``(name, qualname)`` of every function and class, the names read, and ``__all__``.

    A name counts as read where it is a name or an attribute outside its own
    body, so a helper that only calls itself is not read.
    """
    defined, named, exported = [], set(), set()

    def visit(node, enclosing: tuple[str, ...], qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((child.name, f"{qualname}.{child.name}"))
                visit(child, (*enclosing, child.name), f"{qualname}.{child.name}")
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name not in enclosing:
                named.add(name)
            visit(child, enclosing, qualname)

    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                exported.update(ast.literal_eval(node.value))
        visit(tree, (), path.stem)
    return defined, named, exported


def _dunder(name: str) -> bool:
    # Called by the language; never a helper.
    return name.startswith("__") and name.endswith("__")


def test_every_helper_is_called_by_the_package():
    """A helper nothing in the package calls is deleted, unless the tests use it as an entry point."""
    defined, named, exported = _definitions(Path(planwright.__file__).parent)
    unreferenced = sorted(
        qualname for name, qualname in defined if name not in named | exported and not _dunder(name)
    )
    assert unreferenced == TEST_ONLY_ENTRY_POINTS


# Names defined more than once.  The test above counts a definition as called
# when any code reads its name, so a second helper under a name in use is
# invisible to it; pinning the set makes each new one visible.
SHARED_NAMES = {
    "_length": ["corridor._length", "plan._length"],
    "_list": ["plan._list", "sampling._list"],
    "_number": ["plan._number", "sampling._number"],
    "_pair": ["openings._pair", "plan._pair"],
    "_place": ["openings._place", "treemap._place"],
    "from_json": ["plan.from_json", "sampling.AreaDistribution.from_json", "sampling.GenConfig.from_json"],
    "sort_key": ["corridor.CorridorCandidate.sort_key", "corridor.EdgeAction.sort_key"],
    "to_json": [
        "corridor.EdgeAction.to_json",
        "plan.to_json",
        "sampling.AreaDistribution.to_json",
        "sampling.GenConfig.to_json",
    ],
}


def test_names_defined_more_than_once_are_pinned():
    defined, _, _ = _definitions(Path(planwright.__file__).parent)
    by_name: dict[str, list[str]] = {}
    for name, qualname in defined:
        if not _dunder(name):
            by_name.setdefault(name, []).append(qualname)
    assert {name: sorted(q) for name, q in by_name.items() if len(q) > 1} == SHARED_NAMES


def test_generate_deterministic(plain_plan):
    again = generate(PLAIN_SEED)
    assert again == plain_plan
    assert to_json(again) == to_json(plain_plan)


def test_generate_matches_golden_document():
    golden = (DATA / "plan-seed1.json").read_text()
    assert to_json(generate(1)) == golden


@pytest.mark.parametrize(
    "knobs, digest",
    [
        ({}, "d961fd1fb555e9c7213222064ff1d18d1f3e84db1092b45bf8f10115643fd012"),
        (
            {"min_room_width": 2.2},
            "369e5df5676cf3ea553d464f16acdb6bade62590793d4cdf1ac900c5b8105da6",
        ),
    ],
)
def test_plan_bytes_pinned_over_seed_range(knobs, digest):
    # The golden document has no corridor; this digest covers the corridor,
    # door and window paths, and the give-up messages, over 100 seeds.
    cfg = GenConfig(**knobs)
    h = hashlib.sha256()
    for seed in range(100):
        try:
            plan = generate(seed, cfg)
        except GenerationError as exc:
            h.update(str(exc).encode())
        else:
            h.update(to_json(plan).encode())
            h.update(to_svg(plan).encode())
    assert h.hexdigest() == digest


def test_byte_contract_pinned_over_1600_seeds():
    # The whole byte contract: default seeds 0-999, then min_room_width=2.2
    # seeds 0-599, run together.  The JSON digest takes each plan's document
    # or, for a seed that gives up, its message and rejection tally; the SVG
    # digest takes only the drawings.
    h_json, h_svg = hashlib.sha256(), hashlib.sha256()
    for cfg, seeds in ((GenConfig(), 1000), (GenConfig(min_room_width=2.2), 600)):
        for seed in range(seeds):
            try:
                plan = generate(seed, cfg)
            except GenerationError as exc:
                h_json.update((str(exc) + repr(exc.rejections)).encode())
            else:
                h_json.update(to_json(plan).encode())
                h_svg.update(to_svg(plan).encode())
    assert h_json.hexdigest() == "1b81f7abdc3bfe7c0c2bd0a1de52e45c0d1f75fe72db8830aad7e04c5b8c7d54"
    assert h_svg.hexdigest() == "bd3e2b1a7bcf6111529d1fd80f5b8e21ee43f6375a16ebf0e602c6427aa1ccec"


_BATH_DOORS = GenConfig().optional_doors + (
    (RoomKind.BATHROOM, RoomKind.BEDROOM, 0.5),
    (RoomKind.BATHROOM, RoomKind.MASTER_BEDROOM, 0.5),
)


@pytest.mark.parametrize(
    "knobs, digest",
    [
        (
            {"corridor_width": 1.2},
            "9c5f1e0bf2d1c687cfe8805628bc3d384b5aac198766d7825042c8b8f6d8a0e5",
        ),
        (
            {"kitchen_via_dining_prob": 0.0},
            "bc9af62945240a46b2349ca6982ad9c670bb8df7da9d3a4119f32858c2befb2c",
        ),
        (
            {"kitchen_via_dining_prob": 1.0},
            "059df6a4bd8799ba150587a16c6d97a98303f3138c4c18929123a6472fce1366",
        ),
        (
            {"optional_doors": _BATH_DOORS},
            "2be601f74396f3937d15ee2d57ed5327af02800434077b46587aa8868d4c65a4",
        ),
        ({"window_banned": ()}, "5593a1b0928f1970d2710d682fcfe413064903e45bbd32958d982493adee06c3"),
        (
            {"max_room_aspect": 3.0},
            "075379cfc63edc2eb7a982e7319a68ff110e0fc838abbbf5a74738c815500f4d",
        ),
    ],
)
def test_byte_contract_pinned_over_config_variants(knobs, digest):
    # Configs whose lengths, probabilities and bans the two pinned configs
    # never vary.  Seeds 0-199 give each 117-125 corridor plans and 25-32
    # give-ups; the digest is taken as in the 1,600-seed contract.
    cfg = GenConfig(**knobs)
    h = hashlib.sha256()
    for seed in range(200):
        try:
            plan = generate(seed, cfg)
        except GenerationError as exc:
            h.update((str(exc) + repr(exc.rejections)).encode())
        else:
            h.update(to_json(plan).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "knobs, digest",
    [
        ({}, "cc9ae24506131e7988104c09057190a0616e6d86d6024ac1dc3cf7e41d9b08ed"),
        (
            {"min_room_width": 2.2},
            "a6549ced3b866fb92152deda3c84a27a985b3575dfa8db9e66495ea6f241b729",
        ),
    ],
)
def test_corridor_trace_pinned_over_seed_range(knobs, digest):
    # The corridor trace (`generate --trace`, `bench --trace`, AC-5)
    # is not part of the plan bytes; this pins every number in it: candidate
    # actions, areas and lengths, the winner, the path and the routing.
    cfg = GenConfig(**knobs)
    h = hashlib.sha256()
    for seed in range(100):
        try:
            plan = generate(seed, cfg, trace=True)
        except GenerationError as exc:
            h.update(str(exc).encode())
        else:
            h.update(json.dumps(plan.trace, sort_keys=True).encode())
    assert h.hexdigest() == digest


def test_generated_plans_self_validate(plain_plan, corridor_plan):
    assert validate(plain_plan, GenConfig()).ok
    assert validate(corridor_plan, GenConfig()).ok
    assert plain_plan.corridor is None
    assert corridor_plan.corridor is not None
    assert corridor_plan.corridor_candidates > 0


def test_generate_counts_attempts(plain_plan):
    assert plain_plan.attempts >= 1
    assert plain_plan.seed == PLAIN_SEED
    assert plain_plan.config_fingerprint == GenConfig().fingerprint()


def test_generate_raises_after_budget():
    with pytest.raises(GenerationError) as err:
        generate(HOPELESS_SEED)
    assert f"seed {HOPELESS_SEED}" in str(err.value)
    assert str(GenConfig().max_attempts) in str(err.value)


def test_generation_error_tallies_rejections_by_stage():
    # Under the strict width seed 3 gives up: 30 attempts die at the room
    # width check and 2 find no corridor; the message stays as it was.
    with pytest.raises(GenerationError) as err:
        generate(3, GenConfig(min_room_width=2.2))
    assert err.value.rejections == {"sampling": 0, "layout": 30, "corridor": 2, "openings": 0}
    assert str(err.value) == "seed 3: no valid plan in 32 attempts (last: no valid corridor candidate)"


@pytest.mark.parametrize(
    "knobs, digest",
    [
        ({}, "3b0e08b1357a011d5a26a6b02365031ce3a37871c6ebf68e29d2b1d2fa39d148"),
        (
            {"min_room_width": 2.2},
            "d4438c1bd406c34f4859627634ee1ceede0e1cc17e8c47210f985ef47e5503f1",
        ),
    ],
)
def test_rejection_tallies_pinned_over_seed_range(knobs, digest):
    # The message digest above sees only the last attempt of a seed that
    # gives up; this pins the stage every one of its failed attempts is
    # tallied under, so an attempt moved from one stage to another shows.
    cfg = GenConfig(**knobs)
    h = hashlib.sha256()
    for seed in range(100):
        try:
            generate(seed, cfg)
        except GenerationError as exc:
            h.update(f"{seed} {exc.rejections!r}\n".encode())
    assert h.hexdigest() == digest


@settings(max_examples=400, deadline=None)
@given(
    min_mm=st.integers(1, 5000),
    x=st.integers(0, 10**6),
    y=st.integers(0, 10**6),
    fx=st.floats(-0.5, 0.5),
    fy=st.floats(-0.5, 0.5),
    dw=st.floats(-2, 2),
    dh=st.floats(-2, 20000),
)
# Edges that snap outward by almost half a millimetre each, so a float side
# just above min_mm - 1 passes the check.
@example(min_mm=2200, x=0, y=0, fx=0.4999, fy=0.4999, dw=-0.9998, dh=-0.9998)
@example(min_mm=1, x=3, y=3, fx=0.4999, fy=0.0, dw=-0.9998, dh=0.0)
@example(min_mm=2, x=3, y=3, fx=0.4999, fy=0.4999, dw=-0.9998, dh=-0.9998)
def test_a_cut_that_passes_the_width_check_holds_the_area_floor(min_mm, x, y, fx, fy, dw, dh):
    """A room the width check accepts has more target area than ``_area_floor`` asks."""
    w, h = (min_mm + dw) / 1000, (min_mm + dh) / 1000
    if w <= 0 or h <= 0:
        return
    x0, y0, x1, y1 = mm_box(((x + fx) / 1000, (y + fy) / 1000, w, h))
    if min(x1 - x0, y1 - y0) >= min_mm:
        assert w * h * 1e6 >= _area_floor(min_mm)


def test_the_area_floor_stops_only_attempts_the_layout_refuses(monkeypatch):
    """Every attempt stopped at the area floor raises LayoutError when laid out in full.

    The attempts run as ``generate`` runs them.  An attempt that is stopped
    before the hierarchy is built is run again as the last attempt of its
    budget, which the floor exempts, so it goes through ``build_hierarchy``
    and ``layout_rooms`` with the pipeline's own room check.
    """
    cfg = GenConfig(min_room_width=2.2)
    built = []
    build_hierarchy = planwright.plan.build_hierarchy
    monkeypatch.setattr(
        planwright.plan, "build_hierarchy", lambda *a, **k: built.append(1) or build_hierarchy(*a, **k)
    )
    retryable = tuple(planwright.plan._STAGE)
    stopped = 0
    for seed in range(200):
        root = RandomStream(seed)
        for attempt in range(1, cfg.max_attempts + 1):
            before = len(built)
            try:
                _attempt(seed, root.substream(attempt - 1), cfg, attempt, False)
            except retryable as exc:
                if type(exc) is not LayoutError or len(built) > before:
                    continue
                stopped += 1
                assert attempt < cfg.max_attempts
                assert str(exc).endswith(" narrower than 2.2 m")
                in_full = dataclasses.replace(cfg, max_attempts=attempt)
                with pytest.raises(LayoutError):
                    _attempt(seed, root.substream(attempt - 1), in_full, attempt, False)
                assert len(built) == before + 1
            else:
                break
    assert stopped == STRICT_STOPPED_0_199


def test_impossible_config_always_exhausts():
    # A 4 m minimum room width is unsatisfiable for 3-11 m^2 rooms.
    cfg = GenConfig(min_room_width=4.0)
    with pytest.raises(GenerationError):
        generate(0, cfg)


def test_generate_is_hash_seed_independent(plain_plan):
    script = (
        "from planwright.plan import generate, to_json;"
        f"import hashlib; print(hashlib.sha256(to_json(generate({PLAIN_SEED}))"
        ".encode()).hexdigest())"
    )
    # The child imports the same planwright this process does, installed or
    # found through PYTHONPATH, whatever the working directory.
    package_root = str(Path(planwright.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("0", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
                # Leave no bytecode cache behind in the source tree.
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert digests == {hashlib.sha256(to_json(plain_plan).encode()).hexdigest()}


# --------------------------------------------------------------------- JSON


def test_json_round_trip(plain_plan, corridor_plan):
    for plan in (plain_plan, corridor_plan):
        text = to_json(plan)
        back = from_json(text)
        assert back == plan
        assert to_json(back) == text


@pytest.mark.parametrize("knobs", [{}, {"min_room_width": 2.2}])
def test_writer_matches_stdlib_layout(knobs):
    cfg = GenConfig(**knobs)
    for seed in range(100):
        try:
            plan = generate(seed, cfg)
        except GenerationError:
            continue
        assert to_json(plan) == plan_json(plan), seed


def test_writer_spells_integer_valued_lengths_as_floats():
    # A parsed document may spell a length as an integer; the plan holds it in
    # millimetres and writes it back in metres as a float.  A target area is
    # not a length and is written back as it was read.
    golden = (DATA / "plan-seed1.json").read_text()
    doc = json.loads(golden)
    doc["footprint"]["x"] = 0
    doc["rooms"][0]["polygon"][0] = [0, 0.0]
    doc["rooms"][1]["polygon"][1] = [5.568, 0]
    doc["rooms"][1]["target_area"] = 8
    plan = from_json(json.dumps(doc))
    assert to_json(plan) == plan_json(plan)
    assert to_json(plan) == golden.replace('"target_area": 7.730568', '"target_area": 8', 1)


def test_json_numbers_sit_on_the_grid(corridor_plan):
    doc = json.loads(to_json(corridor_plan))

    def coords(node):
        if isinstance(node, list):
            for item in node:
                yield from coords(item)
        elif isinstance(node, (int, float)):
            yield node

    for room in doc["rooms"]:
        for v in coords(room["polygon"]):
            assert round(v * 1000) == pytest.approx(v * 1000, abs=1e-6)
        assert room["target_area"] == round(room["target_area"], 6)
    for opening in doc["openings"]:
        for v in coords(opening["wall"]):
            assert round(v * 1000) == pytest.approx(v * 1000, abs=1e-6)
        assert round(opening["offset"] * 1000) == pytest.approx(
            opening["offset"] * 1000, abs=1e-6
        )
    fp = doc["footprint"]
    for v in (fp["x"], fp["y"], fp["x1"], fp["y1"]):
        assert round(v * 1000) == pytest.approx(v * 1000, abs=1e-6)


def corrupted(plan: FloorPlan, mutate) -> str:
    doc = json.loads(to_json(plan))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.update(bogus=1), "$.bogus"),
        (lambda d: d.pop("rooms"), "$.rooms"),
        (lambda d: d.update(schema_version=99), "$.schema_version"),
        (lambda d: d["rooms"][0].update(kind="ballroom"), "$.rooms[0].kind"),
        (lambda d: d["rooms"][0].update(polygon=[[0, 0], [1, 0]]), "$.rooms[0].polygon"),
        (lambda d: d["rooms"][0].pop("target_area"), "$.rooms[0]"),
        (lambda d: d["footprint"].pop("x1"), "$.footprint"),
        (lambda d: d["openings"][0].pop("offset"), "$.openings[0]"),
        (lambda d: d.update(connection_graph={"nodes": []}), "$.connection_graph"),
        pytest.param(lambda d: d.update(rooms=5), "$.rooms:", id="rooms-not-a-list"),
        pytest.param(lambda d: d.update(openings=None), "$.openings:", id="openings-null"),
        pytest.param(
            lambda d: d["openings"][1].update(rooms=[1]), "$.openings[1].rooms:", id="one-room"
        ),
        pytest.param(lambda d: d["rooms"][0].update(id="a"), "$.rooms[0].id:", id="id-string"),
        pytest.param(lambda d: d["footprint"].update(x1=-1.0), "$.footprint:", id="x1-below-x"),
        pytest.param(lambda d: d["footprint"].update(x="a"), "$.footprint.x:", id="x-string"),
        pytest.param(
            lambda d: d["connection_graph"].update(edges=[[1]]),
            "$.connection_graph.edges[0]:",
            id="edge-one-node",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(wall=[[float("nan"), 0.0], [1.0, 0.0]]),
            "$.openings[0].wall[0][0]:",
            id="wall-nan",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(wall=[[0.0, 0.0], [1.0, 1.0]]),
            "$.openings[0]: segment not axis-aligned",
            id="wall-diagonal",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(wall=[[1.0, 0.0], [1.0, 0.0]]),
            "$.openings[0]: zero-length segment",
            id="wall-zero-length",
        ),
        pytest.param(lambda d: d.update(seed="x"), "$.seed:", id="seed-string"),
        pytest.param(lambda d: d.update(seed=True), "$.seed:", id="seed-bool"),
        pytest.param(lambda d: d.update(attempts=1.5), "$.attempts:", id="attempts-float"),
        pytest.param(
            lambda d: d.update(corridor_candidates=None),
            "$.corridor_candidates:",
            id="candidates-null",
        ),
        pytest.param(
            lambda d: d.update(config_fingerprint=7), "$.config_fingerprint:", id="fingerprint-int"
        ),
        pytest.param(lambda d: d["openings"][0].update(kind=5), "$.openings[0].kind:", id="kind-int"),
        pytest.param(
            lambda d: [d["rooms"][0]["polygon"][k].__setitem__(0, float("inf")) for k in (1, 2)],
            "$.rooms[0].polygon[1][0]:",
            id="vertex-inf",
        ),
        pytest.param(
            lambda d: d["rooms"][0]["polygon"][1].__setitem__(1, True),
            "$.rooms[0].polygon[1][1]:",
            id="vertex-bool",
        ),
        pytest.param(lambda d: d["footprint"].update(x=10**400), "$.footprint.x:", id="x-huge-int"),
        pytest.param(
            lambda d: d.update(schema_version=True), "$.schema_version:", id="schema-version-bool"
        ),
        pytest.param(
            lambda d: d.update(schema_version=1.0), "$.schema_version:", id="schema-version-float"
        ),
        pytest.param(
            lambda d: d["rooms"][0]["polygon"][1].__setitem__(0, 1e306),
            "$.rooms[0].polygon[1][0]:",
            id="vertex-mm-overflow",
        ),
        pytest.param(
            lambda d: d["footprint"].update(x1=1e306), "$.footprint.x1:", id="x1-mm-overflow"
        ),
        # Every length is a whole number of millimetres within MAX_EXACT.
        pytest.param(
            lambda d: d["rooms"][0]["polygon"][1].__setitem__(0, 0.1 + 0.2),
            "$.rooms[0].polygon[1][0]: 0.30000000000000004 m is not a whole number of millimetres",
            id="vertex-off-grid",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(offset=1.0004),
            "$.openings[0].offset: 1.0004 m is not a whole number of millimetres",
            id="offset-off-grid",
        ),
        pytest.param(
            lambda d: d["openings"][0].update(width=0.9001),
            "$.openings[0].width: 0.9001 m is not a whole number of millimetres",
            id="width-off-grid",
        ),
        pytest.param(
            lambda d: d["footprint"].update(y=-0.0005),
            "$.footprint.y: -0.0005 m is not a whole number of millimetres",
            id="footprint-off-grid",
        ),
        pytest.param(
            lambda d: d["footprint"].update(x=-2e12),
            "$.footprint.x: coordinate beyond 1e+12 m",
            id="coordinate-2e12",
        ),
    ],
)
def test_parse_errors_name_their_path(plain_plan, mutate, path):
    text = corrupted(plain_plan, mutate)
    with pytest.raises(PlanParseError) as err:
        from_json(text)
    assert str(err.value).startswith(path)


def test_parse_normalises_a_reversed_wall(corridor_plan):
    # A wall named high end first is the same wall; offsets run from its low end.
    doc = json.loads(to_json(corridor_plan))
    for opening in doc["openings"]:
        opening["wall"].reverse()
    plan = from_json(json.dumps(doc))
    assert plan == corridor_plan
    assert to_json(plan) == to_json(corridor_plan)
    entry = plan.openings[0]
    horizontal, line, lo, hi = entry.wall
    a, b = json.loads(to_json(corridor_plan))["openings"][0]["wall"]
    assert (a[1] == b[1]) == horizontal and lo < hi
    assert a == ([lo / 1000, line / 1000] if horizontal else [line / 1000, lo / 1000])


def translated(plan: FloorPlan, dx: int, dy: int) -> FloorPlan:
    """The plan moved by (dx, dy) mm."""

    def poly(p: RectilinearPolygon) -> RectilinearPolygon:
        return RectilinearPolygon([(x + dx, y + dy) for x, y in p.mm])

    def opening(o: Opening) -> Opening:
        horizontal, line, lo, hi = o.wall
        along, across = (dx, dy) if horizontal else (dy, dx)
        wall = (horizontal, line + across, lo + along, hi + along)
        return Opening(o.kind, wall, o.lo + along, o.hi + along, o.rooms)

    x0, y0, x1, y1 = plan.footprint
    return dataclasses.replace(
        plan,
        footprint=(x0 + dx, y0 + dy, x1 + dx, y1 + dy),
        rooms=tuple(dataclasses.replace(room, polygon=poly(room.polygon)) for room in plan.rooms),
        corridor=None if plan.corridor is None else poly(plan.corridor),
        openings=tuple(opening(o) for o in plan.openings),
    )


EDGE = int(MAX_EXACT * 1000)  # the farthest coordinate a plan may hold, in mm


@settings(max_examples=40, deadline=None)
@given(st.integers(-EDGE, EDGE - 20_000), st.integers(-EDGE, EDGE - 20_000))
@example(-EDGE, -EDGE)
@example(EDGE - 20_000, EDGE - 20_000)
def test_plan_near_max_exact_round_trips_byte_for_byte(corridor_plan, dx, dy):
    x0, y0, x1, y1 = corridor_plan.footprint
    assert x1 - x0 <= 20_000 and y1 - y0 <= 20_000
    plan = translated(corridor_plan, dx - x0, dy - y0)
    text = to_json(plan)
    back = from_json(text)
    assert back == plan
    assert to_json(back) == text == plan_json(plan)
    assert validate(back, GenConfig()).ok


def test_parse_error_on_unparseable_text():
    with pytest.raises(PlanParseError) as err:
        from_json("{not json")
    assert str(err.value).startswith("$:")
    with pytest.raises(PlanParseError) as err:
        from_json('{"seed": ' + "1" * 5000 + "}")
    assert str(err.value).startswith("$:")
    with pytest.raises(PlanParseError):
        from_json("[1, 2, 3]")


def test_schema_version_is_one():
    assert SCHEMA_VERSION == 1


# ---------------------------------------------------------------------- SVG


def test_svg_structure(corridor_plan):
    svg = to_svg(corridor_plan)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    # One fill and one wall outline per room.
    assert svg.count("<path") >= 2 * len(corridor_plan.rooms)
    for room in corridor_plan.rooms:
        if room.kind.value == "living_room":
            assert "Living room" in svg
    assert "entry" not in svg  # colors carry the meaning, not class names


def test_svg_deterministic(corridor_plan):
    assert to_svg(corridor_plan) == to_svg(corridor_plan)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9000), st.integers(0, 9000), st.integers(1, 3001), st.integers(1, 3001)),
        min_size=1,
        max_size=3,
    )
)
def test_label_point_matches_the_grid_cells(parts):
    # A rectangle's label point skips its one-cell grid; an odd side puts its
    # centre on a half millimetre, which must round as on the grid.
    boxes = [(x, y, x + w, y + h) for x, y, w, h in parts]
    grid = Grid(boxes)
    polygons = [grid.outline(grid.mask(boxes[0]))]
    m = 0
    for box in boxes:
        m |= grid.mask(box)
    try:
        polygons.append(grid.outline(m))
    except ValueError:
        pass
    for poly in polygons:
        assert _label_point(poly) == oracles.label_point(poly)


def test_svg_style_knobs(plain_plan):
    bare = to_svg(plain_plan, SvgStyle(labels=False, background="#ffffff"))
    assert "<text" not in bare
    assert "#ffffff" in bare


def test_gallery_combines_plans(plain_plan, corridor_plan):
    svg = gallery_svg([plain_plan, corridor_plan], columns=2)
    assert svg.startswith("<svg")
    assert svg == gallery_svg([plain_plan, corridor_plan], columns=2)
    single = gallery_svg([plain_plan], columns=2)
    assert len(svg) > len(single)


def test_gallery_rejects_nothing():
    with pytest.raises(ValueError):
        gallery_svg([])
