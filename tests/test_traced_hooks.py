"""The stage globals the benchmark's traced run wraps stay where it looks for them.

``perfbench/run.py --trace 1`` times each stage by swapping a module global
named in ``perfbench/spans.py`` ``TRACED`` for a wrapper, so a stage that is
renamed, moved or called some other way breaks the traced run. ``TRACED`` is
read from the file's syntax tree, which leaves the benchmark untouched.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {SPANS}")


TRACED = _traced()


def test_every_traced_name_resolves_on_its_module():
    for module, names in TRACED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_every_traced_global_is_called_through_its_module(monkeypatch):
    calls = {}
    modules = {module: importlib.import_module(module) for module in TRACED}
    for module, names in TRACED.items():
        for name in names:
            original = getattr(modules[module], name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(modules[module], name, counted)
    plan = modules["planwright.plan"]
    # Seed 3 needs a corridor, so the corridor search runs too.
    document = plan.to_json(plan.generate(3))
    plan.to_svg(plan.from_json(document))
    missed = [name for names in TRACED.values() for name in names if name not in calls]
    assert missed == []
    # One sampling-stage call per attempt.
    attempts = calls["sample_counts"]
    assert attempts == plan.from_json(document).attempts
    for name in ("assign_functions", "sample_areas", "derive_footprint"):
        assert calls[name] == attempts, name


def _attempt_stages(monkeypatch, seed, cfg):
    """The stages each attempt of ``generate(seed, cfg)`` reaches after its footprint.

    One entry per attempt: whether its program clears the room-area floor,
    and the stages it then calls, in order.
    """
    plan = importlib.import_module("planwright.plan")
    floor = plan._area_floor(cfg.min_room_mm)
    attempts = []
    for name in ("derive_footprint", "build_hierarchy", "layout_rooms"):
        original = getattr(plan, name)

        def logged(*args, _name=name, _original=original, **kwargs):
            if _name != "derive_footprint":
                attempts[-1][1].append(_name)  # before the call, which may raise
                return _original(*args, **kwargs)
            result = _original(*args, **kwargs)
            attempts.append((all(e.target_area * 1e6 >= floor for e in result[1]), []))
            return result

        monkeypatch.setattr(plan, name, logged)
    try:
        made = plan.generate(seed, cfg).attempts
    except plan.GenerationError:
        made = cfg.max_attempts
    assert len(attempts) == made
    return attempts


@pytest.mark.parametrize("seed, last_clears", [(1, True), (0, False)], ids=["wins", "gives-up"])
def test_the_hierarchy_and_the_treemap_run_once_per_attempt_the_floor_passes(monkeypatch, seed, last_clears):
    plan = importlib.import_module("planwright.plan")
    attempts = _attempt_stages(monkeypatch, seed, plan.GenConfig(min_room_width=2.2))
    # Under the strict width the floor stops some attempts of both seeds.
    assert any(clears for clears, _ in attempts) and not all(clears for clears, _ in attempts)
    *earlier, (clears, stages) = attempts
    for earlier_clears, earlier_stages in earlier:
        assert earlier_stages == (["build_hierarchy", "layout_rooms"] if earlier_clears else [])
    # The last attempt is laid out in full, even below the floor.
    assert clears is last_clears
    assert stages == ["build_hierarchy", "layout_rooms"]
