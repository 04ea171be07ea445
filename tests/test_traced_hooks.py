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
    # One front-stage call per attempt.
    attempts = calls["sample_counts"]
    assert attempts == plan.from_json(document).attempts
    for name in ("assign_functions", "sample_areas", "derive_footprint", "build_hierarchy"):
        assert calls[name] == attempts, name
