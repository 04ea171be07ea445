"""Plan files are untrusted input: mutated plans must parse cleanly or fail cleanly.

Each example takes a generated plan document and applies a few random
mutations: drop a field or list item, give a value another JSON type,
perturb a number or string, or swap two values.  ``from_json`` must then
raise ``PlanParseError`` or return a plan, and ``validate`` must return a
``ValidationReport`` for that plan; any other exception is a bug.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.openings import ValidationReport, validate
from planwright.plan import PlanParseError, from_json, generate, to_json
from planwright.sampling import GenConfig

# Seed 1 needs no corridor, seed 3 does (see test_plan.py); seed 4 adds
# another room count.
SEEDS = (1, 3, 4)

# Replacement values of every JSON type, including the ones Python's json
# module reads beyond the standard (NaN, Infinity) and extremes.
STRINGS = ["", "x", "door", "window", "entry_door", "kitchen", "living_room", "bedroom"]
ODD_VALUES = [
    None, True, False, 0, -1, 1, 2, 7, 10**30, 0.5, -0.0, 1e-9, 1e300, math.nan, math.inf,
    -math.inf, *STRINGS, [], [0], [0, 0], [[0, 0], [1, 0]], {}, {"x": 0},
]
NUDGES = [0.001, -0.001, 0.1, -0.5, 1, -1, 1000, 0.0004]


@pytest.fixture(scope="module")
def documents():
    return [json.loads(to_json(generate(seed))) for seed in SEEDS]


def _paths(node, prefix=()):
    """Every path to a value inside the document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


def _mutate(doc, data) -> None:
    paths = list(_paths(doc))
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _parent(doc, path), path[-1]
    value = parent[key]
    op = data.draw(st.sampled_from(["drop", "retype", "perturb", "swap"]))
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
    elif op == "perturb":
        if isinstance(value, bool) or value is None:
            parent[key] = not value
        elif isinstance(value, (int, float)):
            parent[key] = data.draw(st.sampled_from([value + n for n in NUDGES] + [-value, 2 * value]))
        elif isinstance(value, str):
            parent[key] = data.draw(st.sampled_from(STRINGS + [value.upper(), value + " "]))
        elif isinstance(value, list) and value:
            i = data.draw(st.integers(0, len(value) - 1))
            value.insert(i, value[i] if data.draw(st.booleans()) else value.pop())
        elif isinstance(value, dict):
            value[data.draw(st.sampled_from(["extra", "id", "kind"]))] = 0
    else:
        other = data.draw(st.sampled_from(paths))
        other_parent, other_key = _parent(doc, other), other[-1]
        try:
            parent[key], other_parent[other_key] = other_parent[other_key], value
        except (KeyError, IndexError):
            pass  # the first assignment moved a container the second path ran through


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_plans_parse_or_fail_cleanly(documents, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(documents))))
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate(doc, data)
    try:
        plan = from_json(json.dumps(doc))
    except PlanParseError:
        return
    assert isinstance(validate(plan), ValidationReport)
    assert isinstance(validate(plan, GenConfig()), ValidationReport)


def _cases(doc):
    """(path, text) for every path of ``doc``: the value dropped, then each of ODD_VALUES.

    The document is serialised twice per path, without the value and with a
    marker in its place that each replacement's text then stands in for.
    """
    marker, texts = "\0", [json.dumps(value) for value in ODD_VALUES]
    for path in list(_paths(doc)):
        parent, key = _parent(doc, path), path[-1]
        saved = copy.copy(parent)
        del parent[key]
        yield path, json.dumps(doc)
        if isinstance(parent, dict):
            parent.clear()
            parent.update(saved)
        else:
            parent[:] = saved
        parent[key] = marker
        template = json.dumps(doc)
        parent[key] = saved[key]
        for text in texts:
            yield path, template.replace(json.dumps(marker), text)


def test_parse_and_check_contract_pinned(documents):
    # Every path of each document, dropped or given each odd value, hashed as
    # the parse error's text or as validate's failures without and with the
    # default config; recorded before from_json built its paths lazily.
    cfg = GenConfig()
    h = hashlib.sha256()
    for doc in copy.deepcopy(documents):
        for path, text in _cases(doc):
            try:
                plan = from_json(text)
            except PlanParseError as exc:
                h.update(f"{path} error {exc}\n".encode())
                continue
            h.update(f"{path} {validate(plan).failures} {validate(plan, cfg).failures}\n".encode())
    assert h.hexdigest() == "0d8a9227add65b864c0efed9e40f71c316b82b8de9d8a4d5d145617a1df58e4b"
