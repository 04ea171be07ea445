"""Configs are untrusted input: mutated configs must load and generate cleanly or fail cleanly.

Each example takes a config document (the default, or the
``min_room_width=2.2`` variant) and applies one random mutation: drop a
field or list item, give a value another JSON type or an extreme number, or
perturb a number, string, list or object, joint-table cells included.  One
mutation, not several: most mutations make the config fail to load, and a
second one would hide what the first did to ``generate``.  ``GenConfig.from_json``
must then raise ``ConfigError`` (or ``OSError`` when ``joint_table`` became a
string, which names a CSV file), or return a config for which ``generate``
returns a plan or raises ``GenerationError``; any other exception is a bug.
A config that loads must also fingerprint like the configs equal to it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.plan import GenerationError, generate
from planwright.sampling import ConfigError, GenConfig

# Under both configs seed 0 gives up within two attempts; seeds 3 and 33
# route a corridor and seed 24 needs none, so doors, windows and the
# corridor search see the mutated config too.
SEEDS = (0, 3, 24, 33)
ODD_VALUES = [None, "a", True, [], {}, -1, 0, math.nan, math.inf, -math.inf, 1e308, 2.5]
NUDGES = [0.001, -0.001, 0.1, -0.5, 1, -1, 1000]
SCALES = [-1, 2, 1e6, 1e300]
KINDS = ["outside", "living_room", "kitchen", "bedroom", "bathroom", "storage", "attic"]


@pytest.fixture(scope="module")
def documents():
    return [GenConfig().to_json(), GenConfig(min_room_width=2.2).to_json()]


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


def _mutate(doc, data) -> None:
    # A field first, then a path inside it, so the 50 joint-table cells do
    # not crowd out the other fields.
    field = data.draw(st.sampled_from(sorted(doc)))
    path = data.draw(st.sampled_from(list(_paths(doc[field], (field,))) or [(field,)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    # Retyping is drawn twice as often: most faults hide behind an odd value.
    op = data.draw(st.sampled_from(["drop", "retype", "retype", "perturb"]))
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = data.draw(
            st.sampled_from([value + n for n in NUDGES] + [value * k for k in SCALES])
        )
    elif isinstance(value, str):
        parent[key] = data.draw(st.sampled_from(KINDS + [value.upper()]))
    elif isinstance(value, list) and value:
        i = data.draw(st.integers(0, len(value) - 1))
        value.insert(i, value[i] if data.draw(st.booleans()) else value.pop())
    elif isinstance(value, dict):
        value[data.draw(st.sampled_from(KINDS + ["uniform", "constant"]))] = {"constant": 5.0}


def _signed_zeros(node):
    """The document with every float 0.0 in it written as -0.0."""
    if isinstance(node, dict):
        return {key: _signed_zeros(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_signed_zeros(value) for value in node]
    return -0.0 if type(node) is float and node == 0 else node


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_configs_load_and_generate_or_fail_cleanly(documents, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(documents))))
    _mutate(doc, data)
    try:
        cfg = GenConfig.from_json(doc)
    except ConfigError:
        return
    except OSError:
        assert isinstance(doc.get("joint_table"), str)
        return
    # Equal configs fingerprint alike: the document with each float zero
    # written as -0.0, and the config's own JSON read back, load as equals.
    for twin_doc in (_signed_zeros(doc), json.loads(json.dumps(cfg.to_json()))):
        twin = GenConfig.from_json(twin_doc)
        assert twin == cfg and twin.fingerprint() == cfg.fingerprint()
    # The memoised fingerprint is the canonical-JSON hash, for the config and a variant of it.
    variant = replace(cfg, max_attempts=min(cfg.max_attempts, 2))
    for c in (cfg, variant):
        canonical = json.dumps(c.to_json(), sort_keys=True, separators=(",", ":"))
        assert c.fingerprint() == hashlib.sha256(canonical.encode()).hexdigest()[:16]
    try:
        seed = data.draw(st.sampled_from(SEEDS))
        generate(seed, variant)
    except GenerationError:
        pass
