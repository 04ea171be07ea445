"""The benchmark's workloads: their inputs, their op, and how outputs are checked.

Every workload is one client in a closed loop: it sends the next op only
after the previous one returned. An op is one seed on the generation
workloads and one plan document on ``plan-io``. The inputs are a pure
function of the workload and the ``--seed`` given to run.py.

The op functions call planwright through the ``planwright.plan`` module
object (``P.generate`` rather than a name imported once), so that a traced
run's wrappers, installed on that module, see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Runs with different --seed values draw from disjoint seed ranges.
SEED_STRIDE = 1_000_000

# The seed whose pinned outputs are recorded in reference.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One closed-loop client; README.md says why each workload exists."""

    name: str
    knobs: dict
    # Generation workloads: the seeds whose outcomes are pinned (and the
    # fewest a run may time). plan-io: the corpus size.
    block: int
    # Ops in the traced run's op list. It runs once plain and once traced,
    # so each side takes about half of a timed run.
    trace_ops: int
    reads_documents: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-default", {}, block=1000, trace_ops=500),
        Workload("strict-rooms", {"min_room_width": 2.2}, block=2000, trace_ops=1000),
        Workload("plan-io", {}, block=500, trace_ops=1500, reads_documents=True),
    )
}


class SetupError(RuntimeError):
    """The program under test cannot be imported or configured."""


class OpFailure(RuntimeError):
    """An op produced wrong output (validate failure or round-trip mismatch)."""


def load_planwright(root: Path):
    """Import planwright from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "planwright" / "__init__.py").is_file():
        raise SetupError(f"no planwright sources under {src}")
    sys.path.insert(0, str(src))
    try:
        plan = importlib.import_module("planwright.plan")
        corridor = importlib.import_module("planwright.corridor")
    except ImportError as exc:
        raise SetupError(f"cannot import planwright: {exc}") from exc
    if not Path(plan.__file__).resolve().is_relative_to(src):
        raise SetupError(f"planwright imported from {plan.__file__}, not {src}")
    return plan, corridor


def make_config(P, workload: Workload):
    return dataclasses.replace(P.GenConfig(), **workload.knobs)


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def generate_op(P, cfg, seed: int) -> tuple[str, str] | None:
    """generate -> to_json -> to_svg; None when the seed gives up."""
    try:
        plan = P.generate(seed, cfg)
    except P.GenerationError:
        return None
    return P.to_json(plan), P.to_svg(plan)


def io_op(P, cfg, doc: str) -> tuple[str, str]:
    """from_json -> validate -> to_json (byte-equal to the input) -> to_svg."""
    plan = P.from_json(doc)
    report = P.validate(plan, cfg)
    if not report.ok:
        raise OpFailure(f"validate: {report.failures[0]}")
    text = P.to_json(plan)
    if text != doc:
        raise OpFailure("to_json of the parsed document differs from the document")
    return text, P.to_svg(plan)


def build_corpus(P, cfg, base: int, size: int) -> tuple[list[str], list[int]]:
    """The first ``size`` plans from seeds ``base, base+1, ...``, as JSON.

    Returns the documents and the seeds that gave up along the way.
    """
    docs: list[str] = []
    gave_up: list[int] = []
    seed = base
    while len(docs) < size:
        out = generate_op(P, cfg, seed)
        if out is None:
            gave_up.append(seed)
        else:
            docs.append(out[0])
        seed += 1
    return docs, gave_up


class Job:
    """One run's inputs and the op applied to each, indexed by op number."""

    def __init__(self, P, workload: Workload, seed: int) -> None:
        self.P = P
        self.workload = workload
        self.cfg = make_config(P, workload)
        self.base = seed * SEED_STRIDE
        self.corpus: list[str] = []
        self.corpus_gave_up: list[int] = []
        self.corpus_s = 0.0
        if workload.reads_documents:
            t0 = perf_counter()
            self.corpus, self.corpus_gave_up = build_corpus(
                P, self.cfg, self.base, workload.block
            )
            self.corpus_s = perf_counter() - t0

    def key(self, i: int) -> int:
        """The input identity of op i: a seed, or a corpus index."""
        if self.corpus:
            return i % len(self.corpus)
        return self.base + i

    def run(self, i: int) -> tuple[str, str] | None:
        if self.corpus:
            return io_op(self.P, self.cfg, self.corpus[i % len(self.corpus)])
        return generate_op(self.P, self.cfg, self.base + i)

    def pinned_lines(self, outcomes: dict[int, str | None]) -> list[str]:
        """Ordered lines the reference digest covers: the block's outcomes."""
        lines = [f"gave-up {s}" for s in self.corpus_gave_up]
        for i in range(self.workload.block):
            key = self.key(i)
            out = outcomes.get(key, "failed")
            lines.append(f"{key} {out}" if out is not None else f"gave-up {key}")
        return lines
