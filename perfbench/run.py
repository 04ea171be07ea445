"""Closed-loop benchmark of planwright: one command prints every metric by name and unit.

    python3 perfbench/run.py --workload batch-default --seed 3 --seconds 30 --trace 0

Run it from the repository root; it imports planwright from ``src/`` there.

``--trace 0`` times the workload with nothing installed and prints the
end-to-end metrics. ``--trace 1`` runs a fixed op list twice, first plain and
then with span wrappers installed on the stage functions, checks that both
give the same outputs, and prints the per-layer metrics. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any output
was wrong and 2 when planwright could not be set up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "data" / "plan-seed1.json"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"

from measure import (  # noqa: E402
    MIN_BEYOND,
    TooFewSamples,
    highest_tail,
    mean_by_key,
    percentile,
    ratio,
    tail_percentile,
)
from spans import TRACED, Tracer, installed, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED,
    WORKLOADS,
    Job,
    SetupError,
    digest,
    load_planwright,
    make_config,
)

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
# Pinned inputs run a second time after the timed loop.
RECHECKS = 20
# A run times at least this many ops, so p99 has MIN_BEYOND samples beyond it.
MIN_OPS = 100 * MIN_BEYOND
# Length of the windows whose median rate is reported.
WINDOW_S = 1.0
# Ops per plain/traced chunk of the traced run.
TRACE_CHUNK = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time import and config construction in this interpreter, print seconds, exit",
    )
    return parser.parse_args(argv)


class Outcomes:
    """Output digest per input; a repeated input must give the same digest."""

    def __init__(self) -> None:
        self.by_key: dict[int, str | None] = {}
        self.problems: list[str] = []

    def record(self, i: int, key: int, out: tuple[str, str] | None) -> None:
        got = None if out is None else digest(*out)
        if key in self.by_key and self.by_key[key] != got:
            self.problems.append(f"op {i} (input {key}): output differs from an earlier run")
        self.by_key.setdefault(key, got)

    def fail(self, i: int, key: int, exc: Exception) -> None:
        self.problems.append(f"op {i} (input {key}): {type(exc).__name__}: {exc}")


def run_op(job: Job, i: int, outcomes: Outcomes) -> bool:
    """Run op i and check its output; True when it delivered a plan."""
    key = job.key(i)
    failures = len(outcomes.problems)
    try:
        out = job.run(i)
    except Exception as exc:  # any exception but a give-up fails the op; the run goes on
        outcomes.fail(i, key, exc)
        return False
    outcomes.record(i, key, out)
    return out is not None and len(outcomes.problems) == failures


def timed_loop(job: Job, seconds: float, outcomes: Outcomes) -> dict:
    """Closed loop until ``seconds`` pass and at least the block and MIN_OPS are done.

    Besides each op's latency it records, per WINDOW_S window of wall time,
    the ops and plans completed, so rates can be taken as a median over
    windows: a stall of the machine then moves a few windows, not the result.
    """
    latencies: list[float] = []
    keys: list[int] = []
    windows: list[tuple[int, int, float]] = []
    ops_in = plans_in = plans = 0
    min_ops = max(job.workload.block, MIN_OPS)
    start = window_start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        t0 = perf_counter()
        delivered = run_op(job, i, outcomes)
        now = perf_counter()
        latencies.append(now - t0)
        keys.append(job.key(i))
        plans += delivered
        ops_in += 1
        plans_in += delivered
        if now - window_start >= WINDOW_S:
            windows.append((ops_in, plans_in, now - window_start))
            ops_in = plans_in = 0
            window_start = now
        i += 1
    wall = perf_counter() - start
    return {
        "ops": i,
        "plans": plans,
        "wall_s": wall,
        "latencies": latencies,
        "keys": keys,
        "windows": windows or [(i, plans, wall)],
    }


def post_checks(job: Job, outcomes: Outcomes, upto: int) -> None:
    """Untimed checks: determinism, round trip, and the golden seed-1 document."""
    P = job.P
    step = max(1, upto // RECHECKS)
    for i in range(0, upto, step):
        key = job.key(i)
        try:
            out = job.run(i)
            outcomes.record(i, key, out)
            if out is not None and not job.workload.reads_documents:
                plan = P.from_json(out[0])
                if P.to_json(plan) != out[0]:
                    outcomes.problems.append(f"input {key}: JSON does not round-trip")
                report = P.validate(plan, job.cfg)
                if not report.ok:
                    outcomes.problems.append(f"input {key}: validate: {report.failures[0]}")
        except Exception as exc:  # a check that crashes is a failed check
            outcomes.fail(i, key, exc)
    try:
        if P.to_json(P.generate(1, P.GenConfig())) != GOLDEN.read_text():
            outcomes.problems.append("seed 1 on the default config differs from the golden document")
    except Exception as exc:  # a missing golden file fails the check too
        outcomes.problems.append(f"golden check: {type(exc).__name__}: {exc}")


def check_reference(job: Job, outcomes: Outcomes, seed: int) -> str:
    """Digest of the block's outcomes; compared with reference.json for the reference seed."""
    lines = job.pinned_lines(outcomes.by_key)
    got = digest(*lines)
    if seed == REFERENCE_SEED:
        recorded = json.loads(REFERENCE.read_text()).get(job.workload.name, {})
        if recorded.get("digest") != got:
            outcomes.problems.append(
                f"reference seed outputs: digest {got}, reference.json has {recorded.get('digest')}"
            )
    return got


def setup_seconds(workload: str) -> float:
    """Median of SETUP_SAMPLES fresh interpreters importing and configuring planwright."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(job: Job, args: argparse.Namespace, outcomes: Outcomes) -> tuple[dict, int]:
    corpus_s = job.corpus_s
    setup_s = setup_seconds(job.workload.name) + corpus_s
    run = timed_loop(job, args.seconds, outcomes)
    ms = [t * 1000.0 for t in run["latencies"]]
    block_digest = check_reference(job, outcomes, args.seed)
    post_checks(job, outcomes, job.workload.block)
    ops, wall, windows = run["ops"], run["wall_s"], run["windows"]
    pinned = [outcomes.by_key.get(job.key(i), "") for i in range(job.workload.block)]
    gave_up = 0 if job.workload.reads_documents else pinned.count(None)
    tail = highest_tail(ms)
    # plan-io cycles its corpus, so every document runs many times in a run.
    # Its median is taken over documents, each at its mean latency. A median
    # over all ops sits where two room-count clusters of the latencies meet
    # and jumps with the host's speed far more than the mean does.
    if job.workload.reads_documents:
        typical = mean_by_key(ms, run["keys"])
        repeats = len(ms) // len(typical)
    else:
        typical, repeats = ms, 1
    info = {
        "ops": (ops, "count"),
        "op_ms_samples": (len(ms), "count"),
        "op_ms_p50_inputs": (len(typical), "count"),
        "op_ms_p50_repeats": (repeats, "count"),
        "rate_windows": (len(windows), "count"),
        "ops_per_s_whole_run": (ops / wall, "1/s"),
        "gave_up_ratio": (ratio(gave_up, job.workload.block), "ratio"),
        "error_ratio": (ratio(len(outcomes.problems), ops), "ratio"),
        f"op_ms_p{tail:g}": (percentile(ms, tail), "ms"),
        "corpus_s": (corpus_s, "s"),
    }
    metrics = {
        "ops_per_s": (statistics.median(n / t for n, _, t in windows), "1/s"),
        "plans_per_s": (statistics.median(p / t for _, p, t in windows), "1/s"),
        "op_ms_p50": (percentile(typical, 50), "ms"),
        "op_ms_p99": (tail_percentile(ms, 99), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# block digest {block_digest} over {job.workload.block} pinned inputs")
    for name, (value, unit) in info.items():
        print(f"{name} {value:g} {unit}")
    return metrics, ops


def traced(job: Job, args: argparse.Namespace, outcomes: Outcomes, targets: dict) -> tuple[dict, int]:
    """Each chunk of the op list runs plain and traced, in alternating order.

    Interleaving puts both sides under the same machine load, so their
    difference is the tracing overhead rather than drift between two passes.
    """
    n = job.workload.trace_ops
    originals = {(m, name): getattr(m, name) for m, names in targets.items() for name in names}
    tracer = Tracer()
    plain_ns = wall_ns = 0
    for c, lo in enumerate(range(0, n, TRACE_CHUNK)):
        chunk = range(lo, min(lo + TRACE_CHUNK, n))
        for with_spans in ((False, True) if c % 2 == 0 else (True, False)):
            if with_spans:
                with installed(tracer, targets):
                    start = perf_counter_ns()
                    for i in chunk:
                        tracer.op = i
                        run_op(job, i, outcomes)
                    wall_ns += perf_counter_ns() - start
            else:
                start = perf_counter_ns()
                for i in chunk:
                    run_op(job, i, outcomes)
                plain_ns += perf_counter_ns() - start
    if any(getattr(m, name) is not fn for (m, name), fn in originals.items()):
        outcomes.problems.append("traced wrappers were not removed")
    post_checks(job, outcomes, min(n, job.workload.block))
    path = SPANS_DIR / f"spans-{job.workload.name}-seed{args.seed}.json"
    tracer.dump(path)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    metrics = layer_metrics(tracer.spans, n, wall_ns)
    metrics["trace.ops"] = (n, "count")
    metrics["trace.ops_per_s"] = (n / wall_ns * 1e9, "1/s")
    metrics["trace.untraced_ops_per_s"] = (n / plain_ns * 1e9, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (wall_ns / plain_ns - 1.0), "%")
    return metrics, 2 * n


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            t0 = perf_counter()
            P, _ = load_planwright(ROOT)
            make_config(P, workload)
            print(perf_counter() - t0)
            return 0
        P, C = load_planwright(ROOT)
        job = Job(P, workload, args.seed)
        outcomes = Outcomes()
        if args.trace:
            metrics, attempted = traced(job, args, outcomes, {P: TRACED[P.__name__], C: TRACED[C.__name__]})
        else:
            metrics, attempted = end_to_end(job, args, outcomes)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    except TooFewSamples as exc:
        print(f"run refused: {exc}", file=sys.stderr)
        return 2

    for problem in outcomes.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:g} {unit}")
    failed = len(outcomes.problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
