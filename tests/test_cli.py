"""The command line interface, driven in process through main().

Every subcommand is exercised against a temp directory: files written,
exit codes, stdout/stderr wording, config loading through the flag and the
environment variable, and byte-stable reruns.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from planwright.cli import _percentile, _seed_range, main
from planwright.sampling import GenConfig

GOOD_SEED = 1
CORRIDOR_SEED = 3
BAD_SEED = 5  # exhausts its attempt budget under the default config

# Joint tables that normalise to no positive cell: one with a NaN cell, and
# one whose two cells at 1e308 sum to infinity.
NAN_CELL_TABLE = [[float("nan"), 1.0] + [0.0] * 8] + [[0.0] * 10] * 4
OVERFLOWING_TABLE = [[1e308, 1e308] + [0.0] * 8] + [[0.0] * 10] * 4


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------ helpers


def test_seed_range_parsing():
    assert _seed_range("7") == [7]
    assert _seed_range("1..4") == [1, 2, 3, 4]
    assert _seed_range("3..3") == [3]
    with pytest.raises(Exception):
        _seed_range("4..1")
    with pytest.raises(Exception):
        _seed_range("x..y")


def test_percentile_single_sample_is_median():
    assert _percentile([12.5], 0.95) == 12.5
    assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


# ----------------------------------------------------------------- generate


def test_generate_writes_both_formats(tmp_path, capsys):
    rc, out, err = run(capsys, "generate", "--seed", str(GOOD_SEED), "--out", str(tmp_path))
    assert rc == 0 and err == ""
    assert "1 plan(s) written" in out
    assert (tmp_path / "plan-000001.json").exists()
    assert (tmp_path / "plan-000001.svg").exists()
    assert not (tmp_path / "plan-000001.trace.json").exists()


def test_generate_single_format(tmp_path, capsys):
    rc, _, _ = run(
        capsys, "generate", "--seed", str(GOOD_SEED), "--out", str(tmp_path), "--format", "json"
    )
    assert rc == 0
    assert (tmp_path / "plan-000001.json").exists()
    assert not (tmp_path / "plan-000001.svg").exists()


def test_generate_seed_range_and_rerun_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc, _, _ = run(capsys, "generate", "--seeds", "1..3", "--out", str(out))
        assert rc == 0
    for name in ("plan-000001.json", "plan-000002.json", "plan-000003.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        svg = name.replace(".json", ".svg")
        assert (a / svg).read_bytes() == (b / svg).read_bytes()


def test_generate_reports_failed_seeds(tmp_path, capsys):
    rc, out, err = run(
        capsys, "generate", "--seeds", f"{BAD_SEED}..{BAD_SEED}", "--out", str(tmp_path)
    )
    assert rc == 1
    assert f"seed {BAD_SEED}" in err
    assert "0 plan(s) written" in out
    assert list(tmp_path.iterdir()) == []


def test_generate_trace_sidecar(tmp_path, capsys):
    rc, _, _ = run(
        capsys,
        "generate",
        "--seed",
        str(CORRIDOR_SEED),
        "--out",
        str(tmp_path),
        "--trace",
    )
    assert rc == 0
    doc = json.loads((tmp_path / f"plan-{CORRIDOR_SEED:06d}.trace.json").read_text())
    assert doc["seed"] == CORRIDOR_SEED
    assert doc["attempts"] >= 1
    assert doc["corridor"]["candidates"]
    assert doc["corridor"]["winner_area"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery", "--seeds", "1..2", "--columns", "0"],
        ["bench", "-n", "-3"],
        ["bench", "-n", "0"],
        ["bench", "-n", "two"],
    ],
)
def test_non_positive_counts_are_refused_at_parse_time(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected" in captured.err
    assert not (tmp_path / "gallery.svg").exists()


def test_generate_requires_exactly_one_seed_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--seed", "1", "--seeds", "1..2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["generate"])
    assert err.value.code == 2


# ----------------------------------------------------------------- validate


def test_validate_passes_generated_plans(tmp_path, capsys):
    run(capsys, "generate", "--seeds", "1..2", "--out", str(tmp_path), "--format", "json")
    files = sorted(str(p) for p in tmp_path.glob("*.json"))
    rc, out, _ = run(capsys, "validate", *files)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.endswith(": PASS") for line in lines)


def test_validate_flags_corrupted_plan(tmp_path, capsys):
    run(capsys, "generate", "--seed", "1", "--out", str(tmp_path), "--format", "json")
    path = tmp_path / "plan-000001.json"
    doc = json.loads(path.read_text())
    doc["openings"] = [o for o in doc["openings"] if o["kind"] != "entry_door"]
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "validate", str(path))
    assert rc == 1
    assert "FAIL" in out and "(" in out


def test_validate_flags_unreadable_and_unparseable(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    rc, out, _ = run(capsys, "validate", str(garbled), str(tmp_path / "missing.json"))
    assert rc == 1
    assert out.count("FAIL") == 2


def test_validate_empty_input_warns(capsys):
    rc, out, err = run(capsys, "validate")
    assert rc == 0
    assert "no input files" in err


# -------------------------------------------------------------------- bench


def test_bench_reports_json(capsys):
    rc, out, _ = run(capsys, "bench", "-n", "3")
    assert rc == 0
    report = json.loads(out)
    assert set(report) == {"plans", "failures", "median_ms", "p95_ms", "failure_median_ms"}
    assert report["plans"] + report["failures"] == 3
    assert report["median_ms"] > 0


def test_bench_times_seeds_that_give_up(tmp_path, capsys):
    cfg = tmp_path / "one-try.json"
    cfg.write_text(json.dumps({"max_attempts": 1}))  # seed 0 gives up on its first attempt
    rc, out, _ = run(capsys, "--config", str(cfg), "bench", "-n", "1")
    assert rc == 0
    report = json.loads(out)
    assert (report["plans"], report["failures"]) == (0, 1)
    assert report["failure_median_ms"] > 0
    assert report["median_ms"] is None and report["p95_ms"] is None


def test_bench_single_seed_p95_equals_median(capsys):
    rc, out, _ = run(capsys, "bench", "-n", "1")
    assert rc == 0
    report = json.loads(out)
    assert report["p95_ms"] == report["median_ms"]


def test_bench_trace_adds_candidate_stats(capsys):
    rc, out, _ = run(capsys, "bench", "-n", "4", "--trace")
    assert rc == 0
    report = json.loads(out)
    assert {"corridor_plans", "mean_candidates", "max_candidates"} <= set(report)


def test_bench_trace_tallies_rejections_and_winner_area(capsys):
    rc, out, _ = run(capsys, "bench", "-n", "5", "--trace")
    assert rc == 0
    report = json.loads(out)
    assert report["plans"] + report["failures"] == 5
    area = report["winner_area"]
    assert 0 < area["min"] <= area["median"] <= area["max"]
    counts = report["rejections"]
    assert counts and all(n > 0 for n in counts.values())
    # Most frequent first, ties by reason.
    assert list(counts.items()) == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def test_bench_trace_reports_corridor_share(capsys):
    # The corridor's area over the footprint's, over the corridor plans; the
    # untraced report keeps its keys.
    _, out, _ = run(capsys, "bench", "-n", "5")
    assert "corridor_share" not in json.loads(out)
    rc, out, _ = run(capsys, "bench", "-n", "5", "--trace")
    assert rc == 0
    share = json.loads(out)["corridor_share"]
    assert set(share) == {"median", "p95", "max"}
    assert 0 < share["median"] <= share["p95"] <= share["max"] < 1


def test_bench_trace_counts_attempts_under_config(tmp_path, capsys):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"min_room_width": 2.2}))
    rc, out, _ = run(capsys, "--config", str(cfg), "bench", "-n", "5", "--trace")
    assert rc == 0
    report = json.loads(out)
    assert report["plans"] + report["failures"] == 5
    assert report["mean_attempts"] >= 1


def test_bench_trace_reports_attempts_histogram_and_give_up_rejections(tmp_path, capsys):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"min_room_width": 2.2}))
    rc, out, _ = run(capsys, "--config", str(cfg), "bench", "-n", "5", "--trace")
    assert rc == 0
    report = json.loads(out)
    assert report["plans"] and report["failures"]  # seeds 0-4 both deliver and give up here
    histogram = {int(k): n for k, n in report["attempts_histogram"].items()}
    assert list(histogram) == sorted(histogram)
    assert sum(histogram.values()) == report["plans"]
    mean = sum(k * n for k, n in histogram.items()) / report["plans"]
    assert round(mean, 2) == report["mean_attempts"]
    # Every seed that gives up spends the whole budget, each attempt rejected by one stage.
    give_up = report["give_up_rejections"]
    assert set(give_up) == {"sampling", "layout", "corridor", "openings"}
    assert sum(give_up.values()) == report["failures"] * GenConfig().max_attempts
    assert give_up["layout"] > 0


def test_bench_trace_with_no_plans_reports_nulls(tmp_path, capsys):
    cfg = tmp_path / "one-try.json"
    cfg.write_text(json.dumps({"max_attempts": 1}))  # seed 0 gives up on its first attempt
    rc, out, _ = run(capsys, "--config", str(cfg), "bench", "-n", "1", "--trace")
    assert rc == 0
    report = json.loads(out)
    assert (report["plans"], report["failures"], report["corridor_plans"]) == (0, 1, 0)
    assert report["winner_area"] is None and report["mean_attempts"] is None
    assert report["corridor_share"] is None
    assert report["max_candidates"] is None and report["rejections"] == {}
    assert report["attempts_histogram"] == {}
    assert sum(report["give_up_rejections"].values()) == 1


# ------------------------------------------------------------------ gallery


def test_gallery_writes_contact_sheet(tmp_path, capsys):
    out_file = tmp_path / "sheet.svg"
    rc, out, _ = run(
        capsys, "gallery", "--seeds", "1..4", "--columns", "2", "--out", str(out_file)
    )
    assert rc == 0
    # One room-mix line per plan; seed 1 is the two-room golden house.
    assert "seed      1  5.6x3.1 m  open      kitchen, living_room" in out.splitlines()
    assert "skipped (no plan within budget)" not in out
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert "seed 1" in svg and "seed 3" in svg
    again = tmp_path / "again.svg"
    run(capsys, "gallery", "--seeds", "1..4", "--columns", "2", "--out", str(again))
    assert again.read_bytes() == out_file.read_bytes()


def test_gallery_all_seeds_failing(tmp_path, capsys):
    out_file = tmp_path / "none.svg"
    rc, out, err = run(
        capsys, "gallery", "--seeds", f"{BAD_SEED}..{BAD_SEED}", "--out", str(out_file)
    )
    assert rc == 1
    assert not out_file.exists()
    assert "no plans to draw" in err
    assert f"skipped (no plan within budget): [{BAD_SEED}]" in out


# ------------------------------------------------------------ configuration


def test_config_flag_changes_output(tmp_path, capsys):
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps(GenConfig(corridor_width=1.2).to_json()))
    default_dir, wide_dir = tmp_path / "default", tmp_path / "wide"
    run(capsys, "generate", "--seed", str(CORRIDOR_SEED), "--out", str(default_dir))
    rc, _, _ = run(
        capsys,
        "--config",
        str(cfg_path),
        "generate",
        "--seed",
        str(CORRIDOR_SEED),
        "--out",
        str(wide_dir),
    )
    assert rc == 0
    a = json.loads((default_dir / f"plan-{CORRIDOR_SEED:06d}.json").read_text())
    b = json.loads((wide_dir / f"plan-{CORRIDOR_SEED:06d}.json").read_text())
    assert a["config_fingerprint"] != b["config_fingerprint"]


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "env.json"
    cfg_path.write_text(json.dumps(GenConfig(door_width=0.8).to_json()))
    monkeypatch.setenv("PLANWRIGHT_CONFIG", str(cfg_path))
    out_dir = tmp_path / "plans"
    rc, _, _ = run(capsys, "generate", "--seed", "1", "--out", str(out_dir))
    assert rc == 0
    doc = json.loads((out_dir / "plan-000001.json").read_text())
    assert doc["config_fingerprint"] == GenConfig(door_width=0.8).fingerprint()


def test_config_flag_beats_env(tmp_path, capsys, monkeypatch):
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps(GenConfig().to_json()))
    monkeypatch.setenv("PLANWRIGHT_CONFIG", str(tmp_path / "nonexistent.json"))
    out_dir = tmp_path / "plans"
    rc, _, _ = run(
        capsys, "--config", str(flag_cfg), "generate", "--seed", "1", "--out", str(out_dir)
    )
    assert rc == 0


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc, _, err = run(
        capsys, "--config", str(tmp_path / "nope.json"), "generate", "--seed", "1"
    )
    assert rc == 2
    assert "config error" in err


def test_invalid_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"door_width": -1}))
    rc, _, err = run(capsys, "--config", str(bad), "generate", "--seed", "1")
    assert rc == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"areas": null}',
        '{"max_attempts": 1e999}',
        '{"door_width": 0.9004}',
        '{"door_width": true}',
        '{"max_attempts": true}',
        '{"areas": {}}',
        '{"window_banned": {"bathroom": 1}}',
        '{"areas": {"kitchen": {"constant": NaN}}}',
        '{"max_room_aspect": Infinity}',
        '{"max_footprint_aspect": Infinity}',
        '{"footprint_aspect": {"uniform": [1, Infinity]}}',
        '{"max_attempts": 2.5}',
        '{"footprint_aspect": {"uniform": [2.5, 3.0]}, "max_footprint_aspect": 2.0}',
        '{"footprint_aspect": {"uniform": [2.0, 3.0]}, "max_footprint_aspect": 2.0}',
        json.dumps({"joint_table": NAN_CELL_TABLE}),
        json.dumps({"joint_table": OVERFLOWING_TABLE}),
        '{"door_width": 1e308}',
        '{"corridor_width": 1e308}',
        '{"window_width": 1e308}',
        '{"min_room_width": 1e308}',
        '{"areas": {"kitchen": {"constant": 1e308}}}',
    ],
    ids=[
        "null-areas",
        "infinite-attempts",
        "off-grid-length",
        "bool-length",
        "bool-attempts",
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
def test_malformed_config_is_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, _, err = run(capsys, "--config", str(bad), "generate", "--seed", "1")
    assert rc == 2
    assert "config error" in err
