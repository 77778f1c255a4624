"""Tests of the benchmark itself: span arithmetic, layer wiring, failure counting.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "detect-dense": {"scene": {"n_scatterers": 20}, "detector": {"calib_trials": 10}},
    "sweep-snr": {"scene": {"n_scatterers": 20}, "n_trials": 1, "snr_list_db": [20.0]},
    "crb-dense": {"scene": {"n_scatterers": 5}, "scan": {"n_beams": 5},
                  "snr_list_db": [0.0, 20.0]},
}


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, sizes={"tiny": TINY[name]})


def span(sid, parent, name, start, end, info=None):
    return (sid, parent, name, start, end, 0, "r", info)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        span(2, 1, "experiments.run_pipeline", 1.0, 4.0),
        span(3, 1, "detector.calibrate_gamma", 3.0, 6.0),   # overlaps span 2
        span(4, 2, "echo.synthesize_echo", 2.0, 3.0),
        span(5, 1, "beams.tx_gain", 9.5, 11.0),             # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 0.5)      # covered: [1, 6] and [9.5, 10]
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.5)


def test_layer_metrics_count_calls_and_distinct_inputs():
    spans = [
        span(1, None, "detector.calibrate_gamma", 0.0, 4.0),
        span(2, 1, "echo.synthesize_echo", 0.0, 1.0, {"elements": 3, "key": 7}),
        span(3, 1, "echo.synthesize_echo", 1.0, 2.0, {"elements": 3, "key": 7}),
        span(4, 1, "echo.synthesize_echo", 2.0, 3.5, {"elements": 5, "key": 8}),
        span(5, 1, tracing.OVERHEAD, 3.5, 4.0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["echo.synth_calls"] == 3
    assert m["echo.synth_elements"] == 11
    assert m["echo.synth_unique_ratio"] == pytest.approx(2 / 3)
    assert m["echo.synth_self_s"] == pytest.approx(3.5)
    assert m["detector.calibrate_self_s"] == pytest.approx(0.0)
    assert m["detector.glr_calls"] == 0
    assert m["crb.fim_gflops"] == 0.0


def test_span_stacks_are_per_thread():
    rec = tracing.Recorder("t")
    barrier = threading.Barrier(2, timeout=10)
    inner = rec.wrap("inner", lambda: barrier.wait())
    outer = rec.wrap("outer", lambda: inner())
    workers = [threading.Thread(target=outer) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s[0]: s for s in rec.spans}
    inners = [s for s in rec.spans if s[2] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s[1]]
        assert parent[2] == "outer" and parent[5] == s[5]   # same thread
    assert len({s[1] for s in inners}) == 2


def test_a_raising_call_keeps_its_span_and_unwinds_the_stack():
    rec = tracing.Recorder("t")

    def boom():
        raise ValueError("boom")

    failing = rec.wrap("failing", boom)
    with pytest.raises(ValueError):
        failing()
    assert [s[2] for s in rec.spans] == ["failing"]
    assert rec._stack() == []


@pytest.mark.parametrize("name,expect", [
    ("detect-dense", {"echo.synth_calls": 61 + 2 * 10, "detector.glr_calls": 2 * 10 + 2,
                      "detector.projector_builds": (2 * 10 + 2) * 16,
                      "detector.calibrate_calls": 2, "music.estimate_calls": 2,
                      "music.root_calls": 6, "clutter.filter_calls": 61,
                      "crb.fim_calls": 0}),
    ("sweep-snr", {"echo.synth_calls": 61, "scene.noise_calls": 20 + 1,
                   "clutter.filter_calls": 1, "music.estimate_calls": 2,
                   "crb.fim_calls": 2, "detector.glr_calls": 0,
                   "detector.projector_builds": 0, "detector.calibrate_calls": 0}),
    ("crb-dense", {"crb.fim_calls": 5 * 2, "crb.fim_unique_ratio": 0.5,
                   "echo.synth_calls": 0, "music.estimate_calls": 0,
                   "detector.glr_calls": 0, "detector.projector_builds": 0,
                   "detector.calibrate_calls": 0}),
])
def test_tiny_traced_run_records_each_layer(tmp_path, name, expect):
    result = run.benchmark(tiny(name), seed=3, seconds=0, trace=True, size="tiny",
                           work=tmp_path)
    problems = [p for p in result["problems"] if not p.startswith("no crb reference")]
    assert problems == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for key, value in expect.items():
        assert metrics[key] == value, key
    assert metrics["beams.tx_gain_calls"] > 0
    assert metrics["cli.main_s"] > 0
    if name == "detect-dense":
        assert metrics["experiments.stage.detect_s"] > 0
        assert metrics["echo.synth_unique_ratio"] == pytest.approx(63 / 81)
    if name == "sweep-snr":
        assert metrics["scene.noise_samples"] > 0
        assert metrics["clutter.samples_filtered"] > 0


def test_failed_run_counts_instead_of_aborting(tmp_path, monkeypatch):
    calls = []
    real = run.call_cli

    def second_call_fails(argv):
        calls.append(argv)
        if len(calls) == 2:
            argv = [str(tmp_path / "missing.json") if a.endswith("config.json") else a
                    for a in argv]
        return real(argv)

    monkeypatch.setattr(run, "call_cli", second_call_fails)
    w = tiny("sweep-snr")
    result = run.benchmark(w, seed=3, seconds=0, trace=False, size="tiny", work=tmp_path)
    assert result["attempted"] == 2 * len(w.stages)
    assert result["failed"] == len(w.stages)
    assert result["samples"] == 1
    assert "FileNotFoundError" in result["errors"][0]
    assert result["correct"]
    assert result["metrics"]["wall_s"]["value"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-snr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
