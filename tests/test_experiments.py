"""Experiment orchestration: configs, pipeline outputs, reruns, CLI."""
import ast
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsense import cli, clutter, detector, echo, music
from mtsense import experiments as ex
from mtsense.echo import read_tensor, synthesize_echo
from mtsense.beams import beam_for_angle, default_plan, g_tilde
from mtsense.scene import (C0, MAX_SYMBOLS, RANGE_SUPPORT_M, SPEED_SUPPORT_MPS, SystemConfig,
                           Target, complex_normal)
from mtsense.scene import blocks as scene_blocks
from mtsense.scene import thread_map as scene_thread_map

# a deliberately small setup so every pipeline test stays well under a second
SMALL_RAW = {
    "system": {"m_tx": 8, "m_rx": 4, "n_sub": 8, "n_sym": 12,
               "noise_var": 0.01},
    "scene": {"kind": "random", "n_targets": 1, "n_scatterers": 5, "seed": 3},
    "scan": {"n_beams": 9, "span_deg": 40.0},
    "detector": {"calib_trials": 20},
    "seed": 5,
}


def small_config(**overrides):
    raw = json.loads(json.dumps(SMALL_RAW))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in raw:
            raw[key].update(val)
        else:
            raw[key] = val
    return ex.config_from_dict(raw)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration plumbing

def test_config_round_trip_and_hash():
    config = small_config()
    again = ex.config_from_dict(config.to_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()
    changed = small_config(detector={"p_fa": 0.2})
    assert changed.config_hash() != config.config_hash()
    assert len(config.config_hash()) == 16


def _designs(order, cutoff):
    try:
        clutter.design_butterworth_highpass(order, cutoff)
    except ValueError:
        return False
    return True


@st.composite
def _valid_configs(draw):
    """Experiment configs that satisfy every load rule, all fields drawn."""
    m_rx = draw(st.integers(2, 32))
    order = draw(st.integers(1, 8))
    n_sym = draw(st.integers(3 * order + 2, 64))
    # unambiguous range c/(2 delta_f) beyond the 7 m range support, and
    # unambiguous speed lambda/(4 T_total) beyond the 4 m/s speed support
    f_c = draw(st.floats(1e9, 1e11))
    delta_f = draw(st.floats(1e5, 0.99 * C0 / (2 * RANGE_SUPPORT_M[1])))
    max_t_total = C0 / f_c / (4 * SPEED_SUPPORT_MPS[1])
    n_beams, span_deg = draw(st.integers(1, 121)), draw(st.floats(0.5, 89.5))
    kind, n_targets = draw(st.sampled_from(ex.SCENE_KINDS)), draw(st.integers(0, 5))
    step = 2 * span_deg / max(n_beams - 1, 1) if kind == "random" and n_targets > 1 else 0
    return ex.ExperimentConfig(
        system=SystemConfig(
            m_tx=draw(st.integers(2, 128)), m_rx=m_rx,
            n_sub=draw(st.integers(2, 64)), n_sym=n_sym, f_c=f_c, delta_f=delta_f,
            t_guard=draw(st.floats(0.0, 0.99 * (max_t_total - 1 / delta_f))),
            d_spacing=draw(st.none() | st.floats(1e-4, 1.0)),
            noise_var=draw(st.floats(0.0, 1e3))),
        scene=ex.SceneSpec(
            kind=kind, n_targets=n_targets,
            n_scatterers=draw(st.integers(0, 500)),
            seed=draw(st.integers(0, 2**31)),
            min_separation_deg=draw(st.floats(step, step + 10.0))),
        scan=ex.ScanSpec(n_beams=n_beams, span_deg=span_deg),
        filter=ex.FilterSpec(order=order, cutoff=draw(
            st.floats(0.001, 0.499).filter(lambda c: _designs(order, c)))),
        detector=ex.DetectorSpec(
            p_fa=draw(st.floats(1e-6, 0.999)),
            calib_trials=draw(st.integers(10, 10_000)),
            n_thresholds=draw(st.integers(1, 1001))),
        sweep=ex.SweepSpec(n_sym_synth=draw(st.integers(n_sym + 1, 256))),
        search_rel_threshold=draw(st.floats(1.001, 100.0)),
        snr_list_db=tuple(draw(st.lists(st.floats(-60.0, 60.0), min_size=1,
                                        max_size=6, unique=True))),
        n_trials=draw(st.integers(1, 10_000)),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_valid_configs())
def test_config_round_trip_for_any_valid_config(config):
    again = ex.config_from_dict(config.to_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ex.config_from_dict({"bogus": 1})
    with pytest.raises(ValueError):
        ex.config_from_dict({"system": {"bogus": 1}})
    with pytest.raises(ValueError):
        ex.config_from_dict({"system": 7})
    with pytest.raises(ValueError):
        ex.config_from_dict({"scene": {"kind": "martian"}})
    # the detector's clutter model is the beam's boresight direction alone,
    # so range settings and an angle count are unknown keys
    for raw in ({"n_range": 3}, {"r_max": 3}, {"n_angle": 1}):
        with pytest.raises(ValueError, match=next(iter(raw))):
            ex.config_from_dict({"detector": raw})


@pytest.mark.parametrize("field, bad", [
    ("calib_trials", 20.5), ("calib_trials", 20.0), ("calib_trials", 9),
    ("calib_trials", "20"), ("calib_trials", True), ("calib_trials", None),
    ("n_thresholds", 0), ("n_thresholds", -1), ("n_thresholds", 2.5),
    ("n_thresholds", "5"), ("n_thresholds", True),
    ("p_fa", 0.0), ("p_fa", 1.0), ("p_fa", -0.1), ("p_fa", math.nan),
    ("p_fa", "0.1"), ("p_fa", True), ("p_fa", None),
])
def test_config_rejects_bad_detector_values(field, bad):
    with pytest.raises(ValueError, match=f"detector.{field}"):
        ex.config_from_dict({"detector": {field: bad}})


def test_config_accepts_good_detector_values():
    det = ex.config_from_dict({"detector": {"calib_trials": np.int64(10),
                                            "n_thresholds": 1, "p_fa": 1e-3}}).detector
    assert (det.calib_trials, det.n_thresholds, det.p_fa) == (10, 1, 1e-3)


def test_cli_detect_fails_on_fractional_calib_trials(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_RAW, detector={"calib_trials": 20.5})))
    rc = cli.main(["detect", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "detector.calib_trials" in err["message"]
    assert not (tmp_path / "out" / "detections.csv").exists()


def test_cli_detect_rejects_bad_p_fa_flag(tmp_path, capsys):
    rc = cli.main(["detect", "--p-fa", "1.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "detector.p_fa" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("field, bad", [
    ("n_trials", 0), ("n_trials", -3), ("n_trials", "5"), ("n_trials", 2.0),
    ("n_trials", True),
    ("search_rel_threshold", 0.0), ("search_rel_threshold", -1.0),
    ("search_rel_threshold", math.inf), ("search_rel_threshold", math.nan),
    ("search_rel_threshold", "3"),
    ("seed", 1.5), ("seed", "7"), ("seed", None), ("seed", -1),
    ("snr_list_db", [0, 0]), ("snr_list_db", [-0.0, 0.0]),
])
def test_config_rejects_bad_top_level_values(field, bad):
    with pytest.raises(ValueError, match=field):
        ex.config_from_dict({field: bad})
    with pytest.raises(ValueError, match=field):
        ex.ExperimentConfig(**{field: bad})


def test_config_accepts_good_top_level_values():
    config = ex.config_from_dict({"n_trials": 1, "search_rel_threshold": 2,
                                  "seed": np.int64(4)})
    assert (config.n_trials, config.search_rel_threshold, config.seed) == (1, 2, 4)


@pytest.mark.parametrize("raw, name", [
    ({"scene": {"n_scatterers": "5"}}, "scene.n_scatterers"),
    ({"scene": {"n_targets": 1.5}}, "scene.n_targets"),
    ({"scene": {"kind": 3}}, "scene.kind"),
    ({"scan": {"n_beams": 2.5}}, "scan.n_beams"),
    ({"scan": {"span_deg": "60"}}, "scan.span_deg"),
    ({"system": {"noise_var": "x"}}, "system.noise_var"),
    ({"system": {"m_rx": 4.0}}, "system.m_rx"),
    ({"system": {"f_c": math.inf}}, "system.f_c"),
    ({"system": {"d_spacing": "half"}}, "system.d_spacing"),
    ({"filter": {"order": "2"}}, "filter.order"),
    ({"filter": {"cutoff": "0.04"}}, "filter.cutoff"),
    ({"filter": {"cutoff": None}}, "filter.cutoff"),
    ({"sweep": {"n_sym_synth": 20.5}}, "sweep.n_sym_synth"),
    ({"sweep": {"n_sym_synth": True}}, "sweep.n_sym_synth"),
    ({"snr_list_db": "10"}, "snr_list_db"),
    ({"snr_list_db": []}, "snr_list_db"),
    ({"snr_list_db": [10.0, True]}, "snr_list_db"),
    ({"snr_list_db": [math.nan]}, "snr_list_db"),
    ({"snr_list_db": ["10"]}, "snr_list_db"),
    ({"snr_list_db": [-4000.0]}, "snr_list_db"),
    ({"snr_list_db": [4000.0]}, "snr_list_db"),
])
def test_config_rejects_bad_field_types(raw, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        ex.config_from_dict(raw)


@pytest.mark.parametrize("section, values", [
    ("system", {"m_tx": np.int64(8), "f_c": 28e9, "noise_var": 2,
                "d_spacing": 0.005}),
    ("scene", {"kind": "random", "n_targets": 1, "min_separation_deg": 6}),
    ("scan", {"n_beams": 9, "span_deg": 40}),
    ("filter", {"order": 3, "cutoff": 0.05}),
    ("detector", {"p_fa": 0.05}),
    ("sweep", {"n_sym_synth": 32}),
    ("filter", {"order": 6, "cutoff": 0.25}),     # 18 transient, 2 of 20 left
    ("sweep", {"n_sym_synth": MAX_SYMBOLS}),
])
def test_config_accepts_good_field_types(section, values):
    spec = getattr(ex.config_from_dict({section: values}), section)
    assert {k: getattr(spec, k) for k in values} == values


@pytest.mark.parametrize("raw, name", [
    ({"search_rel_threshold": 0.5}, "search_rel_threshold"),
    ({"search_rel_threshold": 1.0}, "search_rel_threshold"),
    ({"filter": {"order": 0}}, "filter.order"),
    ({"filter": {"order": 9}}, "filter.order"),
    ({"filter": {"order": 7}}, "filter.order"),   # 21 transient, n_sym 20
    ({"filter": {"cutoff": 0.0}}, "filter.cutoff"),
    ({"filter": {"cutoff": 0.6}}, "filter.cutoff"),
    ({"filter": {"warmup": 6}}, "warmup"),        # removed: unknown key
    ({"sweep": {"n_sym_synth": 20}}, "sweep.n_sym_synth"),
    ({"system": {"d_spacing": 0.0}}, "d_spacing"),
    ({"system": {"d_spacing": -0.0025}}, "d_spacing"),
    ({"filter": {"order": 3}, "system": {"n_sym": 9}}, "system.n_sym"),
    ({"system": {"n_sym": 7}}, "system.n_sym"),   # 6 transient, 1 left
    # frames past MAX_SYMBOLS fail at load, before any filter matrix is built
    ({"system": {"n_sym": MAX_SYMBOLS + 1}}, "system.n_sym"),
    ({"sweep": {"n_sym_synth": MAX_SYMBOLS + 1}}, "sweep.n_sym_synth"),
])
def test_config_rejects_out_of_range_values(raw, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        ex.config_from_dict(raw)


@pytest.mark.parametrize("command, raw, name", [
    ("scan", {"search_rel_threshold": 0.5}, "search_rel_threshold"),
    ("estimate", {"filter": {"warmup": -1}}, "warmup"),
    ("scan", {"system": {"d_spacing": 0.0}}, "d_spacing"),
    ("scan", {"scene": {"seed": -1}}, "scene.seed"),
    ("detect", {"system": {"delta_f": 40e6}}, "system.delta_f"),
])
def test_cli_fails_at_load_naming_the_field(tmp_path, capsys, command, raw, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli.main([command, "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert name in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, name", [
    ({"system": {"n_sub": 1}}, "system.n_sub"),
    ({"system": {"m_tx": True}}, "system.m_tx"),
    ({"system": {"f_c": 0.0}}, "system.f_c"),
    ({"system": {"delta_f": -1.0}}, "system.delta_f"),
    ({"system": {"t_guard": -1e-6}}, "system.t_guard"),
    ({"system": {"noise_var": -0.5}}, "system.noise_var"),
    ({"scene": {"kind": "martian"}}, "scene.kind"),
    ({"scene": {"n_targets": -1}}, "scene.n_targets"),
    ({"scene": {"n_scatterers": -5}}, "scene.n_scatterers"),
    ({"scene": {"seed": -1}}, "scene.seed"),
    ({"scan": {"span_deg": 95}}, "scan.span_deg"),
    ({"scan": {"span_deg": 0}}, "scan.span_deg"),
    ({"scan": {"n_beams": 0}}, "scan.n_beams"),
    ({"seed": -1}, "seed"),
])
def test_single_field_rules_name_the_field(raw, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be .+, got "):
        ex.config_from_dict(raw)


def test_system_config_checks_its_own_fields():
    # library code builds SystemConfig directly, without an ExperimentConfig
    with pytest.raises(ValueError,
                       match=rf"^system\.n_sym must be an integer in 2\.\.{MAX_SYMBOLS}, got 1$"):
        SystemConfig(n_sym=1)


@pytest.mark.parametrize("raw, name", [
    # unambiguous range c/(2 delta_f) = 3.75 m inside the 1-7 m range support
    ({"system": {"delta_f": 40e6}}, "system.delta_f"),
    ({"system": {"delta_f": 40e6}, "scene": {"kind": "random", "n_targets": 0}},
     "system.delta_f"),
    # unambiguous speed lambda/(4 T_total) = 3.1 m/s inside the 1-4 m/s support
    ({"system": {"t_guard": 4e-4}}, "system.t_guard"),
    ({"scene": {"kind": "random", "n_targets": 2, "min_separation_deg": 1.9}},
     "scene.min_separation_deg"),       # beam step 2 * 60 / 60 = 2 degrees
    ({"filter": {"order": 8, "cutoff": 0.001}, "system": {"n_sym": 64},
      "sweep": {"n_sym_synth": 128}}, "filter.order and filter.cutoff"),
])
def test_cross_field_rules_name_the_fields(raw, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        ex.config_from_dict(raw)


@pytest.mark.parametrize("raw", [
    {"system": {"delta_f": 40e6}, "scene": {"kind": "empty"}},
    {"system": {"t_guard": 4e-4}, "scene": {"kind": "random", "n_targets": 0}},
    {"scene": {"kind": "random", "n_targets": 1, "min_separation_deg": 0.0}},
    {"scene": {"kind": "random", "n_targets": 2, "min_separation_deg": 2.0}},
    {"scene": {"kind": "random", "n_targets": 2, "min_separation_deg": 120.0},
     "scan": {"n_beams": 1}},
])
def test_cross_field_rules_skip_what_the_scene_lacks(raw):
    ex.config_from_dict(raw)


def test_readme_example_config_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    config = ex.config_from_dict(json.loads(example))
    assert config.seed == 3 and config.scene.kind == "reference"


@pytest.mark.parametrize("command, argv, raw, names", [
    ("scan", ["--seed", "-1"], {}, ["seed must be an integer >= 0, got -1"]),
    ("scan", [], {"scene": {"kind": "random", "n_targets": 40}},
     ["scene.n_targets", "scene.min_separation_deg"]),
    ("sweep-snr", [], {"scene": {"kind": "empty"}}, ["at least one target"]),
    ("crb", [], {"scene": {"kind": "empty"}}, ["at least one target"]),
    # the reference scene's first target lies at -48.30 deg
    ("sweep-snr", [], {"scan": {"span_deg": 30.0}},
     ["target 1 at -48.30 deg", "[-30.50, 30.50] deg", "scan.span_deg = 30 "]),
    ("roc", [], {"scan": {"span_deg": 30.0}},
     ["target 1 at -48.30 deg", "[-30.50, 30.50] deg", "scan.span_deg = 30 "]),
])
def test_cli_writes_nothing_when_the_run_cannot_start(tmp_path, capsys, command, argv,
                                                      raw, names):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli.main([command, "--config", str(cfg_path), *argv,
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert all(name in message for name in names), message
    assert not (tmp_path / "out").exists()


def test_detect_and_crb_accept_a_target_outside_the_scanned_sector(tmp_path):
    config = small_config(scene={"kind": "reference"}, scan={"span_deg": 30.0})
    assert ex.run_pipeline(config, tmp_path / "detect")["errors"] == []
    assert ex.crb_experiment(config, tmp_path / "crb")["outputs"] == ["crb.json"]


@pytest.mark.parametrize("command", ["scan", "sweep-snr"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--threads", threads, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_seed_is_recorded_in_the_manifest_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_RAW))
    assert cli.main(["scan", "--config", str(cfg_path), "--seed", "11",
                     "--out-dir", str(tmp_path / "flag")]) == 0
    manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 11
    # the recorded config alone reproduces the run
    cfg_path.write_text(json.dumps(manifest["config"]))
    assert cli.main(["scan", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "again")]) == 0
    again = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert again["config_hash"] == manifest["config_hash"]
    assert (tmp_path / "again" / "spectrum.csv").read_bytes() == \
        (tmp_path / "flag" / "spectrum.csv").read_bytes()


def test_config_snr_list_becomes_float_tuple():
    config = ex.config_from_dict({"snr_list_db": [10, -5.5]})
    assert config.snr_list_db == (10.0, -5.5)
    assert ex.config_from_dict(config.to_dict()) == config


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_RAW))
    assert ex.load_config(path) == small_config()


def test_build_scene_kinds():
    cfg = SystemConfig()
    ref = ex.build_scene(ex.config_from_dict({"scene": {"kind": "reference",
                                                        "n_scatterers": 10}}),
                         cfg, seed=0)
    assert len(ref.targets) == 2 and len(ref.scatterers) == 10
    empty = ex.build_scene(ex.config_from_dict({"scene": {"kind": "empty"}}),
                           cfg, seed=0)
    assert not empty.targets and not empty.scatterers
    config = small_config()
    rnd1 = ex.build_scene(config, config.system, seed=5)
    rnd2 = ex.build_scene(config, config.system, seed=5)
    assert rnd1 == rnd2
    rnd3 = ex.build_scene(config, config.system, seed=6)
    assert rnd3 != rnd1


# ---------------------------------------------------------------------------
# scan pipeline

def test_pipeline_finds_planted_target(tmp_path):
    config = small_config()
    manifest = ex.run_pipeline(config, tmp_path)
    assert manifest["n_detections"] >= 1
    assert manifest["errors"] == []
    target_deg = manifest["scene"]["targets"][0]["theta_deg"]
    rows = read_rows(tmp_path / "detections.csv")
    assert rows[0] == ["b", "theta_deg", "range_m", "speed_mps", "t", "gamma",
                       "decision"]
    hits = [r for r in rows[1:] if r[6] == "1"]
    assert hits
    assert min(abs(float(r[1]) - target_deg) for r in hits) < 1.0
    for name in ("plan.csv", "spectrum.csv", "estimates.csv", "detections.csv",
                 "manifest.json"):
        assert (tmp_path / name).exists()


def test_pipeline_empty_scene(tmp_path):
    config = small_config(scene={"kind": "empty"})
    manifest = ex.run_pipeline(config, tmp_path)
    assert manifest["candidates"] == []
    assert manifest["n_detections"] == 0
    assert len(read_rows(tmp_path / "estimates.csv")) == 1   # header only
    assert len(read_rows(tmp_path / "detections.csv")) == 1


def test_pipeline_estimates_on_the_symbols_past_the_transient(tmp_path, monkeypatch):
    # the estimator gets each candidate's filtered cube without its first
    # 3 x order symbols, and nothing else
    config = ex.config_from_dict({"filter": {"order": 3}})
    cfg, filt = config.system, config.filter.build()
    estimate_candidates, seen = music.estimate_candidates, []

    def recorded(cubes, scans, cfg):
        seen.append((cubes.copy(), list(scans)))
        return estimate_candidates(cubes, scans, cfg)
    monkeypatch.setattr(music, "estimate_candidates", recorded)
    manifest = ex.run_pipeline(config, tmp_path, last_stage="estimate")
    ((cubes, scans),) = seen
    assert scans == manifest["candidates"] and len(scans) == 2
    assert cubes.shape == (2, cfg.m_rx, cfg.n_sub, cfg.n_sym - 3 * 3)
    plan = default_plan(cfg)
    scene = ex.build_scene(config, cfg, config.seed)
    for cube, b in zip(cubes, scans):
        y = synthesize_echo(scene, plan, b, cfg, seed=config.seed)
        want = clutter.filter_symbols(y / g_tilde(plan, b, cfg), filt)
        assert cube.tobytes() == want[..., 9:].tobytes()


def test_pipeline_stage_cutoff(tmp_path):
    config = small_config()
    manifest = ex.run_pipeline(config, tmp_path / "a", last_stage="spectrum")
    assert manifest["outputs"] == ["plan.csv", "spectrum.csv"]
    assert not (tmp_path / "a" / "estimates.csv").exists()
    assert "candidates" in manifest
    # the scan pass keeps no cubes, so it has no synthesize-only or filter-only stop
    for stage in ("synthesize", "filter", "confabulate"):
        with pytest.raises(ValueError, match=f"unknown stage '{stage}'"):
            ex.run_pipeline(config, tmp_path / stage, last_stage=stage)
        assert not (tmp_path / stage).exists()


def test_stage_seconds_name_each_layer_the_command_runs(tmp_path):
    config = small_config()
    scan = ex.run_pipeline(config, tmp_path / "scan", last_stage="spectrum")
    full = ex.run_pipeline(config, tmp_path / "detect", threads=2)
    assert full["candidates"]
    assert sorted(scan["stage_seconds"]) == ["filter", "spectrum", "synthesize"]
    assert sorted(full["stage_seconds"]) == ["detect", "estimate", "filter", "spectrum",
                                             "synthesize"]
    for manifest in (scan, full):
        assert all(s >= 0 for s in manifest["stage_seconds"].values())


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_pass_memory_does_not_grow_with_the_beams(tmp_path, threads):
    # the scan pass keeps one power per beam and one block buffer per worker:
    # 40 more beams must not hold even 8 more cubes at the peak
    cfg = SystemConfig()
    cube_bytes = cfg.m_rx * cfg.n_sub * cfg.n_sym * np.dtype(complex).itemsize
    peak = {}
    for n_beams in (21, 61):
        config = ex.config_from_dict({"scan": {"n_beams": n_beams}})
        tracemalloc.start()
        try:
            ex.run_pipeline(config, tmp_path / str(n_beams), threads=threads,
                            last_stage="spectrum")
            peak[n_beams] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[61] - peak[21] < 8 * cube_bytes


def test_pipeline_reruns_are_byte_identical(tmp_path):
    config = small_config()
    ex.run_pipeline(config, tmp_path / "one")
    ex.run_pipeline(config, tmp_path / "two")
    ex.run_pipeline(config, tmp_path / "thr", threads=3)
    for name in ("plan.csv", "spectrum.csv", "estimates.csv", "detections.csv"):
        ref = (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "two" / name).read_bytes() == ref
        assert (tmp_path / "thr" / name).read_bytes() == ref


def test_pipeline_isolates_a_candidate_that_fails_in_the_stacked_estimate(
        tmp_path, monkeypatch):
    # the first candidate's filtered cube turns non-finite where the pipeline
    # rebuilds the candidates after the search: that scan gets one errors
    # entry, the other keeps its rows
    config = ex.config_from_dict({"detector": {"calib_trials": 20}})
    ex.run_pipeline(config, tmp_path / "clean")
    peaks = []
    find_peaks, filter_symbols = clutter.find_peaks, clutter.filter_symbols

    def recorded(spectrum, rel_threshold):
        peaks[:] = find_peaks(spectrum, rel_threshold)
        return list(peaks)

    def poisoned(cubes, filt, out=None):
        filtered = filter_symbols(cubes, filt, out)
        if peaks:     # after the search: the candidates' stack
            assert len(cubes) == len(peaks)
            filtered[0, 0, 0, -1] = np.nan
        return filtered
    monkeypatch.setattr(clutter, "find_peaks", recorded)
    monkeypatch.setattr(clutter, "filter_symbols", poisoned)
    manifest = ex.run_pipeline(config, tmp_path / "bad")
    assert manifest["candidates"] == [6, 38]
    assert manifest["errors"] == [{"scan": 6, "stage": "estimate", "error": "ValueError",
                                   "message": "sample covariance has non-finite entries"}]
    for name in ("estimates.csv", "detections.csv"):
        clean = read_rows(tmp_path / "clean" / name)
        assert [r[0] for r in clean[1:]] == ["6", "38"]
        assert read_rows(tmp_path / "bad" / name) == [clean[0], clean[2]]


def test_pipeline_isolates_a_candidate_whose_angle_conversion_fails(
        tmp_path, monkeypatch):
    # root-MUSIC succeeds for both candidates, but the first one's psi_s has
    # no angle (as at d_spacing below half a wavelength, |psi_s| near 0.5):
    # that scan gets one errors entry, the other keeps its rows
    config = ex.config_from_dict({"detector": {"calib_trials": 20}})
    ex.run_pipeline(config, tmp_path / "clean")
    theta_from_psi_s, first = music.theta_from_psi_s, []

    def fails_for_the_first(psi_s, cfg):
        first[:] = first or [psi_s]
        if psi_s == first[0]:
            raise ValueError("psi_s outside the arcsin domain")
        return theta_from_psi_s(psi_s, cfg)
    monkeypatch.setattr(music, "theta_from_psi_s", fails_for_the_first)
    manifest = ex.run_pipeline(config, tmp_path / "bad")
    assert manifest["candidates"] == [6, 38]
    assert manifest["errors"] == [{"scan": 6, "stage": "estimate", "error": "ValueError",
                                   "message": "psi_s outside the arcsin domain"}]
    for name in ("estimates.csv", "detections.csv"):
        clean = read_rows(tmp_path / "clean" / name)
        assert [r[0] for r in clean[1:]] == ["6", "38"]
        assert read_rows(tmp_path / "bad" / name) == [clean[0], clean[2]]


def test_pipeline_drops_a_ghost_before_the_glrt(tmp_path, monkeypatch):
    # beam 6's estimate lands 3 deg off its boresight, outside its coverage,
    # as a sidelobe ghost's would: its record is not covered and carries no
    # error, so it keeps its estimates row but gets no GLRT and no errors entry
    config = ex.config_from_dict({"detector": {"calib_trials": 20}})
    plan = default_plan(config.system)
    estimate_candidates, estimate_frame, records = music.estimate_candidates, ex.estimate_frame, []

    def off_boresight(cubes, scans, cfg):
        return [replace(r, theta_hat=plan.directions[6] + math.radians(3.0))
                if r.scan_index == 6 else r for r in estimate_candidates(cubes, scans, cfg)]

    def recorded(*args):
        records[:] = estimate_frame(*args)
        return records
    monkeypatch.setattr(music, "estimate_candidates", off_boresight)
    monkeypatch.setattr(ex, "estimate_frame", recorded)
    manifest = ex.run_pipeline(config, tmp_path)
    assert manifest["candidates"] == [6, 38] and manifest["errors"] == []
    estimates = read_rows(tmp_path / "estimates.csv")[1:]
    assert [r[0] for r in estimates] == ["6", "38"]
    assert float(estimates[0][1]) == pytest.approx(math.degrees(plan.directions[6]) + 3.0)
    assert [r[0] for r in read_rows(tmp_path / "detections.csv")[1:]] == ["38"]
    ghost, target = records
    assert ghost.b == 6 and ghost.covered is False and ghost.error is None
    assert target.b == 38 and target.covered is True and target.error is None


def test_manifest_is_one_json_dumps_string(tmp_path):
    manifest = ex.run_pipeline(small_config(), tmp_path)
    assert (tmp_path / "manifest.json").read_text() == \
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_pipeline_seed_changes_results(tmp_path):
    config = small_config()
    ex.run_pipeline(replace(config, seed=5), tmp_path / "one", last_stage="spectrum")
    ex.run_pipeline(replace(config, seed=99), tmp_path / "two", last_stage="spectrum")
    a = (tmp_path / "one" / "spectrum.csv").read_bytes()
    b = (tmp_path / "two" / "spectrum.csv").read_bytes()
    assert a != b


def test_simulate_writes_readable_tensors(tmp_path):
    config = small_config()
    manifest = ex.simulate_experiment(config, tmp_path)
    files = sorted(p.name for p in tmp_path.glob("echo_b*.bin"))
    assert len(files) == config.scan.n_beams
    assert set(manifest["outputs"]) == set(files) | {"plan.csv"}
    cfg = config.system
    plan = default_plan(cfg, n_beams=config.scan.n_beams,
                        span_deg=config.scan.span_deg)
    scene = ex.build_scene(config, cfg, config.seed)
    back, b = read_tensor(tmp_path / "echo_b004.bin", cfg)
    fresh = synthesize_echo(scene, plan, 4, cfg, seed=config.seed)
    assert np.array_equal(back, fresh)
    assert b == 4


def test_simulate_threads_write_identical_tensors(tmp_path):
    # the pool's first syntheses race to build the scene's shared steering
    # factors; a short switch interval makes them interleave
    config = small_config()
    ex.simulate_experiment(config, tmp_path / "ser", threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ex.simulate_experiment(config, tmp_path / "par", threads=3)
    finally:
        sys.setswitchinterval(interval)
    names = [f"echo_b{b:03d}.bin" for b in range(config.scan.n_beams)]
    for name in names:
        assert (tmp_path / "par" / name).read_bytes() == \
            (tmp_path / "ser" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# steering factors: built once per element set and cfg, shared read-only

def _count_factor_builds(monkeypatch) -> list:
    """Replace echo.element_factors by a wrapper that records each build as
    (element kind, cfg, factors)."""
    builds = []
    build = echo.element_factors

    def counted(elements, cfg):
        f = build(elements, cfg)
        kind = "targets" if isinstance(elements[0], Target) else "scatterers"
        builds.append((kind, cfg, f))
        return f
    monkeypatch.setattr(echo, "element_factors", counted)
    return builds


_SYNTHESIZING = {"detect": ex.run_pipeline, "simulate": ex.simulate_experiment,
                 "roc": ex.roc_experiment, "sweep-snr": ex.sweep_snr}


@pytest.mark.parametrize("command", sorted(_SYNTHESIZING))
def test_commands_build_factors_once_per_element_set_and_cfg(tmp_path, monkeypatch,
                                                             command):
    # 9 beams, plus the H0 cubes of detect's calibrations and of roc: each
    # command still builds the targets' and the scatterers' factors once
    builds = _count_factor_builds(monkeypatch)
    config = small_config(snr_list_db=[15.0], n_trials=2, sweep={"n_sym_synth": 24})
    _SYNTHESIZING[command](config, tmp_path)
    if command == "detect":
        assert len(read_rows(tmp_path / "detections.csv")) > 1   # H0 calibration ran
    cfg = replace(config.system, n_sym=24) if command == "sweep-snr" else config.system
    assert sorted((kind, c) for kind, c, _ in builds) == [("scatterers", cfg),
                                                          ("targets", cfg)]
    for _, _, f in builds:
        for arr in vars(f).values():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


# ---------------------------------------------------------------------------
# sweep / roc / crb experiments

def test_sweep_csv_layout_and_crb_scaling(tmp_path):
    config = small_config(snr_list_db=[10.0, 20.0], n_trials=3,
                          sweep={"n_sym_synth": 24})
    ex.sweep_snr(config, tmp_path)
    rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0] == ["snr_db", "param", "mse", "crb"]
    body = rows[1:]
    assert len(body) == 2 * 3  # 2 SNRs x 3 params x 1 target
    assert {r[1] for r in body} == {"theta_1", "range_1", "speed_1"}
    by_key = {(float(r[0]), r[1]): (float(r[2]), float(r[3])) for r in body}
    for param in ("theta_1", "range_1", "speed_1"):
        crb10 = by_key[(10.0, param)][1]
        crb20 = by_key[(20.0, param)][1]
        assert crb10 == pytest.approx(10.0 * crb20, rel=1e-9)
        assert by_key[(10.0, param)][0] > 0.0


def test_sweep_threads_match_serial(tmp_path):
    config = small_config(snr_list_db=[15.0], n_trials=4,
                          sweep={"n_sym_synth": 24})
    ex.sweep_snr(config, tmp_path / "ser", threads=1)
    ex.sweep_snr(config, tmp_path / "par", threads=3)
    assert (tmp_path / "ser" / "sweep.csv").read_bytes() == \
        (tmp_path / "par" / "sweep.csv").read_bytes()


def test_sweep_names_the_snr_and_trial_of_a_failed_estimate(tmp_path, monkeypatch):
    # one Newton evaluation finds no root of a noisy matrix
    monkeypatch.setattr(music, "NEWTON_STEPS", 1)
    config = small_config(snr_list_db=[15.0], n_trials=2, sweep={"n_sym_synth": 24})
    with pytest.raises(RuntimeError, match="target 1 failed at 15 dB, trial 0: Newton") as info:
        ex.sweep_snr(config, tmp_path)
    assert isinstance(info.value.__cause__, music.RootNotFound)


def _sweep_setup(config):
    """(cfg, plan, scene, near beams, far beams, near sampler, far sampler,
    |gain|^2 of every beam) as sweep_snr builds them."""
    cfg = config.system
    plan = default_plan(cfg, n_beams=config.scan.n_beams, span_deg=config.scan.span_deg)
    scene = ex.build_scene(config, cfg, config.seed)
    coef, rows = echo.clean_factors(scene, plan.weights,
                                    replace(cfg, n_sym=config.sweep.n_sym_synth))
    gains = np.array([g_tilde(plan, b, cfg) for b in range(plan.n_beams)])
    coef /= gains[:, None, None, None]
    near = ex._reachable_beams(scene, plan)
    far = np.setdiff1d(np.arange(plan.n_beams), near)
    filt = config.filter.build()
    return (cfg, plan, scene, near, far,
            clutter.FilteredPowerSampler(coef[near], rows, filt, window=cfg.n_sym),
            clutter.FilteredPowerSampler(coef[far], rows, filt), np.abs(gains) ** 2)


def _unit_noise(config, trial, shape):
    """A trial's unit noise window: CN(0, 1) from the stream (seed, trial)."""
    return complex_normal(np.random.default_rng((config.seed, ex._SWEEP_NOISE_TAG, trial)),
                          1.0, shape)


def _snr_stream(config, trial, snr_db):
    """The stream of what one SNR of a trial draws apart, keyed by the SNR's value."""
    key = int(np.float64(snr_db).view(np.uint64))
    return np.random.default_rng((config.seed, ex._SWEEP_TAG, trial, key))


def _sweep_mse_per_trial(config):
    """sweep_snr's mse, one (SNR, trial) pair and one root-MUSIC estimate at a
    time: each pair scales its trial's unit noise window to the SNR and
    filters it, then forms every near window and the rest's mean directly,
    without the sampler's quadratics in the noise deviation."""
    cfg, plan, scene, near, far, near_power, far_power, gain2 = _sweep_setup(config)
    n_t = len(scene.targets)
    truth = np.array([[t.theta, t.range, t.speed] for t in scene.targets])
    weights = near_power.weights[near_power.random]
    sq = np.empty((config.n_trials, len(config.snr_list_db), n_t, 3))
    for trial in range(config.n_trials):
        z = _unit_noise(config, trial, near_power.shape).reshape(near_power.clean_window.shape)
        for k, snr_db in enumerate(config.snr_list_db):
            sigma2 = 10.0 ** (-snr_db / 10.0)
            rng = _snr_stream(config, trial, snr_db)
            var = sigma2 / gain2[near]
            noise = np.sqrt(var)[:, None, None] * z
            window = near_power.clean_window + noise @ near_power.factor
            energy = np.sum(np.abs(near_power.clean_mean + noise @ near_power.mean_map) ** 2,
                            axis=1)
            chi2 = rng.noncentral_chisquare(
                near_power.dof, 2.0 * energy[:, near_power.random] / (var[:, None] * weights))
            power = np.empty(plan.n_beams)
            power[near] = (np.sum(np.abs(window) ** 2, axis=(1, 2)) + 0.5 * var * (chi2 @ weights)
                           + energy[:, ~near_power.random].sum(axis=1))
            power[far] = far_power.draw(rng, sigma2 / gain2[far])
            peaks = clutter.top_local_maxima(power, n_t)
            for i, b in enumerate(ex._match_peaks_to_targets(peaks, scene, plan)):
                res = music.estimate_candidate(
                    window[near.index(b)].reshape(near_power.shape[1:]), b, cfg)
                sq[trial, k, i] = (np.array([res.theta_hat, res.range_hat, res.speed_hat])
                                   - truth[i]) ** 2
    mse = sq.mean(axis=0)
    return {(float(snr_db), f"{name}_{i + 1}"): float(mse[k, i, j])
            for k, snr_db in enumerate(config.snr_list_db) for i in range(n_t)
            for j, name in enumerate(("theta", "range", "speed"))}


def _assert_mse_close(rows, want):
    got = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0), key


def _trials_per_worker(monkeypatch):
    """A list that each sweep_snr call extends with the trial count of each
    worker's part, as the sweep hands its parts to the pool."""
    counts = []

    def counted(fn, items, threads):
        counts.append([len(part) for part in items])
        return scene_thread_map(fn, items, threads)
    monkeypatch.setattr(ex, "thread_map", counted)
    return counts


def test_sweep_blocks_match_the_per_trial_loop(tmp_path, monkeypatch):
    # 5 trials on 1, 2 and 3 threads: parts of 5, 2 + 3 and 1 + 2 + 2 trials
    config = small_config(scene={"n_targets": 2, "min_separation_deg": 15.0},
                          scan={"span_deg": 60.0}, snr_list_db=[0.0, 20.0], n_trials=5,
                          sweep={"n_sym_synth": 24})
    want = _sweep_mse_per_trial(config)
    counts = _trials_per_worker(monkeypatch)
    for threads in (1, 2, 3):
        ex.sweep_snr(config, tmp_path / str(threads), threads=threads)
        rows = read_rows(tmp_path / str(threads) / "sweep.csv")[1:]
        _assert_mse_close(rows, want)
        assert len(rows) == len(want) == 2 * 2 * 3
    assert counts == [[5], [2, 3], [1, 2, 2]]


def test_sweep_workers_reuse_their_buffers_across_blocks(tmp_path, monkeypatch):
    # 40 trials of 6 SNRs: 40 trials on one worker, 20 + 20 on two and
    # 13 + 13 + 14 on three, each worker reusing one set of buffers for all
    # its trials
    config = small_config(snr_list_db=[-30.0, -20.0, -10.0, 0.0, 10.0, 20.0], n_trials=40,
                          sweep={"n_sym_synth": 24})
    counts = _trials_per_worker(monkeypatch)
    for threads in (1, 2, 3):
        ex.sweep_snr(config, tmp_path / str(threads), threads=threads)
    assert counts == [[40], [20, 20], [13, 13, 14]]
    csv1 = (tmp_path / "1" / "sweep.csv").read_bytes()
    assert (tmp_path / "2" / "sweep.csv").read_bytes() == csv1
    assert (tmp_path / "3" / "sweep.csv").read_bytes() == csv1
    _assert_mse_close(read_rows(tmp_path / "1" / "sweep.csv")[1:], _sweep_mse_per_trial(config))


def test_sweep_windows_are_the_clean_windows_plus_the_scaled_unit_noise(tmp_path, monkeypatch):
    # every window the estimator reads, at each SNR, is its beam's clean window
    # plus sigma / |g| times the trial's unit window z F
    seen = []
    estimate = music.estimate_candidates

    def recording(cubes, scans, cfg):
        seen.append((cubes.copy(), list(scans)))
        return estimate(cubes, scans, cfg)
    monkeypatch.setattr(music, "estimate_candidates", recording)
    snrs = [0.0, 20.0, -10.0]
    config = small_config(scene={"n_targets": 2, "min_separation_deg": 15.0},
                          scan={"span_deg": 60.0}, snr_list_db=snrs, n_trials=3,
                          sweep={"n_sym_synth": 24})
    ex.sweep_snr(config, tmp_path)        # one worker: the trials in order
    cfg, _, _, near, _, near_power, _, gain2 = _sweep_setup(config)
    cubes = np.concatenate([c for c, _ in seen]).reshape(3, len(snrs), 2, *near_power.shape[1:])
    scans = np.reshape([b for _, s in seen for b in s], (3, len(snrs), 2))
    for trial in range(3):
        z = _unit_noise(config, trial, near_power.shape).reshape(near_power.clean_window.shape)
        unit = z @ near_power.factor
        for k, snr_db in enumerate(snrs):
            for i, b in enumerate(scans[trial, k]):
                s, j = math.sqrt(10.0 ** (-snr_db / 10.0) / gain2[b]), near.index(b)
                want = (near_power.clean_window[j] + s * unit[j]).reshape(near_power.shape[1:])
                np.testing.assert_allclose(cubes[trial, k, i], want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(want)))


_FAULTS = """
import gc, resource, sys
from mtsense import experiments as ex

def faults(n_trials, threads):
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ex.sweep_snr(ex.config_from_dict({"n_trials": n_trials}), sys.argv[1], threads=threads)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for threads in (1, 2):
    faults(6, threads)                    # warm: imports, caches, the allocator's pools
    print((faults(30, threads) - faults(6, threads)) / (6 * 24))
"""


def test_sweep_trials_fault_in_few_pages(tmp_path):
    # Minor page faults per extra (SNR, trial) pair of the default sweep, at
    # one and two worker threads. Temporaries of 1-2 MB per trial, freed and
    # allocated again, had the allocator return pages to the OS and fault them
    # in again: 680-780 faults per pair at one thread and 290-440 at two. With
    # the buffers each worker reuses from trial to trial this reads about 4
    # and 2. Root-MUSIC's one conjugate copy of each 1 MB block faults about
    # 41 times per pair if glibc's mmap threshold is pinned at 128 KB
    # (MALLOC_MMAP_THRESHOLD_), and none once the dynamic threshold has risen.
    pytest.importorskip("resource")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULTS, str(tmp_path)], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    one, two = map(float, proc.stdout.split())
    assert one < 450 and two < 100, (one, two)


def _rows_at(path, snr_db):
    lines = path.read_bytes().splitlines(keepends=True)
    return [line for line in lines[1:] if float(line.split(b",")[0]) == snr_db]


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_rows_of_an_snr_do_not_depend_on_the_snrs_after_it(tmp_path, threads):
    # nor on any other SNR listed: 5 trials of 0 dB alone, before 20 dB and after it
    for name, snrs in (("one", [0.0]), ("up", [0.0, 20.0]), ("down", [20.0, 0.0])):
        config = small_config(snr_list_db=snrs, n_trials=5, sweep={"n_sym_synth": 24})
        ex.sweep_snr(config, tmp_path / name, threads=threads)
    one = _rows_at(tmp_path / "one" / "sweep.csv", 0.0)
    assert len(one) == 3
    assert _rows_at(tmp_path / "up" / "sweep.csv", 0.0) == one
    assert _rows_at(tmp_path / "down" / "sweep.csv", 0.0) == one
    assert (_rows_at(tmp_path / "up" / "sweep.csv", 20.0)
            == _rows_at(tmp_path / "down" / "sweep.csv", 20.0))


@pytest.mark.parametrize("threads", [1, 3])
def test_roc_rows_of_an_snr_do_not_depend_on_the_snrs_after_it(tmp_path, threads):
    for name, snrs in (("one", [0.0]), ("two", [0.0, 10.0])):
        config = small_config(snr_list_db=snrs, n_trials=9, detector={"n_thresholds": 11})
        ex.roc_experiment(config, tmp_path / name, threads=threads)
    one = _rows_at(tmp_path / "one" / "roc.csv", 0.0)
    assert len(one) > 2
    assert _rows_at(tmp_path / "two" / "roc.csv", 0.0) == one


def test_sweep_and_roc_call_the_pool_once(tmp_path, monkeypatch):
    # one job list per command: the sweep's trials go to one thread_map, cut
    # into one contiguous part per worker thread, and so do the ROC's blocks
    calls = []

    def counted(fn, items, threads):
        calls.append(list(items))
        return scene_thread_map(fn, items, threads)
    monkeypatch.setattr(ex, "thread_map", counted)
    monkeypatch.setattr(detector, "thread_map", counted)
    config = small_config(snr_list_db=[0.0, 10.0, 20.0], n_trials=5,
                          sweep={"n_sym_synth": 24})
    ex.sweep_snr(config, tmp_path / "sweep", threads=2)
    assert [[len(part) for part in items] for items in calls] == [[2, 3]]   # trials per worker
    calls.clear()
    ex.roc_experiment(config, tmp_path / "roc", threads=2)
    n_jobs = 3 * 2 * len(scene_blocks(5))
    assert [len(items) for items in calls] == [len(scene_blocks(n_jobs, 2, n_jobs))]


def test_sweep_validates_synth_window():
    with pytest.raises(ValueError, match="sweep.n_sym_synth"):
        small_config(sweep={"n_sym_synth": 12})  # == n_sym


def test_reachable_beams_are_what_the_matcher_can_return():
    config = ex.ExperimentConfig()
    plan = default_plan(config.system, n_beams=config.scan.n_beams,
                        span_deg=config.scan.span_deg)
    scene = ex.build_scene(config, config.system, config.seed)
    covering = [beam_for_angle(plan, t.theta) for t in scene.targets]
    near = ex._reachable_beams(scene, plan)
    assert covering == [6, 38]
    assert near == [b for b in range(plan.n_beams)
                    if min(abs(b - c) for c in covering) <= ex._MATCH_STEPS]
    assert len(near) == 10
    peak_sets = [[]] + [[b] for b in range(plan.n_beams)]
    returned = {b for peaks in peak_sets
                for b in ex._match_peaks_to_targets(peaks, scene, plan)}
    assert returned == set(near)


def test_sweep_with_every_beam_reachable_samples_none(tmp_path, monkeypatch):
    # With three beams every beam lies within _MATCH_STEPS of the covering
    # beam: each trial draws the estimator's window of noise (the last n_sym
    # filtered symbols) for the whole stack, and no beam's power is sampled
    # without one.
    sizes = []

    def recorded(rng, var, size=None, out=None):
        sizes.append(size)
        return complex_normal(rng, var, size, out)
    monkeypatch.setattr(ex, "complex_normal", recorded)
    config = small_config(scan={"n_beams": 3}, snr_list_db=[10.0], n_trials=2,
                          sweep={"n_sym_synth": 24})
    manifest = ex.sweep_snr(config, tmp_path)
    assert (manifest["full_cube_beams"], manifest["sampled_beams"]) == (3, 0)
    cfg = config.system
    assert sizes == [(3, cfg.m_rx, cfg.n_sub, cfg.n_sym)] * 2
    assert all(math.isfinite(float(r[2])) for r in read_rows(tmp_path / "sweep.csv")[1:])


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None       # from here on, importing scipy raises ImportError
from mtsense import cli
for command in ("detect", "sweep-snr"):
    out = sys.argv[2] + "/" + command
    assert cli.main([command, "--config", sys.argv[1], "--out-dir", out]) == 0, command
"""


def test_cli_runs_without_scipy(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_RAW, snr_list_db=[10.0], n_trials=2,
                                        sweep={"n_sym_synth": 24})))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(cfg_path),
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "detect" / "detections.csv").is_file()
    assert (tmp_path / "sweep-snr" / "sweep.csv").is_file()


_IMPORTED = """
import json, sys
from mtsense import cli
for command in ("detect", "sweep-snr", "crb"):
    out = sys.argv[2] + "/" + command
    assert cli.main([command, "--config", sys.argv[1], "--out-dir", out]) == 0, command
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_imports_only_numpy_at_run_time(tmp_path):
    # the README's promise: scipy and hypothesis serve the tests, never a command
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_RAW, snr_list_db=[10.0], n_trials=2,
                                        sweep={"n_sym_synth": 24})))
    proc = subprocess.run([sys.executable, "-c", _IMPORTED, str(cfg_path), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "numpy" in modules and "mtsense.crb" in modules
    assert [m for m in modules if m.split(".")[0] in ("scipy", "hypothesis")] == []


def test_roc_experiment_csv(tmp_path):
    config = small_config(snr_list_db=[0.0], n_trials=30,
                          detector={"n_thresholds": 21})
    ex.roc_experiment(config, tmp_path)
    rows = read_rows(tmp_path / "roc.csv")
    assert rows[0] == ["snr_db", "gamma", "p_fa", "p_d"]
    body = [(float(r[0]), float(r[1]), float(r[2]), float(r[3]))
            for r in rows[1:]]
    assert body[0][1] == -math.inf and body[0][2:] == (1.0, 1.0)
    assert body[-1][1] == math.inf and body[-1][2:] == (0.0, 0.0)
    pfas = [r[2] for r in body]
    assert all(a >= b for a, b in zip(pfas, pfas[1:]))


def test_roc_threads_write_identical_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    raw = dict(SMALL_RAW, snr_list_db=[0.0, 10.0], n_trials=25)
    cfg_path.write_text(json.dumps(raw))
    for threads in ("1", "2"):
        rc = cli.main(["roc", "--config", str(cfg_path), "--threads", threads,
                       "--out-dir", str(tmp_path / threads)])
        assert rc == 0
    assert (tmp_path / "1" / "roc.csv").read_bytes() == \
        (tmp_path / "2" / "roc.csv").read_bytes()


def test_crb_experiment_json(tmp_path):
    config = small_config(snr_list_db=[0.0, 10.0])
    manifest = ex.crb_experiment(config, tmp_path)
    records = json.loads((tmp_path / "crb.json").read_text())
    assert [r["snr_db"] for r in records] == [0.0, 10.0]
    for rec in records:
        assert len(rec["crb_theta_rad2"]) == 1
        assert rec["crb_r_m2"][0] > 0.0
    assert manifest["include_scatterers"] is False
    # scatterers stripped by default
    assert manifest["scene"]["scatterers"] == []


# ---------------------------------------------------------------------------
# CLI

def test_cli_version_and_help():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_cli_detect_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_RAW))
    rc = cli.main(["detect", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out"), "--p-fa", "0.05"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "detect"
    assert "detections.csv" in summary["outputs"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["detector"]["p_fa"] == 0.05


@pytest.mark.parametrize("argv", [
    ["roc", "--p-fa", "0.1"],
    ["crb", "--threads", "2"],
])
def test_cli_rejects_flags_a_command_ignores(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_error_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    rc = cli.main(["scan", "--config", str(bad),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    rc = cli.main(["scan", "--config", str(tmp_path / "missing.json"),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1


def _traced_names() -> dict:
    """perfbench/tracing.py's TRACED table, read from the file without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED")


def test_traced_names_are_module_attributes():
    for mod_name, names in _traced_names().items():
        module = importlib.import_module(f"mtsense.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


_COMMAND_ENTRY = {
    "simulate": "simulate_experiment", "scan": "run_pipeline",
    "estimate": "run_pipeline", "detect": "run_pipeline", "roc": "roc_experiment",
    "crb": "crb_experiment", "sweep-snr": "sweep_snr",
}
_COMMON_MANIFEST_KEYS = {"library_version", "seed", "config_hash", "config", "scene",
                         "outputs", "stage_seconds", "errors"}


@pytest.mark.parametrize("command", sorted(_COMMAND_ENTRY))
def test_cli_command_writes_common_manifest(tmp_path, monkeypatch, command):
    # The benchmark traces experiments by replacing module attributes, so each
    # wrapped name must be reached through its attribute; count those calls.
    called = []
    for name in _traced_names()["experiments"]:
        fn = getattr(ex, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ex, name, counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL_RAW, snr_list_db=[10.0], n_trials=3,
                                        sweep={"n_sym_synth": 24})))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert _COMMON_MANIFEST_KEYS <= set(manifest)
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).is_file(), name
    want = {"load_config", "build_scene", _COMMAND_ENTRY[command]}
    if command == "sweep-snr":
        want.add("_sweep_filtered_stack")
        config = ex.load_config(cfg_path)
        plan = default_plan(config.system, n_beams=config.scan.n_beams,
                            span_deg=config.scan.span_deg)
        scene = ex.build_scene(config, config.system, config.seed)
        near = ex._reachable_beams(scene, plan)
        assert manifest["full_cube_beams"] == len(near)
        assert manifest["sampled_beams"] == config.scan.n_beams - len(near) > 0
    assert want <= set(called)


def test_cli_installed_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_RAW))
    proc = subprocess.run(
        [sys.executable, "-m", "mtsense.cli", "scan", "--config", str(cfg_path),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["outputs"] == ["plan.csv", "spectrum.csv"]
