"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each test prints one PASS line with the measured numbers (visible under -s;
under plain -v the per-test PASSED/FAILED line is the verdict). Runtime
budgets are asserted inside the tests themselves.
"""
import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from mtsense import (beams, clutter, crb, detector, experiments, music)
from mtsense.echo import synthesize_echo
from mtsense.scene import (REFERENCE_TARGETS, Scatterer, Scene, SystemConfig,
                           Target, frequencies_target, reference_scene)

from test_music import companion_roots


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# 1. noiseless ground-truth recovery through the full pipeline

def test_criterion_1_noiseless_recovery(tmp_path):
    tic = time.perf_counter()
    config = experiments.config_from_dict({"system": {"noise_var": 0.0}, "seed": 1})
    manifest = experiments.run_pipeline(config, tmp_path)
    _, rows = read_rows(tmp_path / "detections.csv")
    hits = [r for r in rows if r[6] == "1"]
    assert manifest["n_detections"] == 2
    assert len(hits) == 2

    want = sorted(REFERENCE_TARGETS)    # (theta_deg, range_m, speed_mps)
    got = sorted((float(r[1]), float(r[2]), float(r[3])) for r in hits)
    for (gt, gr, gv), (wt, wr, wv) in zip(got, want):
        assert abs(gt - wt) < 0.1
        assert abs(gr - wr) < 0.02
        assert abs(gv - wv) < 0.02

    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    errs = [max(abs(g - w) for g, w in zip(gg, ww))
            for gg, ww in zip(got, want)]
    print(f"\nPASS criterion 1: 2/2 targets detected, worst component error "
          f"{max(errs):.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. clutter suppression on a stationary-only scene

def test_criterion_2_clutter_suppression():
    tic = time.perf_counter()
    cfg = SystemConfig(noise_var=0.0)
    plan = beams.default_plan(cfg)
    scene = reference_scene(cfg, n_scatterers=400, seed=7).without_targets()
    filt = clutter.design_butterworth_highpass(2, 0.04)
    worst_db = math.inf
    for b in range(plan.n_beams):
        y = synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
        tilde = clutter.normalize_by_gain(y, plan, b, cfg)
        out = clutter.filter_symbols(tilde, filt)
        pre = clutter.scan_spectrum([tilde])[0]
        kept = out[:, :, clutter.default_warmup(filt):]
        post = float(np.sum(np.abs(kept) ** 2)) / (kept.shape[1] * kept.shape[2])
        assert pre > 0.0
        assert post < pre * 1e-4          # >= 40 dB for every scan
        if post > 0.0:
            worst_db = min(worst_db, 10.0 * math.log10(pre / post))
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: worst per-scan suppression {worst_db:.1f} dB "
          f"(>= 40 required), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. beam search finds both targets at -30 dB SNR

def test_criterion_3_search_at_low_snr():
    tic = time.perf_counter()
    cfg = SystemConfig()
    plan = beams.default_plan(cfg)
    scene = reference_scene(cfg, n_scatterers=400, seed=7)
    filt = clutter.design_butterworth_highpass(2, 0.04)
    true_beams = sorted(beams.beam_for_angle(plan, t.theta)
                        for t in scene.targets)
    sigma2 = 1000.0                        # SNR_dB = 10 log10(1 / sigma2)
    master = 12345
    hits = 0
    for trial in range(20):
        checked = []
        for b in range(plan.n_beams):
            y = synthesize_echo(scene, plan, b, cfg, seed=(master, trial),
                                noise_var=sigma2)
            checked.append(clutter.filter_symbols(
                clutter.normalize_by_gain(y, plan, b, cfg), filt))
        spectrum = clutter.scan_spectrum(checked)
        peaks = sorted(clutter.top_local_maxima(spectrum, 2))
        if len(peaks) == 2 and all(abs(p - t) <= 1
                                   for p, t in zip(peaks, true_beams)):
            hits += 1
    elapsed = time.perf_counter() - tic
    assert hits >= 18                      # >= 90% of 20 trials
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: {hits}/20 trials located both targets within "
          f"one beam at -30 dB, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. root-MUSIC equals a dense grid search; the companion oracle's root set
#    pairs reciprocally

def test_criterion_4_root_music_oracle():
    tic = time.perf_counter()
    m, n_snap, step = 8, 32, 1e-5
    grid = np.arange(-0.5 + step, 0.5, step)
    k = np.arange(m)[:, None]
    steer = np.exp(2j * np.pi * k * grid[None, :])   # shared across cases

    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_pair = 0.0
    for i in range(100):
        psi = float(rng.uniform(-0.48, 0.48))
        phases = np.exp(2j * np.pi *
                        np.random.default_rng(3000 + i).random(n_snap))
        f = (np.exp(2j * np.pi * psi * k) * phases[None, :])[None]

        vn = music.noise_subspace(f)[0]
        proj = vn @ vn.conj().T
        null = np.sum(np.conj(steer) * (proj @ steer), axis=0).real
        psi_grid = float(grid[np.argmin(null)])
        (psi_root,) = music.root_music_frequency(f, +1)
        worst_gap = max(worst_gap, abs(psi_root - psi_grid))

        roots = companion_roots(f[0])
        for z in roots:
            worst_pair = max(worst_pair,
                             float(np.min(np.abs(roots - 1.0 / np.conj(z)))))
    elapsed = time.perf_counter() - tic
    assert worst_gap < 1e-4
    assert worst_pair < 1e-8
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: root vs grid gap {worst_gap:.2e} (< 1e-4), "
          f"pairing {worst_pair:.2e} (< 1e-8), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. estimator efficiency at the top swept SNR

def test_criterion_5_mse_near_crb(tmp_path):
    tic = time.perf_counter()
    config = experiments.config_from_dict(
        {"snr_list_db": [20.0], "n_trials": 100, "seed": 2})
    experiments.sweep_snr(config, tmp_path)
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 6                  # 2 targets x 3 parameters
    ratios = {r[1]: float(r[2]) / float(r[3]) for r in rows}
    for param, ratio in ratios.items():
        assert ratio < 2.0, f"{param}: MSE/CRB = {ratio:.3f}"
    elapsed = time.perf_counter() - tic
    assert elapsed < 600.0
    worst = max(ratios, key=ratios.get)
    print(f"\nPASS criterion 5: all MSE/CRB < 2 at 20 dB over 100 trials "
          f"(worst {worst} = {ratios[worst]:.3f}), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Fisher information internals

def _fd_jacobian(scene, plan, b, cfg, h=1e-6):
    def vec(s):
        return synthesize_echo(s, plan, b, cfg, noise_var=0.0).ravel()

    def bump(kind, idx, fieldname, d):
        if kind == "t":
            els = list(scene.targets)
            els[idx] = dataclasses.replace(
                els[idx], **{fieldname: getattr(els[idx], fieldname) + d})
            return Scene(tuple(els), scene.scatterers)
        els = list(scene.scatterers)
        els[idx] = dataclasses.replace(
            els[idx], **{fieldname: getattr(els[idx], fieldname) + d})
        return Scene(scene.targets, tuple(els))

    cols = []
    for fieldname in ("theta", "range", "speed"):
        for i in range(len(scene.targets)):
            cols.append((vec(bump("t", i, fieldname, +h))
                         - vec(bump("t", i, fieldname, -h))) / (2 * h))
    for fieldname in ("theta", "range"):
        for i in range(len(scene.scatterers)):
            cols.append((vec(bump("s", i, fieldname, +h))
                         - vec(bump("s", i, fieldname, -h))) / (2 * h))
    return np.stack(cols, axis=1)


def test_criterion_6_crb_internals():
    tic = time.perf_counter()
    cfg = SystemConfig(m_tx=4, m_rx=3, n_sub=4, n_sym=5, noise_var=0.5)
    plan = beams.default_plan(cfg, n_beams=7, span_deg=50.0)
    worst_rel = 0.0
    for i in range(50):
        rng = np.random.default_rng(9000 + i)
        scene = Scene(
            (Target(theta=float(rng.uniform(-0.7, 0.7)),
                    range=float(rng.uniform(1.5, 6.5)),
                    speed=float(rng.uniform(-4.0, 4.0)),
                    alpha=complex(rng.normal(), rng.normal())),),
            (Scatterer(theta=float(rng.uniform(-0.7, 0.7)),
                       range=float(rng.uniform(1.5, 6.5)),
                       alpha=complex(rng.normal(), rng.normal())),))
        b = int(rng.integers(0, plan.n_beams))
        jac = crb.jacobian_matrix(scene, plan, b, cfg)
        fd = _fd_jacobian(scene, plan, b, cfg)
        for kcol in range(jac.shape[1]):
            rel = (np.linalg.norm(jac[:, kcol] - fd[:, kcol])
                   / max(np.linalg.norm(fd[:, kcol]), 1e-12))
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-4

        blk = crb.fim_blocks(b, scene, plan, cfg)
        full = np.block([[blk.f1, blk.f2], [blk.f2.T, blk.f3]])
        eigs = np.linalg.eigvalsh(full)
        assert eigs.min() > -1e-8 * max(eigs.max(), 1.0)

        if i < 5:
            lo = crb.crb_eta_t(crb.fim_blocks(b, scene, plan, cfg, sigma2=1.0))
            hi = crb.crb_eta_t(crb.fim_blocks(b, scene, plan, cfg, sigma2=2.0))
            assert np.allclose(np.diag(hi.crb_matrix),
                               2.0 * np.diag(lo.crb_matrix), rtol=1e-9)
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: 50 scenes, worst FD rel err {worst_rel:.2e} "
          f"(< 1e-4), FIM PSD, CRB linear in noise power, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 7. GLRT invariants and false-alarm calibration

def test_criterion_7_glrt_invariants():
    tic = time.perf_counter()
    cfg = SystemConfig()
    plan = beams.default_plan(cfg)
    scene = reference_scene(cfg, n_scatterers=400, seed=7)
    target = scene.targets[0]
    b = beams.beam_for_angle(plan, target.theta)
    cand = frequencies_target(target, cfg)

    # scale invariance
    y = synthesize_echo(scene, plan, b, cfg, seed=42)
    t_ref = detector.glr_statistic(y, b, cand, plan, cfg).statistic
    t_scaled = detector.glr_statistic(737.3 * y, b, cand, plan, cfg).statistic
    scale_rel = abs(t_scaled - t_ref) / t_ref
    assert scale_rel < 1e-10

    # on-grid clutter leaves only projection roundoff
    center = float(plan.directions[b])
    on_grid = Scene((), tuple(
        Scatterer(theta=center, range=float(r), alpha=complex(1.0, 0.3 * r))
        for r in (1, 2, 3, 5, 7)))
    y0 = synthesize_echo(on_grid, plan, b, cfg, noise_var=0.0)
    out0 = detector.glr_statistic(y0, b, cand, plan, cfg)
    residual_rel = out0.sigma2_hat_h0 / float(np.mean(np.abs(y0) ** 2))
    assert residual_rel < 1e-8
    assert out0.statistic == 0.0

    # empirical false-alarm rate against the calibrated threshold
    h0 = scene.without_targets()
    gamma = detector.calibrate_gamma(h0, plan, b, cand, cfg, p_fa=0.01,
                                     n_trials=500, seed=77)
    false_alarms = 0
    n_eval = 2000
    for i in range(n_eval):
        yi = synthesize_echo(h0, plan, b, cfg, seed=(88, i))
        ti = detector.glr_statistic(yi, b, cand, plan, cfg).statistic
        false_alarms += int(ti > gamma)
    p_fa_hat = false_alarms / n_eval
    assert abs(p_fa_hat - 0.01) <= 0.02
    elapsed = time.perf_counter() - tic
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: scale invariance {scale_rel:.1e}, on-grid "
          f"residual {residual_rel:.1e}, P_FA {p_fa_hat:.4f} vs 0.01 target, "
          f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 8. ROC at -10 dB dominates the -30 dB curve

def _pd_at(curve, budget):
    """Best detection probability at false-alarm budget: the curve rows are
    (gamma, p_fa, p_d) sorted by gamma, both rates nonincreasing."""
    best = 0.0
    for _, p_fa, p_d in curve:
        if p_fa <= budget:
            best = max(best, p_d)
    return best


def test_criterion_8_roc_ordering(tmp_path):
    tic = time.perf_counter()
    config = experiments.config_from_dict({
        "scene": {"kind": "reference", "n_scatterers": 0},
        "snr_list_db": [-30.0, -10.0],
        "n_trials": 500,
        "seed": 3,
    })
    experiments.roc_experiment(config, tmp_path)
    _, rows = read_rows(tmp_path / "roc.csv")
    curves = {}
    for r in rows:
        curves.setdefault(float(r[0]), []).append(
            (float(r[1]), float(r[2]), float(r[3])))
    lo, hi = curves[-30.0], curves[-10.0]
    budgets = sorted({p[1] for p in lo} | {p[1] for p in hi})
    violations = sum(1 for q in budgets if _pd_at(hi, q) < _pd_at(lo, q))
    assert violations == 0
    elapsed = time.perf_counter() - tic
    assert elapsed < 600.0
    print(f"\nPASS criterion 8: -10 dB ROC dominates -30 dB at all "
          f"{len(budgets)} evaluated false-alarm rates, {elapsed:.1f} s")
