"""GLRT detector: projector algebra, degenerate inputs, calibration, ROC."""
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mtsense import detector as dt
from mtsense import echo as ec
from mtsense.beams import beam_for_angle, default_plan, g_tilde, steering
from mtsense.scene import (Scatterer, Scene, SystemConfig, Target, frequencies_target,
                           range_frequency, spatial_frequency)


def _target_in_beam(plan, b, **kw):
    theta = float(plan.directions[b]) + 0.8 * plan.coverage_halfwidth
    defaults = dict(theta=theta, range=3.2, speed=2.5, alpha=0.9 - 0.2j)
    defaults.update(kw)
    return Target(**defaults)


# ---------------------------------------------------------------------------
# grid sampling: one clutter direction per scan

def test_single_point_grid_sits_at_centers(cfg, plan):
    assert dt.sample_grid(10, plan, cfg) == pytest.approx(
        spatial_frequency(float(plan.directions[10]), cfg), abs=1e-15)


# ---------------------------------------------------------------------------
# clutter basis and projector

def test_clutter_basis_hand_loop(cfg, plan):
    a = dt.clutter_basis(10, plan, cfg)
    assert a.shape == (cfg.m_rx,)
    ps = spatial_frequency(float(plan.directions[10]), cfg)
    assert np.array_equal(a, g_tilde(plan, 10, cfg) * steering(ps, cfg.m_rx))


def test_perp_projector_algebra(rng):
    a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    p = dt.perp_projector(a)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.max(np.abs(p @ a)) < 1e-10
    eigs = np.linalg.eigvalsh(p)
    assert np.all((np.abs(eigs) < 1e-9) | (np.abs(eigs - 1.0) < 1e-9))
    assert int(np.round(eigs.sum())) == 5  # 8 - rank 3


def test_perp_projector_edge_cases(rng):
    empty = np.zeros((4, 0), dtype=complex)
    assert np.array_equal(dt.perp_projector(empty), np.eye(4, dtype=complex))
    square = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.max(np.abs(dt.perp_projector(square))) < 1e-10
    # rank-deficient stack: duplicated column must not change the projector
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    dup = np.concatenate([a, a[:, :1]], axis=1)
    assert np.allclose(dt.perp_projector(a), dt.perp_projector(dup), atol=1e-10)


# ---------------------------------------------------------------------------
# statistic on constructed echoes

def _on_grid_scatterer(plan, b, cfg):
    # the clutter direction is the beam center, and range does not change
    # the span, so this scatterer's response lies in the clutter span
    return Scatterer(theta=float(plan.directions[b]), range=2.0,
                     alpha=1.1 + 0.3j)


def test_pure_on_grid_clutter_scores_zero(cfg, plan):
    b = 25
    scene = Scene((), (_on_grid_scatterer(plan, b, cfg),))
    y = ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
    target = _target_in_beam(plan, b)
    out = dt.glr_statistic(y, b, frequencies_target(target, cfg), plan, cfg)
    assert out.statistic == 0.0
    assert not out.undetectable


def test_target_plus_clutter_noiseless_scores_one(cfg, plan):
    b = 25
    target = _target_in_beam(plan, b)
    scene = Scene((target,), (_on_grid_scatterer(plan, b, cfg),))
    y = ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
    out = dt.glr_statistic(y, b, frequencies_target(target, cfg), plan, cfg)
    assert out.statistic == pytest.approx(1.0, abs=1e-9)
    assert out.sigma2_hat_h1 == pytest.approx(0.0, abs=1e-12)


def test_all_zero_echo_scores_zero(cfg, plan):
    b = 25
    y = ec.synthesize_echo(Scene((), ()), plan, b, cfg, noise_var=0.0)
    target = _target_in_beam(plan, b)
    out = dt.glr_statistic(y, b, frequencies_target(target, cfg), plan, cfg)
    assert out.statistic == 0.0


def test_candidate_on_grid_angle_is_undetectable(cfg, plan):
    b = 25
    scene = Scene((), (_on_grid_scatterer(plan, b, cfg),))
    y = ec.synthesize_echo(scene, plan, b, cfg, seed=3)
    # candidate at the beam-center spatial frequency: the steering vector is
    # inside the clutter span for every subcarrier
    psi_s = spatial_frequency(float(plan.directions[b]), cfg)
    out = dt.glr_statistic(y, b, (psi_s, 0.2, 0.1), plan, cfg)
    assert out.undetectable
    assert out.statistic == 0.0


def test_alpha_hat_exact_for_pure_target(cfg, plan):
    # the amplitude estimate is referenced to the boresight gain, so for a
    # clean target it recovers alpha * g(theta) / g_tilde; at the exact beam
    # center that ratio is 1 and alpha comes back unchanged
    from mtsense.beams import tx_gain
    b = 25
    off = _target_in_beam(plan, b, alpha=0.37 - 0.81j)
    y = ec.synthesize_echo(Scene((off,), ()), plan, b, cfg, noise_var=0.0)
    out = dt.glr_statistic(y, b, frequencies_target(off, cfg), plan, cfg)
    want = off.alpha * tx_gain(off.theta, plan, b, cfg) / g_tilde(plan, b, cfg)
    assert out.alpha_hat == pytest.approx(want, abs=1e-10)
    assert out.statistic == pytest.approx(1.0, abs=1e-9)

    centered = Target(theta=float(plan.directions[b]) + 1e-6, range=3.2,
                      speed=2.5, alpha=0.37 - 0.81j)
    y2 = ec.synthesize_echo(Scene((centered,), ()), plan, b, cfg, noise_var=0.0)
    out2 = dt.glr_statistic(y2, b, frequencies_target(centered, cfg), plan, cfg)
    assert out2.alpha_hat == pytest.approx(centered.alpha, abs=1e-3)


def test_statistic_scale_invariant(cfg, plan):
    b = 25
    target = _target_in_beam(plan, b)
    scene = Scene((target,), (_on_grid_scatterer(plan, b, cfg),))
    y = ec.synthesize_echo(scene, plan, b, cfg, seed=5)
    cand = frequencies_target(target, cfg)
    t1 = dt.glr_statistic(y, b, cand, plan, cfg).statistic
    t2 = dt.glr_statistic(737.3 * y, b, cand, plan, cfg).statistic
    assert t2 == pytest.approx(t1, rel=1e-10)


def test_statistic_bounded_and_ordered(cfg, plan):
    b = 25
    target = _target_in_beam(plan, b)
    scene = Scene((target,), (_on_grid_scatterer(plan, b, cfg),))
    cand = frequencies_target(target, cfg)
    for seed in range(8):
        y = ec.synthesize_echo(scene, plan, b, cfg, seed=seed)
        out = dt.glr_statistic(y, b, cand, plan, cfg)
        assert 0.0 <= out.statistic <= 1.0 + 1e-12
        assert out.sigma2_hat_h1 <= out.sigma2_hat_h0 + 1e-15
        assert out.statistic == pytest.approx(
            1.0 - out.sigma2_hat_h1 / out.sigma2_hat_h0, abs=1e-12)


def test_grid_of_another_scan_is_rejected():
    # the clutter direction is the scan's own, so only a non-finite candidate
    # frequency is left to reject
    cfg, plan, target, b, clut = _small_setup()
    y = ec.synthesize_echo(clut, plan, b, cfg, seed=1)
    with pytest.raises(ValueError, match="finite"):
        dt.glr_statistic(y, b, (np.nan, 0.1, 0.1), plan, cfg)


# oracle: the statistic with one projector per subcarrier, looping over l
# exactly as the seed implementation did, on the seed's range/angle clutter
# grid (8 range frequencies over 0..7 m crossed with the beam-center angle).
# Its basis is built here column by column; it shares only perp_projector,
# tested on its own above.

def per_subcarrier_glr(y, b, candidate, plan, cfg):
    psi_s, psi_r, psi_d = candidate
    m_rx, n_sub, n_sym = y.shape
    n_tot = m_rx * n_sub * n_sym
    g = g_tilde(plan, b, cfg)
    a_sp = steering(psi_s, cfg.m_rx)
    dopp_phase = np.exp(2j * math.pi * psi_d * np.arange(n_sym))
    range_grid = np.linspace(0.0, range_frequency(7.0, cfg), 8)
    ps = spatial_frequency(float(plan.directions[b]), cfg)
    energy_h0, num_total, alpha_acc = 0.0, 0.0, 0j
    for l in range(n_sub):
        basis = np.stack([g * np.exp(-2j * math.pi * l * pr) * steering(ps, cfg.m_rx)
                          for pr in range_grid], axis=1)
        p_perp = dt.perp_projector(basis)
        denom = float(np.real(a_sp.conj() @ p_perp @ a_sp))
        py = p_perp @ y[:, l, :]
        energy_h0 += float(np.sum(np.abs(py) ** 2))
        inner = a_sp.conj() @ py
        num_total += float(np.sum(np.abs(inner) ** 2)) / denom
        rng_phase = np.exp(-2j * math.pi * psi_r * l)
        alpha_acc += np.sum(np.conj(g * rng_phase * dopp_phase) * inner) / (abs(g) ** 2 * denom)
    sigma2_h0 = energy_h0 / n_tot
    return (num_total / (n_tot * sigma2_h0), sigma2_h0,
            sigma2_h0 - num_total / n_tot, alpha_acc / (n_sub * n_sym))


def test_statistic_matches_per_subcarrier_oracle(cfg, plan):
    b = 25
    rng = np.random.default_rng(8)
    lo, hi = plan.coverage_interval(b)
    clutter = tuple(Scatterer(theta=float(rng.uniform(lo - 0.1, hi + 0.1)),
                              range=float(rng.uniform(1.0, 7.0)),
                              alpha=complex(rng.normal(), rng.normal()))
                    for _ in range(30))
    p_perp = dt.perp_projector(dt.clutter_basis(b, plan, cfg)[:, None])
    eps = np.finfo(float).eps
    for offset in (0.8, 3.0, 6.0):      # candidate angle, in coverage half widths
        target = _target_in_beam(
            plan, b, theta=float(plan.directions[b]) + offset * plan.coverage_halfwidth)
        cand = frequencies_target(target, cfg)
        a_sp = steering(cand[0], cfg.m_rx)
        denom = float(np.real(a_sp.conj() @ p_perp @ a_sp))
        # Both versions carry projector roundoff of order eps, which t, s1 and
        # alpha amplify by M_r / (a^H Pperp a). Inside the coverage the
        # candidate lies near the boresight clutter column (denom / M_r ~ 0.04
        # at 0.8 half widths), so the bound there is that amplification.
        rel = 1e-12 if offset >= 3.0 else 64 * eps * cfg.m_rx / denom
        for seed, scene in enumerate((Scene((target,), clutter), Scene((), clutter))):
            y = ec.synthesize_echo(scene, plan, b, cfg, seed=seed)
            out = dt.glr_statistic(y, b, cand, plan, cfg)
            t, s0, s1, alpha = per_subcarrier_glr(y, b, cand, plan, cfg)
            assert not out.undetectable
            assert out.statistic == pytest.approx(t, rel=rel)
            assert out.sigma2_hat_h0 == pytest.approx(s0, rel=1e-12)
            assert out.sigma2_hat_h1 == pytest.approx(s1, rel=rel)
            assert abs(out.alpha_hat - alpha) <= rel * abs(alpha)


def test_two_rows_match_dense_projector_in_dense_clutter(cfg, plan, ref_scene):
    # H0 cubes (three noisy, one noiseless) in the reference scene's 400
    # scatterers, at each reference target and at candidates 0.8, 3 and 6
    # coverage half widths off its beam's boresight.
    # Both forms compute each column of Pperp y to within a length-M_r dot
    # product's roundoff, M_r eps |y|, which moves |Pperp y|^2 by
    # 2 M_r eps |y| / |Pperp y| <= 2 M_r eps |y|^2 / |Pperp y|^2 relative.
    # t, s1 and alpha also divide by denom = M_r - |u^H a|^2, whose roundoff
    # 2 M_r^2 eps is 2 M_r eps (M_r / denom) relative.
    eps = np.finfo(float).eps
    h0 = ref_scene.without_targets()
    for target in ref_scene.targets:
        b = beam_for_angle(plan, target.theta)
        cubes = [ec.synthesize_echo(h0, plan, b, cfg, seed=s) for s in range(3)]
        cubes.append(ec.synthesize_echo(h0, plan, b, cfg, noise_var=0.0))
        p_perp = dt.perp_projector(dt.clutter_basis(b, plan, cfg)[:, None])
        off_axis = [_target_in_beam(plan, b, theta=float(plan.directions[b])
                                    + offset * plan.coverage_halfwidth)
                    for offset in (0.8, 3.0, 6.0)]
        for cand in (frequencies_target(t, cfg) for t in [target, *off_axis]):
            a_sp = steering(cand[0], cfg.m_rx)
            denom = float(np.real(a_sp.conj() @ p_perp @ a_sp))
            outs = dt._glr_evaluator(cand, plan, cfg, b)(np.stack(cubes))
            for y, out in zip(cubes, outs):
                t, s0, s1, alpha = per_subcarrier_glr(y, b, cand, plan, cfg)
                ratio = float(np.mean(np.abs(y) ** 2)) / s0
                rel_s0 = 2 * cfg.m_rx * eps * ratio
                rel = 2 * cfg.m_rx * eps * (ratio + cfg.m_rx / denom)
                assert ratio > 1.0 and not out.undetectable
                assert out.sigma2_hat_h0 == pytest.approx(s0, rel=rel_s0)
                assert out.statistic == pytest.approx(t, rel=rel)
                assert out.sigma2_hat_h1 == pytest.approx(s1, rel=rel)
                assert abs(out.alpha_hat - alpha) <= rel * abs(alpha)


_SPIN = """
import time
import numpy as np
from mtsense import clutter
from mtsense import detector as dt
from mtsense.beams import beam_for_angle, default_plan
from mtsense.scene import SystemConfig, frequencies_target, reference_scene
cfg = SystemConfig()
plan = default_plan(cfg)
target = reference_scene(cfg).targets[0]
evaluate = dt._glr_evaluator(frequencies_target(target, cfg), plan, cfg,
                             beam_for_angle(plan, target.theta))
filt = clutter.design_butterworth_highpass()
clutter.filter_matrix(filt, cfg.n_sym)
shape = (4, cfg.m_rx, cfg.n_sub, cfg.n_sym, 2)
cubes = np.random.default_rng(0).standard_normal(shape).view(complex)[..., 0]
spin = 0.0
for run in (evaluate, lambda x: clutter.filter_symbols(x, filt)):
    for _ in range(40):
        cpu = time.process_time()
        time.sleep(0.05)
        if time.process_time() - cpu < 0.001:
            break
    else:
        raise SystemExit("the BLAS pool never went idle")
    run(cubes)
    cpu = time.process_time()
    time.sleep(0.05)
    spin = max(spin, time.process_time() - cpu)
print(spin)
"""


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_CPUS or 1) < 2, reason="needs 2 CPUs")
def test_statistic_leaves_no_blas_thread_spinning():
    # A BLAS product large enough to be split across threads leaves the
    # library's worker threads spinning for a while after it returns, each
    # burning a CPU; the GLRT's two-row product is run on the calling thread,
    # and so is the filter's product of a 4-cube block with its matrix.
    # Importing numpy starts the pool, whose threads spin for about 0.1 s, so
    # the probe waits for a quiet sleep slice before each call; the block and
    # the filter matrix are built without BLAS, so after that only the call
    # can wake them.
    proc = subprocess.run([sys.executable, "-c", _SPIN], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.010


def test_detect_thresholding():
    out = dt.GlrOutcome(statistic=0.4, sigma2_hat_h0=1.0, sigma2_hat_h1=0.6,
                        alpha_hat=0j)
    assert dt.detect(out, 0.3)
    assert not dt.detect(out, 0.4)  # strict inequality
    assert dt.detect(out, 0.0)
    with pytest.raises(ValueError):
        dt.detect(out, -0.1)
    with pytest.raises(ValueError):
        dt.detect(out, float("nan"))


# ---------------------------------------------------------------------------
# calibration and ROC (small configs keep these quick)

def _small_setup():
    cfg = SystemConfig(m_tx=4, m_rx=3, n_sub=4, n_sym=5, noise_var=0.5)
    plan = default_plan(cfg, n_beams=7, span_deg=50.0)
    target = Target(theta=0.15, range=3.2, speed=2.5, alpha=0.9 - 0.2j)
    b = beam_for_angle(plan, target.theta)
    clut = Scene((), (Scatterer(theta=0.1, range=2.0, alpha=0.4 + 0.1j),))
    return cfg, plan, target, b, clut


def test_calibrate_gamma_deterministic_and_monotone():
    cfg, plan, target, b, clut = _small_setup()
    cand = frequencies_target(target, cfg)
    g1 = dt.calibrate_gamma(clut, plan, b, cand, cfg, p_fa=0.1,
                            n_trials=80, seed=21)
    g2 = dt.calibrate_gamma(clut, plan, b, cand, cfg, p_fa=0.1,
                            n_trials=80, seed=21)
    assert g1 == g2
    strict = dt.calibrate_gamma(clut, plan, b, cand, cfg, p_fa=0.01,
                                n_trials=80, seed=21)
    assert strict >= g1
    assert 0.0 <= g1 <= 1.0
    with pytest.raises(ValueError):
        dt.calibrate_gamma(clut, plan, b, cand, cfg, p_fa=0.0,
                           n_trials=10, seed=21)


def test_calibrate_gamma_matches_full_synthesis_loop():
    cfg, plan, target, b, clut = _small_setup()
    cand = frequencies_target(target, cfg)
    ts = [dt.glr_statistic(ec.synthesize_echo(clut, plan, b, cfg, seed=(21, i),
                                              noise_var=0.3),
                           b, cand, plan, cfg).statistic
          for i in range(50)]
    want = float(np.quantile(ts, 0.9))
    got = dt.calibrate_gamma(clut, plan, b, cand, replace(cfg, noise_var=0.3), p_fa=0.1,
                             n_trials=50, seed=21)
    assert got == pytest.approx(want, rel=1e-12)


def test_roc_curve_shape_and_endpoints():
    cfg, plan, target, b, clut = _small_setup()
    scene_h1 = Scene((target,), clut.scatterers)
    curves = dt.roc_curve(clut, scene_h1, cfg, plan, [0.0, 10.0], n_trials=60,
                          seed=31)
    assert set(curves) == {0.0, 10.0}
    for curve in curves.values():
        assert curve[0][0] == -math.inf and curve[0][1:] == (1.0, 1.0)
        assert curve[-1][0] == math.inf and curve[-1][1:] == (0.0, 0.0)
        gammas = [c[0] for c in curve]
        pfas = [c[1] for c in curve]
        pds = [c[2] for c in curve]
        assert gammas == sorted(gammas)
        assert all(a >= b2 for a, b2 in zip(pfas, pfas[1:]))
        assert all(a >= b2 for a, b2 in zip(pds, pds[1:]))


def test_roc_curve_threads_match_serial():
    cfg, plan, target, b, clut = _small_setup()
    scene_h1 = Scene((target,), clut.scatterers)
    kw = dict(n_trials=40, seed=5)
    serial = dt.roc_curve(clut, scene_h1, cfg, plan, [0.0, 5.0], threads=1, **kw)
    assert dt.roc_curve(clut, scene_h1, cfg, plan, [0.0, 5.0], threads=3, **kw) == serial


def test_roc_identical_scenes_track_diagonal():
    cfg, plan, target, b, clut = _small_setup()
    scene = Scene((target,), clut.scatterers)
    curve = dt.roc_curve(scene, scene, cfg, plan, [0.0], n_trials=200, seed=11)[0.0]
    dev = max(abs(pd - pfa) for _, pfa, pd in curve)
    assert dev < 0.2


def test_roc_needs_target_or_explicit_candidate():
    cfg, plan, target, b, clut = _small_setup()
    with pytest.raises(ValueError):
        dt.roc_curve(clut, clut, cfg, plan, [0.0], n_trials=5, seed=1)


# ---------------------------------------------------------------------------
# oracle: the statistic one cube at a time, each cube a noisy copy of its own,
# in the library's two-row arithmetic (Pperp = I - u u^H applied as the rows
# [u, Pperp a]^H), without the stacking of a calibration or ROC block. The
# stacked evaluation must return each cube's outcome to the bit, in every
# branch. The dense-projector oracles above check the arithmetic itself.

def _add_noise(clean, b, sigma2, seed):
    data = clean.copy()
    ec._add_noise_to(data, sigma2, seed, b)
    return data


def _glr_statistic_per_item(y, b, candidate, plan, cfg):
    psi_s, psi_r, psi_d = candidate
    m_rx, n_sub, n_sym = y.shape
    n_tot = m_rx * n_sub * n_sym
    c = dt.clutter_basis(b, plan, cfg)
    u = c / np.linalg.norm(c)
    a_sp = steering(psi_s, cfg.m_rx)
    a_perp = a_sp - u * (u.conj() @ a_sp)
    denom = float(np.real(a_sp.conj() @ a_perp))
    data = y.reshape(m_rx, n_sub * n_sym)
    z = np.stack([u, a_perp]).conj() @ data
    py = data - u[:, None] * z[:1]
    sigma2_h0 = float(np.sum(np.abs(py) ** 2)) / n_tot
    if denom < dt.UNDETECTABLE_REL * m_rx:
        return dt.GlrOutcome(0.0, sigma2_h0, sigma2_h0, 0j, undetectable=True)
    inner = z[1]
    num_total = float(np.sum(np.abs(inner) ** 2)) / denom
    input_floor = dt.ZERO_RESIDUAL_REL * float(np.mean(np.abs(y) ** 2))
    if sigma2_h0 <= input_floor:
        t = 0.0 if num_total <= input_floor * n_tot else math.inf
        return dt.GlrOutcome(t, sigma2_h0, sigma2_h0, 0j)
    g = g_tilde(plan, b, cfg)
    steer = g * np.outer(steering(-psi_r, n_sub), steering(psi_d, n_sym))
    alpha_hat = complex(np.sum(np.conj(steer).ravel() * inner)
                        / (abs(g) ** 2 * denom * n_sub * n_sym))
    return dt.GlrOutcome(num_total / (n_tot * sigma2_h0), sigma2_h0,
                         max(sigma2_h0 - num_total / n_tot, 0.0), alpha_hat)


def test_stacked_statistic_matches_per_item_in_every_branch(cfg, plan):
    b = 25
    target = _target_in_beam(plan, b)
    clutter = _on_grid_scatterer(plan, b, cfg)
    center = spatial_frequency(float(plan.directions[b]), cfg)
    cubes = [ec.synthesize_echo(Scene((target,), (clutter,)), plan, b, cfg, seed=s)
             for s in range(5)]
    cubes += [ec.synthesize_echo(Scene((), (clutter,)), plan, b, cfg, noise_var=0.0),
              ec.synthesize_echo(Scene((), ()), plan, b, cfg, noise_var=0.0),
              ec.synthesize_echo(Scene((target,), (clutter,)), plan, b, cfg, noise_var=0.0)]
    outcomes = {}
    for name, cand in (("target", frequencies_target(target, cfg)),
                       ("on grid", (center, 0.2, 0.1))):
        want = [_glr_statistic_per_item(y, b, cand, plan, cfg) for y in cubes]
        assert [dt.glr_statistic(y, b, cand, plan, cfg) for y in cubes] == want
        evaluate = dt._glr_evaluator(cand, plan, cfg, b)
        assert evaluate(np.stack(cubes)) == want
        assert evaluate(np.stack(cubes[3:6])) == want[3:6]
        outcomes[name] = want
    # every branch ran: a statistic with its amplitude, the zero residual of
    # noiseless clutter and of an all-zero cube, and an undetectable candidate
    assert all(o.alpha_hat != 0j for o in outcomes["target"][:5])
    assert [o.statistic for o in outcomes["target"][5:7]] == [0.0, 0.0]
    assert all(o.alpha_hat == 0j and not o.undetectable for o in outcomes["target"][5:7])
    assert all(o.undetectable for o in outcomes["on grid"])


def test_calibrate_gamma_matches_per_trial_oracle():
    cfg, plan, target, b, clut = _small_setup()
    cand = frequencies_target(target, cfg)
    clean = ec.synthesize_echo(clut, plan, b, cfg, noise_var=0.0)
    for n_trials in (1, 8, 21):             # one block, a full block, unequal blocks
        ts = [_glr_statistic_per_item(_add_noise(clean, b, 0.3, (21, i)), b, cand,
                                      plan, cfg).statistic for i in range(n_trials)]
        got = dt.calibrate_gamma(clut, plan, b, cand, replace(cfg, noise_var=0.3),
                                 p_fa=0.1, n_trials=n_trials, seed=21)
        assert got == float(np.quantile(ts, 0.9))


def _roc_curve_per_trial(scene_h0, scene_h1, cfg, plan, snr_list_db, n_trials,
                         n_thresholds, seed, b, cand):
    clean = [ec.synthesize_echo(s, plan, b, cfg, noise_var=0.0) for s in (scene_h0, scene_h1)]
    curves = {}
    for k, snr_db in enumerate(snr_list_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        pooled = np.array([
            _glr_statistic_per_item(_add_noise(clean[h], b, sigma2, (seed, k, h, i)),
                                    b, cand, plan, cfg).statistic
            for h in (0, 1) for i in range(n_trials)])
        t0, t1 = pooled[:n_trials], pooled[n_trials:]
        qs = np.quantile(pooled, np.linspace(0.0, 1.0, n_thresholds))
        gammas = np.concatenate([[-math.inf], np.unique(qs), [math.inf]])
        curves[float(snr_db)] = [(float(gm), float(np.mean(t0 > gm)), float(np.mean(t1 > gm)))
                                 for gm in gammas]
    return curves


@pytest.mark.parametrize("threads", [1, 2])
def test_roc_curve_matches_per_trial_oracle(threads):
    cfg, plan, target, b, clut = _small_setup()
    scene_h1 = Scene((target,), clut.scatterers)
    want = _roc_curve_per_trial(clut, scene_h1, cfg, plan, [0.0, 5.0], 19, 31, 5, b,
                                frequencies_target(target, cfg))
    assert dt.roc_curve(clut, scene_h1, cfg, plan, [0.0, 5.0], n_trials=19,
                        n_thresholds=31, seed=5, threads=threads) == want
