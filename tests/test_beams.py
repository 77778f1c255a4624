"""Scan plan geometry and the conjugate beamformer."""
import math

import numpy as np
import pytest

from mtsense import beams as bm
from mtsense.scene import SystemConfig, spatial_frequency


def test_steering_vectors_phase_law(cfg):
    psi = 0.21
    a = bm.steering(psi, cfg.m_tx)
    assert a[0] == 1.0 + 0j
    # constant phase increment of exactly 2 pi psi between elements
    ratios = a[1:] / a[:-1]
    assert np.allclose(ratios, np.exp(2j * math.pi * psi), atol=1e-12)
    assert np.allclose(np.abs(a), 1.0, atol=1e-12)


def test_steering_of_minus_psi_keeps_the_range_formula_bits():
    # the range factor is steering(-psi_r, L); it keeps the bits of the
    # formula exp(-j 2 pi l psi_r) for l >= 1. Entry 0 is exactly 1 in both;
    # only the sign of its zero imaginary part may differ, which leaves every
    # nonzero part of a product with it unchanged.
    rng = np.random.default_rng(5)
    for psi in (rng.uniform(-1.0, 1.0, 1000), rng.uniform(0.0, 0.5, (7, 3)),
                float(rng.uniform()), np.array([0.0, -0.0, 0.5, -0.25])):
        for n in (1, 16, 64):
            want = np.exp(np.multiply.outer(-2j * np.pi * psi, np.arange(n)))
            got = bm.steering(-psi, n)
            assert got.shape == want.shape
            assert got[..., 1:].tobytes() == want[..., 1:].tobytes()
            assert np.all(got[..., 0] == 1.0) and np.all(want[..., 0] == 1.0)


def test_conjugate_beamformer_gain_is_sqrt_mtx(cfg, plan):
    # steering at the beam's own angle gives |g| = sqrt(M_t) exactly
    for b in (0, 17, 30, 60):
        g = bm.g_tilde(plan, b, cfg)
        assert g == pytest.approx(math.sqrt(cfg.m_tx), rel=1e-12)
    # and the weight vector has unit norm
    assert np.linalg.norm(plan.weights[17]) == pytest.approx(1.0, rel=1e-12)


def test_gain_peaks_at_beam_center(cfg, plan):
    b = 25
    center = float(plan.directions[b])
    g0 = abs(bm.tx_gain(center, plan, b, cfg))
    for off in (0.3, 1.0, 3.0):   # degrees
        g = abs(bm.tx_gain(center + math.radians(off), plan, b, cfg))
        assert g < g0


def test_default_plan_geometry(cfg, plan):
    assert plan.n_beams == 61
    assert math.degrees(plan.directions[0]) == pytest.approx(-60.0)
    assert math.degrees(plan.directions[-1]) == pytest.approx(60.0)
    steps = np.diff(np.degrees(plan.directions))
    assert np.allclose(steps, 2.0, atol=1e-9)
    assert math.degrees(plan.coverage_halfwidth) == pytest.approx(1.0)


def test_coverage_and_beam_lookup(cfg, plan):
    lo, hi = plan.coverage_interval(10)
    assert hi - lo == pytest.approx(2 * plan.coverage_halfwidth, rel=1e-12)
    theta = float(plan.directions[10]) + 0.5 * plan.coverage_halfwidth
    assert bm.beam_for_angle(plan, theta) == 10
    assert bm.angle_in_coverage(plan, 10, theta)
    assert not bm.angle_in_coverage(plan, 11, theta)
    # boundary angles resolve to the lower beam index
    boundary = 0.5 * (plan.directions[10] + plan.directions[11])
    assert bm.beam_for_angle(plan, float(boundary)) == 10
    with pytest.raises(ValueError):
        bm.beam_for_angle(plan, math.radians(75.0))


def test_single_beam_plan(cfg):
    p1 = bm.default_plan(cfg, n_beams=1, span_deg=10.0)
    assert p1.n_beams == 1
    assert float(p1.directions[0]) == pytest.approx(0.0, abs=1e-12)
    assert p1.coverage_halfwidth > 0


def test_beamformer_weight_matches_conjugate_steering(cfg):
    theta = 0.4
    w = bm.beamformer_weight(theta, cfg)
    a = bm.steering(spatial_frequency(theta, cfg), cfg.m_tx)
    assert np.allclose(w, np.conj(a) / math.sqrt(cfg.m_tx), atol=1e-14)
    with pytest.raises(ValueError):
        bm.beamformer_weight(math.pi / 2, cfg)


def test_plan_summary_rows(cfg, plan):
    rows = bm.plan_summary_rows(plan)
    assert len(rows) == plan.n_beams
    b, theta_deg, halfwidth = rows[3]
    assert b == 3
    assert theta_deg == pytest.approx(math.degrees(plan.directions[3]))
    assert halfwidth == pytest.approx(1.0)
