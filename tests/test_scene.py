"""Scene construction and the three normalized-frequency maps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsense import scene as sc
from mtsense.scene import (Scatterer, Scene, SystemConfig, Target,
                           doppler_frequency, frequencies_target, generate_scene, range_frequency,
                           reference_scene, spatial_frequency)

C0 = 299_792_458.0

# ---------------------------------------------------------------------------
# oracle: frequency triples for the two canonical targets, computed by hand
# from the defining relations psi_r = 2 r df / c, psi_d = 2 v T / lambda,
# psi_s = d sin(theta) / lambda with c = 299792458 m/s, lambda = c / 60 GHz,
# T = 1/df + guard = 2.001e-4 s, d = lambda / 2. The frozen digits below are
# the published reference values for this geometry (5-6 significant decimals).

REFERENCE_FREQS = [
    # (theta_deg, range_m, speed_mps) -> (psi_r, psi_d, psi_s), the published table's order
    ((-48.295, 4.281, 3.911), (0.285597, 0.313253, -0.37332)),
    ((15.883, 2.670, 1.473), (0.178123, 0.117981, 0.136836)),
]

# The published table rounds to 5-6 decimals and its angle/frequency pairs
# disagree with each other by up to ~3e-5 at the last digit (recomputing
# psi_s from the printed theta gives -0.373290, not -0.37332), so the match
# tolerance covers that rounding slop rather than float precision.
TABLE_ATOL = 5e-5


def test_reference_frequency_triples(cfg):
    for (theta_deg, r, v), (psi_r, psi_d, psi_s) in REFERENCE_FREQS:
        t = Target(theta=math.radians(theta_deg), range=r, speed=v, alpha=1 + 0j)
        got = frequencies_target(t, cfg)                  # (psi_s, psi_r, psi_d)
        assert got[0] == pytest.approx(psi_s, abs=TABLE_ATOL)
        assert got[1] == pytest.approx(psi_r, abs=TABLE_ATOL)
        assert got[2] == pytest.approx(psi_d, abs=TABLE_ATOL)


def test_frequency_maps_against_hand_formulas(cfg):
    lam = C0 / cfg.f_c
    t_full = 1.0 / cfg.delta_f + cfg.t_guard
    for theta, r, v in [(0.3, 5.0, 2.5), (-1.0, 1.2, 3.9)]:
        assert range_frequency(r, cfg) == pytest.approx(2 * r * cfg.delta_f / C0, rel=1e-12)
        assert doppler_frequency(v, cfg) == pytest.approx(2 * v * t_full / lam, rel=1e-12)
        assert spatial_frequency(theta, cfg) == pytest.approx(
            0.5 * lam * math.sin(theta) / lam, rel=1e-12)  # d = lambda/2


def test_config_defaults_and_derived(cfg):
    assert (cfg.m_tx, cfg.m_rx, cfg.n_sub, cfg.n_sym) == (64, 16, 16, 20)
    assert cfg.f_c == 60e9 and cfg.delta_f == 10e6
    assert cfg.wavelength == pytest.approx(C0 / 60e9, rel=1e-12)
    assert cfg.t_total == pytest.approx(2.001e-4, rel=1e-12)
    assert cfg.spacing == pytest.approx(cfg.wavelength / 2, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(m_rx=1)
    with pytest.raises(ValueError):
        SystemConfig(delta_f=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(noise_var=-0.5)


def test_element_validation():
    with pytest.raises(ValueError, match=r"^target angle must satisfy \|theta\| < pi/2$"):
        Target(theta=2.0, range=1.0, speed=1.0, alpha=1j)
    with pytest.raises(ValueError, match="^scatterer range must be positive$"):
        Scatterer(theta=0.0, range=-1.0, alpha=1j)
    with pytest.raises(ValueError, match="^target range must be positive$"):
        Target(theta=0.0, range=0.0, speed=1.0, alpha=1j)
    with pytest.raises(ValueError, match=r"^scatterer angle must satisfy \|theta\| < pi/2$"):
        Scatterer(theta=-2.0, range=1.0, alpha=1j)


_VALID_ELEMENTS = {"target": (Target, dict(theta=0.1, range=2.0, speed=1.0, alpha=1j)),
                   "scatterer": (Scatterer, dict(theta=0.1, range=2.0, alpha=1j))}
_NON_FINITE = [("theta", math.nan), ("range", math.nan), ("range", math.inf),
               ("speed", math.nan), ("speed", -math.inf), ("alpha", complex(math.nan, 0.0)),
               ("alpha", complex(1.0, math.inf))]


@pytest.mark.parametrize("kind,name,value", [
    (kind, name, value) for kind, (_, valid) in _VALID_ELEMENTS.items()
    for name, value in _NON_FINITE if name in valid])
def test_element_rejects_non_finite_fields(kind, name, value):
    # nan fails every comparison, so range <= 0 and |theta| >= pi/2 let it through
    make, valid = _VALID_ELEMENTS[kind]
    with pytest.raises(ValueError, match=f"^{kind} {name} must be finite, got "):
        make(**{**valid, name: value})


def test_inverse_maps_round_trip(cfg, rng):
    for _ in range(25):
        theta = rng.uniform(-1.0, 1.0)
        r = rng.uniform(0.5, 10.0)
        v = rng.uniform(-4.0, 4.0)
        assert sc.theta_from_psi_s(spatial_frequency(theta, cfg), cfg) == pytest.approx(theta, abs=1e-12)
        assert sc.range_from_psi_r(range_frequency(r, cfg), cfg) == pytest.approx(r, abs=1e-9)
        assert sc.speed_from_psi_d(doppler_frequency(v, cfg), cfg) == pytest.approx(v, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.builds(SystemConfig, f_c=st.floats(1e9, 1e11), delta_f=st.floats(1e5, 1e8),
                 t_guard=st.floats(0.0, 1e-3),
                 d_spacing=st.none() | st.floats(1e-4, 1.0)),
       st.floats(-0.999, 0.999), st.floats(0.0, 0.999), st.floats(-0.999, 0.999))
def test_inverse_maps_undo_forward_maps(cfg, u_s, u_r, u_d):
    # fractions u of the unambiguous intervals: |sin theta| < min(1, lambda/(2d)),
    # range in [0, c/(2 delta_f)), |speed| < lambda/(4 T)
    theta = math.asin(u_s * min(1.0, cfg.wavelength / (2.0 * cfg.spacing)))
    r = u_r * C0 / (2.0 * cfg.delta_f)
    v = u_d * cfg.wavelength / (4.0 * cfg.t_total)
    psi_s = spatial_frequency(theta, cfg)
    assert abs(psi_s) < 0.5
    assert sc.theta_from_psi_s(psi_s, cfg) == pytest.approx(theta, rel=1e-12, abs=1e-9)
    assert sc.range_from_psi_r(range_frequency(r, cfg), cfg) == pytest.approx(r, rel=1e-12)
    assert sc.speed_from_psi_d(doppler_frequency(v, cfg), cfg) == pytest.approx(v, rel=1e-12)


def test_theta_from_psi_s_domain(cfg):
    with pytest.raises(ValueError):
        sc.theta_from_psi_s(0.81, cfg)   # outside |psi_s| <= d/lambda = 0.5


def test_negative_range_frequency_wraps(cfg):
    # a slightly negative estimate means "just below one full cycle"
    r = sc.range_from_psi_r(-0.01, cfg)
    assert r == pytest.approx(sc.range_from_psi_r(0.99, cfg), rel=1e-12)
    assert r > 0


def test_generate_scene_respects_supports(cfg):
    scn = generate_scene(cfg, n_targets=3, n_scatterers=40, seed=5)
    assert len(scn.targets) == 3 and len(scn.scatterers) == 40
    for t in scn.targets:
        assert math.radians(-60) <= t.theta <= math.radians(60)
        assert 1.0 <= t.range <= 7.0
        assert 1.0 <= t.speed <= 4.0
    for s in scn.scatterers:
        assert math.radians(-60) <= s.theta <= math.radians(60)
        assert 1.0 <= s.range <= 7.0
    thetas = [t.theta for t in scn.targets]
    assert min(abs(a - b) for i, a in enumerate(thetas) for b in thetas[:i]) \
        >= math.radians(4.0)


def test_generate_scene_deterministic(cfg):
    a = generate_scene(cfg, 2, 10, seed=9)
    b = generate_scene(cfg, 2, 10, seed=9)
    assert a == b
    c = generate_scene(cfg, 2, 10, seed=10)
    assert a != c


def test_reference_scene_targets(cfg):
    scn = reference_scene(cfg)
    assert len(scn.targets) == 2 and len(scn.scatterers) == 400
    for t, (truth, _) in zip(scn.targets, REFERENCE_FREQS):
        assert math.degrees(t.theta) == pytest.approx(truth[0], abs=1e-9)
        assert t.range == pytest.approx(truth[1])
        assert t.speed == pytest.approx(truth[2])
        assert abs(t.alpha) == pytest.approx(1.0, rel=1e-12)


def test_complex_normal_moments(rng):
    z = sc.complex_normal(rng, 2.5, (200_000,))
    var = float(np.mean(np.abs(z) ** 2))
    assert var == pytest.approx(2.5, rel=0.02)
    assert abs(np.mean(z)) < 0.02
    # circularity: E[z^2] ~ 0
    assert abs(np.mean(z ** 2)) < 0.02


@pytest.mark.parametrize("var", [1e-3, 1.0, 3.7e5])
@pytest.mark.parametrize("size", [(7,), (3, 4, 5), (10, 4, 16, 20)])
def test_complex_normal_has_the_bytes_of_its_textbook_form(var, size):
    # real parts first, then imaginary parts, both from the same stream
    rng = np.random.default_rng(11)
    want = math.sqrt(var / 2.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    got = sc.complex_normal(np.random.default_rng(11), var, size)
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    first, second = np.random.default_rng(11).standard_normal(2)
    scalar = sc.complex_normal(np.random.default_rng(11), var)
    assert type(scalar) is complex
    assert scalar == math.sqrt(var / 2.0) * complex(first, second)


@pytest.mark.parametrize("size", [(7,), (10, 4, 16, 20)])
def test_complex_normal_into_out_has_the_bytes_of_the_allocating_call(size):
    want = sc.complex_normal(np.random.default_rng(11), 0.7, size)
    out = np.full(size, np.nan, dtype=complex)
    got = sc.complex_normal(np.random.default_rng(11), 0.7, size, out=out)
    assert got is out and got.shape == size
    assert got.tobytes() == want.tobytes()


def test_without_targets(cfg):
    scn = reference_scene(cfg, n_scatterers=5, seed=1)
    h0 = scn.without_targets()
    assert h0.targets == () and h0.scatterers == scn.scatterers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 120), at_least=st.integers(1, 4), size=st.integers(1, 20))
def test_blocks_cover_range_in_order_and_near_equal(n, at_least, size):
    parts = sc.blocks(n, at_least, size)
    assert [i for r in parts for i in r] == list(range(n))
    lengths = [len(r) for r in parts]
    assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
    assert len(parts) >= min(n, at_least)
    assert len(parts) % at_least == 0 or len(parts) == n


def test_blocks_count_is_a_multiple_of_the_workers():
    # 36 sweep pairs on 2 workers: 4 blocks of 9, not 3 of 12 (one worker
    # would run two of them while the other runs one)
    assert [len(r) for r in sc.blocks(36, 2, 16)] == [9] * 4
    assert len(sc.blocks(600, 2, 16)) == 38
    assert [len(r) for r in sc.blocks(5, 3, 16)] == [1, 2, 2]
    assert len(sc.blocks(61, 1, 4)) == len(sc.blocks(61, 2, 4)) == 16
    assert len(sc.blocks(3, 4, 1)) == 3          # n does not allow 4
