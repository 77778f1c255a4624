"""Doppler-domain highpass filtering checked against closed-form bilinear math."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from mtsense import clutter as cl
from mtsense import echo as ec
from mtsense.beams import default_plan, g_tilde
from mtsense.scene import (Scene, Scatterer, SystemConfig, Target, complex_normal,
                           reference_scene)


# ---------------------------------------------------------------------------
# oracle: first-order Butterworth highpass through the bilinear transform by
# hand. Prewarped analog cutoff W = 2 tan(pi fc) (fs = 1, T = 1), analog
# prototype H(s) = s / (s + W), substitute s = 2 (1 - z^-1) / (1 + z^-1):
#   num = [2/(2+W), -2/(2+W)],  den = [1, (W-2)/(W+2)]

def order1_highpass(fc):
    w = 2.0 * math.tan(math.pi * fc)
    num = np.array([2.0 / (2.0 + w), -2.0 / (2.0 + w)])
    den = np.array([1.0, (w - 2.0) / (w + 2.0)])
    return num, den


def freq_response(num, den, f):
    z = np.exp(2j * np.pi * np.asarray(f, dtype=float))
    numv = sum(c * z ** (-k) for k, c in enumerate(num))
    denv = sum(c * z ** (-k) for k, c in enumerate(den))
    return numv / denv


def test_order1_matches_closed_form():
    for fc in (0.02, 0.04, 0.1):
        filt = cl.design_butterworth_highpass(order=1, cutoff=fc)
        num_ref, den_ref = order1_highpass(fc)
        assert np.allclose(filt.num_coeffs, num_ref, atol=1e-12)
        assert np.allclose(filt.den_coeffs, den_ref, atol=1e-12)


def test_order2_magnitude_identity():
    # |H|^2 of an order-n Butterworth highpass at digital frequency f is
    # (Wd/Wc)^(2n) / (1 + (Wd/Wc)^(2n)) with W = 2 tan(pi f) after prewarping.
    filt = cl.design_butterworth_highpass(order=2, cutoff=0.04)
    wc = 2.0 * math.tan(math.pi * 0.04)
    for f in (0.01, 0.04, 0.1, 0.25, 0.4):
        wd = 2.0 * math.tan(math.pi * f)
        want = (wd / wc) ** 4 / (1.0 + (wd / wc) ** 4)
        got = abs(freq_response(filt.num_coeffs, filt.den_coeffs, f)) ** 2
        assert got == pytest.approx(want, rel=1e-10)


def test_dc_gain_and_passband():
    filt = cl.design_butterworth_highpass(2, 0.04)
    assert abs(freq_response(filt.num_coeffs, filt.den_coeffs, 0.0)) < 1e-12
    assert abs(freq_response(filt.num_coeffs, filt.den_coeffs, 0.5)) == \
        pytest.approx(1.0, abs=1e-6)
    assert abs(freq_response(filt.num_coeffs, filt.den_coeffs, 0.04)) == \
        pytest.approx(1 / math.sqrt(2), rel=1e-9)


def test_default_warmup_rule():
    assert cl.default_warmup(cl.design_butterworth_highpass(2, 0.04)) == 6
    assert cl.default_warmup(cl.design_butterworth_highpass(3, 0.05)) == 9


def test_design_validation():
    with pytest.raises(ValueError):
        cl.design_butterworth_highpass(0, 0.04)
    with pytest.raises(ValueError):
        cl.design_butterworth_highpass(2, 0.0)
    with pytest.raises(ValueError):
        cl.design_butterworth_highpass(2, 0.5)


@pytest.mark.parametrize("order, cutoff", [(8, 0.001), (6, 0.001), (5, 1e-4), (8, 0.4999)])
def test_design_rejects_what_rounding_breaks(order, cutoff):
    # In transfer-function form these designs lose their poles to rounding: a
    # step-matched constant comes out far from zero (or the filter is unstable).
    num, den = signal.butter(order, cutoff, btype="highpass", fs=1.0)
    raw = cl.IirFilter(order=order, num_coeffs=num, den_coeffs=den)
    residual = np.max(np.abs(cl.step_matched_highpass(np.ones(256), raw)))
    assert residual > 1e-6 or np.max(np.abs(np.roots(den))) >= 1.0
    with pytest.raises(ValueError, match="numerically unstable"):
        cl.design_butterworth_highpass(order, cutoff)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 8), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       st.integers(1, 1024), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
def test_step_matched_highpass_annihilates_constants(order, cutoff, n, c):
    try:
        filt = cl.design_butterworth_highpass(order, cutoff)
    except ValueError as exc:
        assert "numerically unstable" in str(exc)
        return
    out = cl.step_matched_highpass(np.full((3, n), c), filt)
    assert np.max(np.abs(out)) <= 1e-8 * abs(c)


# ---------------------------------------------------------------------------
# scipy.signal as the oracle of the numpy design and recursion; rtol 1e-14
# rather than bit equality, so a newer scipy cannot fail them on the last bit

def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-14,
                               atol=1e-14 * float(np.max(np.abs(want))))


@pytest.mark.parametrize("order", range(1, 9))
def test_design_matches_scipy_butter(order):
    for cutoff in np.linspace(0.002, 0.498, 32):
        num, den = cl._butterworth_highpass_ba(order, float(cutoff))
        want_num, want_den = signal.butter(order, cutoff, btype="highpass", fs=1.0)
        _assert_close(num, want_num)
        _assert_close(den, want_den)
        _assert_close(cl._step_state(num, den), signal.lfilter_zi(want_num, want_den))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
def test_step_matched_highpass_matches_lfilter(order, rng):
    filt = cl.design_butterworth_highpass(order, 0.1)
    num, den = filt.num_coeffs, filt.den_coeffs
    cube = rng.standard_normal((3, 4, 40)) + 1j * rng.standard_normal((3, 4, 40))
    for data in (cube, cube.real):
        zi = signal.lfilter_zi(num, den) * data[..., :1]
        want, _ = signal.lfilter(num, den, data, axis=-1, zi=zi)
        got = cl.step_matched_highpass(data, filt)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        _assert_close(got, want)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0 ** -60,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("order", range(1, 9))
def test_filter_symbols_matches_a_long_double_recursion(order, rng):
    # filter_symbols(x) = fl(x M^), M^ the float64 filter matrix. Against the
    # exact x M its error is at most
    #     |x| |M^ - M| + gamma_2P (|Re x| + |Im x|) |M^|,   gamma_n = n u / (1 - n u):
    # a real dot product of n terms rounds by at most gamma_n times the sum
    # of their magnitudes, and each real part here has 2P terms, P of them
    # products with 0 (Higham 2002, eq. 3.5). The recursion run in long double
    # stands in for M and x M; its own rounding, 2^-11 of float64's, gets the
    # factor 2. M^'s error has its own first-order bound: each step rounds
    # each of its order + 1 updates by at most 3u times the magnitudes it
    # adds, each at most T = ||b||_1 + ||a||_1 max|M| for a unit impulse, and
    # an error that enters passes to the output through 1/A(z), whose impulse
    # response g has ||g||_1 over the frame.
    filt = cl.design_butterworth_highpass(order, 0.1)
    num, den = filt.num_coeffs, filt.den_coeffs
    n_sym, u = 40, np.finfo(float).eps / 2
    m = cl.filter_matrix(filt, n_sym)
    m_err = np.abs(m - cl.step_matched_highpass(np.eye(n_sym, dtype=np.longdouble), filt))
    g = signal.lfilter([1.0], den, np.eye(1, n_sym)[0])
    t = np.sum(np.abs(num)) + np.sum(np.abs(den)) * np.max(np.abs(m))
    assert np.max(m_err) <= 3 * u * (order + 2) * np.sum(np.abs(g)) * t
    gamma = 2 * n_sym * u / (1 - 2 * n_sym * u)
    cube = rng.standard_normal((3, 4, n_sym)) + 1j * rng.standard_normal((3, 4, n_sym))
    for x in (cube, cube.real):
        err = np.abs(cl.filter_symbols(x, filt)
                     - cl.step_matched_highpass(x.astype(np.clongdouble), filt))
        bound = (np.max(np.abs(x) @ m_err)
                 + gamma * np.max((np.abs(x.real) + np.abs(x.imag)) @ np.abs(m)))
        assert np.max(err) <= 2 * bound


# ---------------------------------------------------------------------------
# the filtered-power sampler against drawing and filtering the noise

@pytest.mark.parametrize("with_target", [True, False], ids=["clutter+target", "clutter"])
def test_power_sampler_matches_full_draw(with_target):
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=24, noise_var=0.0)
    plan = default_plan(cfg, n_beams=9, span_deg=40.0)
    b, var, n_draws, chunk = 4, 0.5, 10_000, 1000
    target = Target(theta=float(plan.directions[b]), range=3.0, speed=2.0, alpha=1.0)
    scene = Scene((target,) if with_target else (),
                  reference_scene(cfg, n_scatterers=20, seed=3).scatterers)
    clean = cl.normalize_by_gain(ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0),
                                 plan, b, cfg)
    filt = cl.design_butterworth_highpass(2, 0.04)
    rng = np.random.default_rng(11)
    full = np.concatenate([
        np.sum(np.abs(cl.step_matched_highpass(
            clean + complex_normal(rng, var, (chunk, *clean.shape)), filt)) ** 2,
            axis=(1, 2, 3))
        for _ in range(n_draws // chunk)])
    sampler = cl.FilteredPowerSampler(clean[None], np.eye(cfg.n_sym), filt)
    sampled = np.concatenate([sampler.draw(rng, [var]) for _ in range(n_draws)])
    assert stats.ks_2samp(full, sampled).pvalue > 0.01


def _clean_cube(with_target, cfg, b=4):
    plan = default_plan(cfg, n_beams=9, span_deg=40.0)
    target = Target(theta=float(plan.directions[b]), range=3.0, speed=2.0, alpha=1.0)
    scene = Scene((target,) if with_target else (),
                  reference_scene(cfg, n_scatterers=20, seed=3).scatterers)
    return cl.normalize_by_gain(ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0),
                                plan, b, cfg)


def test_windowed_sampler_is_the_gaussian_conditioning():
    # dense oracle: y = x M with n white, so (y_W, y_R) has covariance v M^T M;
    # given y_W the rest has mean y_W K and covariance v S, the Schur complement
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=40, noise_var=0.0)
    clean = _clean_cube(True, cfg)
    filt = cl.design_butterworth_highpass(2, 0.04)
    for window in (1, 12, 39):
        sampler = cl.FilteredPowerSampler(clean[None], np.eye(cfg.n_sym), filt, window=window)
        m = cl.step_matched_highpass(np.eye(cfg.n_sym), filt)
        m_w, m_r = m[:, cfg.n_sym - window:], m[:, :cfg.n_sym - window]
        gram = m_w.T @ m_w
        k = np.linalg.solve(gram, m_w.T @ m_r)
        schur = m_r.T @ m_r - m_r.T @ m_w @ k
        f, v = sampler.factor, sampler.directions
        np.testing.assert_allclose(f.T @ f, gram, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.solve(f, sampler.mean_map) @ v.T, k,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(v @ np.diag(sampler.weights) @ v.T, schur,
                                   rtol=0, atol=1e-12)
        # the clean cube filtered once: its window and its rest in the directions V
        filtered = cl.step_matched_highpass(clean, filt).reshape(1, -1, cfg.n_sym)
        scale = float(np.max(np.abs(filtered)))
        np.testing.assert_allclose(sampler.clean_window, filtered[..., cfg.n_sym - window:],
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(sampler.clean_mean @ v.T, filtered[..., :cfg.n_sym - window],
                                   rtol=0, atol=1e-12 * scale)
    with pytest.raises(ValueError, match="window"):
        cl.FilteredPowerSampler(clean[None], np.eye(cfg.n_sym), filt, window=cfg.n_sym)


@pytest.mark.parametrize("with_target", [True, False], ids=["clutter+target", "clutter"])
def test_factored_sampler_matches_whole_cubes(with_target):
    # every beam's clean cube as coef @ rows: the far energies come from the
    # triangular factor of each beam's (n_series, R) coefficients, and must
    # equal the direct sum over the series; with stationary clutter alone the
    # filter nulls them, and they must still be >= 0
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=40, noise_var=0.0)
    plan = default_plan(cfg, n_beams=9, span_deg=40.0)
    target = Target(theta=float(plan.directions[4]), range=3.0, speed=2.0, alpha=1.0)
    scene = Scene((target,) if with_target else (),
                  reference_scene(cfg, n_scatterers=20, seed=3).scatterers)
    coef, rows = ec.clean_factors(scene, plan.weights, cfg)
    filt = cl.design_butterworth_highpass(2, 0.04)
    far = cl.FilteredPowerSampler(coef, rows, filt)
    m = cl.step_matched_highpass(np.eye(cfg.n_sym), filt)
    series = coef.reshape(plan.n_beams, -1, len(rows))
    direct = np.sum(np.abs(series @ (rows @ m @ far.directions)) ** 2, axis=1)
    assert np.all(far.energy >= 0)
    if with_target:
        np.testing.assert_allclose(far.energy, direct, rtol=0, atol=1e-12 * np.max(direct))
    else:
        clean_energy = np.sum(np.abs(coef) ** 2) * np.sum(np.abs(rows) ** 2)
        assert np.sum(far.energy) <= 1e-18 * clean_energy
    # the windowed sampler of the factors equals that of the whole cubes
    cubes = coef @ rows
    scale = float(np.max(np.abs(cubes)))
    got = cl.FilteredPowerSampler(coef, rows, filt, window=12)
    want = cl.FilteredPowerSampler(cubes, np.eye(cfg.n_sym), filt, window=12)
    assert got.shape == want.shape == (plan.n_beams, cfg.m_rx, cfg.n_sub, 12)
    np.testing.assert_allclose(got.clean_window, want.clean_window, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(got.clean_mean, want.clean_mean, rtol=0, atol=1e-12 * scale)


def _full_and_sampled(clean, filt, window, var, n_draws=10_000, chunk=1000, seed=11):
    """Total filtered power and window entry [0, 0, -1] of clean + CN(0, var)
    noise: drawn in full and filtered, then from the sampler, a unit noise
    window scaled to var."""
    rng = np.random.default_rng(seed)
    full_power, full_entry = [], []
    for _ in range(n_draws // chunk):
        y = cl.step_matched_highpass(clean + complex_normal(rng, var, (chunk, *clean.shape)),
                                     filt)
        full_power.append(np.sum(np.abs(y) ** 2, axis=(1, 2, 3)))
        full_entry.append(y[:, 0, 0, -1])
    sampler = cl.FilteredPowerSampler(np.broadcast_to(clean, (chunk, *clean.shape)),
                                      np.eye(clean.shape[-1]), filt, window=window)
    power, entry = [], []
    variances = np.full(chunk, var)
    for _ in range(n_draws // chunk):
        unit, sums = sampler.filter_noise(complex_normal(rng, 1.0, sampler.shape))
        power.append(sampler.draw(rng, variances, sums))
        win = sampler.windows(unit, variances, range(chunk), np.empty(sampler.shape, complex))
        assert win.shape == (chunk, *clean.shape[:-1], window)
        entry.append(win[:, 0, 0, -1])
    return [np.concatenate(x) for x in (full_power, full_entry, power, entry)]


def _assert_same_law(full_power, full_entry, power, entry):
    assert np.all(np.isfinite(power)) and np.all(np.isfinite(entry))
    assert stats.ks_2samp(full_power, power).pvalue > 0.01
    assert stats.ks_2samp(full_entry.real, entry.real).pvalue > 0.01
    assert stats.ks_2samp(full_entry.imag, entry.imag).pvalue > 0.01


def _two_cube_sampler(window):
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=24, noise_var=0.0)
    clean = _clean_cube(True, cfg)
    filt = cl.design_butterworth_highpass(2, 0.04)
    return cl.FilteredPowerSampler(np.stack([clean, 0.5j * clean]), np.eye(cfg.n_sym), filt,
                                   window=window)


def test_filter_noise_into_out_keeps_the_bits():
    # out starts NaN-filled: every entry of z F must be written before it is read
    sampler = _two_cube_sampler(window=8)
    noise = complex_normal(np.random.default_rng(3), 1.0, sampler.shape)
    kept = noise.copy()
    unit, sums = sampler.filter_noise(noise)
    out = np.full(sampler.shape, complex(np.nan, np.nan))
    for _ in range(2):      # a second call finds the first one's values in out
        got_unit, got_sums = sampler.filter_noise(noise, out)
        assert got_unit.shape == unit.shape == sampler.shape
        assert np.shares_memory(got_unit, out)
        assert got_unit.tobytes() == unit.tobytes()
        assert [a.tobytes() for a in got_sums] == [a.tobytes() for a in sums]
    assert noise.tobytes() == kept.tobytes()


def test_draw_at_a_window_needs_the_noise_sums():
    sampler = _two_cube_sampler(window=8)
    with pytest.raises(ValueError, match="draw at window 8 takes the sums of filter_noise"):
        sampler.draw(np.random.default_rng(5), [0.5, 2.0])


def test_filter_noise_rejects_noise_of_another_shape():
    sampler = _two_cube_sampler(window=8)
    noise = np.zeros((2, 4, 8, 7), dtype=complex)      # the size of no window
    with pytest.raises(ValueError, match=r"noise must have shape \(2, 4, 8, 8\), "
                                         r"got shape \(2, 4, 8, 7\)"):
        sampler.filter_noise(noise)
    with pytest.raises(ValueError, match=r"got shape \(2, 256\)"):   # the right size
        sampler.filter_noise(np.zeros((2, 256), dtype=complex))


def test_window_zero_takes_neither_noise_nor_sums():
    sampler = _two_cube_sampler(window=0)
    with pytest.raises(ValueError, match="a sampler without a window takes no noise"):
        sampler.filter_noise(np.zeros(sampler.shape, complex))
    windowed = _two_cube_sampler(window=8)
    _, sums = windowed.filter_noise(np.zeros(windowed.shape, complex))
    with pytest.raises(ValueError, match="draw at window 0 takes no sums"):
        sampler.draw(np.random.default_rng(5), [0.5, 2.0], sums)


@pytest.mark.parametrize("var", [[0.5], [0.5, 2.0, 1.0], 0.5, [[0.5, 2.0]]])
def test_draw_needs_one_variance_per_cube(var):
    for window in (0, 8):
        sampler = _two_cube_sampler(window)
        sums = (sampler.filter_noise(complex_normal(np.random.default_rng(3), 1.0,
                                                    sampler.shape))[1] if window else None)
        with pytest.raises(ValueError, match=r"var must have shape \(2,\), one per cube"):
            sampler.draw(np.random.default_rng(5), var, sums)


@pytest.mark.parametrize("with_target", [True, False], ids=["clutter+target", "clutter"])
def test_column_energies_are_the_direct_sums(with_target):
    # A + 2 q B + q^2 C against the sum over the series of |c + q z [F, G V]|^2,
    # column by column (the window's symbols, then the rest's directions), and the
    # windows against c M_W + q z F, over 60 decades of variance, for every beam's
    # cube in the factored form the sweep uses; without a target the filter nulls
    # the one stationary row, so the clean columns are its rounding residue
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=40, noise_var=0.0)
    plan = default_plan(cfg, n_beams=9, span_deg=40.0)
    target = Target(theta=float(plan.directions[4]), range=3.0, speed=2.0, alpha=1.0)
    scene = Scene((target,) if with_target else (),
                  reference_scene(cfg, n_scatterers=20, seed=3).scatterers)
    coef, rows = ec.clean_factors(scene, plan.weights, cfg)
    sampler = cl.FilteredPowerSampler(coef, rows, cl.design_butterworth_highpass(2, 0.04),
                                      window=12)
    rng = np.random.default_rng(7)
    z = complex_normal(rng, 1.0, sampler.shape)
    unit, sums = sampler.filter_noise(z)
    zs = z.reshape(plan.n_beams, -1, 12)
    for sigma2 in 10.0 ** np.arange(-30.0, 31.0, 5.0):
        var = sigma2 * np.linspace(1.0, 3.0, plan.n_beams)
        q = np.sqrt(var)[:, None, None]
        got = sampler.column_energies(var, sums)
        window = sampler.clean_window + (q * zs) @ sampler.factor
        mean = sampler.clean_mean + (q * zs) @ sampler.mean_map
        want = np.sum(np.abs(np.concatenate((window, mean), axis=2)) ** 2, axis=1)
        assert got.shape == want.shape == (plan.n_beams, cfg.n_sym)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(got >= 0)
        assert np.all(np.isfinite(sampler.draw(rng, var, sums)))    # no noncentrality < 0
        win = sampler.windows(unit, var, [5, 0], np.empty((2, *sampler.shape[1:]), complex))
        np.testing.assert_allclose(win, window[[5, 0]].reshape(win.shape), rtol=0,
                                   atol=1e-12 * np.max(np.abs(window)))


@pytest.mark.parametrize("snr_db", [-30.0, 20.0])
@pytest.mark.parametrize("with_target", [True, False], ids=["clutter+target", "clutter"])
def test_windowed_sampler_matches_full_draw(with_target, snr_db):
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=24, noise_var=0.0)
    clean = _clean_cube(with_target, cfg)
    filt = cl.design_butterworth_highpass(2, 0.04)
    _assert_same_law(*_full_and_sampled(clean, filt, 8, 10.0 ** (-snr_db / 10.0)))


@pytest.mark.parametrize("order, cutoff, window", [
    (2, 0.04, 23),            # n_sym_synth = n_sym + 1: the rest is one null symbol
    (8, 0.037, 8),            # the highest order, near the lowest cutoff it accepts
    (8, 0.4964, 8),           # ... and near the highest, where M_W^T M_W is singular
])
def test_windowed_sampler_at_the_edges(order, cutoff, window):
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=8, n_sym=24, noise_var=0.0)
    clean = _clean_cube(True, cfg)
    filt = cl.design_butterworth_highpass(order, cutoff)
    _assert_same_law(*_full_and_sampled(clean, filt, window, 0.5, n_draws=5000))


# ---------------------------------------------------------------------------
# behaviour on echo tensors

def _static_scene():
    return Scene((), (Scatterer(theta=0.2, range=3.0, alpha=1.0 + 0.5j),
                      Scatterer(theta=-0.4, range=5.0, alpha=0.3 - 0.8j)))


def test_stationary_input_annihilated(small_plan):
    # constant-along-p input must vanish from the very first output sample:
    # the initial condition is matched to a step of the first sample's height.
    cfg = SystemConfig(m_tx=4, m_rx=3, n_sub=4, n_sym=30, noise_var=0.0)
    y = ec.synthesize_echo(_static_scene(), small_plan, 2, cfg, noise_var=0.0)
    tilde = cl.normalize_by_gain(y, small_plan, 2, cfg)
    g = 2.0  # the boresight gain g_tilde, sqrt(m_tx) for m_tx = 4
    assert np.allclose(tilde * g, y, atol=1e-12)
    filt = cl.design_butterworth_highpass(2, 0.04)
    out = cl.filter_symbols(tilde, filt)
    scale = float(np.max(np.abs(tilde)))
    assert float(np.max(np.abs(out))) < 1e-10 * scale
    assert out.shape == tilde.shape
    assert cl.default_warmup(filt) == 6


def test_tone_reaches_steady_state():
    # long frame: past the transient the output of a pure Doppler tone is the
    # tone scaled by the filter's frequency response at that frequency.
    cfg = SystemConfig(m_tx=4, m_rx=2, n_sub=2, n_sym=200, noise_var=0.0)
    psi_d = 0.23
    p = np.arange(cfg.n_sym)
    tone = np.exp(2j * np.pi * psi_d * p)
    data = np.tile(tone, (cfg.m_rx, cfg.n_sub, 1)).astype(complex)
    filt = cl.design_butterworth_highpass(2, 0.04)
    out = cl.filter_symbols(data, filt)
    h = freq_response(filt.num_coeffs, filt.den_coeffs, psi_d)
    want = h * tone[150:]
    assert np.allclose(out[0, 0, 150:], want, atol=1e-9)


def test_filter_matrix_is_built_once_per_design_and_frame(monkeypatch, rng):
    # the recursion runs once per (design, frame length), however many blocks
    # and threads filter with it, and the shared matrix is read-only
    filt = cl.design_butterworth_highpass(3, 0.07)
    builds, recursion = [], cl.step_matched_highpass
    monkeypatch.setattr(cl, "step_matched_highpass",
                        lambda data, f: builds.append(np.shape(data)) or recursion(data, f))
    cl.filter_matrix.cache_clear()
    cube = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: cl.filter_symbols(cube, filt).tobytes(), range(64)))
    finally:
        sys.setswitchinterval(interval)
    assert set(got) == {cl.filter_symbols(cube, filt).tobytes()}
    builds.clear()
    for block in (cube[None], np.stack([cube] * 5), cube[0]):
        cl.filter_symbols(block, filt)
    assert builds == []
    cl.filter_symbols(cube[..., :12], filt)
    assert builds == [(12, 12)]
    m = cl.filter_matrix(filt, 16)
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0


def test_filter_symbols_rejects_short_frames(small_plan):
    cfg = SystemConfig(m_tx=4, m_rx=3, n_sub=4, n_sym=5, noise_var=0.0)
    y = ec.synthesize_echo(_static_scene(), small_plan, 0, cfg, noise_var=0.0)
    filt = cl.design_butterworth_highpass(2, 0.04)  # default warmup 6 > n_sym 5
    with pytest.raises(ValueError):
        cl.filter_symbols(cl.normalize_by_gain(y, small_plan, 0, cfg), filt)


# oracle: each normalized beam filtered alone, as the scan pipeline ran it
# before it filtered blocks of beams. The block filter must return each
# beam's bytes, whatever the block, and in place too.

def _filter_symbols_per_item(y, b, plan, cfg, filt):
    return cl.filter_symbols(y / g_tilde(plan, b, cfg), filt)


@pytest.mark.parametrize("order,cutoff", [(1, 0.1), (2, 0.04), (4, 0.2)])
def test_filter_beams_match_per_beam_filter(order, cutoff):
    cfg = SystemConfig(m_tx=8, m_rx=4, n_sub=6, n_sym=16, noise_var=0.3)
    plan = default_plan(cfg, n_beams=11, span_deg=50.0)
    scene = reference_scene(cfg, n_scatterers=30, seed=4)
    filt = cl.design_butterworth_highpass(order, cutoff)
    raw = [ec.synthesize_echo(scene, plan, b, cfg, seed=9) for b in range(plan.n_beams)]
    want = [_filter_symbols_per_item(y, b, plan, cfg, filt) for b, y in enumerate(raw)]
    for block in ([3], [0, 1, 2, 3, 4, 5, 6], list(range(11))):
        got = cl.filter_symbols(
            np.stack([cl.normalize_by_gain(raw[b], plan, b, cfg) for b in block]), filt)
        assert [cube.tobytes() for cube in got] == [want[b].tobytes() for b in block]
    tilde = cl.normalize_by_gain(raw[4], plan, 4, cfg)
    assert cl.filter_symbols(tilde, filt).tobytes() == want[4].tobytes()
    # in place, in the first cubes of a reused buffer that holds stale values
    buf = np.full((8, cfg.m_rx, cfg.n_sub, cfg.n_sym), np.nan, dtype=complex)
    for b, cube in zip(range(5), buf):
        cl.normalize_by_gain(raw[b], plan, b, cfg, out=cube)
    got = cl.filter_symbols(buf[:5], filt, out=buf[:5])
    assert np.shares_memory(got, buf)
    assert [cube.tobytes() for cube in got] == [want[b].tobytes() for b in range(5)]


# ---------------------------------------------------------------------------
# spectrum and peak picking

def test_scan_spectrum_hand_values(small_cfg):
    rows = []
    for b in range(3):
        data = np.full((small_cfg.m_rx, small_cfg.n_sub, small_cfg.n_sym),
                       float(b + 1), dtype=complex)
        rows.append(data)
    spec = cl.scan_spectrum(rows)
    # mean power per (subcarrier, symbol) cell summed over antennas:
    # m_rx * (b+1)^2
    want = small_cfg.m_rx * np.array([1.0, 4.0, 9.0])
    assert np.allclose(spec, want, atol=1e-12)


def test_find_peaks():
    flat = np.ones(11)
    assert cl.find_peaks(flat, 3.0) == []
    spec = np.ones(11)
    spec[4] = 30.0
    spec[8] = 9.0
    got = cl.find_peaks(spec, 3.0)
    assert got == [4, 8]
    # threshold is relative to the median
    assert cl.find_peaks(spec, 12.0) == [4]
    # an edge bin counts when it beats its single neighbor
    edge = np.ones(5)
    edge[0] = 50.0
    assert cl.find_peaks(edge, 3.0) == [0]
    with pytest.raises(ValueError):
        cl.find_peaks(spec, 1.0)


def test_top_local_maxima():
    spec = np.array([0.0, 5.0, 0.0, 9.0, 0.0, 2.0, 0.0])
    assert cl.top_local_maxima(spec, 2) == [1, 3]
    assert cl.top_local_maxima(spec, 1) == [3]
    assert cl.top_local_maxima(spec, 5) == [1, 3, 5]
