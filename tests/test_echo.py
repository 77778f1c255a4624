"""Echo synthesis against a brute-force scalar oracle, plus the binary format."""
import cmath
import math
import re
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from mtsense import beams as bm
from mtsense import echo as ec
from mtsense.scene import (Scatterer, Scene, SystemConfig, Target, frequencies_target,
                           range_frequency, reference_scene, spatial_frequency,
                           thread_map)


# ---------------------------------------------------------------------------
# oracle: direct triple loop over (m, l, p) with scalar cmath arithmetic,
# summing each scene element's phase product explicitly. No numpy on the
# signal path, so it shares no code with the implementation under test.

def brute_force_echo(scene, plan, b, cfg):
    out = np.zeros((cfg.m_rx, cfg.n_sub, cfg.n_sym), dtype=complex)
    for m in range(cfg.m_rx):
        for l in range(cfg.n_sub):
            for p in range(cfg.n_sym):
                acc = 0j
                for t in scene.targets:
                    psi_s, psi_r, psi_d = frequencies_target(t, cfg)
                    g = bm.tx_gain(t.theta, plan, b, cfg)
                    acc += (t.alpha * g
                            * cmath.exp(2j * cmath.pi * p * psi_d)
                            * cmath.exp(-2j * cmath.pi * l * psi_r)
                            * cmath.exp(2j * cmath.pi * m * psi_s))
                for s in scene.scatterers:
                    psi_r, psi_s = range_frequency(s.range, cfg), spatial_frequency(s.theta, cfg)
                    g = bm.tx_gain(s.theta, plan, b, cfg)
                    acc += (s.alpha * g
                            * cmath.exp(-2j * cmath.pi * l * psi_r)
                            * cmath.exp(2j * cmath.pi * m * psi_s))
                out[m, l, p] = acc
    return out


def _two_element_scene():
    return Scene(
        targets=(Target(theta=0.35, range=3.2, speed=2.1, alpha=0.8 - 0.3j),
                 Target(theta=-0.6, range=5.5, speed=3.7, alpha=-0.2 + 1.1j)),
        scatterers=(Scatterer(theta=0.1, range=2.0, alpha=0.5 + 0.5j),),
    )


def test_synthesize_matches_brute_force(small_cfg, small_plan):
    # the empty scene, targets only, scatterers only and both put 0, n_t, 1
    # and n_t + 1 symbol rows in clean_factors' product. Each scene object is
    # synthesized under two configs in turn: the steering factors it keeps
    # between syntheses must follow the cfg
    full = _two_element_scene()
    other = replace(small_cfg, f_c=28e9, n_sym=7)
    for targets, scatterers in ((), ()), (full.targets, ()), ((), full.scatterers), \
            (full.targets, full.scatterers):
        scene = Scene(targets, scatterers)
        for b in (0, 3, 6):
            for cfg in (small_cfg, other):
                got = ec.synthesize_echo(scene, small_plan, b, cfg, noise_var=0.0)
                want = brute_force_echo(scene, small_plan, b, cfg)
                assert np.allclose(got, want, atol=1e-10)
                assert type(got) is np.ndarray and got.shape == want.shape


def test_synthesize_matches_brute_force_dense_scene(small_cfg, small_plan):
    rng = np.random.default_rng(77)
    targets = tuple(
        Target(theta=float(rng.uniform(-0.8, 0.8)), range=float(rng.uniform(1.0, 7.0)),
               speed=float(rng.uniform(-4.0, 4.0)),
               alpha=complex(rng.normal(), rng.normal()))
        for _ in range(2))
    scatterers = tuple(
        Scatterer(theta=float(rng.uniform(-1.0, 1.0)), range=float(rng.uniform(1.0, 7.0)),
                  alpha=complex(rng.normal(), rng.normal()))
        for _ in range(120))
    scene = Scene(targets, scatterers)
    for b in (1, 5):
        got = ec.synthesize_echo(scene, small_plan, b, small_cfg, noise_var=0.0)
        want = brute_force_echo(scene, small_plan, b, small_cfg)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_element_factors_match_scalar_helpers(small_cfg, small_plan):
    scene = _two_element_scene()
    elements = (*scene.targets, *scene.scatterers)
    f = ec.element_factors(elements, small_cfg)
    assert np.allclose(ec.tx_gains(f.a_tx, small_plan.weights[2:3])[:, 0],
                       [bm.tx_gain(el.theta, small_plan, 2, small_cfg) for el in elements],
                       rtol=0, atol=1e-13)
    psi_s, psi_r, psi_d = frequencies_target(scene.targets[0], small_cfg)
    assert np.allclose(f.a_rx[0], bm.steering(psi_s, small_cfg.m_rx), rtol=0, atol=1e-15)
    assert np.allclose(f.a_r[0], bm.steering(-psi_r, small_cfg.n_sub), rtol=0, atol=1e-15)
    assert np.allclose(f.a_d[0], bm.steering(psi_d, small_cfg.n_sym), rtol=0, atol=1e-15)
    assert np.array_equal(f.a_d[2], np.ones(small_cfg.n_sym))   # scatterer: no Doppler


def _clean_factors_per_beam(scene, weights, cfg):
    """clean_factors with each scan's gains formed on their own, by a one-beam
    einsum over the element stack: the oracle of the stacked gain table."""
    n_t = len(scene.targets)
    rows = np.ones((bool(scene.scatterers) + n_t, cfg.n_sym), dtype=complex)
    coef = np.empty((len(weights), cfg.m_rx, cfg.n_sub, len(rows)), dtype=complex)

    def weighted_rx(f, b):
        g = np.einsum("...m,m->...", f.a_tx, weights[b])
        return f.a_rx * (f.alpha * g)[:, None]

    if scene.targets:
        t = ec.element_factors(scene.targets, cfg)
        rows[len(rows) - n_t:] = t.a_d
        for b in range(len(weights)):
            coef[b, ..., len(rows) - n_t:] = weighted_rx(t, b).T[:, None, :] * t.a_r.T
    if scene.scatterers:
        s = ec.element_factors(scene.scatterers, cfg)
        for b in range(len(weights)):
            coef[b, ..., 0] = weighted_rx(s, b).T @ s.a_r
    return coef, rows


@pytest.mark.parametrize("with_scatterers", [True, False], ids=["reference", "targets only"])
def test_clean_factors_expand_to_the_synthesized_cubes(with_scatterers, small_cfg,
                                                       small_plan):
    # at the sweep's 61 beams and 64-symbol frame, the stacked gain table
    # leaves coef with the per-beam loop's bits; at a small config,
    # coef[b] @ rows is the scalar oracle's noiseless cube
    cfg = SystemConfig(n_sym=64)
    plan = bm.default_plan(cfg, n_beams=61, span_deg=60.0)
    scene = reference_scene(cfg)
    if not with_scatterers:
        scene = Scene(scene.targets, ())
    coef, rows = ec.clean_factors(scene, plan.weights, cfg)
    want_coef, want_rows = _clean_factors_per_beam(scene, plan.weights, cfg)
    assert coef.tobytes() == want_coef.tobytes() and rows.tobytes() == want_rows.tobytes()
    n_rows = len(scene.targets) + with_scatterers
    assert coef.shape == (plan.n_beams, cfg.m_rx, cfg.n_sub, n_rows)
    assert rows.shape == (n_rows, cfg.n_sym)

    scene = _two_element_scene()
    if not with_scatterers:
        scene = Scene(scene.targets, ())
    coef, rows = ec.clean_factors(scene, small_plan.weights, small_cfg)
    for b in (0, 3, 6):
        want = brute_force_echo(scene, small_plan, b, small_cfg)
        np.testing.assert_allclose(coef[b] @ rows, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))


def test_tx_gains_of_a_weight_stack_equal_one_beam_calls_bit_for_bit(cfg, plan, ref_scene):
    for kind in ("targets", "scatterers"):
        f = ec.element_factors(getattr(ref_scene, kind), cfg)
        table = ec.tx_gains(f.a_tx, plan.weights)
        assert table.shape == (len(f.theta), plan.n_beams)
        for b in range(plan.n_beams):
            one = ec.tx_gains(f.a_tx, plan.weights[b:b + 1])
            assert one.shape == (len(f.theta), 1)
            assert table[:, b].tobytes() == one[:, 0].tobytes()


def test_clean_cube_plus_noise_is_bit_identical(small_cfg, small_plan):
    scene = _two_element_scene()
    clean = ec.synthesize_echo(scene, small_plan, 3, small_cfg, noise_var=0.0)
    seeds = (0, (9, 4), ((1, 2), 3))
    noisy = ec.noisy_copies(clean, 3, 0.7, seeds)
    assert noisy.shape == (len(seeds), *clean.shape)
    for cube, seed in zip(noisy, seeds):
        direct = ec.synthesize_echo(scene, small_plan, 3, small_cfg, seed=seed,
                                    noise_var=0.7)
        assert np.array_equal(cube, direct)
    fresh = ec.synthesize_echo(scene, small_plan, 3, small_cfg, noise_var=0.0)
    assert np.array_equal(clean, fresh)      # noisy_copies copies
    assert np.array_equal(ec.noisy_copies(clean, 3, 0.0, [1])[0], clean)
    # into the first cubes of a larger buffer that holds stale values
    buf = np.full((len(seeds) + 2, *clean.shape), np.nan, dtype=complex)
    into = ec.noisy_copies(clean, 3, 0.7, seeds, out=buf)
    assert np.shares_memory(into, buf) and into.tobytes() == noisy.tobytes()


def test_threads_that_miss_at_once_build_the_factors_once(small_cfg, small_plan,
                                                          monkeypatch):
    scene = _two_element_scene()
    want = [ec.synthesize_echo(scene, small_plan, b, small_cfg, seed=1)
            for b in range(small_plan.n_beams)]
    built, element_factors = [], ec.element_factors

    def slow(elements, cfg):
        built.append(len(elements))
        time.sleep(0.05)      # every worker misses while the first one builds
        return element_factors(elements, cfg)
    monkeypatch.setattr(ec, "element_factors", slow)
    scene = _two_element_scene()
    got = thread_map(lambda b: ec.synthesize_echo(scene, small_plan, b, small_cfg, seed=1),
                     range(small_plan.n_beams), 4)
    assert sorted(built) == [1, 2]       # the scatterer and the targets, once each
    assert [y.tobytes() for y in got] == [y.tobytes() for y in want]


def test_noise_variance_and_determinism(small_cfg, small_plan):
    empty = Scene(targets=(), scatterers=())
    big = SystemConfig(m_tx=4, m_rx=40, n_sub=50, n_sym=60, noise_var=3.0)
    plan = bm.default_plan(big, n_beams=3, span_deg=30.0)
    y = ec.synthesize_echo(empty, plan, 1, big, seed=2)
    var = float(np.mean(np.abs(y) ** 2))
    assert var == pytest.approx(3.0, rel=0.05)

    again = ec.synthesize_echo(empty, plan, 1, big, seed=2)
    assert np.array_equal(y, again)
    other_scan = ec.synthesize_echo(empty, plan, 2, big, seed=2)
    assert not np.array_equal(y, other_scan)
    other_seed = ec.synthesize_echo(empty, plan, 1, big, seed=3)
    assert not np.array_equal(y, other_seed)


def test_seed_tuples_flatten(small_cfg, small_plan):
    empty = Scene(targets=(), scatterers=())
    y1 = ec.synthesize_echo(empty, small_plan, 0, small_cfg, seed=(4, 5))
    y2 = ec.synthesize_echo(empty, small_plan, 0, small_cfg, seed=((4,), 5))
    assert np.array_equal(y1, y2)


def test_linearity_in_alpha(small_cfg, small_plan):
    t = Target(theta=0.2, range=4.0, speed=1.5, alpha=0.7 + 0.2j)
    t2 = Target(theta=0.2, range=4.0, speed=1.5, alpha=2 * (0.7 + 0.2j))
    y1 = ec.synthesize_echo(Scene((t,), ()), small_plan, 2, small_cfg, noise_var=0.0)
    y2 = ec.synthesize_echo(Scene((t2,), ()), small_plan, 2, small_cfg, noise_var=0.0)
    assert np.allclose(y2, 2 * y1, atol=1e-12)


def test_superposition(small_cfg, small_plan):
    scene = _two_element_scene()
    whole = ec.synthesize_echo(scene, small_plan, 1, small_cfg, noise_var=0.0)
    parts = sum(
        ec.synthesize_echo(Scene((t,), ()), small_plan, 1, small_cfg, noise_var=0.0)
        for t in scene.targets
    ) + ec.synthesize_echo(Scene((), scene.scatterers), small_plan, 1, small_cfg,
                           noise_var=0.0)
    assert np.allclose(whole, parts, atol=1e-12)


def test_scatterers_have_no_doppler(small_cfg, small_plan):
    scene = Scene((), (Scatterer(theta=0.3, range=4.4, alpha=1.1 - 0.4j),))
    y = ec.synthesize_echo(scene, small_plan, 3, small_cfg, noise_var=0.0)
    # every symbol slice identical
    assert np.allclose(y, y[:, :, :1], atol=1e-14)


# ---------------------------------------------------------------------------
# binary tensor format: header <4I (m_rx, n_sub, n_sym, b), then float64
# little-endian re/im pairs, symbol-major (p, l, m) order. The oracle below
# parses a written file by hand with struct, independently of read_tensor.

def hand_parse(path):
    blob = open(path, "rb").read()
    m_rx, n_sub, n_sym, b = struct.unpack_from("<4I", blob, 0)
    vals = struct.unpack_from(f"<{2 * m_rx * n_sub * n_sym}d", blob, 16)
    data = np.zeros((m_rx, n_sub, n_sym), dtype=complex)
    i = 0
    for p in range(n_sym):
        for l in range(n_sub):
            for m in range(m_rx):
                data[m, l, p] = complex(vals[2 * i], vals[2 * i + 1])
                i += 1
    return data, b


def test_binary_round_trip_and_layout(tmp_path, small_cfg, small_plan):
    scene = _two_element_scene()
    y = ec.synthesize_echo(scene, small_plan, 4, small_cfg, seed=8)
    path = tmp_path / "echo.bin"
    ec.write_tensor(y, 4, path)

    data, b = hand_parse(path)
    assert b == 4
    assert np.array_equal(data, y)

    back, b = ec.read_tensor(path, small_cfg)
    assert np.array_equal(back, y) and back.flags.c_contiguous
    assert b == 4


def test_read_tensor_rejects_truncated(tmp_path, small_cfg, small_plan):
    y = ec.synthesize_echo(_two_element_scene(), small_plan, 0, small_cfg, seed=1)
    path = tmp_path / "echo.bin"
    ec.write_tensor(y, 0, path)
    blob = open(path, "rb").read()
    # a sample short, half a float64 short, and shorter than the 16-byte header
    for cut in (blob[:-16], blob[:-4], blob[:10]):
        open(path, "wb").write(cut)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            ec.read_tensor(path, small_cfg)


def test_read_tensor_rejects_a_shape_other_than_the_configs(tmp_path, small_cfg, small_plan):
    path = tmp_path / "echo.bin"
    # a whole file of another shape, and a file of cfg's shape read under another cfg
    ec.write_tensor(np.zeros((2, 2, 2), dtype=complex), 0, path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        ec.read_tensor(path, small_cfg)
    ec.write_tensor(ec.synthesize_echo(_two_element_scene(), small_plan, 0, small_cfg, seed=1),
                    0, path)
    for other in (replace(small_cfg, n_sym=small_cfg.n_sym + 1), replace(small_cfg, m_rx=small_cfg.m_rx + 1)):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            ec.read_tensor(path, other)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, 1.0)])
def test_read_tensor_rejects_non_finite_samples(tmp_path, small_cfg, small_plan, bad):
    y = ec.synthesize_echo(_two_element_scene(), small_plan, 2, small_cfg, seed=1)
    y[1, 2, 3] = bad
    path = tmp_path / "echo.bin"
    ec.write_tensor(y, 2, path)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*non-finite"):
        ec.read_tensor(path, small_cfg)
