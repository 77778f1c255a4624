"""Fisher information against finite differences of the echo model."""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mtsense import cli, crb
from mtsense import echo as ec
from mtsense.beams import BeamPlan, steering, tx_gain
from mtsense.scene import (C0, Scatterer, Scene, SystemConfig, Target,
                           frequencies_target, range_frequency, spatial_frequency)


def _noiseless_vec(scene, plan, b, cfg):
    return ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0).data.ravel()


def _random_scene(rng, n_targets=1, n_scatterers=1):
    targets = tuple(
        Target(theta=float(rng.uniform(-0.7, 0.7)),
               range=float(rng.uniform(1.5, 6.5)),
               speed=float(rng.uniform(-4.0, 4.0)),
               alpha=complex(rng.normal(), rng.normal()))
        for _ in range(n_targets))
    scatterers = tuple(
        Scatterer(theta=float(rng.uniform(-0.7, 0.7)),
                  range=float(rng.uniform(1.5, 6.5)),
                  alpha=complex(rng.normal(), rng.normal()))
        for _ in range(n_scatterers))
    return Scene(targets, scatterers)


def _fd_jacobian(scene, plan, b, cfg, h=1e-6):
    """Central differences of the noiseless echo, column order matching
    jacobian_matrix: [theta_t..., r_t..., v_t..., theta_s..., r_s...]."""
    cols = []

    def fd(make_scene):
        hi = _noiseless_vec(make_scene(+h), plan, b, cfg)
        lo = _noiseless_vec(make_scene(-h), plan, b, cfg)
        return (hi - lo) / (2.0 * h)

    def perturbed(kind, idx, field):
        def make(d):
            if kind == "t":
                els = list(scene.targets)
                els[idx] = dataclasses.replace(
                    els[idx], **{field: getattr(els[idx], field) + d})
                return Scene(tuple(els), scene.scatterers)
            els = list(scene.scatterers)
            els[idx] = dataclasses.replace(
                els[idx], **{field: getattr(els[idx], field) + d})
            return Scene(scene.targets, tuple(els))
        return make

    for field in ("theta", "range", "speed"):
        for i in range(len(scene.targets)):
            cols.append(fd(perturbed("t", i, field)))
    for field in ("theta", "range"):
        for i in range(len(scene.scatterers)):
            cols.append(fd(perturbed("s", i, field)))
    return np.stack(cols, axis=1)


# per-(l, p) oracles of the vectorized response and Jacobian builders

def frequencies_scatterer(s: Scatterer, cfg: SystemConfig) -> tuple[float, float]:
    """(psi_r, psi_s) for a stationary scatterer."""
    return range_frequency(s.range, cfg), spatial_frequency(s.theta, cfg)


def response_vector(element, b: int, l: int, p: int, plan: BeamPlan,
                    cfg: SystemConfig) -> np.ndarray:
    """(M_r,) response of one element at subcarrier l, symbol p of scan b."""
    if isinstance(element, Target):
        psi_s, psi_r, psi_d = frequencies_target(element, cfg)
        dopp = np.exp(2j * math.pi * psi_d * p)
    elif isinstance(element, Scatterer):
        psi_r, psi_s = frequencies_scatterer(element, cfg)
        dopp = 1.0
    else:
        raise TypeError(f"unsupported element {type(element)}")
    g = tx_gain(element.theta, plan, b, cfg)
    rng_phase = np.exp(-2j * math.pi * psi_r * l)
    return dopp * rng_phase * g * steering(psi_s, cfg.m_rx)


def derivative_matrices(b: int, l: int, p: int, scene: Scene, plan: BeamPlan,
                        cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analytic partials of each element's (l, p) response (no alpha factor).

    Returns (dA_t, dA_s): M_r x 3*N_t and M_r x 2*N_s, columns grouped
    parameter-major ([theta..., r..., v...] for targets, [theta..., r...] for
    scatterers). The angle derivative acts through psi_s on both the receive
    steering vector and the transmit gain.
    """
    m_idx = np.arange(cfg.m_rx)
    lam = cfg.wavelength
    d_psi_r_d_r = 2.0 * cfg.delta_f / C0
    d_psi_d_d_v = 2.0 * cfg.t_total / lam

    def theta_col(element):
        if isinstance(element, Target):
            psi_s, psi_r, psi_d = frequencies_target(element, cfg)
            dopp = np.exp(2j * math.pi * psi_d * p)
        else:
            psi_r, psi_s = frequencies_scatterer(element, cfg)
            dopp = 1.0
        g = tx_gain(element.theta, plan, b, cfg)
        a_tx = steering(spatial_frequency(element.theta, cfg), cfg.m_tx)
        dg = complex((2j * math.pi * np.arange(cfg.m_tx) * a_tx) @ plan.weights[b])
        a_rx = steering(psi_s, cfg.m_rx)
        da_rx = 2j * math.pi * m_idx * a_rx
        rng_phase = np.exp(-2j * math.pi * psi_r * l)
        d_psi_s_d_theta = cfg.spacing * math.cos(element.theta) / lam
        return d_psi_s_d_theta * dopp * rng_phase * (g * da_rx + dg * a_rx)

    def range_col(element):
        base = response_vector(element, b, l, p, plan, cfg)
        return (-2j * math.pi * l * d_psi_r_d_r) * base

    def speed_col(target):
        base = response_vector(target, b, l, p, plan, cfg)
        return (2j * math.pi * p * d_psi_d_d_v) * base

    t_cols = (
        [theta_col(t) for t in scene.targets]
        + [range_col(t) for t in scene.targets]
        + [speed_col(t) for t in scene.targets]
    )
    s_cols = (
        [theta_col(s) for s in scene.scatterers]
        + [range_col(s) for s in scene.scatterers]
    )
    n_rx = cfg.m_rx
    da_t = np.stack(t_cols, axis=1) if t_cols else np.zeros((n_rx, 0), dtype=complex)
    da_s = np.stack(s_cols, axis=1) if s_cols else np.zeros((n_rx, 0), dtype=complex)
    return da_t, da_s




def test_jacobian_matches_finite_differences(small_cfg, small_plan):
    for trial in range(5):
        rng = np.random.default_rng(300 + trial)
        scene = _random_scene(rng, n_targets=2, n_scatterers=1)
        b = int(rng.integers(0, small_plan.n_beams))
        jac = crb.jacobian_matrix(scene, small_plan, b, small_cfg)
        fd = _fd_jacobian(scene, small_plan, b, small_cfg)
        assert jac.shape == fd.shape
        for k in range(jac.shape[1]):
            denom = max(np.linalg.norm(fd[:, k]), 1e-12)
            assert np.linalg.norm(jac[:, k] - fd[:, k]) / denom < 1e-4


def test_response_matrix_reconstructs_echo(small_cfg, small_plan):
    rng = np.random.default_rng(41)
    scene = _random_scene(rng, n_targets=2, n_scatterers=2)
    a = crb.response_matrix(scene, small_plan, 2, small_cfg)
    alpha = np.array([el.alpha for el in (*scene.targets, *scene.scatterers)])
    want = _noiseless_vec(scene, small_plan, 2, small_cfg)
    assert np.allclose(a @ alpha, want, atol=1e-10)


def test_response_vector_matches_matrix_rows(small_cfg, small_plan):
    rng = np.random.default_rng(42)
    scene = _random_scene(rng, n_targets=1, n_scatterers=1)
    a = crb.response_matrix(scene, small_plan, 1, small_cfg)
    n_sub, n_sym, m_rx = small_cfg.n_sub, small_cfg.n_sym, small_cfg.m_rx
    for l, p in ((0, 0), (2, 3), (n_sub - 1, n_sym - 1)):
        rows = [m * n_sub * n_sym + l * n_sym + p for m in range(m_rx)]
        for n, el in enumerate((*scene.targets, *scene.scatterers)):
            want = response_vector(el, 1, l, p, small_plan, small_cfg)
            assert np.allclose(a[rows, n], want, atol=1e-12)


def test_derivative_matrices_match_jacobian_slices(small_cfg, small_plan):
    rng = np.random.default_rng(43)
    scene = _random_scene(rng, n_targets=2, n_scatterers=1)
    jac = crb.jacobian_matrix(scene, small_plan, 2, small_cfg)
    alphas_t = np.array([t.alpha for t in scene.targets])
    alphas_s = np.array([s.alpha for s in scene.scatterers])
    n_sub, n_sym, m_rx = small_cfg.n_sub, small_cfg.n_sym, small_cfg.m_rx
    for l, p in ((1, 2), (3, 4)):
        da_t, da_s = derivative_matrices(2, l, p, scene, small_plan, small_cfg)
        rows = [m * n_sub * n_sym + l * n_sym + p for m in range(m_rx)]
        weighted_t = da_t * np.tile(alphas_t, 3)[None, :]
        weighted_s = da_s * np.tile(alphas_s, 2)[None, :]
        want = np.concatenate([weighted_t, weighted_s], axis=1)
        assert np.allclose(jac[rows, :], want, atol=1e-10)


def test_fim_is_positive_semidefinite(small_cfg, small_plan):
    for trial in range(3):
        rng = np.random.default_rng(500 + trial)
        scene = _random_scene(rng, n_targets=1, n_scatterers=2)
        blk = crb.fim_blocks(3, scene, small_plan, small_cfg)
        full = np.block([[blk.f1, blk.f2], [blk.f2.T, blk.f3]])
        eigs = np.linalg.eigvalsh(full)
        assert eigs.min() > -1e-8 * max(eigs.max(), 1.0)


def test_crb_scales_linearly_in_noise(small_cfg, small_plan):
    rng = np.random.default_rng(44)
    scene = _random_scene(rng, n_targets=1, n_scatterers=1)
    lo = crb.crb_eta_t(crb.fim_blocks(3, scene, small_plan, small_cfg,
                                      sigma2=0.5))
    hi = crb.crb_eta_t(crb.fim_blocks(3, scene, small_plan, small_cfg,
                                      sigma2=1.0))
    assert np.allclose(np.diag(hi.crb_matrix), 2.0 * np.diag(lo.crb_matrix),
                       rtol=1e-9)


def test_schur_equals_full_inverse_block(small_cfg, small_plan):
    t1 = Target(theta=0.15, range=3.2, speed=2.5, alpha=0.9 - 0.2j)
    s1 = Scatterer(theta=-0.4, range=5.0, alpha=0.5 + 0.7j)
    blk = crb.fim_blocks(3, Scene((t1,), (s1,)), small_plan, small_cfg)
    full = np.block([[blk.f1, blk.f2], [blk.f2.T, blk.f3]])
    inv = np.linalg.inv(full)
    res = crb.crb_eta_t(blk)
    assert np.allclose(inv[:3, :3], res.crb_matrix,
                       rtol=1e-8, atol=1e-12 * np.abs(res.crb_matrix).max())


def test_scatterer_never_helps(small_cfg, small_plan):
    t1 = Target(theta=0.15, range=3.2, speed=2.5, alpha=0.9 - 0.2j)
    s1 = Scatterer(theta=-0.4, range=5.0, alpha=0.5 + 0.7j)
    alone = crb.crb_eta_t(crb.fim_blocks(3, Scene((t1,), ()), small_plan,
                                         small_cfg))
    crowded = crb.crb_eta_t(crb.fim_blocks(3, Scene((t1,), (s1,)), small_plan,
                                           small_cfg))
    assert np.all(np.diag(crowded.crb_matrix)
                  >= np.diag(alone.crb_matrix) - 1e-15)


def test_blocks_add_and_total_fim_agrees(small_cfg, small_plan):
    rng = np.random.default_rng(45)
    scene = _random_scene(rng, n_targets=1, n_scatterers=1)
    per_beam = [crb.fim_blocks(b, scene, small_plan, small_cfg)
                for b in range(small_plan.n_beams)]
    total = crb.total_fim(scene, small_plan, small_cfg)
    for name in ("f1", "f2", "f3"):
        assert np.allclose(sum(getattr(blk, name) for blk in per_beam),
                           getattr(total, name), atol=1e-12)


def _dense_blocks(scene, plan, beams, cfg, sigma2):
    """2/sigma2 times Re(J^H J), J^H A and A^H A summed over beams, from the
    dense (M_r*L*P)-row matrices."""
    jj = ja = aa = 0.0
    for b in beams:
        j = crb.jacobian_matrix(scene, plan, b, cfg)
        a = crb.response_matrix(scene, plan, b, cfg)
        jj = jj + j.conj().T @ j
        ja = ja + j.conj().T @ a
        aa = aa + a.conj().T @ a
    scale = 2.0 / sigma2
    return scale * np.real(jj), scale * ja, scale * aa


@pytest.mark.parametrize("beams", [[3], [0, 2, 3, 6]])
def test_factor_gram_matches_dense_products(small_cfg, small_plan, beams):
    rng = np.random.default_rng(47)
    scene = _random_scene(rng, n_targets=2, n_scatterers=2)
    sigma2 = 0.7
    if len(beams) == 1:
        blk = crb.fim_blocks(beams[0], scene, small_plan, small_cfg, sigma2=sigma2)
    else:
        blk = crb._fim(scene, small_plan.weights[beams], small_cfg, sigma2)
    f1, cross, j2 = _dense_blocks(scene, small_plan, beams, small_cfg, sigma2)
    f2 = np.concatenate([np.real(cross), -np.imag(cross)], axis=1)
    f3 = np.block([[np.real(j2), -np.imag(j2)], [np.imag(j2), np.real(j2)]])
    assert (blk.f1.shape, blk.f2.shape, blk.f3.shape) == ((10, 10), (10, 8), (8, 8))
    for got, want in ((blk.f1, f1), (blk.f2, f2), (blk.f3, f3)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_crb_with_scatterers_matches_reference(tmp_path):
    """crb --include-scatterers at the benchmark's crb-dense bench size."""
    ref_path = (Path(__file__).resolve().parents[1]
                / "perfbench" / "reference" / "crb-dense-bench.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": {"n_scatterers": 100},
                                    "scan": {"n_beams": 15},
                                    "snr_list_db": [0.0, 20.0]}))
    rc = cli.main(["crb", "--include-scatterers", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    got = json.loads((tmp_path / "out" / "crb.json").read_text())
    want = json.loads(ref_path.read_text())
    assert [sorted(r) for r in got] == [sorted(r) for r in want]
    for g, w in zip(got, want):
        assert g["snr_db"] == w["snr_db"]
        for key in ("crb_theta_rad2", "crb_r_m2", "crb_v_mps2"):
            assert np.allclose(g[key], w[key], rtol=1e-9, atol=0.0), key


def test_duplicate_targets_raise(small_cfg, small_plan):
    t = Target(theta=0.2, range=3.0, speed=2.0, alpha=0.8 + 0.1j)
    blk = crb.fim_blocks(3, Scene((t, t), ()), small_plan, small_cfg)
    with pytest.raises(ValueError, match="under-identified"):
        crb.crb_eta_t(blk)


def test_sigma2_must_be_positive(small_cfg, small_plan):
    t = Target(theta=0.2, range=3.0, speed=2.0, alpha=1.0 + 0.0j)
    with pytest.raises(ValueError):
        crb.fim_blocks(0, Scene((t,), ()), small_plan, small_cfg, sigma2=0.0)
    with pytest.raises(ValueError):
        crb.fim_blocks(0, Scene((t,), ()), small_plan, small_cfg, sigma2=-1.0)


def test_result_dict_layout(small_cfg, small_plan):
    rng = np.random.default_rng(46)
    scene = _random_scene(rng, n_targets=2, n_scatterers=0)
    res = crb.crb_eta_t(crb.fim_blocks(3, scene, small_plan, small_cfg))
    d = crb.crb_result_to_dict(res, snr_db=-3.0)
    assert d["snr_db"] == -3.0
    diag = np.diag(res.crb_matrix)
    assert d["crb_theta_rad2"] == [float(v) for v in diag[0:2]]
    assert d["crb_r_m2"] == [float(v) for v in diag[2:4]]
    assert d["crb_v_mps2"] == [float(v) for v in diag[4:6]]
