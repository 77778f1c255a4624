"""Fisher information blocks and the Cramer-Rao bound for target kinematics.

The noiseless echo of scan b is linear in the reflection coefficients,
y = A(eta) alpha + n, where each column of A is the full (M_r * L * P)-vector
response of one scene element and eta collects the geometric parameters
(theta, range, speed per target; theta, range per scatterer). The information
about eta that survives not knowing the complex alphas is the Schur
complement

    S = F1 - F2 F3^+ F2^T

over the real/imag amplitude blocks; its inverse's leading 3*N_t x 3*N_t
block bounds the covariance of any unbiased target-parameter estimator.
Blocks from independent scans add, so multi-beam bounds are sums of the
per-beam blocks before the Schur step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamPlan
from .echo import element_factors, tx_gains
from .scene import C0, Scene, SystemConfig

TARGET_PARAMS = 3  # theta, range, speed
SCATTERER_PARAMS = 2  # theta, range


@dataclass(frozen=True)
class FimBlocks:
    """Per-scan (or summed) Fisher information blocks.

    f1  (K, K) over the geometric parameters, K = 3*N_t + 2*N_s
    f2  (K, 2*N_el) cross block against (Re alpha, Im alpha)
    f3  (2*N_el, 2*N_el) amplitude block
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    sigma2: float
    n_targets: int
    n_scatterers: int

    def __add__(self, other: "FimBlocks") -> "FimBlocks":
        if self.f1.shape != other.f1.shape or self.sigma2 != other.sigma2:
            raise ValueError("can only add blocks of matching shape and sigma2")
        return FimBlocks(
            f1=self.f1 + other.f1,
            f2=self.f2 + other.f2,
            f3=self.f3 + other.f3,
            sigma2=self.sigma2,
            n_targets=self.n_targets,
            n_scatterers=self.n_scatterers,
        )


@dataclass(frozen=True)
class CrbResult:
    """Leading target block of the inverse Schur complement.

    crb_matrix is ordered [theta_1..theta_Nt, r_1..r_Nt, v_1..v_Nt] in
    (rad, m, m/s) units squared on the diagonal.
    """

    crb_matrix: np.ndarray
    std_theta: np.ndarray
    std_range: np.ndarray
    std_speed: np.ndarray


def _tx_gain_derivative(a_tx: np.ndarray, plan: BeamPlan, b: int) -> np.ndarray:
    """d(tx gain)/d(psi_s) at each transmit steering row's own spatial frequency."""
    return tx_gains(2j * math.pi * np.arange(a_tx.shape[-1]) * a_tx, plan.weights[b])


# ---------------------------------------------------------------------------
# vectorized whole-scan builders, stacked over all (m_r, l, p) in C order

def _element_factors(elements, b, plan, cfg):
    f = element_factors(elements, cfg)
    g = tx_gains(f.a_tx, plan.weights[b])
    dg = _tx_gain_derivative(f.a_tx, plan, b)
    dpsis = cfg.spacing * np.cos(f.theta) / cfg.wavelength
    return f.a_rx, f.a_r, f.a_d, g, dg, dpsis


def _stack(sp, rg, dp, scale):
    """Columns scale_n * (sp_n kron rg_n kron dp_n) as (M_r*L*P, N)."""
    cube = np.einsum("n,nm,nl,np->nmlp", scale, sp, rg, dp)
    return cube.reshape(cube.shape[0], -1).T


def response_matrix(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig) -> np.ndarray:
    """A for scan b: one column per element (targets first), rows in (m, l, p) C order."""
    elements = list(scene.targets) + list(scene.scatterers)
    if not elements:
        return np.zeros((cfg.m_rx * cfg.n_sub * cfg.n_sym, 0), dtype=complex)
    sp, rg, dp, g, _, _ = _element_factors(elements, b, plan, cfg)
    return _stack(sp, rg, dp, g)


def jacobian_matrix(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig) -> np.ndarray:
    """J1 for scan b: alpha-weighted parameter derivatives of the stacked mean.

    Column order: [theta_t..., r_t..., v_t..., theta_s..., r_s...].
    """
    m_phase = 2j * math.pi * np.arange(cfg.m_rx)
    l_phase = -2j * math.pi * np.arange(cfg.n_sub) * (2.0 * cfg.delta_f / C0)
    p_phase = 2j * math.pi * np.arange(cfg.n_sym) * (2.0 * cfg.t_total / cfg.wavelength)

    blocks = []
    for elements, with_speed in ((list(scene.targets), True),
                                 (list(scene.scatterers), False)):
        if not elements:
            continue
        sp, rg, dp, g, dg, dpsis = _element_factors(elements, b, plan, cfg)
        alpha = np.array([el.alpha for el in elements])
        d_sp = sp * m_phase[None, :]
        blocks.append(_stack(d_sp, rg, dp, alpha * g * dpsis)
                      + _stack(sp, rg, dp, alpha * dg * dpsis))   # theta
        blocks.append(_stack(sp, rg * l_phase[None, :], dp, alpha * g))  # range
        if with_speed:
            blocks.append(_stack(sp, rg, dp * p_phase[None, :], alpha * g))  # speed
    if not blocks:
        n_vec = cfg.m_rx * cfg.n_sub * cfg.n_sym
        return np.zeros((n_vec, 0), dtype=complex)
    return np.concatenate(blocks, axis=1)


def fim_blocks(b: int, scene: Scene, plan: BeamPlan, cfg: SystemConfig,
               sigma2: float | None = None) -> FimBlocks:
    """Assemble the three information blocks for scan b."""
    sigma2 = cfg.noise_var if sigma2 is None else sigma2
    if sigma2 <= 0:
        raise ValueError("the information matrix needs sigma2 > 0")
    j1 = jacobian_matrix(scene, plan, b, cfg)
    a = response_matrix(scene, plan, b, cfg)
    scale = 2.0 / sigma2

    f1 = scale * np.real(j1.conj().T @ j1)
    cross = j1.conj().T @ a
    f2 = scale * np.concatenate([np.real(cross), -np.imag(cross)], axis=1)
    j2 = a.conj().T @ a
    f3 = scale * np.block([
        [np.real(j2), -np.imag(j2)],
        [np.imag(j2), np.real(j2)],
    ])
    return FimBlocks(
        f1=0.5 * (f1 + f1.T),
        f2=f2,
        f3=0.5 * (f3 + f3.T),
        sigma2=sigma2,
        n_targets=len(scene.targets),
        n_scatterers=len(scene.scatterers),
    )


def total_fim(scene: Scene, plan: BeamPlan, cfg: SystemConfig,
              sigma2: float | None = None, beams=None) -> FimBlocks:
    """Sum of per-scan blocks over the listed beams (default: the whole plan)."""
    beams = range(plan.n_beams) if beams is None else beams
    total = None
    for b in beams:
        blk = fim_blocks(b, scene, plan, cfg, sigma2=sigma2)
        total = blk if total is None else total + blk
    if total is None:
        raise ValueError("no beams given")
    return total


F3_RCOND = 1e-10


def crb_eta_t(blocks: FimBlocks, n_targets: int | None = None) -> CrbResult:
    """Invert the Schur complement and extract the target-parameter block."""
    n_targets = blocks.n_targets if n_targets is None else n_targets
    f3_pinv = np.linalg.pinv(blocks.f3, rcond=F3_RCOND, hermitian=True)
    s = blocks.f1 - blocks.f2 @ f3_pinv @ blocks.f2.T
    s = 0.5 * (s + s.T)
    try:
        crb_full = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("effective information matrix is singular "
                         "(under-identified geometry)") from exc
    k = TARGET_PARAMS * n_targets
    crb = 0.5 * (crb_full[:k, :k] + crb_full[:k, :k].T)
    diag = np.diag(crb)
    nt = n_targets
    return CrbResult(
        crb_matrix=crb,
        std_theta=np.sqrt(np.abs(diag[0:nt])),
        std_range=np.sqrt(np.abs(diag[nt:2 * nt])),
        std_speed=np.sqrt(np.abs(diag[2 * nt:3 * nt])),
    )


def crb_result_to_dict(result: CrbResult, snr_db: float) -> dict:
    nt = len(result.std_theta)
    diag = np.diag(result.crb_matrix)
    return {
        "snr_db": snr_db,
        "crb_theta_rad2": [float(v) for v in diag[0:nt]],
        "crb_r_m2": [float(v) for v in diag[nt:2 * nt]],
        "crb_v_mps2": [float(v) for v in diag[2 * nt:3 * nt]],
    }
