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

Every column of J (the alpha-weighted parameter derivatives) and of A is a
sum of one or two Kronecker "atoms" c_b * (u kron v kron w), with per-axis
factors u (M_r,), v (L,), w (P,) that do not depend on the scan and a scalar
coefficient c_b that does (through the transmit gain). Both come from echo's
``element_factors`` and ``tx_gains``, the forward model of synthesis. With
the factors of n atoms as the rows of U (n x M_r), V (n x L) and W (n x P),
the Gram of the atoms is the elementwise product of the per-axis Grams (the
Khatri-Rao Gram identity),

    G = (U^* U^T) o (V^* V^T) o (W^* W^T),

and the sum of the per-scan Grams over a set of beams is G o (C^H C), with
C the (n_beams x n) coefficient matrix. So the blocks of a whole plan come
from one Gram of a few hundred atoms, and no (M_r * L * P)-row matrix is
formed. ``jacobian_matrix`` and ``response_matrix`` expand the same atoms
into the dense matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamPlan
from .echo import element_factors, tx_gains
from .scene import Scene, SystemConfig, doppler_frequency, range_frequency

TARGET_PARAMS = 3  # theta, range, speed
SCATTERER_PARAMS = 2  # theta, range


@dataclass(frozen=True)
class FimBlocks:
    """Per-scan (or summed) Fisher information blocks.

    f1  (K, K) over the geometric parameters, K = 3*N_t + 2*N_s
    f2  (K, 2*N_el) cross block against (Re alpha, Im alpha)
    f3  (2*N_el, 2*N_el) amplitude block
    n_targets  N_t; the bound reads the leading 3*N_t parameters
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    n_targets: int


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


# ---------------------------------------------------------------------------
# Kronecker atoms of the columns of [J | A]

def _atoms(scene: Scene, weights: np.ndarray, cfg: SystemConfig):
    """Kronecker atoms of the columns of [J | A] for the scans of a (B, M_t)
    stack of probing weights.

    Atom i is coef[i, j] * (rx[i] kron rng[i] kron dop[i]) in scan j.
    The factor rows come from ``element_factors`` and do not depend on the
    scan; coef holds g, alpha*g*dpsi_s, alpha*g'*dpsi_s or alpha*g, where g and
    its psi_s-derivative g' are the ``tx_gains`` of the scan. The atoms are
    sorted by the column of [J | A] they add into, and column c is the sum of
    the atoms from starts[c] to starts[c + 1]. J has k columns,
    [theta_t..., r_t..., v_t..., theta_s..., r_s...], and A one per element,
    targets first.

    Returns (rx, rng, dop, coef, starts, k).
    """
    elements = list(scene.targets) + list(scene.scatterers)
    n_t, n_el = len(scene.targets), len(elements)
    f = element_factors(elements, cfg)
    d_tx = 2j * math.pi * np.arange(cfg.m_tx) * f.a_tx
    g = tx_gains(f.a_tx, weights)
    dg = tx_gains(d_tx, weights)
    alpha = f.alpha[:, None]
    dpsi_s = (cfg.spacing * np.cos(f.theta) / cfg.wavelength)[:, None]

    # d/dpsi of each steering factor, times dpsi/dr and dpsi/dv of the linear maps
    m_phase = 2j * math.pi * np.arange(cfg.m_rx)
    l_phase = -2j * math.pi * np.arange(cfg.n_sub) * range_frequency(1.0, cfg)
    p_phase = 2j * math.pi * np.arange(cfg.n_sym) * doppler_frequency(1.0, cfg)

    n = np.arange(n_el)
    t = n[:n_t]
    k = TARGET_PARAMS * n_t + SCATTERER_PARAMS * (n_el - n_t)
    theta_col = np.where(n < n_t, n, n + 2 * n_t)
    range_col = np.where(n < n_t, n + n_t, n + n_t + n_el)
    atoms = (   # (column, rx, rng, dop, coef)
        (theta_col, f.a_rx * m_phase, f.a_r, f.a_d, alpha * g * dpsi_s),
        (theta_col, f.a_rx, f.a_r, f.a_d, alpha * dg * dpsi_s),
        (range_col, f.a_rx, f.a_r * l_phase, f.a_d, alpha * g),
        (t + 2 * n_t, f.a_rx[t], f.a_r[t], f.a_d[t] * p_phase, (alpha * g)[t]),
        (n + k, f.a_rx, f.a_r, f.a_d, g),
    )
    col, rx, rng, dop, coef = (np.concatenate(part) for part in zip(*atoms))
    order = np.argsort(col, kind="stable")
    starts = np.searchsorted(col[order], np.arange(k + n_el))
    return rx[order], rng[order], dop[order], coef[order], starts, k


def _dense_columns(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig):
    """[J | A] of scan b as a dense (M_r*L*P, k + N_el) matrix, and k."""
    rx, rng, dop, coef, starts, k = _atoms(scene, plan.weights[b:b + 1], cfg)
    cube = np.einsum("i,im,il,ip->imlp", coef[:, 0], rx, rng, dop)
    flat = cube.reshape(len(rx), cfg.m_rx * cfg.n_sub * cfg.n_sym)
    return np.add.reduceat(flat, starts, axis=0).T, k


def response_matrix(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig) -> np.ndarray:
    """A for scan b: one column per element (targets first), rows in (m, l, p) C order."""
    cols, k = _dense_columns(scene, plan, b, cfg)
    return cols[:, k:]


def jacobian_matrix(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig) -> np.ndarray:
    """J1 for scan b: alpha-weighted parameter derivatives of the stacked mean.

    Column order: [theta_t..., r_t..., v_t..., theta_s..., r_s...].
    """
    cols, k = _dense_columns(scene, plan, b, cfg)
    return cols[:, :k]


def _fim(scene: Scene, weights: np.ndarray, cfg: SystemConfig,
         sigma2: float | None) -> FimBlocks:
    """Information blocks summed over the scans of a (B, M_t) weight stack, from
    the atom Gram G o (C^H C) of the module docstring, summed into the columns of [J | A]."""
    sigma2 = cfg.noise_var if sigma2 is None else sigma2
    if sigma2 <= 0:
        raise ValueError("the information matrix needs sigma2 > 0")
    rx, rng, dop, coef, starts, k = _atoms(scene, weights, cfg)
    gram = ((rx.conj() @ rx.T) * (rng.conj() @ rng.T) * (dop.conj() @ dop.T)
            * (coef.conj() @ coef.T))
    gram = np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts, axis=1)
    scale = 2.0 / sigma2

    f1 = scale * np.real(gram[:k, :k])
    cross = gram[:k, k:]
    f2 = scale * np.concatenate([np.real(cross), -np.imag(cross)], axis=1)
    j2 = gram[k:, k:]
    f3 = scale * np.block([
        [np.real(j2), -np.imag(j2)],
        [np.imag(j2), np.real(j2)],
    ])
    return FimBlocks(
        f1=0.5 * (f1 + f1.T),
        f2=f2,
        f3=0.5 * (f3 + f3.T),
        n_targets=len(scene.targets),
    )


def fim_blocks(b: int, scene: Scene, plan: BeamPlan, cfg: SystemConfig,
               sigma2: float | None = None) -> FimBlocks:
    """Assemble the three information blocks for scan b."""
    return _fim(scene, plan.weights[b:b + 1], cfg, sigma2)


def total_fim(scene: Scene, plan: BeamPlan, cfg: SystemConfig,
              sigma2: float | None = None) -> FimBlocks:
    """Information blocks summed over every scan of the plan."""
    return _fim(scene, plan.weights, cfg, sigma2)


F3_RCOND = 1e-10


def crb_eta_t(blocks: FimBlocks) -> CrbResult:
    """Invert the Schur complement and extract the target-parameter block."""
    f3_pinv = np.linalg.pinv(blocks.f3, rcond=F3_RCOND, hermitian=True)
    s = blocks.f1 - blocks.f2 @ f3_pinv @ blocks.f2.T
    s = 0.5 * (s + s.T)
    try:
        crb_full = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("effective information matrix is singular "
                         "(under-identified geometry)") from exc
    nt = blocks.n_targets
    k = TARGET_PARAMS * nt
    crb = 0.5 * (crb_full[:k, :k] + crb_full[:k, :k].T)
    diag = np.diag(crb)
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
