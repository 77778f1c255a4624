"""Root-MUSIC frequency estimation and the three tensor rearrangements.

After clutter filtering, the candidate scan's tensor is (to first order) a
rank-1 outer product of a spatial, a range and a Doppler steering vector. Each
axis is estimated independently: slice the tensor into snapshot columns along
that axis, take the sample covariance, and root the MUSIC null polynomial of
its noise subspace. One source per scan is assumed throughout, so the noise
subspace always has dimension M-1 and one root is used: the one at the
deepest null of the spectrum, found by Newton's method from a grid search,
not picked from all 2(M-1) roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import (
    SystemConfig,
    range_from_psi_r,
    speed_from_psi_d,
    theta_from_psi_s,
)


@dataclass(frozen=True)
class EstimationResult:
    theta_hat: float
    range_hat: float
    speed_hat: float
    psi_s_hat: float
    psi_r_hat: float
    psi_d_hat: float
    scan_index: int


def noise_subspace(data: np.ndarray) -> np.ndarray:
    """Eigenvectors of the sample covariance for the M-1 smallest eigenvalues,
    (n, M, M-1), of each matrix of an (n, M, I) snapshot stack. Non-finite
    data raises ValueError, and the product that carries it warns nothing."""
    with np.errstate(invalid="ignore", over="ignore"):
        r_hat = (data @ data.conj().swapaxes(-1, -2)) / data.shape[-1]
    if not np.all(np.isfinite(r_hat)):
        raise ValueError("sample covariance has non-finite entries")
    _, vecs = np.linalg.eigh(r_hat)  # ascending eigenvalues
    return vecs[..., : data.shape[-2] - 1]


class RootNotFound(RuntimeError):
    """Newton's method did not settle on a root of a null polynomial within
    NEWTON_STEPS evaluations."""


NEWTON_STEPS = 100      # cap on the polynomial evaluations per matrix
_STEP_TOL = 1e-13       # a Newton step below this fraction of |z| ends the search
_GRID = 8               # null-spectrum grid points per snapshot row


def _null_root(data: np.ndarray) -> np.ndarray:
    """(n,) root of the MUSIC null polynomial p(z) = sum_k c_k z^(M-1+k) of
    each matrix of an (n, M, I) snapshot stack: the root Newton's method
    reaches from the deepest null of the spectrum. Raises ValueError if any
    covariance is non-finite and RootNotFound if any matrix does not converge.

    c_k is the sum of the k-th diagonal of the noise-subspace projector, k =
    M-1 down to -(M-1). On the unit circle |p(e^{jw})| = D(w) = sum_k c_k
    e^{jwk}, the null spectrum, so one zero-padded FFT of the coefficients
    gives |D| on an 8M-point grid for the whole stack, and its minimum seeds
    z. Plain Newton steps z <- z - p(z)/p'(z) follow, by Horner's rule. A
    row leaves the stack once a step is at most 1e-13 |z|, or once |p(z)| is
    within one rounding unit of sum |c_i| |z|^i: z is then a root to the
    precision p can be evaluated in. That ends the search at the double root
    of noiseless data, where the steps stop shrinking about 1e-8 from it.
    Every step is elementwise, so each row gets the bits it gets alone.
    """
    vn = noise_subspace(data)
    proj = vn @ vn.conj().swapaxes(-1, -2)
    m = proj.shape[-1]
    coeffs = np.stack([np.diagonal(proj, k, -2, -1).copy().sum(axis=-1)
                       for k in range(m - 1, -m, -1)], axis=-1)
    spec = np.fft.fft(coeffs, _GRID * m, axis=-1)
    z = np.exp(2j * math.pi * np.argmin(spec.real ** 2 + spec.imag ** 2, axis=-1) / (_GRID * m))
    rows, scale = np.arange(len(z)), np.abs(coeffs)
    for _ in range(NEWTON_STEPS):
        zr, c, a = z[rows], coeffs[rows].T, scale[rows].T
        mag = np.abs(zr)
        p, dp, bound = c[0], np.zeros_like(zr), a[0]
        for ci, ai in zip(c[1:], a[1:]):
            dp = dp * zr + p
            p = p * zr + ci
            bound = bound * mag + ai
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        at_root = np.abs(p) <= np.finfo(float).eps / 2 * bound
        zr = np.where(at_root, zr, zr - step)
        z[rows] = zr
        rows = rows[~(at_root | (np.abs(step) <= _STEP_TOL * np.abs(zr)))]
        if rows.size == 0:
            return z
    raise RootNotFound(f"Newton's method found no null-polynomial root of {rows.size} of "
                       f"{len(z)} snapshot matrices within the step cap of {NEWTON_STEPS}")


def root_music_frequency(data: np.ndarray, sign: int) -> list[float]:
    """Normalized frequency in (-0.5, 0.5] of each matrix of an (n, M, I)
    snapshot stack, from the phase of its ``_null_root``.

    The phase divided by 2 pi, times ``sign``, is the frequency estimate:
    sign is +1 where the steering phase goes as e^{+j2pi psi k} (spatial,
    doppler) and -1 for the range axis (e^{-j2pi psi l}). The roots come in
    pairs (z, 1/conj(z)) with one phase, so either of a pair gives it.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    psi = sign * np.angle(_null_root(data)) / (2.0 * math.pi)
    return np.where(psi <= -0.5, psi + 1.0, psi).tolist()


# ---------------------------------------------------------------------------
# snapshot stacks
#
# Each cube of the stack is (M_r, L, P') and holds only the symbols the
# estimator keeps: a filtered cube past its transient. The column order is
# fixed so rearrangements are reproducible bit for bit.

_SIGNS = (+1, -1, +1)          # spatial, range, doppler


def snapshots(cubes: np.ndarray, axis: int) -> np.ndarray:
    """(n, M, I) snapshot stack of an (n, M_r, L, P') stack of cubes, along
    cube axis 0 (spatial), 1 (range) or 2 (doppler); raises if M or I is below 2.

    Rows run over ``axis``; columns run over the other two axes, the lower
    one fastest:

        spatial  M_r x (L * P')    subcarrier fast, symbol slow
        range    L x (M_r * P')    antenna fast, symbol slow
        doppler  P' x (M_r * L)    antenna fast, subcarrier slow
    """
    others = sorted({1, 2, 3} - {axis + 1}, reverse=True)
    data = cubes.transpose(0, axis + 1, *others).reshape(len(cubes), cubes.shape[axis + 1], -1)
    m, i = data.shape[1:]
    if m < 2 or i < 2:
        raise ValueError(f"snapshot matrix needs M >= 2 and I >= 2, got {m}x{i}")
    return data


def estimate_candidates(cubes: np.ndarray, scans: list[int],
                        cfg: SystemConfig) -> list[EstimationResult | Exception]:
    """``estimate_candidate`` of each cube of an (n, M_r, L, P') stack (scan
    scans[i]), one stacked root-MUSIC call per axis for all of them. An empty
    stack gives []. If the stacked estimate or a unit conversion fails, each
    cube is estimated alone, and the entry of one that fails is its exception.
    """
    if len(cubes) == 0:
        return []
    try:
        psi = [root_music_frequency(snapshots(cubes, axis), _SIGNS[axis]) for axis in range(3)]
        return [EstimationResult(theta_from_psi_s(psi_s, cfg), range_from_psi_r(psi_r, cfg),
                                 speed_from_psi_d(psi_d, cfg), psi_s, psi_r, psi_d, b)
                for psi_s, psi_r, psi_d, b in zip(*psi, scans)]
    except Exception as exc:   # noqa: BLE001 - isolated per cube below
        if len(cubes) == 1:
            return [exc]
        return [estimate_candidates(cubes[i:i + 1], [b], cfg)[0] for i, b in enumerate(scans)]


def estimate_candidate(cube: np.ndarray, b: int, cfg: SystemConfig) -> EstimationResult:
    """Angle, range and speed of the single target assumed present in scan b,
    from its (M_r, L, P') cube of retained symbols.

    Negative range-frequency estimates wrap by one cycle before the meter
    conversion (range is nonnegative); angle and speed keep their sign.
    """
    (res,) = estimate_candidates(cube[None], [b], cfg)
    if isinstance(res, Exception):
        raise res
    return res
