"""Root-MUSIC frequency estimation on the three axes of a cube.

After clutter filtering, the candidate scan's tensor is (to first order) a
rank-1 outer product of a spatial, a range and a Doppler steering vector. Each
axis is estimated independently: take the sample covariance of the cube's
vectors along that axis, and root the MUSIC null polynomial of its noise
subspace. One source per scan is assumed throughout, so the noise subspace is
the complement of the principal eigenvector, and one root is used: the one
at the deepest null of the spectrum, found by Newton's method from a grid
search, not picked from all 2(M-1) roots.
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


class RootNotFound(RuntimeError):
    """Newton's method did not settle on a root of a null polynomial within
    NEWTON_STEPS evaluations."""


NEWTON_STEPS = 100      # cap on the polynomial evaluations per matrix
_STEP_TOL = 1e-13       # a Newton step below this fraction of |z| ends the search
_GRID = 8               # null-spectrum grid points per covariance row
_SIGNS = (+1, -1, +1)   # spatial, range, doppler


def covariances(cubes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial, range and Doppler sample covariances S S^H / I, each (n, M, M),
    of an (n, M_r, L, P') stack of cubes of retained symbols, where S holds
    the cube's I vectors along that axis; raises ValueError if any cube axis
    has fewer than 2 entries. Each is a batched product of views of the stack
    and of one conjugate copy of it (range summed over the antennas), so each
    cube gets the bits it gets alone. Non-finite data warns nothing.
    """
    n, m_r, n_l, n_p = cubes.shape
    if min(m_r, n_l, n_p) < 2:
        raise ValueError(f"each cube axis needs >= 2 entries, got {m_r}x{n_l}x{n_p}")
    conj = cubes.conj()
    with np.errstate(invalid="ignore", over="ignore"):
        spatial = cubes.reshape(n, m_r, -1) @ conj.reshape(n, m_r, -1).swapaxes(1, 2)
        doppler = cubes.reshape(n, -1, n_p).swapaxes(1, 2) @ conj.reshape(n, -1, n_p)
        ranges = cubes[:, 0] @ conj[:, 0].swapaxes(1, 2)
        for m in range(1, m_r):
            ranges += cubes[:, m] @ conj[:, m].swapaxes(1, 2)
        return spatial / (n_l * n_p), ranges / (m_r * n_p), doppler / (m_r * n_l)


def _null_polynomial(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (n, 2M-1) of the MUSIC null polynomial of each matrix of
    an (n, M, M) covariance stack, and the point (n,) of an 8M-point grid on
    the unit circle at the deepest null of its spectrum. Raises ValueError if
    any covariance is non-finite.

    The noise-subspace projector of one source is I - v v^H, v the principal
    eigenvector, so c_k, the sum of its k-th diagonal (k = 1-M up to M-1),
    is M delta_k minus v's autocorrelation at lag -k, and the null
    spectrum is M - |V|^2, V = FFT(v). One zero-padded FFT pair gives both.
    """
    if not np.all(np.isfinite(cov)):
        raise ValueError("sample covariance has non-finite entries")
    v = np.linalg.eigh(cov)[1][..., -1]   # ascending eigenvalues
    m = v.shape[-1]
    spec = np.fft.fft(v, _GRID * m, axis=-1)
    power = spec.real ** 2 + spec.imag ** 2
    coeffs = -np.fft.ifft(power, axis=-1)[..., np.arange(m - 1, -m, -1)]
    coeffs[..., m - 1] += m
    return coeffs, np.exp(2j * math.pi * np.argmax(power, axis=-1) / (_GRID * m))


def _null_root(cov: np.ndarray) -> np.ndarray:
    """(n,) root of the MUSIC null polynomial p(z) = sum_k c_k z^(M-1+k) of
    each matrix of an (n, M, M) covariance stack: the root plain Newton steps
    z <- z - p(z)/p'(z) reach from the grid seed of ``_null_polynomial``.
    Raises ValueError if any covariance is non-finite and RootNotFound if any
    matrix does not converge. A step takes p, p' and sum |c_i| |z^i| as row
    dot products of z's powers 0 to 2M-2 (one cumulative product) with the
    coefficients, the derivative's (formed once per call) and |c_i|, for any
    coefficient stack. A row leaves once a step is at most 1e-13 |z|, or once
    |p(z)| is within one rounding unit of that sum: z is then a root to the
    precision p can be evaluated in. Near the double root of noiseless data,
    which rounding splits, that ends the search about 1e-10 to 1e-8 from it.
    Every step is row by row, so each row gets the bits it gets alone.
    """
    c, z = _null_polynomial(cov)             # c[:, k] multiplies z^k
    k, rows = np.arange(c.shape[1]), np.arange(len(z))
    dc, scale = c[:, 1:] * k[1:], np.abs(c)
    for _ in range(NEWTON_STEPS):
        zr = z[rows]
        powers = np.cumprod(np.where(k > 0, zr[:, None], 1), axis=1)
        p = np.einsum("ij,ij->i", powers, c[rows])
        dp = np.einsum("ij,ij->i", powers[:, :-1], dc[rows])
        bound = np.einsum("ij,ij->i", np.abs(powers), scale[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        at_root = np.abs(p) <= np.finfo(float).eps / 2 * bound
        zr = np.where(at_root, zr, zr - step)
        z[rows] = zr
        rows = rows[~(at_root | (np.abs(step) <= _STEP_TOL * np.abs(zr)))]
        if rows.size == 0:
            return z
    raise RootNotFound(f"Newton's method found no null-polynomial root of {rows.size} of "
                       f"{len(z)} covariance matrices within the step cap of {NEWTON_STEPS}")


def root_music_frequency(cov: np.ndarray, sign: int) -> list[float]:
    """Normalized frequency in (-0.5, 0.5] of each matrix of an (n, M, M)
    covariance stack, from the phase of its ``_null_root``.

    The phase divided by 2 pi, times ``sign``, is the frequency estimate:
    sign is +1 where the steering phase goes as e^{+j2pi psi k} (spatial,
    doppler) and -1 for the range axis (e^{-j2pi psi l}). The roots come in
    pairs (z, 1/conj(z)) with one phase, so either of a pair gives it.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    psi = sign * np.angle(_null_root(cov)) / (2.0 * math.pi)
    return np.where(psi <= -0.5, psi + 1.0, psi).tolist()


def estimate_candidates(cubes: np.ndarray, scans: list[int],
                        cfg: SystemConfig) -> list[EstimationResult | Exception]:
    """``estimate_candidate`` of each cube of an (n, M_r, L, P') stack (scan
    scans[i]), from one ``covariances`` call and one stacked root-MUSIC call
    per axis for all of them. An empty stack gives []. If the stacked
    estimate or a unit conversion fails, each cube is estimated alone, and
    the entry of one that fails is its exception.
    """
    if len(cubes) == 0:
        return []
    try:
        psi = [root_music_frequency(cov, sign) for cov, sign in zip(covariances(cubes), _SIGNS)]
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
