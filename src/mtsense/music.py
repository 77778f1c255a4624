"""Root-MUSIC frequency estimation and the three tensor rearrangements.

After clutter filtering, the candidate scan's tensor is (to first order) a
rank-1 outer product of a spatial, a range and a Doppler steering vector. Each
axis is estimated independently: slice the tensor into snapshot columns along
that axis, take the sample covariance, and root the MUSIC null polynomial of
its noise subspace. One source per scan is assumed throughout, so the noise
subspace always has dimension M-1.
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
    (n, M, M-1), of each matrix of an (n, M, I) snapshot stack."""
    r_hat = (data @ data.conj().swapaxes(-1, -2)) / data.shape[-1]
    if not np.all(np.isfinite(r_hat)):
        raise ValueError("sample covariance has non-finite entries")
    _, vecs = np.linalg.eigh(r_hat)  # ascending eigenvalues
    return vecs[..., : data.shape[-2] - 1]


def _reciprocal_symmetrize(roots: np.ndarray) -> np.ndarray:
    """Restore the exact reciprocal pairing of the null polynomial's roots,
    for one root set (N,) or a stack of them (n, N).

    The coefficient sequence below is conjugate-symmetric (the projector is
    Hermitian to the bit), so the exact root multiset is closed under
    z -> 1/conj(z); circle zeros have even order because the polynomial is
    nonnegative there. np.roots loses that structure for (near-)double roots
    on the unit circle, splitting them by ~sqrt(eps) in arbitrary directions.
    Rebuild each matched pair (u, v ~ 1/conj(u)) around its mean so the pair
    is reciprocal exactly; the displacement stays within the roots' own
    companion-matrix error. Pairs that do not match within a loose tolerance
    (never the case for a conjugate-symmetric input) are left untouched.

    Greedy: the root farthest off the circle takes first, and its partner is
    the nearest free root to its image 1/conj(u) (a NaN distance nearest, the
    lowest index on a tie). The images, distances and tolerances are arrays;
    the greedy steps through the ``order`` positions once for the whole
    stack, one masked argmin per row and step, and the pairs are rebuilt in
    one step. ``abs`` of a complex scalar is hypot(re, im); np.abs of a
    complex array may differ from it in the last bit, so the tolerance test
    uses np.hypot.
    """
    stack = np.atleast_2d(roots)
    s, n = stack.shape
    if n % 2 or stack.size == 0:
        return roots
    order = np.argsort(-np.abs(np.abs(stack) - 1.0), axis=1)  # most off-circle first
    with np.errstate(divide="ignore", invalid="ignore"):    # a zero root is never paired
        images = 1.0 / np.conj(stack)
    diff = (stack[:, None, :] - images[:, :, None]).reshape(s * n, n)  # roots - image of flat i
    dist = np.abs(diff)
    # distances >= 0 order as their bit patterns do; a NaN comes first, a used root last
    key, last = np.where(np.isnan(dist), -1, dist.view(np.int64)), np.iinfo(np.int64).max
    tol = (1e-3 * (1.0 + np.hypot(images.real, images.imag))).ravel()
    flat, base = stack.ravel(), np.arange(s) * n     # base: flat index of each row's root 0
    pairable = (flat != 0) & np.isfinite(flat)
    used = np.zeros((s, n), dtype=bool)
    flat_used = used.reshape(-1)
    steps = []
    for gi in (order + base[:, None]).T:
        fresh = ~flat_used[gi]
        if not fresh.any():
            continue
        flat_used[gi] = True
        j = np.where(used, last, key[gi]).argmin(axis=1)
        d, gj = diff[gi, j], base + j
        pair = fresh & pairable[gi] & ~flat_used[gj] & ~(np.hypot(d.real, d.imag) > tol[gi])
        flat_used[gj] |= pair
        steps.append((gi, gj, fresh, pair))
    gi, gj, fresh, pair = map(np.array, zip(*steps))          # (steps, s) each
    width = fresh + pair.astype(int)                 # output slots each step fills
    at = base + np.cumsum(width, axis=0) - width     # flat output index
    out = np.empty(s * n, dtype=complex)
    single = fresh & ~pair
    out[at[single]] = flat[gi[single]]
    u, v, at = flat[gi[pair]], flat[gj[pair]], at[pair]
    r = np.sqrt(np.hypot(u.real, u.imag) / np.hypot(v.real, v.imag))
    zeta = r * np.exp(1j * (np.angle(u) + 0.5 * np.angle(v / u)))
    out[at] = zeta
    out[at + 1] = 1.0 / np.conj(zeta)
    return out.reshape(roots.shape)


def music_roots(data: np.ndarray) -> list[np.ndarray]:
    """Roots of the MUSIC null polynomial sum_k trace_k(Vn Vn^H) z^(M-1+k) of
    each matrix of an (n, M, I) snapshot stack; raises if any covariance is
    non-finite.

    The coefficient for offset k is the sum of the k-th diagonal of the noise
    subspace projector, k = M-1 down to -(M-1). Rooting goes through the
    companion matrix (np.roots) followed by the reciprocal-pair restoration.
    Each step is one call over the stack and gives every slice the bits of
    its own call: linalg gufuncs and matmul call LAPACK and BLAS per slice,
    each diagonal is summed from a contiguous copy in ``ndarray.trace``'s
    order, and the companion matrices are np.roots's own, except that a row
    with a zero end coefficient goes through np.roots, which trims it.
    """
    vn = noise_subspace(data)
    proj = vn @ vn.conj().swapaxes(-1, -2)
    m = proj.shape[-1]
    coeffs = np.stack([np.diagonal(proj, k, -2, -1).copy().sum(axis=-1)
                       for k in range(m - 1, -m, -1)], axis=-1)
    full = (coeffs[:, 0] != 0) & (coeffs[:, -1] != 0)
    size = 2 * m - 2
    companion = np.zeros((np.count_nonzero(full), size, size), dtype=coeffs.dtype)
    companion[:, np.arange(1, size), np.arange(size - 1)] = 1
    companion[:, 0] = -coeffs[full, 1:] / coeffs[full, :1]
    roots = iter(_reciprocal_symmetrize(np.linalg.eigvals(companion)))
    return [next(roots) if ok else _reciprocal_symmetrize(np.roots(c))
            for c, ok in zip(coeffs, full.tolist())]


def root_music_frequency(data: np.ndarray, sign: int) -> list[float]:
    """Normalized frequency in (-0.5, 0.5] of each matrix of an (n, M, I)
    snapshot stack, from the root nearest the unit circle.

    Among roots strictly inside the circle the one with the largest modulus is
    selected (ties broken toward the larger real part); its phase divided by
    2 pi, times ``sign``, is the frequency estimate: sign is +1 where the
    steering phase goes as e^{+j2pi psi k} (spatial, doppler) and -1 for the
    range axis (e^{-j2pi psi l}). Raises if any matrix has no such root.
    The selection runs as array steps over the whole stack.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    sets = music_roots(data)
    roots = np.full((len(sets), max(map(len, sets))), np.nan, dtype=complex)
    for row, found in zip(roots, sets):         # a trimmed set is padded with NaN
        row[:len(found)] = found
    mags = np.abs(roots)
    inside = mags < 1.0
    if not inside.any(axis=1).all():
        raise RuntimeError("no polynomial root strictly inside the unit circle")
    top = np.where(inside, mags, -np.inf).max(axis=1, keepdims=True)
    tied = inside & (mags > top - 1e-12)
    pick = np.where(tied, roots.real, -np.inf).argmax(axis=1)
    psi = sign * np.angle(roots[np.arange(len(roots)), pick]) / (2.0 * math.pi)
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
