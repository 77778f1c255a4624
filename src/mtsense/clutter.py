"""Zero-Doppler clutter suppression and the beam-scan search spectrum.

Stationary scatterers produce echoes that are constant along the symbol axis,
so a high-pass IIR filter applied along p removes them while a moving target's
Doppler tone passes through with near unit gain. The per-beam average residual
power P(b) then peaks at beams containing moving targets.

The filter is designed in numpy alone, by the same arithmetic as
scipy.signal's butter, lfilter_zi and lfilter, so the design and its matrix M
(the recursion run on the identity) carry the same bits. Data is filtered as
one product, x M (filter_symbols). FilteredPowerSampler filters the rows of
clean cubes given as coef @ rows by M once and then draws what their noisy
copies give after the filter: the last symbols of the filtered cube from a
window of noise, and the filtered power of the rest from its law given that
window, without drawing the rest of the noise. One window of unit noise
serves every noise level.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamPlan, g_tilde
from .scene import SystemConfig

DEFAULT_ORDER = 2
DEFAULT_CUTOFF = 0.04
_NULL_TOL = 1e-9     # largest output a unit constant may leave after step matching
_NEGLIGIBLE = 1e-24  # share of the filter's energy below which a direction is noiseless


@dataclass(frozen=True, eq=False)   # hashed by identity, for filter_matrix's cache
class IirFilter:
    """Designed high-pass filter. den_coeffs[0] is normalized to 1."""

    order: int
    num_coeffs: np.ndarray
    den_coeffs: np.ndarray


@functools.lru_cache(maxsize=16)   # every config load checks its filter design
def design_butterworth_highpass(order: int = DEFAULT_ORDER,
                                cutoff: float = DEFAULT_CUTOFF) -> IirFilter:
    """Butterworth high-pass via the prewarped bilinear transform.

    ``cutoff`` is the -3 dB frequency in cycles per sample, 0 < cutoff < 0.5.
    High orders at cutoffs near 0 or 0.5 put the poles so close to the unit
    circle that the transfer-function coefficients lose them. Such a design
    raises ValueError: a pole on or outside the circle, a DC gain above 1e-9,
    or a unit constant that ``step_matched_highpass`` leaves above 1e-9.
    """
    if not 1 <= order <= 8:
        raise ValueError("order must be in 1..8")
    if not 0.0 < cutoff < 0.5:
        raise ValueError("cutoff must lie strictly inside (0, 0.5) cycles/sample")
    num, den = _butterworth_highpass_ba(order, cutoff)
    num.flags.writeable = den.flags.writeable = False      # shared by the cache
    filt = IirFilter(order=order, num_coeffs=num, den_coeffs=den)
    if (np.max(np.abs(np.roots(den))) >= 1.0 or not abs(sum(num) / sum(den)) <= _NULL_TOL
            or not np.max(np.abs(step_matched_highpass(np.ones(256), filt))) <= _NULL_TOL):
        raise ValueError(f"order {order} at cutoff {cutoff} is numerically unstable in "
                         f"transfer-function form (a constant is not annihilated); use "
                         f"a lower order or a cutoff further from 0 and 0.5")
    return filt


def _butterworth_highpass_ba(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer function by scipy.signal.butter's route: the analog prototype's
    poles, low-pass to high-pass at the prewarped cutoff, the bilinear transform
    at fs = 2, then the polynomials. The zeros all land at z = 1."""
    m = np.arange(-order + 1, order, 2, dtype=float)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    warped = 4.0 * np.tan(np.pi * cutoff)
    gain = np.real(1.0 / np.prod(-poles))
    poles = warped / poles
    gain = gain * np.real(4.0 ** order / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    return gain * np.poly(np.ones(order)), np.poly(poles)


def _step_state(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Filter state after a unit step has settled (scipy.signal.lfilter_zi)."""
    n = len(den) - 1
    companion = np.eye(n, k=-1)
    companion[0] = -den[1:]
    return np.linalg.solve(np.eye(n) - companion.T, num[1:] - den[1:] * num[0])


def default_warmup(filt) -> int:
    """Transient outputs of a filter (IirFilter or FilterSpec): 3x its order."""
    return 3 * filt.order


def normalize_by_gain(y: np.ndarray, plan: BeamPlan, b: int, cfg: SystemConfig,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Scan b's raw cube divided by its boresight gain g_tilde, into ``out``
    if given."""
    return np.divide(y, g_tilde(plan, b, cfg), out=out)


def step_matched_highpass(data: np.ndarray, filt: IirFilter) -> np.ndarray:
    """High-pass every series along the last axis of an array of any shape,
    real or complex, by the direct form II transposed recursion.

    The filter state is seeded with the steady-state step response scaled by
    each series' first sample, so a component that is constant along the
    axis is annihilated from the very first output sample. Run on the
    identity this defines the filter matrix M (filter_matrix).
    """
    num, den = filt.num_coeffs, filt.den_coeffs
    b, a = num.tolist(), den.tolist()
    x = np.asarray(data, dtype=np.result_type(data, num))
    y = np.empty_like(x, order="C")
    state = list(np.multiply.outer(_step_state(num, den), x[..., 0]))
    for p in range(x.shape[-1]):
        xp = x[..., p]
        y[..., p] = yp = xp * b[0] + state[0]
        for n in range(1, len(a) - 1):
            state[n - 1] = (state[n] + xp * b[n]) - yp * a[n]
        state[-1] = xp * b[-1] - yp * a[-1]
    return y


@functools.lru_cache(maxsize=16)   # one per (design, frame length): never per block
def filter_matrix(filt: IirFilter, n_sym: int) -> np.ndarray:
    """The filter as a real, read-only (n_sym, n_sym) matrix M: a frame x of
    n_sym symbols filters to x M, M = step_matched_highpass(eye(n_sym))."""
    m = step_matched_highpass(np.eye(n_sym), filt)
    m.flags.writeable = False
    return m


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over axis 1 of Re(conj(a) b), per cube and column, from float views."""
    dots = np.einsum("isk,isk->ik", a.view(float), b.view(float))
    return dots.reshape(len(a), -1, 2).sum(axis=2)


class FilteredPowerSampler:
    """Filters the rows of a stack of clean cubes c = coef[i] @ rows once,
    then draws what each noisy cube c + q z, z ~ CN(0, 1) white and q > 0 its
    cube's noise deviation, gives after the filter: the last
    ``window`` filtered symbols in full, and the total filtered power. Only the
    window's share of z is drawn, by the caller; with window 0 nothing is.
    coef is (cubes, ..., R) and rows (R, P), so no cube of P symbols is built;
    whole cubes pass as (cubes, eye(P)).

    The filter is y = x M, M = filter_matrix(filt, n_sym), the matrix that
    filter_symbols applies to cubes. Put the window's columns first,
    [M_W, M_R] = Q T with Q orthogonal and T upper triangular. Then zQ =
    [z, w] is white again, and

        window = c M_W + q z F,              F = T_WW
        rest   = c M_R + q (z G + w H),      G = T_WR,  H = T_RR = U diag(s) V^T

    so the window rows are CN(c M_W, q^2 F^T F = q^2 M_W^T M_W), and given them
    the rest is CN(c M_R + q z G, q^2 V diag(s^2) V^T): the Gaussian
    conditioning, with no inverse of M_W^T M_W. In the directions V the rest's
    power is (q^2/2) sum_k s_k^2 X_k, X_k noncentral chi-square with 2 * n_series
    degrees of freedom and noncentrality 2 E_k / (q^2 s_k^2), E_k the energy of
    the rest's mean in direction k. A direction with s_k^2 below _NEGLIGIBLE
    of the filter's energy (the step-matched null) adds E_k as it is.

    The noise enters linearly, so one unit window z serves every q.
    ``filter_noise`` forms u = z F and u_m = z G V once and, per column j (the
    window's symbols, then the rest's directions) summed over each cube's
    series, B_j = sum Re(conj(c_j) u_j) and C_j = sum |u_j|^2. Then the
    window's power at q is the sum over its columns of A_j + 2 q B_j + q^2 C_j,
    A_j = sum |c_j|^2 from the clean cubes alone, and E_k is the same
    quadratic in the rest's directions; only the windows read are formed,
    c M_W + q u (``windows``). At window 0, E_k = A_k.
    """

    def __init__(self, coef: np.ndarray, rows: np.ndarray, filt: IirFilter, window: int = 0):
        n_rows, n_sym = rows.shape
        if not 0 <= window < n_sym:
            raise ValueError(f"window must lie in [0, {n_sym}), got {window!r}")
        m = filter_matrix(filt, n_sym)
        m_w, m_r = m[:, n_sym - window:], m[:, :n_sym - window]
        t = np.linalg.qr(np.concatenate((m_w, m_r), axis=1), mode="r")
        _, s, vt = np.linalg.svd(t[window:, window:])
        n_series = math.prod(coef.shape[1:-1])
        series = coef.reshape(len(coef), n_series, n_rows)
        self.window = window
        self.shape = (*coef.shape[:-1], window)
        self.directions = vt.T                                         # V
        self.factor = t[:window, :window]                              # F
        self.mean_map = t[:window, window:] @ self.directions          # G V
        self.weights = s ** 2
        self.random = self.weights > _NEGLIGIBLE * np.sum(m ** 2)
        self.dof = 2 * n_series
        mean_rows = rows @ m_r @ self.directions
        if window:    # c [M_W, M_R V], (cubes, n_series, window + rest)
            clean = series @ np.concatenate((rows @ m_w, mean_rows), axis=1)
            self.clean_window, self.clean_mean = clean[..., :window], clean[..., window:]
        else:         # the rest alone, from series = Q R: ||series @ x|| = ||R x||
            clean = np.linalg.qr(series, mode="r") @ mean_rows
        self.energy = np.sum(np.abs(clean) ** 2, axis=1)              # A

    def filter_noise(self, noise: np.ndarray, out: np.ndarray | None = None):
        """(u, sums) of a unit noise window ``noise``, CN(0, 1) white of shape
        ``self.shape``: u = z F, in ``out`` if given (a complex array of that
        shape), and the sums (B, C) of each column, what draw and windows read
        at any noise level. The rest's share z G V is formed for its sums alone."""
        if not self.window:
            raise ValueError("a sampler without a window takes no noise")
        if np.shape(noise) != self.shape:
            raise ValueError(f"noise must have shape {self.shape}, got shape {np.shape(noise)}")
        z = noise.reshape(self.clean_window.shape)
        unit = np.matmul(z, self.factor, out=None if out is None else out.reshape(z.shape))
        mean = z @ self.mean_map
        sums = [np.concatenate((_column_dots(a, unit), _column_dots(b, mean)), axis=1)
                for a, b in ((self.clean_window, self.clean_mean), (unit, mean))]
        return unit.reshape(self.shape), sums

    def column_energies(self, var, sums=None) -> np.ndarray:
        """A + 2 q B + q^2 C per cube and column, q = sqrt(var): the window
        columns' filtered power and the rest's mean energy in each direction,
        (cubes, window + rest), never negative; A alone without sums."""
        if sums is None:
            return self.energy
        q = np.sqrt(np.asarray(var, dtype=float))[:, None]
        return np.maximum(self.energy + q * (2.0 * sums[0] + q * sums[1]), 0.0)

    def draw(self, rng: np.random.Generator, var, sums=None) -> np.ndarray:
        """Filtered power over all symbols of every cube, shape (cubes,), at
        noise variance var, shape (cubes,). At a window, sums are filter_noise's
        of the unit window z that the noise scales; at window 0 they are
        omitted. Other shapes raise ValueError."""
        n = len(self.energy)
        var = np.asarray(var, dtype=float)
        if var.shape != (n,):
            raise ValueError(f"var must have shape ({n},), one per cube, got {var.shape}")
        if (sums is None) != (not self.window):
            raise ValueError(f"draw at window {self.window} takes the sums of filter_noise"
                             if self.window else "draw at window 0 takes no sums")
        energy = self.column_energies(var, sums)
        power, energy = energy[:, :self.window].sum(axis=1), energy[:, self.window:]
        weights = self.weights[self.random]
        chi2 = rng.noncentral_chisquare(self.dof,
                                        2.0 * energy[:, self.random] / (var[:, None] * weights))
        return power + 0.5 * var * (chi2 @ weights) + energy[:, ~self.random].sum(axis=1)

    def windows(self, unit: np.ndarray, var, cubes, out: np.ndarray) -> np.ndarray:
        """The filtered windows c M_W + sqrt(var[i]) u[i] of cubes i in ``cubes``,
        from filter_noise's u, into the rows of out."""
        for row, i in zip(out, cubes):
            np.multiply(unit[i], math.sqrt(var[i]), out=row)
            row += self.clean_window[i].reshape(row.shape)
        return out


def filter_symbols(cubes: np.ndarray, filt: IirFilter,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Run the step-matched high-pass along the symbol (last) axis of a stack
    of cubes: cubes @ M (filter_matrix), into ``out`` if given.

    Stationary components vanish from the first symbol on. A moving target's
    tone still needs a few symbols to settle; the estimators skip the first
    ``default_warmup`` outputs (3x filter order). Each cube gets the bits it
    would get alone: numpy multiplies each (L, P) slice by M on its own.
    ``out`` may be cubes itself, at the cost of a copy of the input.
    """
    warmup = default_warmup(filt)
    n_sym = cubes.shape[-1]
    if n_sym <= warmup:
        raise ValueError(f"warmup {warmup} must be shorter than the frame ({n_sym})")
    return np.matmul(cubes, filter_matrix(filt, n_sym), out=out)


def scan_spectrum(checked) -> np.ndarray:
    """Per-beam average residual power P(b) = sum_l sum_p ||y[:, l, p]||^2 / (L * P)
    of a sequence of filtered (M_r, L, P) cubes.

    With the step-matched filter initialization the stationary-clutter
    transient is already zero, so all P symbols contribute, transient ones
    included: the early symbols buy real SNR for the search.
    """
    out = np.empty(len(checked))
    for i, cube in enumerate(checked):
        _, n_sub, n_p = cube.shape
        out[i] = float(np.sum(np.abs(cube) ** 2)) / (n_sub * n_p)
    return out


def _strict_local_maxima(spectrum: np.ndarray) -> list[int]:
    """Indices above both neighbors; an edge bin needs to beat its one neighbor."""
    padded = np.concatenate(([-math.inf], spectrum, [-math.inf]))
    return np.flatnonzero((spectrum > padded[:-2]) & (spectrum > padded[2:])).tolist()


def find_peaks(spectrum: np.ndarray, rel_threshold: float = 3.0) -> list[int]:
    """Scan indices that are strict local maxima of P and exceed rel_threshold * median.

    Returns a (possibly empty) sorted list. Edge bins count as local maxima
    when they beat their single neighbor.
    """
    if rel_threshold <= 1.0:
        raise ValueError("rel_threshold must exceed 1")
    spectrum = np.asarray(spectrum, dtype=float)
    floor = rel_threshold * float(np.median(spectrum))
    return [b for b in _strict_local_maxima(spectrum) if spectrum[b] > floor]


def top_local_maxima(spectrum: np.ndarray, k: int) -> list[int]:
    """The k largest strict local maxima, no threshold. Used by the search stage."""
    spectrum = np.asarray(spectrum, dtype=float)
    cands = _strict_local_maxima(spectrum)
    cands.sort(key=lambda b: spectrum[b], reverse=True)
    return sorted(cands[:k])
