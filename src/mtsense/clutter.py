"""Zero-Doppler clutter suppression and the beam-scan search spectrum.

Stationary scatterers produce echoes that are constant along the symbol axis,
so a high-pass IIR filter applied along p removes them while a moving target's
Doppler tone passes through with near unit gain. The per-beam average residual
power P(b) then peaks at beams containing moving targets.

The filter is designed and run in numpy alone, by the same arithmetic as
scipy.signal's butter, lfilter_zi and lfilter, so the outputs carry the same
bits. FilteredPowerSampler filters the rows of clean cubes given as coef @ rows
once and then draws what their noisy copies give after the filter: the last
symbols of the filtered cube from a window of noise, and the filtered power of
the rest from its law given that window, without drawing the rest of the noise.
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


@dataclass(frozen=True)
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


def step_matched_highpass(data: np.ndarray, filt: IirFilter,
                          out: np.ndarray | None = None) -> np.ndarray:
    """High-pass every series along the last axis of a stack of any shape,
    into ``out`` if given (a C-contiguous array of data's shape, data itself
    allowed).

    The filter state is seeded with the steady-state step response scaled by
    each series' first sample, so a component that is constant along the
    axis is annihilated from the very first output sample.
    """
    num, den = filt.num_coeffs, filt.den_coeffs
    b, a = num.tolist(), den.tolist()
    order = len(a) - 1
    data = np.asarray(data)
    # One series per row. Each time step is gathered into one contiguous
    # vector before its output is scattered back, so the output is the only
    # array of the input's size, and it may be the input. The coefficients are
    # real, so real and imaginary parts filter apart.
    x = np.ascontiguousarray(data, dtype=np.result_type(data, num)).reshape(-1, data.shape[-1])
    y = np.empty_like(x) if out is None else out.reshape(x.shape)
    xp, yp = np.empty((2, len(x)), dtype=x.dtype)
    xf, yf = xp.view(float), yp.view(float)
    xp[:] = x[:, 0]
    state = np.multiply.outer(_step_state(num, den), xf)
    tmp = np.empty_like(xf)
    for p in range(x.shape[1]):     # direct form II transposed
        xp[:] = x[:, p]
        np.multiply(xf, b[0], out=yf)
        yf += state[0]
        for n in range(1, order + 1):
            z = state[n - 1]
            if n < order:
                np.multiply(xf, b[n], out=tmp)
                np.add(state[n], tmp, out=z)
            else:
                np.multiply(xf, b[n], out=z)
            np.multiply(yf, a[n], out=tmp)
            z -= tmp
        y[:, p] = yp
    return y.reshape(data.shape)


class FilteredPowerSampler:
    """Filters the rows of a stack of clean cubes c = coef[i] @ rows once,
    then draws what each noisy cube c + n, n ~ CN(0, v) white, gives after
    step_matched_highpass: the last ``window`` filtered symbols in full, and
    the total filtered power. Only the window's share of n is drawn, by the
    caller; with window 0 nothing is. coef is (cubes, ..., R) and rows (R, P),
    so no cube of P symbols is built; whole cubes pass as (cubes, eye(P)).

    The filter is linear along the symbol axis: y = x M with M =
    step_matched_highpass(eye(n_sym)), real. Put the window's columns first,
    [M_W, M_R] = Q T with Q orthogonal and T upper triangular. Then nQ =
    [z, w] is white again, and

        window = c M_W + z F,              F = T_WW
        rest   = c M_R + z G + w H,        G = T_WR,  H = T_RR = U diag(s) V^T

    so the window rows are CN(c M_W, v F^T F = v M_W^T M_W), and given them the
    rest is CN(c M_R + z G, v V diag(s^2) V^T): the Gaussian conditioning, with
    no inverse of M_W^T M_W. In the directions V the rest's power is
    (v/2) sum_k s_k^2 X_k, X_k noncentral chi-square with 2 * n_series degrees
    of freedom and noncentrality 2 ||mean_k||^2 / (v s_k^2). A direction with
    s_k^2 below _NEGLIGIBLE of the filter's energy (the step-matched null)
    adds ||mean_k||^2 as it is. The caller draws z: one window of noise per
    series in place of the full noise and the filter.
    """

    def __init__(self, coef: np.ndarray, rows: np.ndarray, filt: IirFilter, window: int = 0):
        n_rows, n_sym = rows.shape
        if not 0 <= window < n_sym:
            raise ValueError(f"window must lie in [0, {n_sym}), got {window!r}")
        m = step_matched_highpass(np.eye(n_sym), filt)
        m_w, m_r = m[:, n_sym - window:], m[:, :n_sym - window]
        t = np.linalg.qr(np.concatenate((m_w, m_r), axis=1), mode="r")
        _, s, vt = np.linalg.svd(t[window:, window:])
        n_series = math.prod(coef.shape[1:-1])
        series = coef.reshape(len(coef), n_series, n_rows)
        self.window = window
        self.shape = (*coef.shape[:-1], window)
        self.factor = t[:window, :window]                 # F
        self.directions = vt.T                            # V
        self.mean_map = t[:window, window:] @ self.directions      # G V
        self.weights = s ** 2
        self.random = self.weights > _NEGLIGIBLE * np.sum(m ** 2)
        self.dof = 2 * n_series
        self.clean_window = series @ (rows @ m_w)         # (cubes, n_series, window)
        mean_rows = rows @ m_r @ self.directions
        self.clean_mean = series @ mean_rows if window else None   # (cubes, n_series, rest)
        # what draw reads at window 0, from series = Q R: ||series @ x|| = ||R x||, so >= 0
        self.energy = None if window else np.sum(
            np.abs(np.linalg.qr(series, mode="r") @ mean_rows) ** 2, axis=1)

    def draw(self, rng: np.random.Generator, var, noise=None) -> tuple[np.ndarray, np.ndarray]:
        """(window, power) of every cube: its filtered window, shape
        (*coef.shape[:-1], window), and its filtered power over all symbols.

        var[i] is cube i's noise variance; noise[i], shaped like cube i's
        window, is its z, CN(0, var[i]) white (omit it when window is 0).
        """
        var = np.asarray(var, dtype=float)[:, None]
        window, energy, power = self.clean_window, self.energy, 0.0
        if self.window:
            z = noise.reshape(self.clean_window.shape)
            window = window + z @ self.factor
            mean = z @ self.mean_map
            mean += self.clean_mean
            energy = np.sum(mean.real ** 2 + mean.imag ** 2, axis=1)
            power = np.sum(window.real ** 2 + window.imag ** 2, axis=(1, 2))
        weights = self.weights[self.random]
        chi2 = rng.noncentral_chisquare(self.dof, 2.0 * energy[:, self.random] / (var * weights))
        power += 0.5 * var[:, 0] * (chi2 @ weights) + energy[:, ~self.random].sum(axis=1)
        return window.reshape(self.shape), power


def filter_symbols(cubes: np.ndarray, filt: IirFilter,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Run the step-matched high-pass along the symbol (last) axis of a stack
    of cubes, into ``out`` if given (cubes itself allowed).

    Stationary components vanish from the first symbol on. A moving target's
    tone still needs a few symbols to settle; the estimators skip the first
    ``default_warmup`` outputs (3x filter order). Each cube gets the bits it
    would get alone: the recursion is elementwise.
    """
    warmup = default_warmup(filt)
    n_sym = cubes.shape[-1]
    if n_sym <= warmup:
        raise ValueError(f"warmup {warmup} must be shorter than the frame ({n_sym})")
    return step_matched_highpass(cubes, filt, out)


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
