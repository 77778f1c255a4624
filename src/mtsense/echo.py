"""Echo synthesis for one scan: moving targets, stationary clutter and noise.

The received tensor for scan b is indexed (m_r, l, p):

    y[m, l, p] = sum_t alpha_t e^{j2pi p psi_d} e^{-j2pi l psi_r} g_b(theta_t) a_rx[m](psi_s)
               + sum_s alpha_s              e^{-j2pi l psi_r} g_b(theta_s) a_rx[m](psi_s)
               + n[m, l, p],   n ~ CN(0, sigma^2)

Every scene element contributes to every scan; the transmit pattern g_b does
the attenuation of out-of-beam elements. Scatterers carry no Doppler factor,
which is exactly what the clutter filter exploits.

Every steering factor is ``beams.steering`` and every transmit gain comes from
``tx_gains``; ``crb`` builds its atoms from the same two. Only the gains depend
on the scan. Each scene's steering factors are built once per SystemConfig, on
its first synthesis, and later scans of that scene and cfg share them read-only.
"""
from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

from .beams import BeamPlan, steering
from .scene import (Scene, SystemConfig, Target, complex_normal, doppler_frequency,
                    range_frequency, spatial_frequency)


@dataclass(frozen=True)
class ElementFactors:
    """Scan-independent factors of the separable responses of N scene elements.

    Element n contributes alpha[n] * g[n, b] * a_rx[n, m] * a_r[n, l] * a_d[n, p]
    to scan b, with transmit gains g = tx_gains(a_tx, plan.weights).

    theta (N,) rad, alpha (N,), a_tx (N, M_t), a_rx (N, M_r), a_r (N, L),
    a_d (N, P); a_d rows are all ones for scatterers, which have no Doppler.
    """

    theta: np.ndarray
    alpha: np.ndarray
    a_tx: np.ndarray
    a_rx: np.ndarray
    a_r: np.ndarray
    a_d: np.ndarray


def tx_gains(a_tx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(N, B) transmit gains a_tx[n] . weights[b] of an (N, M_t) steering stack
    under a (B, M_t) stack of probing weights; column b equals the call with
    weights[b:b + 1] bit for bit.

    Computed by einsum rather than ``@``: OpenBLAS splits this complex
    product over its threads and, with two of them, took milliseconds for a
    400 x 64 stack and one beam on a 2-core host where einsum takes tens of
    microseconds.
    """
    return np.einsum("nm,bm->nb", a_tx, weights)


def element_factors(elements, cfg: SystemConfig) -> ElementFactors:
    """Steering factors of a sequence of Targets and Scatterers, in order.

    The frequency maps are those of ``scene`` applied to whole arrays; a
    scatterer is a target with zero Doppler.
    """
    theta = np.array([el.theta for el in elements], dtype=float)
    psi_s = spatial_frequency(theta, cfg)
    psi_r = range_frequency(np.array([el.range for el in elements], dtype=float), cfg)
    psi_d = doppler_frequency(
        np.array([el.speed if isinstance(el, Target) else 0.0 for el in elements],
                 dtype=float), cfg)
    return ElementFactors(
        theta=theta,
        alpha=np.array([el.alpha for el in elements], dtype=complex),
        a_tx=steering(psi_s, cfg.m_tx),
        a_rx=steering(psi_s, cfg.m_rx),
        a_r=steering(-psi_r, cfg.n_sub),
        a_d=steering(psi_d, cfg.n_sym),
    )


_FACTORS_LOCK = threading.Lock()


def _scene_factors(scene: Scene, kind: str, cfg: SystemConfig) -> ElementFactors:
    """``element_factors`` of scene.targets or scene.scatterers (``kind``), built
    on the first call for that kind and cfg and shared read-only afterwards.

    The entry is stored on the scene itself (and so reaches its
    ``without_targets`` copies), so it lives as long as the scene and the
    lookup never hashes or compares the elements. Threads that miss at once
    wait for one build, so no scene builds or holds two copies.
    """
    key = (kind, cfg)
    with _FACTORS_LOCK:
        f = scene._factors.get(key)
        if f is None:
            f = element_factors(getattr(scene, kind), cfg)
            for arr in vars(f).values():
                arr.flags.writeable = False
            scene._factors[key] = f
    return f


@dataclass
class EchoTensor:
    """One scan's raw echo cube.

    data            (M_r, L, P) complex
    scan_index      b
    cfg             the SystemConfig it was synthesized under
    """

    data: np.ndarray
    scan_index: int
    cfg: SystemConfig

    def __post_init__(self):
        expected = (self.cfg.m_rx, self.cfg.n_sub, self.cfg.n_sym)
        if self.data.shape != expected:
            raise ValueError(f"echo tensor shape {self.data.shape} != {expected}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("echo tensor contains non-finite entries")


def _seed_tuple(seed) -> tuple:
    """Flatten a possibly nested seed spec into a flat tuple of ints."""
    if isinstance(seed, (tuple, list)):
        out: list = []
        for part in seed:
            out.extend(_seed_tuple(part))
        return tuple(out)
    return (seed,)


def synthesize_echo(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig, seed=0,
                    noise_var: float | None = None) -> EchoTensor:
    """Synthesize the raw echo tensor for scan b.

    The noiseless cube is built from ``element_factors``, computed once per
    scene and cfg and shared read-only by every scan: the scatterer sum is one
    (M_r x N_s)(N_s x L) product broadcast over the symbols, the target sum
    one (M_r x N_t)(N_t x L*P) product. Noise is added last, in place, from
    the stream ``noisy_copies`` uses, seeded per scan from (seed, b), so different
    scans get independent noise and a rerun with the same seed is
    bit-identical. ``noise_var`` overrides cfg.noise_var when given.
    """
    m_rx, n_sub, n_sym = cfg.m_rx, cfg.n_sub, cfg.n_sym
    sigma2 = cfg.noise_var if noise_var is None else noise_var
    y = np.zeros((m_rx, n_sub, n_sym), dtype=complex)
    weights = plan.weights[b:b + 1]
    if scene.targets:
        f = _scene_factors(scene, "targets", cfg)
        range_doppler = (f.a_r[:, :, None] * f.a_d[:, None, :]).reshape(len(f.theta), -1)
        rx = _weighted_rx(f, tx_gains(f.a_tx, weights)[:, 0])
        y += (rx.T @ range_doppler).reshape(m_rx, n_sub, n_sym)
    if scene.scatterers:
        f = _scene_factors(scene, "scatterers", cfg)
        y += (_weighted_rx(f, tx_gains(f.a_tx, weights)[:, 0]).T @ f.a_r)[:, :, None]
    _add_noise_to(y, sigma2, seed, b)
    return EchoTensor(data=y, scan_index=b, cfg=cfg)


def _weighted_rx(f: ElementFactors, gains: np.ndarray) -> np.ndarray:
    """(N, M_r): each element's receive steering times its alpha and its
    transmit gain in one scan, gains (N,)."""
    return f.a_rx * (f.alpha * gains)[:, None]


def clean_factors(scene: Scene, plan: BeamPlan,
                  cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every scan's noiseless cube factored along the symbol axis, without
    building it: coef (n_beams, M_r, L, R) and rows (R, P), where coef[b] @ rows
    is ``synthesize_echo(scene, plan, b, cfg, noise_var=0.0).data`` up to
    rounding. rows: all ones for the scatterers (if any), then each target's a_d.
    Gains come from one ``tx_gains`` call per element kind; the products stay
    per scan, as one broadcast over all scans ran no faster.
    """
    n_t = len(scene.targets)
    rows = np.ones((bool(scene.scatterers) + n_t, cfg.n_sym), dtype=complex)
    coef = np.empty((plan.n_beams, cfg.m_rx, cfg.n_sub, len(rows)), dtype=complex)
    if scene.targets:
        t = _scene_factors(scene, "targets", cfg)
        rows[len(rows) - n_t:] = t.a_d
        gains = tx_gains(t.a_tx, plan.weights)
        for b in range(plan.n_beams):
            coef[b, ..., len(rows) - n_t:] = _weighted_rx(t, gains[:, b]).T[:, None, :] * t.a_r.T
    if scene.scatterers:
        s = _scene_factors(scene, "scatterers", cfg)
        gains = tx_gains(s.a_tx, plan.weights)
        for b in range(plan.n_beams):
            coef[b, ..., 0] = _weighted_rx(s, gains[:, b]).T @ s.a_r
    return coef, rows


def _add_noise_to(data: np.ndarray, sigma2: float, seed, b: int) -> None:
    """Add CN(0, sigma2) noise from default_rng((*seed, b)) to scan b's cube in
    place; nothing if sigma2 <= 0."""
    if sigma2 > 0:
        rng = np.random.default_rng((*_seed_tuple(seed), b))
        data += complex_normal(rng, sigma2, data.shape)


def noisy_copies(clean: EchoTensor, sigma2: float, seeds, out=None) -> np.ndarray:
    """An (n, M_r, L, P) stack: copy i of clean's cube plus the CN(0, sigma2)
    noise ``synthesize_echo`` would add with seed seeds[i], bit for bit; in
    the first n cubes of ``out`` if given."""
    if out is None:
        out = np.empty((len(seeds), *clean.data.shape), dtype=complex)
    cubes = out[:len(seeds)]
    cubes[:] = clean.data
    for cube, seed in zip(cubes, seeds):
        _add_noise_to(cube, sigma2, seed, clean.scan_index)
    return cubes


# ---------------------------------------------------------------------------
# flat binary serialization
#
# header: M_r, L, P, b as uint32 little-endian, then L*P*M_r samples as
# interleaved float64 (re, im) pairs in (p-major, l, m_r) memory order.

_HEADER = struct.Struct("<4I")


def write_tensor(tensor: EchoTensor, path) -> None:
    m_rx, n_sub, n_sym = tensor.data.shape
    arr = np.ascontiguousarray(tensor.data.transpose(2, 1, 0))
    flat = np.empty(arr.size * 2, dtype="<f8")
    flat[0::2] = arr.real.ravel()
    flat[1::2] = arr.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(m_rx, n_sub, n_sym, tensor.scan_index))
        fh.write(flat.tobytes())


def read_tensor(path, cfg: SystemConfig) -> EchoTensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path} is shorter than the {_HEADER.size}-byte header")
    m_rx, n_sub, n_sym, b = _HEADER.unpack_from(blob)
    if len(blob) - _HEADER.size != 16 * m_rx * n_sub * n_sym:
        raise ValueError(f"payload of {len(blob) - _HEADER.size} bytes does not match "
                         f"the header of {path}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    data = (flat[0::2] + 1j * flat[1::2]).reshape(n_sym, n_sub, m_rx).transpose(2, 1, 0)
    return EchoTensor(data=data.copy(), scan_index=int(b), cfg=cfg)
