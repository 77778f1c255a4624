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
``clean_factors`` alone turns them into cube entries, for a stack of scans'
weights: ``synthesize_echo`` expands it at one scan and adds the noise.
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


def _seed_tuple(seed) -> tuple:
    """Flatten a possibly nested seed spec into a flat tuple of ints."""
    if isinstance(seed, (tuple, list)):
        out: list = []
        for part in seed:
            out.extend(_seed_tuple(part))
        return tuple(out)
    return (seed,)


def synthesize_echo(scene: Scene, plan: BeamPlan, b: int, cfg: SystemConfig, seed=0,
                    noise_var: float | None = None) -> np.ndarray:
    """Scan b's raw echo cube, (M_r, L, P) complex.

    The noiseless cube is ``clean_factors`` of the scan's one weight row,
    expanded by one (M_r*L x R)(R x P) product. Noise is added last, in
    place, from the stream ``noisy_copies`` uses, seeded per scan from
    (seed, b), so different scans get independent noise and a rerun with the
    same seed is bit-identical. ``noise_var`` overrides cfg.noise_var when
    given.
    """
    sigma2 = cfg.noise_var if noise_var is None else noise_var
    coef, rows = clean_factors(scene, plan.weights[b:b + 1], cfg)
    y = (coef.reshape(cfg.m_rx * cfg.n_sub, len(rows)) @ rows).reshape(
        cfg.m_rx, cfg.n_sub, cfg.n_sym)
    _add_noise_to(y, sigma2, seed, b)
    return y


def clean_factors(scene: Scene, weights: np.ndarray,
                  cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The noiseless cubes of the scans of a (B, M_t) weight stack, factored
    along the symbol axis: coef (B, M_r, L, R) and rows (R, P), where
    coef[b] @ rows is the cube of weights[b]. rows: all ones for the
    scatterers (if any), then each target's a_d; coef: each element's
    alpha * g_b times its a_rx and a_r, the scatterers summed into one column.

    The one place element factors become cube entries: ``synthesize_echo``
    passes one scan's row, the sweep the whole plan. Gains come from one
    ``tx_gains`` call per element kind; the products stay per scan, as one
    broadcast over all scans ran no faster and holds a (B, N, M_r)
    temporary, 6 MB for the sweep's 61 beams and 400 scatterers.
    """
    n_t = len(scene.targets)
    rows = np.ones((bool(scene.scatterers) + n_t, cfg.n_sym), dtype=complex)
    coef = np.empty((len(weights), cfg.m_rx, cfg.n_sub, len(rows)), dtype=complex)
    if scene.targets:
        t = _scene_factors(scene, "targets", cfg)
        rows[len(rows) - n_t:] = t.a_d
        w = t.alpha[:, None] * tx_gains(t.a_tx, weights)
        for b in range(len(weights)):
            coef[b, ..., len(rows) - n_t:] = (t.a_rx * w[:, b, None]).T[:, None, :] * t.a_r.T
    if scene.scatterers:
        s = _scene_factors(scene, "scatterers", cfg)
        w = s.alpha[:, None] * tx_gains(s.a_tx, weights)
        for b in range(len(weights)):
            coef[b, ..., 0] = (s.a_rx * w[:, b, None]).T @ s.a_r
    return coef, rows


def _add_noise_to(data: np.ndarray, sigma2: float, seed, b: int) -> None:
    """Add CN(0, sigma2) noise from default_rng((*seed, b)) to scan b's cube in
    place; nothing if sigma2 <= 0."""
    if sigma2 > 0:
        rng = np.random.default_rng((*_seed_tuple(seed), b))
        data += complex_normal(rng, sigma2, data.shape)


def noisy_copies(clean: np.ndarray, b: int, sigma2: float, seeds, out=None) -> np.ndarray:
    """An (n, M_r, L, P) stack: copy i of scan b's clean cube plus the
    CN(0, sigma2) noise ``synthesize_echo`` would add with seed seeds[i], bit
    for bit; in the first n cubes of ``out`` if given."""
    if out is None:
        out = np.empty((len(seeds), *clean.shape), dtype=complex)
    cubes = out[:len(seeds)]
    cubes[:] = clean
    for cube, seed in zip(cubes, seeds):
        _add_noise_to(cube, sigma2, seed, b)
    return cubes


# ---------------------------------------------------------------------------
# flat binary serialization
#
# header: M_r, L, P, b as uint32 little-endian, then L*P*M_r samples as
# interleaved float64 (re, im) pairs in (p-major, l, m_r) memory order.

_HEADER = struct.Struct("<4I")


def write_tensor(cube: np.ndarray, b: int, path) -> None:
    arr = np.ascontiguousarray(cube.transpose(2, 1, 0))
    flat = np.empty(arr.size * 2, dtype="<f8")
    flat[0::2] = arr.real.ravel()
    flat[1::2] = arr.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*cube.shape, b))
        fh.write(flat.tobytes())


def read_tensor(path, cfg: SystemConfig) -> tuple[np.ndarray, int]:
    """(cube, b) of a ``write_tensor`` file; a truncated file, a cube of other
    than cfg's shape or a non-finite sample raises ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path} is shorter than the {_HEADER.size}-byte header")
    *header, b = _HEADER.unpack_from(blob)
    m_rx, n_sub, n_sym = shape = cfg.m_rx, cfg.n_sub, cfg.n_sym
    if tuple(header) != shape or len(blob) != _HEADER.size + 16 * m_rx * n_sub * n_sym:
        raise ValueError(f"{path}: header {tuple(header)} and {len(blob)} bytes do not "
                         f"make the config's {shape} cube")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path} holds non-finite samples")
    cube = (flat[0::2] + 1j * flat[1::2]).reshape(n_sym, n_sub, m_rx).transpose(2, 1, 0)
    return cube.copy(), int(b)
