"""System constants, ground-truth scene elements and randomized scene generation.

Everything downstream works in normalized frequencies (cycles per sample):

    psi_r = 2 * r * delta_f / c      range frequency, from the round-trip delay
    psi_d = 2 * v * T / lambda       Doppler frequency, T = OFDM symbol + guard
    psi_s = d * sin(theta) / lambda  spatial frequency of a uniform linear array

Angles are radians everywhere inside the library; degrees appear only at the
CLI boundary and in serialized files. The config field rules live here too,
and the helpers that split work into blocks and worker threads.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

C0 = 299_792_458.0  # speed of light, m/s


# ---------------------------------------------------------------------------
# config field rules: each field declares its rule beside its default, and
# check_fields applies the rules of a config and of every section in it

def is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def rule(default, what: str, ok):
    """A dataclass field whose values must pass `ok`; `what` says what they must be."""
    return field(default=default, metadata={"rule": (what, ok)})


def integer(default: int, lo: int, hi: float = math.inf):
    """An integer field in lo..hi."""
    what = f"an integer >= {lo}" if hi == math.inf else f"an integer in {lo}..{hi}"
    return rule(default, what, lambda x: is_int(x) and lo <= x <= hi)


def number(default: float, lo: float, hi: float = math.inf, closed: bool = False):
    """A finite-number field above lo (or at it when closed) and below hi."""
    what = (f"a finite number in ({lo}, {hi})" if hi < math.inf
            else f"a finite number {'>=' if closed else '>'} {lo}")
    return rule(default, what,
                lambda x: is_finite(x) and (lo <= x if closed else lo < x) and x < hi)


# annotation -> (what the message asks for, check), for fields without a rule
_TYPE_RULES = {int: ("an integer", is_int), float: ("a finite number", is_finite)}
_hints = functools.cache(typing.get_type_hints)


def check_fields(obj, prefix: str = "") -> None:
    """Apply every field rule of the config dataclass `obj` and of its sections.

    A field without a declared rule must match its annotation: an `int` is an
    integer but not a bool, a `float` a finite number. Raises ValueError
    "<prefix><field> must be <what>, got <value>".
    """
    hints = _hints(type(obj))
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if is_dataclass(hint):
            check_fields(value, f"{prefix}{f.name}.")
            continue
        what, ok = f.metadata.get("rule") or _TYPE_RULES[hint]
        if not ok(value):
            raise ValueError(f"{prefix}{f.name} must be {what}, got {value!r}")


# ---------------------------------------------------------------------------
# system constants and scene elements

MAX_SYMBOLS = 1024   # longest frame of a scan or a trial: its filter matrix holds 8 MB


@dataclass(frozen=True)
class SystemConfig:
    """Radar/array constants shared by every module.

    m_tx, m_rx   transmit / receive antenna counts
    n_sub        number of OFDM subcarriers used for sensing (L)
    n_sym        number of OFDM symbols in one scan (P)
    f_c          carrier frequency, Hz
    delta_f      subcarrier spacing, Hz
    t_guard      guard interval appended to each symbol, s
    d_spacing    array element spacing in meters; None means half wavelength
    noise_var    per-element complex noise variance sigma^2 (linear power)
    """

    m_tx: int = integer(64, 2)
    m_rx: int = integer(16, 2)
    n_sub: int = integer(16, 2)
    n_sym: int = integer(20, 2, MAX_SYMBOLS)
    f_c: float = number(60e9, 0)
    delta_f: float = number(10e6, 0)
    t_guard: float = number(2e-4, 0, closed=True)
    d_spacing: float | None = rule(None, "null (half a wavelength) or a finite number > 0",
                                   lambda x: x is None or (is_finite(x) and x > 0))
    noise_var: float = number(1.0, 0, closed=True)

    def __post_init__(self):
        # library code builds SystemConfig directly, not only through a config
        check_fields(self, "system.")

    @property
    def wavelength(self) -> float:
        return C0 / self.f_c

    @property
    def t_total(self) -> float:
        """Full symbol interval including the guard."""
        return 1.0 / self.delta_f + self.t_guard

    @property
    def spacing(self) -> float:
        return self.wavelength / 2.0 if self.d_spacing is None else self.d_spacing


def _check_finite(element, kind: str) -> None:
    """Raise ValueError naming the first non-finite field of a scene element."""
    for f in fields(element):
        value = getattr(element, f.name)
        if not cmath.isfinite(value):
            raise ValueError(f"{kind} {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Target:
    """Moving point target: angle (rad), range (m), radial speed (m/s), reflection alpha."""

    theta: float
    range: float
    speed: float
    alpha: complex

    def __post_init__(self):
        _check_finite(self, "target")
        if self.range <= 0:
            raise ValueError("target range must be positive")
        if abs(self.theta) >= math.pi / 2:
            raise ValueError("target angle must satisfy |theta| < pi/2")


@dataclass(frozen=True)
class Scatterer:
    """Stationary point scatterer: angle (rad), range (m), reflection alpha."""

    theta: float
    range: float
    alpha: complex

    def __post_init__(self):
        _check_finite(self, "scatterer")
        if self.range <= 0:
            raise ValueError("scatterer range must be positive")
        if abs(self.theta) >= math.pi / 2:
            raise ValueError("scatterer angle must satisfy |theta| < pi/2")


@dataclass(frozen=True)
class Scene:
    targets: tuple[Target, ...] = ()
    scatterers: tuple[Scatterer, ...] = ()
    # echo's steering factors of each element kind, built once per SystemConfig;
    # private to echo, and lives as long as the scene
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "scatterers", tuple(self.scatterers))

    def without_targets(self) -> "Scene":
        """The same scatterers without the targets. It shares this scene's
        steering-factor cache: its scatterer entries apply unchanged, and a
        scene without targets never reads the target entries."""
        h0 = Scene(targets=(), scatterers=self.scatterers)
        object.__setattr__(h0, "_factors", self._factors)
        return h0


# ---------------------------------------------------------------------------
# normalized frequencies (the forward maps also take arrays) and their inverses

def spatial_frequency(theta, cfg: SystemConfig):
    return cfg.spacing * np.sin(theta) / cfg.wavelength


def range_frequency(rng_m, cfg: SystemConfig):
    return 2.0 * rng_m * cfg.delta_f / C0


def doppler_frequency(speed, cfg: SystemConfig):
    return 2.0 * speed * cfg.t_total / cfg.wavelength


def theta_from_psi_s(psi_s: float, cfg: SystemConfig) -> float:
    ratio = psi_s * cfg.wavelength / cfg.spacing
    if abs(ratio) > 1.0:
        raise ValueError(f"spatial frequency {psi_s} outside the arcsin domain")
    return math.asin(ratio)


def range_from_psi_r(psi_r: float, cfg: SystemConfig) -> float:
    """Map a range frequency to meters; negative principal values wrap by one cycle."""
    return C0 * (psi_r % 1.0) / (2.0 * cfg.delta_f)


def speed_from_psi_d(psi_d: float, cfg: SystemConfig) -> float:
    return cfg.wavelength * psi_d / (2.0 * cfg.t_total)


def frequencies_target(t: Target, cfg: SystemConfig) -> tuple[float, float, float]:
    """(psi_s, psi_r, psi_d) for a moving target, the order of the echo cube's
    axes, of EstimationResult and of a GLRT candidate. No wrapping is applied."""
    return (
        spatial_frequency(t.theta, cfg),
        range_frequency(t.range, cfg),
        doppler_frequency(t.speed, cfg),
    )


# ---------------------------------------------------------------------------
# random generation

def complex_normal(rng: np.random.Generator, var: float, size=None, out=None) -> np.ndarray:
    """CN(0, var): independent real/imag parts, each N(0, var/2), the real parts
    drawn first and filled in place, with the bytes of scale * (re + 1j * im);
    into ``out`` if given, a complex array of shape ``size``."""
    scale = math.sqrt(var / 2.0)
    if size is None:                              # one draw: plain Python arithmetic
        return scale * (rng.standard_normal() + 1j * rng.standard_normal())
    part = rng.standard_normal(size)
    if out is None:
        out = np.empty(part.shape, dtype=complex)
    np.multiply(part, scale, out=out.real)
    np.multiply(rng.standard_normal(out=part), scale, out=out.imag)
    return out


ANGLE_SUPPORT_DEG = (-60.0, 60.0)
_ANGLE_SUPPORT_RAD = tuple(math.radians(a) for a in ANGLE_SUPPORT_DEG)
RANGE_SUPPORT_M = (1.0, 7.0)
SPEED_SUPPORT_MPS = (1.0, 4.0)
SCATTERER_ALPHA_VAR = 0.5

_SEP_RETRIES = 1000


def _draw_scatterers(rng: np.random.Generator, n: int) -> tuple[Scatterer, ...]:
    """n scatterers, uniform over the angle and range supports, CN(0, 0.5) alpha."""
    return tuple(
        Scatterer(
            theta=rng.uniform(*_ANGLE_SUPPORT_RAD),
            range=rng.uniform(*RANGE_SUPPORT_M),
            alpha=complex(complex_normal(rng, SCATTERER_ALPHA_VAR)),
        )
        for _ in range(n)
    )


def generate_scene(
    cfg: SystemConfig,
    n_targets: int,
    n_scatterers: int,
    seed,
    min_separation: float = math.radians(4.0),
) -> Scene:
    """Draw a random scene.

    Target angles are redrawn until pairwise separated by more than
    ``min_separation`` (default twice the 2 degree scan step, so at most one
    target falls within a single beam). Raises RuntimeError if separation
    cannot be met within a bounded retry count.
    """
    if n_targets < 0 or n_scatterers < 0:
        raise ValueError("element counts must be nonnegative")
    rng = np.random.default_rng(seed)
    thetas: list[float] = []
    attempts = 0
    while len(thetas) < n_targets:
        cand = rng.uniform(*_ANGLE_SUPPORT_RAD)
        if all(abs(cand - t) > min_separation for t in thetas):
            thetas.append(cand)
        else:
            attempts += 1
            if attempts > _SEP_RETRIES * max(n_targets, 1):
                raise RuntimeError(
                    f"could not place {n_targets} targets separated by "
                    f"{min_separation:.4f} rad after {attempts} retries"
                )

    targets = tuple(
        Target(
            theta=thetas[i],
            range=rng.uniform(*RANGE_SUPPORT_M),
            speed=rng.uniform(*SPEED_SUPPORT_MPS),
            alpha=complex(complex_normal(rng, 1.0)),
        )
        for i in range(n_targets)
    )
    return Scene(targets=targets, scatterers=_draw_scatterers(rng, n_scatterers))


# Built-in two-target benchmark used by the experiments and the test suite.
REFERENCE_TARGETS = (
    # (theta_deg, range_m, speed_mps)
    (-48.295, 4.281, 3.911),
    (15.883, 2.670, 1.473),
)


def reference_scene(cfg: SystemConfig, n_scatterers: int = 400, seed=7) -> Scene:
    """The fixed two-target benchmark scene plus ``n_scatterers`` random scatterers.

    Target reflection coefficients get unit modulus with a seeded random
    phase, so the nominal unit target power is realized exactly and the
    benchmark does not hinge on a lucky amplitude draw. Scatterers follow the
    usual CN(0, 0.5) law.
    """
    rng = np.random.default_rng(seed)
    targets = tuple(
        Target(
            theta=math.radians(th),
            range=r,
            speed=v,
            alpha=complex(np.exp(2j * math.pi * rng.uniform())),
        )
        for th, r, v in REFERENCE_TARGETS
    )
    return Scene(targets=targets, scatterers=_draw_scatterers(rng, n_scatterers))


# ---------------------------------------------------------------------------
# JSON export

def scene_to_dict(scene: Scene) -> dict:
    """The scene as JSON-ready dicts, angles in degrees."""
    return {
        "targets": [
            {
                "theta_deg": math.degrees(t.theta),
                "range_m": t.range,
                "speed_mps": t.speed,
                "alpha_re": t.alpha.real,
                "alpha_im": t.alpha.imag,
            }
            for t in scene.targets
        ],
        "scatterers": [
            {
                "theta_deg": math.degrees(s.theta),
                "range_m": s.range,
                "alpha_re": s.alpha.real,
                "alpha_im": s.alpha.imag,
            }
            for s in scene.scatterers
        ],
    }


# ---------------------------------------------------------------------------
# work split into blocks and worker threads

# Cubes per stacked call. It also bounds detect's scan pass, which holds one
# block per worker thread. On detect, 8 ran no faster and held twice the memory.
_BLOCK = 4


def blocks(n: int, at_least: int = 1, size: int = _BLOCK) -> list[range]:
    """range(n) in consecutive blocks of near-equal size, at most ``size`` each,
    and at least ``at_least`` of them (one per worker thread), their count a
    multiple of ``at_least`` so no worker gets one block more, when n allows."""
    count = max(-(-n // size), at_least)
    count = min(n, -(-count // at_least) * at_least)
    return [range(n * i // count, n * (i + 1) // count) for i in range(count)]


def thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on ``threads`` worker threads if threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
