"""Scan plan: beam directions, coverage regions and conjugate probing weights.

One scan steers a transmit beam at direction theta_b and collects the echo
tensor for that dwell. The probing weights are held constant across
subcarriers and symbols, so the boresight transmit gain g_tilde is a single
complex scalar per scan and normalizing by it is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import SystemConfig, spatial_frequency


def steering(psi, n: int) -> np.ndarray:
    """Steering vector of frequency psi, entry k = exp(+j 2 pi k psi), k < n.

    One function for every axis: the transmit and receive arrays (psi_s), the
    symbols (psi_d) and, with the sign of its phase flipped, the subcarriers
    (steering(-psi_r, L), entry l = exp(-j 2 pi l psi_r)). An array of N
    frequencies gives one vector per row, shape (N, n); each row is
    bit-identical to the scalar call.
    """
    return np.exp(np.multiply.outer(2j * np.pi * psi, np.arange(n)))


@dataclass(frozen=True)
class BeamPlan:
    """Immutable scan plan.

    directions          (B,) beam angles, radians, sorted ascending
    coverage_halfwidth  angular half width of each beam's assigned region (rad)
    weights             (B, M_t) unit-norm probing vector per scan
    """

    directions: np.ndarray
    coverage_halfwidth: float
    weights: np.ndarray

    @property
    def n_beams(self) -> int:
        return len(self.directions)

    def coverage_interval(self, b: int) -> tuple[float, float]:
        c = self.directions[b]
        return (c - self.coverage_halfwidth, c + self.coverage_halfwidth)


def beamformer_weight(theta_tilde: float, cfg: SystemConfig) -> np.ndarray:
    """Conjugate steering weight pointing the mainlobe at theta_tilde. Unit norm."""
    if abs(theta_tilde) >= math.pi / 2:
        raise ValueError("beam direction must satisfy |theta| < pi/2")
    psi = spatial_frequency(theta_tilde, cfg)
    return np.conj(steering(psi, cfg.m_tx)) / math.sqrt(cfg.m_tx)


def default_plan(cfg: SystemConfig, n_beams: int = 61, span_deg: float = 60.0) -> BeamPlan:
    """Uniform beam grid over the closed sector [-span_deg, +span_deg].

    For n_beams > 1 the spacing is 2*span/(n_beams-1) and the coverage half
    width is half that spacing, so consecutive coverage regions tile the
    sector without gaps. A single beam at 0 covers the whole sector.
    """
    if span_deg < 0:
        raise ValueError("span_deg must be nonnegative")
    if n_beams < 1:
        raise ValueError("need at least one beam")
    s = math.radians(span_deg)
    if n_beams == 1:
        directions = np.array([0.0])
        halfwidth = s
    else:
        directions = np.linspace(-s, s, n_beams)
        halfwidth = s / (n_beams - 1)
    weights = np.stack([beamformer_weight(th, cfg) for th in directions])
    return BeamPlan(directions=directions, coverage_halfwidth=halfwidth, weights=weights)


def tx_gain(theta: float, plan: BeamPlan, b: int, cfg: SystemConfig) -> complex:
    """Transmit array gain a_tx(psi_s(theta))^T x_b toward an arbitrary angle."""
    psi = spatial_frequency(theta, cfg)
    return complex(steering(psi, cfg.m_tx) @ plan.weights[b])


GAIN_FLOOR = 1e-9


def g_tilde(plan: BeamPlan, b: int, cfg: SystemConfig) -> complex:
    """Boresight gain of scan b (constant over l and p for constant weights).

    Raises if the magnitude falls below GAIN_FLOOR times sqrt(M_t), which
    would make gain normalization ill conditioned.
    """
    g = tx_gain(float(plan.directions[b]), plan, b, cfg)
    if abs(g) < GAIN_FLOOR * math.sqrt(cfg.m_tx):
        raise ValueError(f"boresight gain {abs(g):.3e} below the safety floor")
    return g


def beam_for_angle(plan: BeamPlan, theta: float) -> int:
    """Index of the beam whose coverage contains theta; boundary ties pick the lower b."""
    hw = plan.coverage_halfwidth
    dirs = plan.directions
    for b in range(len(dirs)):
        if dirs[b] - hw <= theta <= dirs[b] + hw:
            return b
    raise ValueError(f"angle {theta:.4f} rad outside the scanned sector")


def angle_in_coverage(plan: BeamPlan, b: int, theta: float) -> bool:
    lo, hi = plan.coverage_interval(b)
    return bool(lo <= theta <= hi)


def plan_summary_rows(plan: BeamPlan) -> list[tuple[int, float, float]]:
    """(b, theta_deg, halfwidth_deg) rows for CSV export."""
    hw = math.degrees(plan.coverage_halfwidth)
    return [(b, math.degrees(th), hw) for b, th in enumerate(plan.directions)]
