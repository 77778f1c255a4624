"""GLRT confirmation of moving-target candidates against a clutter subspace.

A candidate (from the search + estimation stages) is tested on the RAW echo of
its scan. The clutter is modeled as living in the span of the beam's receive
response at its boresight direction; projecting it out leaves a residual
whose energy along the candidate's steering vector is compared with its total
energy. The statistic

    t = sum_{l,p} |a^H Pperp y|^2 / (a^H Pperp a) / (M_r L P sigma0_hat^2)

equals 1 - sigma1_hat^2 / sigma0_hat^2 and lives in [0, 1]. It is invariant to
scaling of y, so thresholds calibrate cleanly by Monte Carlo under H0.

Clutter carries no Doppler, and a scatterer's range only multiplies its
column at subcarrier l by the unit phase exp(-j 2 pi l psi_r), so the clutter
span depends on angle alone and is the same for every l and every range: one
unit column u spans it for the whole (M_r, L*P) cube. The projector
Pperp = I - u u^H is applied as two rows, never as a matrix: with
w = Pperp a, z = [u, w]^H y gives a^H Pperp y = z_1 and Pperp y = y - u z_0,
2 M_r multiply-adds per column instead of M_r^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamPlan, beam_for_angle, g_tilde, steering
from .echo import EchoTensor, noisy_copies, synthesize_echo
from .scene import (Scene, SystemConfig, blocks, frequencies_target, spatial_frequency,
                    thread_map)

@dataclass(frozen=True)
class GlrOutcome:
    statistic: float
    sigma2_hat_h0: float
    sigma2_hat_h1: float
    alpha_hat: complex
    undetectable: bool = False


def sample_grid(b: int, plan: BeamPlan, cfg: SystemConfig) -> float:
    """Spatial frequency psi_s of scan b's boresight, its clutter direction."""
    return spatial_frequency(float(plan.directions[b]), cfg)


def clutter_basis(b: int, plan: BeamPlan, cfg: SystemConfig) -> np.ndarray:
    """(M_r,) column spanning scan b's hypothetical clutter response g_tilde * a_rx(psi_s).

    Range and symbol index never enter: they scale the column by a unit phase
    (clutter has no Doppler), which leaves the span unchanged.
    """
    return g_tilde(plan, b, cfg) * steering(sample_grid(b, plan, cfg), cfg.m_rx)


def perp_projector(a_tilde: np.ndarray) -> np.ndarray:
    """Orthogonal-complement projector I - A (A^H A)^+ A^H (Hermitian, idempotent).

    Built from the left singular vectors of A's numerical range, not from
    A @ pinv(A): the product form would lose cond(A) digits of the projector.
    The GLRT applies its rank-1 projector as two rows instead; this stays as
    the tests' dense reference and a benchmark-traced name (ROADMAP item 2).
    """
    m = a_tilde.shape[0]
    eye = np.eye(m, dtype=complex)
    if a_tilde.size == 0:
        return eye
    u, s, _ = np.linalg.svd(a_tilde, full_matrices=False)
    u = u[:, s > s[0] * max(a_tilde.shape) * np.finfo(float).eps]
    proj = u @ u.conj().T
    return eye - 0.5 * (proj + proj.conj().T)


UNDETECTABLE_REL = 1e-12
ZERO_RESIDUAL_REL = 1e-20  # sigma0_hat^2 below this fraction of the mean input
                           # power is projection roundoff, not signal


def _glr_evaluator(candidate: tuple[float, float, float], plan: BeamPlan,
                   cfg: SystemConfig, b: int):
    """``glr_statistic`` at scan b as a function of an (n, M_r, L, P) stack of
    raw cubes, one GlrOutcome per cube. u = c / |c| of the clutter column c,
    w = Pperp a_sp = a_sp - u (u^H a_sp), denom and the rows [u, w]^H are
    built once, here. Each stack takes one z = rows @ y, a (2, M_r) GEMM that
    BLAS keeps on the calling thread (a dense (M_r, M_r) one wakes its pool):
    a^H Pperp y = z_1, and Pperp y = y - u z_0 stays an explicit subtraction.
    The sums run as one call over the stack, into ``work`` if given: Pperp y
    (complex) and its squared magnitudes (float), each (at least n, M_r, L*P).
    matmul calls BLAS once per slice, and a sum over each slice's contiguous
    entries keeps their pairwise order, so each cube gets the bits of its own
    call."""
    psi_s, psi_r, psi_d = candidate
    if not all(np.isfinite([psi_s, psi_r, psi_d])):
        raise ValueError("candidate frequencies must be finite")
    c = clutter_basis(b, plan, cfg)
    u = c / np.linalg.norm(c)
    a_sp = steering(psi_s, cfg.m_rx)
    w = a_sp - u * (u.conj() @ a_sp)                        # Pperp a
    denom = float(np.real(a_sp.conj() @ w))                 # a^H Pperp a / |g|^2
    rows = np.stack([u, w]).conj()

    def evaluate(cubes: np.ndarray, work=None) -> list[GlrOutcome]:
        n, m_rx, n_sub, n_sym = cubes.shape
        n_tot = m_rx * n_sub * n_sym
        flat = cubes.reshape(n, m_rx, n_sub * n_sym)
        if work is None:
            work = np.empty(flat.shape, dtype=complex), np.empty(flat.shape)
        py, power = (buf[:n] for buf in work)
        z = rows @ flat                                         # (n, 2, L*P)
        np.subtract(flat, np.multiply(u[:, None], z[:, :1], out=py), out=py)
        inner = z[:, 1]
        np.square(np.abs(py, out=power), out=power)
        h0 = [float(e) / n_tot for e in np.sum(power, axis=(1, 2))]
        if denom < UNDETECTABLE_REL * m_rx:
            return [GlrOutcome(0.0, s0, s0, 0j, undetectable=True) for s0 in h0]
        g = g_tilde(plan, b, cfg)
        steer = g * np.outer(steering(-psi_r, n_sub), steering(psi_d, n_sym))
        matched = np.sum(np.conj(steer).ravel() * inner, axis=-1)
        scale = abs(g) ** 2 * denom * n_sub * n_sym
        num = np.sum(np.abs(inner) ** 2, axis=-1)
        np.square(np.abs(flat, out=power), out=power)
        mean_power = np.mean(power, axis=(1, 2))
        out = []
        for j, sigma2_h0 in enumerate(h0):
            num_total = float(num[j]) / denom
            # Fully explained data: the residual is projection roundoff, and so
            # is the numerator (mathematically num <= N sigma0^2); dividing the
            # two would be noise over noise. t = 0 unless the numerator somehow
            # stayed macroscopic.
            input_floor = ZERO_RESIDUAL_REL * float(mean_power[j])
            if sigma2_h0 <= input_floor:
                t = 0.0 if num_total <= input_floor * n_tot else math.inf
                out.append(GlrOutcome(t, sigma2_h0, sigma2_h0, 0j))
                continue
            out.append(GlrOutcome(statistic=num_total / (n_tot * sigma2_h0),
                                  sigma2_hat_h0=sigma2_h0,
                                  sigma2_hat_h1=max(sigma2_h0 - num_total / n_tot, 0.0),
                                  alpha_hat=complex(matched[j] / scale)))
        return out

    return evaluate


def glr_statistic(y: EchoTensor, candidate: tuple[float, float, float],
                  plan: BeamPlan, cfg: SystemConfig) -> GlrOutcome:
    """Evaluate the GLRT statistic for candidate frequencies (psi_s, psi_r, psi_d).

    Operates on the raw (unfiltered, unnormalized) scan tensor. One projector
    serves all subcarriers and symbols at once: a clutter basis column at
    subcarrier l is its l = 0 column times the unit phase
    exp(-j 2 pi l psi_r), so the span, and Pperp, do not depend on l.
    If the candidate steering vector is indistinguishable from the clutter
    subspace the outcome is flagged undetectable (t = 0) instead of dividing
    by ~zero.
    """
    return _glr_evaluator(candidate, plan, cfg, y.scan_index)(y.data[None])[0]


def detect(outcome: GlrOutcome, gamma: float) -> bool:
    """Threshold test t > gamma."""
    if not gamma >= 0.0:
        raise ValueError("gamma must be a nonnegative number")
    return outcome.statistic > gamma


def calibrate_gamma(scene_h0: Scene, plan: BeamPlan, b: int,
                    candidate: tuple[float, float, float], cfg: SystemConfig,
                    p_fa: float, n_trials: int = 500, seed=0) -> float:
    """Empirical (1 - p_fa) quantile of the statistic under H0 Monte Carlo.

    The noiseless H0 cube is synthesized once; trial i adds the noise that
    ``synthesize_echo(..., seed=(seed, i))`` would, so every trial is
    bit-identical to a full synthesis with that seed. The statistic runs on
    blocks of trials (see ``_statistics``).
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    clean = synthesize_echo(scene_h0, plan, b, cfg, noise_var=0.0)
    ts = _statistics(_glr_evaluator(candidate, plan, cfg, b), cfg, [
        (clean, cfg.noise_var, [(seed, i) for i in trials]) for trials in blocks(n_trials)])
    return float(np.quantile(ts, 1.0 - p_fa))


def _statistics(evaluate, cfg: SystemConfig, jobs) -> list[float]:
    """The statistic of every trial of ``jobs``, (clean, sigma2, seeds) blocks,
    in order. Every block goes through one noisy stack and one scratch:
    blocks that each allocated and freed about 1 MB would have the allocator
    hand the heap top back to the OS and fault it in again."""
    size = max(len(seeds) for *_, seeds in jobs)
    stack = np.empty((size, cfg.m_rx, cfg.n_sub, cfg.n_sym), dtype=complex)
    shape = (size, cfg.m_rx, cfg.n_sub * cfg.n_sym)
    work = np.empty(shape, dtype=complex), np.empty(shape)
    return [out.statistic for clean, sigma2, seeds in jobs
            for out in evaluate(noisy_copies(clean, sigma2, seeds, out=stack), work)]


def roc_curve(scene_h0: Scene, scene_h1: Scene, cfg: SystemConfig, plan: BeamPlan,
              snr_list_db, n_trials: int = 500, n_thresholds: int = 101, seed=0,
              threads: int = 1) -> dict[float, list[tuple[float, float, float]]]:
    """Monte-Carlo ROC per SNR for the first target of scene_h1, tested at
    its true frequencies in its covering beam. Each hypothesis' noiseless cube is
    synthesized once; trial i of hypothesis h at the k-th SNR adds the noise
    of seed (seed, k, h, i). The statistic runs on blocks of trials; the
    blocks of all SNRs and both hypotheses are split into ``threads``
    contiguous parts, one per worker thread, each with its own stack and
    scratch, which changes only the execution order.
    Thresholds sweep the pooled statistic range (quantile grid plus open
    endpoints), so each curve starts at (1, 1) and ends at (0, 0) and is
    monotone by construction. Returns {snr_db: [(gamma, p_fa, p_d), ...]}.
    """
    if not scene_h1.targets:
        raise ValueError("scene_h1 needs at least one target")
    target = scene_h1.targets[0]
    candidate = frequencies_target(target, cfg)
    b = beam_for_angle(plan, target.theta)
    clean = [synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
             for scene in (scene_h0, scene_h1)]
    evaluate = _glr_evaluator(candidate, plan, cfg, b)
    jobs = [(clean[h], 10.0 ** (-snr_db / 10.0), [(seed, k, h, i) for i in trials])
            for k, snr_db in enumerate(snr_list_db) for h in (0, 1)
            for trials in blocks(n_trials)]
    parts = thread_map(lambda part: _statistics(evaluate, cfg, jobs[part.start:part.stop]),
                       blocks(len(jobs), threads, len(jobs)), threads)
    stats = [t for ts in parts for t in ts]
    curves: dict[float, list[tuple[float, float, float]]] = {}
    for k, snr_db in enumerate(snr_list_db):
        pooled = np.array(stats[2 * n_trials * k:2 * n_trials * (k + 1)])
        t0, t1 = pooled[:n_trials], pooled[n_trials:]
        qs = np.quantile(pooled, np.linspace(0.0, 1.0, n_thresholds))
        gammas = np.concatenate([[-math.inf], np.unique(qs), [math.inf]])
        curves[float(snr_db)] = [(float(gm), float(np.mean(t0 > gm)), float(np.mean(t1 > gm)))
                                 for gm in gammas]
    return curves
