"""End-to-end experiment orchestration: scan pipeline, SNR sweep, ROC, CRB export.

Everything here is plumbing around the core modules. Experiments take an
ExperimentConfig (loadable from JSON), derive every random stream from the
run seed plus fixed tags, and write plot-ready CSVs plus manifest.json. Reruns
with the same config and seed produce byte-identical CSVs at a fixed BLAS
thread count (OPENBLAS_NUM_THREADS / OMP_NUM_THREADS); worker threads only
change the execution order, never the results.

The scan pipeline keeps one power per beam and only the few candidate cubes
(run_pipeline). Every manifest holds library_version, seed, config_hash,
config, scene, outputs (files written), stage_seconds (seconds per stage;
busy time for the scan layers) and errors (per-scan failures), plus
candidates, n_detections and wall_seconds (scan pipeline), n_trials (sweep,
ROC), full_cube_beams and sampled_beams (sweep: the beams whose estimation
window is drawn, and those whose power alone is) or include_scatterers (CRB).

CSV schemas (the compatibility contract):
    plan.csv        b, theta_deg, halfwidth_deg
    spectrum.csv    b, theta_deg, power
    estimates.csv   b, theta_deg, range_m, speed_mps, psi_s, psi_r, psi_d
    detections.csv  b, theta_deg, range_m, speed_mps, t, gamma, decision
    sweep.csv       snr_db, param, mse, crb
    roc.csv         snr_db, gamma, p_fa, p_d
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import beams, clutter, crb, detector, music
from ._version import __version__
from .echo import clean_factors, synthesize_echo, write_tensor
from .scene import (C0, MAX_SYMBOLS, RANGE_SUPPORT_M, REFERENCE_TARGETS, SPEED_SUPPORT_MPS,
                    Scene, SystemConfig, blocks, check_fields, complex_normal, generate_scene,
                    integer, is_finite, number, reference_scene, rule, scene_to_dict,
                    thread_map)

_CALIB_TAG = 90001
_SWEEP_TAG = 90002
_SWEEP_NOISE_TAG = 90003


# ---------------------------------------------------------------------------
# configuration: each field declares its own rule (see scene.check_fields)

SCENE_KINDS = ("reference", "random", "empty")


@dataclass(frozen=True)
class SceneSpec:
    kind: str = rule("reference", "one of " + ", ".join(map(repr, SCENE_KINDS)),
                     lambda x: x in SCENE_KINDS)
    n_targets: int = integer(2, 0)
    n_scatterers: int = integer(400, 0)
    seed: int = integer(7, 0)
    min_separation_deg: float = 4.0


@dataclass(frozen=True)
class ScanSpec:
    n_beams: int = integer(61, 1)
    span_deg: float = number(60.0, 0, 90)


@dataclass(frozen=True)
class FilterSpec:
    order: int = integer(clutter.DEFAULT_ORDER, 1, 8)
    cutoff: float = number(clutter.DEFAULT_CUTOFF, 0, 0.5)   # cycles per symbol

    def build(self) -> clutter.IirFilter:
        return clutter.design_butterworth_highpass(self.order, self.cutoff)


@dataclass(frozen=True)
class DetectorSpec:
    p_fa: float = number(0.01, 0, 1)
    calib_trials: int = integer(500, 10)
    n_thresholds: int = integer(101, 1)


@dataclass(frozen=True)
class SweepSpec:
    n_sym_synth: int = integer(64, 2, MAX_SYMBOLS)  # symbols each trial filters


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    scene: SceneSpec = field(default_factory=SceneSpec)
    scan: ScanSpec = field(default_factory=ScanSpec)
    filter: FilterSpec = field(default_factory=FilterSpec)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    search_rel_threshold: float = number(3.0, 1)      # the find_peaks rule
    # sigma^2 = 10^(-snr/10) stays in [1e-30, 1e30]: no overflow, no zero variance
    snr_list_db: tuple[float, ...] = rule(
        (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0),
        "a non-empty list of distinct finite numbers in [-300, 300] dB",
        lambda x: isinstance(x, (list, tuple)) and len(x) > 0
        and all(is_finite(v) and -300 <= v <= 300 for v in x) and len(set(x)) == len(x))
    n_trials: int = integer(100, 1)
    seed: int = integer(0, 0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "snr_list_db", tuple(map(float, self.snr_list_db)))
        # the rules that tie fields of different sections together
        system, flt, scene, scan = self.system, self.filter, self.scene, self.scan
        try:
            flt.build()
        except ValueError as exc:
            raise ValueError(f"filter.order and filter.cutoff: {exc}") from None
        warmup = clutter.default_warmup(flt)
        if system.n_sym - warmup < 2:     # root-MUSIC needs two retained symbols
            raise ValueError(f"filter.order {flt.order} flags {warmup} transient symbols, "
                             f"leaving fewer than 2 of system.n_sym = {system.n_sym}")
        if self.sweep.n_sym_synth <= system.n_sym:
            raise ValueError(f"sweep.n_sym_synth must be > system.n_sym = "
                             f"{system.n_sym}, got {self.sweep.n_sym_synth!r}")
        # the estimators invert frequencies only inside the unambiguous intervals
        n_targets = {"reference": len(REFERENCE_TARGETS), "random": scene.n_targets,
                     "empty": 0}[scene.kind]
        r_max, v_max = C0 / (2 * system.delta_f), system.wavelength / (4 * system.t_total)
        if scene.kind != "empty" and (n_targets or scene.n_scatterers) \
                and RANGE_SUPPORT_M[1] >= r_max:
            raise ValueError(f"system.delta_f = {system.delta_f:g} puts the unambiguous "
                             f"range c/(2 delta_f) = {r_max:.4g} m inside the scene's "
                             f"range support {RANGE_SUPPORT_M} m")
        if n_targets and SPEED_SUPPORT_MPS[1] >= v_max:
            raise ValueError(f"system.f_c, system.delta_f and system.t_guard put the "
                             f"unambiguous speed lambda/(4 T_total) = {v_max:.4g} m/s "
                             f"inside the target speed support {SPEED_SUPPORT_MPS} m/s")
        step = 2 * scan.span_deg / max(scan.n_beams - 1, 1)
        if scene.kind == "random" and n_targets >= 2 and scene.min_separation_deg < step:
            raise ValueError(f"scene.min_separation_deg must be >= the beam step "
                             f"2 scan.span_deg / (scan.n_beams - 1) = {step:.4g}, "
                             f"got {scene.min_separation_deg!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


_SECTION_TYPES = {key: hint
                  for key, hint in typing.get_type_hints(ExperimentConfig).items()
                  if is_dataclass(hint)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from (possibly partial) nested dicts; unknown keys raise."""
    kwargs = {}
    for key, value in raw.items():
        cls = _SECTION_TYPES.get(key)
        if cls is not None:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            unknown = set(value) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown keys in {key!r}: {sorted(unknown)}")
            value = cls(**value)
        elif key not in ExperimentConfig.__dataclass_fields__:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def build_scene(config: ExperimentConfig, cfg: SystemConfig, seed: int) -> Scene:
    spec = config.scene
    if spec.kind == "reference":
        return reference_scene(cfg, n_scatterers=spec.n_scatterers, seed=spec.seed)
    if spec.kind == "empty":
        return Scene(targets=(), scatterers=())
    try:
        return generate_scene(cfg, spec.n_targets, spec.n_scatterers,
                              seed=(seed, spec.seed),
                              min_separation=math.radians(spec.min_separation_deg))
    except RuntimeError as exc:
        raise ValueError(f"cannot place scene.n_targets = {spec.n_targets} targets at "
                         f"least scene.min_separation_deg = {spec.min_separation_deg} "
                         f"apart: {exc}") from None


# ---------------------------------------------------------------------------
# run context shared by every experiment command

def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class _Run:
    """One command's output directory, plan and scene, plus the manifest parts
    it fills in as it goes. The directory is made when the first file is
    written, so a run that fails before that leaves nothing behind."""

    config: ExperimentConfig
    out: Path
    plan: beams.BeamPlan
    scene: Scene
    outputs: list[str] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        tic = time.perf_counter()
        yield
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + time.perf_counter() - tic

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write_csv(self, name: str, header, rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs.append(name)

    def finish(self, **extra) -> dict:
        """Write manifest.json (the common keys plus `extra`) and return it."""
        manifest = {
            "library_version": __version__,
            "seed": self.config.seed,
            "config_hash": self.config.config_hash(),
            "config": self.config.to_dict(),
            "scene": scene_to_dict(self.scene),
            "outputs": self.outputs,
            "stage_seconds": self.stage_seconds,
            "errors": self.errors,
            **extra,
        }
        _write_json(self.path("manifest.json"), manifest)
        return manifest


def _start(config: ExperimentConfig, out_dir) -> _Run:
    plan = beams.default_plan(config.system, n_beams=config.scan.n_beams,
                              span_deg=config.scan.span_deg)
    return _Run(config, Path(out_dir), plan,
                build_scene(config, config.system, config.seed))


def _require_scanned(run: _Run, targets) -> None:
    """Raise ValueError naming the first of ``targets`` that no beam covers:
    the sweep and the ROC test a target in its covering beam."""
    plan = run.plan
    for i, target in enumerate(targets, 1):
        try:
            beams.beam_for_angle(plan, target.theta)
        except ValueError:
            lo, hi = plan.coverage_interval(0)[0], plan.coverage_interval(plan.n_beams - 1)[1]
            raise ValueError(f"target {i} at {math.degrees(target.theta):.2f} deg lies outside "
                             f"the sector [{math.degrees(lo):.2f}, {math.degrees(hi):.2f}] deg "
                             f"that scan.span_deg = {run.config.scan.span_deg:g} scans") from None


# ---------------------------------------------------------------------------
# scan pipeline

_STAGE_ORDER = ("spectrum", "estimate", "detect")
_LEAD = ("b", "theta_deg", "range_m", "speed_mps")     # both CSVs' leading columns


@dataclass(frozen=True)
class Candidate:
    """A candidate after the search: scan b, its estimate (None if it failed;
    `error` holds why) and whether the estimated angle lies in b's coverage.
    Failed estimates are not covered, nor are sidelobe ghosts: a beam near a
    target bumps the spectrum but estimates the target's angle."""
    b: int
    estimate: music.EstimationResult | None
    covered: bool
    error: Exception | None = None

    def lead(self) -> tuple:
        e = self.estimate
        return self.b, math.degrees(e.theta_hat), e.range_hat, e.speed_hat


def estimate_frame(windows: np.ndarray, scans: list[int], plan: beams.BeamPlan,
                   cfg: SystemConfig) -> list[Candidate]:
    """The chain after the search: one record per scan of `scans`, from one
    stacked root-MUSIC call on its (len(scans), M_r, L, P') window stack."""
    return [Candidate(b, res, beams.angle_in_coverage(plan, b, res.theta_hat))
            if isinstance(res, music.EstimationResult) else Candidate(b, None, False, res)
            for b, res in zip(scans, music.estimate_candidates(windows, scans, cfg))]


def _error(b: int, stage: str, exc: Exception) -> dict:
    return {"scan": b, "stage": stage, "error": type(exc).__name__, "message": str(exc)}


def run_pipeline(config: ExperimentConfig, out_dir, threads: int = 1,
                 last_stage: str = "detect") -> dict:
    """Full scan pipeline: synth -> normalize -> filter -> spectrum -> peaks ->
    estimate -> GLRT detect. Writes plan.csv, spectrum.csv, estimates.csv,
    detections.csv and manifest.json into out_dir and returns the manifest.

    Two passes. The scan pass streams: each worker thread walks one contiguous
    part of the beams in blocks (scene.blocks), filters each block from one
    buffer it reuses into another, and keeps only each beam's power. After the
    search each candidate's raw cube is synthesized again from its seed (GLRT)
    and the candidates are filtered as one stack (estimator); synthesis is
    seeded per scan and each cube is filtered apart, so it keeps its bits.
    stage_seconds of synthesize, filter and spectrum is busy time, summed
    over blocks and workers.

    estimate_frame gives each candidate one record: estimates.csv lists those
    with an estimate, a failed one is an errors entry, and only covered ones
    reach the GLRT. A failure while processing one scan's candidate is
    recorded in the report and aborts only that scan's downstream stages.
    """
    if last_stage not in _STAGE_ORDER:
        raise ValueError(f"unknown stage {last_stage!r}")
    last_idx = _STAGE_ORDER.index(last_stage)
    run = _start(config, out_dir)
    cfg, plan, scene, seed = config.system, run.plan, run.scene, config.seed
    filt = config.filter.build()
    extra: dict = {}
    t_start = time.perf_counter()

    run.write_csv("plan.csv", ("b", "theta_deg", "halfwidth_deg"),
                  beams.plan_summary_rows(plan))

    def _scan(part: range) -> tuple[np.ndarray, np.ndarray]:
        subs = blocks(len(part))
        buf, filtered = np.empty((2, max(map(len, subs)), cfg.m_rx, cfg.n_sub, cfg.n_sym), complex)
        power, busy = np.empty(len(part)), np.zeros(3)
        for sub in subs:
            for i, cube in zip(sub, buf):
                tic = time.perf_counter()
                y = synthesize_echo(scene, plan, part[i], cfg, seed=seed)
                toc = time.perf_counter()
                clutter.normalize_by_gain(y, plan, part[i], cfg, out=cube)
                busy[:2] += toc - tic, time.perf_counter() - toc
            tic = time.perf_counter()
            block = clutter.filter_symbols(buf[:len(sub)], filt, out=filtered[:len(sub)])
            toc = time.perf_counter()
            power[sub.start:sub.stop] = clutter.scan_spectrum(block)
            busy[1:] += toc - tic, time.perf_counter() - toc
        return power, busy

    parts = thread_map(_scan, blocks(plan.n_beams, threads, plan.n_beams), threads)
    spectrum = np.concatenate([power for power, _ in parts])
    run.stage_seconds.update(zip(("synthesize", "filter", "spectrum"),
                                 sum(busy for _, busy in parts).tolist()))
    with run.stage("spectrum"):
        rows = [(b, math.degrees(plan.directions[b]), float(spectrum[b]))
                for b in range(plan.n_beams)]
        run.write_csv("spectrum.csv", ("b", "theta_deg", "power"), rows)
        candidates = clutter.find_peaks(spectrum, config.search_rel_threshold)
        extra["candidates"] = candidates

    if last_idx >= 1:
        with run.stage("synthesize"):
            raw = [synthesize_echo(scene, plan, b, cfg, seed=seed) for b in candidates]
        with run.stage("filter"):
            warmup = clutter.default_warmup(filt)
            checked = np.ascontiguousarray(clutter.filter_symbols(np.stack(
                [clutter.normalize_by_gain(y, plan, b, cfg) for b, y in zip(candidates, raw)]),
                filt)[..., warmup:]) if candidates else []
        with run.stage("estimate"):
            found = estimate_frame(checked, candidates, plan, cfg)
            run.errors += [_error(c.b, "estimate", c.error) for c in found if c.error is not None]
            run.write_csv("estimates.csv", _LEAD + ("psi_s", "psi_r", "psi_d"),
                          [(*c.lead(), c.estimate.psi_s_hat, c.estimate.psi_r_hat,
                            c.estimate.psi_d_hat) for c in found if c.estimate is not None])

    if last_idx >= 2:
        with run.stage("detect"):
            det_rows = []
            h0_scene = scene.without_targets()
            dspec = config.detector
            for c, y in zip(found, raw):
                if not c.covered:
                    continue
                try:
                    cand = (c.estimate.psi_s_hat, c.estimate.psi_r_hat, c.estimate.psi_d_hat)
                    gamma = detector.calibrate_gamma(
                        h0_scene, plan, c.b, cand, cfg, dspec.p_fa,
                        n_trials=dspec.calib_trials, seed=(seed, _CALIB_TAG, c.b))
                    outcome = detector.glr_statistic(y, c.b, cand, plan, cfg)
                    decision = detector.detect(outcome, gamma)
                except Exception as exc:   # noqa: BLE001 - per-scan isolation
                    run.errors.append(_error(c.b, "detect", exc))
                    continue
                det_rows.append((*c.lead(), outcome.statistic, gamma, int(decision)))
            run.write_csv("detections.csv", _LEAD + ("t", "gamma", "decision"), det_rows)
            extra["n_detections"] = sum(r[-1] for r in det_rows)

    return run.finish(wall_seconds=time.perf_counter() - t_start, **extra)


def simulate_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Synthesize raw echo tensors for every scan and write them as binary files."""
    run = _start(config, out_dir)
    run.write_csv("plan.csv", ("b", "theta_deg", "halfwidth_deg"),
                  beams.plan_summary_rows(run.plan))

    def _one(b: int) -> str:
        y = synthesize_echo(run.scene, run.plan, b, config.system, seed=config.seed)
        name = f"echo_b{b:03d}.bin"
        write_tensor(y, b, run.path(name))
        return name

    with run.stage("synthesize"):
        run.outputs += thread_map(_one, range(run.plan.n_beams), threads)
    return run.finish()


# ---------------------------------------------------------------------------
# SNR sweep (estimation MSE vs CRB)

def _sweep_filtered_stack(noise: np.ndarray, near: clutter.FilteredPowerSampler,
                          out: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """One trial's unit window noise `noise`, CN(0, 1), through the filter of the
    near beams: the window stack (B, M_r, L, n_sym) it adds at unit deviation and
    the sums every SNR's near powers follow from (FilteredPowerSampler.filter_noise),
    in `out` if given."""
    return near.filter_noise(noise, out)


_MATCH_STEPS = 2      # farthest a target's peak may lie from its covering beam


def _match_peaks_to_targets(peaks: list[int], scene: Scene,
                            plan: beams.BeamPlan) -> list[int]:
    """Beam index to estimate each target at: nearest reported peak if it lies
    within _MATCH_STEPS beams of the target's true angle, else the covering
    beam (so a botched search shows up as estimation error, not a crash)."""
    out = []
    for target in scene.targets:
        b_true = beams.beam_for_angle(plan, target.theta)
        best = None
        for b in peaks:
            if abs(b - b_true) <= _MATCH_STEPS and (
                    best is None or abs(b - b_true) < abs(best - b_true)):
                best = b
        out.append(b_true if best is None else best)
    return out


def _reachable_beams(scene: Scene, plan: beams.BeamPlan) -> list[int]:
    """Every beam _match_peaks_to_targets can return, in ascending order."""
    covering = [beams.beam_for_angle(plan, t.theta) for t in scene.targets]
    return sorted({b for c in covering
                   for b in range(c - _MATCH_STEPS, c + _MATCH_STEPS + 1)
                   if 0 <= b < plan.n_beams})


def _bound_at(unit: crb.CrbResult, sigma2: float) -> crb.CrbResult:
    """The bound at noise variance sigma2 from `unit`, the bound at sigma2 = 1:
    every Fisher block scales with 1/sigma2, so the bound scales with sigma2."""
    s = math.sqrt(sigma2)
    return crb.CrbResult(crb_matrix=sigma2 * unit.crb_matrix,
                         std_theta=s * unit.std_theta, std_range=s * unit.std_range,
                         std_speed=s * unit.std_speed)


def sweep_snr(config: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Monte-Carlo MSE per target parameter vs the CRB over config.snr_list_db.

    Each trial observes a longer frame (sweep.n_sym_synth symbols) through the
    clutter filter and estimates on the last n_sym filtered symbols, so the
    filter transient has fully decayed and the estimation window length
    matches the CRB's. No clean cube is synthesized: the samplers filter the
    symbol rows of echo.clean_factors once. A trial draws only what it reads,
    each in law exactly as drawing the full noise and filtering it
    (clutter.FilteredPowerSampler):
      - the beams the estimator can reach (within _MATCH_STEPS of a target's
        covering beam) get the window of noise behind their last n_sym
        filtered symbols, and their filtered power over the rest of the
        frame is drawn from its law given that window;
      - every other beam feeds the search its filtered power alone, drawn
        from its law.
    Each trial draws one window of unit noise, from its stream (seed, trial),
    and filters it once for every SNR: the noise enters linearly, so each
    SNR's near powers are quadratics in its noise deviation, and only the
    windows the estimator reads are formed at it. What each SNR draws apart,
    the rest's power given the window and the far beams' powers, comes from
    the stream (seed, trial, SNR value). So each row keeps its exact law and
    depends on no other SNR listed, while the rows of one trial share its
    noise. The trials are cut into one contiguous part per worker thread,
    which draws each of its trials into one set of buffers. Each trial's
    windows, every SNR's, go through estimate_frame in one stacked call: the
    bytes do not depend on the thread count.

    The bound for each target is its own single-target FIM at the beam
    covering it: that is the data the per-beam estimator actually sees.
    (Summing information over the whole sweep would credit the bound with
    cross-beam amplitude-pattern information no per-beam estimator uses;
    scatterers are likewise absent from the FIM because the filter removes
    them rather than estimating them.)

    Writes sweep.csv (snr_db, param, mse, crb) and manifest.json, which
    counts the beams of each trial in full_cube_beams (the near beams, whose
    window is drawn) and sampled_beams (the others).
    """
    cfg = config.system
    n_synth = config.sweep.n_sym_synth
    run = _start(config, out_dir)
    plan, scene, seed = run.plan, run.scene, config.seed
    if not scene.targets:
        raise ValueError("the sweep needs at least one target in the scene")
    _require_scanned(run, scene.targets)
    filt = config.filter.build()
    n_t = len(scene.targets)
    truth = np.array([[t.theta, t.range, t.speed] for t in scene.targets])

    rows = []
    with run.stage("sweep"):
        coef, symbol_rows = clean_factors(scene, plan, replace(cfg, n_sym=n_synth))
        gains = np.array([beams.g_tilde(plan, b, cfg) for b in range(plan.n_beams)])
        coef /= gains[:, None, None, None]
        near = _reachable_beams(scene, plan)
        far = np.setdiff1d(np.arange(plan.n_beams), near)
        near_power = clutter.FilteredPowerSampler(coef[near], symbol_rows, filt, window=cfg.n_sym)
        far_power = clutter.FilteredPowerSampler(coef[far], symbol_rows, filt)
        near_gain2, far_gain2 = np.abs(gains[near]) ** 2, np.abs(gains[far]) ** 2
        slot = {b: i for i, b in enumerate(near)}

        sigma2s = [10.0 ** (-snr_db / 10.0) for snr_db in config.snr_list_db]
        # each SNR's stream is keyed by its value's bits (+ 0.0 folds -0.0 into 0.0)
        snr_keys = [int(np.float64(snr_db + 0.0).view(np.uint64)) for snr_db in config.snr_list_db]
        n_snr = len(sigma2s)

        def _part(part: range) -> np.ndarray:
            """Squared errors (trial, SNR, target, parameter) of the trials of
            `part`, drawn into one noise window, its filtered copy and one stack."""
            noise, filtered, stack = (np.empty(shape, dtype=complex) for shape in (
                near_power.shape, near_power.shape, (n_snr * n_t, *near_power.shape[1:])))
            est = np.empty((len(part), n_snr * n_t, 3))
            for trial, out in zip(part, est):
                complex_normal(np.random.default_rng((seed, _SWEEP_NOISE_TAG, trial)), 1.0,
                               noise.shape, out=noise)
                unit, sums = _sweep_filtered_stack(noise, near_power, filtered)
                scans = []
                for k, sigma2 in enumerate(sigma2s):
                    rng = np.random.default_rng((seed, _SWEEP_TAG, trial, snr_keys[k]))
                    var = sigma2 / near_gain2
                    power = np.empty(plan.n_beams)
                    power[near] = near_power.draw(rng, var, sums)
                    power[far] = far_power.draw(rng, sigma2 / far_gain2)
                    matched = _match_peaks_to_targets(clutter.top_local_maxima(power, n_t),
                                                      scene, plan)
                    near_power.windows(unit, var, [slot[b] for b in matched],
                                       stack[len(scans):len(scans) + n_t])
                    scans += matched
                for row, c in enumerate(estimate_frame(stack, scans, plan, cfg)):
                    if c.error is not None:
                        k, i = divmod(row, n_t)
                        raise RuntimeError(f"sweep estimate of target {i + 1} failed at "
                                           f"{config.snr_list_db[k]:g} dB, trial {trial}: "
                                           f"{c.error}") from c.error
                    out[row] = c.estimate.theta_hat, c.estimate.range_hat, c.estimate.speed_hat
            return (est.reshape(len(part), n_snr, n_t, 3) - truth) ** 2

        unit_bounds = [
            crb.crb_eta_t(crb.fim_blocks(beams.beam_for_angle(plan, t.theta),
                                         Scene(targets=(t,), scatterers=()),
                                         plan, cfg, sigma2=1.0))
            for t in scene.targets
        ]
        parts = thread_map(_part, blocks(config.n_trials, threads, config.n_trials), threads)
        mse = np.concatenate(parts).mean(axis=0)
        for k, snr_db in enumerate(config.snr_list_db):
            for i, unit in enumerate(unit_bounds):
                bound = _bound_at(unit, sigma2s[k])
                for j, name in enumerate(("theta", "range", "speed")):
                    rows.append((float(snr_db), f"{name}_{i + 1}", float(mse[k, i, j]),
                                 float(bound.crb_matrix[j, j])))

    run.write_csv("sweep.csv", ("snr_db", "param", "mse", "crb"), rows)
    return run.finish(n_trials=config.n_trials, full_cube_beams=len(near),
                      sampled_beams=len(far))


# ---------------------------------------------------------------------------
# ROC and CRB experiments

def roc_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """ROC curves per SNR for the first reference target; writes roc.csv."""
    run = _start(config, out_dir)
    _require_scanned(run, run.scene.targets[:1])
    dspec = config.detector
    with run.stage("roc"):
        curves = detector.roc_curve(
            run.scene.without_targets(), run.scene, config.system, run.plan,
            config.snr_list_db, n_trials=config.n_trials,
            n_thresholds=dspec.n_thresholds, seed=config.seed, threads=threads)
    rows = [(snr_db, *point) for snr_db in sorted(curves) for point in curves[snr_db]]
    run.write_csv("roc.csv", ("snr_db", "gamma", "p_fa", "p_d"), rows)
    return run.finish(n_trials=config.n_trials)


def crb_experiment(config: ExperimentConfig, out_dir,
                   include_scatterers: bool = False) -> dict:
    """CRB standard deviations per SNR for the configured scene's targets.

    By default the FIM treats scatterers as absent (the filter removes them
    before estimation); include_scatterers=True keeps their angles, ranges
    and amplitudes as nuisances. Writes crb.json.
    """
    run = _start(config, out_dir)
    if not run.scene.targets:
        raise ValueError("the CRB experiment needs at least one target")
    if not include_scatterers:
        run.scene = Scene(targets=run.scene.targets, scatterers=())
    with run.stage("crb"):
        unit = crb.crb_eta_t(crb.total_fim(run.scene, run.plan, config.system,
                                           sigma2=1.0))
        records = [
            crb.crb_result_to_dict(_bound_at(unit, 10.0 ** (-snr_db / 10.0)),
                                   float(snr_db))
            for snr_db in config.snr_list_db
        ]
    _write_json(run.path("crb.json"), records)
    run.outputs.append("crb.json")
    return run.finish(include_scatterers=include_scatterers)
