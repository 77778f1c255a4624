"""Moving-target sensing in clutter: simulation, estimation, detection.

The package simulates a monostatic OFDM sensing link with separate transmit
and receive uniform linear arrays. A beam scan sweeps a sector; per scan the
echo cube, a plain (antennas x subcarriers x symbols) complex array, carries
moving targets, stationary clutter and noise. A Doppler-domain IIR high-pass removes the
clutter, the per-beam residual power localizes targets in angle, root-MUSIC
recovers angle/range/speed from the filtered cube, a subspace GLRT confirms
each candidate against the clutter hypothesis, and closed-form Cramer-Rao
bounds grade the estimates.

Modules: scene, beams, echo, clutter, music, crb, detector, experiments, cli.
"""
from ._version import __version__
from .scene import (
    SystemConfig, Target, Scatterer, Scene,
    spatial_frequency, range_frequency, doppler_frequency,
    frequencies_target,
    generate_scene, reference_scene, REFERENCE_TARGETS,
)
from .beams import BeamPlan, default_plan, beamformer_weight, g_tilde
from .echo import synthesize_echo, write_tensor, read_tensor
from .clutter import (
    IirFilter, design_butterworth_highpass, normalize_by_gain,
    filter_symbols, scan_spectrum, find_peaks,
)
from .music import (
    EstimationResult, root_music_frequency, estimate_candidate,
)
from .crb import FimBlocks, CrbResult, fim_blocks, total_fim, crb_eta_t
from .detector import (
    GlrOutcome, sample_grid, clutter_basis, perp_projector,
    glr_statistic, detect, calibrate_gamma, roc_curve,
)
from .experiments import (
    ExperimentConfig, load_config, run_pipeline, sweep_snr,
    roc_experiment, crb_experiment,
)
