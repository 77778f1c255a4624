"""Command-line interface.

    mtsense <command> [--config cfg.json] [--seed N] [--out-dir DIR] [--threads N]

Commands: simulate, scan, estimate, detect, roc, crb, sweep-snr. Each writes
its CSV/JSON outputs plus manifest.json into --out-dir. On failure a JSON
error object goes to stderr and the exit code is 1. A command registers only
the flags it honours: crb takes no --threads, and only detect takes --p-fa.
--seed and --p-fa replace config fields, so the manifest's config records them.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import experiments
from ._version import __version__

_PIPELINE_STAGE = {"scan": "spectrum", "estimate": "estimate", "detect": "detect"}


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtsense",
        description="Moving-target sensing simulation experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "synthesize raw echo tensors for every scan (binary files)",
        "scan": "pipeline through the beam-power spectrum",
        "estimate": "pipeline through candidate parameter estimation",
        "detect": "full pipeline including GLRT confirmation",
        "roc": "Monte-Carlo ROC curves over the configured SNR list",
        "crb": "CRB standard deviations over the configured SNR list",
        "sweep-snr": "Monte-Carlo MSE vs CRB over the configured SNR list",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's run seed (kept in the manifest)")
        p.add_argument("--out-dir", default="mtsense-out", metavar="DIR",
                       help="output directory (default: %(default)s)")
        if name != "crb":
            p.add_argument("--threads", type=_thread_count, default=1,
                           help="worker threads for scans/trials (default: 1)")
        if name == "detect":
            p.add_argument("--p-fa", type=float, default=None, metavar="P",
                           help="false-alarm rate the threshold is calibrated "
                                "to (overrides the config)")
        if name == "crb":
            p.add_argument("--include-scatterers", action="store_true",
                           help="keep scatterer amplitudes as FIM nuisances")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = (experiments.load_config(args.config) if args.config
                  else experiments.ExperimentConfig())
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if getattr(args, "p_fa", None) is not None:
            config = dataclasses.replace(
                config, detector=dataclasses.replace(config.detector,
                                                     p_fa=args.p_fa))
        if args.command == "simulate":
            manifest = experiments.simulate_experiment(
                config, args.out_dir, threads=args.threads)
        elif args.command in _PIPELINE_STAGE:
            manifest = experiments.run_pipeline(
                config, args.out_dir, threads=args.threads,
                last_stage=_PIPELINE_STAGE[args.command])
        elif args.command == "roc":
            manifest = experiments.roc_experiment(
                config, args.out_dir, threads=args.threads)
        elif args.command == "crb":
            manifest = experiments.crb_experiment(
                config, args.out_dir, include_scatterers=args.include_scatterers)
        else:
            manifest = experiments.sweep_snr(config, args.out_dir, threads=args.threads)
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    summary = {
        "command": args.command,
        "out_dir": args.out_dir,
        "config_hash": manifest["config_hash"],
        "outputs": manifest["outputs"],
    }
    json.dump(summary, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
