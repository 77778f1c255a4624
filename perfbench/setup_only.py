"""The part of an mtsense command that does not scale with its Monte-Carlo work.

    python3 perfbench/setup_only.py CONFIG

Starts the interpreter, imports `mtsense.cli` from the `src/` directory next to
this one, loads CONFIG, and builds the scan plan, the scene and the clutter
filter, as every command does before its first trial. The benchmark times
this whole process as `setup_s`.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mtsense import beams, cli, experiments  # noqa: E402,F401 - cli import is timed


def main(config_path: str) -> int:
    config = experiments.load_config(config_path)
    cfg = config.system
    beams.default_plan(cfg, n_beams=config.scan.n_beams, span_deg=config.scan.span_deg)
    experiments.build_scene(config, cfg, config.seed)
    config.filter.build()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
