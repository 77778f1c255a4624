"""End-to-end and per-layer benchmark of the mtsense CLI.

    python3 perfbench/run.py --workload detect-dense --seed 1 --seconds 30 --trace 0

Paths are resolved from this file, so any working directory works. A run is
one process: it imports the package from `src/` and calls the `mtsense` CLI
entry point (`mtsense.cli.main`) with the workload's command again and again
for `--seconds` (at least MIN_SAMPLES times), checking every output. After
each call it times one separate `setup_only.py` process: interpreter start,
import, config, plan, scene and filter design, the part of a command that
does not scale with its trials. Times are reported as the median over the
run's calls (see perfbench/README.md for why the window is long).

--trace 0   end-to-end metrics: setup_s, wall_s, cpu_s, peak_rss_mb and
            items_per_s, plus failed_frac and the workload's quality figures,
            which are printed only.
--trace 1   the same untraced loop, then one call with every layer wrapped
            (see tracing.py); the spans give the per-layer metrics.

The workload seed is passed to the program as `--seed`; the scene and the
problem size are fixed per workload (`--size bench` for the timed runs,
`--size full` for the sizes of the default config). The last line of stdout
is one JSON object {correct, attempted, failed, metrics}. The exit code is 1
if an output check fails, and 2 if the package cannot be found. The full
result, with the environment block and every sample, is written to
`.perfbench/` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP = HERE / "setup_only.py"
REFERENCE_DIR = HERE / "reference"

MIN_SAMPLES = 2          # the rerun check needs two outputs to compare
MAX_SAMPLES = 200
SETUP_TIMEOUT_S = 60.0

# Criterion 1 of the acceptance suite: estimate vs truth.
TOL_THETA_DEG, TOL_RANGE_M, TOL_SPEED_MPS = 0.1, 0.02, 0.02
CRB_REL_TOL = 1e-9

SCHEMAS = {                        # README "Outputs"
    "plan.csv": ("b", "theta_deg", "halfwidth_deg"),
    "spectrum.csv": ("b", "theta_deg", "power"),
    "estimates.csv": ("b", "theta_deg", "range_m", "speed_mps",
                      "psi_s", "psi_r", "psi_d"),
    "detections.csv": ("b", "theta_deg", "range_m", "speed_mps",
                       "t", "gamma", "decision"),
    "sweep.csv": ("snr_db", "param", "mse", "crb"),
}
TEXT_COLUMNS = {"param"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    threads: int | None            # None: the command takes no --threads
    stages: tuple[str, ...]        # manifest stage names of one run
    outputs: tuple[str, ...]       # compared byte for byte between runs
    sizes: dict                    # size name -> config overrides
    why: str


# Bench sizes keep one call at 2-4 s, so a 30 s run holds 7 or more calls.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="detect-dense",
        command=("detect",),
        threads=1,
        stages=("synthesize", "filter", "spectrum", "estimate", "detect"),
        outputs=("plan.csv", "spectrum.csv", "estimates.csv", "detections.csv"),
        sizes={"bench": {"detector": {"calib_trials": 60}}, "full": {}},
        why="full detect chain in 400-scatterer clutter; H0 calibration "
            "re-synthesis and GLRT projectors dominate"),
    Workload(
        name="sweep-snr",
        command=("sweep-snr",),
        threads=2,
        stages=("sweep",),
        outputs=("sweep.csv",),
        sizes={"bench": {"n_trials": 6}, "full": {}},
        why="Monte-Carlo noise, 61-beam IIR stack and root-MUSIC on two "
            "worker threads; never calls the detector"),
    Workload(
        name="crb-dense",
        command=("crb", "--include-scatterers"),
        threads=None,
        stages=("crb",),
        outputs=("crb.json",),
        sizes={"bench": {"scene": {"n_scatterers": 100}, "scan": {"n_beams": 15},
                         "snr_list_db": [0.0, 20.0]},
               "full": {"scene": {"n_scatterers": 100},
                        "snr_list_db": [0.0, 20.0]}},
        why="BLAS-bound Jacobian and FIM assembly with 100 scatterer "
            "nuisances; no synthesis, no detector"),
)}


# ---------------------------------------------------------------------------
# calls and processes

@dataclass
class Call:
    wall_s: float
    cpu_s: float
    returncode: int
    stderr: str


def call_cli(argv: list[str]) -> Call:
    """One in-process call of the CLI entry point; its stdout is discarded."""
    from mtsense import cli

    err = io.StringIO()
    gc.collect()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:           # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                   # noqa: BLE001 - counted as a failed run
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return Call(wall_s=wall, cpu_s=cpu, returncode=rc, stderr=err.getvalue())


def time_setup(config_path: Path) -> float | None:
    """Wall time of one setup_only.py process, from spawn to exit."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(SETUP), str(config_path)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=SETUP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:    # run() has killed and reaped it
        return None
    wall = time.perf_counter() - start
    return wall if proc.returncode == 0 else None


def blas_threads_for(threads: int | None, nproc: int) -> int:
    """Worker threads x BLAS threads <= nproc."""
    return max(1, nproc // (threads or 1))


def set_blas_threads(n: int) -> None:
    """Takes effect for BLAS loaded after the call, here and in child processes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def command_args(w: Workload, config_path: Path, seed: int, out_dir: Path,
                 threads: int | None) -> list[str]:
    args = [*w.command, "--config", str(config_path), "--seed", str(seed),
            "--out-dir", str(out_dir)]
    if threads is not None:
        args += ["--threads", str(threads)]
    return args


# ---------------------------------------------------------------------------
# output checks

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def schema_problems(out_dir: Path, names) -> list[str]:
    """Header mismatches and non-finite values in the named outputs."""
    problems = []
    for name in names:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if name.endswith(".json"):
            if not all(math.isfinite(v) for v in _numbers(json.loads(path.read_text()))):
                problems.append(f"{name} has non-finite values")
            continue
        header, rows = _read_csv(path)
        if tuple(header) != SCHEMAS[name]:
            problems.append(f"{name} header {header} != {list(SCHEMAS[name])}")
        numeric = [i for i, h in enumerate(header) if h not in TEXT_COLUMNS]
        if any(not math.isfinite(float(row[i])) for row in rows for i in numeric):
            problems.append(f"{name} has non-finite values")
    return problems


def _matches(row: list[str], target: dict) -> bool:
    theta, rng, speed = (float(v) for v in row[1:4])
    return (abs(theta - target["theta_deg"]) < TOL_THETA_DEG
            and abs(rng - target["range_m"]) < TOL_RANGE_M
            and abs(speed - target["speed_mps"]) < TOL_SPEED_MPS)


def target_problems(out_dir: Path, manifest: dict) -> list[str]:
    """Every scene target needs an estimate within criterion 1's tolerances."""
    _, rows = _read_csv(out_dir / "estimates.csv")
    return [f"no estimate within tolerance of target {i + 1}"
            for i, t in enumerate(manifest["scene"]["targets"])
            if not any(_matches(r, t) for r in rows)]


def crb_problems(out_dir: Path, reference_path: Path) -> list[str]:
    if not reference_path.is_file():
        return [f"no crb reference {reference_path.name}"]
    got = json.loads((out_dir / "crb.json").read_text())
    want = json.loads(reference_path.read_text())
    if [sorted(r) for r in got] != [sorted(r) for r in want]:
        return ["crb.json layout differs from the reference"]
    worst = 0.0
    for a, b in zip(_numbers(got), _numbers(want)):
        scale = max(abs(a), abs(b))
        if scale > 0:
            worst = max(worst, abs(a - b) / scale)
    if worst > CRB_REL_TOL:
        return [f"crb.json differs from the reference by {worst:.3e} relative"]
    return []


def same_outputs(a: Path, b: Path, names) -> list[str]:
    return [name for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()]


def quality(w: Workload, out_dir: Path, manifest: dict) -> dict:
    """Workload figures printed beside the timings (not gated)."""
    if w.name == "detect-dense":
        targets = manifest["scene"]["targets"]
        _, rows = _read_csv(out_dir / "detections.csv")
        hits = [r for r in rows if r[6] == "1"]
        found = sum(any(_matches(r, t) for r in hits) for t in targets)
        false = sum(not any(_matches(r, t) for t in targets) for r in hits)
        return {"targets_detected_frac": found / len(targets),
                "false_detections": false}
    if w.name == "sweep-snr":
        _, rows = _read_csv(out_dir / "sweep.csv")
        top = max(float(r[0]) for r in rows)
        return {"mse_to_crb": max(float(r[2]) / float(r[3])
                                  for r in rows if float(r[0]) == top)}
    return {}


def items(w: Workload, out_dir: Path, manifest: dict) -> int:
    """Monte-Carlo or assembly units done by one run."""
    config = manifest["config"]
    if w.name == "detect-dense":     # H0 calibration trials
        _, rows = _read_csv(out_dir / "detections.csv")
        return len(rows) * config["detector"]["calib_trials"]
    if w.name == "sweep-snr":        # sweep trials
        return manifest["n_trials"] * len(config["snr_list_db"])
    return config["scan"]["n_beams"] * len(config["snr_list_db"])   # FIM blocks


# ---------------------------------------------------------------------------
# the measurement loop

@dataclass
class Run:
    call: Call
    out_dir: Path
    manifest: dict | None = None
    items: int = 0


@dataclass
class Measurement:
    runs: list[Run] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)

    @property
    def ok(self) -> list[Run]:
        return [r for r in self.runs if r.manifest is not None]

    @property
    def reference(self) -> Run | None:
        ok = self.ok
        return ok[0] if ok else None


def record(m: Measurement, w: Workload, call: Call, out_dir: Path) -> None:
    """Count the call's stages, check its outputs, and add it to m."""
    run = Run(call=call, out_dir=out_dir)
    m.attempted += len(w.stages)
    manifest_path = out_dir / "manifest.json"
    if call.returncode != 0 or not manifest_path.is_file():
        m.failed += len(w.stages)
        m.runs.append(run)
        return
    manifest = json.loads(manifest_path.read_text())
    failed_stages = {e.get("stage") for e in manifest.get("errors", [])}
    m.failed += len(failed_stages & set(w.stages))
    m.problems += schema_problems(out_dir, w.outputs)
    ref = m.reference
    if ref is not None:
        m.problems += [f"rerun changed {n}"
                       for n in same_outputs(ref.out_dir, out_dir, w.outputs)]
    run.manifest = manifest
    run.items = items(w, out_dir, manifest)
    m.runs.append(run)
    if ref is not None:
        shutil.rmtree(out_dir)          # keep only the reference outputs


def measure(w: Workload, seed: int, seconds: float, work: Path, config_path: Path,
            setups: bool) -> Measurement:
    """Call the command until `seconds` have passed; with `setups`, follow each
    call by one set-up process, so both sample the whole window."""
    m = Measurement()
    t0 = time.perf_counter()
    k = 0
    while k < MAX_SAMPLES and (k < MIN_SAMPLES or time.perf_counter() - t0 < seconds):
        out_dir = work / f"run{k:03d}"
        call = call_cli(command_args(w, config_path, seed, out_dir, w.threads))
        record(m, w, call, out_dir)
        if setups:
            wall = time_setup(config_path)
            if wall is not None:
                m.setups.append(wall)
        k += 1
    return m


# ---------------------------------------------------------------------------
# environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library() -> str:
    import numpy as np

    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment(threads) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas_library(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "threads": threads,
        "commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# one benchmark run

def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


STAGE_METRICS = ("synthesize", "filter", "spectrum", "estimate", "detect",
                 "sweep", "crb")


def benchmark(w: Workload, seed: int, seconds: float, trace: bool, size: str,
              work: Path) -> dict:
    """One run of the benchmark in this process; returns the full result."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(w.sizes[size]))
    # Warm-up: compiles bytecode and fills the file cache.
    time_setup(config_path)
    result = {"workload": w.name, "seed": seed, "size": size, "trace": int(trace),
              "environment": environment(w.threads)}

    m = measure(w, seed, seconds, work, config_path, setups=not trace)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, ref = m.ok, m.reference
    if ref is not None:
        if w.name == "detect-dense":
            m.problems += target_problems(ref.out_dir, ref.manifest)
        elif w.name == "crb-dense":
            m.problems += crb_problems(ref.out_dir, REFERENCE_DIR / f"crb-dense-{size}.json")
        elif w.name == "sweep-snr":
            serial = work / "serial"
            call = call_cli(command_args(w, config_path, seed, serial, 1))
            if call.returncode != 0:
                m.problems.append("sweep-snr failed at --threads 1")
            else:
                m.problems += [f"{n} differs between --threads 1 and {w.threads}"
                               for n in same_outputs(ref.out_dir, serial, w.outputs)]

    series = {"wall_s": [r.call.wall_s for r in ok],
              "cpu_s": [r.call.cpu_s for r in ok],
              "items_per_s": [r.items / r.call.wall_s for r in ok]}
    result.update(
        samples=len(ok), attempted=m.attempted, failed=m.failed,
        series=series, setup_series=m.setups,
        errors=sorted({r.call.stderr.strip()[-500:] for r in m.runs if r.manifest is None}),
        quality=quality(w, ref.out_dir, ref.manifest) if ref is not None else {},
    )
    wall = _median(series["wall_s"])
    if not trace:
        result["metrics"] = {
            "setup_s": _metric(_median(m.setups), "s"),
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(_median(series["cpu_s"]), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "items_per_s": _metric(_median(series["items_per_s"]), "1/s"),
        }
    else:
        result["metrics"] = traced_metrics(w, m, ref, seed, work, config_path, wall)
        if (work / "spans.jsonl").is_file():
            result["spans_file"] = str(work / "spans.jsonl")
    result["problems"] = m.problems
    result["correct"] = ref is not None and not m.problems
    return result


def traced_metrics(w: Workload, m: Measurement, ref: Run | None, seed: int,
                   work: Path, config_path: Path, untraced_wall: float) -> dict:
    import tracing

    metrics = {}
    for stage in STAGE_METRICS:
        values = [r.manifest["stage_seconds"].get(stage, 0.0) for r in m.ok]
        metrics[f"experiments.stage.{stage}_s"] = _metric(_median(values) if values else 0.0, "s")
    out_dir = work / "traced"
    recorder = tracing.Recorder(f"{w.name}-seed{seed}")
    recorder.install()
    try:
        call = call_cli(command_args(w, config_path, seed, out_dir, w.threads))
    finally:
        recorder.uninstall()
    recorder.write(work / "spans.jsonl")
    if call.returncode != 0:
        m.problems.append("traced run failed")
        return metrics
    if ref is not None:
        m.problems += [f"traced run changed {n}"
                       for n in same_outputs(ref.out_dir, out_dir, w.outputs)]
    for name, value in tracing.layer_metrics(recorder.spans).items():
        metrics[name] = _metric(value, tracing.unit(name))
    metrics["trace.overhead_frac"] = _metric(call.wall_s / untraced_wall - 1.0, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# reporting

def report(result: dict) -> list[str]:
    env = result["environment"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  size {result['size']}"
             f"  trace {result['trace']}  samples {result['samples']}",
             "environment " + json.dumps(env, sort_keys=True)]
    attempted = result["attempted"]
    failed_frac = result["failed"] / attempted if attempted else 1.0
    rows = [(n, v["value"], v["unit"]) for n, v in result["metrics"].items()]
    rows.append(("failed_frac", failed_frac, "ratio"))
    rows += [(n, v, "count" if n == "false_detections" else "ratio")
             for n, v in result["quality"].items()]
    for name, value, unit in rows:
        values = result["setup_series"] if name == "setup_s" else result["series"].get(name)
        note = ""
        if values:
            note = (f"  (median {_median(values):.6g}, min {min(values):.6g}, "
                    f"max {max(values):.6g}, n {len(values)})")
        lines.append(f"  {name:36s} {value:14.6g} {unit}{note}")
    lines.append("checks " + ("ok" if result["correct"] else
                              "FAILED: " + "; ".join(result["problems"] or ["no run succeeded"])))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mtsense end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "full"), default="bench",
                        help="bench: the timed sizes; full: the default config's sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mtsense" / "cli.py").is_file():
        print(f"perfbench: no mtsense package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    set_blas_threads(blas_threads_for(w.threads, len(os.sched_getaffinity(0))))
    results_dir = ROOT / ".perfbench"
    results_dir.mkdir(exist_ok=True)
    tag = f"{w.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=results_dir, prefix=f"work-{tag}-") as tmp:
        result = benchmark(w, args.seed, args.seconds, bool(args.trace), args.size, Path(tmp))
        if "spans_file" in result:
            kept = results_dir / f"{tag}.spans.jsonl"
            shutil.move(result["spans_file"], kept)
            result["spans_file"] = str(kept.relative_to(ROOT))
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    for line in report(result):
        print(line)
    if not result["samples"]:
        print("perfbench: every run failed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
