"""Span tracing of the mtsense layers, installed from outside the package.

`Recorder.install()` wraps each function in TRACED and replaces it at every
module attribute of the package that binds it: `synthesize_echo` is bound in
`echo`, `experiments` and `detector`, `tx_gain` in `beams`, `echo` and `crb`,
`complex_normal` in `scene`, `echo` and `experiments`, and so on, so a call is
traced whichever module it goes through. Each call records one span: (id,
parent id, name, start, end, thread id, run id, info). Span stacks are kept
per thread, so worker threads nest their own calls and never adopt a span of
another thread as parent. Spans stay in memory until `write()`;
`uninstall()` puts the original functions back.

`layer_metrics()` turns a span list into the per-layer metrics of the
benchmark. Self time is a span's duration minus the part of it covered by
its child spans.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "mtsense"
# Module -> functions wrapped: what the layer metrics read plus each layer's
# entry points. Per-element helpers (steering vectors, frequency maps) are
# left out: they run millions of times and a span would cost more than they do.
TRACED = {
    "scene": ("complex_normal", "reference_scene", "generate_scene"),
    "beams": ("default_plan", "tx_gain", "g_tilde"),
    "echo": ("synthesize_echo", "write_tensor"),
    "clutter": ("design_butterworth_highpass", "normalize_by_gain",
                "filter_symbols", "scan_spectrum", "find_peaks",
                "top_local_maxima"),
    "music": ("estimate_candidate", "root_music_frequency"),
    "detector": ("sample_grid", "glr_statistic", "perp_projector",
                 "calibrate_gamma", "roc_curve"),
    "crb": ("fim_blocks", "total_fim", "jacobian_matrix", "response_matrix",
            "crb_eta_t"),
    "experiments": ("load_config", "build_scene", "run_pipeline",
                    "simulate_experiment", "_sweep_filtered_stack", "sweep_snr",
                    "roc_experiment", "crb_experiment"),
    "cli": ("main",),
}
# Time the recorder spends on span info; a child of the calling span, so it
# is not charged to any layer's self time.
OVERHEAD = "trace.info"


def _size(size) -> int:
    if size is None:
        return 1
    return int(np.prod(size))


def _synth_info(args, kwargs, result) -> dict:
    scene, plan, b, cfg = args[:4]
    return {"elements": len(scene.targets) + len(scene.scatterers),
            "key": hash((scene, id(plan), b, cfg))}


def _noise_info(args, kwargs, result) -> dict:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return {"samples": _size(size)}


def _filter_info(args, kwargs, result) -> dict:
    data = args[0] if isinstance(args[0], np.ndarray) else args[0].data
    return {"samples": int(data.size)}


def _projector_info(args, kwargs, result) -> dict:
    rounded = np.round(result, 12) + 0.0    # + 0.0 folds -0.0 into 0.0
    return {"key": hash(rounded.tobytes())}


def _fim_info(args, kwargs, result) -> dict:
    b, scene, plan, cfg = args[:4]
    n = cfg.m_rx * cfg.n_sub * cfg.n_sym
    k = result.f1.shape[0]
    e = result.f3.shape[0] // 2
    # J^H J, J^H A and A^H A as complex GEMMs: 8 real flops per multiply-add.
    flop = 8.0 * n * (k * k + k * e + e * e)
    return {"key": hash((scene, id(plan), b, cfg)), "gflop": flop * 1e-9}


INFO = {
    "scene.complex_normal": _noise_info,
    "echo.synthesize_echo": _synth_info,
    "clutter.filter_symbols": _filter_info,
    "experiments._sweep_filtered_stack": _filter_info,
    "detector.perp_projector": _projector_info,
    "crb.fim_blocks": _fim_info,
}


class Recorder:
    """Collects spans from every thread of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        clock = time.perf_counter
        spans = self.spans
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            tid = threading.get_ident()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), tid, run_id, None))
                raise
            finally:
                stack.pop()
            end = clock()
            extra = None
            if info is not None:
                extra = info(args, kwargs, result)
                spans.append((next(self._ids), parent, OVERHEAD, end, clock(),
                              tid, run_id, None))
            spans.append((sid, parent, name, start, end, tid, run_id, extra))
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of a traced function (undone by `uninstall`)."""
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr in names:
                fn = getattr(module, attr)
                wrappers[id(fn)] = self.wrap(f"{mod_name}.{attr}", fn)
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "info")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.info: list[dict] = []


def _summarize(spans) -> dict[str, _Layer]:
    selfs = self_times(spans)
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for sid, _parent, name, start, end, _tid, _run, info in spans:
        layer = layers[name]
        layer.calls += 1
        layer.total_s += end - start
        layer.self_s += selfs[sid]
        if info is not None:
            layer.info.append(info)
    return layers


def _sum_info(layers, names, key) -> float:
    return sum(i[key] for n in names for i in layers[n].info)


def _unique_ratio(layer: _Layer) -> float:
    if not layer.calls:
        return 0.0
    return len({i["key"] for i in layer.info}) / layer.calls


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one traced run's spans."""
    L = _summarize(spans)
    filt = ("clutter.filter_symbols", "experiments._sweep_filtered_stack")
    spectrum = ("clutter.scan_spectrum", "clutter.find_peaks",
                "clutter.top_local_maxima")
    fim = L["crb.fim_blocks"]
    gflop = _sum_info(L, ("crb.fim_blocks",), "gflop")
    return {
        "cli.main_s": L["cli.main"].total_s,
        "scene.noise_calls": L["scene.complex_normal"].calls,
        "scene.noise_s": L["scene.complex_normal"].total_s,
        "scene.noise_samples": _sum_info(L, ("scene.complex_normal",), "samples"),
        "beams.tx_gain_calls": L["beams.tx_gain"].calls,
        "beams.tx_gain_s": L["beams.tx_gain"].total_s,
        "echo.synth_calls": L["echo.synthesize_echo"].calls,
        "echo.synth_self_s": L["echo.synthesize_echo"].self_s,
        "echo.synth_elements": _sum_info(L, ("echo.synthesize_echo",), "elements"),
        "echo.synth_unique_ratio": _unique_ratio(L["echo.synthesize_echo"]),
        "clutter.filter_calls": sum(L[n].calls for n in filt),
        "clutter.filter_s": sum(L[n].total_s for n in filt),
        "clutter.samples_filtered": _sum_info(L, filt, "samples"),
        "clutter.spectrum_s": sum(L[n].total_s for n in spectrum),
        "music.estimate_calls": L["music.estimate_candidate"].calls,
        "music.estimate_s": L["music.estimate_candidate"].total_s,
        "music.root_calls": L["music.root_music_frequency"].calls,
        "music.root_s": L["music.root_music_frequency"].total_s,
        "detector.glr_calls": L["detector.glr_statistic"].calls,
        "detector.glr_self_s": L["detector.glr_statistic"].self_s,
        "detector.projector_builds": L["detector.perp_projector"].calls,
        "detector.projector_s": L["detector.perp_projector"].total_s,
        "detector.projector_unique_ratio": _unique_ratio(L["detector.perp_projector"]),
        "detector.calibrate_calls": L["detector.calibrate_gamma"].calls,
        "detector.calibrate_self_s": L["detector.calibrate_gamma"].self_s,
        "crb.fim_calls": fim.calls,
        "crb.fim_self_s": fim.self_s,
        "crb.jacobian_s": L["crb.jacobian_matrix"].total_s,
        "crb.response_s": L["crb.response_matrix"].total_s,
        "crb.schur_s": L["crb.crb_eta_t"].total_s,
        "crb.fim_unique_ratio": _unique_ratio(fim),
        "crb.fim_gflop_computed": gflop,
        "crb.fim_gflops": gflop / fim.self_s if fim.self_s > 0 else 0.0,
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("gflops"):
        return "GFLOP/s"
    return "count"
