"""Spans and counters at osnrprobe's layer boundaries, installed from outside.

The tracer replaces, for the length of a traced operation, each name a
caller looks a layer up by (``experiment._span_inplace``,
``waveform.SampledField``, ...) with a wrapper that records a span: name,
layer, start, end and the span that was open when it was called. It also
swaps ``fiberlink.sfft`` for a proxy that counts FFT calls, points and
bytes. Names a later change removes are listed as untraced. Spans stay in
memory until the run ends.
"""

import os
import statistics
import sys
import time

# (module under osnrprobe, attribute, layer). Calls the benchmark makes go
# through the module attributes of the layer itself (waveform.*, spectrum.*,
# estimator.*, experiment.run_dataset); calls between layers go through the
# names each caller imported.
TARGETS = (
    ("experiment", "run_dataset", "experiment"),
    ("experiment", "_span_inplace", "fiberlink"),
    ("experiment", "_amplify_inplace", "fiberlink"),
    ("experiment", "analytic_osnr", "fiberlink"),
    ("experiment", "span_seed", "fiberlink"),
    ("experiment", "generate_reference", "waveform"),
    ("experiment", "build_profile", "waveform"),
    ("experiment", "apply_perturbation", "waveform"),
    ("experiment", "add_tx_noise_floor", "waveform"),
    ("experiment", "measure", "spectrum"),
    ("experiment", "build_feature_row", "estimator"),
    ("experiment", "SampledField", "field"),
    ("waveform", "generate_reference", "waveform"),
    ("waveform", "build_profile", "waveform"),
    ("waveform", "apply_perturbation", "waveform"),
    ("waveform", "add_tx_noise_floor", "waveform"),
    ("waveform", "SampledField", "field"),
    ("fiberlink", "SampledField", "field"),
    ("field", "SampledField", "field"),
    ("spectrum", "measure", "spectrum"),
    ("spectrum", "estimate_psd", "spectrum"),
    ("estimator", "build_feature_row", "estimator"),
    ("estimator", "save_rows", "estimator"),
    ("estimator", "cross_validate", "estimator"),
    ("estimator", "fit_least_squares", "estimator"),
)
FFT_TARGET = ("fiberlink", "sfft")

# Per-call timings reported as medians: metric name -> (span name, scale).
PER_CALL = {
    "fiberlink.span_ms": ("_span_inplace", 1e3),
    "waveform.generate_reference_ms": ("generate_reference", 1e3),
    "waveform.build_profile_ms": ("build_profile", 1e3),
    "waveform.apply_perturbation_ms": ("apply_perturbation", 1e3),
    "waveform.add_tx_noise_floor_ms": ("add_tx_noise_floor", 1e3),
    "spectrum.measure_ms": ("measure", 1e3),
    "spectrum.estimate_psd_ms": ("estimate_psd", 1e3),
    "field.construct_us": ("SampledField", 1e6),
    "estimator.build_feature_row_us": ("build_feature_row", 1e6),
    "estimator.save_rows_ms": ("save_rows", 1e3),
    "estimator.cross_validate_ms": ("cross_validate", 1e3),
    "estimator.fit_least_squares_ms": ("fit_least_squares", 1e3),
    "experiment.run_dataset_s": ("run_dataset", 1.0),
}
LAYERS = ("experiment", "fiberlink", "waveform", "spectrum", "field", "estimator")

# Span record fields.
NAME, LAYER, START, END, PARENT, EXTRA = range(6)


class _CountingFFT:
    """Stands in for ``scipy.fft`` inside fiberlink; counts transforms."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def _count(self, x):
        self._counts["fft_calls"] += 1
        self._counts["fft_points"] += x.size
        self._counts["fft_bytes_computed"] += 2 * x.nbytes  # read + write

    def fft(self, x, *args, **kwargs):
        self._count(x)
        return self._real.fft(x, *args, **kwargs)

    def ifft(self, x, *args, **kwargs):
        self._count(x)
        return self._real.ifft(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"fft_calls": 0, "fft_points": 0, "fft_bytes_computed": 0}
        self.untraced = []
        self._originals = []
        self._t0 = time.perf_counter_ns()
        self._wrappers = self._build()

    @staticmethod
    def _module(name):
        return sys.modules.get(f"osnrprobe.{name}")

    def _build(self):
        wrappers = []
        for mod_name, attr, layer in TARGETS:
            mod = self._module(mod_name)
            if mod is None or not hasattr(mod, attr):
                self.untraced.append(f"{mod_name}.{attr}")
                continue
            after = _file_size_of_path_arg if attr == "save_rows" else None
            wrappers.append((mod, attr, self._wrap(getattr(mod, attr), attr, layer, after)))
        mod_name, attr = FFT_TARGET
        mod = self._module(mod_name)
        if mod is None or not hasattr(mod, attr):
            self.untraced.append(f"{mod_name}.{attr}")
        else:
            wrappers.append((mod, attr, _CountingFFT(getattr(mod, attr), self.counts)))
        return wrappers

    def _wrap(self, fn, name, layer, after):
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if after is not None:
                    self.spans[idx][EXTRA] = after(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, attr, wrapper in self._wrappers:
            self._originals.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def open(self, name, layer="bench"):
        """Start a span; its parent is the innermost open span."""
        self.spans.append([name, layer, time.perf_counter_ns(), None,
                           self.stack[-1] if self.stack else None, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    def metrics(self, n_ops: int, op_ms_traced, op_ms_untraced) -> dict:
        """Per-layer figures over the traced operations (per operation where
        a figure is a count or a busy time)."""
        spans = self.spans
        by_name = {}
        child_s = [0.0] * len(spans)
        busy = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        for s in spans:
            dur = (s[END] - s[START]) / 1e9
            by_name.setdefault(s[NAME], []).append(dur)
            parent = s[PARENT]
            if parent is not None:
                child_s[parent] += dur
            if s[LAYER] in busy and (parent is None or spans[parent][LAYER] != s[LAYER]):
                busy[s[LAYER]] += dur
                entries[s[LAYER]] += 1
        ops = max(n_ops, 1)
        out = {}
        for metric, (name, scale) in PER_CALL.items():
            durs = by_name.get(name)
            out[metric] = statistics.median(durs) * scale if durs else 0.0
        points = self.counts["fft_points"]
        span_total = sum(by_name.get("_span_inplace", ()))
        out["fiberlink.ns_per_point"] = span_total * 1e9 / points if points else 0.0
        for key, value in self.counts.items():
            out[f"fiberlink.{key}"] = value / ops
        for layer in ("fiberlink", "waveform", "spectrum", "estimator"):
            out[f"{layer}.busy_s"] = busy[layer] / ops
        for layer in ("waveform", "spectrum", "field"):
            out[f"{layer}.calls"] = entries[layer] / ops
        sizes = [s[EXTRA] for s in spans if s[NAME] == "save_rows" and s[EXTRA] is not None]
        out["estimator.save_rows_bytes"] = statistics.median(sizes) if sizes else 0.0
        selfs = [(s[END] - s[START]) / 1e9 - child_s[i]
                 for i, s in enumerate(spans) if s[NAME] == "run_dataset"]
        out["experiment.self_s"] = statistics.median(selfs) if selfs else 0.0
        out["trace.overhead_ratio"] = (statistics.median(op_ms_traced)
                                       / statistics.median(op_ms_untraced)
                                       if op_ms_traced and op_ms_untraced else 0.0)
        out["trace.untraced_names"] = float(len(self.untraced))
        return out

    def span_records(self) -> list:
        return [{"name": s[NAME], "layer": s[LAYER],
                 "start_us": (s[START] - self._t0) / 1e3, "end_us": (s[END] - self._t0) / 1e3,
                 "parent": s[PARENT], **({"bytes": s[EXTRA]} if s[EXTRA] is not None else {})}
                for s in self.spans]


def _file_size_of_path_arg(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None
