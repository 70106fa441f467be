"""Per-layer tracing of bearingrul from outside the package.

`Tracer.install()` replaces public functions of the bearingrul modules with
wrappers that record spans (name, duration, time covered by child spans)
and counts; `Tracer.uninstall()` puts every original back. Nothing in the
program's source is changed, and the wrappers exist only while a traced
iteration runs.

Two kinds of wrapper:

* spans, for the functions `_spans()` lists: they nest, so a span's self
  time is its duration minus the time its direct child spans cover;
* op timers, for every public autodiff op: flat forward-time accumulators
  per op kind that do not nest into spans, so model-layer spans keep the
  numpy work of their ops in their own time. Backward time per kind is
  attributed by wrapping the vector-Jacobian closure the op attaches to its
  output tensor. Ops are found by inspecting the module, not by relying on
  its tape internals.
"""

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

from bearingrul import autodiff, dataio, features, model, plotting, training, wavelets

_now = time.perf_counter

AUTODIFF_KINDS = ("conv2d", "maxpool2d", "matmul", "softmax", "layer_norm")


def _arg(fn, name):
    """Namer helper: read argument `name` of `fn` from a call's args."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]

    return get


def _spans():
    """(module, function name, span namer) for every traced function."""
    plain = [
        (dataio, "load_pronostia_bearing"), (dataio, "save_record_csvdir"),
        (dataio, "save_dataset"), (dataio, "load_dataset"),
        (dataio, "save_checkpoint"), (dataio, "load_checkpoint"),
        (wavelets, "dwt_level"), (wavelets, "idwt_level"),
        (wavelets, "savgol_filter"), (wavelets, "wpd"), (wavelets, "kurtosis"),
        (wavelets, "wavelet_denoise"),
        (features, "kurtosis_series"), (features, "preprocess_record"),
        (features, "wpd_image"), (features, "build_dataset"),
        (model, "fuse"), (model, "forward_batch"), (model, "prepare_images"),
        (training, "loss_node"), (training, "adam_step"),
        (autodiff, "backward"),
        (plotting, "line_chart_svg"),
    ]
    out = []
    for mod, fn_name in plain:
        label = f"{mod.__name__.rsplit('.', 1)[-1]}.{fn_name}"
        out.append((mod, fn_name, lambda a, k, label=label: label))
    channel = _arg(model.conv_stem, "channel")
    out.append((model, "conv_stem",
                lambda a, k: f"model.conv_stem.{channel(a, k)}"))
    attn_prefix = _arg(model.window_attention, "prefix")
    out.append((model, "window_attention",
                lambda a, k: "model.window_attention."
                + attn_prefix(a, k).split(".")[0]))
    merge_prefix = _arg(model.patch_merging, "prefix")
    out.append((model, "patch_merging",
                lambda a, k: f"model.patch_merging.{merge_prefix(a, k)}"))
    return out


def _autodiff_ops():
    """Public functions defined in autodiff, except the backward sweep."""
    return sorted(
        name for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
        if fn.__module__ == autodiff.__name__ and not name.startswith("_")
        and name != "backward")


class Tracer:
    """Span/count recorder; one per benchmark run."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self._in_op = False
        self._last_step = None
        self.step_intervals = []
        self.problems = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a new iteration's accumulators."""
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._last_step = None

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, dt):
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.seconds[name] += dt
        self.self_seconds[name] += dt - frame[0]
        self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter()
        t0 = _now()
        try:
            yield
        finally:
            self._exit(name, frame, _now() - t0)

    # -- installation ------------------------------------------------------

    def _patch(self, mod, name, wrapper):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, name, namer in _spans():
            self._patch(mod, name, self._span_wrapper(getattr(mod, name), namer))
        for name in _autodiff_ops():
            kind = name if name in AUTODIFF_KINDS else "other"
            self._patch(autodiff, name,
                        self._op_wrapper(getattr(autodiff, name), kind))

    def uninstall(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _span_wrapper(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs)
            frame = tracer._enter()
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, _now() - t0)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _op_wrapper(self, fn, kind):
        tracer = self
        fwd, bwd = f"autodiff.{kind}.fwd", f"autodiff.{kind}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_op:
                return fn(*args, **kwargs)
            tracer._in_op = True
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._in_op = False
                tracer.seconds[fwd] += _now() - t0
            tracer.calls["autodiff.ops"] += 1
            vjp = getattr(out, "_vjp", None)
            if vjp is None and getattr(out, "requires_grad", False):
                tracer.problems.append(
                    f"autodiff.{fn.__name__} returned a graph node without a "
                    "vjp slot; backward time is not attributed")
            elif vjp is not None:
                def timed_vjp(g):
                    t1 = _now()
                    try:
                        return vjp(g)
                    finally:
                        tracer.seconds[bwd] += _now() - t1
                out._vjp = timed_vjp
            return out

        return wrapper

    def _observe(self, name, args, result):
        """Counts derived from a traced call's arguments and result."""
        if name == "dataio.load_pronostia_bearing":
            self.calls["dataio.rows"] += result.n_snapshots * result.samples_per_snapshot
        elif name == "features.preprocess_record":
            self.calls["features.snapshots_denoised"] += args[0].n_snapshots
        elif name == "features.build_dataset":
            used = set()
            for s in result:
                used.update(s.hor.source_window.indices)
            self.calls["features.snapshots_useful"] += len(used)
        elif name == "training.adam_step":
            t = _now()
            if self._last_step is not None:
                self.step_intervals.append(t - self._last_step)
            self._last_step = t

    # -- per-iteration metrics -------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the iteration recorded since reset()."""
        ms = {k: v * 1e3 for k, v in self.seconds.items()}
        self_ms = {k: v * 1e3 for k, v in self.self_seconds.items()}
        calls = self.calls
        m = {}
        for name in ("dataio.load_pronostia_bearing", "dataio.save_record_csvdir",
                     "dataio.save_dataset", "dataio.load_dataset",
                     "dataio.save_checkpoint", "dataio.load_checkpoint",
                     "wavelets.dwt_level", "wavelets.idwt_level",
                     "wavelets.savgol_filter", "wavelets.wpd", "wavelets.kurtosis",
                     "features.kurtosis_series", "features.preprocess_record",
                     "features.wpd_image",
                     "model.conv_stem.hor", "model.conv_stem.ver", "model.fuse",
                     *(f"model.window_attention.stage{i}" for i in range(4)),
                     *(f"model.patch_merging.merge{i}" for i in range(3)),
                     "model.prepare_images",
                     "autodiff.backward", "training.loss_node",
                     "training.adam_step", "plotting.line_chart_svg"):
            m[f"{name}.ms"] = ms.get(name, 0.0)
        for name in ("dwt_level", "idwt_level", "savgol_filter", "wpd",
                     "kurtosis", "wavelet_denoise"):
            m[f"wavelets.{name}.calls"] = calls.get(f"wavelets.{name}", 0)
        m["dataio.rows"] = calls.get("dataio.rows", 0)
        snaps = calls.get("features.snapshots_denoised", 0)
        m["features.denoise_us_per_snapshot"] = (  # both channels of a snapshot
            ms.get("features.preprocess_record", 0.0) * 1e3 / snaps
            if snaps else 0.0)
        wpd_s = self.seconds.get("features.wpd_image", 0.0)
        m["features.wpd_images_per_s"] = (
            calls.get("features.wpd_image", 0) / wpd_s if wpd_s else 0.0)
        m["features.build_dataset.self_ms"] = self_ms.get("features.build_dataset", 0.0)
        m["features.denoise_useful_fraction"] = (
            calls.get("features.snapshots_useful", 0) / snaps if snaps else 0.0)
        m["model.forward_batch.self_ms"] = self_ms.get("model.forward_batch", 0.0)
        for kind in AUTODIFF_KINDS + ("other",):
            m[f"autodiff.{kind}.fwd_ms"] = ms.get(f"autodiff.{kind}.fwd", 0.0)
            m[f"autodiff.{kind}.bwd_ms"] = ms.get(f"autodiff.{kind}.bwd", 0.0)
        forwards = calls.get("model.forward_batch", 0)
        m["autodiff.ops_per_step"] = (
            calls.get("autodiff.ops", 0) / forwards if forwards else 0.0)
        m["training.steps"] = calls.get("training.adam_step", 0)
        for command in ("ingest", "featurize", "train", "eval"):
            m[f"cli.{command}.self_ms"] = self_ms.get(f"cli.{command}", 0.0)
        return m

    def step_percentiles(self) -> dict:
        """p50/p90 in ms over all intervals between successive Adam steps."""
        if not self.step_intervals:
            return {"training.step_ms_p50": 0.0, "training.step_ms_p90": 0.0}
        p50, p90 = np.percentile(np.array(self.step_intervals) * 1e3, [50, 90])
        return {"training.step_ms_p50": float(p50), "training.step_ms_p90": float(p90)}

