"""Span tracer for the traced benchmark run.

The tracer wraps the names that stpz modules import from each other (for
example ``decomp.nkp`` or ``cli.deserialize``), so each call into a layer
becomes a span, with no edit to the program.  Spans are kept in memory and
written when the run ends.  A span opened on a thread with no open span of
its own (a worker of the per-slice pool) takes as parent the innermost span
of the thread running the operation, which is blocked waiting for it; so
per-slice spans are attributed to their operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

# The package re-exports functions named like their modules (stpz.nkp is
# the function), so the modules are looked up by their full names.
cli, decomp, nkp, products, svd = (
    importlib.import_module(f"stpz.{name}") for name in ("cli", "decomp", "nkp", "products", "svd")
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    cycle: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[Span] | None = None
        self._cycle = -1

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        with self._lock:
            span = Span(
                len(self.spans), parent.id if parent else None, name,
                threading.get_ident(), self._cycle, time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def operation(self, name: str, cycle: int):
        """Root span of one operation of workload cycle ``cycle``."""
        self._cycle = cycle
        span = self.open(name)
        self._op_stack = self._stack()
        try:
            yield span
        finally:
            self.close(span)
            self._op_stack = None

    def wrap(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def installed(self, patches):
        """Replace each (module, attribute) by its traced wrapper."""
        saved = []
        try:
            for module, attr, name, measure in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _array_bytes(args, kwargs, out):
    return {"bytes": np.asarray(args[0]).nbytes + out.nbytes}


def _svd_work(args, kwargs, out):
    m, n = np.shape(args[0])
    return {"elements": m * n, "triplets": min(m, n), "kept": out.sigma.size}


def _blob_out(args, kwargs, out):
    return {"bytes": len(out)}


def _blob_in(args, kwargs, out):
    return {"bytes": len(args[0])}


# (module, attribute, span name, measure).  Each attribute is the name
# through which the caller reaches the layer, so every call path is covered:
# svd.svd is patched inside svd too because svds calls it there.
PATCHES = [
    (cli, "cmd_compress", "cli.compress", None),
    (cli, "cmd_decompress", "cli.decompress", None),
    (cli, "cmd_metrics", "cli.metrics", None),
    (cli, "cmd_bench", "cli.bench", None),
    (cli, "serialize", "codec.serialize", _blob_out),
    (cli, "deserialize", "codec.deserialize", _blob_in),
    (cli, "tensor_stp_svd_trunc", "decomp.tensor_stp_svd_trunc", None),
    (cli, "t_svd_trunc", "decomp.t_svd_trunc", None),
    (cli, "reconstruct", "decomp.reconstruct", None),
    (cli, "load_ppm", "imaging.load_ppm", None),
    (cli, "save_ppm", "imaging.save_ppm", None),
    (cli, "image_to_tensor", "imaging.image_to_tensor", None),
    (cli, "tensor_to_image", "imaging.tensor_to_image", None),
    (cli, "psnr", "imaging.psnr", None),
    (cli, "ssim", "imaging.ssim", None),
    (cli, "relative_error", "imaging.relative_error", None),
    (decomp, "mat_stp_svd_trunc", "decomp.mat_stp_svd_trunc", None),
    (decomp, "nkp", "nkp.nkp", None),
    (decomp, "svd", "svd.svd", _svd_work),
    (decomp, "svds", "svd.svds", _svd_work),
    (decomp, "dft3", "tensor.dft3", _array_bytes),
    (decomp, "idft3", "tensor.idft3", _array_bytes),
    (decomp, "t_product", "products.t_product", None),
    (nkp, "rearrange", "nkp.rearrange", _array_bytes),
    (nkp, "svd", "svd.svd", _svd_work),
    (svd, "svd", "svd.svd", _svd_work),
    (products, "dft3", "tensor.dft3", _array_bytes),
    (products, "idft3", "tensor.idft3", _array_bytes),
]

# Per-layer metrics of the traced run, in the order BENCHMARK.json lists
# them.  Times, calls, bytes and elements are per workload cycle.
SELF_TIMES = [
    "tensor.dft3", "tensor.idft3", "nkp.rearrange", "nkp.nkp", "svd.svd", "svd.svds",
    "decomp.tensor_stp_svd_trunc", "decomp.mat_stp_svd_trunc", "decomp.reconstruct",
    "decomp.t_svd_trunc", "products.t_product", "codec.serialize", "codec.deserialize",
    "imaging.load_ppm", "imaging.save_ppm", "imaging.image_to_tensor",
    "imaging.tensor_to_image", "imaging.psnr", "imaging.ssim", "imaging.relative_error",
    "cli.compress", "cli.decompress", "cli.metrics", "cli.bench", "cli.main",
]
COUNTS = [
    ("tensor.dft3.bytes", "B"), ("tensor.idft3.bytes", "B"), ("nkp.rearrange.bytes", "B"),
    ("nkp.nkp.calls", "count"), ("svd.svd.calls", "count"), ("svd.svd.elements", "count"),
    ("svd.svds.calls", "count"), ("products.t_product.calls", "count"),
    ("codec.serialize.bytes", "B"), ("codec.deserialize.bytes", "B"),
]
RATIOS = [
    ("nkp.triplets_used_ratio", "1"), ("svd.svds.kept_ratio", "1"),
    ("decomp.slices_decomposed", "count"), ("decomp.slice_wait_s", "s"),
    ("decomp.slice_parallelism", "1"),
]
OTHER = [("synthetic.structured_test_image.s", "s"), ("trace.overhead_ratio", "1")]
LAYER_METRICS = (
    [(f"{name}.self_s", "s") for name in SELF_TIMES] + COUNTS + RATIOS + OTHER
)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.end - s.start - covered
    return out


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float | None]:
    """Per-layer figures from the spans of ``cycles`` traced cycles.

    A ratio whose base is empty (the layer did not run) is None.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            attrs[f"{s.name}.{key}"] = attrs.get(f"{s.name}.{key}", 0) + value
    out: dict[str, float | None] = {
        f"{name}.self_s": self_s.get(name, 0.0) / cycles for name in SELF_TIMES
    }
    for metric, _ in COUNTS:
        name, what = metric.rsplit(".", 1)
        total = calls.get(name, 0) if what == "calls" else attrs.get(metric, 0)
        out[metric] = total / cycles

    # NKP uses the leading triplet only, of all its inner SVD computed.
    nkp_triplets = sum(
        s.attrs["triplets"] for s in spans
        if s.name == "svd.svd" and s.parent is not None and by_id[s.parent].name == "nkp.nkp"
    )
    out["nkp.triplets_used_ratio"] = _ratio(calls.get("nkp.nkp", 0), nkp_triplets)
    out["svd.svds.kept_ratio"] = _ratio(
        attrs.get("svd.svds.kept", 0), attrs.get("svd.svds.triplets", 0)
    )
    slices = [
        (s, by_id[s.parent]) for s in spans
        if s.name == "decomp.mat_stp_svd_trunc" and s.parent is not None
        and by_id[s.parent].name == "decomp.tensor_stp_svd_trunc"
    ]
    calls_tensor = calls.get("decomp.tensor_stp_svd_trunc", 0)
    wall_tensor = sum(s.end - s.start for s in spans if s.name == "decomp.tensor_stp_svd_trunc")
    out["decomp.slices_decomposed"] = _ratio(len(slices), calls_tensor)
    out["decomp.slice_wait_s"] = _ratio(sum(s.start - p.start for s, p in slices), len(slices))
    out["decomp.slice_parallelism"] = _ratio(sum(s.end - s.start for s, _ in slices), wall_tensor)
    return out
