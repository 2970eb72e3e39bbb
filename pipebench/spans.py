"""Timing shims around patchmask's public functions, and the per-layer
metrics derived from the spans they record.

A shim only times and counts: it passes its arguments through untouched
and returns the wrapped function's result as is. Observers read a call's
arguments and result after its span has closed, so their cost lands in
the traced run's overhead, never in a span. Layer names are patchmask
module names.
"""

import json
import os
import sys
import time

import numpy as np

PACKAGE = "patchmask"
ROOT = "cli.main"
OBSERVE_S = "observe_s"  # time an observer took, charged to no span


def _bytes_of(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _flat_rows(args, kwargs, result):
    patches = result.patches
    return {"flat": int((~patches.any(axis=1)).sum()), "rows": patches.shape[0]}


def _cosine_flop(args, kwargs, result):
    grid = args[0]
    dim = (grid.patches if hasattr(grid, "patches") else grid.features).shape[1]
    return {"flop": 2 * result.shape[0] ** 2 * dim}


def _mask_facts(args, kwargs, result):
    return {"masked": float(result.masked.mean()), "anchors": int(result.anchors.size)}


def _nearest_flop(args, kwargs, result):
    points, centroids = args[0], args[1]
    return {"flop": 3 * points.shape[0] * centroids.shape[0] * points.shape[1]}


def _sums_flop(args, kwargs, result):
    return {"flop": args[0].size}


def _shape_facts(args, kwargs, result):
    visible = [int((~m.masked).sum()) for m in args[0]]
    real = int(result.attention.sum())
    return {
        "visible": sum(visible),
        "dropped": sum(visible) - real,
        "slots": int(result.attention.size),
        "pads": int(result.attention.size) - real,
    }


def _calibration_facts(args, kwargs, result):
    sample = args[0]
    return {
        "sample_bytes": sum(s.size * s.itemsize for s in sample),
        "fresh_gap": abs(result.achieved_ratio - result.trace[-1][1]),
    }


# (module, public function, observer); the span is named "module.function"
TARGETS = [
    ("pnm", "load_image", _bytes_of),
    ("patch_grid", "patchify", None),
    ("patch_grid", "pixel_normalize", _flat_rows),
    ("similarity", "cosine_matrix", _cosine_flop),
    ("similarity", "toy_patch_embedding", None),
    ("similarity", "blend", None),
    ("cluster_masker", "mask_image", _mask_facts),
    ("cluster_masker", "kmeans_cluster", None),
    ("_kernels", "nearest_centroids", _nearest_flop),
    ("_kernels", "centroid_sums", _sums_flop),
    ("_kernels", "masked_by_anchors", None),
    ("batch_shaping", "shape_batch", _shape_facts),
    ("calibration", "calibrate_threshold", _calibration_facts),
    ("calibration", "mean_mask_ratio", None),
    ("toy_contrastive", "train_step", None),
    ("toy_contrastive", "prepare_step_inputs", None),
    ("toy_contrastive", "pool_visible_patches", None),
    ("toy_contrastive", "loss_and_grads", None),
    ("synthetic", "color_block_dataset", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the shims.

    A span is [name, start, end, parent, item, facts]: parent is the index
    of the enclosing span (None for the root), item the image or step
    number. A span directly under the root takes the count of earlier
    same-name spans under that root as its item; nested spans inherit it.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._ordinals = {}
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            item = None
            self._ordinals = {}
        elif parent == self._stack[0]:
            item = self._ordinals.get(name, 0)
            self._ordinals[name] = item + 1
        else:
            item = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, item, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_root(self, fn, *args):
        """Call fn(*args) inside a root span and return its result."""
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name, fn, observe):
        def shim(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                began = time.perf_counter()
                facts = observe(args, kwargs, result)
                facts[OBSERVE_S] = time.perf_counter() - began
                self.spans[index][5] = facts
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self):
        """Replace every binding of each target in the package's modules."""
        prefix = PACKAGE + "."
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(prefix))
        ]
        self.missing = []
        for module_name, func_name, observe in TARGETS:
            module = sys.modules.get(prefix + module_name)
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            shim = self._wrap(f"{module_name}.{func_name}", original, observe)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, shim)
                    self._patches.append((mod, attr, original))

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)


FIELDS = ["name", "start", "end", "parent", "item", "facts"]


def write_spans(path, spans):
    """One JSON array per span, after a header line naming the fields."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(FIELDS) + "\n")
        fh.writelines(json.dumps(span) + "\n" for span in spans)


def read_spans(path, spans):
    """Append the spans in ``path`` to ``spans``, re-basing parent indices."""
    base = len(spans)
    with open(path, encoding="ascii") as fh:
        next(fh)  # field names
        for line in fh:
            span = json.loads(line)
            if span[3] is not None:
                span[3] += base
            spans.append(span)


def _layer(name):
    return name.split(".", 1)[0]


class SpanIndex:
    """Lookups over a list of spans for computing layer metrics."""

    def __init__(self, spans, items):
        self.spans = spans
        self.items = items  # images (image-steps for train) the traced calls covered
        self.children = [[] for _ in spans]
        self.by_name = {}
        for index, span in enumerate(spans):
            if span[3] is not None:
                self.children[span[3]].append(index)
            self.by_name.setdefault(span[0], []).append(index)

    def calls(self, name):
        return self.by_name.get(name, [])

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def cost(self, i):
        """Time span i takes from its parent, its observer included."""
        return self.dur(i) + (self.spans[i][5] or {}).get(OBSERVE_S, 0.0)

    def ms(self, name, q):
        """The q-th percentile of a span's durations, in ms; 0 when idle."""
        durations = [self.dur(i) for i in self.calls(name)]
        return float(np.percentile(durations, q)) * 1e3 if durations else 0.0

    def facts(self, name, key):
        return [self.spans[i][5][key] for i in self.calls(name)]

    def per_image(self, name):
        return len(self.calls(name)) / self.items

    def mean(self, name, key):
        values = self.facts(name, key)
        return float(np.mean(values)) if values else 0.0

    def share(self, name, part, whole):
        """sum(part) / sum(whole) over a span's facts; 0 when idle."""
        total = sum(self.facts(name, whole))
        return sum(self.facts(name, part)) / total if total else 0.0

    def children_per_call(self, parent, child):
        """Calls of span ``child`` directly under each ``parent`` call, on average."""
        parents = self.calls(parent)
        count = sum(self.spans[c][0] == child for p in parents for c in self.children[p])
        return count / len(parents) if parents else 0.0

    def self_ms(self, name):
        """Median over ``name``'s calls of the time not covered by child spans."""
        selves = [self.dur(i) - sum(self.cost(c) for c in self.children[i])
                  for i in self.calls(name)]
        return float(np.median(selves)) * 1e3 if selves else 0.0

    def in_layer_ms(self, name):
        """Median over ``name``'s calls of the time spent in its own layer:
        its duration minus the descendants that belong to other layers."""

        def in_layer(i):
            layer = _layer(self.spans[i][0])
            covered = 0.0
            for c in self.children[i]:
                inner = in_layer(c) if _layer(self.spans[c][0]) == layer else 0.0
                covered += self.cost(c) - inner
            return self.dur(i) - covered

        values = [in_layer(i) for i in self.calls(name)]
        return float(np.median(values)) * 1e3 if values else 0.0


def _kmeans_iters(s):
    calls = s.children_per_call("cluster_masker.kmeans_cluster", "_kernels.nearest_centroids")
    return calls - 1.0 if s.calls("cluster_masker.kmeans_cluster") else 0.0


def _gflop(s, *names):
    return sum(sum(s.facts(n, "flop")) for n in names) / s.items / 1e9


LOAD = "pnm.load_image"
PATCHIFY = "patch_grid.patchify"
NORMALIZE = "patch_grid.pixel_normalize"
COSINE = "similarity.cosine_matrix"
EMBED = "similarity.toy_patch_embedding"
MASK = "cluster_masker.mask_image"
KMEANS = "cluster_masker.kmeans_cluster"
NEAREST = "_kernels.nearest_centroids"
SUMS = "_kernels.centroid_sums"
ANCHORS = "_kernels.masked_by_anchors"
SHAPE = "batch_shaping.shape_batch"
CALIBRATE = "calibration.calibrate_threshold"
EVAL = "calibration.mean_mask_ratio"
PREPARE = "toy_contrastive.prepare_step_inputs"

# (metric, unit, spans it needs, value from a SpanIndex). A metric whose
# span no longer exists in the program is left out, never reported as 0.
# Metric names must start with a letter, so the _kernels layer reports
# under "kernels.".
LAYER_METRICS = [
    ("cli.self_ms", "ms", [], lambda s: s.self_ms(ROOT)),
    ("pnm.load_ms_p50", "ms", [LOAD], lambda s: s.ms(LOAD, 50)),
    ("pnm.load_ms_p90", "ms", [LOAD], lambda s: s.ms(LOAD, 90)),
    ("pnm.bytes_read", "B/invocation", [LOAD],
     lambda s: sum(s.facts(LOAD, "bytes")) / max(len(s.calls(ROOT)), 1)),
    ("patch_grid.patchify_ms_p50", "ms", [PATCHIFY], lambda s: s.ms(PATCHIFY, 50)),
    ("patch_grid.patchify_calls", "count/image", [PATCHIFY], lambda s: s.per_image(PATCHIFY)),
    ("patch_grid.normalize_ms_p50", "ms", [NORMALIZE], lambda s: s.ms(NORMALIZE, 50)),
    ("patch_grid.normalize_ms_p90", "ms", [NORMALIZE], lambda s: s.ms(NORMALIZE, 90)),
    ("patch_grid.flat_patch_frac", "frac", [NORMALIZE],
     lambda s: s.share(NORMALIZE, "flat", "rows")),
    ("similarity.cosine_ms_p50", "ms", [COSINE], lambda s: s.ms(COSINE, 50)),
    ("similarity.cosine_ms_p90", "ms", [COSINE], lambda s: s.ms(COSINE, 90)),
    ("similarity.cosine_calls", "count/image", [COSINE], lambda s: s.per_image(COSINE)),
    ("similarity.cosine_gflop", "GFLOP/image", [COSINE], lambda s: _gflop(s, COSINE)),
    ("similarity.embed_ms_p50", "ms", [EMBED], lambda s: s.ms(EMBED, 50)),
    ("similarity.embed_calls", "count/image", [EMBED], lambda s: s.per_image(EMBED)),
    ("similarity.blend_ms_p50", "ms", ["similarity.blend"],
     lambda s: s.ms("similarity.blend", 50)),
    ("cluster_masker.mask_image_ms_p50", "ms", [MASK], lambda s: s.ms(MASK, 50)),
    ("cluster_masker.mask_image_ms_p90", "ms", [MASK], lambda s: s.ms(MASK, 90)),
    ("cluster_masker.self_ms_p50", "ms", [MASK], lambda s: s.in_layer_ms(MASK)),
    ("cluster_masker.anchors_per_image", "count/image", [MASK],
     lambda s: s.mean(MASK, "anchors")),
    ("cluster_masker.mask_ratio_mean", "frac", [MASK], lambda s: s.mean(MASK, "masked")),
    ("cluster_masker.kmeans_ms_p50", "ms", [KMEANS], lambda s: s.ms(KMEANS, 50)),
    ("cluster_masker.kmeans_ms_p90", "ms", [KMEANS], lambda s: s.ms(KMEANS, 90)),
    ("cluster_masker.kmeans_iters_mean", "count", [KMEANS, NEAREST], _kmeans_iters),
    ("kernels.nearest_centroids_ms_p50", "ms", [NEAREST], lambda s: s.ms(NEAREST, 50)),
    ("kernels.nearest_centroids_calls", "count/image", [NEAREST],
     lambda s: s.per_image(NEAREST)),
    ("kernels.centroid_sums_ms_p50", "ms", [SUMS], lambda s: s.ms(SUMS, 50)),
    ("kernels.centroid_sums_calls", "count/image", [SUMS], lambda s: s.per_image(SUMS)),
    ("kernels.masked_by_anchors_ms_p50", "ms", [ANCHORS], lambda s: s.ms(ANCHORS, 50)),
    ("kernels.masked_by_anchors_calls", "count/image", [ANCHORS],
     lambda s: s.per_image(ANCHORS)),
    ("kernels.kmeans_gflop", "GFLOP/image", [NEAREST, SUMS],
     lambda s: _gflop(s, NEAREST, SUMS)),
    ("batch_shaping.shape_ms_p50", "ms", [SHAPE], lambda s: s.ms(SHAPE, 50)),
    ("batch_shaping.pad_slot_frac", "frac", [SHAPE], lambda s: s.share(SHAPE, "pads", "slots")),
    ("batch_shaping.drop_frac", "frac", [SHAPE], lambda s: s.share(SHAPE, "dropped", "visible")),
    ("calibration.bisect_ms", "ms", [CALIBRATE], lambda s: s.ms(CALIBRATE, 50)),
    ("calibration.evals", "count", [CALIBRATE, EVAL],
     lambda s: s.children_per_call(CALIBRATE, EVAL)),
    ("calibration.eval_ms_p50", "ms", [EVAL], lambda s: s.ms(EVAL, 50)),
    ("calibration.sample_mb", "MB", [CALIBRATE],
     lambda s: s.mean(CALIBRATE, "sample_bytes") / 1e6),
    ("calibration.fresh_gap", "frac", [CALIBRATE], lambda s: s.mean(CALIBRATE, "fresh_gap")),
    ("toy_contrastive.prepare_ms_p50", "ms", [PREPARE], lambda s: s.ms(PREPARE, 50)),
    ("toy_contrastive.prepare_ms_p90", "ms", [PREPARE], lambda s: s.ms(PREPARE, 90)),
    ("toy_contrastive.pool_ms_p50", "ms", ["toy_contrastive.pool_visible_patches"],
     lambda s: s.ms("toy_contrastive.pool_visible_patches", 50)),
    ("toy_contrastive.loss_grad_ms_p50", "ms", ["toy_contrastive.loss_and_grads"],
     lambda s: s.ms("toy_contrastive.loss_and_grads", 50)),
    ("toy_contrastive.step_ms_p50", "ms", ["toy_contrastive.train_step"],
     lambda s: s.ms("toy_contrastive.train_step", 50)),
    ("synthetic.dataset_ms", "ms", ["synthetic.color_block_dataset"],
     lambda s: s.ms("synthetic.color_block_dataset", 50)),
]
P90_MIN_CALLS = 100


def layer_metrics(spans, missing, items):
    """Per-layer metrics from recorded spans.

    ``items`` is the number of input images (image-steps for training)
    the traced invocations processed; per-image counts divide by it.
    Returns (metrics, notes): metrics maps name -> (value, unit); notes
    lists the metrics left out and why. A span with no calls gives zero
    time and zero counts: the layer was idle on this workload.
    """
    index = SpanIndex(spans, items)
    metrics, notes = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        absent = [n for n in needs if n in missing]
        calls = len(index.calls(needs[0])) if needs else 0
        if absent:
            notes.append(f"{name}: missing ({', '.join(absent)} not found in the program)")
        elif name.endswith("_p90") and 0 < calls < P90_MIN_CALLS:
            notes.append(f"{name}: left out, {calls} calls < {P90_MIN_CALLS}")
        else:
            metrics[name] = (value(index), unit)
    return metrics, notes
