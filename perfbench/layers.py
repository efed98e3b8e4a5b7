"""Per-layer metrics, computed from the spans of a traced run.

Unless a metric says otherwise it covers the traced passes only, so the
traced set-up (corpus generation, and the tiny runs of ``infer``) does not
leak into the timed part; the ``scenegen`` metrics cover the set-up too.
``*.ms`` metrics are the median time of one call. ``*_per_step`` metrics
are totals over the training steps of the traced passes divided by their
number, and ``*_per_pass`` totals divided by the number of traced passes.
A layer that did no work on a workload reads 0.
"""

from collections import defaultdict

import numpy as np

# conv2d input and output shapes at the default model sizes, as
# <cin>x<h>x<w>-<cout>; ref1 and ref2 share one shape
CONV_SHAPES = (
    "3x24x48-12",   # teacher stem
    "12x12x24-16",  # teacher down1
    "16x6x12-24",   # teacher down2
    "24x3x6-16",    # teacher down3
    "40x6x12-24",   # teacher up1
    "40x12x24-16",  # teacher up2
    "28x24x48-16",  # teacher up3
    "3x64x96-12",   # student stem, stride 2
    "12x32x48-16",  # student second camera conv
    "16x24x48-16",  # student refine convs
    "18x12x24-96",  # decoder mix
    "96x12x24-96",  # decoder points
)
BWD_OPS = ("relu", "maxpool2", "upsample2x", "concat", "soft_points",
           "channel_normalize")
ENCODER_CALLS = ("student_forward", "teacher_forward", "decoder_forward",
                 "decode_map", "build_lift_table", "save_checkpoint",
                 "load_checkpoint")
SUPERVISION_CALLS = ("match_queries", "detection_loss", "bev_alignment_loss",
                     "clipped_targets")
SCENEGEN_CALLS = ("generate_scene", "render_overhead", "render_cameras",
                  "cell_visibility")
ANALYSIS_CALLS = ("linear_cka", "r_squared", "feature_matrix")


def _metric_table():
    """(metric, unit, wrapper labels it needs), in output order."""
    t = []
    for shape in CONV_SHAPES:
        t.append((f"tensors.conv2d.{shape}.fwd_ms", "ms", ("tensors.conv2d",)))
        t.append((f"tensors.conv2d.{shape}.bwd_ms", "ms", ("tensors.custom_op",)))
    t += [("tensors.conv2d.calls_per_step", "count", ("tensors.conv2d",)),
          ("tensors.conv2d.calls_per_pass", "count", ("tensors.conv2d",)),
          ("tensors.tape_nodes_per_step", "count", ("tensors.custom_op",)),
          ("tensors.backward.ms_per_step", "ms", ("tensors.backward",)),
          ("tensors.backward.ms_per_pass", "ms", ("tensors.backward",)),
          ("tensors.adamw.ms_per_step", "ms", ("tensors.adamw",))]
    t += [(f"tensors.{op}.bwd_ms", "ms", ("tensors.custom_op",)) for op in BWD_OPS]
    t += [("encoders.lift.fwd_ms", "ms", ("encoders.lift",)),
          ("encoders.lift.bwd_ms", "ms", ("encoders.custom_op",))]
    t += [(f"encoders.{f}.ms", "ms", (f"encoders.{f}",)) for f in ENCODER_CALLS]
    t += [(f"supervision.{f}.ms", "ms", (f"supervision.{f}",)) for f in SUPERVISION_CALLS]
    t += [("mapeval.evaluate.ms", "ms", ("mapeval.evaluate",)),
          ("mapeval.clip_to_roi.ms", "ms", ("mapeval.clip_to_roi",)),
          ("mapeval.match_instances.ms", "ms", ("mapeval.match_instances",)),
          ("geometry.chamfer_distance.ms", "ms", ("geometry.chamfer_distance",)),
          ("geometry.chamfer_distance.calls_per_eval", "count",
           ("geometry.chamfer_distance", "mapeval.evaluate")),
          ("geometry.resample_polyline.calls_per_eval", "count",
           ("geometry.resample_polyline", "mapeval.evaluate")),
          ("mapeval.pairs_per_scene", "count",
           ("geometry.chamfer_distance", "mapeval.evaluate"))]
    t += [(f"scenegen.{f}.ms", "ms", (f"scenegen.{f}",)) for f in SCENEGEN_CALLS]
    t += [("scenegen.load_dataset.ms_per_scene", "ms", ("scenegen.load_dataset",))]
    t += [(f"analysis.{f}.ms", "ms", (f"analysis.{f}",)) for f in ANALYSIS_CALLS]
    t += [("harness.train_run.self_ms", "ms", ("harness.train_run",)),
          ("harness.ensure_teacher.hit_ms", "ms",
           ("harness.ensure_teacher", "encoders.pretrain_teacher")),
          ("harness.ensure_teacher.miss_ms", "ms",
           ("harness.ensure_teacher", "encoders.pretrain_teacher")),
          ("harness.run_cache.hits_per_attempt", "ratio",
           ("harness.train_run", "supervision.train_student")),
          ("trace.overhead_ms", "ms", ()),
          ("trace.overhead_pct", "%", ())]
    return t


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _ in METRICS}


def _median_ms(durations):
    return 1e3 * float(np.median(durations)) if len(durations) else 0.0


class SpanIndex:
    """Durations, self times and lookups over a tracer's spans."""

    def __init__(self, tracer):
        self.tr = tracer
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        self.self_time = self.dur.copy()
        self.by_name = defaultdict(list)  # name -> span indices in the passes
        self.any_phase = defaultdict(list)  # name -> span indices anywhere
        for i, (name, parent) in enumerate(zip(tracer.name, tracer.parent)):
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]
            self.any_phase[name].append(i)
            if tracer.phase_of[i] == "pass":
                self.by_name[name].append(i)

    def spans(self, name, key=None):
        idx = self.by_name.get(name, [])
        return idx if key is None else [i for i in idx if self.tr.key[i] == key]

    def median_ms(self, name, key=None):
        return _median_ms(self.dur[self.spans(name, key)])

    def total_ms(self, name):
        return 1e3 * float(self.dur[self.spans(name)].sum())

    def under(self, name, ancestor):
        """Indices of ``ancestor`` spans (in the passes) that contain a
        ``name`` span somewhere below them."""
        found = set()
        for i in self.spans(name):
            p = self.tr.parent[i]
            while p >= 0:
                if self.tr.name[p] == ancestor:
                    found.add(p)
                p = self.tr.parent[p]
        return found


def per_layer(tracer, passes, overhead_ms, overhead_pct):
    """{metric: value} for every metric whose wrapped names all exist."""
    ix = SpanIndex(tracer)
    tr = tracer
    steps = tr.steps[("pass", "teacher")] + tr.steps[("pass", "student")]

    def per_step(v):
        return v / steps if steps else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for shape in CONV_SHAPES:
        m[f"tensors.conv2d.{shape}.fwd_ms"] = ix.median_ms("tensors.conv2d", shape)
        m[f"tensors.conv2d.{shape}.bwd_ms"] = ix.median_ms("tensors.conv2d.bwd", shape)
    convs = ix.spans("tensors.conv2d")
    m["tensors.conv2d.calls_per_step"] = per_step(
        sum(1 for i in convs if isinstance(tr.group[i], int)))
    m["tensors.conv2d.calls_per_pass"] = len(convs) / passes
    m["tensors.tape_nodes_per_step"] = per_step(tr.counts[("pass", True, "tensors.tape_nodes")])
    m["tensors.backward.ms_per_step"] = per_step(ix.total_ms("tensors.backward"))
    m["tensors.backward.ms_per_pass"] = ix.total_ms("tensors.backward") / passes
    m["tensors.adamw.ms_per_step"] = per_step(ix.total_ms("tensors.adamw"))
    for op in BWD_OPS:
        m[f"tensors.{op}.bwd_ms"] = per_step(ix.total_ms(f"tensors.{op}.bwd"))
    m["encoders.lift.fwd_ms"] = ix.median_ms("encoders.lift")
    m["encoders.lift.bwd_ms"] = ix.median_ms("encoders.lift.bwd")
    for f in ENCODER_CALLS:
        m[f"encoders.{f}.ms"] = ix.median_ms(f"encoders.{f}")
    for f in SUPERVISION_CALLS:
        m[f"supervision.{f}.ms"] = ix.median_ms(f"supervision.{f}")
    for f in ("evaluate", "clip_to_roi", "match_instances"):
        m[f"mapeval.{f}.ms"] = ix.median_ms(f"mapeval.{f}")
    m["geometry.chamfer_distance.ms"] = ix.median_ms("geometry.chamfer_distance")
    evals = ix.spans("mapeval.evaluate")
    scenes = sum(tr.key[i] for i in evals)
    chamfers = len(ix.spans("geometry.chamfer_distance"))
    m["geometry.chamfer_distance.calls_per_eval"] = ratio(chamfers, len(evals))
    m["geometry.resample_polyline.calls_per_eval"] = ratio(
        len(ix.spans("geometry.resample_polyline")), len(evals))
    m["mapeval.pairs_per_scene"] = ratio(chamfers, scenes)
    for f in SCENEGEN_CALLS:
        m[f"scenegen.{f}.ms"] = _median_ms(ix.dur[ix.any_phase[f"scenegen.{f}"]])
    loads = ix.any_phase["scenegen.load_dataset"]
    m["scenegen.load_dataset.ms_per_scene"] = ratio(1e3 * float(ix.dur[loads].sum()),
                                                    len(loads))
    for f in ANALYSIS_CALLS:
        m[f"analysis.{f}.ms"] = ix.median_ms(f"analysis.{f}")
    m["harness.train_run.self_ms"] = _median_ms(ix.self_time[ix.spans("harness.train_run")])
    misses = ix.under("encoders.pretrain_teacher", "harness.ensure_teacher")
    teacher_calls = ix.spans("harness.ensure_teacher")
    m["harness.ensure_teacher.hit_ms"] = _median_ms(
        ix.dur[[i for i in teacher_calls if i not in misses]])
    m["harness.ensure_teacher.miss_ms"] = _median_ms(ix.dur[sorted(misses)])
    attempts = ix.spans("harness.train_run")
    trained = ix.under("supervision.train_student", "harness.train_run")
    m["harness.run_cache.hits_per_attempt"] = ratio(len(attempts) - len(trained),
                                                    len(attempts))
    m["trace.overhead_ms"] = overhead_ms
    m["trace.overhead_pct"] = overhead_pct
    missing = set(tracer.missing)
    return {name: m[name] for name, _, needs in METRICS if not missing.intersection(needs)}
