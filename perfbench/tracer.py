"""Step marks and an in-memory span tracer, both installed from outside.

Nothing under ``src/`` knows about either. Both replace public functions
of the ``bevlab`` modules with timing wrappers, under every name that
refers to them (``from .tensors import conv2d`` binds a second name that
must be wrapped too), and put the originals back afterwards.

``StepMarks`` is the light instrument of the untraced run: one clock read
per draw from ``batch_stream``, which is where a training step begins.
``Tracer`` serves only the separate traced run: it records a span (name,
key, start, end, parent, group, phase) at each public entry point and
counts tape nodes at ``custom_op``.
"""

import contextlib
import functools
import importlib
import time
from collections import Counter

import numpy as np

MODULES = ("tensors", "geometry", "mapeval", "scenegen", "encoders",
           "supervision", "analysis", "config", "plots", "harness")

# Public entry points the tracer wraps: (module, attribute, span name).
# A dotted attribute names a method of a class in that module.
SPANS = (
    ("tensors", "conv2d", "tensors.conv2d"),
    ("tensors", "backward", "tensors.backward"),
    ("encoders", "lift_features", "encoders.lift"),
    ("encoders", "student_forward", "encoders.student_forward"),
    ("encoders", "teacher_forward", "encoders.teacher_forward"),
    ("encoders", "MapDecoder.forward", "encoders.decoder_forward"),
    ("encoders", "decode_map", "encoders.decode_map"),
    ("encoders", "build_lift_table", "encoders.build_lift_table"),
    ("encoders", "save_checkpoint", "encoders.save_checkpoint"),
    ("encoders", "load_checkpoint", "encoders.load_checkpoint"),
    ("encoders", "pretrain_teacher", "encoders.pretrain_teacher"),
    ("supervision", "match_queries", "supervision.match_queries"),
    ("supervision", "detection_loss", "supervision.detection_loss"),
    ("supervision", "bev_alignment_loss", "supervision.bev_alignment_loss"),
    ("supervision", "clipped_targets", "supervision.clipped_targets"),
    ("supervision", "train_student", "supervision.train_student"),
    ("mapeval", "evaluate", "mapeval.evaluate"),
    ("mapeval", "clip_to_roi", "mapeval.clip_to_roi"),
    ("mapeval", "match_instances", "mapeval.match_instances"),
    ("geometry", "chamfer_distance", "geometry.chamfer_distance"),
    ("geometry", "resample_polyline", "geometry.resample_polyline"),
    ("scenegen", "generate_scene", "scenegen.generate_scene"),
    ("scenegen", "render_overhead", "scenegen.render_overhead"),
    ("scenegen", "render_cameras", "scenegen.render_cameras"),
    ("scenegen", "cell_visibility", "scenegen.cell_visibility"),
    ("analysis", "linear_cka", "analysis.linear_cka"),
    ("analysis", "r_squared", "analysis.r_squared"),
    ("analysis", "feature_matrix", "analysis.feature_matrix"),
    ("harness", "train_run", "harness.train_run"),
    ("harness", "ensure_teacher", "harness.ensure_teacher"),
)


def _module(name):
    return importlib.import_module("bevlab." + name)


def conv_key(x, k):
    """`<cin>x<h>x<w>-<cout>` of a conv2d call on input x with kernel k."""
    cin, h, w = x.data.shape
    return f"{cin}x{h}x{w}-{k.data.shape[0]}"


class Patcher:
    """Replaces a function under every name bound to it, and undoes that."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)
        self.missing = []  # labels of wrappers whose target no longer exists
        self._wrappers = set()

    def replace(self, module, attr, make, everywhere=True, label=None):
        """Bind ``make(original)`` in place of ``module.attr``: in every
        bevlab module that holds the same object, or, with ``everywhere``
        off, only in ``module``. A missing name is recorded under ``label``
        (default ``module.attr``), not raised."""
        owner = _module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.missing.append(label or f"{module}.{attr}")
            return
        wrapper = make(original)
        self._wrappers.add(id(wrapper))
        if path or not everywhere:
            owners = [owner]
        else:
            owners = [_module(m) for m in MODULES]
        for obj in owners:
            for name, value in list(vars(obj).items()):
                if value is original:
                    setattr(obj, name, wrapper)
                    self.patched.append((obj, name, original))

    def restore(self):
        owners = {id(o): o for o, _, _ in self.patched}
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []
        left = [name for obj in list(owners.values()) + [_module(m) for m in MODULES]
                for name, value in vars(obj).items() if id(value) in self._wrappers]
        if left:
            raise RuntimeError(f"wrapped names left after restore: {left}")


class StepMarks:
    """Times training steps: step i lasts from draw i to draw i + 1 of
    ``batch_stream``. The last step of each loop has no closing draw and
    is left out of the times, not out of the draw count. Every
    PROBE_EVERY draws the clock probes the machine speed, outside the
    step times."""

    PROBE_EVERY = 5

    def __init__(self, clock):
        self.clock = clock
        self.loops = []  # (trainer, [draw times on the clock])
        self._patcher = Patcher()

    def install(self):
        for module, trainer in (("encoders", "teacher"), ("supervision", "student")):
            self._patcher.replace(module, "batch_stream", self._marked(trainer),
                                  everywhere=False)
        if self._patcher.missing:
            raise RuntimeError(f"cannot mark steps, missing {self._patcher.missing}")

    def _marked(self, trainer):
        loops, clock = self.loops, self.clock

        def make(fn):
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                draws = []
                loops.append((trainer, draws))
                for batch in fn(*args, **kwargs):
                    if len(draws) % self.PROBE_EVERY == 0:
                        clock.probe()
                    draws.append(clock.now())
                    yield batch
            return stream
        return make

    def restore(self):
        self._patcher.restore()

    def draws(self, trainer=None):
        return sum(len(d) for t, d in self.loops if trainer in (None, t))

    def step_ms(self, trainer, first_loop=0):
        """Step times in ms of one trainer's loops, from loop ``first_loop`` on."""
        return [float(v) for t, d in self.loops[first_loop:] if t == trainer
                for v in 1e3 * np.diff(d)]


class Tracer:
    """Spans at module boundaries, kept in memory until the run ends.

    Spans of one training step share a step id: a new id at each draw from
    ``batch_stream``, dropped when ``adamw_step`` returns. Spans of one
    scene share the group the benchmark sets with ``scene``. ``phase``
    tells the traced set-up ("setup") from the traced passes ("pass").
    """

    def __init__(self):
        self.name, self.key, self.start, self.end = [], [], [], []
        self.parent, self.group, self.phase_of = [], [], []
        self.stack = []
        self.current_group = None
        self.phase = "setup"
        self.counts = Counter()  # (phase, in a step, counter) -> n
        self.steps = Counter()  # (phase, trainer) -> step marks
        self.missing = []  # labels of wrapped names that no longer exist
        self._patcher = None

    # -- recording -------------------------------------------------------

    def open(self, name, key=None):
        i = len(self.name)
        self.name.append(name)
        self.key.append(key)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.group.append(self.current_group)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def count(self, name):
        in_step = isinstance(self.current_group, int)
        self.counts[(self.phase, in_step, name)] += 1

    def scene(self, scene_id):
        """Group the following spans under one scene; None ends the group."""
        self.current_group = None if scene_id is None else f"scene:{scene_id}"

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, keyfn=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = self.open(name, keyfn(*args) if keyfn else None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
            return traced
        return make

    def _per_item(self, name):
        """A generator function: one span per item it yields."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.name[i] = name + ".exhausted"
                        return
                    finally:
                        self.close(i)
                    yield item
            return traced
        return make

    def _step_start(self, trainer):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                for batch in fn(*args, **kwargs):
                    self.steps[(self.phase, trainer)] += 1
                    self.current_group = sum(self.steps.values())
                    yield batch
            return traced
        return make

    def _step_end(self, fn):
        timed = self._span("tensors.adamw")(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                self.current_group = None
        return traced

    def _custom_op(self, prefix):
        def make(fn):
            @functools.wraps(fn)
            def traced(out_data, parents, bwd, name):
                if any(p.requires_grad for p in parents):
                    self.count("tensors.tape_nodes")
                    span = f"{prefix}.{name}.bwd"
                    key = conv_key(parents[0], parents[1]) if name == "conv2d" else None
                    plain = bwd

                    def bwd(g):
                        i = self.open(span, key)
                        try:
                            return plain(g)
                        finally:
                            self.close(i)
                return fn(out_data, parents, bwd, name)
            return traced
        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the body, then restore each name."""
        self._install()
        try:
            yield self
        finally:
            self._patcher.restore()

    def _install(self):
        p = self._patcher = Patcher()
        keys = {"tensors.conv2d": lambda x, k, *rest: conv_key(x, k),
                "mapeval.evaluate": lambda preds, gts, *rest: len(gts)}
        for module, attr, name in SPANS:
            p.replace(module, attr, self._span(name, keys.get(name)), label=name)
        p.replace("scenegen", "load_dataset", self._per_item("scenegen.load_dataset"))
        for module, trainer in (("encoders", "teacher"), ("supervision", "student")):
            p.replace(module, "batch_stream", self._step_start(trainer), everywhere=False)
        p.replace("tensors", "adamw_step", self._step_end, label="tensors.adamw")
        # ops defined in tensors and in encoders hand their backward closure
        # to custom_op; each module's ops carry that module's prefix
        for module in ("tensors", "encoders"):
            p.replace(module, "custom_op", self._custom_op(module), everywhere=False)
        self.missing = p.missing

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("index,name,key,start_s,end_s,parent,group,phase\n")
            for i, name in enumerate(self.name):
                group = "" if self.group[i] is None else self.group[i]
                f.write(f"{i},{name},{self.key[i] or ''},{self.start[i] - t0:.7f},"
                        f"{self.end[i] - t0:.7f},{self.parent[i]},{group},"
                        f"{self.phase_of[i]}\n")
