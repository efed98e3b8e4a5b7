"""The three workloads: train, eval and infer.

Each is a closed loop in one process: the next operation starts when the
previous one has returned. A workload has a ``setup`` (timed as setup_s,
done in a fresh directory each time), a ``run_pass`` (the timed unit of
work, repeated until the run's seconds are spent) and checks on what the
program wrote or returned. Everything goes through public functions of
bevlab; the workload seed sets the run seed, the teacher seed and the
generated predictions, while the corpus scene seeds stay fixed (scene i
uses seed i, as export_dataset does).
"""

import hashlib
import importlib.util
import math
import os
import shutil

import numpy as np

# timed calls go through the module attribute, so a tracer that rebinds
# the name in the module sees them
from bevlab import encoders, geometry, harness, mapeval
from bevlab.config import RunConfig
from bevlab.mapeval import EvalConfig, read_eval_file
from bevlab.supervision import VARIANTS

ROIS = harness.ROIS


class Checks:
    """Correctness checks of one run; any failure makes the run incorrect."""

    def __init__(self):
        self.made = 0
        self.failures = []

    def expect(self, ok, message):
        self.made += 1
        if not ok:
            self.failures.append(message)


class Context:
    """What a pass uses besides its state: the benchmark clock, the step
    marks, the checks, and the tracer when the pass is traced."""

    def __init__(self, clock, marks, checks, tracer=None):
        self.clock = clock
        self.marks = marks
        self.checks = checks
        self.tracer = tracer

    def scene(self, scene_id):
        if self.tracer:
            self.tracer.scene(scene_id)


class Pass:
    """What one timed pass measured and produced; times are raw clock
    times, ``speed`` scales them to the reference machine speed."""

    def __init__(self, start, end, items_ms, attempted, failed=0):
        self.start = start
        self.end = end
        self.items_ms = items_ms
        self.attempted = attempted
        self.failed = failed
        self.speed = 1.0
        self.digest = ""  # identical for every pass of one seed
        self.extra = {}

    @property
    def wall_s(self):
        return self.end - self.start


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def read_losses(log_path):
    """Per-step (l_cls, l_reg, l_bev, l_total) rows of a run's log.txt."""
    with open(log_path) as f:
        return [tuple(float(v) for v in line.split()[2:6]) for line in f if line.strip()]


def check_run(rec, checks):
    """Checks on one finished training run directory; returns
    (checksum, loss_end, eval digest lines)."""
    rdir = rec["run_dir"]
    name = os.path.basename(rdir)
    losses = read_losses(os.path.join(rdir, "log.txt"))
    checks.expect(bool(losses), f"{name}: log.txt has no steps")
    checks.expect(all(math.isfinite(v) for row in losses for v in row),
                  f"{name}: a logged loss is not finite")
    lines = []
    for roi in ROIS:
        path = os.path.join(rdir, f"eval_{roi}.txt")
        _, _, map_value = read_eval_file(path)
        checks.expect(0.0 <= map_value <= 1.0, f"{name}: {roi} mAP {map_value} outside [0, 1]")
        checks.expect(0.0 <= float(rec[f"map_{roi}"]) <= 1.0,
                      f"{name}: record map_{roi} outside [0, 1]")
        with open(path) as f:
            lines.append(f"{name} {roi} " + f.read())
    if rec["variant"] == "baseline":
        checks.expect("teacher_calls" not in rec, f"{name}: baseline record has teacher_calls")
    else:
        checks.expect("teacher_calls" in rec, f"{name}: record lacks teacher_calls")
    tail = [row[3] for row in losses[-10:]]
    return rec["checksum"], float(np.mean(tail)) if tail else math.nan, lines


def implied_conv_calls(cfg):
    """conv2d calls per teacher step and per student step, counted from
    the model structure: every 4-D parameter is one conv, a student conv
    whose name starts with "cam" runs once per camera, and each sample of
    the batch runs the whole model once."""
    rng = np.random.default_rng(0)
    grid = cfg.grid()

    def convs(model, prefix=""):
        return sum(1 for k, p in model.params.items()
                   if p.data.ndim == 4 and k.startswith(prefix))
    teacher = encoders.TeacherEncoder(rng, c_feat=cfg.c_feat, widths=cfg.teacher_widths)
    student = encoders.StudentEncoder(rng, c_feat=cfg.c_feat, width=cfg.student_width,
                                      downsample=cfg.downsample)
    decoder = encoders.MapDecoder(rng, grid, c_in=cfg.c_feat, n_queries=cfg.n_queries,
                                  n_points=cfg.n_points, hidden=cfg.decoder_hidden)
    per_cam = convs(student, "cam")
    teacher_step = cfg.batch * (convs(teacher) + convs(decoder))
    student_step = cfg.batch * (cfg.cameras * per_cam + convs(student) - per_cam
                                + convs(decoder))
    return teacher_step, student_step


class Workload:
    """A workload at one size, seeded; subclasses define SIZES (config
    overrides per size) and may leave out the hooks below."""

    BYPASSES = ()  # spans that must not occur in the timed part
    SIZES = {}

    def __init__(self, seed, size):
        self.seed = seed
        self.cfg = RunConfig(dict(self.SIZES[size], seed=seed, seeds=(seed,),
                                  teacher_seed=seed))

    def steps_per_setup(self):
        return 0

    def steps_per_pass(self):
        return 0

    def inspect_setup(self, state, checks):
        """Checks on what one set-up built; returns its checksum lines."""
        return []

    def final_checks(self, state, checks):
        """Checks made once, after the timed passes."""


# ---------------------------------------------------------------------------
# train: a cold one-seed mini ablation
# ---------------------------------------------------------------------------

class Train(Workload):
    """Teacher pretraining plus all four variants trained, evaluated and
    checkpointed through harness.cmd_ablation, from an empty cache each
    pass. Conv forward and backward do most of the work."""

    name = "train"
    SIZES = {"full": {"n_train": 8, "n_val": 2, "teacher_steps": 30, "steps": 30},
             "tiny": {"n_train": 2, "n_val": 1, "teacher_steps": 3, "steps": 3}}

    def setup(self, out):
        harness.ensure_dataset(self.cfg, out)
        return out

    def steps_per_pass(self):
        return self.cfg.teacher_steps + len(VARIANTS) * self.cfg.steps

    def run_pass(self, out, ctx):
        checks, marks = ctx.checks, ctx.marks
        for sub in ("teacher", "runs"):
            shutil.rmtree(os.path.join(out, sub), ignore_errors=True)
        first_loop = len(marks.loops)
        draws = marks.draws()
        start = ctx.clock.now()
        _, failures = harness.cmd_ablation(self.cfg, out, seeds=[self.seed], jobs=1)
        result = Pass(start, ctx.clock.now(), marks.step_ms("student", first_loop),
                      len(VARIANTS), len(failures))
        result.extra["teacher_step_ms"] = marks.step_ms("teacher", first_loop)
        checks.expect(marks.draws() - draws == self.steps_per_pass(),
                      f"step marks {marks.draws() - draws} != steps {self.steps_per_pass()}")
        for name, err in failures:
            checks.expect(False, f"run {name} failed: {err}")
        sums, ends, lines = [], [], []
        for variant in VARIANTS:
            rdir = os.path.join(out, "runs", harness.run_name(
                variant, self.seed, self.cfg.lambda_bev, self.cfg.lambda_bev))
            if not os.path.exists(os.path.join(rdir, "record.txt")):
                continue
            checksum, loss_end, eval_lines = check_run(harness.read_record(rdir), checks)
            sums.append(f"{variant} {checksum}")
            ends.append(loss_end)
            lines += eval_lines
        result.extra["checksums"] = sums
        result.digest = _sha(sums + lines)
        result.extra["loss_end"] = float(np.mean(ends)) if ends else math.nan
        return result


# ---------------------------------------------------------------------------
# eval: chamfer-AP over generated predictions
# ---------------------------------------------------------------------------

def _resample(pts, k):
    """k points evenly spaced by arclength along a polyline."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    t = np.linspace(0.0, s[-1], k)
    return np.stack([np.interp(t, s, pts[:, 0]), np.interp(t, s, pts[:, 1])], axis=1)


STRAY_LENGTH = 20.0


def make_predictions(samples, rng, n_queries, n_points, grid):
    """Decoder-shaped predictions: n_queries elements of n_points points
    per scene. The first ground-truth elements, up to two thirds of the
    slots, come back as noisy copies; the rest are strays, gently curved
    lines of STRAY_LENGTH metres anywhere in the grid. Which elements and
    how long stays fixed, so the seed moves geometry and scores but
    hardly the amount of work."""
    preds = {}
    for s in samples:
        rows = []
        for cid, _, pts in s.gt[:(2 * n_queries) // 3]:
            noise = rng.uniform(0.05, 1.2)
            copy = _resample(np.asarray(pts, dtype=np.float64), n_points)
            rows.append((cid, float(rng.uniform(0.3, 1.0)),
                         copy + rng.normal(0.0, noise, copy.shape)))
        while len(rows) < n_queries:
            start = rng.uniform([grid.x_min, grid.y_min], [grid.x_max, grid.y_max])
            heading = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(
                rng.normal(0.0, 0.1, n_points - 1))
            step = STRAY_LENGTH / (n_points - 1)
            offsets = np.cumsum(np.stack([np.cos(heading), np.sin(heading)], axis=1) * step,
                                axis=0)
            pts = np.vstack([start, start + offsets])
            rows.append((int(rng.integers(0, 3)), float(rng.uniform(0.0, 0.7)), pts))
        preds[s.scene_id] = rows
    return preds


def load_oracles():
    """tests/oracles.py, the repository's brute-force reference code."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bevlab_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Eval(Workload):
    """mapeval.evaluate of every validation scene in both RoIs, on
    generated predictions. Clipping, chamfer and matching do the work;
    the tensor engine does none."""

    name = "eval"
    BYPASSES = ("tensors.conv2d",)
    SIZES = {"full": {"n_train": 1, "n_val": 24}, "tiny": {"n_train": 1, "n_val": 2}}
    SAMPLE_PAIRS = 6

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.eval_cfgs = [EvalConfig(roi) for roi in ROIS]

    def setup(self, out):
        _, val = harness.load_splits(self.cfg, out)
        preds = make_predictions(val, np.random.default_rng(self.seed), self.cfg.n_queries,
                                 self.cfg.n_points, EvalConfig("extended").grid)
        return val, preds

    def run_pass(self, state, ctx):
        val, preds = state
        checks, clock = ctx.checks, ctx.clock
        items, lines = [], []
        failed = 0
        start = clock.now()
        for s in val:
            clock.probe()
            ctx.scene(s.scene_id)
            t0 = clock.now()
            try:
                results = [mapeval.evaluate({s.scene_id: preds[s.scene_id]},
                                            {s.scene_id: s.gt}, c) for c in self.eval_cfgs]
            except Exception as e:  # counted as a failed operation, run goes on
                checks.expect(False, f"evaluate {s.scene_id}: {type(e).__name__}: {e}")
                failed += 1
                continue
            items.append(1e3 * (clock.now() - t0))
            for roi, r in zip(ROIS, results):
                checks.expect(0.0 <= r.map <= 1.0, f"{s.scene_id} {roi}: mAP {r.map}")
                lines += [f"{s.scene_id} {roi} {c} {t!r} {ap!r}"
                          for (c, t), ap in sorted(r.ap.items())]
        ctx.scene(None)
        result = Pass(start, clock.now(), items, len(val), failed)
        result.digest = _sha(lines)
        return result

    def final_checks(self, state, checks):
        val, preds = state
        some = val[:4]
        gts = {s.scene_id: s.gt for s in some}
        for c in self.eval_cfgs:
            m = mapeval.evaluate(gts, gts, c).map
            checks.expect(abs(m - 1.0) <= 1e-12,
                          f"ground truth scored as its own prediction: {c.roi} mAP {m}")
        oracles = load_oracles()
        rng = np.random.default_rng(self.seed + 1)
        grid = self.eval_cfgs[0].grid
        compared = 0
        for i in rng.permutation(len(val)):
            if compared == self.SAMPLE_PAIRS:
                break
            s = val[i]
            p = mapeval.clip_to_roi(preds[s.scene_id], grid)
            g = mapeval.clip_to_roi(s.gt, grid)
            if not p or not g:
                continue
            a = p[rng.integers(len(p))][2]
            b = g[rng.integers(len(g))][2]
            got, want = geometry.chamfer_distance(a, b), oracles.chamfer_oracle(a, b)
            checks.expect(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                          f"{s.scene_id}: chamfer {got!r} vs oracle {want!r}")
            compared += 1
        checks.expect(compared > 0, "no (pred, gt) pair to compare with the oracle")


# ---------------------------------------------------------------------------
# infer: forward-only use of trained checkpoints
# ---------------------------------------------------------------------------

class Infer(Workload):
    """Checkpoints of four tiny runs loaded and run forward on single
    scenes, plus the teacher-student similarity rows; no backward pass.
    Every corpus scene is used: the runs barely train, and the split does
    not change the work."""

    name = "infer"
    BYPASSES = ("tensors.backward",)
    SIZES = {"full": {"n_train": 16, "n_val": 2, "teacher_steps": 2, "steps": 2},
             "tiny": {"n_train": 2, "n_val": 1, "teacher_steps": 1, "steps": 1}}

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.grid = self.cfg.grid()
        self.rig = self.cfg.rig()

    def steps_per_setup(self):
        return self.cfg.teacher_steps + len(VARIANTS) * self.cfg.steps

    def setup(self, out):
        records = [harness.train_run(self.cfg, out, v, self.seed) for v in VARIANTS]
        train, val = harness.load_splits(self.cfg, out)
        return out, records, train + val

    def run_pass(self, state, ctx):
        out, _, samples = state
        cfg, checks, clock = self.cfg, ctx.checks, ctx.clock
        items, lines = [], []
        sim_s = 0.0
        failed = 0
        start = clock.now()
        teacher, _ = harness.ensure_teacher(cfg, out)
        for variant in VARIANTS:
            clock.probe()
            rec = harness.train_run(cfg, out, variant, self.seed)
            student, decoder, _ = harness.load_student(cfg, rec["run_dir"], teacher)
            for s in samples:
                ctx.scene(s.scene_id)
                t0 = clock.now()
                try:
                    fmap = encoders.student_forward(student, s.cams, self.rig, self.grid)
                    found = encoders.decode_map(decoder, fmap)
                except Exception as e:  # counted as a failed operation, run goes on
                    checks.expect(False, f"{variant} {s.scene_id}: {type(e).__name__}: {e}")
                    failed += 1
                    continue
                items.append(1e3 * (clock.now() - t0))
                lines += [f"{variant} {s.scene_id} {c} {score!r} " + pts.tobytes().hex()
                          for c, score, pts in found]
            ctx.scene(None)
            t0 = clock.now()
            rows = harness.similarity_rows(cfg, teacher, student, samples, self.grid, self.rig)
            sim_s += clock.now() - t0
            for sid, cka, cka_c, r2 in rows:
                checks.expect(all(math.isfinite(v) for v in (cka, cka_c, r2)),
                              f"{variant} {sid}: non-finite similarity")
                checks.expect(-1e-9 <= cka <= 1.0 + 1e-9, f"{variant} {sid}: CKA {cka}")
                lines.append(f"{variant} {sid} {cka!r} {cka_c!r} {r2!r}")
        result = Pass(start, clock.now(), items, len(VARIANTS) * len(samples), failed)
        result.extra["similarity_s"] = sim_s
        result.digest = _sha(lines)
        return result

    def inspect_setup(self, state, checks):
        _, records, _ = state
        return [f"{rec['variant']} {check_run(rec, checks)[0]}" for rec in records]


WORKLOADS = {w.name: w for w in (Train, Eval, Infer)}
