"""Dense BEV feature alignment between student and frozen teacher, query
matching against ground truth, and the training loop ``fit``: teacher
pretraining (``encoders.pretrain_teacher``) runs it on the detection loss
alone, ``train_student`` adds the alignment term.

Four named variants differ only in how the alignment term is computed:
``baseline`` drops it, ``raw`` compares the two feature maps directly,
``norm_only`` standardizes each channel of both maps first, and
``norm_adapter`` additionally routes the student map through a learned
per-channel affine before normalization. The adapter lives strictly inside
the loss path; the decoder always consumes the raw student features.
"""

import os
from functools import reduce
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .encoders import (MapDecoder, StudentEncoder, TeacherEncoder,
                       batch_stream, named_params, student_forward,
                       take_rows, teacher_forward)
from .geometry import N_CLASSES, default_rig
from .mapeval import clip_to_roi
from .tensors import (AdamW, Tensor, TensorError, adamw_step, add, backward,
                      channel_affine, channel_normalize, focal_loss,
                      l1_line_loss, mse, reshape, scale, softmax_rows,
                      tensor)

VARIANTS = ("baseline", "raw", "norm_only", "norm_adapter")


class SupervisionError(RuntimeError):
    pass


class AffineAdapter:
    """Learned per-channel scale and shift, identity at initialization."""

    def __init__(self, channels):
        gamma = Tensor(np.ones(channels))
        gamma.requires_grad = True
        beta = Tensor(np.zeros(channels))
        beta.requires_grad = True
        self.params = {"gamma": gamma, "beta": beta}

    def apply(self, t: Tensor) -> Tensor:
        return channel_affine(t, self.params["gamma"], self.params["beta"])


class SupervisionConfig:
    """Alignment-loss settings for one training variant.

    The variant pins the normalize/adapter flags; baseline forces the
    weight to zero no matter what was configured.
    """

    def __init__(self, variant, lambda_bev=1.0):
        if variant not in VARIANTS:
            raise SupervisionError(f"unknown variant {variant!r}")
        if lambda_bev < 0:
            raise SupervisionError("lambda_bev must be nonnegative")
        self.variant = variant
        self.normalize = variant in ("norm_only", "norm_adapter")
        self.use_adapter = variant == "norm_adapter"
        self.lambda_bev = 0.0 if variant == "baseline" else float(lambda_bev)


class LossBreakdown(NamedTuple):
    """One logged training step; the total reconstructs from the parts."""

    step: int
    lr: float
    l_cls: float
    l_reg: float
    l_bev: float
    l_total: float

    def line(self):
        """`step lr l_cls l_reg l_bev l_total`, floats as exact reprs."""
        return " ".join(repr(v) for v in self)


# ---------------------------------------------------------------------------
# alignment loss
# ---------------------------------------------------------------------------

def bev_alignment_loss(f_cam, f_aerial, adapter: AffineAdapter,
                       cfg: SupervisionConfig) -> Tensor:
    """Mean squared difference between the (optionally adapted and
    normalized) student map and the frozen teacher map."""
    if f_cam.shape != f_aerial.shape:
        raise SupervisionError(f"feature shapes differ: {f_cam.shape} vs "
                               f"{f_aerial.shape}")
    if f_cam.grid.key != f_aerial.grid.key:
        raise SupervisionError("feature maps live on different grids")
    if f_aerial.tensor.requires_grad:
        raise SupervisionError("alignment target must come from a frozen teacher")
    s = f_cam.tensor
    t = f_aerial.tensor
    if cfg.use_adapter:
        s = adapter.apply(s)
    if cfg.normalize:
        s = channel_normalize(s)
        t = channel_normalize(t)
    return mse(s, t)


# ---------------------------------------------------------------------------
# query matching and detection losses
# ---------------------------------------------------------------------------

def polyline_points(pts, k):
    """Resample a polyline to exactly k points, evenly spaced by arclength."""
    pts = np.asarray(pts, dtype=np.float64)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    t = np.linspace(0.0, s[-1], k)
    return np.stack([np.interp(t, s, pts[:, 0]), np.interp(t, s, pts[:, 1])],
                    axis=1)


def match_queries(logits, points, gts, class_penalty=5.0, gt_pts=None):
    """Minimum-cost one-to-one assignment of query slots to gt elements.

    Cost per (query, element) is the orientation-free mean L1 distance
    between the query's points and the element resampled to K points, plus
    class_penalty * (1 - posterior of the element's class). Returns
    (targets, pairs): per-query class targets with unmatched slots set to
    the background index, and (query, target points) pairs for regression.
    ``gt_pts`` (E, K, 2) may supply the elements already resampled.
    """
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pts = points.data if isinstance(points, Tensor) else np.asarray(points)
    n_q, n_k = pts.shape[0], pts.shape[1]
    if len(gts) > n_q:
        raise SupervisionError(f"{len(gts)} elements exceed {n_q} query slots")
    targets = np.full(n_q, N_CLASSES, dtype=np.int64)
    if not gts:
        return targets, []
    p = softmax_rows(z)
    if gt_pts is None:
        gt_pts = np.stack([polyline_points(e[2], n_k) for e in gts])
    elif gt_pts.shape != (len(gts), n_k, 2):
        raise SupervisionError(f"resampled targets {gt_pts.shape} for {len(gts)} "
                               f"elements of {n_k} points")
    cost = np.zeros((n_q, len(gts)))
    for j, (cid, _, _) in enumerate(gts):
        d_fwd = np.mean(np.abs(pts - gt_pts[j]), axis=(1, 2))
        d_rev = np.mean(np.abs(pts - gt_pts[j][::-1]), axis=(1, 2))
        cost[:, j] = np.minimum(d_fwd, d_rev) + class_penalty * (1.0 - p[:, cid])
    rows, cols = linear_sum_assignment(cost)
    pairs = []
    for q, j in zip(rows, cols):
        targets[q] = gts[j][0]
        pairs.append((int(q), gt_pts[j]))
    return targets, pairs


def clipped_targets(samples, grid, n_queries):
    """Per-scene regression targets: gt clipped to the training grid.

    Should clipping split a scene into more fragments than query slots,
    the longest fragments win (stable on ties).
    """
    out = {}
    for s in samples:
        elems = clip_to_roi(s.gt, grid)
        if len(elems) > n_queries:
            def arclen(i):
                pts = np.asarray(elems[i][2])
                return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
            order = sorted(range(len(elems)), key=lambda i: (-arclen(i), i))
            elems = [elems[i] for i in sorted(order[:n_queries])]
        out[s.scene_id] = elems
    return out


def target_points(targets, k):
    """Clipped targets resampled once to k points, (E, k, 2) per non-empty scene."""
    return {sid: np.stack([polyline_points(e[2], k) for e in elems])
            for sid, elems in targets.items() if elems}


def detection_loss(logits, points, gts, reg_weight=0.05, focal_alpha=0.25,
                   focal_gamma=2.0, gt_pts=None):
    """Classification + point regression for one sample's decoder output."""
    targets, pairs = match_queries(logits, points, gts, gt_pts=gt_pts)
    l_cls = focal_loss(logits, targets, focal_alpha, focal_gamma)
    if not pairs:
        return l_cls, tensor(0.0)
    n_k = points.data.shape[1]
    terms = [l1_line_loss(reshape(take_rows(points, [q]), (n_k, 2)), tensor(gt))
             for q, gt in pairs]
    return l_cls, scale(reduce(add, terms), reg_weight / len(pairs))


# ---------------------------------------------------------------------------
# the training loop and the student trainer
# ---------------------------------------------------------------------------

def mean_of(terms):
    return scale(reduce(add, terms), 1.0 / len(terms))


def fit(models, features, samples, grid, batches, steps, base_lr,
        weight_decay, min_lr, reg_weight, log_path, align=None, lambda_bev=0.0,
        error=SupervisionError):
    """The step loop of both teacher pretraining and student training.

    The parameters of ``models`` ({name: model}, one named "decoder") train
    under ``<name>.<param>`` with AdamW for ``steps`` steps, each on one
    index batch from ``batches``. A sample's loss is the detection loss of
    its decoded ``features(sample)`` against its clipped targets, plus
    ``lambda_bev`` times ``align(fmap, sample)`` when ``align`` is given;
    the step backpropagates the batch means. Each step's LossBreakdown is a
    line of ``log_path`` (None: no log) once it is taken, and a non-finite
    value raises ``error`` naming the step. Returns the breakdowns.
    """
    decoder = models["decoder"]
    targets = clipped_targets(samples, grid, decoder.n_queries)
    target_pts = target_points(targets, decoder.n_points)
    opt = AdamW(named_params(models), base_lr, weight_decay, horizon=steps,
                min_lr=min_lr)
    breakdowns = []
    with open(log_path or os.devnull, "w", buffering=1) as logf:
        for step in range(steps):
            idx = next(batches)
            try:
                cls_terms, reg_terms, bev_terms = [], [], []
                for i in idx:
                    s = samples[i]
                    fmap = features(s)
                    logits, points = decoder.forward(fmap)
                    l_cls, l_reg = detection_loss(
                        logits, points, targets[s.scene_id], reg_weight=reg_weight,
                        gt_pts=target_pts.get(s.scene_id))
                    cls_terms.append(l_cls)
                    reg_terms.append(l_reg)
                    if align is not None:
                        bev_terms.append(align(fmap, s))
                l_cls = mean_of(cls_terms)
                l_reg = mean_of(reg_terms)
                l_total = add(l_cls, l_reg)
                l_bev = tensor(0.0)
                if bev_terms:
                    l_bev = mean_of(bev_terms)
                    l_total = add(l_total, scale(l_bev, lambda_bev))
                backward(l_total)
                lr_now = adamw_step(opt)
                opt.zero_grad()
            except TensorError as e:
                raise error(f"diverged at step {step}: {e}") from e
            bd = LossBreakdown(step, lr_now, float(l_cls.data), float(l_reg.data),
                               float(l_bev.data), float(l_total.data))
            breakdowns.append(bd)
            logf.write(bd.line() + "\n")
    return breakdowns


def train_student(train_samples, teacher: TeacherEncoder,
                  cfg: SupervisionConfig, seed, grid, rig=None, steps=2000,
                  batch=4, base_lr=4e-3, weight_decay=1e-4, min_lr=1e-5,
                  reg_weight=0.05, log_path=None, make_models=None,
                  counts=None):
    """Train one student variant against a frozen teacher with ``fit``.

    The alignment term joins the detection loss unless the variant is
    baseline, whose teacher is never even invoked. Teacher features are
    computed once up front since the frozen teacher never changes. Returns
    (student, decoder, adapter, breakdowns); deterministic in seed.
    make_models(rng, grid, teacher) may supply a differently sized
    (student, decoder, adapter) triple. A ``counts`` dict gets
    "teacher_calls", the number of teacher maps built.
    """
    if not train_samples:
        raise SupervisionError("student training needs a non-empty train split")
    if not teacher.frozen:
        raise SupervisionError("student training requires a frozen teacher")
    if rig is None:
        rig = default_rig()
    rng = np.random.default_rng(seed)
    if make_models is None:
        student = StudentEncoder(rng, c_feat=teacher.c_feat)
        decoder = MapDecoder(rng, grid, c_in=teacher.c_feat)
        adapter = AffineAdapter(teacher.c_feat)
    else:
        student, decoder, adapter = make_models(rng, grid, teacher)
    teacher_maps = {} if cfg.variant == "baseline" else {
        s.scene_id: teacher_forward(teacher, s.overhead, grid) for s in train_samples}
    if counts is not None:
        counts["teacher_calls"] = len(teacher_maps)

    def align(fmap, s):
        return bev_alignment_loss(fmap, teacher_maps[s.scene_id], adapter, cfg)

    breakdowns = fit(
        {"student": student, "decoder": decoder, "adapter": adapter},
        lambda s: student_forward(student, s.cams, rig, grid), train_samples,
        grid, batch_stream(rng, len(train_samples), batch), steps, base_lr,
        weight_decay, min_lr, reg_weight, log_path,
        align=align if teacher_maps else None, lambda_bev=cfg.lambda_bev)
    return student, decoder, adapter, breakdowns
