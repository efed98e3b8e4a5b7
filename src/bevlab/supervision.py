"""Dense BEV feature alignment between student and frozen teacher, query
matching against ground truth, and the student training loop.

Four named variants differ only in how the alignment term is computed:
``baseline`` drops it, ``raw`` compares the two feature maps directly,
``norm_only`` standardizes each channel of both maps first, and
``norm_adapter`` additionally routes the student map through a learned
per-channel affine before normalization. The adapter lives strictly inside
the loss path; the decoder always consumes the raw student features.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from .encoders import (MapDecoder, StudentEncoder, TeacherEncoder,
                       batch_stream, mean_of, student_forward, take_rows,
                       teacher_forward)
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


class LossBreakdown:
    """One logged training step; the total reconstructs from the parts."""

    __slots__ = ("step", "lr", "l_cls", "l_reg", "l_bev", "l_total")

    def __init__(self, step, lr, l_cls, l_reg, l_bev, l_total):
        self.step = step
        self.lr = lr
        self.l_cls = l_cls
        self.l_reg = l_reg
        self.l_bev = l_bev
        self.l_total = l_total

    def line(self):
        return (f"{self.step} {self.lr!r} {self.l_cls!r} {self.l_reg!r} "
                f"{self.l_bev!r} {self.l_total!r}")


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
    terms = []
    for q, gt in pairs:
        pred = reshape(take_rows(points, [q]), (n_k, 2))
        terms.append(l1_line_loss(pred, tensor(gt)))
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return l_cls, scale(total, reg_weight / len(pairs))


# ---------------------------------------------------------------------------
# student training
# ---------------------------------------------------------------------------

def train_student(train_samples, teacher: TeacherEncoder,
                  cfg: SupervisionConfig, seed, grid, rig=None, steps=2000,
                  batch=4, base_lr=4e-3, weight_decay=1e-4, min_lr=1e-5,
                  reg_weight=0.05, log_path=None, make_models=None,
                  counts=None):
    """Train one student variant against a frozen teacher.

    Per batch: student features, decode, match, focal + line losses, plus
    the weighted alignment term unless the variant is baseline (whose
    teacher is never even invoked). Teacher features are computed once up
    front since the frozen teacher never changes. Returns (student,
    decoder, adapter, breakdowns); deterministic in seed.
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
    params = {"student." + k: v for k, v in student.params.items()}
    params.update(("decoder." + k, v) for k, v in decoder.params.items())
    params.update(("adapter." + k, v) for k, v in adapter.params.items())
    teacher_maps = None
    if cfg.variant != "baseline":
        teacher_maps = {s.scene_id: teacher_forward(teacher, s.overhead, grid)
                        for s in train_samples}
    if counts is not None:
        counts["teacher_calls"] = len(teacher_maps or ())
    targets = clipped_targets(train_samples, grid, decoder.n_queries)
    target_pts = target_points(targets, decoder.n_points)
    opt = AdamW(params, base_lr, weight_decay, horizon=steps, min_lr=min_lr)
    batches = batch_stream(rng, len(train_samples), batch)
    breakdowns = []
    logf = open(log_path, "w") if log_path else None
    try:
        for step in range(steps):
            idx = next(batches)
            try:
                cls_terms, reg_terms, bev_terms = [], [], []
                for i in idx:
                    s = train_samples[i]
                    fmap = student_forward(student, s.cams, rig, grid)
                    logits, points = decoder.forward(fmap)
                    l_cls_i, l_reg_i = detection_loss(
                        logits, points, targets[s.scene_id], reg_weight=reg_weight,
                        gt_pts=target_pts.get(s.scene_id))
                    cls_terms.append(l_cls_i)
                    reg_terms.append(l_reg_i)
                    if teacher_maps is not None:
                        bev_terms.append(bev_alignment_loss(
                            fmap, teacher_maps[s.scene_id], adapter, cfg))
                l_cls = mean_of(cls_terms)
                l_reg = mean_of(reg_terms)
                l_bev = mean_of(bev_terms) if bev_terms else tensor(0.0)
                l_total = add(add(l_cls, l_reg), scale(l_bev, cfg.lambda_bev))
                for name, t in (("l_cls", l_cls), ("l_reg", l_reg),
                                ("l_bev", l_bev), ("l_total", l_total)):
                    if not np.isfinite(t.data):
                        raise TensorError(f"non-finite {name}")
                backward(l_total)
                lr_now = adamw_step(opt)
                opt.zero_grad()
            except TensorError as e:
                raise SupervisionError(f"step {step}: {e}") from e
            bd = LossBreakdown(step, lr_now, float(l_cls.data),
                               float(l_reg.data), float(l_bev.data),
                               float(l_total.data))
            breakdowns.append(bd)
            if logf:
                logf.write(bd.line() + "\n")
    finally:
        if logf:
            logf.close()
    return student, decoder, adapter, breakdowns

