"""Dense BEV feature alignment between student and frozen teacher, query
matching against ground truth, and the training loop ``fit``: teacher
pretraining (``encoders.pretrain_teacher``) runs it on the detection loss
alone, ``train_student`` adds the alignment term.

Queries match ground truth by ``_assign``, Crouse's shortest augmenting
path (IEEE TAES 2016) ported from scipy 1.17.1's ``rectangular_lsap``. It
does the same float operations in the same order and breaks ties the
same way, so it returns ``scipy.optimize.linear_sum_assignment``'s
assignment on every matrix while the package runs on numpy alone.

Four named variants differ only in how the alignment term is computed:
``baseline`` drops it, ``raw`` compares the two feature maps directly,
``norm_only`` standardizes each channel of both maps first, and
``norm_adapter`` also mixes the normalized student map's channels by a
learned bias-free matrix that no other arm holds (FitNets, ICLR 2015), in
the loss path only; the decoder always consumes the raw student features.
"""

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from typing import NamedTuple

import numpy as np

from .encoders import (TeacherEncoder, batch_stream, named_params, student_forward,
                       teacher_forward)
from .geometry import N_CLASSES
from .mapeval import clip_to_roi
from .tensors import (AdamW, Tensor, TensorError, adamw_step, add, backward,
                      channel_mix, channel_normalize, focal_loss,
                      l1_rows_loss, mse, scale, softmax_rows)

VARIANTS = ("baseline", "raw", "norm_only", "norm_adapter")
CLASS_PENALTY = 5.0  # matching cost per unit of class posterior missing
FOCAL_ALPHA = 0.25  # focal weight of the map classes; background gets 1 - alpha
FOCAL_GAMMA = 2.0  # focal exponent of (1 - p_t)


class SupervisionError(RuntimeError):
    pass


class MixAdapter:
    """A learned C x C channel mix ``w``, the identity at initialization."""

    def __init__(self, channels):
        self.params = {"w": Tensor(np.eye(channels), requires_grad=True)}

    def apply(self, t: Tensor) -> Tensor:
        return channel_mix(t, self.params["w"])


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

def bev_alignment_loss(f_cam, f_aerial, adapter: MixAdapter, variant) -> Tensor:
    """Mean squared difference between the student map and the frozen teacher
    map, compared as the ``variant`` name says: norm_only and norm_adapter
    normalize both maps per channel, norm_adapter then mixes the student map's
    channels by ``adapter``, which no other variant reads, and raw and baseline
    compare the maps as they are. Any other name, or norm_adapter without an
    adapter, raises SupervisionError."""
    if variant not in VARIANTS:
        raise SupervisionError(f"unknown variant {variant!r}; expected one of "
                               f"{', '.join(VARIANTS)}")
    if variant == "norm_adapter" and adapter is None:
        raise SupervisionError("variant 'norm_adapter' needs an adapter, got None")
    if f_cam.shape != f_aerial.shape:
        raise SupervisionError(f"feature shapes differ: {f_cam.shape} vs "
                               f"{f_aerial.shape}")
    if f_cam.grid.key != f_aerial.grid.key:
        raise SupervisionError("feature maps live on different grids")
    if f_aerial.tensor.requires_grad:
        raise SupervisionError("alignment target must come from a frozen teacher")
    s = f_cam.tensor
    t = f_aerial.tensor
    if variant in ("norm_only", "norm_adapter"):
        s = channel_normalize(s)
        t = channel_normalize(t)
    if variant == "norm_adapter":
        s = adapter.apply(s)
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


def _assign(cost):
    """Minimum-cost assignment of rows to columns: (rows, cols) int64
    arrays, rows ascending, as ``scipy.optimize.linear_sum_assignment``.

    A port of scipy 1.17.1's ``rectangular_lsap``: a tall matrix is solved
    transposed, each row grows one shortest augmenting path over the
    columns left (listed in reverse, so a constant matrix gives the
    identity), a tie prefers a column no row holds yet, and the reduced
    costs and duals take scipy's operations in scipy's order. The same
    IEEE double operations give the same assignment, ties included. NaN
    or -inf entries, and no finite assignment, raise SupervisionError.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if nr == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise SupervisionError("cost matrix holds NaN or -inf entries")
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        short = [math.inf] * nc  # shortest path cost to each column
        min_val, i = 0.0, cur
        while True:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = it, short[j]
            min_val = lowest
            if min_val == math.inf:
                raise SupervisionError("cost matrix has no finite assignment")
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += min_val
        for k in rows_seen[1:]:
            u[k] += min_val - short[col4row[k]]
        for k in cols_seen:
            v[k] -= min_val - short[k]
        while True:  # flip the augmenting path, from the sink j back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    col4row = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr, dtype=np.int64), col4row


def match_queries(logits, points, gts, gt_pts):
    """Minimum-cost one-to-one assignment of query slots to gt elements.

    ``logits`` and ``points`` are the decoder's Tensors for one scene, and
    ``gt_pts`` (E, K, 2) holds the elements resampled to the queries' K
    points, as ``target_points`` gives them (None for a scene with no
    elements). Cost per (query, element) is the orientation-free mean L1
    distance between the query's points and the element's, plus
    CLASS_PENALTY * (1 - posterior of the element's class), built for all
    pairs in one broadcast pass. ``_assign`` solves it by Crouse's shortest
    augmenting path as scipy 1.17.1 runs it; doing scipy's float operations
    in scipy's order, it breaks ties as scipy does. Returns (targets,
    pairs): per-query class targets with unmatched slots set to the
    background index, and (query, target points) pairs for regression.
    """
    z, pts = logits.data, points.data
    n_q, n_k = pts.shape[0], pts.shape[1]
    if len(gts) > n_q:
        raise SupervisionError(f"{len(gts)} elements exceed {n_q} query slots")
    targets = np.full(n_q, N_CLASSES, dtype=np.int64)
    if not gts:
        return targets, []
    if np.shape(gt_pts) != (len(gts), n_k, 2):
        raise SupervisionError(f"resampled targets {np.shape(gt_pts)} for {len(gts)} "
                               f"elements of {n_k} points")
    p = softmax_rows(z)
    d_fwd = np.mean(np.abs(pts[:, None] - gt_pts[None]), axis=(2, 3))
    d_rev = np.mean(np.abs(pts[:, None] - gt_pts[None, :, ::-1]), axis=(2, 3))
    cids = [e[0] for e in gts]
    cost = np.minimum(d_fwd, d_rev) + CLASS_PENALTY * (1.0 - p[:, cids])
    rows, cols = _assign(cost)
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


def detection_loss(logits, points, gts, reg_weight, gt_pts):
    """Classification + point regression for one sample's decoder output;
    ``gt_pts`` as ``match_queries`` takes it."""
    targets, pairs = match_queries(logits, points, gts, gt_pts)
    l_cls = focal_loss(logits, targets, FOCAL_ALPHA, FOCAL_GAMMA)
    if not pairs:
        return l_cls, Tensor(0.0)
    rows, lines = zip(*pairs)
    return l_cls, scale(l1_rows_loss(points, rows, lines), reg_weight / len(pairs))


# ---------------------------------------------------------------------------
# the training loop and the student trainer
# ---------------------------------------------------------------------------

def mean_of(terms):
    return scale(reduce(add, terms), 1.0 / len(terms))


_cpu_share = None  # fit's threads in a process that shares the CPUs; see share_cpus


def share_cpus(threads):
    """Let ``fit`` in this process run on ``threads`` threads, its share of
    CPUs that other processes use as well (run_many's workers)."""
    global _cpu_share
    _cpu_share = threads


def fit_threads():
    """Threads ``fit`` runs a step on, the calling one included: the CPUs
    this process may use, or its share of them."""
    return _cpu_share or len(os.sched_getaffinity(0))


class Pace:
    """Whether a pool thread has paid off lately in this process.

    A map with helpers misses when it takes at least ``miss_share`` of its
    calls' CPU time, what one thread would have taken. Such a map saves
    little, while every hand-over of the interpreter lock wakes the other
    CPU, which on a loaded machine costs steal time outside the map too.
    After two misses with no hit between them the next ``solo_maps`` maps
    run on the calling thread alone; the one after tries the helpers
    again, and one more miss there starts another run alone. A spell of
    load lasts seconds, about ``solo_maps`` training steps, and outlasts
    a short ``fit``, so every ``Crew`` of the process shares one ``Pace``."""

    miss_share = 0.8
    solo_maps = 30

    def __init__(self):
        self.misses = 0  # maps with helpers since the last one that paid
        self.solo = 0  # maps left to run on the calling thread alone

    def alone(self):
        """Whether the next map runs on the calling thread alone."""
        if self.solo:
            self.solo -= 1
            return True
        return False

    def judge(self, wall, cpu):
        """Record a map with helpers that took ``wall`` seconds and ``cpu``
        seconds of its calls' CPU time."""
        self.misses = self.misses + 1 if wall >= self.miss_share * cpu else 0
        if self.misses >= 2:
            self.solo = self.solo_maps


PACE = Pace()


class Crew:
    """The calling thread plus up to ``workers`` pool threads, mapping a
    function over items; the pool shuts down when the ``with`` block ends.
    ``pace`` (default: the process's ``PACE``) says when to leave the pool
    threads idle. The results never depend on who made the calls."""

    def __init__(self, workers, pace=None):
        self.workers = workers
        self.pool = ThreadPoolExecutor(workers) if workers > 0 else None
        self.pace = pace or PACE

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def map(self, fn, *iterables):
        """``list(map(fn, *iterables))``, each thread taking the next call as
        it comes free. Once a call raises, no further call starts; the
        error of the lowest-indexed failed call is raised after the calls
        under way return, which is the error a serial loop would raise."""
        items = list(zip(*iterables))
        results = [None] * len(items)
        errors = {}
        upcoming = iter(range(len(items)))
        lock = threading.Lock()

        def drain():
            """Calls until none is left; returns this thread's CPU time."""
            start = time.thread_time()
            while True:
                with lock:
                    i = None if errors else next(upcoming, None)
                if i is None:
                    return time.thread_time() - start
                try:
                    results[i] = fn(*items[i])
                except BaseException as e:  # re-raised below, on the calling thread
                    with lock:
                        errors[i] = e

        if self.workers == 0 or len(items) < 2 or self.pace.alone():
            drain()
        else:
            start = time.perf_counter()
            helpers = [self.pool.submit(drain)
                       for _ in range(min(self.workers, len(items) - 1))]
            cpu = drain() + sum(h.result() for h in helpers)
            self.pace.judge(time.perf_counter() - start, cpu)
        if errors:
            raise errors[min(errors)]
        return results


def fit(cfg, models, features, samples, batches, steps, log_path, align=None,
        error=SupervisionError):
    """The step loop of both teacher pretraining and student training.

    The parameters of ``models`` ({name: model}, one named "decoder") train
    under ``<name>.<param>`` with AdamW for ``steps`` steps, each on one
    index batch from ``batches``, at the rates and weights of ``cfg`` (a
    RunConfig). A sample's loss is the detection loss of its decoded
    ``features(sample)`` against its targets clipped to the config's grid,
    plus ``cfg.lambda_bev`` times ``align(fmap, sample)`` when ``align`` is
    given; the step backpropagates the batch means. Each step's
    LossBreakdown is a line of ``log_path`` (None: no log) once it is
    taken, and a non-finite value raises ``error`` naming the step. Returns
    the breakdowns.

    The samples of a step run their forward passes and losses on the
    calling thread, then their backward walks on ``fit_threads()`` threads
    at most (the calling thread among them), and ``backward`` folds the
    gradients in the serial order: the results do not depend on the thread
    count. Forward passes stay on the calling thread: threaded, they
    handed the interpreter lock back and forth several times as often per
    millisecond saved as the backward walks, and each hand-over waits for
    the other CPU, so on a loaded machine their step times swung widely.
    A step's tape is released once its breakdown is built.
    """
    decoder = models["decoder"]
    targets = clipped_targets(samples, cfg.grid(), decoder.n_queries)
    target_pts = target_points(targets, decoder.n_points)
    opt = AdamW(named_params(models), cfg.base_lr, cfg.weight_decay, horizon=steps,
                min_lr=cfg.min_lr)

    def sample_terms(i):
        """The roots of sample i's loss: cls, reg and, with ``align``, bev."""
        s = samples[i]
        fmap = features(s)
        logits, points = decoder.forward(fmap)
        terms = detection_loss(logits, points, targets[s.scene_id], reg_weight=cfg.reg_weight,
                               gt_pts=target_pts.get(s.scene_id))
        return terms if align is None else terms + (align(fmap, s),)

    def take_step(step, idx, crew):
        terms = [sample_terms(i) for i in idx]
        cls_terms, reg_terms, *bev_terms = zip(*terms)
        l_cls = mean_of(cls_terms)
        l_reg = mean_of(reg_terms)
        l_total = add(l_cls, l_reg)
        l_bev = Tensor(0.0)
        if bev_terms:
            l_bev = mean_of(bev_terms[0])
            l_total = add(l_total, scale(l_bev, cfg.lambda_bev))
        backward(l_total, terms, crew.map)
        lr_now = adamw_step(opt)
        opt.zero_grad()
        return LossBreakdown(step, lr_now, float(l_cls.data), float(l_reg.data),
                             float(l_bev.data), float(l_total.data))

    breakdowns = []
    with open(log_path or os.devnull, "w", buffering=1) as logf, \
            Crew(fit_threads() - 1) as crew:
        for step in range(steps):
            idx = next(batches)
            try:
                bd = take_step(step, idx, crew)
            except TensorError as e:
                raise error(f"diverged at step {step}: {e}") from e
            breakdowns.append(bd)
            logf.write(bd.line() + "\n")
    return breakdowns


def train_student(cfg, train_samples, teacher: TeacherEncoder, log_path=None):
    """Train one student run against a frozen teacher with ``fit``.

    Every setting comes from ``cfg`` (a RunConfig): ``variant`` says how
    ``bev_alignment_loss`` compares the maps, ``fit`` weighs that term by
    ``lambda_bev``, and the builders draw the student, then the decoder,
    from the ``seed`` rng. The alignment term joins the detection loss
    unless the variant is baseline, whose teacher is never even invoked.
    The frozen teacher's store gets every train map up front; alignment
    reads them back from it. Returns (models, breakdowns), deterministic
    in cfg: models is {"student", "decoder"} plus, for norm_adapter alone,
    the "adapter" it trains.
    """
    if not train_samples:
        raise SupervisionError("student training needs a non-empty train split")
    if not teacher.frozen:
        raise SupervisionError("student training requires a frozen teacher")
    rng = np.random.default_rng(cfg.seed)
    models = {"student": cfg.student(rng), "decoder": cfg.decoder(rng)}
    if cfg.variant == "norm_adapter":
        models["adapter"] = cfg.adapter()
    grid, rig = cfg.grid(), cfg.rig()
    aligned = cfg.variant != "baseline"
    if aligned:  # fill the store before fit, so no step waits on a U-Net pass
        for s in train_samples:
            teacher_forward(teacher, s.overhead, grid)

    def align(fmap, s):
        return bev_alignment_loss(fmap, teacher_forward(teacher, s.overhead, grid),
                                  models.get("adapter"), cfg.variant)

    breakdowns = fit(
        cfg, models, lambda s: student_forward(models["student"], s.cams, rig, grid),
        train_samples, batch_stream(rng, len(train_samples), cfg.batch), cfg.steps, log_path,
        align=align if aligned else None)
    return models, breakdowns
