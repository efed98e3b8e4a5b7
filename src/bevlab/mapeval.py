"""Instance-level map evaluation: chamfer-thresholded AP over two RoIs.

Map elements are (class_id, score, points) triples. Every element of both
sides is checked first: its class an int (not a bool) in [0, N_CLASSES),
its score finite, its points (K, 2); a bad one is an EvalError naming the
scene, the side and the index. Both sides are then clipped to the RoI,
one array pass over the segments of all of a side's elements per scene;
an element with a non-finite vertex is an error.
For each (scene, class) one chamfer matrix of every (prediction, ground
truth) pair is built, bounded by the largest threshold, and reused at
every threshold; geometry.chamfer_matrix says which entries it proves to
be over that bound (inf) and why every other entry keeps its exact bits.
Matching is greedy in score order: each prediction claims the nearest
still-unmatched ground truth of its class within the chamfer threshold
(one-to-one). Each (scene, class) and each class's pooled predictions
are ranked once and the ranks reused at every threshold. Precision /
recall integrate exactly (all-point), with predictions pooled across the
whole evaluation split.
Degenerate conventions, applied per (class, threshold) cell: no gts and
no preds gives AP 1; gts but no true positive gives 0; preds against an
empty gt set give 0.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CLASS_NAMES, N_CLASSES, BevGrid, chamfer_matrix, extended_grid, standard_grid


class EvalError(ValueError):
    pass


# each RoI's grid maker and its default chamfer thresholds in meters; the
# run config, evaluation and the harness all go by this table, in this order
ROIS = {"standard": (standard_grid, (0.5, 1.0, 1.5)),
        "extended": (extended_grid, (1.0, 1.5, 2.0))}

MIN_FRAGMENT_LEN = 0.5  # meters; clipped slivers below this are dropped


class EvalConfig:
    """RoI name, its default-size grid (clipping reads only its extents),
    and the matching thresholds."""

    def __init__(self, roi: str, thresholds=None):
        if roi not in ROIS:
            raise EvalError(f"unknown roi {roi!r}")
        make_grid, default = ROIS[roi]
        self.roi, self.grid = roi, make_grid()
        thresholds = tuple(float(t) for t in (default if thresholds is None else thresholds))
        if not all(t > 0 for t in thresholds) or list(thresholds) != sorted(set(thresholds)):
            raise EvalError("thresholds must be positive and strictly increasing")
        self.thresholds = thresholds


class EvalResult:
    """AP per (class, threshold), per-class threshold means, and mAP."""

    def __init__(self, ap_cells: dict, thresholds):
        self.ap = dict(ap_cells)  # (class_id, threshold) -> ap
        self.thresholds = tuple(thresholds)
        self.class_ap = {}
        for c in range(N_CLASSES):
            vals = [self.ap[(c, t)] for t in self.thresholds]
            self.class_ap[c] = float(np.mean(vals))
        self.map = float(np.mean([self.class_ap[c] for c in range(N_CLASSES)]))


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def _clip_segments(p, q, grid: BevGrid):
    """Liang-Barsky on every segment p -> q at once.

    Returns (kept, starts, ends, exits): which segments touch the RoI, the
    clipped start and end point of each segment (meaningful where kept),
    and which kept segments leave the RoI before their end point.
    """
    d = q - p
    t0 = np.zeros(len(d))
    t1 = np.ones(len(d))
    outside = np.zeros(len(d), dtype=bool)
    for k, lo, hi in ((0, grid.x_min, grid.x_max), (1, grid.y_min, grid.y_max)):
        delta, low, high = d[:, k], lo - p[:, k], hi - p[:, k]
        flat = delta == 0.0
        outside |= flat & ((low > 0.0) | (high < 0.0))
        safe = np.where(flat, 1.0, delta)
        ta, tb = low / safe, high / safe
        swap = ta > tb
        ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
        t0 = np.where(flat, t0, np.maximum(t0, ta))
        t1 = np.where(flat, t1, np.minimum(t1, tb))
    kept = ~outside & ~(t0 > t1)
    starts = np.where((t0 == 0.0)[:, None], p, p + t0[:, None] * d)
    ends = np.where((t1 == 1.0)[:, None], q, p + t1[:, None] * d)
    return kept, starts, ends, kept & (t1 < 1.0)


def clip_to_roi(elements, grid: BevGrid):
    """Clip each element's polyline to the RoI rectangle.

    Boundary crossings split a polyline into separate fragments; fragments
    shorter than MIN_FRAGMENT_LEN are dropped, and so are elements of
    fewer than two points. Returns new elements. One pass clips the
    segments of all elements, and fragments never join across elements.
    Raises EvalError for an element with a NaN or infinite vertex.
    """
    arrays = [np.asarray(pts, dtype=np.float64) for _, _, pts in elements]
    # one past each element's last vertex in the stacked vertices
    stops = np.cumsum([len(a) for a in arrays], dtype=np.int64)
    if not len(stops) or not stops[-1]:
        return []
    pts = np.concatenate([a for a in arrays if len(a)])
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = int(np.searchsorted(stops, np.argmin(finite), side="right"))
        raise EvalError(f"element {bad} has a non-finite vertex")
    # every vertex but an element's last starts a segment
    starts_segment = np.ones(len(pts), dtype=bool)
    starts_segment[stops[stops > 0] - 1] = False
    sv = np.flatnonzero(starts_segment)
    if not len(sv):
        return []
    kept, starts, ends, exits = _clip_segments(pts[sv], pts[sv + 1], grid)
    # a kept segment continues the previous fragment when the previous
    # segment is the one before it in the same element, was kept without
    # exiting and ends where this one starts, by np.allclose's rule with
    # atol 1e-12
    prev, cur = ends[:-1], starts[1:]
    close = ((np.abs(prev - cur) <= 1e-12 + 1e-5 * np.abs(cur)) & np.isfinite(cur)
             | (prev == cur)).all(axis=1)
    joins = np.zeros(len(sv), dtype=bool)
    joins[1:] = (sv[1:] == sv[:-1] + 1) & kept[1:] & kept[:-1] & ~exits[:-1] & close
    first = np.flatnonzero(kept & ~joins)
    final = np.flatnonzero(kept & np.append(~joins[1:], True))
    if not len(first):
        return []
    # fragment f is starts[first[f]] then ends[first[f]] .. ends[final[f]],
    # gathered into one array where it takes rows at[f] to at[f] + size[f] - 1
    size = final - first + 2
    at = np.cumsum(size) - size
    take = np.repeat(first - at - 1 + len(sv), size) + np.arange(size.sum())
    take[at] = first
    frags = np.concatenate([starts, ends])[take]
    seg_len = np.sqrt((np.diff(frags, axis=0) ** 2).sum(axis=1))
    # each fragment's length sums its own row of segment lengths; rows of
    # one width sum as one (k, width) array, which gives each row's .sum()
    length = np.empty(len(first))
    widths = size - 1
    for width in np.unique(widths).tolist():
        some = np.flatnonzero(widths == width)
        length[some] = seg_len[at[some, None] + np.arange(width)].sum(axis=1)
    owner = np.searchsorted(stops, sv[first], side="right")
    return [(elements[e][0], elements[e][1], frags[s:s + n])
            for e, s, n, keep in zip(owner.tolist(), at.tolist(), size.tolist(),
                                     (length >= MIN_FRAGMENT_LEN).tolist()) if keep]


# ---------------------------------------------------------------------------
# matching and AP
# ---------------------------------------------------------------------------

def _rank(scores):
    """Indices of scores by descending score, ties in input order."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _greedy_match(order, dist, threshold: float):
    """Greedy one-to-one matching against a (P, G) chamfer matrix; returns
    TP flags in original pred order.

    Predictions are visited in ``order``, their _rank; each takes the
    nearest unmatched gt with chamfer <= threshold (distance ties resolve
    to the lowest gt index).
    """
    flags = [False] * len(order)
    if dist.shape[1] == 0:
        return flags
    free = np.ones(dist.shape[1], dtype=bool)
    within = dist <= threshold
    for i in order:
        row = np.where(free & within[i], dist[i], np.inf)
        j = int(row.argmin())
        if row[j] < np.inf:
            free[j] = False
            flags[i] = True
    return flags


def match_instances(preds, gts, threshold: float):
    """Greedy one-to-one matching of elements by chamfer distance; returns
    TP flags in original pred order (see _greedy_match)."""
    dist = chamfer_matrix([e[2] for e in preds], [e[2] for e in gts], limit=threshold)
    return _greedy_match(_rank([e[1] for e in preds]), dist, threshold)


def _integrate_ap(order, flags, n_pos):
    """All-point PR integration over the predictions taken in ``order``,
    their _rank."""
    if n_pos == 0:
        return 1.0 if len(order) == 0 else 0.0
    tp = 0
    fp = 0
    ap = 0.0
    prev_recall = 0.0
    for i in order:
        if flags[i]:
            tp += 1
        else:
            fp += 1
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return ap


def _check_elements(elements, scene, side):
    """Raise EvalError, naming the scene, the side and the index, for the
    first element whose class is not an int (a bool is not) in [0,
    N_CLASSES), whose score is not finite, or whose points are not
    (K, 2)."""
    for k, (class_id, score, pts) in enumerate(elements):
        if (not isinstance(class_id, (int, np.integer)) or isinstance(class_id, bool)
                or not 0 <= class_id < N_CLASSES):
            fault = f"class {class_id!r} is not an int in [0, {N_CLASSES})"
        elif not (isinstance(score, (int, float, np.integer, np.floating))
                  and math.isfinite(score)):
            fault = f"score {score!r} is not finite"
        elif np.ndim(pts) != 2 or np.shape(pts)[1] != 2:
            fault = f"points of shape {np.shape(pts)} are not (K, 2)"
        else:
            continue
        raise EvalError(f"scene {scene!r}, {side} {k}: {fault}")


def evaluate(preds_by_scene: dict, gts_by_scene: dict, cfg: EvalConfig) -> EvalResult:
    """Full protocol: check every element, clip both sides, build one
    chamfer matrix per (scene, class) bounded by the largest threshold,
    rank each (scene, class) and each class's pooled predictions once, and
    match and integrate at every threshold, pooling AP per cell."""
    if sorted(preds_by_scene) != sorted(gts_by_scene):
        raise EvalError("prediction and ground-truth scene ids differ")
    scene_ids = sorted(gts_by_scene)
    for s in scene_ids:
        _check_elements(preds_by_scene[s], s, "prediction")
        _check_elements(gts_by_scene[s], s, "ground truth")
    clipped_p = {s: clip_to_roi(preds_by_scene[s], cfg.grid) for s in scene_ids}
    clipped_g = {s: clip_to_roi(gts_by_scene[s], cfg.grid) for s in scene_ids}
    cells = {}
    for c in range(N_CLASSES):
        per_scene = []
        scores = []
        n_pos = 0
        for s in scene_ids:
            p = [e for e in clipped_p[s] if e[0] == c]
            g = [e for e in clipped_g[s] if e[0] == c]
            n_pos += len(g)
            sc = [e[1] for e in p]
            scores.extend(sc)
            per_scene.append((_rank(sc),
                              chamfer_matrix([e[2] for e in p], [e[2] for e in g],
                                             limit=cfg.thresholds[-1])))
        order = _rank(scores)
        for t in cfg.thresholds:
            flags = []
            for rank, dist in per_scene:
                flags.extend(_greedy_match(rank, dist, t))
            cells[(c, t)] = _integrate_ap(order, flags, n_pos)
    return EvalResult(cells, cfg.thresholds)


# ---------------------------------------------------------------------------
# eval result files
# ---------------------------------------------------------------------------

def write_eval_file(path, result: EvalResult) -> None:
    """Lines: `class threshold ap` per cell, `class ap_mean` per class,
    then `mAP value`."""
    with open(path, "w") as f:
        for c in range(N_CLASSES):
            for t in result.thresholds:
                f.write(f"{CLASS_NAMES[c]} {t!r} {result.ap[(c, t)]:.6f}\n")
        for c in range(N_CLASSES):
            f.write(f"{CLASS_NAMES[c]} {result.class_ap[c]:.6f}\n")
        f.write(f"mAP {result.map:.6f}\n")


def read_eval_file(path):
    """Returns (cells dict keyed (class_name, threshold), class_means, map)."""
    cells = {}
    class_means = {}
    map_value = None
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "mAP" and len(parts) == 2:
                map_value = float(parts[1])
            elif len(parts) == 3:
                cells[(parts[0], float(parts[1]))] = float(parts[2])
            elif len(parts) == 2:
                class_means[parts[0]] = float(parts[1])
            else:
                raise EvalError(f"{path}:{ln}: malformed eval line {line!r}")
    if map_value is None:
        raise EvalError(f"{path}: missing mAP line")
    return cells, class_means, map_value
