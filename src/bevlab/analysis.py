"""Representation similarity metrics and BEV feature visualizations.

Feature matrices put observations in rows (flattened spatial positions)
and channels in columns. Linear CKA is computed directly from

    CKA(X, Y) = ||X^T Y||_F^2 / (||X^T X||_F * ||Y^T Y||_F)

on the raw matrices; column-mean centering is available behind a flag and
both values are reported side by side. R^2 measures how well the teacher
matrix can be linearly reconstructed from the student matrix (no
intercept, small ridge for stability), averaged over teacher channels.

Each training run writes its per-scene values to a similarity file with
exact ``repr`` floats, so a table pooled from the files equals one pooled
from freshly computed values, bit for bit.
"""

from __future__ import annotations

import os

import numpy as np


class AnalysisError(ValueError):
    pass


def feature_matrix(fmap) -> np.ndarray:
    """(C, H, W) feature map -> (H*W, C) observation matrix."""
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise AnalysisError("feature map must be (C, H, W)")
    c = fmap.shape[0]
    return fmap.reshape(c, -1).T.copy()


def _check_matrix(m, name):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
        raise AnalysisError(f"{name} must be (N>=2, C>=1), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise AnalysisError(f"{name} contains non-finite values")
    return m


def linear_cka(x, y, center: bool = False) -> float:
    """Linear CKA between two (N, C) matrices; raw by default."""
    x = _check_matrix(x, "x")
    y = _check_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise AnalysisError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if center:
        x = x - x.mean(axis=0, keepdims=True)
        y = y - y.mean(axis=0, keepdims=True)
    xty = x.T @ y
    xtx = x.T @ x
    yty = y.T @ y
    num = float(np.sum(xty * xty))
    den = float(np.sqrt(np.sum(xtx * xtx)) * np.sqrt(np.sum(yty * yty)))
    if den == 0.0:
        raise AnalysisError("CKA undefined for an all-zero matrix")
    return num / den


RIDGE = 1e-8


def r_squared(x_teacher, y_student) -> float:
    """Mean per-channel R^2 of reconstructing teacher X from student Y.

    Fits W by ridge-regularized normal equations (no intercept); SS_tot is
    computed around each teacher column's mean.
    """
    x = _check_matrix(x_teacher, "x_teacher")
    y = _check_matrix(y_student, "y_student")
    n, c_y = y.shape
    if x.shape[0] != n:
        raise AnalysisError("row counts differ")
    if n <= c_y:
        raise AnalysisError(f"need N > student channels, got N={n}, C={c_y}")
    gram = y.T @ y + RIDGE * np.eye(c_y)
    try:
        w = np.linalg.solve(gram, y.T @ x)
    except np.linalg.LinAlgError:
        raise AnalysisError("student matrix rank-deficient beyond ridge rescue")
    resid = x - y @ w
    ss_res = np.sum(resid * resid, axis=0)
    centered = x - x.mean(axis=0, keepdims=True)
    ss_tot = np.sum(centered * centered, axis=0)
    if np.any(ss_tot <= 0.0):
        raise AnalysisError("teacher channel with zero variance, R^2 undefined")
    return float(np.mean(1.0 - ss_res / ss_tot))


def summarize(values):
    """(median, interquartile range) of a value collection."""
    arr = np.asarray(sorted(values), dtype=np.float64)
    if arr.size == 0:
        raise AnalysisError("empty value set")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return float(med), float(q3 - q1)


# ---------------------------------------------------------------------------
# similarity distribution files:  scene_id cka cka_centered r2
# ---------------------------------------------------------------------------

def write_similarity_file(path, rows) -> None:
    """rows: iterable of (scene_id, cka, cka_centered, r2), written as exact
    repr floats; the file, which marks a run's rows done, appears whole or
    not at all."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        for scene_id, cka, cka_c, r2 in rows:
            f.write(f"{scene_id} {cka!r} {cka_c!r} {r2!r}\n")
    os.replace(tmp, path)


def read_similarity_file(path):
    rows = []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise AnalysisError(f"{path}:{ln}: expected 4 fields, got {len(parts)}")
            rows.append((parts[0], float(parts[1]), float(parts[2]), float(parts[3])))
    return rows


# ---------------------------------------------------------------------------
# visualization
# ---------------------------------------------------------------------------

def channel_mean_viz(fmap, shared_scale) -> np.ndarray:
    """Channel-wise mean activations mapped affinely to [0, 1].

    shared_scale = (lo, hi) pins the mapping so several maps are directly
    comparable; a degenerate scale renders uniform mid-gray.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise AnalysisError("feature map must be (C, H, W)")
    mean = fmap.mean(axis=0)
    lo, hi = float(shared_scale[0]), float(shared_scale[1])
    if hi <= lo:
        return np.full(mean.shape, 0.5)
    return np.clip((mean - lo) / (hi - lo), 0.0, 1.0)


def write_pgm(path, img) -> None:
    """8-bit binary portable graymap from values in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise AnalysisError("pgm image must be 2-D")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
