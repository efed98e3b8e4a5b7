"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is CPU numpy under the hood, double precision throughout. The
op set is deliberately small: exactly what the encoders, decoder heads and
training losses need. Each op records its inputs and a backward closure on
the output tensor; ``backward(loss)`` walks the recorded graph in reverse
topological order and accumulates gradients (summing over fan-out). Given
root groups that share only leaves, such as the loss terms of each sample
in a batch, it walks each group's part of the graph apart, on whatever
threads the caller maps it over, and folds every leaf gradient in the order
the undivided walk adds it, so the bits do not depend on the threads.

Conventions:
  * feature maps are shaped (C, H, W); vectors (N,); scalars ().
  * gradients only flow into tensors created with ``requires_grad=True``
    (or derived from one). Frozen parameter sets simply carry
    ``requires_grad=False`` and never enter the tape.
  * every forward op validates that its output is finite and raises
    ``TensorError`` otherwise.
"""

from __future__ import annotations

import math
import os
import struct
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


class TensorError(ValueError):
    """Shape mismatch, non-finite values, or misuse of the tape."""


def _guard_finite(arr: np.ndarray, op: str) -> None:
    # np.sum propagates NaN and +-inf in one pass, cheaper than isfinite().all()
    if not math.isfinite(float(np.sum(arr))):
        raise TensorError(f"non-finite values produced by op '{op}'")


class Tensor:
    """N-dimensional float64 array participating in a gradient tape.

    ``data`` is the row-major value buffer, ``grad`` is populated (same
    shape) after a ``backward`` pass that reaches this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._bwd = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"


def custom_op(out_data, parents, bwd, name: str) -> Tensor:
    """Wire an externally computed forward result into the tape.

    ``bwd(grad_out)`` must return one gradient array (or None) per parent,
    in order. Used by ops that live outside this module (e.g. the BEV
    lifting gather in the encoders).
    """
    _guard_finite(out_data, name)
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
        out._op = name
    return out


def backward(loss: Tensor, groups=(), run=map) -> None:
    """Reverse-mode pass from a scalar loss; gradients sum over fan-out.

    Each node's backward closure runs once, after all of its consumers,
    in one reverse topological order, and each tensor adds its incoming
    gradients in that order. ``groups`` (tuples of root tensors, such as
    each sample's loss terms) split the walk: first the head, the nodes no
    group reaches, on the calling thread; then each group's own nodes, one
    walk per group, through ``run`` (``map``, or a map onto threads). A
    leaf may be reached from several groups and the head. Every gradient
    part is tagged with the emitting node's position, and each tensor folds
    its parts by position, so every gradient keeps the bits of the
    undivided walk. A non-leaf node reachable from two groups raises
    TensorError.
    """
    if loss.data.shape != ():
        raise TensorError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise TensorError("backward on a tensor outside the tape")
    # ops reachable from the loss in topological order: inputs precede what they feed
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    owner = {}  # id of a non-leaf node -> the one group that reaches it

    def claim(node, k):
        if node._bwd is not None and owner.setdefault(id(node), k) != k:
            raise TensorError(f"a '{node._op}' node is reached from groups "
                              f"{owner[id(node)]} and {k}")

    for k, roots in enumerate(groups):
        for r in roots:
            claim(r, k)
    # consumers come first in reverse order, so a node's owner is settled on reaching it
    head, walks = [], [[] for _ in groups]
    for i in range(len(order) - 1, -1, -1):
        node = order[i]
        if node._bwd is None:
            continue
        k = owner.get(id(node))
        if k is None:
            head.append((i, node))
            continue
        walks[k].append((i, node))
        for p in node._parents:
            claim(p, k)
    loss.grad = np.ones((), dtype=np.float64)
    pending = _walk(head, {})
    seeds = [{} for _ in groups]  # the head's parts for each group's nodes
    for key in [key for key in pending if key in owner]:
        seeds[owner[key]][key] = pending.pop(key)
    for rest in run(_walk, walks, seeds):
        for key, parts in rest.items():
            pending.setdefault(key, []).extend(parts)
    for node in order:  # only leaves are left pending
        if id(node) in pending:
            node.grad = _fold(node.grad, pending[id(node)])


def _fold(grad, parts):
    """``grad`` plus each (position, gradient) part in walk order: from the
    highest position down, a node's own parts in the order it emitted them."""
    for _, g in sorted(parts, key=lambda part: -part[0]):
        # grads are never mutated in place, so aliasing views is safe
        grad = g if grad is None else grad + g
    return grad


def _walk(nodes, pending):
    """Run the backward closures of ``nodes``, (position, node) pairs in
    walk order. ``pending`` holds each tensor's (position, gradient) parts
    so far; a node's parts fold into its grad before its closure runs, and
    the parts it emits join ``pending``, which is returned."""
    for i, node in nodes:
        node.grad = grad = _fold(node.grad, pending.pop(id(node), ()))
        if grad is None:
            continue
        for parent, g in zip(node._parents, node._bwd(grad)):
            if g is not None and parent.requires_grad:
                pending.setdefault(id(parent), []).append((i, g))
    return pending


def zero_grad(params) -> None:
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise TensorError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def bwd(g):
        return g, g

    return custom_op(out_data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise TensorError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def bwd(g):
        # a constant factor, such as a mask, gets no gradient
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return custom_op(out_data, (a, b), bwd, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = x.data * c

    def bwd(g):
        return (g * c,)

    return custom_op(out_data, (x,), bwd, "scale")


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with +0.0 for every x <= 0, -0.0 included; NaN stays NaN,
    so the finite guard raises on it."""
    out_data = np.maximum(x.data, 0.0)
    out_data += 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bits

    def bwd(g):
        return (g * (x.data > 0.0),)

    return custom_op(out_data, (x,), bwd, "relu")


def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.data.shape
    out_data = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(in_shape),)

    return custom_op(out_data, (x,), bwd, "reshape")


def concat(tensors) -> Tensor:
    """Join (C, H, W) maps along the channel axis."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors])
    splits = np.cumsum([t.data.shape[0] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits))

    return custom_op(out_data, tuple(tensors), bwd, "concat")


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a (C, H, W) map."""
    if x.data.ndim != 3:
        raise TensorError("upsample2x expects (C, H, W)")
    out_data = x.data.repeat(2, axis=1).repeat(2, axis=2)
    c, h, w = x.data.shape

    def bwd(g):
        return (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return custom_op(out_data, (x,), bwd, "upsample2x")


_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient routes to the first maximum of
    each window in row-major order, the cell argmax would pick."""
    if x.data.ndim != 3:
        raise TensorError("maxpool2 expects (C, H, W)")
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise TensorError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    corners = [(i, j) for i in (0, 1) for j in (0, 1)]
    cells = [x.data[:, i::2, j::2] for i, j in corners]
    out_data = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    if np.any(x.data.view(np.int64) == _NEG_ZERO_BITS):
        # np.maximum may return either zero of a -0.0/0.0 tie; keep the first one
        first = cells[3]
        for cell in cells[2::-1]:
            first = np.where(cell == out_data, cell, first)
        out_data = first

    def bwd(g):
        dx = np.empty((c, h, w))
        taken = np.zeros(out_data.shape, dtype=bool)
        for (i, j), cell in zip(corners, cells):
            hit = (cell == out_data) & ~taken
            taken |= hit
            np.multiply(g, hit, out=dx[:, i::2, j::2])
        return (dx,)

    return custom_op(out_data, (x,), bwd, "maxpool2")


def spatial_mean(x: Tensor) -> Tensor:
    """(C, H, W) -> (C,) mean over spatial positions."""
    if x.data.ndim != 3:
        raise TensorError("spatial_mean expects (C, H, W)")
    c, h, w = x.data.shape
    out_data = x.data.mean(axis=(1, 2))

    def bwd(g):
        return (np.broadcast_to(g[:, None, None] / (h * w), (c, h, w)),)

    return custom_op(out_data, (x,), bwd, "spatial_mean")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b. x is (N, n); w is (n, m); b is (m,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise TensorError(f"linear shape mismatch {x.data.shape} @ {w.data.shape}")
    out_data = x.data @ w.data + b.data

    def bwd(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return custom_op(out_data, (x, w, b), bwd, "linear")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _im2col(buf: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(C*kh*kw, ho*wo) window columns of a padded (C, H, W) buffer, copied from one view."""
    sc, sh, sw = buf.strides
    win = as_strided(buf, (buf.shape[0], kh, kw, ho, wo), (sc, sh, sw, sh * stride, sw * stride))
    return win.reshape(buf.shape[0] * kh * kw, ho * wo)


class ConvSites(NamedTuple):
    """Output positions of one conv2d geometry, checked, with their index
    arrays; ``conv_sites`` builds them and ``conv2d(at=...)`` takes them."""

    geometry: tuple  # (input shape, (kh, kw), stride, pad)
    at: np.ndarray  # sorted, unique flat output positions
    targets: np.ndarray  # (Cin*kh*kw, len(at)) flat offsets into the padded input


def conv_sites(x_shape, window, at, stride: int = 1, pad: int = 0) -> ConvSites:
    """Check the flat output positions ``at`` of a conv2d over a (Cin, H,
    W) input with a (kh, kw) ``window``, and build the padded-input offset
    of each of their im2col entries: the ``at`` that ``conv2d`` takes. A
    caller that convolves the same geometry at the same positions again
    builds this once."""
    cin, h, w = x_shape
    kh, kw = window
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    at = np.asarray(at)
    if at.ndim != 1 or (at.size and at.dtype.kind not in "iu"):
        raise TensorError(f"conv2d at must be a 1-D integer array, got {at.dtype} {at.shape}")
    at = at.astype(np.int64)
    if at.size and (at[0] < 0 or at[-1] >= ho * wo or np.any(np.diff(at) <= 0)):
        raise TensorError(f"conv2d at must be strictly increasing within [0, {ho * wo})")
    # flat offset of each (channel, tap) in the padded buffer, plus each window's origin
    taps = ((np.arange(cin)[:, None, None] * hp + np.arange(kh)[:, None]) * wp
            + np.arange(kw)).reshape(-1, 1)
    targets = taps + (at // wo) * (stride * wp) + (at % wo) * stride
    return ConvSites((tuple(x_shape), (kh, kw), stride, pad), at, targets)


def conv2d(x: Tensor, k: Tensor, bias: Tensor = None, stride: int = 1, pad: int = 0,
           at=None) -> Tensor:
    """2-D cross-correlation of a (Cin, H, W) map with (Cout, Cin, kh, kw) filters.

    Forward is im2col of the zero-padded input times the kernel. Backward
    takes dk from the saved columns with one matmul. dx is skipped for an
    input off the tape; otherwise its layout follows the channel counts.
    With Cout < 4*Cin it is a transposed conv: im2col of the zero-dilated,
    padded gradient, Cout*kh*kw rows, times the flipped kernel. With
    Cout >= 4*Cin those rows cost more than the col2im form: the kernel
    times the gradient as Cin*kh*kw columns, strided-added back one kernel
    tap at a time.

    ``at``, the ``conv_sites`` of this geometry at some flat output
    positions (``row * Wo + col``), computes only those output columns,
    from im2col columns gathered there alone, and returns them as a
    (Cout, len(at.at)) array, bias included. Backward then takes dk, db
    and dx from those columns only, dx by one ``np.bincount`` of every
    tap's column gradient into the padded input. Per pixel it adds the
    taps in tap order, as the strided loop does.
    """
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise TensorError("conv2d expects x (Cin,H,W) and k (Cout,Cin,kh,kw)")
    for name, value, low in (("stride", stride, 1), ("pad", pad, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise TensorError(f"conv2d {name} must be an int >= {low}, got {value!r}")
    cin, h, w = x.data.shape
    cout, kcin, kh, kw = k.data.shape
    if kcin != cin:
        raise TensorError(f"conv2d channel mismatch: input {cin}, kernel {kcin}")
    if bias is not None and bias.data.shape != (cout,):
        raise TensorError("conv2d bias must be (Cout,)")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise TensorError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((cin, hp, wp))
    xp[:, pad:pad + h, pad:pad + w] = x.data
    w2 = k.data.reshape(cout, cin * kh * kw)
    if at is None:
        cols = _im2col(xp, kh, kw, stride, ho, wo)
    else:
        geometry = (x.data.shape, (kh, kw), stride, pad)
        if not isinstance(at, ConvSites) or at.geometry != geometry:
            raise TensorError(f"conv2d at must be the conv_sites of {geometry}")
        targets = at.targets
        cols = np.take(xp, targets)
    out_data = w2 @ cols
    if bias is not None:
        out_data += bias.data[:, None]
    if at is None:
        out_data = out_data.reshape(cout, ho, wo)
    parents = (x, k) if bias is None else (x, k, bias)

    def bwd(g):
        # column-major: db then adds each row's columns one by one, and db and
        # dk keep the bits of the full-map layout (tests/oracles.py::conv2d_at_dense)
        gm = g.reshape(cout, ho * wo) if at is None else np.asfortranarray(g)
        dk = (gm @ cols.T).reshape(cout, cin, kh, kw)
        dx = None
        if x.requires_grad and at is None and cout < 4 * cin:
            # g dilated by the stride at offset (kh-1, kw-1); windows from (pad, pad) cover x
            gp = np.zeros((cout, hp + kh - 1, wp + kw - 1))
            gp[:, kh - 1:kh - 1 + stride * ho:stride, kw - 1:kw - 1 + stride * wo:stride] = g
            kt = w2.reshape(cout, cin, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gcols = _im2col(gp[:, pad:, pad:], kh, kw, 1, h, w)
            dx = (kt.reshape(cin, -1) @ gcols).reshape(cin, h, w)
        elif x.requires_grad and at is None:
            # within one tap the windows hit distinct pixels, so plain += scatters exactly
            dcols = (w2.T @ gm).reshape(cin, kh * kw, ho, wo)
            dxp = np.zeros((cin, hp, wp))
            for t in range(kh * kw):
                i, j = divmod(t, kw)
                dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, t]
            dx = dxp[:, pad:pad + h, pad:pad + w]
        elif x.requires_grad:
            # rows run (channel, tap), so each pixel sums its taps in tap order
            dxp = np.bincount(targets.ravel(), (w2.T @ gm).ravel(), minlength=cin * hp * wp)
            dx = dxp.reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + w]
        return (dx, dk) if bias is None else (dx, dk, gm.sum(axis=1))

    return custom_op(out_data, parents, bwd, "conv2d")


# ---------------------------------------------------------------------------
# normalization and channel mixing
# ---------------------------------------------------------------------------

NORM_EPS = 1e-5  # added to each channel's variance


def channel_normalize(x: Tensor) -> Tensor:
    """Per-channel standardization over spatial positions of a (C, H, W) map."""
    if x.data.ndim != 3:
        raise TensorError("channel_normalize expects (C, H, W)")
    c, h, w = x.data.shape
    if h * w < 2:
        raise TensorError("channel_normalize needs at least 2 spatial positions")
    mu = x.data.mean(axis=(1, 2), keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=(1, 2), keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    y = centered * inv

    def bwd(g):
        gm = g.mean(axis=(1, 2), keepdims=True)
        gym = np.mean(g * y, axis=(1, 2), keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return custom_op(y, (x,), bwd, "channel_normalize")


def channel_mix(x: Tensor, w: Tensor) -> Tensor:
    """A (C, H, W) map's channels mixed by a (C, C) matrix: out[i] = sum_j w[i, j] x[j]."""
    if x.data.ndim != 3:
        raise TensorError("channel_mix expects (C, H, W)")
    c = x.data.shape[0]
    if w.data.shape != (c, c):
        raise TensorError(f"channel_mix weights must be ({c}, {c}), got {w.data.shape}")
    flat = x.data.reshape(c, -1)

    def bwd(g):
        gm = g.reshape(c, -1)
        return (w.data.T @ gm).reshape(x.data.shape), gm @ flat.T

    return custom_op((w.data @ flat).reshape(x.data.shape), (x, w), bwd, "channel_mix")


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-D array, shifted by the row max."""
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def soft_points(x: Tensor, coords) -> Tensor:
    """Soft-argmax readout: per-channel softmax over spatial positions,
    then the expectation of the constant ``coords`` (2, H, W) under it.

    Maps (C, H, W) attention logits to (C, 2) coordinates; every output
    lies inside the convex hull of the coordinate grid.
    """
    if x.data.ndim != 3:
        raise TensorError("soft_points expects (C, H, W) logits")
    c, h, w = x.data.shape
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (2, h, w):
        raise TensorError(f"coords must be (2, {h}, {w}), got {coords.shape}")
    p = softmax_rows(x.data.reshape(c, h * w))
    cc = coords.reshape(2, h * w)
    out_data = p @ cc.T  # (C, 2)

    def bwd(g):
        # d out[c,:] / d x[c,i] = p[c,i] * (coords[:,i] - out[c,:])
        inner = g @ cc - np.sum(g * out_data, axis=1, keepdims=True)
        return ((p * inner).reshape(c, h, w),)

    return custom_op(out_data, (x,), bwd, "soft_points")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all entries."""
    if a.data.shape != b.data.shape:
        raise TensorError(f"mse shape mismatch {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size
    out_data = np.float64(np.sum(diff * diff) / n)

    def bwd(g):
        # a constant target, such as a frozen teacher map, gets no gradient
        d = (2.0 / n) * diff * g
        return (d if a.requires_grad else None, -d if b.requires_grad else None)

    return custom_op(out_data, (a, b), bwd, "mse")


def focal_loss(logits: Tensor, targets, alpha: float, gamma: float) -> Tensor:
    """Softmax focal loss, mean over rows of -alpha_t (1 - p_t)^gamma log p_t.

    ``targets`` is an integer array of class indices, one per logits row.
    The LAST class is the negative (background) class, weighted 1 - alpha;
    every other class is weighted alpha.
    """
    z = logits.data
    if z.ndim != 2:
        raise TensorError("focal_loss expects (N, n_classes) logits")
    n, k = z.shape
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (n,):
        raise TensorError(f"targets must be ({n},)")
    if t.size and (t.min() < 0 or t.max() >= k):
        raise TensorError(f"class index out of range [0, {k})")
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.sum(np.exp(zs), axis=1, keepdims=True))
    p = np.exp(logp)
    rows = np.arange(n)
    pt = p[rows, t]
    logpt = logp[rows, t]
    w = np.where(t == k - 1, 1.0 - alpha, alpha)
    one_m = 1.0 - pt
    focal = one_m ** gamma
    out_data = np.float64(np.mean(-w * focal * logpt))

    def bwd(g):
        # dL/dp_t, then chain through softmax: dp_t/dz_j = p_t (delta - p_j)
        term = focal / pt
        if gamma > 0.0:
            term = term - gamma * one_m ** (gamma - 1.0) * logpt
        dlpt = -w * term  # dL/dp_t per row (before the 1/n mean)
        coef = (dlpt * pt)[:, None] * (float(g) / n)
        dz = coef * (-p)
        dz[rows, t] += coef[:, 0]
        return (dz,)

    return custom_op(out_data, (logits,), bwd, "focal_loss")


def l1_rows_loss(x: Tensor, rows, targets) -> Tensor:
    """Sum, in the given order, of the mean absolute error of each row
    ``rows[i]`` of a (Q, K, 2) tensor against the constant (K, 2) line
    ``targets[i]``, whose points are taken in the order given: the caller
    (``supervision.match_queries``) decides which way a line runs.

    One tape node where a gather, a reshape and an l1 loss per row would
    be three; the values and gradients are those of that chain.
    Backward scatters each row's gradient back into its row of x.
    """
    if (x.data.ndim != 3 or x.data.shape[2] != 2 or not rows or len(rows) != len(targets)
            or any(np.shape(t) != x.data.shape[1:] for t in targets)):
        raise TensorError(f"l1_rows_loss expects (Q, K, 2) rows and one (K, 2) target "
                          f"per row, got {x.data.shape} with {len(rows)} rows and "
                          f"targets {[np.shape(t) for t in targets]}")
    lines = [np.asarray(t, dtype=np.float64) for t in targets]
    # in pair order, as the chain of adds did
    total = sum(np.mean(np.abs(x.data[q] - t)) for q, t in zip(rows, lines))
    n = x.data[0].size

    def bwd(g):
        dx = np.zeros_like(x.data)
        for q, t in zip(rows, lines):
            dx[q] += np.sign(x.data[q] - t) * (float(g) / n)
        return (dx,)

    return custom_op(np.float64(total), (x,), bwd, "l1_rows_loss")


# ---------------------------------------------------------------------------
# optimizer: AdamW with cosine-annealed learning rate
# ---------------------------------------------------------------------------

ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8  # added to the root of the second moment


class AdamW:
    """Decoupled weight decay Adam over a named parameter dict.

    The learning rate follows a cosine schedule over ``horizon`` steps and
    clamps to the ``min_lr`` floor afterwards.
    """

    def __init__(self, params: dict, lr: float, weight_decay: float, horizon: int,
                 min_lr: float):
        self.params = dict(params)
        self.base_lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.horizon = int(horizon)
        self.min_lr = float(min_lr)
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        zero_grad(self.params)


def cosine_lr(state: AdamW) -> float:
    """base * 0.5 * (1 + cos(pi * step / horizon)), clamped past the horizon."""
    t = min(state.step_count, state.horizon)
    raw = state.base_lr * 0.5 * (1.0 + math.cos(math.pi * t / state.horizon))
    return max(raw, state.min_lr)


def adamw_step(state: AdamW) -> float:
    """Apply one AdamW update to every trainable parameter; returns the lr used."""
    lr = cosine_lr(state)
    b1, b2 = ADAM_BETAS
    t = state.step_count + 1
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in state.params.items():
        if not p.requires_grad:
            continue
        g = p.grad if p.grad is not None else 0.0
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = p.data - lr * (update + state.weight_decay * p.data)
    state.step_count = t
    return lr


# ---------------------------------------------------------------------------
# .ten binary tensor files
# ---------------------------------------------------------------------------

_TEN_MAGIC = b"TEN1"
_TEN_MAX_HEAD = 6 + 4 * 255  # magic, dtype code, ndim byte, up to 255 dims


def write_ten(path, arr) -> bytes:
    """Write an array as a .ten file (magic, dtype code, dims, f64 payload)
    and return the bytes written."""
    arr = np.asarray(arr, dtype=np.float64)
    raw = b"".join([_TEN_MAGIC, struct.pack(f"<BB{arr.ndim}I", 0, arr.ndim, *arr.shape),
                    arr.tobytes(order="C")])
    with open(path, "wb") as f:
        f.write(raw)
    return raw


def read_ten(path) -> np.ndarray:
    """Read a .ten file; raises TensorError naming the file on corruption."""
    with open(path, "rb") as f:
        return parse_ten(f.read(), path)


def check_ten(path) -> os.stat_result:
    """Check the header of the .ten file at ``path`` against the file's
    size, as ``parse_ten`` checks it, without reading the payload. Returns
    the stat of the file it checked, for a later read to tell whether the
    file has changed since."""
    with open(path, "rb") as f:
        stat = os.fstat(f.fileno())
        _ten_header(f.read(_TEN_MAX_HEAD), stat.st_size, path)
    return stat


def parse_ten(raw, path) -> np.ndarray:
    """The array held by the bytes of a .ten file; errors name `path`."""
    head, dims = _ten_header(raw, len(raw), path)
    return np.frombuffer(raw[head:], dtype="<f8").reshape(dims).copy()


def _ten_header(raw, size, path):
    """(header length, dims) of a .ten file of ``size`` bytes whose first
    bytes, all of them or at least _TEN_MAX_HEAD, are ``raw``; raises
    TensorError naming ``path`` unless the dims account for every byte."""
    if raw[:4] != _TEN_MAGIC:
        raise TensorError(f"{path}: bad magic, not a .ten file")
    if size < 6:
        raise TensorError(f"{path}: truncated header")
    dtype_code, ndim = struct.unpack("<BB", raw[4:6])
    if dtype_code != 0:
        raise TensorError(f"{path}: unsupported dtype code {dtype_code}")
    head = 6 + 4 * ndim
    if size < head:
        raise TensorError(f"{path}: truncated dims, expected {head} header bytes")
    dims = struct.unpack(f"<{ndim}I", raw[6:head]) if ndim else ()
    count = 1
    for d in dims:
        count *= d
    expected = head + 8 * count
    if size != expected:
        raise TensorError(f"{path}: expected {expected} bytes, found {size}")
    return head, dims
