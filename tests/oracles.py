"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit Python loops and
textbook formulas, no shared code with the implementations under test.
Four kinds of exception: the point-major chamfer kernels keep the
package's former array layout as a bit-for-bit reference for the
current one, the renderer references keep the former scalar traversal,
dense road mask and full-image occluder loop as bit-for-bit references
for the pruned array passes, ``evaluate_per_block`` keeps evaluate's
former per-(scene, class) loop as the bit-for-bit reference for its one
clip pass and one chamfer pass per call, ``conv2d_keep_columns`` keeps
the conv that saved its im2col columns for backward as the bit-for-bit
reference for the one that rebuilds them, and the tape ops at the end
wire their own forward and backward into the package's tape, for the
tests alone.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from bevlab import geometry, mapeval, scenegen
from bevlab.tensors import Tensor, TensorError, custom_op


# ---------------------------------------------------------------------------
# finite-difference gradient harness
# ---------------------------------------------------------------------------

def fd_gradient(f, arrays, which, h=1e-5):
    """Central-difference gradient of scalar f(*arrays) wrt arrays[which]."""
    x = arrays[which]
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = f(*arrays)
        flat[j] = orig - h
        fm = f(*arrays)
        flat[j] = orig
        gflat[j] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(a, b):
    """Largest absolute difference over the largest magnitude (floored at 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b)) / denom)


def away_from_zero(rng, shape, low=0.1, high=2.0):
    """Random array with every entry bounded away from zero (kink avoidance)."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def distinct_quads(rng, c, h, w, gap=1e-2):
    """(c,h,w) array where every 2x2 pooling window has a clear max winner."""
    x = rng.normal(0.0, 1.0, size=(c, h, w))
    flat = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)
    # rank entries within each window and spread them 3*gap apart
    order = np.argsort(flat, axis=-1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(4), order.shape).copy(), axis=-1)
    spread = flat + ranks * 3.0 * gap
    return spread.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


# ---------------------------------------------------------------------------
# op oracles
# ---------------------------------------------------------------------------

def conv2d_oracle(x, k, bias=None, stride=1, pad=0):
    """Quadruple-loop 2-D cross-correlation."""
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for r in range(kh):
                        for c in range(kw):
                            acc += xp[ci, i * stride + r, j * stride + c] * k[co, ci, r, c]
                out[co, i, j] = acc + (bias[co] if bias is not None else 0.0)
    return out


def conv2d_input_grad_oracle(g, k, x_shape, stride=1, pad=0):
    """conv2d input gradient by col2im: the (Cin*kh*kw, Ho*Wo) column
    gradient strided-added back onto the padded input one kernel tap at a
    time, then cropped to the input."""
    cin, h, w = x_shape
    cout, _, kh, kw = k.shape
    _, ho, wo = g.shape
    gcol = (k.reshape(cout, cin * kh * kw).T @ g.reshape(cout, ho * wo)).reshape(cin, kh, kw, ho, wo)
    dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    for r in range(kh):
        for c in range(kw):
            dxp[:, r:r + stride * ho:stride, c:c + stride * wo:stride] += gcol[:, r, c]
    return dxp[:, pad:pad + h, pad:pad + w]


def mse_oracle(a, b):
    """Scalar-loop mean squared difference."""
    af = np.asarray(a, dtype=np.float64).reshape(-1)
    bf = np.asarray(b, dtype=np.float64).reshape(-1)
    acc = 0.0
    for i in range(af.size):
        d = af[i] - bf[i]
        acc += d * d
    return acc / af.size


def focal_oracle(logits, targets, alpha=0.25, gamma=2.0):
    """Per-row softmax focal loss computed with scalar math."""
    n, k = logits.shape
    total = 0.0
    for i in range(n):
        zmax = max(logits[i])
        exps = [math.exp(z - zmax) for z in logits[i]]
        denom = sum(exps)
        t = int(targets[i])
        pt = exps[t] / denom
        if alpha is None:
            w = 1.0
        elif t == k - 1:
            w = 1.0 - alpha
        else:
            w = alpha
        total += -w * (1.0 - pt) ** gamma * math.log(pt)
    return total / n


def l1_line_oracle(pred, gt):
    """Two-ordering minimum of the mean absolute coordinate error."""
    def mean_abs(a, b):
        acc = 0.0
        cnt = 0
        for i in range(a.shape[0]):
            for j in range(2):
                acc += abs(a[i, j] - b[i, j])
                cnt += 1
        return acc / cnt
    return min(mean_abs(pred, gt), mean_abs(pred, gt[::-1]))


def channel_normalize_oracle(x, eps=1e-5):
    """Per-channel standardization with population variance, loop form."""
    c = x.shape[0]
    out = np.zeros_like(x)
    for ci in range(c):
        vals = x[ci].reshape(-1)
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / len(vals)
        out[ci] = (x[ci] - mu) / math.sqrt(var + eps)
    return out


def soft_points_oracle(x, coords):
    """Per-channel softmax expectation of the coordinate grid, loop form."""
    c, h, w = x.shape
    out = np.zeros((c, 2))
    for ci in range(c):
        z = x[ci].reshape(-1)
        e = np.exp(z - z.max())
        p = e / e.sum()
        for d in range(2):
            out[ci, d] = sum(p[i] * coords[d].reshape(-1)[i]
                             for i in range(h * w))
    return out


def maxpool2_oracle(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ci in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                out[ci, i, j] = max(x[ci, 2 * i, 2 * j], x[ci, 2 * i, 2 * j + 1],
                                    x[ci, 2 * i + 1, 2 * j], x[ci, 2 * i + 1, 2 * j + 1])
    return out


def maxpool2_grad_oracle(x, g):
    """maxpool2 input gradient: each window's gradient goes to its first
    maximum in row-major order, and the window's other cells get 0."""
    c, h, w = x.shape
    dx = np.zeros((c, h, w))
    for ci in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                cells = [(2 * i + r, 2 * j + s) for r in (0, 1) for s in (0, 1)]
                best = cells[0]
                for cell in cells[1:]:
                    if x[ci][cell] > x[ci][best]:
                        best = cell
                dx[ci][best] = g[ci, i, j]
    return dx


def upsample2x_oracle(x):
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for ci in range(c):
        for i in range(2 * h):
            for j in range(2 * w):
                out[ci, i, j] = x[ci, i // 2, j // 2]
    return out


# ---------------------------------------------------------------------------
# dense-layout references: the camera branch with full-size feature maps
# ---------------------------------------------------------------------------
# Not naive: these repeat, op for op, the arithmetic of the layout the
# compact camera branch replaced, so that it can be compared bit for bit.

def conv2d_at_dense(x, k, bias, stride, pad, at):
    """(out, bwd) of conv2d computed at the flat output positions ``at``
    only, laid out in a zero (Cout, Ho, Wo) map. ``bwd(g)`` returns
    (dx, dk, db): the gradient gathered at ``at``, dk by one matmul, db by
    a row sum and dx scattered back one kernel tap at a time."""
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((cin, hp, wp))
    xp[:, pad:pad + h, pad:pad + w] = x
    w2 = k.reshape(cout, -1)
    taps = ((np.arange(cin)[:, None, None] * hp + np.arange(kh)[:, None]) * wp
            + np.arange(kw)).reshape(-1, 1)
    targets = taps + (at // wo) * (stride * wp) + (at % wo) * stride
    cols = np.take(xp, targets)
    vals = w2 @ cols + bias[:, None]
    out = np.zeros((cout, ho, wo))
    out.reshape(cout, -1)[:, at] = vals

    def bwd(g):
        gm = g.reshape(cout, -1)[:, at]
        dcols = (w2.T @ gm).reshape(cin, kh * kw, -1)
        dxp = np.zeros((cin, hp, wp))
        for t in range(kh * kw):
            dxp.reshape(-1)[targets.reshape(cin, kh * kw, -1)[:, t]] += dcols[:, t]
        dk = (gm @ cols.T).reshape(k.shape)
        return dxp[:, pad:pad + h, pad:pad + w], dk, gm.sum(axis=1)

    return out, bwd


def conv2d_keep_columns(x, k, bias=None, stride=1, pad=0, at=None):
    """tensors.conv2d as it was when its backward closure held the im2col
    columns of the forward pass (``at`` a ``conv_sites`` or None), wired
    into the tape. The rebuilt columns must give out, dx, dk and db the
    bits these saved ones do."""
    cin, h, w = x.data.shape
    cout, _, kh, kw = k.data.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1

    def im2col(buf, kh, kw, stride, ho, wo):
        sc, sh, sw = buf.strides
        win = as_strided(buf, (buf.shape[0], kh, kw, ho, wo), (sc, sh, sw, sh * stride, sw * stride))
        return win.reshape(buf.shape[0] * kh * kw, ho * wo)

    xp = np.zeros((cin, hp, wp))
    xp[:, pad:pad + h, pad:pad + w] = x.data
    w2 = k.data.reshape(cout, cin * kh * kw)
    if at is None:
        cols = im2col(xp, kh, kw, stride, ho, wo)
    else:
        targets = at.targets
        cols = np.take(xp, targets)
    out_data = w2 @ cols
    if bias is not None:
        out_data += bias.data[:, None]
    if at is None:
        out_data = out_data.reshape(cout, ho, wo)
    parents = (x, k) if bias is None else (x, k, bias)

    def bwd(g):
        gm = g.reshape(cout, ho * wo) if at is None else np.asfortranarray(g)
        dk = (gm @ cols.T).reshape(cout, cin, kh, kw)
        dx = None
        if x.requires_grad and at is None and cout < 4 * cin:
            gp = np.zeros((cout, hp + kh - 1, wp + kw - 1))
            gp[:, kh - 1:kh - 1 + stride * ho:stride, kw - 1:kw - 1 + stride * wo:stride] = g
            kt = w2.reshape(cout, cin, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gcols = im2col(gp[:, pad:, pad:], kh, kw, 1, h, w)
            dx = (kt.reshape(cin, -1) @ gcols).reshape(cin, h, w)
        elif x.requires_grad and at is None:
            dcols = (w2.T @ gm).reshape(cin, kh * kw, ho, wo)
            dxp = np.zeros((cin, hp, wp))
            for t in range(kh * kw):
                i, j = divmod(t, kw)
                dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, t]
            dx = dxp[:, pad:pad + h, pad:pad + w]
        elif x.requires_grad:
            dxp = np.bincount(targets.ravel(), (w2.T @ gm).ravel(), minlength=cin * hp * wp)
            dx = dxp.reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + w]
        return (dx, dk) if bias is None else (dx, dk, gm.sum(axis=1))

    return custom_op(out_data, parents, bwd, "conv2d")


def dense_lift_src(table):
    """Each cell's column in the full camera feature maps flattened and
    concatenated in rig order, with the default as the last column."""
    sizes = [fh * fw for fh, fw in table.feat_shapes]
    offsets = np.cumsum([0] + sizes)
    src = np.full(table.cam.shape, offsets[-1])
    for cell, k in enumerate(table.cam):
        if k >= 0:
            src[cell] = offsets[k] + table.fv[cell] * table.feat_shapes[k][1] + table.fu[cell]
    return src


def lift_grad_oracle(g, src, n_src):
    """(C, n_src) lift gradient by np.add.at: every cell's gradient added
    into its source column, cells in order."""
    c = g.shape[0]
    d = np.zeros((n_src, c))
    np.add.at(d, src, g.reshape(c, -1).T)
    return d.T


# ---------------------------------------------------------------------------
# geometry / metric oracles
# ---------------------------------------------------------------------------

def pixel_to_ground(cam, u, v):
    """Intersect the ray through pixel (u, v) of cam with z = 0; None if skyward."""
    d_cam = np.array([(u - cam.cx) / cam.focal, (v - cam.cy) / cam.focal, 1.0])
    d = cam.rot.T @ d_cam
    if d[2] >= -1e-12:
        return None
    t = -cam.position[2] / d[2]
    p = cam.position + t * d
    return float(p[0]), float(p[1])


def chamfer_oracle(poly_a, poly_b, step=0.1):
    """Brute-force symmetric chamfer: dense resample, point-to-segment loops."""
    sa = resample_oracle(poly_a, step)
    sb = resample_oracle(poly_b, step)
    d_ab = [point_polyline_dist(p, poly_b) for p in sa]
    d_ba = [point_polyline_dist(p, poly_a) for p in sb]
    return (sum(d_ab) + sum(d_ba)) / (len(d_ab) + len(d_ba))


def nearest_sq_point_major(points, table):
    """geometry._nearest_sq in its former (points x segments) layout: the
    same operations on the same operands, so the same bits."""
    ax, ay, abx, aby, safe = (column[:, 0] for column in table[:5])
    zero_length = table[5]
    dx = points[:, :1] - ax
    dy = points[:, 1:] - ay
    t = dx * abx
    t += dy * aby
    t /= safe
    if zero_length.size:
        t[:, zero_length] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    dx -= t * abx
    dy -= t * aby
    dx *= dx
    dy *= dy
    dx += dy
    return dx.min(axis=1)


def box_gap_sums_point_major(side, other):
    """geometry._box_gap_sums in its former (samples x boxes) layout: the
    same operations on the same operands, so the same bits."""
    x, y = side.samples[:, :1], side.samples[:, 1:]
    gx = np.maximum(other.lo[:, 0] - x, x - other.hi[:, 0])
    gy = np.maximum(other.lo[:, 1] - y, y - other.hi[:, 1])
    np.maximum(gx, 0.0, out=gx)
    np.maximum(gy, 0.0, out=gy)
    gx *= gx
    gy *= gy
    gx += gy
    return np.add.reduceat(np.sqrt(gx, out=gx), side.starts, axis=0)


# ---------------------------------------------------------------------------
# renderer references: the scene renderers before their pruned array passes
# ---------------------------------------------------------------------------
# Not naive either: each repeats, op for op, the arithmetic of the code the
# array passes replaced, so that every pixel can be compared bit for bit.

def traverse(x0, y0, x1, y1, visit):
    """Amanatides-Woo traversal of the unit grid from (x0,y0) to (x1,y1),
    one segment at a time in scalar floats."""
    cx, cy = math.floor(x0), math.floor(y0)
    ex, ey = math.floor(x1), math.floor(y1)
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    if dx != 0:
        t_max_x = ((cx + (step_x > 0)) - x0) / dx
        t_dx = abs(1.0 / dx)
    else:
        t_max_x, t_dx = math.inf, math.inf
    if dy != 0:
        t_max_y = ((cy + (step_y > 0)) - y0) / dy
        t_dy = abs(1.0 / dy)
    else:
        t_max_y, t_dy = math.inf, math.inf
    visit(cx, cy)
    guard = 0
    while (cx, cy) != (ex, ey):
        if t_max_x <= t_max_y:
            if t_max_x > 1.0 + 1e-12:
                break
            cx += step_x
            t_max_x += t_dx
        else:
            if t_max_y > 1.0 + 1e-12:
                break
            cy += step_y
            t_max_y += t_dy
        visit(cx, cy)
        guard += 1
        if guard > 4 * (abs(ex - math.floor(x0)) + abs(ey - math.floor(y0)) + 4):
            break  # numerical corner case; never triggered by sane inputs


def rasterize_polyline_oracle(grid, pts, canvas=None, value=1):
    """geometry.rasterize_polyline one segment at a time by ``traverse``."""
    if canvas is None:
        canvas = np.zeros((grid.rows, grid.cols), dtype=np.int64)
    pts = np.asarray(pts, dtype=np.float64)
    gx = (pts[:, 0] - grid.x_min) / grid.cell_x
    gy = (grid.y_max - pts[:, 1]) / grid.cell_y

    def mark(cx, cy):
        if 0 <= cy < grid.rows and 0 <= cx < grid.cols:
            canvas[cy, cx] = value

    for i in range(len(pts) - 1):
        traverse(gx[i], gy[i], gx[i + 1], gy[i + 1], mark)
    if len(pts) == 1:
        mark(math.floor(gx[0]), math.floor(gy[0]))
    return canvas


def polyline_distance(points, pts):
    """(N,) distance from each of the (N,2) points to the polyline pts,
    every point against every segment in the point-major layout."""
    table = geometry._tables(*geometry._flatten([pts]))[0]
    return np.sqrt(nearest_sq_point_major(np.asarray(points, dtype=np.float64), table))


def cells_near_polyline_oracle(grid, pts, radius):
    """geometry.cells_near_polyline as the dense road mask: every cell
    center measured against the whole polyline."""
    centers = grid.cell_centers().reshape(-1, 2)
    return (polyline_distance(centers, pts) <= radius).reshape(grid.rows, grid.cols)


def render_overhead_oracle(scene, grid):
    """scenegen.render_overhead by the dense road mask and the scalar
    rasterizer."""
    rr, cc = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    img = scenegen.background_color(scene.texture_seed, rr, cc)
    road_mask = np.zeros((grid.rows, grid.cols), dtype=bool)
    for road in scene.roads:
        road_mask |= cells_near_polyline_oracle(grid, road.centerline, road.half_width)
    img[:, road_mask] = np.array(scenegen.ROAD_COLOR)[:, None]
    for class_id in (0, 1, 2):
        canvas = np.zeros((grid.rows, grid.cols), dtype=np.int64)
        for cid, _, pts in scene.ground_truth:
            if cid == class_id:
                rasterize_polyline_oracle(grid, pts, canvas)
        img[:, canvas.astype(bool)] = np.array(scenegen.CLASS_COLORS[class_id])[:, None]
    return img


def pixel_dirs_oracle(cam):
    """Camera.pixel_dirs computed afresh."""
    u = (np.arange(cam.width) + 0.5 - cam.cx) / cam.focal
    v = (np.arange(cam.height) + 0.5 - cam.cy) / cam.focal
    du, dv = np.meshgrid(u, v)
    return np.stack([du, dv, np.ones_like(du)], axis=-1) @ cam.rot


def render_cameras_oracle(scene, rig, grid, overhead):
    """scenegen.render_cameras with every occluder slab-tested against
    every pixel of every camera, and every color selected over the whole
    image."""
    S = scenegen
    images = []
    for cam in rig:
        dirs = pixel_dirs_oracle(cam)
        dz = dirs[..., 2]
        ground = dz < -1e-12
        t_ground = np.where(ground, -cam.position[2] / np.where(ground, dz, -1.0), np.inf)
        t_occ = np.full(t_ground.shape, np.inf)
        occ_id = np.full(t_ground.shape, -1, dtype=np.int64)
        for bi, box in enumerate(scene.occluders):
            entry, hit = S._ray_box_hits(cam.position, dirs, box)
            closer = hit & (entry < t_occ)
            t_occ = np.where(closer, entry, t_occ)
            occ_id = np.where(closer, bi, occ_id)
        img = np.empty((3,) + t_ground.shape, dtype=np.float64)
        img[:] = np.array(S.SKY_COLOR)[:, None, None]
        ground_vis = ground & (t_ground <= t_occ)
        t_safe = np.where(ground_vis, t_ground, 0.0)
        rows, cols, inside = grid.cells_of(cam.position[:2] + t_safe[..., None] * dirs[..., :2])
        in_grid = ground_vis & inside
        out_grid = ground_vis & ~in_grid
        grid_colors = overhead[:, np.clip(rows, 0, grid.rows - 1), np.clip(cols, 0, grid.cols - 1)]
        img = np.where(in_grid[None], grid_colors, img)
        if np.any(out_grid):
            img = np.where(out_grid[None], S.background_color(scene.texture_seed, rows, cols), img)
        occluded = t_occ < np.where(ground, t_ground, np.inf)
        for bi in range(len(scene.occluders)):
            mask = occluded & (occ_id == bi)
            if np.any(mask):
                color = S.occluder_color(scene.texture_seed, bi)
                img = np.where(mask[None], color[:, None, None], img)
        images.append(img)
    return images


def resample_oracle(poly, step=0.1):
    """Arc-length resample at fixed spacing, endpoints always included."""
    poly = np.asarray(poly, dtype=np.float64)
    seg = np.diff(poly, axis=0)
    lens = np.sqrt((seg ** 2).sum(axis=1))
    total = float(lens.sum())
    if total == 0.0:
        return [poly[0]]
    n = max(1, int(math.ceil(total / step)))
    targets = [total * i / n for i in range(n + 1)]
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    pts = []
    for t in targets:
        i = int(np.searchsorted(cum, t, side="right")) - 1
        i = min(max(i, 0), len(lens) - 1)
        if lens[i] == 0.0:
            pts.append(poly[i])
        else:
            a = (t - cum[i]) / lens[i]
            pts.append(poly[i] * (1 - a) + poly[i + 1] * a)
    return pts


def resample_polyline_oracle(pts, step=0.1):
    """One polyline at a time, the arc-length resample that
    geometry.resample_polyline and chamfer_matrix batch over polylines:
    same operations, same bits."""
    pts = np.asarray(pts, dtype=np.float64)
    if len(pts) == 1:
        return pts.copy()
    seg = np.diff(pts, axis=0)
    lens = np.sqrt((seg * seg).sum(axis=1))
    total = float(lens.sum())
    if total == 0.0:
        return pts[:1].copy()
    n = max(1, int(math.ceil(total / step)))
    targets = np.arange(n + 1) * (total / n)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(lens) - 1)
    safe = np.where(lens[idx] > 0, lens[idx], 1.0)
    frac = np.clip((targets - cum[idx]) / safe, 0.0, 1.0)
    return pts[idx] + frac[:, None] * seg[idx]


def point_segment_dist(p, a, b):
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    proj = a + t * ab
    return float(np.hypot(*(p - proj)))


def point_polyline_dist(p, poly):
    poly = np.asarray(poly, dtype=np.float64)
    if len(poly) == 1:
        return float(np.hypot(*(np.asarray(p) - poly[0])))
    return min(point_segment_dist(p, poly[i], poly[i + 1]) for i in range(len(poly) - 1))


def _clip_segment_oracle(p, q, x_min, x_max, y_min, y_max):
    """Scalar Liang-Barsky: (t0, t1) of the inside portion, or None."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for delta, low, high in ((d[0], x_min - p[0], x_max - p[0]),
                             (d[1], y_min - p[1], y_max - p[1])):
        if delta == 0.0:
            if low > 0.0 or high < 0.0:
                return None
            continue
        ta, tb = low / delta, high / delta
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    return t0, t1


def clip_oracle(elements, grid, min_len=0.5):
    """Segment-at-a-time RoI clipping: a fragment continues while each
    clipped segment starts where the last one ended (np.allclose) and
    closes where a segment leaves the RoI; fragments under min_len drop."""
    bounds = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    out = []
    for class_id, score, pts in elements:
        pts = np.asarray(pts, dtype=np.float64)
        fragments = []
        current = []
        for i in range(len(pts) - 1):
            p, q = pts[i], pts[i + 1]
            hit = _clip_segment_oracle(p, q, *bounds)
            if hit is None:
                if len(current) >= 2:
                    fragments.append(np.array(current))
                current = []
                continue
            t0, t1 = hit
            a = p if t0 == 0.0 else p + t0 * (q - p)
            b = q if t1 == 1.0 else p + t1 * (q - p)
            if current and np.allclose(current[-1], a, atol=1e-12):
                current.append(b)
            else:
                if len(current) >= 2:
                    fragments.append(np.array(current))
                current = [a, b]
            if t1 < 1.0:
                fragments.append(np.array(current))
                current = []
        if len(current) >= 2:
            fragments.append(np.array(current))
        for frag in fragments:
            length = float(np.sqrt((np.diff(frag, axis=0) ** 2).sum(axis=1)).sum())
            if length >= min_len:
                out.append((class_id, score, frag))
    return out


def cka_oracle(x, y):
    """Linear CKA from the explicit formula on raw (uncentered) features."""
    xty = x.T @ y
    xtx = x.T @ x
    yty = y.T @ y
    num = float(np.sum(xty * xty))
    den = math.sqrt(float(np.sum(xtx * xtx))) * math.sqrt(float(np.sum(yty * yty)))
    return num / den


def r_squared_oracle(x, y):
    """Mean per-column R^2 of predicting x from y via lstsq (no intercept)."""
    w, *_ = np.linalg.lstsq(y, x, rcond=None)
    pred = y @ w
    resid = x - pred
    ss_res = (resid ** 2).sum(axis=0)
    centered = x - x.mean(axis=0, keepdims=True)
    ss_tot = (centered ** 2).sum(axis=0)
    r2 = 1.0 - ss_res / ss_tot
    return float(r2.mean())


def random_eval_corpus(rng, n_scenes=3):
    """Small random prediction/gt corpus for map-eval property tests."""
    gts = {}
    preds = {}
    for s in range(n_scenes):
        sid = f"scene_{s:04d}"
        g = []
        p = []
        for _ in range(int(rng.integers(1, 5))):
            c = int(rng.integers(0, 3))
            k = int(rng.integers(2, 5))
            start = rng.uniform([-25.0, -12.0], [25.0, 12.0])
            steps = rng.uniform(-4.0, 4.0, size=(k - 1, 2))
            pts = np.cumsum(np.vstack([start, steps]), axis=0)
            g.append((c, 1.0, pts))
            if rng.random() < 0.8:
                noise = rng.normal(0.0, rng.uniform(0.05, 1.5), size=pts.shape)
                p.append((c, float(rng.uniform(0.3, 1.0)), pts + noise))
        for _ in range(int(rng.integers(0, 3))):
            c = int(rng.integers(0, 3))
            k = int(rng.integers(2, 4))
            start = rng.uniform([-25.0, -12.0], [25.0, 12.0])
            steps = rng.uniform(-4.0, 4.0, size=(k - 1, 2))
            pts = np.cumsum(np.vstack([start, steps]), axis=0)
            p.append((c, float(rng.uniform(0.0, 1.0)), pts))
        gts[sid] = g
        preds[sid] = p
    return preds, gts


def exhaustive_match_oracle(preds, gts, threshold, chamfer):
    """Max-cardinality one-to-one match count by brute-force enumeration."""
    import itertools
    n, m = len(preds), len(gts)
    ok = [[chamfer(preds[i][2], gts[j][2]) <= threshold for j in range(m)] for i in range(n)]
    for r in range(min(n, m), 0, -1):
        for pi in itertools.combinations(range(n), r):
            for gj in itertools.permutations(range(m), r):
                if all(ok[i][j] for i, j in zip(pi, gj)):
                    return r
    return 0


def greedy_match_oracle(preds, gts, threshold, chamfer):
    """Per-threshold greedy matching, one chamfer call per (pred, gt) pair:
    preds by descending score (ties in input order) each take the nearest
    free gt within the threshold, the lowest gt index on distance ties."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], i))
    taken = [False] * len(gts)
    flags = [False] * len(preds)
    for i in order:
        best_j, best_d = -1, math.inf
        for j in range(len(gts)):
            if taken[j]:
                continue
            d = chamfer(preds[i][2], gts[j][2])
            if d <= threshold and d < best_d:
                best_j, best_d = j, d
        if best_j >= 0:
            taken[best_j] = True
            flags[i] = True
    return flags


def query_cost_oracle(p, pts, gt_pts, cids, class_penalty=5.0):
    """(Q, E) matching cost, one element column at a time: the loop
    ``supervision.match_queries`` ran before its one broadcast pass."""
    cost = np.zeros((pts.shape[0], len(cids)))
    for j, cid in enumerate(cids):
        d_fwd = np.mean(np.abs(pts - gt_pts[j]), axis=(1, 2))
        d_rev = np.mean(np.abs(pts - gt_pts[j][::-1]), axis=(1, 2))
        cost[:, j] = np.minimum(d_fwd, d_rev) + class_penalty * (1.0 - p[:, cid])
    return cost


def average_precision_oracle(scores, labels, n_pos):
    """Step-function AP: sort by score desc, integrate precision over recall."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    tp = 0
    fp = 0
    ap = 0.0
    prev_recall = 0.0
    for i in order:
        if labels[i]:
            tp += 1
        else:
            fp += 1
        recall = tp / n_pos if n_pos else 0.0
        precision = tp / (tp + fp)
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap



def evaluate_per_block(preds_by_scene, gts_by_scene, cfg):
    """mapeval.evaluate as it scored before one call made one clip pass and
    one chamfer pass: each scene's predictions and ground truth clipped
    apart, and one chamfer_matrix per (scene, class), each resampling its
    own two sides. Every AP cell must keep its bits."""
    scene_ids = sorted(gts_by_scene)
    clipped_p = {s: mapeval.clip_to_roi(preds_by_scene[s], cfg.grid) for s in scene_ids}
    clipped_g = {s: mapeval.clip_to_roi(gts_by_scene[s], cfg.grid) for s in scene_ids}
    cells = {}
    for c in range(geometry.N_CLASSES):
        per_scene = []
        scores = []
        n_pos = 0
        for s in scene_ids:
            p = [e for e in clipped_p[s] if e[0] == c]
            g = [e for e in clipped_g[s] if e[0] == c]
            n_pos += len(g)
            sc = [e[1] for e in p]
            scores.extend(sc)
            per_scene.append((mapeval._rank(sc),
                              geometry.chamfer_matrix([e[2] for e in p], [e[2] for e in g],
                                                      limit=cfg.thresholds[-1])))
        order = mapeval._rank(scores)
        for t in cfg.thresholds:
            flags = []
            for rank, dist in per_scene:
                flags.extend(mapeval._greedy_match(rank, dist, t))
            cells[(c, t)] = mapeval._integrate_ap(order, flags, n_pos)
    return mapeval.EvalResult(cells, cfg.thresholds)

# ---------------------------------------------------------------------------
# tape leaves and ops only the tests use, and the undivided backward walk
# ---------------------------------------------------------------------------

def parameter(data):
    """A leaf tensor on the tape, as model parameters are."""
    return Tensor(data, requires_grad=True)


def serial_backward(loss):
    """One reverse pass over the whole tape on one thread, each gradient
    added as its consumer's closure returns: the walk ``tensors.backward``
    must reproduce bit for bit, whatever groups and threads it is given."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen and node.requires_grad:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._bwd is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._bwd(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g


def tsum(x):
    """Sum of every entry, as a scalar tape node."""
    def bwd(g):
        return (np.full(x.data.shape, float(g)),)

    return custom_op(np.sum(x.data), (x,), bwd, "sum")


def tanh(x):
    y = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return custom_op(y, (x,), bwd, "tanh")


def l1_line_loss(pred, gt):
    """Mean absolute coordinate error between (K, 2) point sequences,
    minimized over forward/reverse ordering of the target sequence: one
    tape node per line, the chain ``tensors.l1_rows_loss`` replaces."""
    if pred.data.shape != gt.data.shape or pred.data.ndim != 2 or pred.data.shape[1] != 2:
        raise TensorError(f"l1_line_loss expects matching (K, 2) inputs, got "
                          f"{pred.data.shape} vs {gt.data.shape}")
    d_fwd = np.mean(np.abs(pred.data - gt.data))
    d_rev = np.mean(np.abs(pred.data - gt.data[::-1]))
    reverse = d_rev < d_fwd
    sel = gt.data[::-1] if reverse else gt.data
    n = pred.data.size

    def bwd(g):
        s = np.sign(pred.data - sel) * (float(g) / n)
        return s, (-s[::-1] if reverse else -s)

    return custom_op(np.float64(d_rev if reverse else d_fwd), (pred, gt), bwd, "l1_line_loss")
