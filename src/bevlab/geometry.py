"""Ground-plane grids, pinhole cameras, polylines and their metrics.

World frame: x forward, y left, z up, units are meters, the ground is the
z = 0 plane. A BEV grid views the world from above with row 0 at the far
left edge (largest y) and column 0 at the rear (smallest x):

    row = floor((y_max - y) / cell_y)      col = floor((x - x_min) / cell_x)

Cells are half-open along both axes, so a point exactly on the high-x or
low-y outer edge falls outside the grid.

Camera frame: x right, y down, z forward (right-handed). A camera is
placed by yaw about world z, then pitched downward; projection is
u = cx + f * x/z, v = cy + f * y/z with z > 0, and the image rectangle is
half-open: 0 <= u < width, 0 <= v < height.
"""

from __future__ import annotations

import math

import numpy as np

CLASS_NAMES = ("ped_crossing", "divider", "boundary")
N_CLASSES = len(CLASS_NAMES)


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# BEV grid
# ---------------------------------------------------------------------------

class BevGrid:
    """Axis-aligned ground-plane grid of rows x cols rectangular cells.

    ``cells_of`` is its one point-to-cell lookup, by the formula in the
    module docstring."""

    def __init__(self, x_min, x_max, y_min, y_max, rows, cols):
        if not (x_max > x_min and y_max > y_min and rows > 0 and cols > 0):
            raise GeometryError("degenerate grid extents")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.y_min = float(y_min)
        self.y_max = float(y_max)
        self.rows = int(rows)
        self.cols = int(cols)
        self.key = (self.x_min, self.x_max, self.y_min, self.y_max, self.rows, self.cols)
        self.cell_x = (self.x_max - self.x_min) / self.cols
        self.cell_y = (self.y_max - self.y_min) / self.rows

    def cells_of(self, pts):
        """(..., 2) xy -> (rows, cols, inside), each of shape (...): the
        cell holding each point, and whether that cell is in the grid."""
        pts = np.asarray(pts, dtype=np.float64)
        cols = np.floor((pts[..., 0] - self.x_min) / self.cell_x).astype(np.int64)
        rows = np.floor((self.y_max - pts[..., 1]) / self.cell_y).astype(np.int64)
        inside = (rows >= 0) & (rows < self.rows) & (cols >= 0) & (cols < self.cols)
        return rows, cols, inside

    def cell_center(self, row, col):
        x = self.x_min + (np.asarray(col) + 0.5) * self.cell_x
        y = self.y_max - (np.asarray(row) + 0.5) * self.cell_y
        return x, y

    def cell_centers(self):
        """(rows, cols, 2) array of cell center xy coordinates."""
        r = np.arange(self.rows)
        c = np.arange(self.cols)
        x, y = self.cell_center(r[:, None], c[None, :])
        return np.stack([np.broadcast_to(x, (self.rows, self.cols)),
                         np.broadcast_to(y, (self.rows, self.cols))], axis=-1)

    def __repr__(self):
        return (f"BevGrid(x=[{self.x_min},{self.x_max}], y=[{self.y_min},{self.y_max}], "
                f"{self.rows}x{self.cols})")


def standard_grid(rows=24, cols=48):
    """60 x 30 m region of interest centered on the rig."""
    return BevGrid(-30.0, 30.0, -15.0, 15.0, rows, cols)


def extended_grid(rows=24, cols=48):
    """100 x 50 m region of interest centered on the rig."""
    return BevGrid(-50.0, 50.0, -25.0, 25.0, rows, cols)


# ---------------------------------------------------------------------------
# pinhole camera
# ---------------------------------------------------------------------------

class Camera:
    """Pinhole camera posed by position, yaw about world z, and downward pitch."""

    def __init__(self, position, yaw, pitch, focal, width, height):
        self.position = np.asarray(position, dtype=np.float64)
        self.yaw = float(yaw)
        self.pitch = float(pitch)
        self.focal = float(focal)
        self.width = int(width)
        self.height = int(height)
        # the principal point is the image center
        self.cx = float(width) / 2.0
        self.cy = float(height) / 2.0
        cy_, sy_ = math.cos(self.yaw), math.sin(self.yaw)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        forward = np.array([cp * cy_, cp * sy_, -sp])
        right = np.array([sy_, -cy_, 0.0])
        down = np.cross(forward, right)
        # rows transform world deltas into (right, down, forward) coordinates
        self.rot = np.stack([right, down, forward])
        self._dirs = None
        self._ground = None

    def project(self, pts):
        """World points (N,3) -> (uv (N,2), depth (N,), valid (N,) bool).

        valid requires positive depth and the pixel inside the half-open
        image rectangle.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        cam = (pts - self.position) @ self.rot.T
        z = cam[:, 2]
        safe = np.where(z > 0, z, 1.0)
        u = self.cx + self.focal * cam[:, 0] / safe
        v = self.cy + self.focal * cam[:, 1] / safe
        valid = (z > 1e-9) & (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)
        return np.stack([u, v], axis=1), z, valid

    def pixel_dirs(self):
        """(height, width, 3) world-frame ray directions through pixel
        centers, made on the first call and kept read-only on the camera."""
        if self._dirs is None:
            u = (np.arange(self.width) + 0.5 - self.cx) / self.focal
            v = (np.arange(self.height) + 0.5 - self.cy) / self.focal
            du, dv = np.meshgrid(u, v)
            cam_dirs = np.stack([du, dv, np.ones_like(du)], axis=-1)
            self._dirs = cam_dirs @ self.rot  # (R^T d) for each pixel
            self._dirs.flags.writeable = False
        return self._dirs

    def ground_rays(self):
        """(t, pixels, hits) for the rays that meet the ground plane, made
        on the first call and kept read-only on the camera: t (height,
        width) is each ray's parameter at z = 0 (inf unless the ray points
        down by more than 1e-12), pixels the flat indices of the finite
        ones, ascending, and hits (n, 2) their ground points."""
        if self._ground is None:
            dirs = self.pixel_dirs()
            dz = dirs[..., 2]
            down = dz < -1e-12
            t = np.where(down, -self.position[2] / np.where(down, dz, -1.0), np.inf)
            pixels = np.flatnonzero(down)
            hits = self.position[:2] + t.reshape(-1)[pixels, None] * dirs.reshape(-1, 3)[pixels, :2]
            for a in (t, pixels, hits):
                a.flags.writeable = False
            self._ground = (t, pixels, hits)
        return self._ground


def default_rig(height, pitch, focal, width, img_height, cameras):
    """Cameras at the rig origin, evenly spaced in yaw (90 degrees for four).

    With four cameras and focal = width/2 each camera spans exactly 90
    degrees of azimuth, so the half-open image planes tile the full horizon
    once.
    """
    return [Camera((0.0, 0.0, height), k * 2.0 * math.pi / cameras, pitch, focal,
                   width, img_height)
            for k in range(cameras)]


# ---------------------------------------------------------------------------
# polyline rasterization (supercover traversal)
# ---------------------------------------------------------------------------

def rasterize_polyline(grid: BevGrid, pts, canvas, value, first=(0,)):
    """Set to ``value`` every cell of the (rows, cols) ``canvas`` that a
    polyline passes through, and return the canvas.

    ``pts`` may hold several polylines one after another, polyline i from
    row ``first[i]`` up to the next one's first row, and ``value`` may
    give each its own value: the canvas ends as if each were drawn in
    turn, so a cell keeps the value of the last polyline through it.

    Uses exact cell-boundary traversal (Amanatides & Woo), so a segment
    never skips a crossed cell and never marks diagonal neighbours it does
    not touch. The segments of all polylines walk in lockstep, one array
    lane each, and each lane repeats the scalar walk's float operations in
    its order (``t_max += t_d``, the ``1 + 1e-12`` stop, the step guard),
    so it marks the same cells; a single point is a zero-length segment."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError("polyline must be (K, 2)")
    if not len(pts):
        return canvas
    first = np.asarray(first, dtype=np.int64).reshape(-1)
    counts = np.diff(first, append=len(pts))
    if not first.size or first[0] != 0 or (counts < 1).any():
        raise GeometryError("first must rise strictly from 0 and stay below len(pts)")
    # a lane runs from every vertex but a polyline's last to the next one,
    # or from a single point to itself
    starts = np.ones(len(pts), dtype=bool)
    starts[first + counts - 1] = counts == 1
    starts = np.flatnonzero(starts)
    owner = np.searchsorted(first, starts, side="right") - 1
    # continuous cell coordinates: row 0 along columns, row 1 along rows
    g = np.stack([(pts[:, 0] - grid.x_min) / grid.cell_x, (grid.y_max - pts[:, 1]) / grid.cell_y])
    g0, g1 = g[:, starts], g[:, starts + (counts > 1)[owner]]
    d = g1 - g0
    cell, end = np.floor(g0).astype(np.int64), np.floor(g1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(d != 0, ((cell + (d > 0)) - g0) / d, np.inf)
        t_d = np.where(d != 0, np.abs(1.0 / d), np.inf)
    # one column per lane, rows: cell x, y; end x, y; step x, y; the
    # guard's step limit; t_max x, y; t_d x, y; the lane's polyline
    # (cells are exact as floats)
    lane = np.concatenate([cell, end, np.where(d > 0, 1, -1),
                           4 * (np.abs(end - cell).sum(axis=0, keepdims=True) + 4), t_max, t_d,
                           owner[None]])
    visits, guard = [lane[[0, 1, 11]]], 0
    while True:  # each pass steps every live lane by one cell
        axis = (~(lane[7] <= lane[8])).astype(np.intp)  # 0 steps x, 1 steps y
        live = ((lane[0] != lane[2]) | (lane[1] != lane[3])) & (lane[6] >= guard)
        live &= ~(lane[7 + axis, np.arange(axis.size)] > 1.0 + 1e-12)
        lane, axis = lane[:, live], axis[live]
        if not axis.size:
            break
        k = np.arange(axis.size)
        lane[axis, k] += lane[4 + axis, k]
        lane[7 + axis, k] += lane[9 + axis, k]
        visits.append(lane[[0, 1, 11]])
        guard += 1
    cx, cy, owner = np.concatenate(visits, axis=1).astype(np.int64)
    inside = (cy >= 0) & (cy < grid.rows) & (cx >= 0) & (cx < grid.cols)
    cx, cy, owner = cx[inside], cy[inside], owner[inside]
    # each cell's visit by the last polyline through it
    order = np.argsort(owner, kind="stable")[::-1]
    last = order[np.unique(cy[order] * grid.cols + cx[order], return_index=True)[1]]
    canvas[cy[last], cx[last]] = np.broadcast_to(value, first.shape)[owner[last]]
    return canvas


# ---------------------------------------------------------------------------
# resampling and chamfer distance
# ---------------------------------------------------------------------------

def _check_step(step):
    if not (step > 0 and math.isfinite(step)):
        raise GeometryError(f"resample step must be positive and finite, got {step!r}")


def _flatten(polylines):
    """All vertices of the polylines in one table: (pts (V,2), first (n,),
    counts (n,), seg (V,2), sq (V,)). Polyline i holds rows first[i] to
    first[i] + counts[i] - 1 of pts. Row v of seg is the segment from
    vertex v to vertex v + 1, sq[v] its squared length; the row of each
    polyline's last vertex is zero, so a single point is one zero-length
    segment. Every polyline must be a non-empty (K, 2) array of finite
    values."""
    arrays = [np.asarray(p, dtype=np.float64) for p in polylines]
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != 2 or len(a) == 0:
            raise GeometryError("polyline must be non-empty (K, 2)")
    pts = np.concatenate(arrays)
    if not np.isfinite(pts).all():
        raise GeometryError("polyline has a non-finite vertex")
    counts = np.array([len(a) for a in arrays])
    first = np.cumsum(counts) - counts
    seg = np.zeros_like(pts)
    np.subtract(pts[1:], pts[:-1], out=seg[:-1])
    seg[first[1:] - 1] = 0.0
    return pts, first, counts, seg, (seg * seg).sum(axis=1)


def _resample(pts, first, counts, seg, sq, step):
    """Every polyline of a _flatten table resampled as resample_polyline
    describes: (samples (M,2) of all polylines in order, sample count of
    each). A polyline's length, cumulative lengths and target search are
    its own reductions, since their order fixes the bits; the
    interpolation runs once for all polylines."""
    lens = np.sqrt(sq)
    cum = np.zeros(len(pts))  # arc length at each vertex along its polyline
    rows, targets, sizes, singles = [], [], [], []
    for o, k in zip(first.tolist(), counts.tolist()):
        part = lens[o:o + k - 1]
        total = float(part.sum())
        if total == 0.0:  # a point, or only zero-length segments
            singles.append((len(targets), o))
            rows.append([o])
            targets.append([0.0])
            sizes.append(1)
            continue
        n = max(1, int(math.ceil(total / step)))
        t = np.arange(n + 1) * (total / n)
        part.cumsum(out=cum[o + 1:o + k])
        # the segment each target lies on; leaving the last vertex out of
        # the search keeps it below k - 1, and cum starts at 0 <= t
        rows.append(cum[o:o + k - 1].searchsorted(t, side="right") + (o - 1))
        targets.append(t)
        sizes.append(n + 1)
    idx = np.concatenate(rows)
    safe = np.where(lens[idx] > 0, lens[idx], 1.0)
    frac = np.clip((np.concatenate(targets) - cum[idx]) / safe, 0.0, 1.0)
    samples = pts[idx] + frac[:, None] * seg[idx]
    sizes = np.array(sizes)
    if singles:  # the one sample is the first vertex itself, signed zeros too
        which, o = zip(*singles)
        samples[(np.cumsum(sizes) - sizes)[list(which)]] = pts[list(o)]
    return samples, sizes


def resample_polyline(pts, step=0.1):
    """Uniform arc-length resample with spacing <= step, endpoints included."""
    _check_step(step)
    return _resample(*_flatten([pts]), step)[0]


def _tables(pts, first, counts, seg, sq):
    """Per-polyline segment tables of a _flatten table, as views of one
    pass over all polylines. A table holds, per segment:

    - start x, start y, direction x, direction y and the squared length
      with 0 replaced by 1, each a (segments, 1) column;
    - the indices of the zero-length segments;
    - the (13, segments) frame whose first five rows those columns are;
      the other eight are the start x, y, both negated, the high corner
      of the segment's box negated and its low corner, for _nearest_sq's
      candidate test;
    - the largest coordinate magnitude of all the polylines' vertices."""
    end = pts + seg
    frame = np.concatenate([pts.T, seg.T, np.where(sq > 0, sq, 1.0)[None], pts.T, -pts.T,
                            -np.maximum(pts, end).T, np.minimum(pts, end).T])
    scale = float(np.abs(pts).max())
    zero = np.flatnonzero(sq == 0)
    ends = first + np.maximum(counts - 1, 1)
    lo, hi = np.searchsorted(zero, first), np.searchsorted(zero, ends)
    return [(*frame[:5, o:e, None], zero[z0:z1] - o, frame[:, o:e], scale)
            for o, e, z0, z1 in zip(first.tolist(), ends.tolist(), lo.tolist(), hi.tolist())]


def _segment_sq(x, y, ax, ay, abx, aby, safe, zero_length):
    """Squared euclidean distance from points (x, y) to segments, entry by
    entry after broadcasting, with segments along axis 0. A segment starts
    at (ax, ay) and runs along (abx, aby); safe is its squared length, 1
    for a zero-length segment, and zero_length indexes the rows of those,
    which are nearest at their start."""
    dx = x - ax
    dy = y - ay
    t = dx * abx
    t += dy * aby
    t /= safe
    if zero_length.size:
        t[zero_length] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    dx -= t * abx
    dy -= t * aby
    dx *= dx
    dy *= dy
    dx += dy
    return dx


# below this many segments the pruning costs more than it saves
PRUNE_SEGMENTS = 24
RUN = 16  # consecutive points that share one set of candidate segments


def _nearest_sq(points, table):
    """Squared euclidean distance from each of the (N,2) points to its
    nearest segment of the table. The square root is left to the caller:
    it is monotone, so taking it after the min gives the same bits as
    taking it per segment.

    A table of fewer than PRUNE_SEGMENTS segments, or no points, runs
    dense, segment-major (S segments, N points): each pass runs along the
    long point axis.

    A larger table compares each point only with the segments that can be
    nearest to it. The points are cut into runs of RUN consecutive points.
    A run's bound is the smallest, over segments, of the distance from the
    segment's start to the farthest corner of the run's box: every point
    of the run is at most that far from that start, so from its nearest
    segment too. A segment is a candidate of the run unless the distance
    between its box and the run's box exceeds the bound plus a margin of
    1e-9 relative to the bound and to the largest vertex coordinate of
    all polylines tabled with it (all of a chamfer_matrices call), plus
    1e-9. Rounding moves every distance and kernel entry by about 1e-16
    of those magnitudes, far below the margin, so the segment with the
    smallest computed entry is a candidate, and the segment that sets the
    bound always is one, so no run is left without. Each candidate then
    meets the run's points as one row of a (candidates, RUN) array, and
    np.minimum.reduceat takes each point's min over its run's rows; the
    last run repeats the last point to fill its row, and those entries
    are dropped.

    Either way every entry is the same arithmetic on the same operands as
    in the point-major layout, the min is exact in any order, and no
    segment left out holds a point's smallest entry, so no bit moves. A
    NaN or infinite point makes its run's bound NaN or infinite, which
    keeps every segment."""
    if len(table[0]) < PRUNE_SEGMENTS or not len(points):
        return _segment_sq(points[:, 0], points[:, 1], *table[:6]).min(axis=0)
    zero_length, frame, scale = table[5:]
    n = len(points)
    runs = -(-n // RUN)
    xy = points.T
    # each run's low x, low y and high x, high y negated, in one pass
    low = np.minimum.reduceat(np.concatenate([xy, -xy]), np.arange(0, n, RUN), axis=1)
    # (far or gap, either term, x or y, run, segment): start - low and
    # high - start, whose max is the distance from the start to the far
    # corner along x or y; then low - box high and box low - high, whose
    # max clipped at 0 is the gap between the two boxes along x or y
    d = (frame[5:, None] - np.concatenate([low, -low])[:, :, None]).reshape(2, 2, 2, runs, -1)
    far_gap = np.maximum(d[:, 0], d[:, 1])
    np.maximum(far_gap[1], 0.0, out=far_gap[1])
    far_gap *= far_gap
    far, gap = far_gap[:, 0] + far_gap[:, 1]  # squared, each (runs, segments)
    cut = np.sqrt(far.min(axis=1)) * (1.0 + 1e-9) + 1e-9 * (1.0 + scale)
    run, seg = np.nonzero(~(gap > (cut * cut)[:, None]))  # run-major
    lengthless = np.zeros(frame.shape[1], dtype=bool)
    lengthless[zero_length] = True
    xy = xy.take(np.minimum(np.arange(runs * RUN), n - 1), axis=1).reshape(2, runs, RUN)
    sq = _segment_sq(*xy[:, run], *frame[:5, seg, None], np.flatnonzero(lengthless[seg]))
    return np.minimum.reduceat(sq, np.searchsorted(run, np.arange(runs))).ravel()[:n]


def cells_near_polyline(grid: BevGrid, pts, radius):
    """(rows, cols) bools: the cells whose center lies within `radius` of
    the polyline pts. Each segment is measured only against the cells in
    its box grown by `radius` plus one cell: _segment_sq runs on flat
    arrays of one (cell, segment) pair per entry, so each pair gets its
    bits in the dense layout. The square root is monotone and the min exact,
    so the marks are those of the distance to the nearest segment."""
    table = _tables(*_flatten([pts]))[0]
    ax, ay, abx, aby = (column[:, 0] for column in table[:4])
    reach = radius + max(grid.cell_x, grid.cell_y)
    x0, x1 = np.minimum(ax, ax + abx) - reach, np.maximum(ax, ax + abx) + reach
    y0, y1 = np.minimum(ay, ay + aby) - reach, np.maximum(ay, ay + aby) + reach
    r0, c0, _ = grid.cells_of(np.stack([x0, y1], axis=1))
    r1, c1, _ = grid.cells_of(np.stack([x1, y0], axis=1))
    r0, r1 = np.maximum(r0, 0), np.minimum(r1, grid.rows - 1)
    c0, c1 = np.maximum(c0, 0), np.minimum(c1, grid.cols - 1)
    # (segment, row, col) of every cell of every segment's rectangle
    seg, rows, cols = np.indices((len(r0), max(np.max(r1 - r0), -1) + 1,
                                  max(np.max(c1 - c0), -1) + 1)).reshape(3, -1)
    rows, cols = rows + r0[seg], cols + c0[seg]
    keep = (rows <= r1[seg]) & (cols <= c1[seg])
    seg, rows, cols = seg[keep], rows[keep], cols[keep]
    # cell centers are finite, so a zero-length segment's t is 0 unforced
    sq = _segment_sq(*grid.cell_center(rows, cols), *(column[seg, 0] for column in table[:5]),
                     np.zeros(0, dtype=np.int64))
    near = np.sqrt(sq) <= radius
    mask = np.zeros((grid.rows, grid.cols), dtype=bool)
    mask[rows[near], cols[near]] = True
    return mask


class _Side:
    """Polylines resampled, tabled and boxed in array passes over all of
    their vertices; ``block`` cuts out one side of one chamfer matrix."""

    def __init__(self, polylines, step):
        flat = _flatten(polylines)
        pts, first, counts = flat[:3]
        self.samples, self.sizes = _resample(*flat, step)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.views = [self.samples[s:s + n]
                      for s, n in zip(self.starts.tolist(), self.sizes.tolist())]
        self.tables = _tables(*flat)
        self.n_segs = np.maximum(counts - 1, 1)
        self.lo = np.minimum.reduceat(pts, first, axis=0)
        self.hi = np.maximum.reduceat(pts, first, axis=0)

    def block(self, lo, hi):
        """Polylines lo to hi - 1 as a _Side of views of this one."""
        part, at = object.__new__(_Side), self.starts[lo]
        part.samples = self.samples[at:self.starts[hi - 1] + self.sizes[hi - 1]]
        part.starts = self.starts[lo:hi] - at
        for name in ("sizes", "views", "tables", "n_segs", "lo", "hi"):
            setattr(part, name, getattr(self, name)[lo:hi])
        return part


def _box_gap_sums(side, other):
    """(len(side), len(other)) sums, over each polyline's samples on
    `side`, of the euclidean distance from every sample to the box of
    each `other` polyline's vertices (0 inside the box).

    The arrays are box-major, (len(other) boxes, samples), so each pass
    and each sum runs along the long sample axis; the result is their
    transpose. Every entry is the same arithmetic as sample-major, and
    reduceat sums each polyline's run of samples in the same order
    along either axis, so the layout does not move a bit."""
    x, y = side.samples[:, 0], side.samples[:, 1]
    gx = np.maximum(other.lo[:, :1] - x, x - other.hi[:, :1])
    gy = np.maximum(other.lo[:, 1:] - y, y - other.hi[:, 1:])
    np.maximum(gx, 0.0, out=gx)
    np.maximum(gy, 0.0, out=gy)
    gx *= gx
    gy *= gy
    gx += gy
    return np.add.reduceat(np.sqrt(gx, out=gx), side.starts, axis=1).T


def chamfer_matrix(a_list, b_list, step=0.1, limit=None):
    """(len(a_list), len(b_list)) matrix of chamfer_distance(a, b).

    It is chamfer_matrices of one pair. That resamples, tables and boxes
    the polylines of all its pairs in one pass; each entry then runs the
    nearest-segment kernel, one at a time so the working memory stays that
    of one entry. No bit moves against a pass per list: each polyline
    resamples by its own reductions, and each entry's box sums and kernels
    meet the same samples and tables in the same order, laid out with the
    long sample axis innermost (see _box_gap_sums and _nearest_sq). The
    pruning margin grows with the call's largest vertex coordinate, which
    only adds candidates.

    Without `limit` every entry is exact. With it, an entry whose chamfer
    provably exceeds `limit` is inf; every other entry is exact, the same
    bits as without `limit`. The cut is `limit` plus rounding (1e-9
    relative plus 1e-9), and two proofs apply it:

    - Before any kernel runs, a lower bound: a polyline's segments lie in
      the box of its vertices, so each sample is at least its distance to
      that box away from them, and the pooled mean of those box distances
      bounds the chamfer from below. A pair whose bound exceeds the cut
      never runs the kernel; a NaN bound skips nothing.
    - A pair that passes runs its cheaper direction first (fewer samples
      times segments). The other direction's sum is >= 0, so when the
      first sum alone over the pooled sample count exceeds the cut, the
      entry is inf and the other direction never runs.
    """
    return chamfer_matrices([(a_list, b_list)], step, limit)[0]


def chamfer_matrices(pairs, step=0.1, limit=None):
    """chamfer_matrix(a_list, b_list, step, limit) of each pair, from one
    _Side over the first sides of the pairs, then their second sides."""
    _check_step(step)
    out = [np.zeros((len(a), len(b))) for a, b in pairs]
    live = [k for k, (a, b) in enumerate(pairs) if len(a) and len(b)]  # the rest resample nothing
    side = _Side([p for s in (0, 1) for k in live for p in pairs[k][s]], step) if live else None
    at = np.cumsum([0] + [len(pairs[k][s]) for s in (0, 1) for k in live]).tolist()
    cut = np.inf if limit is None else limit * (1.0 + 1e-9) + 1e-9
    for n, k in enumerate(live):
        a, b = (side.block(at[x], at[x + 1]) for x in (n, len(live) + n))
        pooled = np.add.outer(a.sizes, b.sizes)
        todo = np.ones(pooled.shape, dtype=bool)
        if limit is not None:
            bound = _box_gap_sums(a, b) + _box_gap_sums(b, a).T
            bound /= pooled
            todo = ~(bound > cut)
        ab_first = np.multiply.outer(a.sizes, b.n_segs) <= np.multiply.outer(a.n_segs, b.sizes)
        out[k] = np.full(pooled.shape, np.inf)
        for i, j in zip(*(x.tolist() for x in np.nonzero(todo))):
            ab, ba = (a.views[i], b.tables[j]), (b.views[j], a.tables[i])
            first, second = (ab, ba) if ab_first[i, j] else (ba, ab)
            d = np.sqrt(_nearest_sq(*first)).sum()
            if d / pooled[i, j] > cut:
                continue
            # float addition commutes, so this is d_ab.sum() + d_ba.sum() in
            # either order
            out[k][i, j] = (d + np.sqrt(_nearest_sq(*second)).sum()) / pooled[i, j]
    return out


def chamfer_distance(a, b, step=0.1):
    """Symmetric chamfer between polylines: both are resampled at `step`
    spacing, each sample measures distance to the other polyline's segments,
    and all samples pool into one mean. Exactly symmetric in its arguments.
    """
    return float(chamfer_matrix([a], [b], step)[0, 0])


# ---------------------------------------------------------------------------
# polyline text files:  class_id score x0 y0 x1 y1 ...
# ---------------------------------------------------------------------------

def format_polyline(class_id, score, pts):
    pts = np.asarray(pts, dtype=np.float64)
    coords = " ".join(f"{v:.6f}" for v in pts.reshape(-1).tolist())
    return f"{int(class_id)} {score:.6f} {coords}"


def parse_polyline(line, where="<string>"):
    parts = line.split()
    if len(parts) < 4 or (len(parts) - 2) % 2 != 0:
        raise GeometryError(f"{where}: malformed polyline line: {line!r}")
    try:
        class_id = int(parts[0])
        score = float(parts[1])
        vals = np.array([float(p) for p in parts[2:]], dtype=np.float64)
    except ValueError as e:
        raise GeometryError(f"{where}: {e}") from None
    if not (0 <= class_id < N_CLASSES):
        raise GeometryError(f"{where}: class id {class_id} out of range")
    if not np.isfinite(vals).all():
        raise GeometryError(f"{where}: non-finite coordinate in {line!r}")
    return class_id, score, vals.reshape(-1, 2)


def write_polylines(path, items):
    """items: iterable of (class_id, score, pts)."""
    with open(path, "w") as f:
        for class_id, score, pts in items:
            f.write(format_polyline(class_id, score, pts) + "\n")


def read_polylines(path):
    items = []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            items.append(parse_polyline(line, where=f"{path}:{ln}"))
    return items
