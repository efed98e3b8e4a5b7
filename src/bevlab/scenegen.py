"""Procedural cross-view scene generation and rendering.

A scene is a small road network (curved centerlines with lane structure)
expressed as vector ground truth: two boundary polylines per road, a
divider per interior lane edge, and optional pedestrian crossings, plus a
set of box occluders that exist only for the perspective cameras.

Ground colors are quantized to BEV grid cells: the overhead raster assigns
one color per cell, and camera rays that hit a cell's ground patch return
exactly that color. This makes the two views pixel-consistent wherever the
ground is unoccluded, which the tests exploit as an exact oracle. The
overhead render ignores occluders entirely (its privilege); cameras see
occluder faces in front of the ground they hide.

Rendering computes, in array passes, only what can change a pixel: road
cells against the centerline segments in reach, boxes on the pixels their
corners' projections bound, background for ground seen off the grid. Each
value keeps the arithmetic of the dense render, so the bytes are its own.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .geometry import (BevGrid, cells_near_polyline, extended_grid, rasterize_polyline,
                       read_polylines, write_polylines)
from .tensors import TensorError, check_ten, parse_ten, read_ten, write_ten

LANE_WIDTH = 3.2
ROAD_COLOR = (0.45, 0.45, 0.47)
CLASS_COLORS = {
    0: (0.80, 0.85, 0.90),  # ped_crossing
    1: (0.85, 0.75, 0.20),  # divider
    2: (0.92, 0.92, 0.95),  # boundary
}
SKY_COLOR = (0.60, 0.72, 0.90)
MIN_ROAD_INSIDE = 25.0  # meters of centerline required inside the extended RoI


class SceneGenError(RuntimeError):
    pass


class Road:
    def __init__(self, centerline, half_width):
        self.centerline = np.asarray(centerline, dtype=np.float64)
        self.half_width = float(half_width)


class Scene:
    """Vector ground truth plus camera-only occluders.

    ground_truth: list of (class_id, score, pts); occluders: list of
    (x0, x1, y0, y1, height) boxes standing on the ground plane.
    """

    def __init__(self, seed, texture_seed, roads, ground_truth, occluders):
        self.seed = int(seed)
        self.texture_seed = int(texture_seed)
        self.roads = list(roads)
        self.ground_truth = list(ground_truth)
        self.occluders = [tuple(float(v) for v in o) for o in occluders]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _march_centerline(anchor, heading, kappa, length=150.0, step=2.0):
    """Constant-curvature march centered on the anchor point."""
    half_steps = int(length / (2 * step))
    anchor = np.asarray(anchor, dtype=np.float64)
    fwd = [anchor]
    h = heading
    for _ in range(half_steps):
        fwd.append(fwd[-1] + step * np.array([math.cos(h), math.sin(h)]))
        h += kappa * step
    bwd = []
    h = heading
    cur = anchor
    for _ in range(half_steps):
        h -= kappa * step
        cur = cur - step * np.array([math.cos(h), math.sin(h)])
        bwd.append(cur)
    return np.array(list(reversed(bwd)) + fwd)


def _vertex_normals(pts):
    """Unit left-normals at each vertex (averaged segment directions)."""
    seg = np.diff(pts, axis=0)
    seg = seg / np.linalg.norm(seg, axis=1, keepdims=True)
    dirs = np.vstack([seg[:1], 0.5 * (seg[:-1] + seg[1:]), seg[-1:]])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)


def _inside_length(pts, grid: BevGrid):
    seg = np.diff(pts, axis=0)
    lens = np.sqrt((seg ** 2).sum(axis=1))
    mids = 0.5 * (pts[:-1] + pts[1:])
    _, _, inside = grid.cells_of(mids)
    return float(lens[inside].sum())


def generate_scene(cfg, seed, band) -> Scene:
    """Deterministic scene from ``seed`` and the corpus fields of ``cfg`` (a
    RunConfig); each road's curvature is ``cfg.curvature`` times a uniform
    draw from ``band`` (lo, hi). Raises SceneGenError when the layout
    constraints cannot be met within the retry budget."""
    rng = np.random.default_rng(seed)
    texture_seed = int(rng.integers(0, 2 ** 62))
    ext = extended_grid()
    n_roads = int(rng.integers(cfg.road_count[0], cfg.road_count[1] + 1))
    roads = []
    gt = []
    for _ in range(n_roads):
        for attempt in range(60):
            anchor = rng.uniform([-30.0, -15.0], [30.0, 15.0])
            heading = rng.uniform(0.0, 2.0 * math.pi)
            kappa = rng.uniform(band[0], band[1]) * cfg.curvature
            kappa *= -1.0 if rng.random() < 0.5 else 1.0
            lanes = int(rng.integers(cfg.lane_count[0], cfg.lane_count[1] + 1))
            half_width = lanes * LANE_WIDTH / 2.0
            if kappa != 0.0 and 1.0 / abs(kappa) <= half_width + LANE_WIDTH:
                continue  # offsets would fold over the curvature radius
            centerline = _march_centerline(anchor, heading, kappa)
            if _inside_length(centerline, ext) < MIN_ROAD_INSIDE:
                continue
            normals = _vertex_normals(centerline)
            edges = [centerline + half_width * normals, centerline - half_width * normals]
            lanes_gt = [centerline + (-half_width + k * LANE_WIDTH) * normals
                        for k in range(1, lanes)]
            if all(_inside_length(p, ext) >= 10.0 for p in edges + lanes_gt):
                break
        else:
            raise SceneGenError(
                f"seed {seed}: no valid road after 60 attempts (over-constrained)")
        roads.append(Road(centerline, half_width))
        gt.append((2, 1.0, edges[0]))
        gt.append((2, 1.0, edges[1]))
        for divider in lanes_gt:
            gt.append((1, 1.0, divider))
        if rng.random() < cfg.crossing_probability:
            # perpendicular stripe across the road at an in-RoI interior vertex
            interior = np.flatnonzero(ext.cells_of(centerline[1:-1])[2]) + 1
            if interior.size:
                i = interior[int(rng.integers(0, len(interior)))]
                n = normals[i]
                c = centerline[i]
                reach = half_width + 0.5
                gt.append((0, 1.0, np.array([c - reach * n, c + reach * n])))
    occluders = []
    n_occ = int(rng.integers(cfg.occluder_count[0], cfg.occluder_count[1] + 1))
    for _ in range(n_occ):
        road = roads[int(rng.integers(0, len(roads)))]
        i = int(rng.integers(0, len(road.centerline)))
        n = _vertex_normals(road.centerline)[i]
        side = -1.0 if rng.random() < 0.5 else 1.0
        size = rng.uniform(*cfg.occluder_size)
        gap = rng.uniform(0.5, 2.0)
        center = road.centerline[i] + side * (road.half_width + gap + size / 2.0) * n
        height = rng.uniform(1.5, 2.5)
        occluders.append((center[0] - size / 2.0, center[0] + size / 2.0,
                          center[1] - size / 2.0, center[1] + size / 2.0, height))
    return Scene(seed, texture_seed, roads, gt, occluders)


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    z = (np.asarray(x).astype(np.uint64) + _SM_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def background_color(texture_seed, rows, cols):
    """(3, ...) background colors for (possibly out-of-grid) cell indices."""
    rows = np.asarray(rows, dtype=np.int64).astype(np.uint64)
    cols = np.asarray(cols, dtype=np.int64).astype(np.uint64)
    base = splitmix64(rows * np.uint64(0x9E3779B1) ^ splitmix64(cols))
    h = splitmix64(base ^ np.uint64(texture_seed))
    out = np.empty((3,) + h.shape, dtype=np.float64)
    for c in range(3):
        byte = ((h >> np.uint64(8 * c)) & np.uint64(0xFF)).astype(np.float64) / 255.0
        out[c] = 0.30 + 0.10 * byte
    return out


def render_overhead(scene: Scene, grid: BevGrid) -> np.ndarray:
    """Cell-quantized (3, rows, cols) top view: background hash, road fill,
    class markings.

    Occluders never appear here. Values lie in [0, 1].
    """
    rr, cc = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    img = background_color(scene.texture_seed, rr, cc)
    road_mask = np.zeros((grid.rows, grid.cols), dtype=bool)
    for road in scene.roads:
        road_mask |= cells_near_polyline(grid, road.centerline, road.half_width)
    img[:, road_mask] = np.array(ROAD_COLOR)[:, None]
    # markings paint over the road; boundary > divider > crossing priority,
    # so each cell keeps 1 + the highest class id that passes through it
    canvas = np.zeros((grid.rows, grid.cols), dtype=np.int64)
    marks = sorted(scene.ground_truth, key=lambda element: element[0])
    if marks:  # one walk over every marking, each painted 1 + its class id
        counts = [len(pts) for _, _, pts in marks]
        rasterize_polyline(grid, np.concatenate([pts for _, _, pts in marks]), canvas,
                           [cid + 1 for cid, _, _ in marks], np.cumsum(counts) - counts)
    for cid, color in CLASS_COLORS.items():
        img[:, canvas == cid + 1] = np.array(color)[:, None]
    return img


def _ray_box_hits(origin, dirs, box):
    """Slab test of rays against one occluder; returns (t_entry, hit mask)."""
    x0, x1, y0, y1, h = box
    lo = np.array([x0, y0, 0.0])
    hi = np.array([x1, y1, h])
    t_near = np.full(dirs.shape[:-1], -np.inf)
    t_far = np.full(dirs.shape[:-1], np.inf)
    for ax in range(3):
        d = dirs[..., ax]
        o = origin[ax]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[ax] - o) / d
            tb = (hi[ax] - o) / d
        axial = d == 0.0
        inside = (o >= lo[ax]) & (o <= hi[ax])
        a_lo = np.where(axial, np.where(inside, -np.inf, np.inf), np.minimum(ta, tb))
        a_hi = np.where(axial, np.where(inside, np.inf, -np.inf), np.maximum(ta, tb))
        t_near = np.maximum(t_near, a_lo)
        t_far = np.minimum(t_far, a_hi)
    hit = (t_near <= t_far) & (t_far > 1e-9)
    entry = np.maximum(t_near, 0.0)
    return np.where(hit, entry, np.inf), hit


def occluder_color(texture_seed, index):
    # mix in python ints to avoid numpy scalar overflow warnings
    key = (int(texture_seed) ^ (int(index) * 0xD1B54A32D192ED03)) % (1 << 64)
    h = int(splitmix64(np.array([key], dtype=np.uint64))[0])
    u = float(h & 0xFFFF) / 65535.0
    return np.array([0.50 + 0.15 * u, 0.33 + 0.10 * u, 0.24 + 0.08 * u])


def _box_windows(cam, occluders):
    """Per (x0, x1, y0, y1, height) box, the (rows, cols) slices of cam's
    image whose rays can hit it: None with every corner behind the camera
    plane (z < -1e-6), all of it with a corner behind or within 1e-6 of
    it, else the pixels whose centers lie within the projected corners'
    span plus one pixel on each side, far more than rounding can move."""
    boxes = np.array(occluders, dtype=np.float64).reshape(-1, 5)
    lims = np.concatenate([boxes[:, :4], np.zeros((len(boxes), 1)), boxes[:, 4:]], axis=1)
    corners = lims[:, [(i, 2 + j, 4 + k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]]
    uv, z, _ = cam.project(corners.reshape(-1, 3))
    uv = np.clip(uv, -1.0, [cam.width + 1.0, cam.height + 1.0]).reshape(-1, 8, 2)
    lo = np.maximum(np.ceil(uv.min(axis=1) - 0.5).astype(np.int64) - 1, 0).tolist()
    hi = (np.floor(uv.max(axis=1) - 0.5).astype(np.int64) + 2).tolist()
    return [None if np.all(zb < -1e-6) else np.s_[:, :] if np.any(zb <= 1e-6)
            else np.s_[l[1]:h[1], l[0]:h[0]] for zb, l, h in zip(z.reshape(-1, 8), lo, hi)]


def render_cameras(scene: Scene, rig, grid: BevGrid, overhead):
    """Perspective views of the quantized ground, with occluder shadowing.

    Where a camera ray reaches unoccluded ground inside the grid, the pixel
    is bitwise equal to that cell's color in ``overhead``, the scene's
    ``render_overhead`` on ``grid``. A box is slab-tested only on the
    pixels _box_windows gives it, boxes in scene order and the first of the
    nearest winning, so every pixel keeps the bits of testing every box on
    the whole image. Camera.pixel_dirs gives each camera's rays and
    Camera.ground_rays where they meet the ground, both made once.
    """
    paint = np.array([occluder_color(scene.texture_seed, i) for i in range(len(scene.occluders))])
    images = []
    for cam in rig:
        dirs = cam.pixel_dirs()
        t_ground, ground, ground_hits = cam.ground_rays()
        # nearest occluder along each ray
        t_occ = np.full(t_ground.shape, np.inf)
        occ_id = np.full(t_ground.shape, -1, dtype=np.int64)
        for bi, (box, win) in enumerate(zip(scene.occluders, _box_windows(cam, scene.occluders))):
            if win is not None:
                entry, hit = _ray_box_hits(cam.position, dirs[win], box)
                closer = hit & (entry < t_occ[win])
                np.copyto(t_occ[win], entry, where=closer)
                np.copyto(occ_id[win], bi, where=closer)
        img = np.repeat(np.array(SKY_COLOR)[:, None], t_ground.size, axis=1)
        # the ground pixels no occluder hides, and the cells they see
        keep = t_ground.reshape(-1)[ground] <= t_occ.reshape(-1)[ground]
        seen = ground[keep]
        rows, cols, inside = grid.cells_of(ground_hits[keep])
        img[:, seen] = overhead.reshape(3, -1)[:, np.where(inside, rows * grid.cols + cols, 0)]
        img[:, seen[~inside]] = background_color(scene.texture_seed, rows[~inside], cols[~inside])
        occluded = np.flatnonzero(t_occ < t_ground)
        img[:, occluded] = paint[occ_id.reshape(-1)[occluded]].T
        images.append(img.reshape((3,) + t_ground.shape))
    return images


def cell_visibility(scene: Scene, rig, grid: BevGrid) -> np.ndarray:
    """(n_cams, rows, cols) bools: cell center projects into the camera and
    the sight line to it clears every occluder."""
    centers = grid.cell_centers().reshape(-1, 2)
    pts3 = np.concatenate([centers, np.zeros((len(centers), 1))], axis=1)
    vis = np.zeros((len(rig), grid.rows, grid.cols), dtype=bool)
    for k, cam in enumerate(rig):
        _, _, valid = cam.project(pts3)
        seg = pts3 - cam.position
        blocked = np.zeros(len(pts3), dtype=bool)
        for box in scene.occluders:
            entry, hit = _ray_box_hits(cam.position, seg, box)
            blocked |= hit & (entry < 1.0)
        vis[k] = (valid & ~blocked).reshape(grid.rows, grid.cols)
    return vis


# ---------------------------------------------------------------------------
# dataset export / load
# ---------------------------------------------------------------------------

def export_dataset(path, cfg):
    """Generate, render and write a dataset directory; returns manifest rows.

    ``cfg`` (a RunConfig) gives the scene counts ``n_train`` and ``n_val``,
    the corpus fields ``generate_scene`` reads, and the rig and grid the
    scenes render on. ``manifest.txt`` lists one ``scene_id split seed``
    line per scene, and each ``scene_<idx>/`` holds ``overhead.ten``, one
    ``cam_<k>.ten`` per camera and ``gt.txt``, the one copy of the vector
    ground truth. Train and validation draw disjoint seed ranges AND
    disjoint curvature bands (validation roads curve more), so validation
    layouts form a family never seen in training.
    """
    rig, grid = cfg.rig(), cfg.grid()
    os.makedirs(path, exist_ok=True)
    rows = []
    for idx in range(cfg.n_train + cfg.n_val):
        split = "train" if idx < cfg.n_train else "val"
        seed = idx
        band = (0.0, 0.75) if split == "train" else (0.78, 1.0)
        scene = generate_scene(cfg, seed, band)
        sid = f"scene_{idx:04d}"
        sdir = os.path.join(path, sid)
        os.makedirs(sdir, exist_ok=True)
        overhead = render_overhead(scene, grid)
        write_ten(os.path.join(sdir, "overhead.ten"), overhead)
        for k, img in enumerate(render_cameras(scene, rig, grid, overhead)):
            write_ten(os.path.join(sdir, f"cam_{k}.ten"), img)
        write_polylines(os.path.join(sdir, "gt.txt"), scene.ground_truth)
        rows.append((sid, split, seed))
    with open(os.path.join(path, "manifest.txt"), "w") as f:
        for sid, split, seed in rows:
            f.write(f"{sid} {split} {seed}\n")
    return rows


class Sample:
    """One loaded scene: its directory's ``overhead.ten``, ``cam_<k>.ten``
    files in camera order and ``gt.txt`` elements; other files are ignored.

    ``cams`` is the list of camera images, or the scene's camera files as
    ``load_dataset`` checked them. Files are read the first time ``.cams``
    is used, each once, and the images kept from then on: only the
    student looks at them, so teacher pretraining and evaluation never
    hold them in memory."""

    def __init__(self, scene_id, split, seed, overhead, cams, gt):
        self.scene_id = scene_id
        self.split = split
        self.seed = seed
        self.overhead = overhead
        self._cams = cams
        self.gt = gt

    @property
    def cams(self):
        if isinstance(self._cams, _CameraFiles):
            self._cams = self._cams.read()
        return self._cams


def _stamp(stat):
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


class _CameraFiles:
    """One scene's camera files, each header checked against its size and
    the file's (inode, size, mtime) noted when the scene is loaded."""

    def __init__(self, scene_id, paths):
        self.scene_id = scene_id
        self.stamps = [(path, _stamp(check_ten(path))) for path in paths]

    def read(self):
        """The images; raises SceneGenError naming the scene and the file if
        a file is gone or is not the one checked at load (``ensure_dataset``
        re-exports the corpus in place when the config changes)."""
        images = []
        for path, stamp in self.stamps:
            try:
                with open(path, "rb") as f:
                    if _stamp(os.fstat(f.fileno())) != stamp:
                        raise SceneGenError(f"{path}: replaced since the scene was loaded")
                    images.append(parse_ten(f.read(), path))
            except (OSError, TensorError, SceneGenError) as e:
                raise SceneGenError(f"{self.scene_id}: {e}") from e
        return images


def read_manifest(path):
    rows = []
    with open(os.path.join(path, "manifest.txt")) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise SceneGenError(f"manifest line malformed: {line!r}")
            rows.append((parts[0], parts[1], int(parts[2])))
    return rows


def load_dataset(path, split=None):
    """Yields Sample objects in manifest order; errors name the scene id.

    The overhead raster and gt are read here. Each camera file is opened
    and its header checked against its size, but its payload is read only
    when the sample's ``.cams`` is first used."""
    for sid, sp, seed in read_manifest(path):
        if split is not None and sp != split:
            continue
        sdir = os.path.join(path, sid)
        try:
            overhead = read_ten(os.path.join(sdir, "overhead.ten"))
            paths = []
            while os.path.exists(cam := os.path.join(sdir, f"cam_{len(paths)}.ten")):
                paths.append(cam)
            if not paths:
                raise SceneGenError("no camera tensors found")
            cams = _CameraFiles(sid, paths)
            gt = read_polylines(os.path.join(sdir, "gt.txt"))
        except Exception as e:
            raise SceneGenError(f"{sid}: {e}") from e
        yield Sample(sid, sp, seed, overhead, cams, gt)
