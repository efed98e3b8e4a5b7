"""Teacher, student and decoder networks over the shared BEV feature grid.

Three pieces: a small U-Net that encodes the overhead raster (trained once,
then frozen and reused as the alignment target), a camera student that lifts
per-camera conv features onto the BEV grid through a fixed inverse-perspective
table, and a query decoder head that turns any BEV feature map into scored
vector map elements. Teacher and student emit feature maps of identical
shape on the same grid, which is what makes dense alignment between them
well defined.
"""

import hashlib
import os

import numpy as np

from .geometry import N_CLASSES, BevGrid
from .tensors import (Tensor, add, concat, conv2d, conv_sites, custom_op, linear,
                      maxpool2, mul, parse_ten, relu, reshape, soft_points,
                      softmax_rows, spatial_mean, upsample2x, write_ten)


class EncoderError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# feature maps and parameter init
# ---------------------------------------------------------------------------

class FeatureMap:
    """A (C, H, W) feature tensor tied to the BEV grid it lives on."""

    def __init__(self, t: Tensor, grid: BevGrid):
        if t.data.ndim != 3:
            raise EncoderError(f"feature map must be (C, H, W), got {t.data.shape}")
        if t.data.shape[1:] != (grid.rows, grid.cols):
            raise EncoderError(f"feature map {t.data.shape} does not cover the "
                               f"{grid.rows}x{grid.cols} grid")
        self.tensor = t
        self.grid = grid

    @property
    def shape(self):
        return self.tensor.data.shape


def _conv_p(rng, cout, cin, k=3):
    std = np.sqrt(2.0 / (cin * k * k))
    return (Tensor(rng.normal(0.0, std, (cout, cin, k, k)), requires_grad=True),
            Tensor(np.zeros(cout), requires_grad=True))


# ---------------------------------------------------------------------------
# overhead teacher
# ---------------------------------------------------------------------------

class TeacherEncoder:
    """U-Net over the overhead raster: three pooled stages down, three
    skip-connected upsampling stages back to full resolution, where the
    last conv emits the ``c_feat``-channel feature map on the BEV grid.

    Once frozen, the teacher stores each feature map ``teacher_forward``
    computes, keyed by the raster's shape and a digest of its bytes, and
    hands the stored map out again instead of rerunning the U-Net. Stored
    arrays are read-only. A teacher that is not frozen stores nothing;
    ``freeze`` and ``adopt_params`` empty the store, since only they can
    change the parameters of a frozen teacher.
    """

    c_in = 3  # the overhead raster is RGB

    def __init__(self, rng, c_feat, widths):
        w0, w1, w2 = widths
        self.c_feat = c_feat
        self.frozen = False
        self.maps = {}  # (raster shape, raster digest) -> stored feature map
        self.params = {}
        for name, cout, cin in (("stem", w0, self.c_in), ("down1", w1, w0),
                                ("down2", w2, w1), ("down3", c_feat, w2),
                                ("up1", w2, c_feat + w2), ("up2", w1, w2 + w1),
                                ("up3", c_feat, w1 + w0)):
            w, b = _conv_p(rng, cout, cin)
            self.params[name + ".w"] = w
            self.params[name + ".b"] = b

    def forward(self, raster):
        p = self.params
        x = Tensor(raster)
        s0 = relu(conv2d(x, p["stem.w"], p["stem.b"], pad=1))
        s1 = relu(conv2d(maxpool2(s0), p["down1.w"], p["down1.b"], pad=1))
        s2 = relu(conv2d(maxpool2(s1), p["down2.w"], p["down2.b"], pad=1))
        bott = relu(conv2d(maxpool2(s2), p["down3.w"], p["down3.b"], pad=1))
        u = relu(conv2d(concat([upsample2x(bott), s2]), p["up1.w"], p["up1.b"], pad=1))
        u = relu(conv2d(concat([upsample2x(u), s1]), p["up2.w"], p["up2.b"], pad=1))
        return conv2d(concat([upsample2x(u), s0]), p["up3.w"], p["up3.b"], pad=1)

    def freeze(self):
        """Take every parameter off the tape and start an empty map store."""
        for p in self.params.values():
            p.requires_grad = False
        self.frozen = True
        self.maps = {}


def teacher_forward(teacher: TeacherEncoder, raster, grid: BevGrid) -> FeatureMap:
    """Encode an overhead raster into the shared BEV feature shape.

    A frozen teacher runs the U-Net once per distinct raster: the map goes
    into its store, read-only, and a later call with the same raster wraps
    the stored array in a new FeatureMap on ``grid``. A teacher that is not
    frozen computes every map afresh.
    """
    raster = np.asarray(raster, dtype=np.float64)
    want = (teacher.c_in, grid.rows, grid.cols)
    if raster.shape != want:
        raise EncoderError(f"overhead raster is {raster.shape}, expected {want}")
    if not teacher.frozen:
        return FeatureMap(teacher.forward(raster), grid)
    key = (raster.shape, hashlib.sha256(raster.tobytes()).digest())
    data = teacher.maps.get(key)
    if data is None:
        data = teacher.forward(raster).data
        data.flags.writeable = False  # one caller's in-place write must not reach the next
        teacher.maps[key] = data
    return FeatureMap(Tensor(data), grid)


# ---------------------------------------------------------------------------
# inverse-perspective lifting
# ---------------------------------------------------------------------------

class LiftTable:
    """One source per BEV cell: the camera whose image center lies nearest
    the cell center's projection (|u - (w-1)/2|, camera yaw as tie break,
    so the choice is invariant under permuting the rig) and the feature
    pixel (row ``fv``, col ``fu``) it lands on. ``cam`` is -1 for a cell no
    camera sees; such a cell takes the student's learned default.

    ``reads[k]``: the sorted flat feature pixels (``row * fw + col``) of
    camera k that some cell reads. The student computes camera features
    there only, as one (C, len(reads[k])) array per camera.
    ``src``: each cell's column in those arrays concatenated in rig order,
    with the default as the last column.
    """

    def __init__(self, cam, fv, fu, feat_shapes, rows, cols):
        self.cam = cam  # (rows*cols,) camera index, -1 for an unseen cell
        self.fv = fv
        self.fu = fu
        self.feat_shapes = feat_shapes
        self.rows = rows
        self.cols = cols
        fws = np.array([fw for _, fw in feat_shapes])
        pixel = fv * fws[cam] + fu
        self.reads = [np.unique(pixel[cam == k]) for k in range(len(feat_shapes))]
        offsets = np.cumsum([0] + [len(r) for r in self.reads])
        self.src = np.full(cam.shape, offsets[-1])
        for k, r in enumerate(self.reads):
            seen = cam == k
            self.src[seen] = offsets[k] + np.searchsorted(r, pixel[seen])


def build_lift_table(rig, grid: BevGrid, downsample) -> LiftTable:
    """Project every cell center into every camera and keep the best hit."""
    centers = grid.cell_centers().reshape(-1, 2)
    pts3 = np.concatenate([centers, np.zeros((len(centers), 1))], axis=1)
    n_cams, n_cells = len(rig), len(pts3)
    cent = np.full((n_cams, n_cells), np.inf)
    yaw = np.zeros((n_cams, n_cells))
    fv = np.zeros((n_cams, n_cells), dtype=np.int64)
    fu = np.zeros((n_cams, n_cells), dtype=np.int64)
    shapes = []
    for k, cam in enumerate(rig):
        if cam.height % downsample or cam.width % downsample:
            raise EncoderError(f"camera {cam.width}x{cam.height} image does not "
                               f"divide by the feature downsample {downsample}")
        fh, fw = cam.height // downsample, cam.width // downsample
        shapes.append((fh, fw))
        uv, _, valid = cam.project(pts3)
        cent[k] = np.where(valid, np.abs(uv[:, 0] - (cam.width - 1) / 2.0), np.inf)
        yaw[k] = cam.yaw
        fu[k] = np.clip(np.floor(uv[:, 0]).astype(np.int64) // downsample, 0, fw - 1)
        fv[k] = np.clip(np.floor(uv[:, 1]).astype(np.int64) // downsample, 0, fh - 1)
    best = np.lexsort((yaw, cent), axis=0)[0]
    cells = np.arange(n_cells)
    cam_best = np.where(np.isfinite(cent[best, cells]), best, -1)
    return LiftTable(cam_best, fv[best, cells], fu[best, cells], shapes,
                     grid.rows, grid.cols)


def lift_features(cam_feats, table: LiftTable, default: Tensor) -> Tensor:
    """Gather each BEV cell's vector from its table source: one read
    camera pixel, or the learned default for a cell no camera sees.
    ``cam_feats[k]`` is (C, len(table.reads[k])), camera k's features at
    its read pixels. Gradients scatter back into the camera features and
    the default vector.
    """
    if len(cam_feats) != len(table.feat_shapes):
        raise EncoderError(f"{len(cam_feats)} feature maps for a "
                           f"{len(table.feat_shapes)}-camera table")
    c = default.data.shape[0]
    for f, reads in zip(cam_feats, table.reads):
        if f.data.shape != (c, len(reads)):
            raise EncoderError(f"camera features {f.data.shape}, table expects "
                               f"({c}, {len(reads)})")
    flat = np.concatenate([f.data for f in cam_feats] + [default.data[:, None]], axis=1)
    n_src = flat.shape[1]  # bwd holds no reference to flat, so it is freed

    def bwd(g):
        # one bin per (channel, source); cells sharing a source add in cell order
        bins = (np.arange(c)[:, None] * n_src + table.src).ravel()
        d = np.bincount(bins, g.ravel(), minlength=c * n_src).reshape(c, n_src)
        parts = np.split(d, np.cumsum([len(r) for r in table.reads]), axis=1)
        return tuple(parts[:-1]) + (parts[-1][:, 0],)

    return custom_op(flat[:, table.src].reshape(c, table.rows, table.cols),
                     tuple(cam_feats) + (default,), bwd, "lift")


# ---------------------------------------------------------------------------
# camera student
# ---------------------------------------------------------------------------

class StudentEncoder:
    """Shared per-camera conv extractor, IPM lifting, BEV refinement.

    The lifting table is built once per (rig, grid) pair and cached; the
    cache key is the full pose/intrinsics tuple so a permuted rig simply
    builds the permuted table. In ``lift`` the second camera conv computes
    only the feature pixels in the table's ``reads``, as (C, len(reads))
    columns that the lift gathers from; no other camera feature pixel
    exists. The conv's index arrays for those pixels are built with the
    table, once per camera. The lift sees only the images and the rig, so
    training and evaluation lift alike.
    """

    c_in = 3  # the camera images are RGB

    def __init__(self, rng, c_feat, width, downsample):
        self.c_feat = c_feat
        self.downsample = downsample
        self.params = {}
        for name, cout, cin in (("cam1", width, self.c_in), ("cam2", c_feat, width),
                                ("ref1", c_feat, c_feat),
                                ("ref2", c_feat, c_feat)):
            w, b = _conv_p(rng, cout, cin)
            self.params[name + ".w"] = w
            self.params[name + ".b"] = b
        # the "unseen cell" vector, learned
        self.params["default"] = Tensor(np.zeros(c_feat), requires_grad=True)
        self._tables = {}  # key -> (LiftTable, the cam2 conv's sites per camera)

    def extract(self, image, sites=None) -> Tensor:
        """(C, fh, fw) camera feature map, or with ``sites`` (the second
        conv's ``conv_sites``, as ``_lift_plan`` builds them) only the
        feature pixels they hold, as (C, len(sites.at)) columns."""
        p = self.params
        x = Tensor(image)
        h = relu(conv2d(x, p["cam1.w"], p["cam1.b"], stride=2, pad=1))
        if self.downsample == 4:
            h = maxpool2(h)
        return relu(conv2d(h, p["cam2.w"], p["cam2.b"], pad=1, at=sites))

    def _lift_plan(self, rig, grid):
        """(LiftTable, cam2 conv sites per camera) of one (rig, grid)."""
        key = (tuple((tuple(c.position), c.yaw, c.pitch, c.focal,
                      c.width, c.height, c.cx, c.cy) for c in rig),
               grid.key)
        if key not in self._tables:
            table = build_lift_table(rig, grid, self.downsample)
            k = self.params["cam2.w"].data.shape
            sites = [conv_sites((k[1],) + shape, k[2:], reads, pad=1)
                     for shape, reads in zip(table.feat_shapes, table.reads)]
            self._tables[key] = table, sites
        return self._tables[key]

    def lift(self, images, rig, grid) -> Tensor:
        if len(images) != len(rig):
            raise EncoderError(f"{len(images)} images for a {len(rig)}-camera rig")
        table, sites = self._lift_plan(rig, grid)
        feats = [self.extract(img, s) for img, s in zip(images, sites)]
        return lift_features(feats, table, self.params["default"])

    def forward(self, images, rig, grid) -> Tensor:
        p = self.params
        lifted = self.lift(images, rig, grid)
        h = relu(conv2d(lifted, p["ref1.w"], p["ref1.b"], pad=1))
        return add(conv2d(h, p["ref2.w"], p["ref2.b"], pad=1), lifted)


def student_forward(student: StudentEncoder, images, rig, grid: BevGrid) -> FeatureMap:
    """Encode the camera images into the shared BEV feature shape."""
    return FeatureMap(student.forward(images, rig, grid), grid)


# ---------------------------------------------------------------------------
# map decoder head
# ---------------------------------------------------------------------------

def _anchor_layout(n, aspect):
    """Factor n into (rows, cols) whose cols/rows ratio best fits aspect."""
    best = (1, n)
    for r in range(1, n + 1):
        if n % r:
            continue
        c = n // r
        if abs(c / r - aspect) < abs(best[1] / best[0] - aspect):
            best = (r, c)
    return best


class MapDecoder:
    """Region-anchored query slots over one shared hidden conv.

    The feature map is pooled to half resolution and mixed by a hidden
    conv that also sees two normalized coordinate channels. Each query
    owns a soft Gaussian region of the grid: its class logits come from
    pooling its channel group under that region's mask, and its K points
    come from soft-argmax of per-point attention maps (biased by the
    region's log-prior) over the metric coordinate grid. Every point is a
    differentiable position inside the grid, and queries bind to stable,
    distinct regions instead of competing for the whole scene. The point
    conv has no bias, which each attention map's softmax would cancel.
    """

    def __init__(self, rng, grid: BevGrid, c_in, n_queries, n_points, hidden):
        self.grid_key = grid.key
        self.c_in = c_in
        self.n_queries = n_queries
        self.n_points = n_points
        self.hidden = hidden
        h2, w2 = grid.rows // 2, grid.cols // 2
        yy, xx = np.meshgrid(np.linspace(-1.0, 1.0, h2),
                             np.linspace(-1.0, 1.0, w2), indexing="ij")
        self._coords = Tensor(np.stack([xx, yy]))
        my, mx = np.meshgrid(np.linspace(grid.y_max, grid.y_min, h2),
                             np.linspace(grid.x_min, grid.x_max, w2),
                             indexing="ij")
        self._metric = np.stack([mx, my])
        ar, ac = _anchor_layout(n_queries,
                                (grid.x_max - grid.x_min) / (grid.y_max - grid.y_min))
        ax = grid.x_min + (np.arange(ac) + 0.5) * (grid.x_max - grid.x_min) / ac
        ay = grid.y_max - (np.arange(ar) + 0.5) * (grid.y_max - grid.y_min) / ar
        sx = (grid.x_max - grid.x_min) / ac
        sy = (grid.y_max - grid.y_min) / ar
        logp = np.zeros((n_queries, h2, w2))
        for q in range(n_queries):
            cx, cy = ax[q % ac], ay[q // ac]
            logp[q] = -0.5 * (((mx - cx) / sx) ** 2 + ((my - cy) / sy) ** 2)
        mask = np.exp(logp)
        mask *= (h2 * w2) / mask.sum(axis=(1, 2), keepdims=True)
        self._slot_mask = Tensor(np.repeat(mask, hidden, axis=0))
        self._att_bias = Tensor(np.repeat(logp, n_points, axis=0))
        self.params = {}
        w, b = _conv_p(rng, n_queries * hidden, c_in + 2)
        self.params["mix.w"] = w
        self.params["mix.b"] = b
        self.params["cls.w"] = Tensor(rng.normal(0.0, np.sqrt(1.0 / hidden),
                                                 (hidden, N_CLASSES + 1)), requires_grad=True)
        self.params["cls.b"] = Tensor(np.zeros(N_CLASSES + 1), requires_grad=True)
        self.params["pts.w"], _ = _conv_p(rng, n_queries * n_points, n_queries * hidden)

    def forward(self, fmap: FeatureMap):
        """Returns (logits (Q, n_classes+1), points (Q, K, 2)) tensors."""
        if fmap.shape[0] != self.c_in or fmap.grid.key != self.grid_key:
            raise EncoderError(f"decoder built for {self.c_in} channels on "
                               f"{self.grid_key}, got {fmap.shape} on "
                               f"{fmap.grid.key}")
        p = self.params
        x = concat([maxpool2(fmap.tensor), self._coords])
        h = relu(conv2d(x, p["mix.w"], p["mix.b"], pad=1))
        pooled = spatial_mean(mul(h, self._slot_mask))
        slots = reshape(pooled, (self.n_queries, self.hidden))
        logits = linear(slots, p["cls.w"], p["cls.b"])
        att = add(conv2d(h, p["pts.w"], pad=1), self._att_bias)
        pts = soft_points(att, self._metric)
        return logits, reshape(pts, (self.n_queries, self.n_points, 2))


def decode_map(decoder: MapDecoder, fmap: FeatureMap):
    """Run the decoder and keep the queries whose argmax is a map class.

    Returns (class_id, score, points) tuples; score is the softmax
    posterior of the winning class.
    """
    logits, points = decoder.forward(fmap)
    p = softmax_rows(logits.data)
    out = []
    for q in range(decoder.n_queries):
        cid = int(np.argmax(p[q]))
        if cid == N_CLASSES:  # background slot
            continue
        out.append((cid, float(p[q, cid]), points.data[q].copy()))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def named_params(models) -> dict:
    """One ``<model>.<param>`` dict over a {model name: model} dict."""
    return {f"{name}.{k}": v for name, m in models.items()
            for k, v in m.params.items()}


def params_checksum(params) -> str:
    """Order-independent digest of a named parameter dict."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def save_checkpoint(path, params, meta=None):
    """Write one .ten per parameter plus manifest.txt.

    Manifest lines are `param <name> <shape> <sha256> <frozen>` (frozen
    meaning the parameter does not require gradients) followed by one
    `<key> <value>` line per meta entry.
    """
    os.makedirs(path, exist_ok=True)
    # the manifest marks the checkpoint complete: the old one goes before any
    # parameter file is rewritten and the new one comes last, so a write cut
    # short leaves no manifest rather than one over the wrong files
    manifest = os.path.join(path, "manifest.txt")
    if os.path.exists(manifest):
        os.remove(manifest)
    lines = []
    for name in sorted(params):
        p = params[name]
        fn = os.path.join(path, name + ".ten")
        digest = hashlib.sha256(write_ten(fn, p.data)).hexdigest()
        shape = "x".join(str(d) for d in p.data.shape) or "scalar"
        frozen = 0 if p.requires_grad else 1
        lines.append(f"param {name} {shape} {digest} {frozen}")
    for key, val in (meta or {}).items():
        lines.append(f"{key} {val}")
    with open(manifest + ".tmp", "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(manifest + ".tmp", manifest)


def load_checkpoint(path):
    """Read a checkpoint directory back into (params, meta).

    Every parameter file is checksummed against the manifest before use;
    frozen parameters come back with requires_grad off.
    """
    manifest = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest):
        raise EncoderError(f"no manifest.txt under {path}")
    params, meta = {}, {}
    with open(manifest) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] != "param":
                meta[parts[0]] = " ".join(parts[1:])
                continue
            if len(parts) != 5:
                raise EncoderError(f"bad manifest line: {line.rstrip()!r}")
            name, shape, digest, frozen = parts[1:]
            fn = os.path.join(path, name + ".ten")
            with open(fn, "rb") as g:
                raw = g.read()
            if hashlib.sha256(raw).hexdigest() != digest:
                raise EncoderError(f"checksum mismatch for {fn}")
            arr = parse_ten(raw, fn)
            want = "x".join(str(d) for d in arr.shape) or "scalar"
            if want != shape:
                raise EncoderError(f"{fn}: shape {want}, manifest says {shape}")
            params[name] = Tensor(arr, requires_grad=frozen == "0")
    return params, meta


def adopt_params(model, params, prefix=""):
    """Replace a model's parameters with checkpointed tensors in place.

    A teacher counts as frozen when none of the adopted tensors requires
    gradients, and its map store is emptied either way, since the maps in
    it came from the old parameters.
    """
    for name in model.params:
        key = prefix + name
        if key not in params:
            raise EncoderError(f"checkpoint missing parameter {key}")
        if params[key].data.shape != model.params[name].data.shape:
            raise EncoderError(f"{key}: checkpoint shape "
                               f"{params[key].data.shape} vs model "
                               f"{model.params[name].data.shape}")
        model.params[name] = params[key]
    if isinstance(model, TeacherEncoder):
        model.frozen = not any(p.requires_grad for p in model.params.values())
        model.maps = {}


# ---------------------------------------------------------------------------
# teacher pretraining
# ---------------------------------------------------------------------------

def batch_stream(rng, n, batch):
    """Endless stream of index batches; reshuffles each epoch."""
    while True:
        order = rng.permutation(n)
        if n < batch:
            yield np.resize(order, batch)
            continue
        for i in range(0, n - batch + 1, batch):
            yield order[i:i + batch]


def pretrain_teacher(cfg, train_samples, log_path=None):
    """Train the overhead encoder plus a decoder head, then freeze the encoder.

    Every setting comes from ``cfg`` (a RunConfig), whose builders draw
    the teacher, then the decoder, from the ``teacher_seed`` rng. The step
    loop is ``supervision.fit`` on the detection loss alone; its
    ``log_path`` gets one line per step as it trains, with 0.0 for l_bev.
    Returns (teacher, decoder), the teacher frozen; scoring them is the
    caller's (``harness.ensure_teacher``). A non-finite loss aborts with an
    EncoderError naming the step.
    """
    if not train_samples:
        raise EncoderError("teacher pretraining needs a non-empty train split")
    # late import; supervision builds on this module
    from .supervision import fit
    rng = np.random.default_rng(cfg.teacher_seed)
    teacher, decoder, grid = cfg.teacher(rng), cfg.decoder(rng), cfg.grid()
    fit(cfg, {"teacher": teacher, "decoder": decoder},
        lambda s: teacher_forward(teacher, s.overhead, grid), train_samples,
        batch_stream(rng, len(train_samples), cfg.batch), cfg.teacher_steps, log_path,
        error=EncoderError)
    teacher.freeze()
    return teacher, decoder
