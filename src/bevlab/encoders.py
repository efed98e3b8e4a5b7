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

from .geometry import N_CLASSES, BevGrid, default_rig
from .mapeval import EvalConfig, evaluate
from .tensors import (Tensor, add, concat, conv2d, custom_op, linear, maxpool2,
                      mul, read_ten, relu, reshape, soft_points, softmax_rows,
                      spatial_mean, tensor, upsample2x, write_ten)


class EncoderError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# feature maps and parameter init
# ---------------------------------------------------------------------------

class FeatureMap:
    """A (C, H, W) feature tensor tied to the BEV grid it lives on."""

    def __init__(self, t: Tensor, grid: BevGrid, producer: str):
        if t.data.ndim != 3:
            raise EncoderError(f"feature map must be (C, H, W), got {t.data.shape}")
        if t.data.shape[1:] != (grid.rows, grid.cols):
            raise EncoderError(f"feature map {t.data.shape} does not cover the "
                               f"{grid.rows}x{grid.cols} grid")
        self.tensor = t
        self.grid = grid
        self.producer = producer

    @property
    def shape(self):
        return self.tensor.data.shape


def _conv_p(rng, cout, cin, k=3):
    std = np.sqrt(2.0 / (cin * k * k))
    w = Tensor(rng.normal(0.0, std, (cout, cin, k, k)))
    w.requires_grad = True
    b = Tensor(np.zeros(cout))
    b.requires_grad = True
    return w, b


def _lin_p(rng, n, m):
    w = Tensor(rng.normal(0.0, np.sqrt(1.0 / n), (n, m)))
    w.requires_grad = True
    b = Tensor(np.zeros(m))
    b.requires_grad = True
    return w, b


def _constant(data):
    return Tensor(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# overhead teacher
# ---------------------------------------------------------------------------

class TeacherEncoder:
    """U-Net over the overhead raster: three pooled stages down, three
    skip-connected upsampling stages back to full resolution.

    The bottleneck width equals the output width so either layer can serve
    as the exported feature map (``feature_layer`` = "final" keeps the
    default, "bottleneck" nearest-upsamples the coarsest stage instead).
    """

    def __init__(self, rng, c_in=3, c_feat=16, widths=(12, 16, 24),
                 feature_layer="final"):
        if feature_layer not in ("final", "bottleneck"):
            raise EncoderError(f"unknown feature layer {feature_layer!r}")
        w0, w1, w2 = widths
        self.c_in = c_in
        self.c_feat = c_feat
        self.feature_layer = feature_layer
        self.frozen = False
        self.params = {}
        for name, cout, cin in (("stem", w0, c_in), ("down1", w1, w0),
                                ("down2", w2, w1), ("down3", c_feat, w2),
                                ("up1", w2, c_feat + w2), ("up2", w1, w2 + w1),
                                ("up3", c_feat, w1 + w0)):
            w, b = _conv_p(rng, cout, cin)
            self.params[name + ".w"] = w
            self.params[name + ".b"] = b

    def forward(self, raster, layer=None):
        p = self.params
        x = tensor(raster)
        s0 = relu(conv2d(x, p["stem.w"], p["stem.b"], pad=1))
        s1 = relu(conv2d(maxpool2(s0), p["down1.w"], p["down1.b"], pad=1))
        s2 = relu(conv2d(maxpool2(s1), p["down2.w"], p["down2.b"], pad=1))
        bott = relu(conv2d(maxpool2(s2), p["down3.w"], p["down3.b"], pad=1))
        if (layer or self.feature_layer) == "bottleneck":
            return upsample2x(upsample2x(upsample2x(bott)))
        u = relu(conv2d(concat([upsample2x(bott), s2]), p["up1.w"], p["up1.b"], pad=1))
        u = relu(conv2d(concat([upsample2x(u), s1]), p["up2.w"], p["up2.b"], pad=1))
        return conv2d(concat([upsample2x(u), s0]), p["up3.w"], p["up3.b"], pad=1)

    def freeze(self):
        for p in self.params.values():
            p.requires_grad = False
        self.frozen = True


def teacher_forward(teacher: TeacherEncoder, raster, grid: BevGrid) -> FeatureMap:
    """Encode an overhead raster into the shared BEV feature shape."""
    raster = np.asarray(raster, dtype=np.float64)
    want = (teacher.c_in, grid.rows, grid.cols)
    if raster.shape != want:
        raise EncoderError(f"overhead raster is {raster.shape}, expected {want}")
    return FeatureMap(teacher.forward(raster), grid, "teacher")


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
    there only; the rest are zero, and the lift never reads them.
    ``src``: each cell's column in the camera features flattened and
    concatenated in rig order, with the default as the last column.
    """

    def __init__(self, cam, fv, fu, feat_shapes, rows, cols):
        self.cam = cam  # (rows*cols,) camera index, -1 for an unseen cell
        self.fv = fv
        self.fu = fu
        self.feat_shapes = feat_shapes
        self.rows = rows
        self.cols = cols
        self.reads = [np.unique((fv * fw + fu)[cam == k])
                      for k, (_, fw) in enumerate(feat_shapes)]
        offsets = np.cumsum([0] + [fh * fw for fh, fw in feat_shapes])
        fws = np.array([fw for _, fw in feat_shapes])
        self.src = np.where(cam >= 0, offsets[cam] + fv * fws[cam] + fu, offsets[-1])


def build_lift_table(rig, grid: BevGrid, downsample=2) -> LiftTable:
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
    """Gather each BEV cell's vector from its table source: one camera
    feature pixel, or the learned default for a cell no camera sees.
    Gradients scatter back into the camera features and the default vector.
    """
    if len(cam_feats) != len(table.feat_shapes):
        raise EncoderError(f"{len(cam_feats)} feature maps for a "
                           f"{len(table.feat_shapes)}-camera table")
    c = default.data.shape[0]
    for f, (fh, fw) in zip(cam_feats, table.feat_shapes):
        if f.data.shape != (c, fh, fw):
            raise EncoderError(f"camera features {f.data.shape}, table expects "
                               f"({c}, {fh}, {fw})")
    flat = np.concatenate([f.data.reshape(c, -1) for f in cam_feats]
                          + [default.data[:, None]], axis=1)
    n_src = flat.shape[1]  # bwd holds no reference to flat, so it is freed

    def bwd(g):
        d = np.zeros((n_src, c))
        # cells sharing one source pixel (or the default) must accumulate
        np.add.at(d, table.src, g.reshape(c, -1).T)
        ends = np.cumsum([f.data[0].size for f in cam_feats])
        parts = np.split(d.T, ends, axis=1)
        return tuple(p.reshape(f.data.shape) for p, f in zip(parts, cam_feats)) \
            + (parts[-1][:, 0],)

    return custom_op(flat[:, table.src].reshape(c, table.rows, table.cols),
                     tuple(cam_feats) + (default,), bwd, "lift")


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of a tensor along its first axis; scatter-adds on backward."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    def bwd(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        return (dx,)

    return custom_op(out, (x,), bwd, "take_rows")


# ---------------------------------------------------------------------------
# camera student
# ---------------------------------------------------------------------------

class StudentEncoder:
    """Shared per-camera conv extractor, IPM lifting, BEV refinement.

    The lifting table is built once per (rig, grid) pair and cached; the
    cache key is the full pose/intrinsics tuple so a permuted rig simply
    builds the permuted table. In ``lift`` the second camera conv computes
    only the feature pixels in the table's ``reads``; camera features
    outside them are zero, and the lift never reads them. The lift sees
    only the images and the rig, so training and evaluation lift alike.
    """

    def __init__(self, rng, c_in=3, c_feat=16, width=12, downsample=2):
        if downsample not in (2, 4):
            raise EncoderError(f"downsample must be 2 or 4, got {downsample}")
        self.c_in = c_in
        self.c_feat = c_feat
        self.downsample = downsample
        self.params = {}
        for name, cout, cin in (("cam1", width, c_in), ("cam2", c_feat, width),
                                ("ref1", c_feat, c_feat),
                                ("ref2", c_feat, c_feat)):
            w, b = _conv_p(rng, cout, cin)
            self.params[name + ".w"] = w
            self.params[name + ".b"] = b
        default = Tensor(np.zeros(c_feat))  # "unseen cell" vector, learned
        default.requires_grad = True
        self.params["default"] = default
        self._tables = {}

    def extract(self, image, reads=None) -> Tensor:
        """Camera feature map; ``reads`` (flat pixels) limits the second conv."""
        p = self.params
        x = tensor(image)
        h = relu(conv2d(x, p["cam1.w"], p["cam1.b"], stride=2, pad=1))
        if self.downsample == 4:
            h = maxpool2(h)
        return relu(conv2d(h, p["cam2.w"], p["cam2.b"], pad=1, at=reads))

    def table_for(self, rig, grid) -> LiftTable:
        key = (tuple((tuple(c.position), c.yaw, c.pitch, c.focal,
                      c.width, c.height, c.cx, c.cy) for c in rig),
               grid.key)
        if key not in self._tables:
            self._tables[key] = build_lift_table(rig, grid, self.downsample)
        return self._tables[key]

    def lift(self, images, rig, grid) -> Tensor:
        if len(images) != len(rig):
            raise EncoderError(f"{len(images)} images for a {len(rig)}-camera rig")
        table = self.table_for(rig, grid)
        feats = [self.extract(img, reads) for img, reads in zip(images, table.reads)]
        return lift_features(feats, table, self.params["default"])

    def forward(self, images, rig, grid) -> Tensor:
        p = self.params
        lifted = self.lift(images, rig, grid)
        h = relu(conv2d(lifted, p["ref1.w"], p["ref1.b"], pad=1))
        return add(conv2d(h, p["ref2.w"], p["ref2.b"], pad=1), lifted)


def student_forward(student: StudentEncoder, images, rig, grid: BevGrid) -> FeatureMap:
    """Encode the camera images into the shared BEV feature shape."""
    return FeatureMap(student.forward(images, rig, grid), grid, "student")


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
    distinct regions instead of competing for the whole scene.
    """

    def __init__(self, rng, grid: BevGrid, c_in=16, n_queries=12, n_points=8,
                 hidden=8):
        self.grid_key = grid.key
        self.c_in = c_in
        self.n_queries = n_queries
        self.n_points = n_points
        self.hidden = hidden
        h2, w2 = grid.rows // 2, grid.cols // 2
        yy, xx = np.meshgrid(np.linspace(-1.0, 1.0, h2),
                             np.linspace(-1.0, 1.0, w2), indexing="ij")
        self._coords = _constant(np.stack([xx, yy]))
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
        self._slot_mask = _constant(np.repeat(mask, hidden, axis=0))
        self._att_bias = _constant(np.repeat(logp, n_points, axis=0))
        self.params = {}
        w, b = _conv_p(rng, n_queries * hidden, c_in + 2)
        self.params["mix.w"] = w
        self.params["mix.b"] = b
        w, b = _lin_p(rng, hidden, N_CLASSES + 1)
        self.params["cls.w"] = w
        self.params["cls.b"] = b
        w, b = _conv_p(rng, n_queries * n_points, n_queries * hidden)
        self.params["pts.w"] = w
        self.params["pts.b"] = b

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
        att = add(conv2d(h, p["pts.w"], p["pts.b"], pad=1), self._att_bias)
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
    lines = []
    for name in sorted(params):
        p = params[name]
        fn = os.path.join(path, name + ".ten")
        write_ten(fn, p.data)
        with open(fn, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        shape = "x".join(str(d) for d in p.data.shape) or "scalar"
        frozen = 0 if p.requires_grad else 1
        lines.append(f"param {name} {shape} {digest} {frozen}")
    for key, val in (meta or {}).items():
        lines.append(f"{key} {val}")
    # the manifest marks the checkpoint complete, so it appears whole or not at all
    manifest = os.path.join(path, "manifest.txt")
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
            arr = read_ten(fn)
            want = "x".join(str(d) for d in arr.shape) or "scalar"
            if want != shape:
                raise EncoderError(f"{fn}: shape {want}, manifest says {shape}")
            t = Tensor(arr)
            t.requires_grad = frozen == "0"
            params[name] = t
    return params, meta


def adopt_params(model, params, prefix=""):
    """Replace a model's parameters with checkpointed tensors in place."""
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


def evaluate_model(features_fn, decoder, samples, cfgs):
    """Decode every sample once and score the predictions against its gt
    under each eval config; returns one result per config."""
    preds = {s.scene_id: decode_map(decoder, features_fn(s)) for s in samples}
    gts = {s.scene_id: s.gt for s in samples}
    return [evaluate(preds, gts, cfg) for cfg in cfgs]


def pretrain_teacher(train_samples, val_samples, grid: BevGrid,
                     eval_cfg: EvalConfig, seed=0, steps=2500, batch=4,
                     base_lr=4e-3, weight_decay=1e-4, min_lr=1e-5,
                     reg_weight=0.05, log_path=None, make_models=None):
    """Train the overhead encoder plus a throwaway decoder head, then freeze.

    The step loop is ``supervision.fit`` on the detection loss alone; its
    ``log_path`` gets one line per step as it trains, with 0.0 for l_bev.
    Returns (teacher, decoder, val_map), the teacher frozen and val_map
    its score on val_samples under eval_cfg. A non-finite loss aborts with
    an EncoderError naming the step. make_models(rng, grid) may supply a
    differently sized (teacher, decoder) pair.
    """
    if not train_samples:
        raise EncoderError("teacher pretraining needs a non-empty train split")
    # late import; supervision builds on this module
    from .supervision import fit
    rng = np.random.default_rng(seed)
    if make_models is None:
        teacher = TeacherEncoder(rng)
        decoder = MapDecoder(rng, grid, c_in=teacher.c_feat)
    else:
        teacher, decoder = make_models(rng, grid)

    def features(s):
        return teacher_forward(teacher, s.overhead, grid)

    fit({"teacher": teacher, "decoder": decoder}, features, train_samples,
        grid, batch_stream(rng, len(train_samples), batch), steps, base_lr,
        weight_decay, min_lr, reg_weight, log_path, error=EncoderError)
    teacher.freeze()
    result, = evaluate_model(features, decoder, val_samples, [eval_cfg])
    return teacher, decoder, float(result.map)
