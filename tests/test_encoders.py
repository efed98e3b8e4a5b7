"""Teacher/student/decoder networks, IPM lifting, and checkpoint files."""

import numpy as np
import pytest

import oracles
from bevlab import encoders as E
from bevlab import geometry as G
from bevlab import scenegen as S
from bevlab import supervision as SV
from bevlab import tensors as T
from bevlab.config import RunConfig

RNG = np.random.default_rng
STANDARD = RunConfig({"roi": "standard"})  # the default sizes on the standard RoI


def make_sample(seed, grid, rig=None):
    scene = S.generate_scene(RunConfig(), seed, (0.0, 1.0))
    overhead = S.render_overhead(scene, grid)
    cams = None
    if rig is not None:
        cams = S.render_cameras(scene, rig, grid, overhead)
    return S.Sample(f"s{seed}", "test", seed, overhead, cams,
                    scene.ground_truth)


# ---------------------------------------------------------------------------
# lifting: hand-built table oracle
# ---------------------------------------------------------------------------

def tiny_table():
    # 2 cameras with 2x3 feature maps over a 2x4 cell grid; two unseen cells,
    # and cells 3 and 7 share one source pixel on purpose
    cam = np.array([0, 1, -1, 0, 1, -1, 1, 0])
    fv = np.array([0, 1, 0, 1, 0, 0, 1, 1])
    fu = np.array([2, 0, 0, 2, 1, 0, 0, 2])
    return E.LiftTable(cam, fv, fu, [(2, 3), (2, 3)], rows=2, cols=4)


def lift_oracle(feats, table, default):
    c = default.shape[0]
    n = table.cam.shape[0]
    out = np.tile(default[:, None], (1, n))
    for cell in range(n):
        k = table.cam[cell]
        if k >= 0:
            out[:, cell] = feats[k][:, table.fv[cell], table.fu[cell]]
    return out.reshape(c, table.rows, table.cols)


def read_columns(feats, table):
    """Each full (C, fh, fw) camera map at its table reads, (C, len(reads))."""
    return [f.reshape(f.shape[0], -1)[:, r] for f, r in zip(feats, table.reads)]


def test_lift_features_matches_loop_oracle():
    rng = RNG(5)
    table = tiny_table()
    feats = [rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2, 3))]
    default = rng.normal(size=4)
    got = E.lift_features([T.Tensor(f) for f in read_columns(feats, table)], table,
                          T.Tensor(default))
    want = lift_oracle(feats, table, default)
    assert np.array_equal(got.data, want)


def test_lift_backward_matches_add_at_oracle():
    # tiny_table's cells 1 and 6, and 3 and 7, share a source; so do both
    # unseen cells (the default)
    rng = RNG(9)
    for table in (tiny_table(), E.build_lift_table(RunConfig().rig(), G.extended_grid(), 2)):
        c = 5
        feats = [oracles.parameter(rng.normal(size=(c, len(r)))) for r in table.reads]
        default = oracles.parameter(rng.normal(size=c))
        out = E.lift_features(feats, table, default)
        g = rng.normal(size=out.shape)
        n_src = sum(len(r) for r in table.reads) + 1
        want = oracles.lift_grad_oracle(g, table.src, n_src)
        ends = np.cumsum([len(r) for r in table.reads])
        got = out._bwd(g)
        for k, part in enumerate(np.split(want, ends, axis=1)[:-1]):
            assert np.array_equal(got[k], part), k
        assert np.array_equal(got[-1], want[:, -1])


def test_lift_features_gradient_matches_fd():
    rng = RNG(6)
    table = tiny_table()
    f0 = rng.normal(size=(4, 2))
    f1 = rng.normal(size=(4, 2))
    default = rng.normal(size=4)
    w = rng.normal(size=(4, 2, 4))

    def loss(a0, a1, d):
        out = E.lift_features([a0, a1], table, d)
        return T.mse(out, T.Tensor(w))

    ts = [oracles.parameter(f0.copy()), oracles.parameter(f1.copy()),
          oracles.parameter(default.copy())]
    T.backward(loss(*ts))
    arrays = [f0.copy(), f1.copy(), default.copy()]
    for i, t in enumerate(ts):
        fd = oracles.fd_gradient(
            lambda a0, a1, d: float(loss(T.Tensor(a0), T.Tensor(a1), T.Tensor(d)).data),
            [a.copy() for a in arrays], i)
        assert t.grad is not None
        assert oracles.rel_error(t.grad, fd) < 1e-6, f"input {i}"


def test_lift_all_invisible_fills_with_default():
    rng = RNG(7)
    base = tiny_table()
    table = E.LiftTable(np.full(8, -1), base.fv, base.fu, base.feat_shapes,
                        rows=2, cols=4)
    assert [len(r) for r in table.reads] == [0, 0]
    feats = [T.Tensor(np.zeros((4, 0))) for _ in range(2)]
    default = rng.normal(size=4)
    out = E.lift_features(feats, table, T.Tensor(default))
    assert np.array_equal(out.data, np.tile(default[:, None, None], (1, 2, 4)))


def reads_oracle(table):
    reads = [set() for _ in table.feat_shapes]
    for cell in range(table.cam.shape[0]):
        k = table.cam[cell]
        if k >= 0:
            reads[k].add(table.fv[cell] * table.feat_shapes[k][1] + table.fu[cell])
    return [sorted(s) for s in reads]


def test_lift_table_reads_match_loop_oracle():
    rig = RunConfig().rig()
    tables = [tiny_table()] + [E.build_lift_table(rig, grid, downsample)
                               for grid in (G.standard_grid(), G.extended_grid())
                               for downsample in (2, 4)]
    for table in tables:
        want = reads_oracle(table)
        assert len(table.reads) == len(want)
        for got, w in zip(table.reads, want):
            assert got.dtype == np.int64 and got.tolist() == w


def test_lift_features_shape_errors():
    rng = RNG(8)
    table = tiny_table()
    good = [T.Tensor(rng.normal(size=(4, 2))) for _ in range(2)]
    E.lift_features(good, table, T.Tensor(np.zeros(4)))
    with pytest.raises(E.EncoderError):
        E.lift_features(good[:1], table, T.Tensor(np.zeros(4)))
    # a full camera map, or columns for the wrong reads, is refused
    for wrong in ((4, 2, 3), (4, 3), (5, 2)):
        bad = [good[0], T.Tensor(rng.normal(size=wrong))]
        with pytest.raises(E.EncoderError):
            E.lift_features(bad, table, T.Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# lifting: projected table properties
# ---------------------------------------------------------------------------

def candidate_oracle(rig, grid):
    """Per cell: valid (centrality, yaw, cam) candidates, best first."""
    centers = grid.cell_centers().reshape(-1, 2)
    pts3 = np.concatenate([centers, np.zeros((len(centers), 1))], axis=1)
    per_cam = []
    for k, cam in enumerate(rig):
        uv, _, valid = cam.project(pts3)
        per_cam.append((uv, valid))
    cands = []
    for cell in range(len(pts3)):
        row = []
        for k, cam in enumerate(rig):
            uv, valid = per_cam[k]
            if valid[cell]:
                row.append((abs(uv[cell, 0] - (cam.width - 1) / 2.0), cam.yaw, k))
        row.sort()
        cands.append(row)
    return cands


def test_build_lift_table_matches_candidate_oracle():
    grid = G.standard_grid()
    rig = RunConfig().rig()
    table = E.build_lift_table(rig, grid, 2)
    cands = candidate_oracle(rig, grid)
    assert table.cam.shape == (len(cands),)
    assert 0 < sum(not c for c in cands) < len(cands)
    for cell in range(len(cands)):
        want = cands[cell][0][2] if cands[cell] else -1
        assert table.cam[cell] == want


def test_build_lift_table_indices_in_feature_range():
    grid = G.extended_grid()
    rig = RunConfig().rig()
    table = E.build_lift_table(rig, grid, downsample=4)
    assert table.cam.shape == table.fv.shape == table.fu.shape == (grid.rows * grid.cols,)
    assert table.cam.min() >= -1 and table.cam.max() < len(rig)
    for k, (fh, fw) in enumerate(table.feat_shapes):
        m = table.cam == k
        assert m.any(), k
        assert 0 <= table.fv[m].min() and table.fv[m].max() < fh
        assert 0 <= table.fu[m].min() and table.fu[m].max() < fw


def test_build_lift_table_rejects_indivisible_images():
    rig = [G.Camera((0, 0, 1.6), 0.0, 0.12, 48.0, 96, 63)]
    with pytest.raises(E.EncoderError):
        E.build_lift_table(rig, G.standard_grid(), downsample=4)


def test_lift_invariant_under_rig_permutation():
    rng = RNG(11)
    grid = G.standard_grid()
    rig = RunConfig().rig()
    perm = [2, 0, 3, 1]
    default = rng.normal(size=5)
    # 64x96 images: features are 32x48 at the default downsample, 16x24 at 4
    for downsample, shape in ((2, (32, 48)), (4, (16, 24))):
        feats = [rng.normal(size=(5,) + shape) for _ in rig]
        table = E.build_lift_table(rig, grid, downsample=downsample)
        base = E.lift_features([T.Tensor(f) for f in read_columns(feats, table)],
                               table, T.Tensor(default))
        table = E.build_lift_table([rig[p] for p in perm], grid, downsample=downsample)
        swapped = E.lift_features(
            [T.Tensor(f) for f in read_columns([feats[p] for p in perm], table)],
            table, T.Tensor(default))
        assert np.array_equal(base.data, swapped.data), downsample


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------

def test_teacher_output_covers_grid():
    grid = G.extended_grid()
    raster = RNG(0).random((3, grid.rows, grid.cols))
    teacher = RunConfig().teacher(RNG(1))
    assert teacher.forward(raster).data.shape == (teacher.c_feat, grid.rows, grid.cols)
    fmap = E.teacher_forward(teacher, raster, grid)
    assert fmap.shape == (16, 24, 48) and fmap.grid is grid


def test_teacher_deterministic_in_seed():
    raster = RNG(2).random((3, 24, 48))
    a = RunConfig().teacher(RNG(9)).forward(raster)
    b = RunConfig().teacher(RNG(9)).forward(raster)
    assert np.array_equal(a.data, b.data)
    c = RunConfig().teacher(RNG(10)).forward(raster)
    assert not np.array_equal(a.data, c.data)


def test_teacher_zero_raster_finite():
    teacher = RunConfig().teacher(RNG(3))
    out = teacher.forward(np.zeros((3, 24, 48)))
    assert np.isfinite(out.data).all()


def test_teacher_forward_rejects_wrong_raster_shape():
    teacher = RunConfig().teacher(RNG(4))
    with pytest.raises(E.EncoderError):
        E.teacher_forward(teacher, np.zeros((3, 24, 47)), G.standard_grid())


def test_teacher_freeze_marks_all_params():
    teacher = RunConfig().teacher(RNG(5))
    assert not teacher.frozen
    assert all(p.requires_grad for p in teacher.params.values())
    teacher.freeze()
    assert teacher.frozen
    assert not any(p.requires_grad for p in teacher.params.values())


@pytest.fixture
def unet_passes(monkeypatch):
    """Counts TeacherEncoder.forward calls, the U-Net passes."""
    calls = []
    plain = E.TeacherEncoder.forward

    def forward(self, raster):
        calls.append(raster.shape)
        return plain(self, raster)

    monkeypatch.setattr(E.TeacherEncoder, "forward", forward)
    return calls


def test_frozen_teacher_runs_the_unet_once_per_raster(unet_passes):
    grid = G.standard_grid()
    raster = RNG(30).random((3, grid.rows, grid.cols))
    # the same bytes under another shape are another raster
    tall = G.BevGrid(-15.0, 15.0, -30.0, 30.0, grid.cols, grid.rows)
    turned = raster.reshape(3, grid.cols, grid.rows)
    want = [RunConfig().teacher(RNG(31)).forward(r).data for r in (raster, turned)]
    unet_passes.clear()
    teacher = RunConfig().teacher(RNG(31))
    teacher.freeze()
    first = E.teacher_forward(teacher, raster, grid)
    second = E.teacher_forward(teacher, raster.copy(), grid)
    assert len(unet_passes) == 1
    assert second is not first and second.tensor is not first.tensor
    assert second.grid is grid
    assert not second.tensor.requires_grad
    assert np.array_equal(second.tensor.data, want[0])
    other = E.teacher_forward(teacher, turned, tall)
    assert len(unet_passes) == 2
    assert np.array_equal(other.tensor.data, want[1])


def test_teacher_that_is_not_frozen_stores_nothing(unet_passes):
    grid = G.standard_grid()
    raster = RNG(32).random((3, grid.rows, grid.cols))
    teacher = RunConfig().teacher(RNG(33))
    a = E.teacher_forward(teacher, raster, grid)
    b = E.teacher_forward(teacher, raster, grid)
    assert len(unet_passes) == 2 and teacher.maps == {}
    assert a.tensor.requires_grad and b.tensor.data.flags.writeable


def test_adopting_new_weights_empties_the_teacher_store(unet_passes):
    grid = G.standard_grid()
    raster = RNG(34).random((3, grid.rows, grid.cols))
    want = RunConfig().teacher(RNG(36)).forward(raster).data
    unet_passes.clear()
    teacher = RunConfig().teacher(RNG(35))
    teacher.freeze()
    old = E.teacher_forward(teacher, raster, grid).tensor.data
    other = RunConfig().teacher(RNG(36))
    other.freeze()
    # adopting sets frozen without calling freeze()
    E.adopt_params(teacher, {"teacher." + k: v for k, v in other.params.items()},
                   prefix="teacher.")
    assert teacher.frozen
    new = E.teacher_forward(teacher, raster, grid).tensor.data
    assert len(unet_passes) == 2
    assert np.array_equal(new, want) and not np.array_equal(new, old)
    # freezing again empties the store as well
    teacher.freeze()
    E.teacher_forward(teacher, raster, grid)
    assert len(unet_passes) == 3


def test_stored_teacher_map_refuses_in_place_writes():
    grid = G.standard_grid()
    raster = RNG(37).random((3, grid.rows, grid.cols))
    teacher = RunConfig().teacher(RNG(38))
    teacher.freeze()
    fmap = E.teacher_forward(teacher, raster, grid)
    before = fmap.tensor.data.copy()
    with pytest.raises(ValueError, match="read-only"):
        fmap.tensor.data[0, 0, 0] += 1.0
    again = E.teacher_forward(teacher, raster, grid)
    assert np.array_equal(again.tensor.data, before)


def test_feature_map_rejects_wrong_cover():
    with pytest.raises(E.EncoderError):
        E.FeatureMap(T.Tensor(np.zeros((4, 10, 48))), G.standard_grid())
    with pytest.raises(E.EncoderError):
        E.FeatureMap(T.Tensor(np.zeros((24, 48))), G.standard_grid())


# ---------------------------------------------------------------------------
# student
# ---------------------------------------------------------------------------

def zero_images(rig):
    return [np.zeros((3, c.height, c.width)) for c in rig]


def test_student_matches_teacher_feature_shape():
    grid = G.extended_grid()
    rig = RunConfig().rig()
    student = RunConfig().student(RNG(6))
    fmap = E.student_forward(student, zero_images(rig), rig, grid)
    assert fmap.shape == (student.c_feat, grid.rows, grid.cols)
    assert np.isfinite(fmap.tensor.data).all() and fmap.grid is grid


def test_student_invariant_under_camera_permutation():
    # shared extractor weights: permuting images together with the rig
    # reorders nothing observable in the lifted BEV map
    rng = RNG(7)
    grid = G.standard_grid()
    rig = RunConfig().rig()
    images = [rng.random((3, c.height, c.width)) for c in rig]
    student = RunConfig().student(RNG(8))
    base = student.forward(images, rig, grid)
    perm = [3, 1, 0, 2]
    swapped = student.forward([images[p] for p in perm],
                              [rig[p] for p in perm], grid)
    assert np.array_equal(base.data, swapped.data)


def dense_lift(feats, table, default):
    """The lift over full (C, fh, fw) camera maps, its gradient by np.add.at."""
    c = default.data.shape[0]
    src = oracles.dense_lift_src(table)
    flat = np.concatenate([f.data.reshape(c, -1) for f in feats] + [default.data[:, None]],
                          axis=1)

    def bwd(g):
        d = oracles.lift_grad_oracle(g, src, flat.shape[1])
        parts = np.split(d, np.cumsum([f.data[0].size for f in feats]), axis=1)
        return tuple(q.reshape(f.data.shape) for q, f in zip(parts, feats)) + (parts[-1][:, 0],)

    return T.custom_op(flat[:, src].reshape(c, table.rows, table.cols),
                       tuple(feats) + (default,), bwd, "lift")


def dense_layout_extract(student, image, reads):
    """student.extract with the second conv's read pixels in a zero full map."""
    p = student.params
    h = T.relu(T.conv2d(T.Tensor(image), p["cam1.w"], p["cam1.b"], stride=2, pad=1))
    if student.downsample == 4:
        h = T.maxpool2(h)
    out, bwd = oracles.conv2d_at_dense(h.data, p["cam2.w"].data, p["cam2.b"].data, 1, 1, reads)
    return T.relu(T.custom_op(out, (h, p["cam2.w"], p["cam2.b"]), bwd, "conv2d"))


def dense_student_forward(student, images, rig, grid, extract=None):
    """student.forward over full camera maps: every camera feature pixel
    computed, or with ``extract`` the maps that function builds."""
    p = student.params
    table = student._lift_plan(rig, grid)[0]
    if extract is None:
        feats = [student.extract(img) for img in images]
    else:
        feats = [extract(student, img, reads) for img, reads in zip(images, table.reads)]
    lifted = dense_lift(feats, table, p["default"])
    h = T.relu(T.conv2d(lifted, p["ref1.w"], p["ref1.b"], pad=1))
    return T.add(T.conv2d(h, p["ref2.w"], p["ref2.b"], pad=1), lifted)


def test_student_forward_with_reads_matches_dense_extract():
    rng = RNG(12)
    rig = RunConfig().rig()
    images = [rng.random((3, c.height, c.width)) for c in rig]
    for downsample in (2, 4):
        student = RunConfig({"downsample": downsample}).student(RNG(13))
        student.params["default"].data[:] = rng.normal(size=student.c_feat)
        for grid in (G.standard_grid(), G.extended_grid()):
            w = T.Tensor(rng.normal(size=(student.c_feat, grid.rows, grid.cols)))
            outs, grads = [], []
            for run in (lambda: E.student_forward(student, images, rig, grid).tensor,
                        lambda: dense_student_forward(student, images, rig, grid)):
                out = run()
                T.backward(oracles.tsum(T.mul(out, w)))
                outs.append(out.data)
                grads.append({n: q.grad for n, q in student.params.items()})
                T.zero_grad(student.params)
            assert oracles.rel_error(outs[0], outs[1]) <= 1e-12
            for name in grads[1]:
                assert oracles.rel_error(grads[0][name], grads[1][name]) <= 1e-12, name


def test_student_step_gradients_equal_the_dense_layout_bitwise():
    # one norm_adapter sample step: the compact camera branch and the full
    # map layout (dense cam2 at the reads, dense lift) give the same bits
    rig = RunConfig().rig()
    for downsample, roi in ((2, "extended"), (4, "standard")):
        cfg = RunConfig({"downsample": downsample, "roi": roi})
        grid = cfg.grid()
        student = cfg.student(RNG(14))
        decoder = cfg.decoder(RNG(15))
        sample = make_sample(3, grid, rig)
        gts = SV.clipped_targets([sample], grid, decoder.n_queries)[sample.scene_id]
        gt_pts = SV.target_points({0: gts}, decoder.n_points).get(0)
        teacher_map = random_fmap(RNG(4), grid)
        adapter = cfg.adapter()
        params = E.named_params({"student": student, "decoder": decoder, "adapter": adapter})
        runs = []
        for forward in (lambda: E.student_forward(student, sample.cams, rig, grid),
                        lambda: E.FeatureMap(dense_student_forward(
                            student, sample.cams, rig, grid, dense_layout_extract), grid)):
            fmap = forward()
            l_cls, l_reg = SV.detection_loss(*decoder.forward(fmap), gts, cfg.reg_weight,
                                             gt_pts)
            loss = T.add(T.add(l_cls, l_reg),
                         SV.bev_alignment_loss(fmap, teacher_map, adapter, cfg.variant))
            T.backward(loss)
            runs.append((fmap.tensor.data, float(loss.data),
                         {n: q.grad for n, q in params.items()}))
            T.zero_grad(params)
        (out, loss, grads), (want_out, want_loss, want_grads) = runs
        assert np.array_equal(out, want_out) and loss == want_loss
        assert all(g is not None for g in grads.values())
        for name in want_grads:
            assert np.array_equal(grads[name], want_grads[name]), (downsample, name)


def test_student_rejects_missing_image():
    rig = RunConfig().rig()
    student = RunConfig().student(RNG(10))
    with pytest.raises(E.EncoderError):
        student.forward(zero_images(rig)[:3], rig, G.standard_grid())


def test_student_lift_table_cache_reused():
    grid = G.standard_grid()
    rig = RunConfig().rig()
    student = RunConfig().student(RNG(11))
    t1 = student._lift_plan(rig, grid)[0]
    t2 = student._lift_plan(list(rig), grid)[0]
    assert t1 is t2
    t3 = student._lift_plan(rig, G.extended_grid())[0]
    assert t3 is not t1


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def random_fmap(rng, grid, c=16):
    return E.FeatureMap(T.Tensor(rng.normal(size=(c, grid.rows, grid.cols))), grid)


def test_decoder_points_lie_inside_grid():
    grid = G.extended_grid()
    dec = RunConfig().decoder(RNG(12))
    for seed in range(5):
        _, points = dec.forward(random_fmap(RNG(seed), grid))
        assert points.data[..., 0].min() >= grid.x_min
        assert points.data[..., 0].max() <= grid.x_max
        assert points.data[..., 1].min() >= grid.y_min
        assert points.data[..., 1].max() <= grid.y_max


def test_decoder_output_shapes():
    grid = G.standard_grid()
    dec = STANDARD.with_overrides(n_queries=5, n_points=4).decoder(RNG(13))
    logits, points = dec.forward(random_fmap(RNG(1), grid))
    assert logits.data.shape == (5, G.N_CLASSES + 1)
    assert points.data.shape == (5, 4, 2)


def test_decode_map_emits_at_most_q_scored_elements():
    grid = G.standard_grid()
    dec = STANDARD.decoder(RNG(14))
    preds = E.decode_map(dec, random_fmap(RNG(2), grid))
    assert len(preds) <= dec.n_queries
    for cid, score, pts in preds:
        assert cid in (0, 1, 2)
        assert 0.0 < score <= 1.0
        assert pts.shape == (dec.n_points, 2)


def test_decode_map_forced_background_is_empty():
    grid = G.standard_grid()
    dec = STANDARD.decoder(RNG(15))
    dec.params["cls.w"].data[:] = 0.0
    dec.params["cls.b"].data[:] = 0.0
    dec.params["cls.b"].data[G.N_CLASSES] = 50.0
    assert E.decode_map(dec, random_fmap(RNG(3), grid)) == []


def test_decoder_rejects_mismatched_grid_or_channels():
    dec = STANDARD.decoder(RNG(16))
    with pytest.raises(E.EncoderError):
        dec.forward(random_fmap(RNG(4), G.extended_grid()))
    with pytest.raises(E.EncoderError):
        dec.forward(random_fmap(RNG(5), G.standard_grid(), c=8))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    teacher = RunConfig().teacher(RNG(17))
    teacher.freeze()
    student = RunConfig().student(RNG(18))
    params = {"teacher." + k: v for k, v in teacher.params.items()}
    params.update(("student." + k, v) for k, v in student.params.items())
    E.save_checkpoint(tmp_path / "ck", params, {"val_map": "0.5", "note": "a b"})
    back, meta = E.load_checkpoint(tmp_path / "ck")
    assert set(back) == set(params)
    for name, p in params.items():
        assert np.array_equal(back[name].data, p.data)
        assert back[name].requires_grad == p.requires_grad
    assert meta == {"val_map": "0.5", "note": "a b"}

    fresh = RunConfig().teacher(RNG(19))
    E.adopt_params(fresh, back, prefix="teacher.")
    assert fresh.frozen
    assert E.params_checksum(fresh.params) == E.params_checksum(teacher.params)


def test_checkpoint_detects_corruption(tmp_path):
    dec = STANDARD.decoder(RNG(20))
    E.save_checkpoint(tmp_path / "ck", dec.params)
    victim = tmp_path / "ck" / "cls.w.ten"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))
    with pytest.raises(E.EncoderError, match="cls.w"):
        E.load_checkpoint(tmp_path / "ck")


def test_checkpoint_missing_manifest_and_params(tmp_path):
    with pytest.raises(E.EncoderError):
        E.load_checkpoint(tmp_path / "nope")
    dec = STANDARD.decoder(RNG(21))
    E.save_checkpoint(tmp_path / "ck", dec.params)
    back, _ = E.load_checkpoint(tmp_path / "ck")
    other = RunConfig().student(RNG(22))
    with pytest.raises(E.EncoderError, match="missing parameter"):
        E.adopt_params(other, back)


def test_adopt_params_rejects_shape_mismatch():
    a = STANDARD.with_overrides(decoder_hidden=8).decoder(RNG(23))
    b = STANDARD.with_overrides(decoder_hidden=4).decoder(RNG(24))
    with pytest.raises(E.EncoderError, match="shape"):
        E.adopt_params(a, dict(b.params))


def test_params_checksum_order_independent_value_sensitive():
    dec = STANDARD.decoder(RNG(25))
    before = E.params_checksum(dec.params)
    rev = dict(reversed(list(dec.params.items())))
    assert E.params_checksum(rev) == before
    dec.params["cls.b"].data[0] += 1e-9
    assert E.params_checksum(dec.params) != before


# ---------------------------------------------------------------------------
# teacher pretraining
# ---------------------------------------------------------------------------

def test_pretrain_teacher_smoke_freezes_and_logs(tmp_path):
    # it trains and returns its models; the harness scores them
    grid = G.standard_grid()
    samples = [make_sample(seed, grid) for seed in (31, 32)]
    log_path = tmp_path / "log.txt"
    cfg = STANDARD.with_overrides(teacher_seed=0, teacher_steps=12)
    teacher, dec = E.pretrain_teacher(cfg, samples, str(log_path))
    assert teacher.frozen and isinstance(dec, E.MapDecoder)
    log = log_path.read_text().splitlines()
    assert len(log) == 12
    parts = log[0].split()
    assert parts[0] == "0" and len(parts) == 6
    # logged total reconstructs from the logged parts
    assert float(parts[5]) == float(parts[2]) + float(parts[3])


def test_pretrain_teacher_aborts_on_poisoned_input():
    grid = G.standard_grid()
    samples = [make_sample(33, grid), make_sample(34, grid)]
    samples[0].overhead = samples[0].overhead.copy()
    samples[0].overhead[0, 0, 0] = np.nan
    with pytest.raises(E.EncoderError, match="step 0"):
        E.pretrain_teacher(STANDARD.with_overrides(teacher_seed=0, teacher_steps=5), samples)


def test_pretrain_teacher_rejects_empty_split():
    with pytest.raises(E.EncoderError):
        E.pretrain_teacher(STANDARD, [])
