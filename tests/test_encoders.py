"""Teacher/student/decoder networks, IPM lifting, and checkpoint files."""

import numpy as np
import pytest

import oracles
from bevlab import encoders as E
from bevlab import geometry as G
from bevlab import mapeval as ME
from bevlab import scenegen as S
from bevlab import tensors as T

RNG = np.random.default_rng


def make_sample(seed, grid, rig=None, **kw):
    scene = S.generate_scene(S.SceneParams(seed, **kw))
    overhead = S.render_overhead(scene, grid)
    cams = None
    if rig is not None:
        cams = S.render_cameras(scene, rig, grid, overhead)
    return S.Sample(f"s{seed}", "test", seed, overhead, cams,
                    scene.ground_truth, scene)


# ---------------------------------------------------------------------------
# take_rows
# ---------------------------------------------------------------------------

def test_take_rows_forward_and_duplicate_accumulation():
    x = T.parameter(np.arange(12.0).reshape(4, 3))
    out = E.take_rows(x, [2, 0, 2])
    assert np.array_equal(out.data, x.data[[2, 0, 2]])
    T.backward(T.tsum(out))
    # row 2 was gathered twice, so its gradient doubles
    assert np.array_equal(x.grad, np.array([[1.0] * 3, [0.0] * 3, [2.0] * 3,
                                            [0.0] * 3]))


def test_take_rows_gradient_matches_fd():
    rng = RNG(3)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))

    def f(arr):
        t = T.tensor(arr)
        return T.mse(E.take_rows(t, [4, 1, 1]), T.tensor(w)).item()

    xt = T.parameter(x.copy())
    T.backward(T.mse(E.take_rows(xt, [4, 1, 1]), T.tensor(w)))
    fd = oracles.fd_gradient(lambda a: f(a), [x.copy()], 0)
    assert oracles.rel_error(xt.grad, fd) < 1e-6


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


def test_lift_features_matches_loop_oracle():
    rng = RNG(5)
    table = tiny_table()
    feats = [rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2, 3))]
    default = rng.normal(size=4)
    got = E.lift_features([T.tensor(f) for f in feats], table, T.tensor(default))
    want = lift_oracle(feats, table, default)
    assert np.array_equal(got.data, want)


def test_lift_features_gradient_matches_fd():
    rng = RNG(6)
    table = tiny_table()
    f0 = rng.normal(size=(4, 2, 3))
    f1 = rng.normal(size=(4, 2, 3))
    default = rng.normal(size=4)
    w = rng.normal(size=(4, 2, 4))

    def loss(a0, a1, d):
        out = E.lift_features([a0, a1], table, d)
        return T.mse(out, T.tensor(w))

    ts = [T.parameter(f0.copy()), T.parameter(f1.copy()),
          T.parameter(default.copy())]
    T.backward(loss(*ts))
    arrays = [f0.copy(), f1.copy(), default.copy()]
    for i, t in enumerate(ts):
        fd = oracles.fd_gradient(
            lambda a0, a1, d: loss(T.tensor(a0), T.tensor(a1), T.tensor(d)).item(),
            [a.copy() for a in arrays], i)
        assert t.grad is not None
        assert oracles.rel_error(t.grad, fd) < 1e-6, f"input {i}"


def test_lift_all_invisible_fills_with_default():
    rng = RNG(7)
    base = tiny_table()
    table = E.LiftTable(np.full(8, -1), base.fv, base.fu, base.feat_shapes,
                        rows=2, cols=4)
    feats = [T.tensor(rng.normal(size=(4, 2, 3))) for _ in range(2)]
    default = rng.normal(size=4)
    out = E.lift_features(feats, table, T.tensor(default))
    assert np.array_equal(out.data, np.tile(default[:, None, None], (1, 2, 4)))


def reads_oracle(table):
    reads = [set() for _ in table.feat_shapes]
    for cell in range(table.cam.shape[0]):
        k = table.cam[cell]
        if k >= 0:
            reads[k].add(table.fv[cell] * table.feat_shapes[k][1] + table.fu[cell])
    return [sorted(s) for s in reads]


def test_lift_table_reads_match_loop_oracle():
    rig = G.default_rig()
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
    good = [T.tensor(rng.normal(size=(4, 2, 3))) for _ in range(2)]
    with pytest.raises(E.EncoderError):
        E.lift_features(good[:1], table, T.tensor(np.zeros(4)))
    bad = [good[0], T.tensor(rng.normal(size=(4, 3, 3)))]
    with pytest.raises(E.EncoderError):
        E.lift_features(bad, table, T.tensor(np.zeros(4)))


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
    rig = G.default_rig()
    table = E.build_lift_table(rig, grid)
    cands = candidate_oracle(rig, grid)
    assert table.cam.shape == (len(cands),)
    assert 0 < sum(not c for c in cands) < len(cands)
    for cell in range(len(cands)):
        want = cands[cell][0][2] if cands[cell] else -1
        assert table.cam[cell] == want


def test_build_lift_table_indices_in_feature_range():
    grid = G.extended_grid()
    rig = G.default_rig()
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
    rig = G.default_rig()
    perm = [2, 0, 3, 1]
    default = rng.normal(size=5)
    # 64x96 images: features are 32x48 at the default downsample, 16x24 at 4
    for downsample, shape in ((2, (32, 48)), (4, (16, 24))):
        feats = [rng.normal(size=(5,) + shape) for _ in rig]
        base = E.lift_features([T.tensor(f) for f in feats],
                               E.build_lift_table(rig, grid, downsample=downsample),
                               T.tensor(default))
        swapped = E.lift_features(
            [T.tensor(feats[p]) for p in perm],
            E.build_lift_table([rig[p] for p in perm], grid, downsample=downsample),
            T.tensor(default))
        assert np.array_equal(base.data, swapped.data), downsample


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------

def test_teacher_output_covers_grid_both_layers():
    grid = G.extended_grid()
    raster = RNG(0).random((3, grid.rows, grid.cols))
    teacher = E.TeacherEncoder(RNG(1))
    for layer in ("final", "bottleneck"):
        out = teacher.forward(raster, layer=layer)
        assert out.data.shape == (teacher.c_feat, grid.rows, grid.cols)
    fmap = E.teacher_forward(teacher, raster, grid)
    assert fmap.shape == (16, 24, 48)
    assert fmap.producer == "teacher"


def test_teacher_deterministic_in_seed():
    raster = RNG(2).random((3, 24, 48))
    a = E.TeacherEncoder(RNG(9)).forward(raster)
    b = E.TeacherEncoder(RNG(9)).forward(raster)
    assert np.array_equal(a.data, b.data)
    c = E.TeacherEncoder(RNG(10)).forward(raster)
    assert not np.array_equal(a.data, c.data)


def test_teacher_zero_raster_finite():
    teacher = E.TeacherEncoder(RNG(3))
    out = teacher.forward(np.zeros((3, 24, 48)))
    assert np.isfinite(out.data).all()


def test_teacher_forward_rejects_wrong_raster_shape():
    teacher = E.TeacherEncoder(RNG(4))
    with pytest.raises(E.EncoderError):
        E.teacher_forward(teacher, np.zeros((3, 24, 47)), G.standard_grid())


def test_teacher_freeze_marks_all_params():
    teacher = E.TeacherEncoder(RNG(5))
    assert not teacher.frozen
    assert all(p.requires_grad for p in teacher.params.values())
    teacher.freeze()
    assert teacher.frozen
    assert not any(p.requires_grad for p in teacher.params.values())


def test_feature_map_rejects_wrong_cover():
    with pytest.raises(E.EncoderError):
        E.FeatureMap(T.tensor(np.zeros((4, 10, 48))), G.standard_grid(), "x")
    with pytest.raises(E.EncoderError):
        E.FeatureMap(T.tensor(np.zeros((24, 48))), G.standard_grid(), "x")


# ---------------------------------------------------------------------------
# student
# ---------------------------------------------------------------------------

def zero_images(rig):
    return [np.zeros((3, c.height, c.width)) for c in rig]


def test_student_matches_teacher_feature_shape():
    grid = G.extended_grid()
    rig = G.default_rig()
    student = E.StudentEncoder(RNG(6))
    fmap = E.student_forward(student, zero_images(rig), rig, grid)
    assert fmap.shape == (student.c_feat, grid.rows, grid.cols)
    assert np.isfinite(fmap.tensor.data).all()
    assert fmap.producer == "student"


def test_student_invariant_under_camera_permutation():
    # shared extractor weights: permuting images together with the rig
    # reorders nothing observable in the lifted BEV map
    rng = RNG(7)
    grid = G.standard_grid()
    rig = G.default_rig()
    images = [rng.random((3, c.height, c.width)) for c in rig]
    student = E.StudentEncoder(RNG(8))
    base = student.forward(images, rig, grid)
    perm = [3, 1, 0, 2]
    swapped = student.forward([images[p] for p in perm],
                              [rig[p] for p in perm], grid)
    assert np.array_equal(base.data, swapped.data)


def dense_student_forward(student, images, rig, grid):
    """student.forward with every camera feature pixel computed."""
    p = student.params
    feats = [student.extract(img) for img in images]
    lifted = E.lift_features(feats, student.table_for(rig, grid), p["default"])
    h = T.relu(T.conv2d(lifted, p["ref1.w"], p["ref1.b"], pad=1))
    return T.add(T.conv2d(h, p["ref2.w"], p["ref2.b"], pad=1), lifted)


def test_student_forward_with_reads_matches_dense_extract():
    rng = RNG(12)
    rig = G.default_rig()
    images = [rng.random((3, c.height, c.width)) for c in rig]
    for downsample in (2, 4):
        student = E.StudentEncoder(RNG(13), downsample=downsample)
        student.params["default"].data[:] = rng.normal(size=student.c_feat)
        for grid in (G.standard_grid(), G.extended_grid()):
            w = T.tensor(rng.normal(size=(student.c_feat, grid.rows, grid.cols)))
            outs, grads = [], []
            for run in (lambda: E.student_forward(student, images, rig, grid).tensor,
                        lambda: dense_student_forward(student, images, rig, grid)):
                out = run()
                T.backward(T.tsum(T.mul(out, w)))
                outs.append(out.data)
                grads.append({n: q.grad for n, q in student.params.items()})
                T.zero_grad(student.params)
            assert oracles.rel_error(outs[0], outs[1]) <= 1e-12
            for name in grads[1]:
                assert oracles.rel_error(grads[0][name], grads[1][name]) <= 1e-12, name


def test_student_rejects_missing_image():
    rig = G.default_rig()
    student = E.StudentEncoder(RNG(10))
    with pytest.raises(E.EncoderError):
        student.forward(zero_images(rig)[:3], rig, G.standard_grid())


def test_student_lift_table_cache_reused():
    grid = G.standard_grid()
    rig = G.default_rig()
    student = E.StudentEncoder(RNG(11))
    t1 = student.table_for(rig, grid)
    t2 = student.table_for(list(rig), grid)
    assert t1 is t2
    t3 = student.table_for(rig, G.extended_grid())
    assert t3 is not t1


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def random_fmap(rng, grid, c=16, producer="teacher"):
    return E.FeatureMap(T.tensor(rng.normal(size=(c, grid.rows, grid.cols))),
                        grid, producer)


def test_decoder_points_lie_inside_grid():
    grid = G.extended_grid()
    dec = E.MapDecoder(RNG(12), grid)
    for seed in range(5):
        _, points = dec.forward(random_fmap(RNG(seed), grid))
        assert points.data[..., 0].min() >= grid.x_min
        assert points.data[..., 0].max() <= grid.x_max
        assert points.data[..., 1].min() >= grid.y_min
        assert points.data[..., 1].max() <= grid.y_max


def test_decoder_output_shapes():
    grid = G.standard_grid()
    dec = E.MapDecoder(RNG(13), grid, n_queries=5, n_points=4)
    logits, points = dec.forward(random_fmap(RNG(1), grid))
    assert logits.data.shape == (5, G.N_CLASSES + 1)
    assert points.data.shape == (5, 4, 2)


def test_decode_map_emits_at_most_q_scored_elements():
    grid = G.standard_grid()
    dec = E.MapDecoder(RNG(14), grid)
    preds = E.decode_map(dec, random_fmap(RNG(2), grid))
    assert len(preds) <= dec.n_queries
    for cid, score, pts in preds:
        assert cid in (0, 1, 2)
        assert 0.0 < score <= 1.0
        assert pts.shape == (dec.n_points, 2)


def test_decode_map_forced_background_is_empty():
    grid = G.standard_grid()
    dec = E.MapDecoder(RNG(15), grid)
    dec.params["cls.w"].data[:] = 0.0
    dec.params["cls.b"].data[:] = 0.0
    dec.params["cls.b"].data[G.N_CLASSES] = 50.0
    assert E.decode_map(dec, random_fmap(RNG(3), grid)) == []


def test_decoder_rejects_mismatched_grid_or_channels():
    dec = E.MapDecoder(RNG(16), G.standard_grid())
    with pytest.raises(E.EncoderError):
        dec.forward(random_fmap(RNG(4), G.extended_grid()))
    with pytest.raises(E.EncoderError):
        dec.forward(random_fmap(RNG(5), G.standard_grid(), c=8))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    teacher = E.TeacherEncoder(RNG(17))
    teacher.freeze()
    student = E.StudentEncoder(RNG(18))
    params = {"teacher." + k: v for k, v in teacher.params.items()}
    params.update(("student." + k, v) for k, v in student.params.items())
    E.save_checkpoint(tmp_path / "ck", params, {"val_map": "0.5", "note": "a b"})
    back, meta = E.load_checkpoint(tmp_path / "ck")
    assert set(back) == set(params)
    for name, p in params.items():
        assert np.array_equal(back[name].data, p.data)
        assert back[name].requires_grad == p.requires_grad
    assert meta == {"val_map": "0.5", "note": "a b"}

    fresh = E.TeacherEncoder(RNG(19))
    E.adopt_params(fresh, back, prefix="teacher.")
    assert fresh.frozen
    assert E.params_checksum(fresh.params) == E.params_checksum(teacher.params)


def test_checkpoint_detects_corruption(tmp_path):
    dec = E.MapDecoder(RNG(20), G.standard_grid())
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
    dec = E.MapDecoder(RNG(21), G.standard_grid())
    E.save_checkpoint(tmp_path / "ck", dec.params)
    back, _ = E.load_checkpoint(tmp_path / "ck")
    other = E.StudentEncoder(RNG(22))
    with pytest.raises(E.EncoderError, match="missing parameter"):
        E.adopt_params(other, back)


def test_adopt_params_rejects_shape_mismatch():
    a = E.MapDecoder(RNG(23), G.standard_grid(), hidden=8)
    b = E.MapDecoder(RNG(24), G.standard_grid(), hidden=4)
    with pytest.raises(E.EncoderError, match="shape"):
        E.adopt_params(a, dict(b.params))


def test_params_checksum_order_independent_value_sensitive():
    dec = E.MapDecoder(RNG(25), G.standard_grid())
    before = E.params_checksum(dec.params)
    rev = dict(reversed(list(dec.params.items())))
    assert E.params_checksum(rev) == before
    dec.params["cls.b"].data[0] += 1e-9
    assert E.params_checksum(dec.params) != before


# ---------------------------------------------------------------------------
# teacher pretraining
# ---------------------------------------------------------------------------

def test_pretrain_teacher_smoke_freezes_and_scores(tmp_path):
    grid = G.standard_grid()
    samples = [make_sample(seed, grid) for seed in (31, 32)]
    log_path = tmp_path / "log.txt"
    teacher, dec, val_map = E.pretrain_teacher(
        samples, samples[:1], grid, ME.EvalConfig("standard", grid=grid),
        seed=0, steps=12, log_path=str(log_path))
    assert teacher.frozen
    assert 0.0 <= val_map <= 1.0
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
        E.pretrain_teacher(samples, samples, grid,
                           ME.EvalConfig("standard", grid=grid), seed=0, steps=5)


def test_pretrain_teacher_rejects_empty_split():
    grid = G.standard_grid()
    with pytest.raises(E.EncoderError):
        E.pretrain_teacher([], [], grid, ME.EvalConfig("standard", grid=grid))
