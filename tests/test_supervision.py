"""Alignment loss variants, query matching, and the student training loop."""

import hashlib
import itertools
import sys
import threading

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


def fmap_pair(seed, grid=None, requires_grad=False):
    grid = grid or G.standard_grid()
    rng = RNG(seed)
    s = oracles.parameter(rng.normal(size=(6, grid.rows, grid.cols)))
    t = rng.normal(size=(6, grid.rows, grid.cols))
    t = oracles.parameter(t) if requires_grad else T.Tensor(t)
    return E.FeatureMap(s, grid), E.FeatureMap(t, grid)


@pytest.fixture(scope="module")
def corpus():
    grid = G.standard_grid()
    rig = RunConfig().rig()
    samples = []
    for seed in (50, 51, 52):
        scene = S.generate_scene(RunConfig(), seed, (0.0, 1.0))
        overhead = S.render_overhead(scene, grid)
        cams = S.render_cameras(scene, rig, grid, overhead)
        samples.append(S.Sample(f"s{seed}", "train", seed, overhead, cams,
                                scene.ground_truth))
    return grid, rig, samples


def frozen_teacher(seed=0):
    teacher = RunConfig().teacher(RNG(seed))
    teacher.freeze()
    return teacher


def run_config(variant, seed, steps, **kw):
    """The config of a student run on the corpus fixture's standard grid."""
    return RunConfig({"roi": "standard", "variant": variant, "seed": seed, "steps": steps,
                      **kw})


# ---------------------------------------------------------------------------
# config and adapter
# ---------------------------------------------------------------------------

def test_adapter_identity_at_init_bitwise():
    rng = RNG(1)
    x = rng.normal(size=(5, 3, 4))
    adapter = SV.MixAdapter(5)
    assert list(adapter.params) == ["w"]
    assert np.array_equal(adapter.params["w"].data, np.eye(5))
    assert np.array_equal(adapter.apply(T.Tensor(x)).data, x)
    assert all(p.requires_grad for p in adapter.params.values())


def test_adapter_mixes_channels_by_w():
    rng = RNG(2)
    x = rng.normal(size=(3, 2, 2))
    adapter = SV.MixAdapter(3)
    w = np.array([[2.0, 0.1, 0.0], [-1.0, 0.5, 0.3], [0.0, -0.3, 1.5]])
    adapter.params["w"].data[:] = w
    got = adapter.apply(T.Tensor(x)).data
    want = np.einsum("ij,jhw->ihw", w, x)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# alignment loss
# ---------------------------------------------------------------------------

def test_alignment_zero_for_identical_maps():
    grid = G.standard_grid()
    x = RNG(3).normal(size=(6, grid.rows, grid.cols))
    adapter = SV.MixAdapter(6)
    for variant in ("raw", "norm_only", "norm_adapter"):
        a = E.FeatureMap(oracles.parameter(x.copy()), grid)
        b = E.FeatureMap(T.Tensor(x.copy()), grid)
        loss = SV.bev_alignment_loss(a, b, adapter, variant)
        assert float(loss.data) == 0.0, variant


def test_alignment_variant_picks_normalize_and_adapter():
    # raw compares the maps as they are, norm_only normalizes both, and
    # norm_adapter then mixes the normalized student map's channels
    assert SV.VARIANTS == ("baseline", "raw", "norm_only", "norm_adapter")
    f_cam, f_aer = fmap_pair(8)
    adapter = SV.MixAdapter(6)
    adapter.params["w"].data[:] = np.eye(6) + 0.2 * RNG(9).normal(size=(6, 6))
    s, t = f_cam.tensor, f_aer.tensor
    want = {"baseline": T.mse(s, t), "raw": T.mse(s, t),
            "norm_only": T.mse(T.channel_normalize(s), T.channel_normalize(t)),
            "norm_adapter": T.mse(adapter.apply(T.channel_normalize(s)),
                                  T.channel_normalize(t))}
    want = {variant: float(loss.data) for variant, loss in want.items()}
    assert len({want["raw"], want["norm_only"], want["norm_adapter"]}) == 3
    for variant in SV.VARIANTS:
        got = SV.bev_alignment_loss(f_cam, f_aer, adapter, variant)
        assert float(got.data) == want[variant], variant


def test_alignment_refuses_a_variant_outside_variants():
    # a misspelt name must not fall through to the raw comparison
    f_cam, f_aer = fmap_pair(8)
    for variant in ("normadapter", "Raw", "", None):
        with pytest.raises(SV.SupervisionError, match="unknown variant"):
            SV.bev_alignment_loss(f_cam, f_aer, SV.MixAdapter(6), variant)


def test_alignment_refuses_norm_adapter_without_an_adapter():
    f_cam, f_aer = fmap_pair(8)
    with pytest.raises(SV.SupervisionError, match="'norm_adapter' needs an adapter"):
        SV.bev_alignment_loss(f_cam, f_aer, None, "norm_adapter")
    # the other variants read no adapter, whether one is passed or not
    for variant in ("baseline", "raw", "norm_only"):
        with_none = SV.bev_alignment_loss(f_cam, f_aer, None, variant)
        with_one = SV.bev_alignment_loss(f_cam, f_aer, SV.MixAdapter(6), variant)
        assert with_none.data.tobytes() == with_one.data.tobytes()


def test_alignment_raw_matches_hand_loop():
    f_cam, f_aer = fmap_pair(4)
    loss = SV.bev_alignment_loss(f_cam, f_aer, None, "raw")
    diff = f_cam.tensor.data - f_aer.tensor.data
    want = float(np.sum(diff * diff) / diff.size)
    assert abs(float(loss.data) - want) < 1e-12


def test_alignment_adapter_at_init_equals_norm_only():
    f_cam, f_aer = fmap_pair(5)
    a = SV.bev_alignment_loss(f_cam, f_aer, SV.MixAdapter(6), "norm_adapter")
    b = SV.bev_alignment_loss(f_cam, f_aer, SV.MixAdapter(6), "norm_only")
    assert float(a.data) == float(b.data)


def test_alignment_gradient_reaches_student_only():
    f_cam, f_aer = fmap_pair(6)
    adapter = SV.MixAdapter(6)
    loss = SV.bev_alignment_loss(f_cam, f_aer, adapter, "norm_adapter")
    T.backward(loss)
    assert f_cam.tensor.grad is not None
    assert np.abs(f_cam.tensor.grad).max() > 0
    assert f_aer.tensor.grad is None
    # the mix sees the normalized student map, so W's gradient is the one
    # the loss takes through that map
    s = T.channel_normalize(T.Tensor(f_cam.tensor.data)).data.reshape(6, -1)
    t = T.channel_normalize(f_aer.tensor).data.reshape(6, -1)
    want = (2.0 / s.size) * (s - t) @ s.T
    assert oracles.rel_error(adapter.params["w"].grad, want) < 1e-12
    # at the identity the student's gradient is norm_only's, bit for bit
    student_grad = f_cam.tensor.grad
    f_cam.tensor.grad = None
    T.backward(SV.bev_alignment_loss(f_cam, f_aer, None, "norm_only"))
    assert np.array_equal(f_cam.tensor.grad, student_grad)


def test_adapter_scale_reaches_the_loss():
    # doubling W doubles the mixed map, which normalization no longer undoes
    f_cam, f_aer = fmap_pair(10)
    adapter = SV.MixAdapter(6)
    at_init = float(SV.bev_alignment_loss(f_cam, f_aer, adapter, "norm_adapter").data)
    adapter.params["w"].data *= 2.0
    doubled = float(SV.bev_alignment_loss(f_cam, f_aer, adapter, "norm_adapter").data)
    assert abs(doubled - at_init) > 1e-3 * at_init


def test_alignment_rejects_trainable_target():
    f_cam, f_aer = fmap_pair(7, requires_grad=True)
    with pytest.raises(SV.SupervisionError, match="frozen"):
        SV.bev_alignment_loss(f_cam, f_aer, None, "raw")


def test_alignment_rejects_shape_and_grid_mismatch():
    grid = G.standard_grid()
    a = E.FeatureMap(T.Tensor(np.zeros((6, grid.rows, grid.cols))), grid)
    b = E.FeatureMap(T.Tensor(np.zeros((5, grid.rows, grid.cols))), grid)
    with pytest.raises(SV.SupervisionError, match="shape"):
        SV.bev_alignment_loss(a, b, None, "raw")
    ext = G.extended_grid()
    c = E.FeatureMap(T.Tensor(np.zeros((6, ext.rows, ext.cols))), ext)
    with pytest.raises(SV.SupervisionError, match="grid"):
        SV.bev_alignment_loss(a, c, None, "raw")


# ---------------------------------------------------------------------------
# polyline resampling and matching
# ---------------------------------------------------------------------------

def test_polyline_points_straight_line_uniform():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    out = SV.polyline_points(pts, 5)
    assert np.allclose(out, np.stack([np.linspace(0, 10, 5), np.zeros(5)], axis=1))


def test_polyline_points_preserves_endpoints_and_arclength_spacing():
    rng = RNG(8)
    pts = np.cumsum(rng.normal(size=(7, 2)), axis=0)
    out = SV.polyline_points(pts, 9)
    assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])
    # consecutive resampled points are equally spaced along the curve
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = seg.sum()
    d = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert d.max() <= total / 8.0 + 1e-9


def confident_logits(classes, n_q):
    z = np.full((n_q, G.N_CLASSES + 1), -5.0)
    for q in range(n_q):
        if q < len(classes):
            z[q, classes[q]] = 5.0
        else:
            z[q, G.N_CLASSES] = 5.0
    return z


def match(logits, pts, gts):
    """match_queries on the decoder's outputs as Tensors, against gts
    resampled to the queries' points, as fit resamples them."""
    return SV.match_queries(T.Tensor(logits), T.Tensor(pts), gts,
                            SV.target_points({0: gts}, pts.shape[1]).get(0))


def test_match_queries_exact_overlap_is_identity():
    rng = RNG(9)
    gts = [(0, 1.0, np.array([[0.0, 0.0], [4.0, 0.0]])),
           (1, 1.0, np.array([[1.0, 5.0], [9.0, 5.0]])),
           (2, 1.0, np.array([[-8.0, -2.0], [-8.0, 6.0]]))]
    pts = np.stack([SV.polyline_points(e[2], 4) for e in gts]
                   + [rng.normal(size=(4, 2)) + 40.0])
    logits = confident_logits([0, 1, 2], 4)
    targets, pairs = match(logits, pts, gts)
    assert list(targets) == [0, 1, 2, G.N_CLASSES]
    assert sorted(q for q, _ in pairs) == [0, 1, 2]
    for q, gt_pts in pairs:
        assert np.allclose(gt_pts, pts[q])


def test_match_queries_gt_reversal_changes_nothing():
    rng = RNG(10)
    pts = rng.normal(size=(5, 4, 2)) * 5.0
    logits = rng.normal(size=(5, G.N_CLASSES + 1))
    gts = [(1, 1.0, rng.normal(size=(6, 2)) * 5.0) for _ in range(3)]
    flipped = [(c, s, p[::-1].copy()) for c, s, p in gts]
    ta, pa = match(logits, pts, gts)
    tb, pb = match(logits, pts, flipped)
    assert np.array_equal(ta, tb)
    assert [q for q, _ in pa] == [q for q, _ in pb]


def match_cost_oracle(logits, pts, gts, penalty=5.0):
    """Cheapest total assignment cost by trying every permutation."""
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    n_q, n_k = pts.shape[0], pts.shape[1]
    best = np.inf
    for perm in itertools.permutations(range(n_q), len(gts)):
        total = 0.0
        for j, q in enumerate(perm):
            cid, _, raw = gts[j]
            g = SV.polyline_points(raw, n_k)
            d = min(np.mean(np.abs(pts[q] - g)), np.mean(np.abs(pts[q] - g[::-1])))
            total += d + penalty * (1.0 - p[q, cid])
        best = min(best, total)
    return best


def test_match_queries_cost_matches_exhaustive_oracle():
    rng = RNG(11)
    for trial in range(10):
        n_q = int(rng.integers(2, 5))
        n_gt = int(rng.integers(1, n_q + 1))
        pts = rng.normal(size=(n_q, 3, 2)) * 4.0
        logits = rng.normal(size=(n_q, G.N_CLASSES + 1))
        gts = [(int(rng.integers(0, G.N_CLASSES)), 1.0,
                rng.normal(size=(4, 2)) * 4.0) for _ in range(n_gt)]
        targets, pairs = match(logits, pts, gts)
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        got = 0.0
        matched = {q: g for q, g in pairs}
        for q, cid in enumerate(targets):
            if cid == G.N_CLASSES:
                continue
            g = matched[q]
            d = min(np.mean(np.abs(pts[q] - g)), np.mean(np.abs(pts[q] - g[::-1])))
            got += d + 5.0 * (1.0 - p[q, cid])
        assert abs(got - match_cost_oracle(logits, pts, gts)) < 1e-9, trial


def test_match_queries_with_target_points_is_bitwise_identical():
    rng = RNG(13)
    pts = rng.normal(size=(5, 4, 2)) * 4.0
    logits = rng.normal(size=(5, G.N_CLASSES + 1))
    gts = [(c, 1.0, rng.normal(size=(6, 2)) * 4.0) for c in (0, 2, 1)]
    resampled = SV.target_points({"s": gts, "empty": []}, 4)
    assert list(resampled) == ["s"] and resampled["s"].shape == (3, 4, 2)
    each = np.stack([SV.polyline_points(e[2], 4) for e in gts])
    assert np.array_equal(resampled["s"], each)
    logits, pts = T.Tensor(logits), T.Tensor(pts)
    ta, pa = SV.match_queries(logits, pts, gts, each)
    tb, pb = SV.match_queries(logits, pts, gts, resampled["s"])
    assert np.array_equal(ta, tb)
    assert [q for q, _ in pa] == [q for q, _ in pb]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(pa, pb))
    for wrong in (SV.target_points({"s": gts}, 3)["s"], each[:2], None):
        with pytest.raises(SV.SupervisionError, match="resampled"):
            SV.match_queries(logits, pts, gts, wrong)


def test_match_queries_empty_and_overfull():
    rng = RNG(12)
    pts = rng.normal(size=(3, 4, 2))
    logits = rng.normal(size=(3, G.N_CLASSES + 1))
    targets, pairs = SV.match_queries(T.Tensor(logits), T.Tensor(pts), [], None)
    assert list(targets) == [G.N_CLASSES] * 3 and pairs == []
    gts = [(0, 1.0, rng.normal(size=(3, 2))) for _ in range(4)]
    with pytest.raises(SV.SupervisionError, match="exceed"):
        match(logits, pts, gts)


def seeded_cost_matrices(seed, n):
    """n cost matrices of every shape up to 12 x 12: normal draws, small
    integers full of ties, 0.1-rounded values, constants, and small
    integers with +inf entries (some of those infeasible)."""
    rng = RNG(seed)
    for trial in range(n):
        shape = tuple(int(d) for d in rng.integers(0, 13, size=2))
        kind = trial % 5
        if kind == 0:
            m = rng.normal(size=shape) * 3.0
        elif kind == 1:
            m = rng.integers(0, 4, size=shape).astype(np.float64)
        elif kind == 2:
            m = np.round(rng.random(shape), 1)
        elif kind == 3:
            m = np.full(shape, float(rng.integers(-2, 3)))
        else:
            m = rng.integers(0, 3, size=shape).astype(np.float64)
            m[rng.random(shape) < 0.3] = np.inf
        yield m


def test_assign_matches_scipy_on_seeded_matrices():
    from scipy.optimize import linear_sum_assignment  # the oracle; tests only
    shapes, infeasible = set(), 0
    for m in seeded_cost_matrices(21, 4000):
        shapes.add(m.shape)
        try:
            want = linear_sum_assignment(m)
        except ValueError:
            infeasible += 1
            with pytest.raises(SV.SupervisionError, match="no finite assignment"):
                SV._assign(m)
            continue
        rows, cols = SV._assign(m)
        assert rows.dtype == cols.dtype == np.int64, m.shape
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1]), m
    # every shape, wide, tall, square and empty, and the infeasible branch
    assert len(shapes) == 169 and infeasible > 0


def test_assign_rejects_nan_and_minus_inf_and_infeasible_matrices():
    for bad in (np.nan, -np.inf):
        m = np.ones((3, 4))
        m[1, 2] = bad
        with pytest.raises(SV.SupervisionError, match="NaN or -inf"):
            SV._assign(m)
        with pytest.raises(SV.SupervisionError, match="NaN or -inf"):
            SV._assign(m.T)
    with pytest.raises(SV.SupervisionError, match="no finite assignment"):
        SV._assign(np.full((2, 3), np.inf))
    m = np.array([[1.0, np.inf], [2.0, np.inf]])  # both rows need column 0
    with pytest.raises(SV.SupervisionError, match="no finite assignment"):
        SV._assign(m)
    for shape in ((0, 4), (4, 0), (0, 0)):
        rows, cols = SV._assign(np.full(shape, np.nan))
        assert rows.shape == cols.shape == (0,)


def test_match_queries_cost_is_the_per_element_loop_bit_for_bit(monkeypatch):
    costs = []
    solve = SV._assign
    monkeypatch.setattr(SV, "_assign", lambda cost: costs.append(cost) or solve(cost))
    rng = RNG(14)
    for trial in range(200):
        n_q = int(rng.integers(1, 13))
        n_k = int(rng.integers(2, 9))
        pts = rng.normal(size=(n_q, n_k, 2)) * 10.0
        logits = rng.normal(size=(n_q, G.N_CLASSES + 1))
        gts = [(int(rng.integers(0, G.N_CLASSES)), 1.0, rng.normal(size=(5, 2)) * 10.0)
               for _ in range(int(rng.integers(1, n_q + 1)))]
        gt_pts = SV.target_points({"s": gts}, n_k)["s"]
        SV.match_queries(T.Tensor(logits), T.Tensor(pts), gts, gt_pts)
        want = oracles.query_cost_oracle(T.softmax_rows(logits), pts, gt_pts,
                                         [e[0] for e in gts])
        assert costs[-1].tobytes() == want.tobytes(), trial


# ---------------------------------------------------------------------------
# clipped targets and detection loss
# ---------------------------------------------------------------------------

def test_clipped_targets_stay_inside_grid(corpus):
    grid, _, samples = corpus
    out = SV.clipped_targets(samples, grid, 99)
    assert set(out) == {s.scene_id for s in samples}
    for elems in out.values():
        for _, _, pts in elems:
            pts = np.asarray(pts)
            assert pts[:, 0].min() >= grid.x_min - 1e-9
            assert pts[:, 0].max() <= grid.x_max + 1e-9
            assert abs(pts[:, 1]).max() <= grid.y_max + 1e-9


def test_clipped_targets_keep_longest_fragments(corpus):
    grid, _, samples = corpus
    def arclen(e):
        pts = np.asarray(e[2])
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    full = SV.clipped_targets(samples, grid, 99)
    for s in samples:
        n = len(full[s.scene_id])
        if n < 3:
            continue
        kept = SV.clipped_targets([s], grid, n - 1)[s.scene_id]
        assert len(kept) == n - 1
        dropped = min(arclen(e) for e in full[s.scene_id])
        assert all(arclen(e) >= dropped for e in kept)


def test_detection_loss_no_elements_is_pure_classification():
    rng = RNG(13)
    logits = oracles.parameter(rng.normal(size=(4, G.N_CLASSES + 1)))
    points = oracles.parameter(rng.normal(size=(4, 3, 2)))
    l_cls, l_reg = SV.detection_loss(logits, points, [], 0.05, None)
    assert float(l_reg.data) == 0.0
    bg = np.full(4, G.N_CLASSES)
    want = float(T.focal_loss(T.Tensor(logits.data), bg, 0.25, 2.0).data)
    assert abs(float(l_cls.data) - want) < 1e-12


def test_detection_loss_reg_scales_with_weight():
    rng = RNG(14)
    logits = oracles.parameter(rng.normal(size=(3, G.N_CLASSES + 1)))
    points = oracles.parameter(rng.normal(size=(3, 4, 2)))
    gts = [(0, 1.0, rng.normal(size=(5, 2))), (1, 1.0, rng.normal(size=(4, 2)))]
    gt_pts = SV.target_points({0: gts}, 4)[0]
    _, r1 = SV.detection_loss(logits, points, gts, 0.1, gt_pts)
    _, r2 = SV.detection_loss(logits, points, gts, 0.4, gt_pts)
    assert abs(float(r2.data) - 4.0 * float(r1.data)) < 1e-12


# ---------------------------------------------------------------------------
# student training loop
# ---------------------------------------------------------------------------

@pytest.fixture
def contracts(monkeypatch):
    """Watches the alignment path of train_student.

    On every alignment-loss call: the normalized channel means of both maps
    are at most 1e-10, and no student map seen so far (the decoder's input)
    has changed since its loss was taken. Call the returned function after
    a run to re-check those maps and that every logged total equals its
    parts and no teacher parameter got a grad. Returns the number of calls.
    """
    plain = SV.bev_alignment_loss
    seen = []  # (student map, digest when its alignment loss was taken)

    def digest(fmap):
        return hashlib.sha256(fmap.tensor.data.tobytes()).hexdigest()

    def unchanged():
        for fmap, want in seen:
            assert digest(fmap) == want, "the loss path modified the decoder input"

    def checked(f_cam, f_aerial, adapter, variant):
        unchanged()
        seen.append((f_cam, digest(f_cam)))
        loss = plain(f_cam, f_aerial, adapter, variant)
        unchanged()
        assert (adapter is None) == (variant != "norm_adapter"), variant
        if variant in ("norm_only", "norm_adapter"):
            for m in (f_cam.tensor, f_aerial.tensor):
                mean = np.abs(T.channel_normalize(m).data.mean(axis=(1, 2))).max()
                assert mean <= 1e-10, f"normalized channel mean {mean}"
        return loss

    def after_run(breakdowns, cfg, teacher):
        unchanged()
        for b in breakdowns:
            parts = b.l_cls + b.l_reg + cfg.lambda_bev * b.l_bev
            assert abs(parts - b.l_total) <= 1e-12, f"step {b.step}: total drifts"
        for name, p in teacher.params.items():
            assert not p.requires_grad and p.grad is None, name
        return len(seen)

    monkeypatch.setattr(SV, "bev_alignment_loss", checked)
    return after_run


def test_mean_of_keeps_its_pinned_bits_at_a_batch_of_three():
    # the pinned runs train at batch 4, where scaling a sum by 1/4 and
    # dividing it by 4 give the same bits, so they cannot tell the two
    # apart; at 3 they differ, and every loss and checksum follows mean_of
    got = SV.mean_of([T.Tensor(v) for v in (1.0, 2.0, 2.0)])
    assert float(got.data).hex() == "0x1.aaaaaaaaaaaaap+0"  # 5 * (1/3); 5 / 3 ends in b


def student_decoder_checksum(models):
    return E.params_checksum(E.named_params({k: models[k] for k in ("student", "decoder")}))


def test_train_student_smoke_and_determinism(corpus, tmp_path, contracts):
    *_, samples = corpus
    teacher = frozen_teacher()
    cfg = run_config("norm_adapter", 5, 6, lambda_bev=0.5)
    log = tmp_path / "steps.log"
    models1, bks = SV.train_student(cfg, samples, teacher, log_path=str(log))
    assert sorted(models1) == ["adapter", "decoder", "student"]
    assert contracts(bks, cfg, teacher) > 0
    assert len(bks) == 6
    assert all(np.isfinite([b.l_cls, b.l_reg, b.l_bev, b.l_total]).all()
               for b in bks)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 6
    # logged floats round-trip and reconstruct the total
    step, lr, cls, reg, bev, total = lines[-1].split()
    assert float(total) == float(cls) + float(reg) + cfg.lambda_bev * float(bev)
    assert bks[-1].l_total == float(total)

    models2, _ = SV.train_student(cfg, samples, teacher)
    assert student_decoder_checksum(models1) == student_decoder_checksum(models2)
    models3, _ = SV.train_student(cfg.with_overrides(seed=6), samples, teacher)
    assert student_decoder_checksum(models1) != student_decoder_checksum(models3)


def test_train_student_baseline_never_touches_teacher(corpus, contracts):
    *_, samples = corpus
    teacher = frozen_teacher()
    # a poisoned teacher would blow up on any forward pass
    for p in teacher.params.values():
        p.data[:] = np.nan
    cfg = run_config("baseline", 1, 3)
    models, bks = SV.train_student(cfg, samples, teacher)
    assert sorted(models) == ["decoder", "student"]
    assert contracts(bks, cfg, teacher) == 0
    assert all(b.l_bev == 0.0 for b in bks)
    assert all(np.isfinite(b.l_total) for b in bks)


def test_train_student_lambda_zero_walks_the_baseline_trajectory(corpus):
    *_, samples = corpus
    teacher = frozen_teacher()
    base = SV.train_student(run_config("baseline", 7, 5), samples, teacher)
    gated = SV.train_student(run_config("norm_adapter", 7, 5, lambda_bev=0.0), samples,
                             teacher)
    assert student_decoder_checksum(base[0]) == student_decoder_checksum(gated[0])
    for a, b in zip(base[1], gated[1]):
        assert a.l_cls == b.l_cls and a.l_reg == b.l_reg
        assert b.l_bev > 0.0 and a.l_bev == 0.0
        assert a.l_total == b.l_total


def test_train_student_teacher_stays_isolated(corpus, contracts):
    *_, samples = corpus
    teacher = frozen_teacher()
    before = E.params_checksum(teacher.params)
    cfg = run_config("raw", 2, 4)
    _, bks = SV.train_student(cfg, samples, teacher)
    assert contracts(bks, cfg, teacher) > 0
    assert E.params_checksum(teacher.params) == before
    assert all(p.grad is None for p in teacher.params.values())


def test_training_and_evaluation_lift_the_same_student_features(monkeypatch):
    # scene seed 4 has occluders that hide cells from cameras that would
    # see them; the student must not be told so in training, since the
    # evaluation path cannot know it
    grid, rig = G.extended_grid(), RunConfig().rig()
    scene = S.generate_scene(RunConfig(), 4, (0.0, 1.0))
    assert not S.cell_visibility(scene, rig, grid).all()
    overhead = S.render_overhead(scene, grid)
    sample = S.Sample("s4", "train", 4, overhead,
                      S.render_cameras(scene, rig, grid, overhead),
                      scene.ground_truth)
    plain = SV.student_forward
    pairs = []

    def both_paths(student, images, *args, **kwargs):
        fmap = plain(student, images, *args, **kwargs)
        # the call train_run's evaluate_model makes, at the same weights
        evaluated = plain(student, images, rig, grid)
        pairs.append((fmap.tensor.data.copy(), evaluated.tensor.data))
        return fmap

    monkeypatch.setattr(SV, "student_forward", both_paths)
    cfg = RunConfig({"variant": "raw", "seed": 3, "steps": 1, "batch": 1})
    SV.train_student(cfg, [sample], frozen_teacher())
    assert len(pairs) == 1
    assert np.array_equal(*pairs[0])


def test_the_lift_index_arrays_are_built_with_the_table(corpus, monkeypatch):
    grid, rig, samples = corpus
    student = RunConfig().student(RNG(3))
    built = []
    plain = T.conv_sites

    def counted(*args, **kwargs):
        built.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(T, "conv_sites", counted)
    monkeypatch.setattr(E, "conv_sites", counted)
    outs = [E.student_forward(student, s.cams, rig, grid).tensor.data for s in samples[:2]]
    assert len(built) == len(rig)
    assert outs[0].shape == (student.c_feat, grid.rows, grid.cols)
    # each camera's sites pick its table's read pixels out of the full feature map
    table, sites = student._lift_plan(rig, grid)
    for img, reads, at in zip(samples[1].cams, table.reads, sites):
        full = student.extract(img).data.reshape(student.c_feat, -1)
        assert oracles.rel_error(student.extract(img, at).data, full[:, reads]) <= 1e-12


def test_train_student_requires_frozen_teacher(corpus):
    *_, samples = corpus
    teacher = RunConfig().teacher(RNG(0))
    with pytest.raises(SV.SupervisionError, match="frozen"):
        SV.train_student(run_config("raw", 0, 1), samples, teacher)
    with pytest.raises(SV.SupervisionError, match="empty"):
        SV.train_student(run_config("raw", 0, 1), [], frozen_teacher())


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value",
                            "ignore:overflow")
def test_train_student_divergence_names_the_step(corpus):
    *_, samples = corpus
    with pytest.raises(SV.SupervisionError, match="step"):
        SV.train_student(run_config("norm_only", 3, 30, base_lr=1e8), samples,
                         frozen_teacher())


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

def on_threads(monkeypatch, threads, run):
    """run() with fit on ``threads`` threads; returns (its result, the
    names of the threads that walked a sample's backward pass)."""
    monkeypatch.setattr(SV, "_cpu_share", threads)
    monkeypatch.setattr(SV, "PACE", SV.Pace())
    monkeypatch.setattr(SV.Pace, "solo_maps", 0)  # waiting below must not leave the pool idle
    plain = SV.Crew.map
    names = set()
    helped = threading.Event()

    def watched_map(crew, fn, *iterables):
        def watched(*args):
            names.add(threading.current_thread().name)
            if threading.current_thread() is not threading.main_thread():
                helped.set()
            elif threads > 1:
                helped.wait(timeout=30)  # hold the first walk until a pool thread takes one
            return fn(*args)
        return plain(crew, watched, *iterables)

    monkeypatch.setattr(SV.Crew, "map", watched_map)
    try:
        return run(), names
    finally:
        monkeypatch.setattr(SV.Crew, "map", plain)


def test_fit_gives_the_same_bits_on_one_thread_and_on_two(corpus, tmp_path, monkeypatch):
    *_, samples = corpus
    runs = {}
    for threads in (1, 2):
        def pretrain():
            log = tmp_path / f"teacher{threads}.log"
            teacher, decoder, val_map = E.pretrain_teacher(
                RunConfig({"roi": "standard", "teacher_seed": 2, "teacher_steps": 3}), samples,
                samples[:1], str(log))
            params = E.named_params({"teacher": teacher, "decoder": decoder})
            return E.params_checksum(params), log.read_bytes(), val_map

        runs[("teacher", threads)], names = on_threads(monkeypatch, threads, pretrain)
        assert len(names) == threads
        teacher = frozen_teacher()
        for variant in SV.VARIANTS:
            def student():
                log = tmp_path / f"{variant}{threads}.log"
                models, _ = SV.train_student(run_config(variant, 4, 3), samples, teacher,
                                             str(log))
                return E.params_checksum(E.named_params(models)), log.read_bytes()

            runs[(variant, threads)], names = on_threads(monkeypatch, threads, student)
            assert len(names) == threads, variant
    for name in ("teacher",) + SV.VARIANTS:
        assert runs[(name, 1)] == runs[(name, 2)], name


def test_a_worker_error_leaves_as_divergence_at_its_step(corpus, tmp_path, monkeypatch):
    *_, samples = corpus
    monkeypatch.setattr(SV, "_cpu_share", 2)
    monkeypatch.setattr(SV, "PACE", SV.Pace())  # no earlier test's misses: step 1 uses the pool
    plain = SV.Crew.map
    steps = []
    failed = threading.Event()

    def poisoned_map(crew, fn, *iterables):
        steps.append(1)

        def walk(*args):
            if len(steps) > 1:  # step 1 on: the main thread waits while a pool thread fails
                if threading.current_thread() is threading.main_thread():
                    failed.wait(timeout=30)
                else:
                    failed.set()
                    T.relu(T.Tensor(np.full(3, np.nan)))  # raises: relu passes NaN on
            return fn(*args)
        return plain(crew, walk, *iterables)

    monkeypatch.setattr(SV.Crew, "map", poisoned_map)
    before = threading.active_count()
    log = tmp_path / "log.txt"
    with pytest.raises(SV.SupervisionError, match=r"^diverged at step 1: non-finite values "
                                                  r"produced by op 'relu'$"):
        SV.train_student(run_config("raw", 3, 4), samples, frozen_teacher(), str(log))
    assert failed.is_set() and len(log.read_text().splitlines()) == 1
    assert threading.active_count() == before  # the pool is shut down


def test_crew_map_makes_each_call_once_under_contention():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can be
    try:
        pace = SV.Pace()
        pace.solo_maps = 0  # the pool threads take part in every map
        with SV.Crew(4, pace) as crew:  # more threads than this machine's cores
            for _ in range(20):
                calls = []

                def work(i, j):
                    calls.append(i)
                    return float(np.sum(np.full(50, float(i)))) + j

                got = crew.map(work, range(64), range(64, 128))
                assert got == [51.0 * i + 64 for i in range(64)]
                assert sorted(calls) == list(range(64))

                def fail(i):
                    calls.append(i)
                    if i % 7 == 3:
                        raise T.TensorError(f"item {i}")
                    return i

                calls.clear()
                with pytest.raises(T.TensorError, match="^item 3$"):
                    crew.map(fail, range(64))
                # calls are claimed in order, so every call before the first failure ran
                assert set(range(4)) <= set(calls) and len(set(calls)) == len(calls)
    finally:
        sys.setswitchinterval(interval)


def test_crew_runs_alone_after_two_helper_maps_in_a_row_that_did_not_pay(monkeypatch):
    ticks = itertools.count()
    wall = {"step": 0.0, "now": 0.0}

    def perf_counter():
        wall["now"] += wall["step"]
        return wall["now"]

    # every thread_time reading is one CPU second after the last, so each
    # map's calls take at least 2 s of CPU; a wall step of 0 is a hit, 1e9 a miss
    monkeypatch.setattr(SV, "time", type(sys)("fake_time"))
    SV.time.perf_counter = perf_counter
    SV.time.thread_time = lambda: float(next(ticks))
    pace = SV.Pace()
    submits = []

    def helped(crew, maps, step):
        """How many of ``maps`` maps with a wall step of ``step`` used the helper."""
        wall["step"] = step
        before = len(submits)
        for _ in range(maps):
            assert crew.map(lambda i: i * i, range(4)) == [0, 1, 4, 9]
        return len(submits) - before

    with SV.Crew(1, pace) as crew:
        submit = crew.pool.submit
        crew.pool.submit = lambda *args: submits.append(1) or submit(*args)
        assert helped(crew, 3, 0.0) == 3
        assert helped(crew, 1, 1e9) == 1 and helped(crew, 1, 0.0) == 1  # a hit forgives a miss
        assert helped(crew, 2, 1e9) == 2
        assert helped(crew, 5, 0.0) == 0  # two misses in a row: alone ...
    with SV.Crew(1, pace) as crew:  # ... in the next fit too, for solo_maps maps in all
        submit = crew.pool.submit
        crew.pool.submit = lambda *args: submits.append(1) or submit(*args)
        assert helped(crew, SV.Pace.solo_maps - 5, 0.0) == 0
        assert helped(crew, 1, 1e9) == 1  # tried again, and one miss there ...
        assert helped(crew, SV.Pace.solo_maps, 1e9) == 0  # ... means alone once more
        assert helped(crew, 2, 0.0) == 2 and helped(crew, 1, 1e9) == 1
        assert helped(crew, 1, 0.0) == 1
    with SV.Crew(0) as a, SV.Crew(0) as b:
        assert a.pace is b.pace is SV.PACE  # every fit of the process shares one
    pace = SV.Pace()
    for _ in range(2):
        pace.judge(0.79, 1.0)  # saved over a fifth of the CPU time: a hit
    assert not pace.alone()
    for _ in range(2):
        pace.judge(0.8, 1.0)
    assert pace.alone()
