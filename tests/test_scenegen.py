"""Scene generation determinism, rendering consistency, dataset round trips."""

import hashlib
import os

import numpy as np
import pytest

import oracles
from bevlab import geometry as G
from bevlab import scenegen as S
from bevlab import tensors as T
from bevlab.config import RunConfig

CFG = RunConfig()


def make_scene(seed, band=(0.0, 1.0), **fields):
    """generate_scene at the default config with ``fields`` replaced, its
    roads curving by up to the full configured curvature by default."""
    return S.generate_scene(CFG.with_overrides(**fields), seed, band)


def same_scene(a, b):
    """Every field of two scenes, arrays compared bit for bit."""
    return ((a.seed, a.texture_seed, a.occluders) == (b.seed, b.texture_seed, b.occluders)
            and len(a.roads) == len(b.roads)
            and all(ra.half_width == rb.half_width
                    and np.array_equal(ra.centerline, rb.centerline)
                    for ra, rb in zip(a.roads, b.roads))
            and len(a.ground_truth) == len(b.ground_truth)
            and all((ca, sa) == (cb, sb) and np.array_equal(pa, pb)
                    for (ca, sa, pa), (cb, sb, pb) in zip(a.ground_truth, b.ground_truth)))


def test_same_seed_byte_identical_serialization():
    a = make_scene(7)
    b = make_scene(7)
    assert same_scene(a, b)
    c = make_scene(8)
    assert not same_scene(c, a)


def test_zero_crossing_probability():
    for seed in range(10):
        scene = make_scene(seed, crossing_probability=0.0)
        assert all(cid != 0 for cid, _, _ in scene.ground_truth)


def test_all_classes_frequent_over_100_seeds():
    counts = {0: 0, 1: 0, 2: 0}
    for seed in range(100):
        scene = make_scene(seed)
        present = {cid for cid, _, _ in scene.ground_truth}
        for c in present:
            counts[c] += 1
    assert counts[1] >= 80 and counts[2] >= 80
    assert counts[0] >= 80


def test_class_balance_over_corpus():
    totals = {0: 0, 1: 0, 2: 0}
    for seed in range(200):
        scene = make_scene(seed)
        for cid, _, _ in scene.ground_truth:
            totals[cid] += 1
    total = sum(totals.values())
    for c in range(3):
        assert totals[c] / total >= 0.15


def test_ground_truth_intersects_extended_roi():
    ext = G.extended_grid()
    for seed in range(20):
        scene = make_scene(seed)
        for cid, _, pts in scene.ground_truth:
            rows, cols, inside = ext.cells_of(pts)
            assert inside.any(), f"seed {seed} class {cid} entirely outside"


def empty_scene(texture_seed=5):
    return S.Scene(0, texture_seed, roads=[], ground_truth=[], occluders=[])


def test_overhead_empty_scene_is_pure_background():
    grid = G.standard_grid()
    img = S.render_overhead(empty_scene(), grid)
    rr, cc = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    want = S.background_color(5, rr, cc)
    assert np.array_equal(img, want)
    # deterministic in texture_seed, different seeds differ
    assert np.array_equal(img, S.render_overhead(empty_scene(), grid))
    assert not np.array_equal(img, S.render_overhead(empty_scene(9), grid))


def test_overhead_single_boundary_diff_matches_rasterizer():
    grid = G.standard_grid()
    pts = np.array([[-20.0, -5.0], [20.0, 8.0]])
    scene = S.Scene(0, 5, roads=[], ground_truth=[(2, 1.0, pts)], occluders=[])
    img = S.render_overhead(scene, grid)
    base = S.render_overhead(empty_scene(), grid)
    diff = np.any(img != base, axis=0)
    marked = S.rasterize_polyline(grid, pts, np.zeros((grid.rows, grid.cols)), 1).astype(bool)
    assert np.array_equal(diff, marked)


def test_overhead_ignores_occluders():
    scene = make_scene(11)
    assert scene.occluders
    stripped = S.Scene(scene.seed, scene.texture_seed, scene.roads,
                       scene.ground_truth, [])
    grid = G.extended_grid()
    assert np.array_equal(S.render_overhead(scene, grid),
                          S.render_overhead(stripped, grid))


def test_overhead_values_in_unit_range():
    grid = G.extended_grid()
    img = S.render_overhead(make_scene(2), grid)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_camera_pixels_match_overhead_cells_without_occluders():
    # the cross-view color consistency oracle, checked per pixel
    grid = G.extended_grid()
    rig = CFG.rig()
    scene = make_scene(4, occluder_count=(0, 0))
    assert not scene.occluders
    overhead = S.render_overhead(scene, grid)
    images = S.render_cameras(scene, rig, grid, overhead)
    checked = 0
    for cam, img in zip(rig, images):
        for i in range(0, cam.height, 3):
            for j in range(0, cam.width, 3):
                hit = oracles.pixel_to_ground(cam, j + 0.5, i + 0.5)
                if hit is None:
                    assert np.array_equal(img[:, i, j], np.array(S.SKY_COLOR))
                    continue
                r, c, inside = grid.cells_of(hit)
                if not inside:
                    continue
                assert np.array_equal(img[:, i, j], overhead[:, r, c])
                checked += 1
    assert checked > 500


def test_camera_values_in_unit_range_and_deterministic():
    grid = G.extended_grid()
    rig = CFG.rig()
    scene = make_scene(6)
    a = S.render_cameras(scene, rig, grid, S.render_overhead(scene, grid))
    b = S.render_cameras(scene, rig, grid, S.render_overhead(scene, grid))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
        assert x.min() >= 0.0 and x.max() <= 1.0


def test_horizon_rows_are_sky():
    grid = G.extended_grid()
    rig = CFG.rig()
    scene = empty_scene()
    img = S.render_cameras(scene, rig, grid, S.render_overhead(scene, grid))[0]
    # top image row looks above the horizon for every column
    assert np.all(img[:, 0, :] == np.array(S.SKY_COLOR)[:, None])


def test_occluder_hides_crossing_from_camera_only():
    grid = G.standard_grid()
    rig = CFG.rig()
    center = np.array([[float(x), 0.0] for x in range(-24, 26, 2)])
    road = S.Road(center, 3.2)
    crossing = np.array([[10.0, -3.7], [10.0, 3.7]])
    gt = [(0, 1.0, crossing),
          (2, 1.0, center + np.array([0.0, 3.2])),
          (2, 1.0, center - np.array([0.0, 3.2]))]
    box = (5.0, 6.0, -4.0, 4.0, 2.2)
    scene = S.Scene(0, 13, roads=[road], ground_truth=gt, occluders=[box])
    overhead = S.render_overhead(scene, grid)
    crossing_color = np.array(S.CLASS_COLORS[0])
    over_hits = np.all(overhead == crossing_color[:, None, None], axis=0)
    assert over_hits.any()  # crossing present in the overhead view
    cam0 = S.render_cameras(scene, rig, grid, overhead)[0]
    cam_hits = np.all(cam0 == crossing_color[:, None, None], axis=0)
    assert not cam_hits.any()  # fully shadowed by the box
    # with the occluder removed the crossing is visible to the camera
    open_scene = S.Scene(0, 13, roads=[road], ground_truth=gt, occluders=[])
    cam0_open = S.render_cameras(open_scene, rig, grid, S.render_overhead(open_scene, grid))[0]
    open_hits = np.all(cam0_open == crossing_color[:, None, None], axis=0)
    assert open_hits.any()


def banded_scenes(n):
    """Seeded scenes from the train and the val curvature band."""
    return [S.generate_scene(CFG, seed, band_of("train" if seed % 2 else "val"))
            for seed in range(n)]


def test_render_overhead_matches_the_former_renderer():
    for grid in (G.extended_grid(), G.standard_grid()):
        for scene in banded_scenes(16):
            assert np.array_equal(S.render_overhead(scene, grid),
                                  oracles.render_overhead_oracle(scene, grid)), scene.seed


def with_boxes(scene, boxes):
    return S.Scene(scene.seed, scene.texture_seed, scene.roads, scene.ground_truth, boxes)


def assert_cameras_match(scene, rig, grid):
    overhead = S.render_overhead(scene, grid)
    got = S.render_cameras(scene, rig, grid, overhead)
    want = oracles.render_cameras_oracle(scene, rig, grid, overhead)
    for k, (a, b) in enumerate(zip(got, want, strict=True)):
        assert np.array_equal(a, b), (scene.occluders, k)


def test_render_cameras_match_the_full_image_occluder_loop():
    grid, rig = G.extended_grid(), CFG.rig()
    for scene in banded_scenes(12):
        assert_cameras_match(scene, rig, grid)
    # a box wholly behind camera 0, one straddling its plane, one with an
    # edge in it (z_cam exactly 0), one over the rig, a box hidden behind
    # another and two identical ones (the first of equals wins), and
    # boxes that leave the image on each side
    base = banded_scenes(1)[0]
    cases = [[(-12.0, -10.0, -1.0, 1.0, 2.0)], [(-1.0, 3.0, 2.0, 4.0, 2.0)],
             [(0.0, 4.0, -2.0, 2.0, 1.6)], [(-1.0, 1.0, -1.0, 1.0, 2.5)],
             [(8.0, 9.0, -1.0, 1.0, 2.0), (12.0, 14.0, -3.0, 3.0, 2.4)],
             [(6.0, 7.0, 1.0, 2.0, 1.8), (6.0, 7.0, 1.0, 2.0, 1.8)],
             [(3.0, 30.0, -20.0, 20.0, 0.5)], [(2.0, 3.0, 2.0, 9.0, 6.0)],
             [(-1.0, 1.0, -1.0, 1.0, 1.0)]]
    for boxes in cases:
        assert_cameras_match(with_boxes(base, boxes), rig, grid)


def test_box_windows_hold_every_pixel_a_corner_on_its_ray_can_hit():
    # a box corner on the ray through a pixel center: whether the slab
    # test counts the touch is up to rounding, and so is which side of
    # that center the corner projects to; the pixel must be in the box's
    # window either way. The corner is the box's top, on the ray, or its
    # foot, where the ray meets the ground, so it falls on every side of
    # the box's outline in the image
    rng = np.random.default_rng(3)
    for cam in CFG.rig():
        dirs = oracles.pixel_dirs_oracle(cam)
        for i in (29, 31, 34, 38, 45, 55):
            for j in range(5, 96, 9):
                for top in (True, False):
                    t = rng.uniform(4.0, 5.5) if top else -cam.position[2] / dirs[i, j, 2]
                    p = cam.position + t * dirs[i, j]
                    if top and p[2] <= 0.2:
                        continue
                    for sx in (-1.0, 1.0):
                        for sy in (-1.0, 1.0):
                            xs = sorted((p[0], p[0] + sx * 1.5))
                            ys = sorted((p[1], p[1] + sy * 1.5))
                            box = (xs[0], xs[1], ys[0], ys[1], p[2] if top else 1.0)
                            hit = S._ray_box_hits(cam.position, dirs, box)[1]
                            window = np.zeros(hit.shape, dtype=bool)
                            window[S._box_windows(cam, [box])[0]] = True
                            assert np.array_equal(hit & window, hit), (box, i, j)


def test_pixel_rays_are_kept_read_only_on_each_camera():
    # two rigs with the same yaws but other pitches must not share rays
    for rig in (CFG.rig(), CFG.with_overrides(cam_pitch=0.3).rig(),
                CFG.with_overrides(cameras=6).rig()):
        for cam in rig:
            dirs = cam.pixel_dirs()
            assert dirs is cam.pixel_dirs() and not dirs.flags.writeable
            assert np.array_equal(dirs, oracles.pixel_dirs_oracle(cam))
            rays = cam.ground_rays()
            assert rays is cam.ground_rays()
            assert not any(a.flags.writeable for a in rays)
            t, pixels, hits = rays
            dz = dirs[..., 2]
            assert np.array_equal(np.isfinite(t), dz < -1e-12)
            assert np.array_equal(pixels, np.flatnonzero(dz < -1e-12))
            for p, xy in zip(pixels, hits):  # one pixel at a time, as the scalar formula
                i, j = divmod(int(p), cam.width)
                t_p = -cam.position[2] / dz[i, j]
                assert t[i, j] == t_p
                assert xy.tolist() == [cam.position[0] + t_p * dirs[i, j, 0],
                                       cam.position[1] + t_p * dirs[i, j, 1]]


def test_cell_visibility_blocks_shadowed_cells():
    grid = G.standard_grid()
    rig = CFG.rig()
    box = (5.0, 6.0, -4.0, 4.0, 2.2)
    scene = S.Scene(0, 13, roads=[], ground_truth=[], occluders=[box])
    vis = S.cell_visibility(scene, rig, grid)
    open_vis = S.cell_visibility(S.Scene(0, 13, [], [], []), rig, grid)
    assert vis.shape == (4, grid.rows, grid.cols)
    # occlusion only removes visibility, never adds it
    assert np.all(vis <= open_vis)
    lost = open_vis[0] & ~vis[0]
    assert lost.any()
    rows, cols = np.nonzero(lost)
    xs, ys = grid.cell_center(rows, cols)
    # every shadowed cell sits beyond the box inside the shadow cone which
    # opens through the silhouette corners (5, +-4) as seen from the rig
    assert np.all(xs > 5.0)
    assert np.all(np.abs(ys) / xs <= 4.0 / 5.0 + 1e-9)
    # cells straight ahead just behind the box are definitely shadowed
    row, col, _ = grid.cells_of((10.0, 0.0))
    assert lost[row, col]


def test_occlusion_asymmetry_over_random_scenes():
    grid = G.standard_grid()
    rig = CFG.rig()
    any_blocked = False
    for seed in range(30):
        scene = make_scene(seed)
        vis = S.cell_visibility(scene, rig, grid)
        open_vis = S.cell_visibility(
            S.Scene(scene.seed, scene.texture_seed, scene.roads, scene.ground_truth, []),
            rig, grid)
        assert np.all(vis <= open_vis)
        if (open_vis.any(axis=0) & ~vis.any(axis=0)).any():
            any_blocked = True
    assert any_blocked


def test_export_load_round_trip(tmp_path):
    path = tmp_path / "ds"
    rows = S.export_dataset(path, CFG.with_overrides(n_train=8, n_val=2))
    assert len(rows) == 10
    train_seeds = {s for _, sp, s in rows if sp == "train"}
    val_seeds = {s for _, sp, s in rows if sp == "val"}
    assert train_seeds.isdisjoint(val_seeds)
    samples = list(S.load_dataset(path))
    assert len(samples) == 10
    assert sum(s.split == "val" for s in samples) == 2
    grid, rig = G.extended_grid(), CFG.rig()
    for sample in samples:
        regenerated = S.generate_scene(CFG, sample.seed, band_of(sample.split))
        overhead = S.render_overhead(regenerated, grid)
        assert np.array_equal(sample.overhead, overhead)
        cams = S.render_cameras(regenerated, rig, grid, overhead)
        assert len(sample.cams) == len(cams) == 4
        assert all(np.array_equal(a, b) for a, b in zip(sample.cams, cams))
        # gt.txt keeps 6 decimals, which is what training and evaluation read
        assert ([G.format_polyline(*e) for e in sample.gt]
                == [G.format_polyline(*e) for e in regenerated.ground_truth])


def test_exported_scene_holds_only_what_a_run_reads(tmp_path):
    path = tmp_path / "ds"
    S.export_dataset(path, CFG.with_overrides(n_train=2, n_val=1))
    assert sorted(p.name for p in path.iterdir()) == [
        "manifest.txt", "scene_0000", "scene_0001", "scene_0002"]
    for sid in ("scene_0000", "scene_0001", "scene_0002"):
        assert sorted(p.name for p in (path / sid).iterdir()) == [
            "cam_0.ten", "cam_1.ten", "cam_2.ten", "cam_3.ten", "gt.txt", "overhead.ten"]


def band_of(split):
    return (0.0, 0.75) if split == "train" else (0.78, 1.0)


def test_export_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    S.export_dataset(a, CFG.with_overrides(n_train=3, n_val=1))
    S.export_dataset(b, CFG.with_overrides(n_train=3, n_val=1))
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
    for sid in ("scene_0000", "scene_0003"):
        for fn in ("overhead.ten", "cam_2.ten", "gt.txt"):
            assert (a / sid / fn).read_bytes() == (b / sid / fn).read_bytes()


# sha256 of every file export_dataset writes for 3 train and 2 val scenes
# with the default config's corpus fields, rig and grid. Faster rendering must
# write the same bytes; only a change that means to draw other scenes
# moves these, and says so.
CORPUS_PINNED = {
    "manifest.txt": "d167b0313c90bfc20203dff482e920693ef5904579ce17bdade06a897ae1819b",
    "scene_0000/cam_0.ten": "1048c9710564f0ec278a9a3b2ee1c70334f5c3e14b84e91766e8197afaff670a",
    "scene_0000/cam_1.ten": "53d412ffbb0717cf678a1bae51c4749340874dd531e04b55091366b8667125c6",
    "scene_0000/cam_2.ten": "c45d78995868736b5fe503327c08fa7ef0d098baf3bf8a9a18603126b9184d52",
    "scene_0000/cam_3.ten": "4c6105c1a3194dc017604a4b142f553a4b581866953605f430b00a3d5bfd3db0",
    "scene_0000/gt.txt": "5c73aa68182f03ddd2da97b08519d7fac513df44a3c5ff66acd982e4d5bcb6e0",
    "scene_0000/overhead.ten": "e27a437bf64ed549d6e99b88bc23abd53c6c69f6ff569e68436e5def7798bac3",
    "scene_0001/cam_0.ten": "47aede535dbda2505474b2e38ea0f947d4788a0aa07f5e4499819fc3a7229331",
    "scene_0001/cam_1.ten": "d6451733fccbaa495cde07b3309c59fd7a0129044953605bb4a4179f47918cb7",
    "scene_0001/cam_2.ten": "6a17c3afea4cb6d32cd47a6bab22c96b3b14449bb44e5948ec40097c45cf29bd",
    "scene_0001/cam_3.ten": "6130b721cfde1fff97409e31217ec710830a51cd1f0ef9fbf1c98dbb9ad225c5",
    "scene_0001/gt.txt": "ca9428066bc181a2138098b0f138cc85e1d54cbad477137b851d450f36b5ac84",
    "scene_0001/overhead.ten": "0db319f62e470ecc9bcdfb6aee31786eb3da530b8b0f8016baf4ab32a553e3de",
    "scene_0002/cam_0.ten": "8892dea30aedc693aad4c7524f88949a618075139f0d0f7c1ba7d553ce062c05",
    "scene_0002/cam_1.ten": "5334b2ebb44751bba749d3fa27e656afefa0d8f6ab10d62e6d9e7580935efc3e",
    "scene_0002/cam_2.ten": "08fb46f3186f3d0d6adf98c0f4d01baa2d50010f665d1ac0e4b0a27ba9f819c3",
    "scene_0002/cam_3.ten": "135d35b00bd94070d2eb658430ce82ff0f00ae4a9b1615323436fc88cb73a35f",
    "scene_0002/gt.txt": "3a942b803e6c0a4c85ad93d250ab0a354b781fbd32a180e4f8c344390990b2db",
    "scene_0002/overhead.ten": "4e2d88c9db53190f1fdf313b33ab14aa3fd8e76d8bb33dd809a750c340475ebf",
    "scene_0003/cam_0.ten": "2b7d64315a334603c3cbb08abf135322f08c3f81f70380ee922025dcf18ed781",
    "scene_0003/cam_1.ten": "77efb517d1d70139638851ae661e07d65b8b0a6e65e84be6375c080b49abae56",
    "scene_0003/cam_2.ten": "885b4c5139c301f29e66a1ba90590d521c86f2785871adec854e4eac3bc1c989",
    "scene_0003/cam_3.ten": "c29dba2708b1e060c062e4a0f5bc89ddf81902db7ef062dc8c5ac93dbf7f3899",
    "scene_0003/gt.txt": "3c1e097d59daeed1d587aa5db7d2b35a17423a5ae56c4b8ab4847d8fef60083d",
    "scene_0003/overhead.ten": "b02634f8a7df08b0b992d45874e34de7cf39850438a507c24e253c10c3d308e1",
    "scene_0004/cam_0.ten": "a9056ba2766bce891c4e89ff9ac5a382c6d408daaa8cdd4d0b9f7f2d7fb068fa",
    "scene_0004/cam_1.ten": "a2e4cda078a42c53c8785023da890d430873b9bfdace0f546c141c06532c267e",
    "scene_0004/cam_2.ten": "7ebd48d3ab15d62e66d2e05b9b3953e3305e191eb10191d7e39d103be1142bc6",
    "scene_0004/cam_3.ten": "fd0fa080d1c7cd9db47fc21956e30b5527af34f5ce146cd9581da71c39546bc4",
    "scene_0004/gt.txt": "2d25f70e5daab95369d942c796b1af35f80aaa0240a78c0191c5f64c033059f1",
    "scene_0004/overhead.ten": "ebf4f2ec05ec4d7def0aa6547259a2713e1971951c2d38368e74771592eda7cf",
}


def test_exported_corpus_keeps_its_pinned_bytes(tmp_path):
    S.export_dataset(tmp_path, CFG.with_overrides(n_train=3, n_val=2))
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*") if p.is_file()}
    moved = [f"{name}: {got.get(name)} != pinned {want}"
             for name, want in CORPUS_PINNED.items() if got.get(name) != want]
    assert not moved, "\n".join(["moved:"] + moved)
    assert sorted(got) == sorted(CORPUS_PINNED)


def test_load_reports_scene_id_on_corruption(tmp_path):
    path = tmp_path / "ds"
    S.export_dataset(path, CFG.with_overrides(n_train=2, n_val=1))
    victim = path / "scene_0001" / "cam_1.ten"
    victim.write_bytes(victim.read_bytes()[:-9])
    with pytest.raises(S.SceneGenError) as ei:
        list(S.load_dataset(path))
    assert "scene_0001" in str(ei.value)
    assert "cam_1.ten" in str(ei.value)


def test_cams_are_read_on_first_use_once_each_as_read_ten_reads_them(tmp_path, camera_reads):
    path = tmp_path / "ds"
    S.export_dataset(path, CFG.with_overrides(n_train=2, n_val=1))
    samples = list(S.load_dataset(path))
    assert camera_reads == []
    for sample in samples:
        files = [str(path / sample.scene_id / f"cam_{k}.ten") for k in range(4)]
        cams = sample.cams
        assert [p for p, _ in camera_reads] == files
        assert sample.cams is cams and len(camera_reads) == 4
        for img, fn in zip(cams, files):
            want = T.read_ten(fn)
            assert img.dtype == want.dtype and img.shape == want.shape
            assert img.tobytes() == want.tobytes()
        camera_reads.clear()


def test_cams_replaced_or_removed_after_load_are_not_read(tmp_path):
    path = tmp_path / "ds"
    S.export_dataset(path, CFG.with_overrides(n_train=3, n_val=1))
    samples = list(S.load_dataset(path))
    # another file moved in, the same file rewritten in place, a file removed
    other = path / "scene_0000" / "cam_2.ten"
    other.with_name("new.ten").write_bytes((path / "scene_0000" / "cam_1.ten").read_bytes())
    os.replace(other.with_name("new.ten"), other)
    rewritten = path / "scene_0001" / "cam_3.ten"
    rewritten.write_bytes(rewritten.read_bytes())
    (path / "scene_0002" / "cam_0.ten").unlink()
    for sample, name in zip(samples, ("cam_2.ten", "cam_3.ten", "cam_0.ten")):
        with pytest.raises(S.SceneGenError) as ei:
            sample.cams
        assert sample.scene_id in str(ei.value) and name in str(ei.value)
    assert len(samples[3].cams) == 4


def test_over_constrained_params_raise():
    # a road can never keep 25 m inside the RoI if it must curve this hard
    with pytest.raises(S.SceneGenError):
        make_scene(0, (1.0, 1.0), curvature=50.0)
