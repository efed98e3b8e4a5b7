"""Scene generation determinism, rendering consistency, dataset round trips."""

import numpy as np
import pytest

import oracles
from bevlab import geometry as G
from bevlab import scenegen as S


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
    a = S.generate_scene(S.SceneParams(7))
    b = S.generate_scene(S.SceneParams(7))
    assert same_scene(a, b)
    c = S.generate_scene(S.SceneParams(8))
    assert not same_scene(c, a)


def test_zero_crossing_probability():
    for seed in range(10):
        scene = S.generate_scene(S.SceneParams(seed, crossing_probability=0.0))
        assert all(cid != 0 for cid, _, _ in scene.ground_truth)


def test_all_classes_frequent_over_100_seeds():
    counts = {0: 0, 1: 0, 2: 0}
    for seed in range(100):
        scene = S.generate_scene(S.SceneParams(seed))
        present = {cid for cid, _, _ in scene.ground_truth}
        for c in present:
            counts[c] += 1
    assert counts[1] >= 80 and counts[2] >= 80
    assert counts[0] >= 80


def test_class_balance_over_corpus():
    totals = {0: 0, 1: 0, 2: 0}
    for seed in range(200):
        scene = S.generate_scene(S.SceneParams(seed))
        for cid, _, _ in scene.ground_truth:
            totals[cid] += 1
    total = sum(totals.values())
    for c in range(3):
        assert totals[c] / total >= 0.15


def test_ground_truth_intersects_extended_roi():
    ext = G.extended_grid()
    for seed in range(20):
        scene = S.generate_scene(S.SceneParams(seed))
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
    marked = S.rasterize_polyline(grid, pts).astype(bool)
    assert np.array_equal(diff, marked)


def test_overhead_ignores_occluders():
    params = S.SceneParams(11)
    scene = S.generate_scene(params)
    assert scene.occluders
    stripped = S.Scene(scene.seed, scene.texture_seed, scene.roads,
                       scene.ground_truth, [])
    grid = G.extended_grid()
    assert np.array_equal(S.render_overhead(scene, grid),
                          S.render_overhead(stripped, grid))


def test_overhead_values_in_unit_range():
    grid = G.extended_grid()
    img = S.render_overhead(S.generate_scene(S.SceneParams(2)), grid)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_camera_pixels_match_overhead_cells_without_occluders():
    # the cross-view color consistency oracle, checked per pixel
    grid = G.extended_grid()
    rig = G.default_rig()
    scene = S.generate_scene(S.SceneParams(4, occluder_count=(0, 0)))
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
    rig = G.default_rig()
    scene = S.generate_scene(S.SceneParams(6))
    a = S.render_cameras(scene, rig, grid)
    b = S.render_cameras(scene, rig, grid)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
        assert x.min() >= 0.0 and x.max() <= 1.0


def test_horizon_rows_are_sky():
    grid = G.extended_grid()
    rig = G.default_rig()
    img = S.render_cameras(empty_scene(), rig, grid)[0]
    # top image row looks above the horizon for every column
    assert np.all(img[:, 0, :] == np.array(S.SKY_COLOR)[:, None])


def test_occluder_hides_crossing_from_camera_only():
    grid = G.standard_grid()
    rig = G.default_rig()
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
    cam0_open = S.render_cameras(open_scene, rig, grid)[0]
    open_hits = np.all(cam0_open == crossing_color[:, None, None], axis=0)
    assert open_hits.any()


def test_cell_visibility_blocks_shadowed_cells():
    grid = G.standard_grid()
    rig = G.default_rig()
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
    rig = G.default_rig()
    any_blocked = False
    for seed in range(30):
        scene = S.generate_scene(S.SceneParams(seed))
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
    rows = S.export_dataset(path, n_train=8, n_val=2)
    assert len(rows) == 10
    train_seeds = {s for _, sp, s in rows if sp == "train"}
    val_seeds = {s for _, sp, s in rows if sp == "val"}
    assert train_seeds.isdisjoint(val_seeds)
    samples = list(S.load_dataset(path))
    assert len(samples) == 10
    assert len(list(S.load_dataset(path, split="val"))) == 2
    grid, rig = G.extended_grid(), G.default_rig()
    for sample in samples:
        regenerated = S.generate_scene(_params_for(sample.split, sample.seed))
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
    S.export_dataset(path, n_train=2, n_val=1)
    assert sorted(p.name for p in path.iterdir()) == [
        "manifest.txt", "scene_0000", "scene_0001", "scene_0002"]
    for sid in ("scene_0000", "scene_0001", "scene_0002"):
        assert sorted(p.name for p in (path / sid).iterdir()) == [
            "cam_0.ten", "cam_1.ten", "cam_2.ten", "cam_3.ten", "gt.txt", "overhead.ten"]


def _params_for(split, seed):
    band = (0.0, 0.75) if split == "train" else (0.78, 1.0)
    return S.SceneParams(seed, curvature_band=band)


def test_export_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    S.export_dataset(a, n_train=3, n_val=1)
    S.export_dataset(b, n_train=3, n_val=1)
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
    for sid in ("scene_0000", "scene_0003"):
        for fn in ("overhead.ten", "cam_2.ten", "gt.txt"):
            assert (a / sid / fn).read_bytes() == (b / sid / fn).read_bytes()


def test_load_reports_scene_id_on_corruption(tmp_path):
    path = tmp_path / "ds"
    S.export_dataset(path, n_train=2, n_val=1)
    victim = path / "scene_0001" / "cam_1.ten"
    victim.write_bytes(victim.read_bytes()[:-9])
    with pytest.raises(S.SceneGenError) as ei:
        list(S.load_dataset(path))
    assert "scene_0001" in str(ei.value)
    assert "cam_1.ten" in str(ei.value)


def test_over_constrained_params_raise():
    # a road can never keep 25 m inside the RoI if it must curve this hard
    with pytest.raises(S.SceneGenError):
        S.generate_scene(S.SceneParams(0, curvature=50.0, curvature_band=(1.0, 1.0)))
