"""Grid indexing, camera projection, rasterization, chamfer distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bevlab import geometry as G
from bevlab.config import RunConfig


def test_origin_lands_in_expected_cell():
    grid = G.standard_grid()
    assert grid.cells_of((0.0, 0.0)) == (12, 24, True)


def test_grid_edges_are_half_open():
    grid = G.standard_grid()
    assert grid.cells_of((grid.x_min, grid.y_max)) == (0, 0, True)
    assert not grid.cells_of((grid.x_max, 0.0))[2]
    assert not grid.cells_of((0.0, grid.y_min))[2]


@given(st.integers(0, 23), st.integers(0, 47))
@settings(max_examples=50, deadline=None)
def test_cell_center_round_trip(row, col):
    grid = G.standard_grid()
    x, y = grid.cell_center(row, col)
    assert grid.cells_of((float(x), float(y))) == (row, col, True)
    # center sits within half a cell of anything else mapping there
    assert abs(x - grid.x_min - (col + 0.5) * grid.cell_x) < 1e-12


def test_cells_of_keeps_the_leading_shape():
    # every cell center of the (rows, cols, 2) table maps to its own cell
    grid = G.extended_grid()
    rows, cols, inside = grid.cells_of(grid.cell_centers())
    want_rows, want_cols = np.indices((grid.rows, grid.cols))
    assert inside.all()
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_optical_axis_hits_principal_point():
    cam = G.Camera((0, 0, 1.6), yaw=0.3, pitch=0.1, focal=48, width=96, height=64)
    ahead = cam.position + 5.0 * cam.rot[2]  # along forward
    uv, z, valid = cam.project(ahead)
    assert valid[0]
    assert abs(uv[0, 0] - cam.cx) < 1e-9
    assert abs(uv[0, 1] - cam.cy) < 1e-9


def test_near_ground_point_projects_below_principal_point():
    cam = G.Camera((0, 0, 1.6), yaw=0.0, pitch=0.12, focal=48, width=96, height=64)
    uv, z, valid = cam.project(np.array([[5.0, 0.0, 0.0]]))
    assert valid[0]
    assert uv[0, 1] > cam.cy  # v grows downward


def test_project_ground_round_trip():
    cam = G.Camera((0.5, -0.2, 1.6), yaw=1.1, pitch=0.12, focal=48, width=96, height=64)
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(200):
        p = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20), 0.0])
        uv, z, valid = cam.project(p)
        if not valid[0]:
            continue
        hits += 1
        back = oracles.pixel_to_ground(cam, uv[0, 0], uv[0, 1])
        assert back is not None
        assert math.hypot(back[0] - p[0], back[1] - p[1]) < 1e-6
    assert hits > 20


def test_default_rig_covers_the_horizon():
    # nominal horizontal FOV union: 4 cameras x 90 degrees >= 300 degrees
    rig = RunConfig().rig()
    fov = sum(2 * math.atan((cam.width / 2) / cam.focal) for cam in rig)
    assert math.degrees(fov) >= 300.0
    # every mid-range ground direction is owned by at least one camera
    # (pitch makes near coverage overlap, so 2 owners can happen)
    rng = np.random.default_rng(2)
    for _ in range(300):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(3.0, 25.0)
        p = np.array([r * math.cos(ang), r * math.sin(ang), 0.0])
        owners = sum(int(cam.project(p)[2][0]) for cam in rig)
        assert owners in (1, 2)


def test_rig_pitch_sees_ground_ahead():
    rig = RunConfig().rig()
    uv, z, valid = rig[0].project(np.array([[8.0, 0.0, 0.0]]))
    assert valid[0] and z[0] > 0


def rasterize(grid, pts):
    """rasterize_polyline's cells of pts, marked 1 on an empty canvas."""
    return G.rasterize_polyline(grid, pts, np.zeros((grid.rows, grid.cols), dtype=np.int64), 1)


def test_rasterize_horizontal_run_no_leaks():
    # odd row count so y = 0 runs through the interior of the middle row
    grid = G.BevGrid(-5, 5, -2.5, 2.5, 5, 10)
    canvas = rasterize(grid, [(-4.9, 0.0), (4.9, 0.0)])
    marked = set(zip(*np.nonzero(canvas)))
    assert marked == {(2, c) for c in range(10)}


def test_rasterize_contains_dense_sampling():
    grid = G.standard_grid()
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform([-29, -14], [29, 14], size=(4, 2))
        canvas = rasterize(grid, pts)
        marked = set(zip(*np.nonzero(canvas)))
        # every cell found by dense sampling must be marked by the traversal
        for i in range(len(pts) - 1):
            for t in np.linspace(0, 1, 400):
                p = pts[i] * (1 - t) + pts[i + 1] * t
                row, col, inside = grid.cells_of(p)
                if inside:
                    assert (row, col) in marked


def test_rasterize_single_point():
    grid = G.standard_grid()
    canvas = rasterize(grid, [(0.0, 0.0)])
    assert canvas[12, 24] == 1 and canvas.sum() == 1


def scene_polylines():
    """(centerline, half width) of every road and the ground-truth
    polylines of seeded scenes from both curvature bands."""
    from bevlab import scenegen as S
    roads, lines = [], []
    for seed in range(24):
        band = (0.0, 0.75) if seed % 2 else (0.78, 1.0)
        scene = S.generate_scene(RunConfig(), seed, band)
        roads += [(road.centerline, road.half_width) for road in scene.roads]
        lines += [pts for _, _, pts in scene.ground_truth]
    return roads, lines


def edge_polylines():
    """Polylines on the 1 m cells of a 10 x 5 m grid at the edges of the
    traversal: horizontal and vertical runs, runs along cell boundaries,
    ends on cell corners and on the half-open outer edge, zero-length
    segments and single points inside, on and outside the grid."""
    fixed = [[(-4.9, 0.0), (4.9, 0.0)], [(-4.9, 1.5), (4.9, 1.5)], [(4.9, -0.3), (-4.9, -0.3)],
             [(0.0, -2.4), (0.0, 2.4)], [(0.5, 2.4), (0.5, -2.4)], [(-3.0, 2.5), (-3.0, -2.5)],
             [(-4.0, -1.5), (1.0, 3.5)], [(-3.0, -0.5), (2.0, 1.5)], [(2.0, 1.5), (-3.0, -0.5)],
             [(0.0, 0.0), (5.0, -2.5)], [(5.0, 0.0), (5.0, 2.0)], [(-5.0, 2.5), (5.0, 2.5)],
             [(-5.0, -2.5), (5.0, -2.5)], [(5.0, -2.5), (-5.0, 2.5)], [(-9.0, -7.0), (9.0, 7.0)],
             [(1.2, 0.3), (1.2, 0.3), (2.7, -1.1)], [(1.0, 0.5), (1.0, 0.5)],
             [(0.0, 0.0)], [(4.99, -2.49)], [(5.0, 0.0)], [(-5.0, 2.5)], [(3.0, -2.5)],
             [(-2.0, 0.5), (-2.0, 0.5), (-2.0, 0.5)]]
    rng = np.random.default_rng(21)
    snapped = [rng.integers(-12, 13, size=(int(rng.integers(1, 6)), 2)) * 0.5 for _ in range(60)]
    loose = [rng.uniform(-7, 7, size=(int(rng.integers(1, 6)), 2)) for _ in range(60)]
    return [np.array(p, dtype=np.float64) for p in fixed] + snapped + loose


def test_rasterize_polyline_keeps_the_scalar_walk():
    # the lockstep lanes must mark exactly the cells of the former
    # one-segment-at-a-time walk
    small = G.BevGrid(-5, 5, -2.5, 2.5, 5, 10)
    _, lines = scene_polylines()
    cases = [(small, pts) for pts in edge_polylines()]
    cases += [(grid, pts) for grid in (G.standard_grid(), G.extended_grid()) for pts in lines]
    # vertices on the corners of cells 25/12 m wide, where a lane's t_max
    # can round to just above 1 as it reaches its end cell
    ext, rng = G.extended_grid(), np.random.default_rng(5)
    for _ in range(100):
        k = rng.integers(-2, 50, size=int(rng.integers(2, 5)))
        m = rng.integers(-2, 26, size=len(k))
        cases.append((ext, np.stack([ext.x_min + k * ext.cell_x, ext.y_max - m * ext.cell_y], 1)))
    for grid, pts in cases:
        assert np.array_equal(rasterize(grid, pts),
                              oracles.rasterize_polyline_oracle(grid, pts)), pts.tolist()
    # onto a given canvas, with a given value
    canvas = np.full((small.rows, small.cols), 7, dtype=np.int64)
    want = oracles.rasterize_polyline_oracle(small, edge_polylines()[6], canvas.copy(), value=3)
    assert G.rasterize_polyline(small, edge_polylines()[6], canvas, value=3) is canvas
    assert np.array_equal(canvas, want)


def test_rasterize_several_polylines_draws_each_in_turn():
    # one lockstep walk over several polylines, each with its own value,
    # must leave the canvas that drawing them one after another leaves
    small = G.BevGrid(-5, 5, -2.5, 2.5, 5, 10)
    lines = edge_polylines()
    rng = np.random.default_rng(8)
    for _ in range(60):
        pick = [lines[i] for i in rng.integers(len(lines), size=int(rng.integers(1, 7)))]
        values = rng.integers(1, 4, size=len(pick))
        want = np.full((small.rows, small.cols), -1, dtype=np.int64)
        for pts, value in zip(pick, values.tolist()):
            oracles.rasterize_polyline_oracle(small, pts, want, value=value)
        counts = np.array([len(pts) for pts in pick])
        canvas = np.full((small.rows, small.cols), -1, dtype=np.int64)
        got = G.rasterize_polyline(small, np.concatenate(pick), canvas, values,
                                   np.cumsum(counts) - counts)
        assert got is canvas and np.array_equal(got, want), [p.tolist() for p in pick]
    pts = np.zeros((3, 2))
    for first in ([], [1], [0, 0], [0, 3], [0, 2, 1]):
        with pytest.raises(G.GeometryError, match="first"):
            G.rasterize_polyline(small, pts, np.zeros((small.rows, small.cols)), 1, first)


def test_cells_near_polyline_matches_the_dense_distance():
    # the pruned (cell, segment) pairs must mark exactly the cells the
    # dense distance to every segment marks
    roads, _ = scene_polylines()
    cases = [(grid, pts, r) for grid in (G.standard_grid(), G.extended_grid())
             for pts, r in roads]
    small = G.BevGrid(-5, 5, -2.5, 2.5, 5, 10)
    for pts in edge_polylines():
        # 0.5 and 1.5 put cell centers exactly at the radius of axis runs
        cases += [(small, pts, r) for r in (0.0, 0.5, 1.5, 2.3)]
    marked = 0
    for grid, pts, r in cases:
        got = G.cells_near_polyline(grid, pts, r)
        assert np.array_equal(got, oracles.cells_near_polyline_oracle(grid, pts, r)), pts.tolist()
        marked += int(got.sum())
    assert marked > 10000
    far = np.array([[1000.0, 0.0], [1002.0, 1.0]])
    assert not G.cells_near_polyline(G.extended_grid(), far, 6.4).any()


def test_resample_spacing_and_endpoints():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    out = G.resample_polyline(pts, step=0.1)
    assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])
    gaps = np.sqrt((np.diff(out, axis=0) ** 2).sum(axis=1))
    assert np.all(gaps <= 0.1 + 1e-12)
    total = gaps.sum()
    assert abs(total - 3.0) < 1e-9


def test_resample_batches_match_the_one_polyline_reference():
    rng = np.random.default_rng(10)
    polys = random_polylines(rng, 40) + [np.zeros((4, 2)), np.array([[-0.0, 1.0]]),
                                         np.array([[2.0, -0.0], [2.0, -0.0]])]
    for step in (0.1, 0.37, 2.5, 50.0):
        for cut in (1, 7, len(polys)):
            some = polys[:cut]
            samples, sizes = G._resample(*G._flatten(some), step)
            want = [oracles.resample_polyline_oracle(p, step) for p in some]
            assert sizes.tolist() == [len(w) for w in want]
            assert samples.tobytes() == np.concatenate(want).tobytes()
        for p in polys:
            got = G.resample_polyline(p, step)
            assert got.tobytes() == oracles.resample_polyline_oracle(p, step).tobytes()


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_resample_and_chamfer_reject_bad_steps(step):
    a = np.array([[0.0, 0.0], [3.0, 0.0]])
    with pytest.raises(G.GeometryError):
        G.resample_polyline(a, step)
    for b_list in ([a], []):
        with pytest.raises(G.GeometryError):
            G.chamfer_matrix([a], b_list, step=step)


def test_chamfer_rejects_non_finite_polylines():
    a = np.array([[0.0, 0.0], [3.0, 0.0]])
    for bad in (np.inf, np.nan):
        with pytest.raises(G.GeometryError):
            G.chamfer_matrix([a], [np.array([[0.0, 1.0], [bad, 1.0]])])


def test_chamfer_zero_on_identical():
    # interpolation rounding leaves a sub-1e-12 residual, not exact zero
    pts = np.array([[0.0, 0.0], [3.0, 1.0], [6.0, 0.0]])
    assert G.chamfer_distance(pts, pts) < 1e-12


def test_chamfer_translation_gives_offset():
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = a + np.array([0.0, 0.5])
    # parallel lines 0.5 apart: every sample is exactly 0.5 away
    assert abs(G.chamfer_distance(a, b) - 0.5) < 1e-9


def test_chamfer_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.uniform(-5, 5, size=(rng.integers(2, 5), 2))
        b = rng.uniform(-5, 5, size=(rng.integers(2, 5), 2))
        got = G.chamfer_distance(a, b)
        want = oracles.chamfer_oracle(a, b)
        assert abs(got - want) < 1e-9


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_chamfer_symmetric_bitwise(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5, 5, size=(3, 2))
    b = rng.uniform(-5, 5, size=(4, 2))
    assert G.chamfer_distance(a, b) == G.chamfer_distance(b, a)


def random_polylines(rng, n):
    """Random polylines, with single points and zero-length segments mixed in."""
    out = []
    for _ in range(n):
        pts = rng.uniform(-5, 5, size=(int(rng.integers(2, 6)), 2))
        kind = rng.random()
        if kind < 0.2:
            pts = pts[:1]
        elif kind < 0.3:
            pts = np.repeat(pts[:1], 3, axis=0)
        elif kind < 0.5:
            pts = np.insert(pts, 1, pts[1], axis=0)
        out.append(pts)
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_chamfer_kernels_keep_the_point_major_bits():
    # the kernels run segment-major and box-major; the references are the
    # former point-major layout, and every entry must keep its bits. The
    # fixed sides hold single points, one-segment tables and a one-sample
    # side; the random ones add zero-length segments
    rng = np.random.default_rng(14)
    lane = np.array([[0.0, 0.0], [7.5, 0.3]])
    fixed = [[lane[:1]], [lane], [lane[:1], lane, lane[:1].repeat(3, axis=0)]]
    sides = fixed + [random_polylines(rng, int(rng.integers(1, 7))) for _ in range(30)]
    checked = 0
    for a_list in sides:
        for b_list in (sides[int(rng.integers(len(sides)))], [lane], [lane[:1]]):
            a, b = G._Side(a_list, 0.1), G._Side(b_list, 0.1)
            for side, other in ((a, b), (b, a)):
                assert np.array_equal(bits(G._box_gap_sums(side, other)),
                                      bits(oracles.box_gap_sums_point_major(side, other)))
                for view in side.views + [side.samples, side.views[0][:1]]:
                    for table in other.tables:
                        got = G._nearest_sq(view, table)
                        assert np.array_equal(
                            bits(got), bits(oracles.nearest_sq_point_major(view, table)))
                        checked += 1
    assert checked > 1000


def test_pruned_kernel_keeps_the_point_major_bits(monkeypatch):
    # tables of PRUNE_SEGMENTS segments or more compare each run of RUN
    # points only with its candidate segments; every entry must keep the
    # bits of the dense point-major kernel. The lanes hold parallel and
    # coincident copies, a zero-length segment mid-polyline, folds back
    # onto themselves and random walks; the points are samples (runs
    # straddle vertices), vertices (ties between two segments), cut to
    # counts that are and are not multiples of RUN, and scattered points
    pruned = []
    segment_sq = G._segment_sq
    monkeypatch.setattr(G, "_segment_sq",
                        lambda x, *rest: pruned.append(np.ndim(x) == 2) or segment_sq(x, *rest))
    rng = np.random.default_rng(31)
    u = np.linspace(0.0, 1.0, 61)
    lane = np.stack([60.0 * u - 30.0, 2.0 * np.sin(3.0 * u)], axis=1)  # 60 segments
    lanes = [lane[:k + 1] for k in (8, G.PRUNE_SEGMENTS - 1, G.PRUNE_SEGMENTS, 41, 60)]
    zero_mid = np.insert(lane[:40], 20, lane[20], axis=0)
    lanes += [lane + [0.0, 0.5], lane + [0.0, 3.75], lane.copy(), zero_mid,
              np.concatenate([lane[:31], lane[29::-1]]),
              np.concatenate([lane[:31], lane[29::-1] + [0.0, 1e-3]])]
    for _ in range(6):
        steps = rng.normal(0.0, 1.0, size=(int(rng.integers(8, 61)), 2))
        lanes.append(np.concatenate([[rng.uniform(-20, 20, 2)], steps]).cumsum(axis=0))
    cloud = rng.uniform(-35.0, 35.0, size=(203, 2))
    checked = 0
    for b in lanes:
        table = G._tables(*G._flatten([b]))[0]
        for a in lanes[::3] + [b]:
            samples = G._Side([a], 0.1).samples
            for points in (samples, samples[:G.RUN], samples[5:3 * G.RUN + 12], samples[:1],
                           a, b, cloud):
                pruned.clear()
                got = G._nearest_sq(points, table)
                assert np.array_equal(bits(got),
                                      bits(oracles.nearest_sq_point_major(points, table)))
                assert any(pruned) == (len(b) - 1 >= G.PRUNE_SEGMENTS)
                checked += any(pruned)
    assert checked > 300
    # a non-finite point keeps every segment of its run
    table = G._tables(*G._flatten([zero_mid]))[0]
    points = np.concatenate([cloud, [[np.inf, 0.0], [0.0, -np.inf]]])
    pruned.clear()
    with np.errstate(invalid="ignore"):
        got = G._nearest_sq(points, table)
        want = oracles.nearest_sq_point_major(points, table)
    assert any(pruned) and np.array_equal(got, want, equal_nan=True)


def test_chamfer_matrix_entries_equal_chamfer_distance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_polylines(rng, int(rng.integers(1, 5)))
        b = random_polylines(rng, int(rng.integers(1, 5)))
        m = G.chamfer_matrix(a, b)
        assert m.shape == (len(a), len(b))
        for i, pa in enumerate(a):
            for j, pb in enumerate(b):
                assert m[i, j] == G.chamfer_distance(pa, pb)


def test_chamfer_matrices_equal_chamfer_matrix_pair_by_pair():
    # one _Side over every pair's polylines gives each matrix the bits of
    # chamfer_matrix on its own two lists, inf entries included. Pairs with
    # an empty side, lanes the kernel prunes, and lanes 1 km off make the
    # call's vertex scale differ from a pair's own
    rng = np.random.default_rng(35)
    u = np.linspace(0.0, 1.0, 41)
    lane = np.stack([60.0 * u - 30.0, 2.0 * np.sin(3.0 * u)], axis=1)
    infs = empties = 0
    for _ in range(25):
        pairs = []
        for _ in range(int(rng.integers(1, 7))):
            a, b = (random_polylines(rng, int(rng.integers(0, 5))) for _ in range(2))
            for side in (a, b):
                if rng.random() < 0.5:
                    side.append(lane + rng.normal(0.0, 0.5, size=2))
            if rng.random() < 0.2:
                a, b = [p + 1000.0 for p in a], [p + 1000.0 for p in b]
            pairs.append((a, b))
        for limit in (None, 0.5, 2.0):
            got = G.chamfer_matrices(pairs, limit=limit)
            assert len(got) == len(pairs)
            for (a, b), m in zip(pairs, got):
                want = G.chamfer_matrix(a, b, limit=limit)
                assert m.shape == want.shape == (len(a), len(b))
                assert np.array_equal(bits(m), bits(want))
                infs += int(np.isinf(m).sum())
                empties += not m.size
    assert infs > 100 and empties > 10
    assert G.chamfer_matrices([]) == []


def test_polyline_distance_zero_length_segment_projects_to_its_start():
    # with a zero-length segment the projection parameter is pinned to 0,
    # so a point at infinity is infinitely far rather than NaN
    pts = np.array([[0.0, 0.0], [0.0, 0.0]])
    table = G._tables(*G._flatten([pts]))[0]
    with np.errstate(invalid="ignore"):  # inf * 0 along the way
        got = np.sqrt(G._nearest_sq(np.array([[np.inf, 0.0], [3.0, 4.0]]), table))
    assert got[0] == np.inf and got[1] == 5.0


def test_chamfer_matrix_empty_sides():
    polys = random_polylines(np.random.default_rng(6), 3)
    assert G.chamfer_matrix([], polys).shape == (0, 3)
    assert G.chamfer_matrix(polys, []).shape == (3, 0)


def test_chamfer_matrix_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    a = random_polylines(rng, 4)
    b = random_polylines(rng, 4)
    m = G.chamfer_matrix(a, b)
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            want = oracles.chamfer_oracle(pa, pb)
            assert abs(m[i, j] - want) <= 1e-9 * max(abs(want), 1e-300)


def test_chamfer_matrix_limit_keeps_exact_entries_and_prunes_only_above():
    rng = np.random.default_rng(8)
    lane = np.array([[-25.0, 0.0], [0.0, 0.2], [25.0, 0.0]])
    lanes = [lane + [0.0, dy] for dy in (0.0, 0.5, 1.5, 3.0)]
    cases = [(random_polylines(rng, 4), random_polylines(rng, 4)) for _ in range(4)]
    cases.append((lanes, lanes))  # coincident and long parallel lanes
    cases.append((lanes[:2] + [lane[1:2], lane[:1].repeat(2, axis=0)], lanes[1:]))
    for a, b in cases:
        exact = G.chamfer_matrix(a, b)
        limits = [0.0, 0.5, 1.0, 2.0]
        for d in exact.ravel():  # chamfers within 1e-12 of the limit
            limits += [d, d - 1e-12, d + 1e-12, np.nextafter(d, -np.inf)]
        for limit in limits:
            got = G.chamfer_matrix(a, b, limit=limit)
            near = exact <= limit
            assert np.array_equal(got[near], exact[near])
            assert np.all((got[~near] == exact[~near]) | (got[~near] == np.inf))


def test_chamfer_matrix_limit_skips_the_kernel_for_far_pairs(monkeypatch):
    calls = []
    kernel = G._nearest_sq
    monkeypatch.setattr(G, "_nearest_sq", lambda pts, table: calls.append(1) or kernel(pts, table))
    lane = np.array([[-25.0, 0.0], [25.0, 0.0]])
    a = [lane, lane[:1]]
    b = [lane + [0.0, 3.0], lane + [100.0, 0.0]]
    got = G.chamfer_matrix(a, b, limit=2.0)
    assert np.all(got == np.inf) and calls == []
    assert np.all(G.chamfer_matrix(a, b) > 2.0) and len(calls) == 8


def test_chamfer_matrix_limit_entries_are_exact_or_provably_above():
    rng = np.random.default_rng(12)
    cut = 0
    for _ in range(40):
        a = random_polylines(rng, int(rng.integers(1, 6)))
        b = random_polylines(rng, int(rng.integers(1, 6)))
        exact = G.chamfer_matrix(a, b)
        for limit in [0.25, 0.5, 1.0, 2.0, 3.0, float(np.median(exact))]:
            got = G.chamfer_matrix(a, b, limit=limit)
            finite = np.isfinite(got)
            assert np.array_equal(got[finite], exact[finite])
            assert np.all(exact[~finite] > limit)
            cut += int((~finite).sum())
    assert cut > 100


def test_chamfer_matrix_limit_cuts_a_pair_after_one_direction(monkeypatch):
    # each polyline lies inside the other's vertex box, give or take 1 m,
    # so the box bound passes the pair; either direction alone exceeds 2 m.
    # Both have two segments, and b's 181 samples make its direction the
    # cheaper one against a's 201.
    a = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    b = np.array([[0.0, 1.0], [0.0, 10.0], [9.0, 10.0]])
    calls = []
    kernel = G._nearest_sq
    monkeypatch.setattr(G, "_nearest_sq",
                        lambda pts, table: calls.append(len(pts)) or kernel(pts, table))
    for x, y in ((a, b), (b, a)):
        calls.clear()
        assert G.chamfer_matrix([x], [y], limit=2.0)[0, 0] == np.inf and calls == [181]
    assert G.chamfer_distance(a, b) > 2.0


def test_polyline_text_round_trip(tmp_path):
    items = [(0, 1.0, np.array([[1.234567, -2.0], [3.5, 4.25]])),
             (2, 0.375, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]))]
    path = tmp_path / "lines.txt"
    G.write_polylines(path, items)
    back = G.read_polylines(path)
    assert len(back) == 2
    for (c0, s0, p0), (c1, s1, p1) in zip(items, back):
        assert c0 == c1
        assert abs(s0 - s1) < 5e-7
        assert np.all(np.abs(p0 - p1) < 5e-7)


def test_polyline_parse_errors_name_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1.0 1.0 2.0 3.0\n")  # odd coordinate count
    with pytest.raises(G.GeometryError) as ei:
        G.read_polylines(path)
    assert "bad.txt:1" in str(ei.value)
    path.write_text("7 1.0 1.0 2.0\n")  # class out of range
    with pytest.raises(G.GeometryError):
        G.read_polylines(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0 1.0 1.0 2.0\n1 0.5 3.0 {bad} 4.0 5.0\n")
        with pytest.raises(G.GeometryError, match="bad.txt:2"):
            G.read_polylines(path)


def test_format_uses_six_decimals():
    line = G.format_polyline(1, 0.5, [[1.0, 2.0]])
    assert line == "1 0.500000 1.000000 2.000000"
