"""Clipping, greedy matching, AP integration, and the full eval protocol."""

import hashlib

import numpy as np
import pytest

import oracles
from bevlab import geometry as G
from bevlab import mapeval as ME


def line(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y1]], dtype=np.float64)


# ---------------------------------------------------------------------------
# clip_to_roi
# ---------------------------------------------------------------------------

def test_clip_fully_inside_unchanged():
    grid = G.standard_grid()
    pts = np.array([[0.0, 0.0], [5.0, 2.0], [10.0, -3.0]])
    out = ME.clip_to_roi([(1, 0.9, pts)], grid)
    assert len(out) == 1
    cid, score, got = out[0]
    assert cid == 1 and score == 0.9
    assert np.array_equal(got, pts)


def test_clip_fully_outside_removed():
    grid = G.standard_grid()
    out = ME.clip_to_roi([(0, 1.0, line(40, 20, 50, 25))], grid)
    assert out == []


def test_clip_crossing_endpoint_on_edge():
    grid = G.standard_grid()
    out = ME.clip_to_roi([(0, 1.0, line(0, 0, 40, 0))], grid)
    assert len(out) == 1
    got = out[0][2]
    assert abs(got[-1][0] - grid.x_max) < 1e-9
    assert abs(got[-1][1] - 0.0) < 1e-9
    assert abs(got[0][0] - 0.0) < 1e-12  # untouched endpoint preserved


def test_clip_splits_into_fragments():
    grid = G.standard_grid()
    # enters, exits through the top, re-enters: y = 15 is the boundary
    pts = np.array([[-10.0, 10.0], [-5.0, 20.0], [0.0, 20.0], [5.0, 10.0]])
    out = ME.clip_to_roi([(2, 0.5, pts)], grid)
    assert len(out) == 2
    for _, _, frag in out:
        assert np.all(frag[:, 1] <= grid.y_max + 1e-9)


def test_clip_drops_short_fragments():
    grid = G.standard_grid()
    # only 0.2 m of this segment lies inside
    out = ME.clip_to_roi([(0, 1.0, line(29.8, 0, 35, 0))], grid)
    assert out == []


def random_clip_polyline(rng, grid):
    """Random polyline built to hit the clipper's edge cases: vertices on
    the RoI edges and corners, segments along an edge, zero-length
    segments, and runs that leave the RoI and come back."""
    lo = np.array([grid.x_min, grid.y_min])
    hi = np.array([grid.x_max, grid.y_max])
    span = hi - lo
    pts = [rng.uniform(lo - 0.3 * span, hi + 0.3 * span)]
    for _ in range(int(rng.integers(1, 9))):
        prev = pts[-1]
        nxt = rng.uniform(lo - 0.3 * span, hi + 0.3 * span)
        kind = rng.integers(0, 6)
        if kind == 0:
            nxt = prev.copy()  # zero-length segment
        elif kind == 1:
            k = int(rng.integers(0, 2))
            nxt[k] = (lo[k], hi[k])[int(rng.integers(0, 2))]  # vertex on an edge
        elif kind == 2:
            k = int(rng.integers(0, 2))
            nxt[k] = prev[k]  # axis-parallel; along an edge when prev is on it
        elif kind == 3:
            # lattice point: edges, corners and outside at tenths of the RoI
            nxt = lo + rng.integers(-3, 14, size=2) * span / 10.0
        pts.append(nxt)
    return np.array(pts)


def test_clip_matches_scalar_oracle_random():
    rng = np.random.default_rng(8)
    split = on_edge = along_edge = zero_length = 0
    for grid in (G.standard_grid(), G.extended_grid()):
        for n in range(400):
            pts = random_clip_polyline(rng, grid)
            elements = [(n % 3, 0.5, pts)]
            got = ME.clip_to_roi(elements, grid)
            want = oracles.clip_oracle(elements, grid, ME.MIN_FRAGMENT_LEN)
            assert len(got) == len(want)
            for (c0, s0, f0), (c1, s1, f1) in zip(got, want):
                assert (c0, s0) == (c1, s1)
                assert np.array_equal(f0, f1)
            split += len(want) >= 2
            edge = ((pts[:, 0] == grid.x_min) | (pts[:, 0] == grid.x_max)
                    | (pts[:, 1] == grid.y_min) | (pts[:, 1] == grid.y_max))
            on_edge += bool(edge.any())
            along_edge += bool((edge[1:] & edge[:-1]
                                & ((pts[1:, 0] == pts[:-1, 0])
                                   | (pts[1:, 1] == pts[:-1, 1]))).any())
            zero_length += bool((pts[1:] == pts[:-1]).all(axis=1).any())
    # the generator really exercised the cases it is built for
    assert split > 100 and on_edge > 200 and along_edge > 50 and zero_length > 50


def test_clip_many_elements_matches_oracle_element_by_element():
    rng = np.random.default_rng(11)
    empty = multiple = 0
    for grid in (G.standard_grid(), G.extended_grid()):
        outside = np.array([[grid.x_max + 5.0, 0.0], [grid.x_max + 9.0, 2.0],
                            [grid.x_max + 1.0, grid.y_max + 4.0]])
        for _ in range(120):
            elements = [(int(rng.integers(0, 3)), float(rng.random()),
                         random_clip_polyline(rng, grid))
                        for _ in range(int(rng.integers(1, 8)))]
            odd = [(0, 0.5, np.array([[0.0, 0.0]])),  # single point
                   (1, 0.25, np.array([[1.0, 2.0], [1.0, 2.0]])),  # zero length
                   (2, 0.75, outside)]  # fully outside
            for e in odd:
                elements.insert(int(rng.integers(0, len(elements) + 1)), e)
            # one line split into two elements: they stay two fragments
            at = int(rng.integers(0, len(elements) + 1))
            elements[at:at] = [(1, 0.3, line(-5, -2, 0, -2)), (1, 0.3, line(0, -2, 5, -2))]
            got = ME.clip_to_roi(elements, grid)
            want = [f for e in elements
                    for f in oracles.clip_oracle([e], grid, ME.MIN_FRAGMENT_LEN)]
            assert len(got) == len(want)
            for (c0, s0, f0), (c1, s1, f1) in zip(got, want):
                assert (c0, s0) == (c1, s1)
                assert f0.shape == f1.shape and f0.tobytes() == f1.tobytes()
            per_element = [len(oracles.clip_oracle([e], grid, ME.MIN_FRAGMENT_LEN))
                           for e in elements]
            empty += per_element.count(0) > len(odd)
            multiple += sum(n >= 2 for n in per_element) >= 2
    assert empty > 20 and multiple > 20
    assert ME.clip_to_roi([], G.standard_grid()) == []


def test_clip_of_joined_lists_equals_clip_of_each_list():
    # evaluate clips every scene's elements, both sides, as one list: each
    # fragment must be the one its own list's clip gives, and its element
    # index must point at its element in the joined list
    rng = np.random.default_rng(34)
    joined_frags = 0
    for grid in (G.standard_grid(), G.extended_grid()):
        for _ in range(60):
            lists = [[(int(rng.integers(0, 3)), float(rng.random()),
                       random_clip_polyline(rng, grid))
                      for _ in range(int(rng.integers(0, 5)))]
                     for _ in range(int(rng.integers(1, 5)))]
            joined = [e for some in lists for e in some]
            got = ME._clip_fragments(joined, grid, str)
            want = []
            for at, some in zip(np.cumsum([0] + [len(l) for l in lists]).tolist(), lists):
                frags = ME._clip_fragments(some, grid, str)
                assert [(c, s) for c, s, _ in ME.clip_to_roi(some, grid)] == \
                    [some[e][:2] for e, _ in frags]
                want += [(at + e, frag) for e, frag in frags]
            assert [e for e, _ in got] == [e for e, _ in want]
            for (_, f0), (_, f1) in zip(got, want):
                assert f0.shape == f1.shape and f0.tobytes() == f1.tobytes()
            joined_frags += len(lists) > 1 and len(got) > 1
    assert joined_frags > 40


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_rejects_non_finite_vertices(bad):
    grid = G.extended_grid()
    fine = (0, 0.5, line(0, 0, 5, 0))
    for pts in ([[0, 0], [5, 0], [10, bad]], [[bad, 0]]):
        with pytest.raises(ME.EvalError, match="element 1"):
            ME.clip_to_roi([fine, (1, 0.9, np.array(pts, dtype=np.float64))], grid)


# ---------------------------------------------------------------------------
# match_instances
# ---------------------------------------------------------------------------

def test_match_exact_copies_all_tp():
    gts = [(0, 1.0, line(0, 0, 5, 0)), (0, 1.0, line(0, 5, 5, 5))]
    preds = [(0, 0.9, g[2].copy()) for g in gts]
    assert ME.match_instances(preds, gts, 0.5) == [True, True]


def test_match_far_displacement_all_fp():
    gts = [(0, 1.0, line(0, 0, 5, 0))]
    preds = [(0, 0.9, line(0, 3.0, 5, 3.0))]  # 3 m away, threshold 1.5
    assert ME.match_instances(preds, gts, 1.5) == [False]


def test_match_greedy_equals_exhaustive_on_constructed_case():
    # 3 preds, 2 gts; a unique optimal assignment that greedy also finds
    gts = [(0, 1.0, line(0, 0, 5, 0)), (0, 1.0, line(0, 4, 5, 4))]
    preds = [
        (0, 0.9, line(0, 0.2, 5, 0.2)),   # near gt0
        (0, 0.8, line(0, 4.3, 5, 4.3)),   # near gt1
        (0, 0.7, line(0, 0.4, 5, 0.4)),   # near gt0 only, arrives too late
    ]
    flags = ME.match_instances(preds, gts, 1.0)
    assert flags == [True, True, False]
    best = oracles.exhaustive_match_oracle(preds, gts, 1.0, G.chamfer_distance)
    assert sum(flags) == best


def test_match_prefers_nearest_gt():
    gts = [(0, 1.0, line(0, 1.0, 5, 1.0)), (0, 1.0, line(0, 0.2, 5, 0.2))]
    preds = [(0, 0.9, line(0, 0, 5, 0))]
    flags = ME.match_instances(preds, gts, 2.0)
    assert flags == [True]
    # the nearer gt (index 1) must be consumed: a second identical pred
    # can still match gt0
    preds2 = preds + [(0, 0.8, line(0, 0, 5, 0))]
    assert ME.match_instances(preds2, gts, 2.0) == [True, True]


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def test_ap_perfect_predictions():
    gts = [(1, 1.0, line(0, 0, 5, 0)), (1, 1.0, line(0, 5, 5, 5))]
    preds = [(1, 0.9, g[2].copy()) for g in gts]
    res = ME.evaluate({"a": preds}, {"a": gts}, ME.EvalConfig("standard", thresholds=(0.5,)))
    assert res.ap[(1, 0.5)] == 1.0


def test_ap_no_predictions():
    gts = [(0, 1.0, line(0, 0, 5, 0))]
    res = ME.evaluate({"a": []}, {"a": gts}, ME.EvalConfig("standard", thresholds=(1.0,)))
    assert res.ap[(0, 1.0)] == 0.0


def test_ap_empty_vs_empty_is_one():
    res = ME.evaluate({"a": []}, {"a": []}, ME.EvalConfig("standard", thresholds=(1.0,)))
    assert res.ap[(2, 1.0)] == 1.0


def test_ap_five_prediction_hand_table():
    # ranked TP,FP,TP,TP,FP with 4 positives: AP = (1 + 2/3 + 3/4)/4
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]
    flags = [True, False, True, True, False]
    got = ME._integrate_ap(ME._rank(scores), flags, 4)
    want = 0.25 * (1.0 + 2.0 / 3.0 + 3.0 / 4.0)
    assert abs(got - want) < 1e-15
    assert abs(got - oracles.average_precision_oracle(scores, flags, 4)) < 1e-15


def test_ap_integration_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        scores = rng.random(n).tolist()
        flags = (rng.random(n) < 0.5).tolist()
        n_pos = int(sum(flags) + rng.integers(0, 4))
        if n_pos == 0:
            continue
        got = ME._integrate_ap(ME._rank(scores), flags, n_pos)
        want = oracles.average_precision_oracle(scores, flags, n_pos)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_eval_config_takes_increasing_positive_finite_thresholds():
    assert ME.EvalConfig("standard").thresholds == ME.ROIS["standard"][1]
    assert ME.EvalConfig("extended", [0.25, 2]).thresholds == (0.25, 2.0)


@pytest.mark.parametrize("roi, thresholds", [
    ("wide", None), ("standard", ()), ("standard", (0.0, 1.0)), ("standard", (np.nan,)),
    ("standard", (1.0, np.inf)), ("extended", (1.0, 0.5)), ("extended", (0.5, 0.5, 1.0))])
def test_eval_config_refuses_a_bad_roi_or_threshold_set(roi, thresholds):
    with pytest.raises(ME.EvalError):
        ME.EvalConfig(roi, thresholds)


def perfect_corpus():
    gts = {
        "a": [(0, 1.0, line(-10, 0, 10, 0)), (1, 1.0, line(-10, 5, 10, 5))],
        "b": [(2, 1.0, line(-10, -5, 10, -5))],
    }
    preds = {s: [(c, 0.9, p.copy()) for c, _, p in els] for s, els in gts.items()}
    return preds, gts


def test_evaluate_perfect_gives_map_one():
    preds, gts = perfect_corpus()
    cfg = ME.EvalConfig("standard")
    res = ME.evaluate(preds, gts, cfg)
    assert res.map == 1.0
    assert all(v == 1.0 for v in res.ap.values())


def test_evaluate_single_class_uses_empty_rule():
    gts = {"a": [(0, 1.0, line(-10, 0, 10, 0))]}
    preds = {"a": [(0, 0.9, line(-10, 0.1, 10, 0.1))]}
    res = ME.evaluate(preds, gts, ME.EvalConfig("standard"))
    assert res.class_ap[1] == 1.0 and res.class_ap[2] == 1.0
    assert res.class_ap[0] == 1.0  # 0.1 m offset within every threshold
    assert res.map == 1.0


def test_evaluate_scene_mismatch_raises():
    preds, gts = perfect_corpus()
    del preds["b"]
    with pytest.raises(ME.EvalError):
        ME.evaluate(preds, gts, ME.EvalConfig("standard"))


BAD_ELEMENTS = {
    "class_too_high": (5, 0.9, None),
    "class_negative": (-1, 0.9, None),
    "class_not_an_int": (0.5, 0.9, None),
    "class_bool": (True, 0.9, None),
    "score_nan": (1, np.nan, None),
    "score_inf": (1, np.inf, None),
    "points_1d": (1, 0.9, np.array([-10.0, 0.0, 10.0, 0.0])),
}


@pytest.mark.parametrize("side", ["prediction", "ground truth"])
@pytest.mark.parametrize("case", sorted(BAD_ELEMENTS))
def test_evaluate_refuses_a_malformed_element(case, side):
    # one exact match next to the bad element: scoring it instead of
    # refusing it would give some mAP rather than an error
    good = (1, 1.0, line(-10, 0, 10, 0))
    class_id, score, pts = BAD_ELEMENTS[case]
    bad = (class_id, score, line(-10, 5, 10, 5) if pts is None else pts)
    preds, gts = {"a": [good], "z": [good]}, {"a": [good], "z": [good]}
    (preds if side == "prediction" else gts)["z"] = [good, bad]
    with pytest.raises(ME.EvalError, match=f"scene 'z', {side} 1: "):
        ME.evaluate(preds, gts, ME.EvalConfig("standard"))


@pytest.mark.parametrize("side", ["prediction", "ground truth"])
def test_evaluate_names_the_element_with_a_non_finite_vertex(side):
    good = (1, 1.0, line(-10, 0, 10, 0))
    bad = (0, 0.5, np.array([[0.0, 0.0], [5.0, np.nan]]))
    preds, gts = {"a": [good], "z": [good]}, {"a": [good], "z": [good]}
    (preds if side == "prediction" else gts)["z"] = [good, bad]
    with pytest.raises(ME.EvalError, match=f"^scene 'z', {side} 1 has a non-finite vertex$"):
        ME.evaluate(preds, gts, ME.EvalConfig("standard"))


def test_evaluate_accepts_numpy_classes_and_scores():
    good = (np.int64(1), np.float32(0.75), line(-10, 0, 10, 0).tolist())
    res = ME.evaluate({"a": [good]}, {"a": [(1, 1.0, line(-10, 0, 10, 0))]},
                      ME.EvalConfig("standard"))
    assert res.map == 1.0


def test_evaluate_matches_reordered_loop_oracle():
    rng = np.random.default_rng(1)
    preds, gts = oracles.random_eval_corpus(rng, n_scenes=3)
    cfg = ME.EvalConfig("standard")
    res = ME.evaluate(preds, gts, cfg)
    scene_ids = sorted(gts)
    cp = {s: ME.clip_to_roi(preds[s], cfg.grid) for s in scene_ids}
    cg = {s: ME.clip_to_roi(gts[s], cfg.grid) for s in scene_ids}
    # opposite loop order: thresholds outer, classes inner, oracle integration
    for t in reversed(cfg.thresholds):
        for c in reversed(range(3)):
            scores, flags, n_pos = [], [], 0
            for s in scene_ids:
                p = [e for e in cp[s] if e[0] == c]
                g = [e for e in cg[s] if e[0] == c]
                n_pos += len(g)
                scores.extend(e[1] for e in p)
                flags.extend(ME.match_instances(p, g, t))
            if n_pos == 0:
                want = 1.0 if not scores else 0.0
            else:
                want = oracles.average_precision_oracle(scores, flags, n_pos)
            assert abs(res.ap[(c, t)] - want) < 1e-12


def test_evaluate_matches_per_pair_greedy_oracle():
    rng = np.random.default_rng(9)
    for roi in ("standard", "extended"):
        for _ in range(5):
            preds, gts = oracles.random_eval_corpus(rng, n_scenes=3)
            cfg = ME.EvalConfig(roi)
            res = ME.evaluate(preds, gts, cfg)
            scene_ids = sorted(gts)
            cp = {s: oracles.clip_oracle(preds[s], cfg.grid, ME.MIN_FRAGMENT_LEN)
                  for s in scene_ids}
            cg = {s: oracles.clip_oracle(gts[s], cfg.grid, ME.MIN_FRAGMENT_LEN)
                  for s in scene_ids}
            for c in range(3):
                for t in cfg.thresholds:
                    scores, flags, n_pos = [], [], 0
                    for s in scene_ids:
                        p = [e for e in cp[s] if e[0] == c]
                        g = [e for e in cg[s] if e[0] == c]
                        n_pos += len(g)
                        scores.extend(e[1] for e in p)
                        flags.extend(oracles.greedy_match_oracle(
                            p, g, t, G.chamfer_distance))
                    if n_pos == 0:
                        want = 1.0 if not scores else 0.0
                    else:
                        want = oracles.average_precision_oracle(scores, flags, n_pos)
                    assert res.ap[(c, t)] == want


def test_evaluate_ap_reprs_keep_their_golden_digest():
    # AP reprs of the per-element clip and per-polyline resample: bits
    # that either of them moves show here
    rng = np.random.default_rng(20)
    lines = []
    for k in range(6):
        preds, gts = oracles.random_eval_corpus(rng, n_scenes=8)
        for roi in ("standard", "extended"):
            res = ME.evaluate(preds, gts, ME.EvalConfig(roi))
            lines += [f"{k} {roi} {c} {t!r} {ap!r}" for (c, t), ap in sorted(res.ap.items())]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ff5f3d8ce7af745f8d9a49fd82eafbb8bb32cb2d2d969941d209bf65be8d1456"


def odd_split(rng, n_scenes):
    """A random split with the cases a scorer of all scenes at once must
    keep apart: a scene without predictions, a class one side lacks,
    elements clipped away in either RoI, single points, zero-length
    elements, and lanes of 40 segments, which the chamfer kernel prunes."""
    preds, gts = oracles.random_eval_corpus(rng, n_scenes)
    grid = G.extended_grid()
    u = np.linspace(0.0, 1.0, 41)
    for s in sorted(gts):
        for side in (preds[s], gts[s]):
            x, y = rng.uniform(-20.0, 20.0, size=2)
            odd = [np.array([[grid.x_max + 5.0, y], [grid.x_max + 9.0, y + 2.0]]),
                   np.array([[x, y]]), np.array([[x, y], [x, y]]),
                   np.stack([80.0 * u - 40.0, y + 2.0 * np.sin(3.0 * u + x)], axis=1)]
            for pts in odd:
                if rng.random() < 0.5:
                    side.insert(int(rng.integers(0, len(side) + 1)),
                                (int(rng.integers(0, 3)), float(rng.random()),
                                 pts + rng.normal(0.0, 0.3, pts.shape) * (side is preds[s])))
    preds[sorted(gts)[int(rng.integers(n_scenes))]] = []
    for side in (preds, gts):  # now and then a class neither side has
        if rng.random() < 0.4:
            c = int(rng.integers(0, 3))
            side.update({s: [e for e in els if e[0] != c] for s, els in side.items()})
    return preds, gts


def test_evaluate_keeps_the_bits_of_the_per_block_loop():
    # one clip pass and one chamfer pass over every scene of the call give
    # each AP cell the bits of the former loop: each scene clipped apart,
    # one chamfer_matrix per (scene, class)
    rng = np.random.default_rng(33)
    missing = [0, 0]  # splits with a class of no prediction, of no gt
    cells = 0
    for _ in range(12):
        preds, gts = odd_split(rng, int(rng.integers(1, 9)))
        for roi in ("standard", "extended"):
            cfg = ME.EvalConfig(roi)
            got = ME.evaluate(preds, gts, cfg)
            want = oracles.evaluate_per_block(preds, gts, cfg)
            assert {k: repr(v) for k, v in got.ap.items()} == \
                {k: repr(v) for k, v in want.ap.items()}
            assert repr(got.map) == repr(want.map)
            for k, side in enumerate((preds, gts)):
                classes = {c for s in side for c, _, _ in ME.clip_to_roi(side[s], cfg.grid)}
                missing[k] += len(classes) < 3
            cells += len(got.ap)
    assert min(missing) > 3 and cells == 12 * 2 * 9


# ---------------------------------------------------------------------------
# protocol properties on random corpora
# ---------------------------------------------------------------------------

def test_threshold_monotonicity_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        preds, gts = oracles.random_eval_corpus(rng)
        cfg = ME.EvalConfig("standard")
        res = ME.evaluate(preds, gts, cfg)
        for c in range(3):
            aps = [res.ap[(c, t)] for t in cfg.thresholds]
            assert all(b >= a - 1e-12 for a, b in zip(aps, aps[1:]))


def test_score_scaling_invariance_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        preds, gts = oracles.random_eval_corpus(rng)
        scaled = {s: [(c, sc * 7.5, p) for c, sc, p in els] for s, els in preds.items()}
        cfg = ME.EvalConfig("extended")
        r1 = ME.evaluate(preds, gts, cfg)
        r2 = ME.evaluate(scaled, gts, cfg)
        assert r1.ap == r2.ap


def test_duplicate_penalty_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        preds, gts = oracles.random_eval_corpus(rng)
        doubled = {s: els + [(c, sc, p.copy()) for c, sc, p in els]
                   for s, els in preds.items()}
        cfg = ME.EvalConfig("standard")
        r1 = ME.evaluate(preds, gts, cfg)
        r2 = ME.evaluate(doubled, gts, cfg)
        for key in r1.ap:
            assert r2.ap[key] <= r1.ap[key] + 1e-12


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def test_eval_file_round_trip(tmp_path):
    preds, gts = perfect_corpus()
    res = ME.evaluate(preds, gts, ME.EvalConfig("extended"))
    path = tmp_path / "eval_extended.txt"
    ME.write_eval_file(path, res)
    cells, means, map_value = ME.read_eval_file(path)
    assert map_value == 1.0
    assert cells[("ped_crossing", 1.0)] == 1.0
    assert means["boundary"] == 1.0
    text = path.read_text()
    assert text.splitlines()[-1].startswith("mAP ")


def test_eval_file_keeps_close_thresholds_apart(tmp_path):
    # every pred lies 0.255 m off its gt: a miss at 0.25, a match at 0.26
    preds, gts = perfect_corpus()
    preds = {s: [(c, sc, p + [0.0, 0.255]) for c, sc, p in els] for s, els in preds.items()}
    res = ME.evaluate(preds, gts, ME.EvalConfig("standard", thresholds=(0.25, 0.26, 0.35)))
    path = tmp_path / "eval_standard.txt"
    ME.write_eval_file(path, res)
    cells, means, _ = ME.read_eval_file(path)
    assert cells == {(name, t): float(t > 0.25)
                     for name in G.CLASS_NAMES for t in (0.25, 0.26, 0.35)}
    assert means == {name: 0.666667 for name in G.CLASS_NAMES}
