"""CKA, R^2, similarity files, and the channel-mean visualization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bevlab import analysis as A


def test_cka_self_similarity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 8))
    assert abs(A.linear_cka(x, x) - 1.0) < 1e-12
    assert abs(A.linear_cka(x, x, center=True) - 1.0) < 1e-12


def test_cka_orthogonal_and_scaling_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 8))
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        alpha = float(rng.uniform(0.1, 10.0))
        y = alpha * (x @ q)
        assert abs(A.linear_cka(x, y) - 1.0) < 1e-9


def test_cka_longhand_three_by_two():
    x = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    y = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    # longhand Eq: elementwise loops, no matrix ops
    def gram(a, b):
        out = [[0.0] * b.shape[1] for _ in range(a.shape[1])]
        for i in range(a.shape[1]):
            for j in range(b.shape[1]):
                for n in range(a.shape[0]):
                    out[i][j] += a[n, i] * b[n, j]
        return out

    def fro2(m):
        return sum(v * v for row in m for v in row)

    want = fro2(gram(x, y)) / (fro2(gram(x, x)) ** 0.5 * fro2(gram(y, y)) ** 0.5)
    assert abs(A.linear_cka(x, y) - want) < 1e-12
    assert abs(A.linear_cka(x, y) - oracles.cka_oracle(x, y)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cka_symmetric(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20, 5))
    y = rng.normal(size=(20, 7))
    assert abs(A.linear_cka(x, y) - A.linear_cka(y, x)) < 1e-12


def test_cka_center_flag_matches_manual_centering():
    rng = np.random.default_rng(2)
    x = rng.normal(3.0, 1.0, size=(30, 4))
    y = rng.normal(-2.0, 2.0, size=(30, 6))
    manual = A.linear_cka(x - x.mean(0), y - y.mean(0))
    assert abs(A.linear_cka(x, y, center=True) - manual) < 1e-12


def test_cka_rejects_zero_matrix_and_bad_shapes():
    x = np.random.default_rng(3).normal(size=(10, 3))
    with pytest.raises(A.AnalysisError):
        A.linear_cka(x, np.zeros((10, 3)))
    with pytest.raises(A.AnalysisError):
        A.linear_cka(x, x[:5])
    with pytest.raises(A.AnalysisError):
        A.linear_cka(x[:1], x[:1])


def test_r_squared_exact_linear_relation():
    rng = np.random.default_rng(4)
    y = rng.normal(size=(200, 6))
    w0 = rng.normal(size=(6, 4))
    x = y @ w0
    assert abs(A.r_squared(x, y) - 1.0) < 1e-9
    assert abs(A.r_squared(y, y) - 1.0) < 1e-9


def test_r_squared_independent_noise_near_zero():
    rng = np.random.default_rng(5)
    vals = []
    for _ in range(5):
        x = rng.normal(size=(2000, 8))
        y = rng.normal(size=(2000, 8))
        vals.append(A.r_squared(x, y))
    assert all(v <= 0.1 for v in vals)


def test_r_squared_matches_lstsq_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        y = rng.normal(size=(100, 5))
        x = y @ rng.normal(size=(5, 3)) + 0.3 * rng.normal(size=(100, 3))
        got = A.r_squared(x, y)
        want = oracles.r_squared_oracle(x, y)
        assert abs(got - want) < 1e-6


def test_r_squared_invariant_to_invertible_reparam():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(300, 6))
    x = y @ rng.normal(size=(6, 4)) + 0.1 * rng.normal(size=(300, 4))
    base = A.r_squared(x, y)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        assert abs(A.r_squared(x, y @ a) - base) < 1e-6


def test_r_squared_preconditions():
    rng = np.random.default_rng(8)
    with pytest.raises(A.AnalysisError):
        A.r_squared(rng.normal(size=(5, 2)), rng.normal(size=(5, 6)))
    with pytest.raises(A.AnalysisError):
        A.r_squared(np.ones((50, 2)), rng.normal(size=(50, 2)))  # zero variance


def test_feature_matrix_layout():
    fmap = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    m = A.feature_matrix(fmap)
    assert m.shape == (12, 2)
    # row r corresponds to spatial position r in row-major (H, W) order
    assert m[0, 0] == fmap[0, 0, 0] and m[0, 1] == fmap[1, 0, 0]
    assert m[5, 0] == fmap[0, 1, 1] and m[5, 1] == fmap[1, 1, 1]


def test_summarize_median_iqr():
    med, iqr = A.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and iqr == 2.0


def test_similarity_file_round_trip(tmp_path):
    # exact floats: the rows come back bit for bit
    rows = [("scene_0001", 0.91, 0.87, 0.55), ("scene_0002", 1.0 / 3.0, 0.1 + 0.2, 1e-17)]
    path = tmp_path / "similarity.txt"
    A.write_similarity_file(path, rows)
    assert A.read_similarity_file(path) == rows
    path.write_text("scene_x 0.5 0.5\n")
    with pytest.raises(A.AnalysisError):
        A.read_similarity_file(path)


def test_channel_mean_viz_constant_and_degenerate():
    fmap = np.full((3, 4, 5), 2.5)
    img = A.channel_mean_viz(fmap, (2.5, 2.5))
    assert np.all(img == 0.5)  # a degenerate scale renders mid-gray
    img2 = A.channel_mean_viz(fmap, shared_scale=(0.0, 5.0))
    assert np.all(img2 == 0.5)


def test_channel_mean_viz_longhand_two_by_two():
    fmap = np.array([[[1.0, 3.0], [5.0, 7.0]],
                     [[2.0, 4.0], [6.0, 8.0]]])
    # channel means: [[1.5, 3.5], [5.5, 7.5]], scaled by their own range
    img = A.channel_mean_viz(fmap, (1.5, 7.5))
    want = np.array([[0.0, 2.0 / 6.0], [4.0 / 6.0, 1.0]])
    assert np.allclose(img, want, atol=1e-15)


def test_shared_scale_makes_maps_comparable():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 6, 6))
    b = a.copy()
    b[:, 3:, :] += 1.0  # differs only in the lower half
    scale = (-3.0, 4.0)
    ia = A.channel_mean_viz(a, scale)
    ib = A.channel_mean_viz(b, scale)
    assert np.array_equal(ia[:3], ib[:3])
    assert not np.array_equal(ia[3:], ib[3:])


def read_pgm(path) -> np.ndarray:
    """Reads back the P5 files written by write_pgm."""
    with open(path, "rb") as f:
        raw = f.read()
    parts = raw.split(b"\n", 3)
    assert parts[0] == b"P5" and len(parts) == 4, f"{path}: not a binary PGM"
    w, h = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    img = np.frombuffer(parts[3][:w * h], dtype=np.uint8).reshape(h, w)
    return img.astype(np.float64) / maxval


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    img = rng.random((8, 12))
    path = tmp_path / "viz.pgm"
    A.write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12
    assert path.read_bytes().startswith(b"P5\n12 8\n255\n")
