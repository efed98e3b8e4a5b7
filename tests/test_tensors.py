"""Autodiff engine: forward oracles, finite-difference gradients, optimizer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bevlab import tensors as T
from bevlab.config import RunConfig


RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# forward values against naive oracles
# ---------------------------------------------------------------------------

def test_conv2d_matches_loop_oracle():
    rng = RNG(0)
    for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
        x = rng.normal(size=(3, 7, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b), stride=stride, pad=pad)
        want = oracles.conv2d_oracle(x, k, b, stride=stride, pad=pad)
        assert oracles.rel_error(got.data, want) < 1e-12


def test_conv2d_identity_kernel():
    rng = RNG(1)
    x = rng.normal(size=(5, 6, 6))
    k = np.zeros((5, 5, 1, 1))
    for c in range(5):
        k[c, c, 0, 0] = 1.0
    out = T.conv2d(T.Tensor(x), T.Tensor(k))
    assert np.array_equal(out.data, x)


def test_conv2d_shape_errors():
    x = T.Tensor(np.zeros((2, 4, 4)))
    with pytest.raises(T.TensorError):
        T.conv2d(x, T.Tensor(np.zeros((3, 5, 3, 3))))
    with pytest.raises(T.TensorError):
        T.conv2d(x, T.Tensor(np.zeros((3, 2, 9, 9))))
    k = T.Tensor(np.zeros((3, 2, 3, 3)))
    for bad in ({"stride": -1}, {"stride": 0}, {"stride": 1.5}, {"stride": True},
                {"pad": -1}, {"pad": 0.5}):
        with pytest.raises(T.TensorError, match=next(iter(bad))):
            T.conv2d(x, k, **bad)


def test_mse_matches_scalar_loop():
    rng = RNG(2)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    got = float(T.mse(T.Tensor(a), T.Tensor(b)).data)
    assert abs(got - oracles.mse_oracle(a, b)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_mse_symmetric_bitwise(seed):
    rng = RNG(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    ab = float(T.mse(T.Tensor(a), T.Tensor(b)).data)
    ba = float(T.mse(T.Tensor(b), T.Tensor(a)).data)
    assert ab == ba


def test_mse_self_is_zero():
    a = RNG(3).normal(size=(6,))
    assert float(T.mse(T.Tensor(a), T.Tensor(a)).data) == 0.0


def test_focal_matches_per_row_formula():
    rng = RNG(4)
    z = rng.normal(size=(10, 4)) * 2.0
    t = rng.integers(0, 4, size=10)
    got = float(T.focal_loss(T.Tensor(z), t, 0.25, 2.0).data)
    assert abs(got - oracles.focal_oracle(z, t, 0.25, 2.0)) < 1e-12


def test_focal_reduces_to_cross_entropy():
    rng = RNG(5)
    z = rng.normal(size=(8, 3))
    t = rng.integers(0, 3, size=8)
    got = float(T.focal_loss(T.Tensor(z), t, 0.25, 0.0).data)
    # cross-entropy, the background (last) class weighted 0.75 and the others 0.25
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    want = float((-np.where(t == 2, 0.75, 0.25) * logp[np.arange(8), t]).mean())
    assert abs(got - want) < 1e-12


def test_focal_two_class_zero_logits_gives_ln2():
    z = np.zeros((1, 2))
    # a map-class row weighted alpha = 1: plain cross-entropy
    got = float(T.focal_loss(T.Tensor(z), [0], 1.0, 0.0).data)
    assert abs(got - math.log(2.0)) < 1e-15


def test_focal_rejects_bad_class_index():
    with pytest.raises(T.TensorError):
        T.focal_loss(T.Tensor(np.zeros((2, 3))), [0, 3], 0.25, 2.0)


def test_l1_line_matches_two_ordering_oracle():
    rng = RNG(6)
    p = rng.normal(size=(5, 2))
    g = rng.normal(size=(5, 2))
    got = float(oracles.l1_line_loss(T.Tensor(p), T.Tensor(g)).data)
    assert abs(got - oracles.l1_line_oracle(p, g)) < 1e-14


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_l1_line_reversal_invariant(seed):
    rng = RNG(seed)
    p = rng.normal(size=(4, 2))
    g = rng.normal(size=(4, 2))
    a = float(oracles.l1_line_loss(T.Tensor(p), T.Tensor(g)).data)
    b = float(oracles.l1_line_loss(T.Tensor(p), T.Tensor(g[::-1].copy())).data)
    assert a == b


def test_l1_rows_loss_equals_the_per_row_chain_bit_for_bit():
    rng = RNG(3)  # a draw whose sum changes under reassociation
    x = rng.normal(size=(9, 4, 2))
    rows = [3, 0, 8, 5, 1, 6, 2]
    targets = [rng.normal(size=(4, 2)) for _ in rows]
    targets[1] = x[0][::-1] + 0.01  # nearer reversed
    # the op takes each line in the order given, so hand it the nearer one
    # as the matcher does; the chain below picks it inside l1_line_loss
    oriented = [t[::-1] if np.mean(np.abs(x[q] - t[::-1])) < np.mean(np.abs(x[q] - t)) else t
                for q, t in zip(rows, targets)]
    c = 0.05 / len(rows)
    xt = oracles.parameter(x.copy())
    loss = T.scale(T.l1_rows_loss(xt, rows, oriented), c)
    T.backward(loss)
    # the chain it replaces: one l1_line_loss per row, summed in order, then scaled
    terms, grad = [], np.zeros_like(x)
    for q, t in zip(rows, targets):
        row = oracles.parameter(x[q].copy())
        terms.append(oracles.l1_line_loss(row, T.Tensor(t)))
        T.backward(T.scale(terms[-1], c))
        grad[q] += row.grad
    want = terms[0].data
    for t in terms[1:]:
        want = want + t.data
    assert float(T.l1_rows_loss(T.Tensor(x), rows, oriented).data) == float(want)
    assert float(loss.data) == float(want * c)
    assert np.array_equal(xt.grad, grad)
    assert np.all(xt.grad[[4, 7]] == 0.0)
    fd_check(lambda t: T.l1_rows_loss(t, rows, oriented), [x * 3.0], 1)


def test_l1_rows_loss_rejects_bad_input():
    x = oracles.parameter(np.zeros((3, 4, 2)))
    for bad in ((x, [], []), (x, [0, 1], [np.zeros((4, 2))]), (x, [0], [np.zeros((1, 2))]),
                (oracles.parameter(np.zeros((3, 8))), [0], [np.zeros((4, 2))])):
        with pytest.raises(T.TensorError):
            T.l1_rows_loss(*bad)


def test_channel_normalize_matches_oracle_and_moments():
    rng = RNG(7)
    x = rng.normal(2.0, 3.0, size=(4, 6, 8))
    out = T.channel_normalize(T.Tensor(x)).data
    want = oracles.channel_normalize_oracle(x)
    assert oracles.rel_error(out, want) < 1e-12
    assert np.all(np.abs(out.mean(axis=(1, 2))) < 1e-12)
    # variance is well above eps here, so std lands close to 1
    assert np.all(np.abs(out.std(axis=(1, 2)) - 1.0) < 1e-4)


def test_channel_mix_identity_is_bitwise():
    # forward and both gradients: the identity passes x and g through exactly
    rng = RNG(8)
    x = rng.normal(size=(3, 4, 5))
    g = rng.normal(size=(3, 4, 5))
    xt, wt = oracles.parameter(x), oracles.parameter(np.eye(3))
    out = T.channel_mix(xt, wt)
    assert np.array_equal(out.data, x)
    T.backward(oracles.tsum(T.mul(out, T.Tensor(g))))
    assert np.array_equal(xt.grad, g)
    assert np.array_equal(wt.grad, g.reshape(3, -1) @ x.reshape(3, -1).T)
    for bad in (np.eye(4), np.ones(3), np.eye(3)[:, :2]):
        with pytest.raises(T.TensorError, match="channel_mix weights"):
            T.channel_mix(xt, T.Tensor(bad))
    with pytest.raises(T.TensorError, match="channel_mix expects"):
        T.channel_mix(T.Tensor(x[0]), wt)


def test_soft_points_matches_oracle_and_stays_in_hull():
    rng = RNG(31)
    x = rng.normal(0.0, 2.0, size=(5, 4, 6))
    yy, xx = np.meshgrid(np.linspace(10.0, -10.0, 4),
                         np.linspace(-30.0, 30.0, 6), indexing="ij")
    coords = np.stack([xx, yy])
    out = T.soft_points(T.Tensor(x), coords).data
    assert out.shape == (5, 2)
    assert oracles.rel_error(out, oracles.soft_points_oracle(x, coords)) < 1e-12
    assert out[:, 0].min() >= -30.0 and out[:, 0].max() <= 30.0
    assert np.abs(out[:, 1]).max() <= 10.0
    # a sharp peak reads out that cell's coordinates
    x[0] = 0.0
    x[0, 2, 3] = 60.0
    peaked = T.soft_points(T.Tensor(x), coords).data
    assert np.allclose(peaked[0], [coords[0, 2, 3], coords[1, 2, 3]], atol=1e-9)
    with pytest.raises(T.TensorError):
        T.soft_points(T.Tensor(x), coords[:1])
    with pytest.raises(T.TensorError):
        T.soft_points(T.Tensor(x[0]), coords)


def test_maxpool_and_upsample_match_oracles():
    rng = RNG(9)
    x = rng.normal(size=(2, 6, 8))
    assert np.array_equal(T.maxpool2(T.Tensor(x)).data, oracles.maxpool2_oracle(x))
    assert np.array_equal(T.upsample2x(T.Tensor(x)).data, oracles.upsample2x_oracle(x))
    with pytest.raises(T.TensorError):
        T.maxpool2(T.Tensor(np.zeros((1, 5, 4))))


def test_relu_values():
    x = T.Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.array_equal(T.relu(x).data, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_relu_keeps_the_bits_of_the_select_form():
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([-0.0, 0.0, -tiny, tiny, -1.5, 2.5, -1e300, 1e300, 1e-300] * 3)
    got = T.relu(T.Tensor(x)).data
    assert np.array_equal(got.view(np.int64), np.where(x > 0.0, x, 0.0).view(np.int64))
    assert not np.any(np.signbit(got))
    # the select form zeroed NaN; max propagates it, and the finite guard refuses it
    with pytest.raises(T.TensorError, match="relu"):
        T.relu(T.Tensor(np.array([1.0, np.nan, -1.0])))


def test_relu_backward_passes_gradient_only_where_input_is_positive():
    rng = RNG(29)
    x = rng.normal(size=(3, 5, 6))
    x.reshape(-1)[:12] = [0.0, -0.0] * 6
    g = rng.normal(size=x.shape)
    dx, = T.relu(oracles.parameter(x))._bwd(g)
    want = np.array([gi if xi > 0.0 else 0.0 for xi, gi in zip(x.ravel(), g.ravel())])
    assert np.array_equal(dx, want.reshape(x.shape))


def test_maxpool2_first_maximum_of_a_tied_window_wins():
    rng = RNG(30)
    # three levels make ties common; zeros come with one sign, then both
    for signed_zeros in (False, True):
        x = rng.integers(-1, 2, size=(3, 6, 8)).astype(np.float64)
        if signed_zeros:
            x[x == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(x == 0.0)))
        out = T.maxpool2(oracles.parameter(x))
        want = oracles.maxpool2_oracle(x)  # builtin max keeps the first of equals
        assert np.array_equal(out.data, want)
        assert np.array_equal(np.signbit(out.data), np.signbit(want))
        g = rng.normal(size=out.shape)
        assert np.array_equal(out._bwd(g)[0], oracles.maxpool2_grad_oracle(x, g))


def test_constant_operands_get_no_gradient():
    rng = RNG(31)
    a, c = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    g = rng.normal(size=(2, 3))
    for op in (T.mul, T.mse):
        out = op(oracles.parameter(a), T.Tensor(c))
        da, dc = out._bwd(g if op is T.mul else 1.0)
        assert dc is None and da is not None
        out = op(T.Tensor(c), oracles.parameter(a))
        dc, da = out._bwd(g if op is T.mul else 1.0)
        assert dc is None and da is not None
    assert np.array_equal(T.mul(oracles.parameter(a), T.Tensor(c))._bwd(g)[0], g * c)


def test_linear_and_spatial_mean():
    rng = RNG(10)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    assert np.allclose(T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data, x @ w + b)
    m = rng.normal(size=(5, 3, 4))
    assert np.allclose(T.spatial_mean(T.Tensor(m)).data, m.mean(axis=(1, 2)))


def test_nonfinite_forward_raises():
    x = T.Tensor(np.ones(3))
    with pytest.raises(T.TensorError):
        T.scale(x, float("inf"))


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def fd_check(build, arrays, n_inputs, tol=1e-4, h=1e-5):
    """build(*tensors) -> scalar Tensor; compares backward grads with FD."""
    ts = [oracles.parameter(a.copy()) for a in arrays[:n_inputs]]
    loss = build(*ts, *arrays[n_inputs:])
    T.backward(loss)

    def f(*arrs):
        consts = arrs[n_inputs:]
        return float(build(*[T.Tensor(a) for a in arrs[:n_inputs]], *consts).data)

    for i, t in enumerate(ts):
        fd = oracles.fd_gradient(f, [a.copy() for a in arrays[:n_inputs]] + list(arrays[n_inputs:]), i, h=h)
        assert t.grad is not None, f"input {i} received no gradient"
        err = oracles.rel_error(t.grad, fd)
        assert err < tol, f"input {i}: rel error {err}"


CONV_GRAD_CASES = [(stride, pad, kshape, hw)
                   for stride in (1, 2) for pad in (0, 1, 2)
                   for kshape in ((1, 1), (3, 2)) for hw in ((5, 6), (6, 7))]


def test_grad_conv2d():
    rng = RNG(20)
    x = rng.normal(size=(2, 5, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    fd_check(lambda xt, kt, bt: oracles.tsum(T.scale(T.conv2d(xt, kt, bt, stride=2, pad=1), 0.5)),
             [x, k, b], 3)
    # every stride, pad (pad >= kernel included), kernel and odd/even size
    for stride, pad, (kh, kw), (h, w) in CONV_GRAD_CASES:
        x = rng.normal(size=(2, h, w))
        k = rng.normal(size=(2, 2, kh, kw))
        b = rng.normal(size=2)
        wts = rng.normal(size=T.conv2d(T.Tensor(x), T.Tensor(k), stride=stride, pad=pad).shape)
        fd_check(lambda xt, kt, bt, wt: oracles.tsum(T.mul(T.conv2d(xt, kt, bt, stride=stride, pad=pad),
                                                     T.Tensor(wt))),
                 [x, k, b, wts], 3)


def test_conv2d_input_grad_matches_col2im_oracle():
    rng = RNG(23)
    for stride, pad, (kh, kw), (h, w) in CONV_GRAD_CASES:
        x = oracles.parameter(rng.normal(size=(3, h, w)))
        k = rng.normal(size=(4, 3, kh, kw))
        out = T.conv2d(x, T.Tensor(k), stride=stride, pad=pad)
        g = rng.normal(size=out.shape)
        dx = out._bwd(g)[0]
        want = oracles.conv2d_input_grad_oracle(g, k, x.shape, stride=stride, pad=pad)
        assert dx.shape == x.shape
        assert oracles.rel_error(dx, want) <= 1e-12, (stride, pad, kh, kw, h, w)


def test_conv2d_input_grad_takes_col2im_when_cout_is_4x_cin():
    # Cout >= 4*Cin takes dx as col2im, the oracle's own arithmetic
    rng = RNG(24)
    for cin, cout in ((2, 8), (3, 13)):
        for stride, pad, (kh, kw), (h, w) in CONV_GRAD_CASES:
            x = oracles.parameter(rng.normal(size=(cin, h, w)))
            k = rng.normal(size=(cout, cin, kh, kw))
            out = T.conv2d(x, T.Tensor(k), stride=stride, pad=pad)
            g = rng.normal(size=out.shape)
            want = oracles.conv2d_input_grad_oracle(g, k, x.shape, stride=stride, pad=pad)
            assert np.array_equal(out._bwd(g)[0], want), (cin, cout, stride, pad, kh, kw, h, w)
    x = rng.normal(size=(2, 6, 7))
    k = rng.normal(size=(9, 2, 3, 2))
    b = rng.normal(size=9)
    fd_check(lambda xt, kt, bt: oracles.tsum(T.scale(T.conv2d(xt, kt, bt, stride=2, pad=1), 0.5)),
             [x, k, b], 3)


def test_conv2d_input_off_the_tape_gets_no_gradient():
    rng = RNG(25)
    x = rng.normal(size=(3, 6, 7))
    k = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    grads = {}
    for on_tape in (True, False):
        xt, kt, bt = T.Tensor(x, requires_grad=on_tape), oracles.parameter(k), oracles.parameter(b)
        out = T.conv2d(xt, kt, bt, stride=2, pad=1)
        # bwd itself skips dx; backward() would drop it for an off-tape input anyway
        assert (out._bwd(np.ones(out.shape))[0] is None) == (not on_tape)
        T.backward(oracles.tsum(T.scale(out, 0.5)))
        grads[on_tape] = (xt.grad, kt.grad, bt.grad)
    assert grads[True][0] is not None and grads[False][0] is None
    assert np.array_equal(grads[True][1], grads[False][1])
    assert np.array_equal(grads[True][2], grads[False][2])


def sparse_positions(rng, n):
    return np.sort(rng.choice(n, size=n // 3, replace=False))


def sites(x, k, at, stride, pad):
    """The conv_sites of conv2d(x, k, stride=stride, pad=pad) at ``at``."""
    return T.conv_sites(x.shape, k.shape[2:], at, stride, pad)


def test_conv2d_at_matches_dense_at_given_positions():
    rng = RNG(26)
    for stride, pad in ((1, 0), (1, 1), (2, 0), (2, 1)):
        x, k, b = (T.Tensor(rng.normal(size=s)) for s in ((3, 7, 8), (4, 3, 3, 3), (4,)))
        dense = T.conv2d(x, k, b, stride=stride, pad=pad).data
        cout, ho, wo = dense.shape
        at = sparse_positions(rng, ho * wo)
        got = T.conv2d(x, k, b, stride=stride, pad=pad, at=sites(x, k, at, stride, pad)).data
        assert got.shape == (cout, len(at))
        assert oracles.rel_error(got, dense.reshape(cout, -1)[:, at]) <= 1e-12
        every = sites(x, k, np.arange(ho * wo), stride, pad)
        full = T.conv2d(x, k, b, stride=stride, pad=pad, at=every).data
        assert full.shape == (cout, ho * wo)
        assert oracles.rel_error(full, dense.reshape(cout, -1)) <= 1e-12


def test_conv2d_at_is_bitwise_the_dense_layout_path():
    # output, dx, dk and db equal the full-map layout's bit for bit; the
    # student's own shape (12 -> 16 channels on 32x48) is among the cases
    rng = RNG(28)
    cases = [((3, 7, 8), (4, 3, 3, 3), stride, pad)
             for stride in (1, 2) for pad in (0, 1)]
    cases += [((2, 6, 7), (9, 2, 3, 2), 2, 1), ((12, 32, 48), (16, 12, 3, 3), 1, 1)]
    for xs, ks, stride, pad in cases:
        x, k, b = oracles.parameter(rng.normal(size=xs)), oracles.parameter(rng.normal(size=ks)), \
            oracles.parameter(rng.normal(size=ks[0]))
        _, ho, wo = T.conv2d(x, k, stride=stride, pad=pad).shape
        for at in (sparse_positions(rng, ho * wo), np.arange(ho * wo),
                   np.array([], dtype=np.int64)):
            out = T.conv2d(x, k, b, stride=stride, pad=pad, at=sites(x, k, at, stride, pad))
            want, want_bwd = oracles.conv2d_at_dense(x.data, k.data, b.data, stride, pad, at)
            assert np.array_equal(out.data, want.reshape(ks[0], -1)[:, at])
            g = rng.normal(size=(ks[0], ho, wo))  # off-`at` entries must not matter
            got = out._bwd(np.ascontiguousarray(g.reshape(ks[0], -1)[:, at]))
            for name, a, w in zip(("dx", "dk", "db"), got, want_bwd(g)):
                assert np.array_equal(a, w), (xs, ks, stride, pad, len(at), name)


def test_grad_conv2d_at():
    rng = RNG(27)
    for stride in (1, 2):
        for pad in (0, 1):
            x, k, b = rng.normal(size=(2, 6, 7)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
            _, ho, wo = T.conv2d(T.Tensor(x), T.Tensor(k), stride=stride, pad=pad).shape
            sparse = sparse_positions(rng, ho * wo)
            for at in (sparse, np.array([], dtype=np.int64)):
                wts = rng.normal(size=(3, len(at)))
                fd_check(lambda xt, kt, bt, wt: oracles.tsum(T.mul(
                    T.conv2d(xt, kt, bt, stride=stride, pad=pad,
                             at=sites(xt, kt, at, stride, pad)), T.Tensor(wt))),
                    [x, k, b, wts], 3)
            out = T.conv2d(T.Tensor(x), oracles.parameter(k), stride=stride, pad=pad,
                           at=sites(x, k, sparse, stride, pad))
            assert out._bwd(np.ones(out.shape))[0] is None


def test_conv2d_takes_prebuilt_sites_for_its_geometry_only():
    rng = RNG(31)
    x, k, b = oracles.parameter(rng.normal(size=(3, 7, 8))), oracles.parameter(rng.normal(size=(4, 3, 3, 3))), \
        oracles.parameter(rng.normal(size=4))
    at = sparse_positions(rng, 7 * 8)
    built = T.conv_sites((3, 7, 8), (3, 3), at, stride=1, pad=1)
    assert T.conv2d(x, k, b, pad=1, at=built).shape == (4, len(at))
    wider = oracles.parameter(rng.normal(size=(3, 7, 10)))
    # sites of another geometry, and raw positions, are refused
    for xt, stride, pad, given in ((x, 2, 1, built), (x, 1, 0, built), (wider, 1, 1, built),
                                   (x, 1, 1, at)):
        with pytest.raises(T.TensorError, match="conv2d at must be the conv_sites of"):
            T.conv2d(xt, k, b, stride=stride, pad=pad, at=given)
    with pytest.raises(T.TensorError, match="conv2d at"):
        T.conv_sites((3, 7, 8), (3, 3), np.array([3, 2]), pad=1)


def test_conv2d_at_fails_fast_and_allows_empty():
    x = T.Tensor(np.ones((2, 4, 4)))
    k = T.Tensor(np.ones((3, 2, 3, 3)))
    # pad 1 keeps the 4x4 size: positions 0..15
    for bad in (np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([True, False]),
                np.array([2, 1]), np.array([1, 1]), np.array([-1, 3]), np.array([0, 16])):
        with pytest.raises(T.TensorError, match="conv2d at"):
            sites(x, k, bad, 1, 1)
    kt, bt = oracles.parameter(np.ones((3, 2, 3, 3))), oracles.parameter(np.ones(3))
    for empty in ([], np.array([], dtype=np.int64)):
        out = T.conv2d(x, kt, bt, pad=1, at=sites(x, kt, empty, 1, 1))
        assert out.shape == (3, 0)
        T.backward(oracles.tsum(out))
        assert np.all(kt.grad == 0.0) and np.all(bt.grad == 0.0)
        T.zero_grad([kt, bt])


def test_conv2d_keeps_the_bits_of_the_conv_that_saved_its_columns():
    # out, dx, dk and db equal those of the conv that kept its im2col columns,
    # in both dx layouts and with random and empty `at`; dk comes from the
    # input as it was at forward time, even after x.data is rebound
    rng = RNG(33)
    for stride, pad, (kh, kw), (h, w) in CONV_GRAD_CASES:
        for cin, cout in ((3, 4), (2, 8)):
            x, k, b = rng.normal(size=(cin, h, w)), rng.normal(size=(cout, cin, kh, kw)), \
                rng.normal(size=cout)
            _, ho, wo = T.conv2d(T.Tensor(x), T.Tensor(k), stride=stride, pad=pad).shape
            for at in (None, sparse_positions(rng, ho * wo), np.array([], dtype=np.int64)):
                given = None if at is None else T.conv_sites(x.shape, (kh, kw), at, stride, pad)
                xt = oracles.parameter(x)
                got, want = (conv(xt, oracles.parameter(k), oracles.parameter(b), stride=stride,
                                  pad=pad, at=given)
                             for conv in (T.conv2d, oracles.conv2d_keep_columns))
                case = (stride, pad, kh, kw, h, w, cin, cout, None if at is None else len(at))
                assert np.array_equal(got.data, want.data), case
                g = rng.normal(size=got.shape)
                want_bwd = want._bwd(g)
                for name, a, wb in zip(("dx", "dk", "db"), got._bwd(g), want_bwd):
                    assert np.array_equal(a, wb), (case, name)
                xt.data = rng.normal(size=x.shape)
                assert np.array_equal(got._bwd(g)[1], want_bwd[1]), case


def traced_held(build):
    """(bytes still allocated, numpy buffers included, once ``build()``
    has returned, and what it returned)."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[0], out
    finally:
        tracemalloc.stop()


HELD_SLACK = 16 * 1024  # the tape node, its closure and their small arrays


def test_conv2d_tape_holds_no_im2col_columns():
    # the decoder's pts conv: a 1.99 MB column array against a 0.22 MB output
    rng = RNG(34)
    x = oracles.parameter(rng.normal(size=(96, 12, 24)))
    k, b = oracles.parameter(rng.normal(size=(96, 96, 3, 3))), oracles.parameter(np.zeros(96))
    held, out = traced_held(lambda: T.conv2d(x, k, b, pad=1))
    limit = out.data.nbytes + HELD_SLACK
    assert out.requires_grad and 96 * 9 * 12 * 24 * 8 > 8 * limit
    assert held < limit, held
    # the student's sparse cam2 conv at the default rig, one camera at a time
    cfg = RunConfig()
    student = cfg.student(rng)
    _, sites = student._lift_plan(cfg.rig(), cfg.grid())
    p = student.params
    for s in sites:
        h = oracles.parameter(rng.normal(size=s.geometry[0]))
        held, out = traced_held(lambda: T.conv2d(h, p["cam2.w"], p["cam2.b"], pad=1, at=s))
        limit = out.data.nbytes + HELD_SLACK
        assert out.requires_grad and s.targets.size * 8 > limit
        assert held < limit, (held, out.shape)


def test_grad_mse_and_channel_mix_chain():
    # through x and w, after a normalization as in the alignment loss
    rng = RNG(21)
    x = rng.normal(size=(3, 4, 4))
    w = rng.normal(size=(3, 3))
    tgt = rng.normal(size=(3, 4, 4))
    fd_check(lambda xt, wt, tc: T.mse(T.channel_mix(xt, wt), T.Tensor(tc)), [x, w, tgt], 2)
    fd_check(lambda xt, wt, tc: T.mse(T.channel_mix(T.channel_normalize(xt), wt),
                                      T.Tensor(tc)), [x, w, tgt], 2)


def test_grad_channel_normalize():
    rng = RNG(22)
    x = rng.normal(1.0, 2.0, size=(2, 4, 5))
    tgt = rng.normal(size=(2, 4, 5))
    fd_check(lambda xt, tc: T.mse(T.channel_normalize(xt), T.Tensor(tc)), [x, tgt], 1)


def test_grad_focal():
    rng = RNG(23)
    z = rng.normal(size=(6, 4))
    t = rng.integers(0, 4, size=6)
    fd_check(lambda zt, tc: T.focal_loss(zt, tc, 0.25, 2.0), [z, t], 1)
    fd_check(lambda zt, tc: T.focal_loss(zt, tc, 0.25, 0.0), [z, t], 1)


def test_grad_l1_line():
    rng = RNG(24)
    p = rng.normal(size=(4, 2)) * 3.0
    g = rng.normal(size=(4, 2)) * 0.1  # well separated orderings
    fd_check(lambda pt, gt: oracles.l1_line_loss(pt, gt), [p, g], 2)


def test_grad_pool_up_concat_linear():
    rng = RNG(25)
    x = oracles.distinct_quads(rng, 2, 4, 4)
    fd_check(lambda xt: oracles.tsum(T.maxpool2(xt)), [x], 1, h=1e-6)
    y = rng.normal(size=(2, 3, 3))
    fd_check(lambda yt: oracles.tsum(T.upsample2x(yt)), [y], 1)
    a = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=(4, 3, 3))
    fd_check(lambda at, bt: oracles.tsum(oracles.tanh(T.concat([at, bt]))), [a, b], 2)
    xv = oracles.away_from_zero(rng, (2, 5))
    w = rng.normal(size=(5, 3))
    bb = rng.normal(size=3)
    fd_check(lambda xt, wt, bt: oracles.tsum(T.relu(T.linear(xt, wt, bt))), [xv, w, bb], 3)


def test_mul_values_and_gradient():
    rng = RNG(32)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    assert np.array_equal(T.mul(T.Tensor(a), T.Tensor(b)).data, a * b)
    with pytest.raises(T.TensorError):
        T.mul(T.Tensor(a), T.Tensor(b[:2]))
    fd_check(lambda at, bt: oracles.tsum(T.mul(at, bt)), [a, b], 2)


def test_grad_soft_points():
    rng = RNG(30)
    x = rng.normal(0.0, 1.5, size=(3, 3, 4))
    yy, xx = np.meshgrid(np.linspace(2.0, -2.0, 3),
                         np.linspace(-4.0, 4.0, 4), indexing="ij")
    coords = np.stack([xx, yy])
    tgt = rng.normal(size=(3, 2))
    fd_check(lambda xt, cc, tc: T.mse(T.soft_points(xt, cc), T.Tensor(tc)),
             [x, coords, tgt], 1)


def test_grad_spatial_mean_and_reshape():
    rng = RNG(26)
    x = rng.normal(size=(3, 4, 5))
    w = rng.normal(size=(3,))
    fd_check(lambda xt, wc: oracles.tsum(T.scale(T.spatial_mean(xt), 2.0)), [x, w], 1)
    fd_check(lambda xt: oracles.tsum(oracles.tanh(T.reshape(xt, (12, 5)))), [x], 1)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

def test_fanout_accumulates():
    x = oracles.parameter(np.array(3.0))
    y = T.add(x, x)
    T.backward(y)
    assert float(x.grad) == 2.0


def test_backward_requires_scalar():
    x = oracles.parameter(np.ones(4))
    with pytest.raises(T.TensorError):
        T.backward(T.relu(x))


def test_frozen_inputs_stay_out_of_tape():
    x = T.Tensor(np.ones((2, 2)))  # no grad
    w = oracles.parameter(np.full((2, 2), 2.0))
    out = T.mse(T.add(x, w), T.Tensor(np.zeros((2, 2))))
    T.backward(out)
    assert x.grad is None
    assert w.grad is not None
    # a graph with no trainable inputs is not recorded at all
    y = T.add(x, T.Tensor(np.ones((2, 2))))
    assert y._bwd is None and not y.requires_grad


def test_deep_chain_no_recursion_error():
    x = oracles.parameter(np.array(0.5))
    y = x
    for _ in range(1500):
        y = T.scale(y, 1.0001)
    T.backward(y)
    assert x.grad is not None and math.isfinite(float(x.grad))


def test_node_visited_once():
    # diamond: loss = mse(a+b, a) touches `a` along two paths
    a = oracles.parameter(np.ones(3))
    b = oracles.parameter(np.full(3, 0.5))
    s = T.add(a, b)
    loss = T.mse(s, a)
    T.backward(loss)
    # d/da of mean((b)^2) through both routes cancels exactly
    assert np.allclose(a.grad, 0.0)
    assert np.allclose(b.grad, 2.0 * 0.5 / 3.0)


def group_graph(rng):
    """A loss whose parameter ``w`` gets contributions from three groups and
    from the head, with magnitudes spread so that their order shows in the
    bits; ``v`` is reached from one group only. Returns (loss, groups, w, v)."""
    w = oracles.parameter(rng.normal(size=5))
    v = oracles.parameter(rng.normal(size=5))
    groups = []
    for k, mag in enumerate((1e16, 1.0, -1e16)):
        c = T.Tensor(mag * rng.normal(size=5) + rng.normal(size=5))
        h = T.mul(T.add(T.mul(w, c), w), T.Tensor(rng.normal(size=5)))
        if k == 1:
            h = T.mul(h, v)
        groups.append((oracles.tsum(h), oracles.tsum(T.scale(h, 0.5))))
    terms = [T.add(a, b) for a, b in groups]
    loss = T.add(T.add(T.add(terms[0], terms[1]), terms[2]), oracles.tsum(T.scale(w, 3.0)))
    return loss, groups, w, v


def reversed_map(fn, *iterables):
    """map, but making the calls last to first."""
    return [fn(*args) for args in reversed(list(zip(*iterables)))][::-1]


def test_split_backward_keeps_the_serial_walk_bits():
    from bevlab.supervision import Crew
    want = None
    with Crew(2) as crew:
        for groups_of, run in ((lambda g: (), map), (lambda g: g, map),
                               (lambda g: g, reversed_map), (lambda g: g, crew.map),
                               (lambda g: g[::-1], crew.map)):
            loss, groups, w, v = group_graph(RNG(40))
            if want is None:
                oracles.serial_backward(loss)
                want = (w.grad, v.grad)
                # folding group by group would move the bits: the test can tell
                loss, groups, w, v = group_graph(RNG(40))
            T.backward(loss, groups_of(groups), run)
            assert np.array_equal(w.grad, want[0]) and np.array_equal(v.grad, want[1])
    contributions = []
    for k in range(3):
        loss, groups, w, v = group_graph(RNG(40))
        T.backward(T.add(*groups[k]))
        contributions.append(w.grad)
    by_group = contributions[0] + contributions[1] + contributions[2]
    assert not np.array_equal(by_group + 3.0, want[0])


def test_split_backward_refuses_a_node_two_groups_share():
    w = oracles.parameter(np.ones(3))
    shared = T.scale(w, 2.0)
    a, b = oracles.tsum(shared), oracles.tsum(T.mul(shared, shared))
    with pytest.raises(T.TensorError, match="'scale' node is reached from groups 0 and 1"):
        T.backward(T.add(a, b), [(a,), (b,)])
    # a shared leaf is fine
    a, b = oracles.tsum(w), oracles.tsum(T.scale(w, 3.0))
    w.grad = None
    T.backward(T.add(a, b), [(a,), (b,)])
    assert np.array_equal(w.grad, np.full(3, 4.0))


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def test_cosine_schedule_endpoints_and_monotone():
    p = {"w": oracles.parameter(np.zeros(1))}
    opt = T.AdamW(p, lr=0.1, weight_decay=0.01, horizon=100, min_lr=0.0)
    assert T.cosine_lr(opt) == 0.1
    rates = []
    for _ in range(130):
        rates.append(T.adamw_step(opt))
    assert abs(rates[0] - 0.1) < 1e-15
    # non-increasing, clamps at zero after the horizon
    assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))
    assert rates[100 - 1] < 1e-4  # lr used at step 99 is nearly final
    assert rates[110] == rates[120] == 0.0


def test_cosine_min_lr_floor():
    opt = T.AdamW({"w": oracles.parameter(np.zeros(1))}, lr=0.1, weight_decay=0.01,
                  horizon=10, min_lr=0.02)
    for _ in range(15):
        T.adamw_step(opt)
    assert T.cosine_lr(opt) == 0.02


def test_adamw_matches_hand_rolled_update():
    rng = RNG(30)
    w0 = rng.normal(size=4)
    g = rng.normal(size=4)
    p = oracles.parameter(w0.copy())
    opt = T.AdamW({"w": p}, lr=0.01, weight_decay=0.1, horizon=10 ** 9, min_lr=0.0)
    p.grad = g.copy()
    T.adamw_step(opt)
    # closed form for the first Adam step: m_hat = g, v_hat = g^2
    want = w0 - 0.01 * (g / (np.abs(g) + 1e-8) + 0.1 * w0)
    assert np.allclose(p.data, want, atol=1e-12)


def test_adamw_skips_frozen_and_handles_missing_grad():
    frozen = T.Tensor(np.ones(3))
    live = oracles.parameter(np.ones(3))
    opt = T.AdamW({"f": frozen, "l": live}, lr=0.1, weight_decay=0.0, horizon=1000,
                  min_lr=0.0)
    before = frozen.data.copy()
    T.adamw_step(opt)  # neither has a grad; frozen must stay bitwise identical
    assert np.array_equal(frozen.data, before)
    assert np.array_equal(live.data, np.ones(3))  # zero grad, zero wd: no motion


def test_adamw_trajectory_deterministic():
    def run():
        rng = RNG(31)
        p = oracles.parameter(rng.normal(size=5))
        opt = T.AdamW({"p": p}, lr=0.05, weight_decay=0.01, horizon=50, min_lr=0.0)
        for i in range(50):
            x = T.Tensor(rng.normal(size=5))
            loss = T.mse(p, x)
            opt.zero_grad()
            T.backward(loss)
            T.adamw_step(opt)
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# .ten files
# ---------------------------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_ten_round_trip_bitwise(seed, ndim):
    rng = RNG(seed)
    shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    arr = rng.normal(size=shape)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.ten")
        T.write_ten(path, arr)
        back = T.read_ten(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_ten_truncation_reports_file_and_size(tmp_path):
    path = tmp_path / "x.ten"
    T.write_ten(path, np.ones((3, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(T.TensorError) as ei:
        T.read_ten(path)
    msg = str(ei.value)
    assert "x.ten" in msg and str(len(raw)) in msg


def test_ten_bad_magic(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(T.TensorError):
        T.read_ten(path)


def test_check_ten_refuses_what_read_ten_refuses_with_its_message(tmp_path):
    path = tmp_path / "x.ten"
    for arr in (np.float64(2.5), np.ones(3), np.ones((2, 3)), np.ones((1,) * 9)):
        raw = T.write_ten(path, arr)
        assert T.check_ten(path).st_size == len(raw)
    raw = T.write_ten(path, np.ones((3, 4)))
    broken = [raw[:3], b"NOPE" + raw[4:], raw[:5], raw[:4] + b"\x01" + raw[5:], raw[:9],
              raw[:-5], raw + b"\x00", b""]
    for bad in broken:
        path.write_bytes(bad)
        with pytest.raises(T.TensorError) as want:
            T.read_ten(path)
        with pytest.raises(T.TensorError) as got:
            T.check_ten(path)
        assert str(got.value) == str(want.value), bad

