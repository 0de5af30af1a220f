"""Engine tests: forward ops against naive oracles, backward rules against
central finite differences, tape semantics, Adam, and the freeze contract."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegan3d import autodiff as ad
from facegan3d.errors import NonFiniteError, ShapeError
from facegan3d.model import NetParams

from oracles import (check_gradients, naive_avg_pool2, naive_conv2d, naive_l1_mean,
                     naive_matmul_affine, naive_upsample2, reference_adam,
                     reference_conv_raw, reference_conv_rows, reference_conv_weight_grad,
                     traced_peak)


def t64(arr):
    return ad.Tensor(np.asarray(arr, dtype=np.float64))


def rand_away_from_zero(rng, shape, low=0.1, high=1.0):
    """Magnitudes in [low, high] with random signs: keeps ELU/L1 kinks out
    of finite-difference windows."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = ad.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    out = ad.conv2d(x, ad.Tensor(w), ad.Tensor(np.zeros(1, dtype=np.float32)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_weight_gives_bias():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
    w = ad.Tensor(np.zeros((5, 3, 3, 3), dtype=np.float32))
    b = ad.Tensor(np.full(5, 2.5, dtype=np.float32))
    out = ad.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, np.full((2, 5, 4, 4), 2.5, np.float32))


def test_conv2d_all_ones_2x2_frozen_value():
    # computed by the six-nested-loop oracle: every output cell sums the
    # whole 2x2 input under padding
    x = ad.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    w = ad.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    b = ad.Tensor(np.zeros(1, dtype=np.float32))
    out = ad.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data[0, 0], [[10.0, 10.0], [10.0, 10.0]])
    oracle = naive_conv2d(x.data, w.data, b.data)
    np.testing.assert_allclose(out.data, oracle, rtol=1e-6)


# map sizes whose taps are partly or wholly outside the map: every kernel
# row's view of the row taps reads a zero padding row or a wrapped column
SMALL_MAPS = [(5, 6), (1, 1), (1, 4), (4, 1), (2, 2)]


@pytest.mark.parametrize("seed", range(3))
def test_conv2d_matches_naive_oracle(seed):
    # the forward, and the backward's dx, which is the conv of g with the
    # flipped weight
    rng = np.random.default_rng(seed)
    for H, W in [(5, 4)] + SMALL_MAPS:
        x = rng.standard_normal((2, 3, H, W))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        g = rng.standard_normal((2, 4, H, W))
        tape = ad.Tape()
        out = ad.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b), rtol=1e-12, atol=1e-12)
        dx, _, _ = tape.records[-1].backward_fn(g, (True, False, False))
        w_flip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        np.testing.assert_allclose(dx, naive_conv2d(g, w_flip, np.zeros(3)),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("samples", [0, 1, 3])
def test_conv2d_im2col_chunks_are_bitwise_the_one_shot_gemm(dtype, samples, monkeypatch):
    # budgets of 1 byte, one sample's row taps and row product and three
    # samples' (N = 7 leaves a partial last chunk); the forward and the
    # backward's dx both run the chunked row taps, which zero the padding
    # rows and wrapped columns of their one reused buffer for every chunk.
    # Each is bitwise the one-shot row GEMMs, and within rounding the
    # one-shot 9-tap GEMM
    rng = np.random.default_rng(11)
    N, C1, C2 = 7, 3, 4
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for H, W in SMALL_MAPS:
        x = rng.standard_normal((N, C1, H, W)).astype(dtype)
        w = rng.standard_normal((C2, C1, 3, 3)).astype(dtype)
        b = rng.standard_normal(C2).astype(dtype)
        g = rng.standard_normal((N, C2, H, W)).astype(dtype)
        monkeypatch.setattr(ad, "_IM2COL_CHUNK",
                            max(1, samples * (3 * C1 * (H + 2) + C2 * H) * W * x.itemsize))
        tape = ad.Tape()
        out = ad.conv2d(tape.leaf(x), tape.leaf(w), tape.leaf(b))
        dx, _, _ = tape.records[-1].backward_fn(g, (True, False, False))
        w_flip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        for got, want, gemm in (
                (out.data, reference_conv_rows(x, w) + b[:, None, None],
                 reference_conv_raw(x, w.reshape(C2, C1 * 9)) + b[:, None, None]),
                (dx, reference_conv_rows(g, w_flip),
                 reference_conv_raw(g, w_flip.reshape(C1, C2 * 9)))):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (H, W)
            # float32 rounding is relative to the terms summed, not to an
            # output that cancels to near zero
            np.testing.assert_allclose(got, gemm, rtol=rtol, atol=rtol * np.abs(gemm).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hw", SMALL_MAPS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_conv_weight_grad_is_bitwise_the_one_gemm_oracle(dtype, hw, monkeypatch):
    # dW is the one-GEMM oracle of each sample chunk, summed in chunk order.
    # Budgets of 1 byte, one sample's im2col and three samples' (N = 7
    # leaves a partial last chunk, whose border rows sit elsewhere in the
    # reused buffer, zeroed like every chunk's), and the whole batch's: one
    # chunk, the oracle itself
    rng = np.random.default_rng(13)
    N, C1, C2 = 7, 3, 4
    H, W = hw
    x = rng.standard_normal((N, C1, H, W)).astype(dtype)
    g = rng.standard_normal((N, C2, H, W)).astype(dtype)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    naive = np.array([[[[np.sum(g[:, o] * xp[:, c, i:i + H, j:j + W]) for j in range(3)]
                        for i in range(3)] for c in range(C1)] for o in range(C2)])
    for samples in (0, 1, 3, N):
        monkeypatch.setattr(ad, "_IM2COL_CHUNK",
                            max(1, samples * 9 * C1 * H * W * x.itemsize))
        step = max(1, samples)
        want = reference_conv_weight_grad(x[:step], g[:step])
        for i in range(step, N, step):
            want += reference_conv_weight_grad(x[i:i + step], g[i:i + step])
        got = ad._conv_weight_grad(x, g)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), samples
        if dtype == np.float64:
            np.testing.assert_allclose(got, naive, rtol=1e-12)


def test_conv2d_memory_peak_is_bounded_by_the_im2col_chunk():
    # the one-shot im2col of this input alone is 9x its 8.4 MB, in the
    # forward and in the weight gradient alike
    rng = np.random.default_rng(12)
    x = rng.standard_normal((32, 16, 64, 64)).astype(np.float32)
    w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    tape = ad.Tape()
    leaves = tape.leaf(x), tape.leaf(w), tape.leaf(np.zeros(16, dtype=np.float32))
    g = rng.standard_normal(x.shape).astype(np.float32)
    peak = traced_peak(lambda: ad.conv2d(*leaves))
    out = tape.records[-1].output
    assert peak < out.data.nbytes + 2 * ad._IM2COL_CHUNK
    grads = []
    backward_fn = tape.records[-1].backward_fn
    peak = traced_peak(lambda: grads.extend(backward_fn(g, (False, True, False))))
    dw = grads[1]
    g_chunk = g[:ad._im2col_step(x)].nbytes
    assert peak < dw.nbytes + g_chunk + 2 * ad._IM2COL_CHUNK


def test_conv_kernels_reuse_their_scratch_between_calls():
    # On a warm workspace a repeated call allocates its result and one small
    # copy: the kernel-row weight matrices in the forward, the transposed g
    # chunk in dW. Fresh row taps and product would add 536 KiB, and a
    # fresh im2col 1.1 MiB.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 16, 32, 32)).astype(np.float32)
    w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    out = ad._conv_raw(x, w)
    peak = traced_peak(lambda: ad._conv_raw(x, w))
    assert peak <= out.nbytes + w.nbytes + 4096, peak
    dw = ad._conv_weight_grad(x, g)
    peak = traced_peak(lambda: ad._conv_weight_grad(x, g))
    assert peak <= dw.nbytes + g.nbytes + 4096, peak


def test_reused_conv_scratch_cannot_reach_a_result():
    rng = np.random.default_rng(22)

    def case(n, c1, c2, hw):
        return (rng.standard_normal((n, c1, hw, hw)).astype(np.float32),
                rng.standard_normal((c2, c1, 3, 3)).astype(np.float32),
                rng.standard_normal((n, c2, hw, hw)).astype(np.float32))

    def run(x, w, g):
        return ad._conv_raw(x, w), ad._conv_weight_grad(x, g)

    big, small = case(2, 32, 32, 32), case(3, 8, 8, 16)
    before = run(*small)
    run(*big)
    held = ad._scratch.buf
    held.fill(0xFF)   # all-ones bits are a NaN in float32 and float64
    after = run(*small)
    assert [r.tobytes() for r in after] == [r.tobytes() for r in before]
    assert after[0].tobytes() == reference_conv_rows(*small[:2]).tobytes()
    assert not any(np.shares_memory(r, held) for r in after)
    # one sample of 4.3 MB of row taps and product, and 9.4 MB of im2col:
    # above the cap, so a fresh buffer, which is not kept
    x, w, g = case(1, 64, 64, 64)
    out, dw = run(x, w, g)
    assert out.tobytes() == reference_conv_rows(x, w).tobytes()
    assert dw.tobytes() == reference_conv_weight_grad(x, g).tobytes()
    assert ad._scratch.buf is held and held.nbytes <= 2 * ad._IM2COL_CHUNK
    # each thread gets a buffer of its own: four threads switching often
    # keep the one-thread bits and leave this thread's buffer as it was
    snapshot, want, same, bufs = held.tobytes(), [r.tobytes() for r in before], [], []

    def worker():
        same.extend([r.tobytes() for r in run(*small)] == want for _ in range(5))
        bufs.append(ad._scratch.buf)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and same == [True] * 20
    assert ad._scratch.buf is held and held.tobytes() == snapshot
    assert len({id(b) for b in bufs}) == 4
    assert not any(np.shares_memory(b, held) for b in bufs)


def test_conv2d_shape_errors_name_dimensions():
    x = t64(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ShapeError, match="3"):
        ad.conv2d(x, t64(np.zeros((2, 5, 3, 3))), t64(np.zeros(2)))
    with pytest.raises(ShapeError, match="bias"):
        ad.conv2d(x, t64(np.zeros((2, 3, 3, 3))), t64(np.zeros(3)))


# ---------------------------------------------------------------------------
# pooling / upsampling


def test_avg_pool2_constant_and_mean():
    c = np.full((1, 1, 4, 4), 3.25, dtype=np.float32)
    np.testing.assert_array_equal(ad.avg_pool2(ad.Tensor(c)).data, c[:, :, ::2, ::2])
    x = ad.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    assert ad.avg_pool2(x).data.item() == 2.5


def test_avg_pool2_matches_naive_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4, 4))
    np.testing.assert_allclose(ad.avg_pool2(t64(x)).data, naive_avg_pool2(x),
                               rtol=1e-12)


def test_avg_pool2_odd_dims_error():
    with pytest.raises(ShapeError, match="even"):
        ad.avg_pool2(t64(np.zeros((1, 1, 3, 4))))


def test_upsample_single_cell():
    out = ad.upsample_nearest2(t64([[[[1.0]]]]))
    np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))


def test_upsample_matches_naive_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 3, 3))
    np.testing.assert_allclose(ad.upsample_nearest2(t64(x)).data,
                               naive_upsample2(x), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 4))
def test_pool_of_upsample_is_identity(seed, c, h):
    x = np.random.default_rng(seed).standard_normal((1, c, h, h)).astype(np.float32)
    back = ad.avg_pool2(ad.upsample_nearest2(ad.Tensor(x)))
    np.testing.assert_array_equal(back.data, x)


# ---------------------------------------------------------------------------
# activations


def test_activation_zero_points():
    z = t64(np.zeros((2, 2)))
    assert np.all(ad.elu(z).data == 0)
    assert np.all(ad.tanh(z).data == 0)
    # ELU maps both signed zeros to +0.0, with slope 1 at each
    tape = ad.Tape()
    x = tape.leaf(np.array([0.0, -0.0]))
    out = ad.elu(x)
    assert out.data.tolist() == [0.0, 0.0] and not np.signbit(out.data).any()
    ad.backward(ad.sum_all(out), params=[x])
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_activation_asymptotes():
    out = ad.elu(t64([-50.0]))
    np.testing.assert_allclose(out.data, [-1.0], atol=1e-12)
    big = ad.tanh(t64([-5.0, 5.0]))
    assert np.all(big.data > -1.0) and np.all(big.data < 1.0)


def test_elu_minus_one_scalar_oracle():
    out = ad.elu(t64([-1.0]))
    np.testing.assert_allclose(out.data, [math.exp(-1.0) - 1.0], rtol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_elu_is_bitwise_elu_of_conv2d(dtype):
    # channel 0 has zero weights and bias, so its pre-activations are
    # exactly 0.0, on the kink; the rest straddle it
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    w[0] = 0.0
    b[0] = -0.0
    target = rng.standard_normal((2, 4, 6, 6)).astype(dtype)
    results = []
    for fused in (True, False):
        tape = ad.Tape()
        xt, wt, bt = (tape.leaf(a) for a in (x, w, b))
        out = ad.conv_elu(xt, wt, bt) if fused else ad.elu(ad.conv2d(xt, wt, bt))
        ad.backward(ad.l1_mean(out, tape.leaf(target)), params=[xt, wt, bt])
        results.append([out.data, xt.grad, wt.grad, bt.grad])
    assert np.all(results[0][0][:, 0] == 0)
    for fused, plain in zip(*results):
        assert fused.dtype == plain.dtype == dtype
        assert fused.tobytes() == plain.tobytes()


def test_inplace_elu_only_folds_into_the_last_conv2d():
    rng = np.random.default_rng(10)
    tape = ad.Tape()
    x = tape.leaf(rng.standard_normal((1, 2, 4, 4)))
    w = tape.leaf(rng.standard_normal((2, 2, 3, 3)))
    b = tape.leaf(np.zeros(2))
    z = ad.conv2d(x, w, b)
    before = z.data.copy()
    for bad in (x, ad.tanh(z)):     # a leaf; a conv2d output already consumed
        with pytest.raises(ValueError, match="in-place elu"):
            ad.elu(bad, inplace=True)
    np.testing.assert_array_equal(z.data, before)
    y = ad.conv2d(x, w, b)
    assert ad.elu(y, inplace=True) is y
    assert [rec.op for rec in tape.records] == ["conv2d", "tanh", "conv_elu"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_elu_is_bitwise_the_whole_array_elu(dtype):
    rng = np.random.default_rng(11)
    for n in (0, 1, ad._ELU_CHUNK - 1, ad._ELU_CHUNK, 3 * ad._ELU_CHUNK + 7):
        z = (3 * rng.standard_normal(n)).astype(dtype)
        z[:2] = (-0.0, 0.0)[:n]
        expect = np.maximum(z, np.expm1(np.minimum(z, 0)))
        got = ad._elu_inplace(z)
        assert got is z
        assert got.tobytes() == expect.tobytes(), n
    zeros = ad._elu_inplace(np.array([-0.0, 0.0], dtype=dtype))
    assert not np.signbit(zeros).any()


def test_chunked_elu_refuses_a_strided_view():
    base = np.linspace(-2, 2, 64).reshape(8, 8)
    before = base.copy()
    for view in (base[:, ::2], base.T):
        with pytest.raises(ValueError, match="contiguous"):
            ad._elu_inplace(view)
    np.testing.assert_array_equal(base, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_elu_allocates_at_most_one_chunk(dtype):
    z = np.random.default_rng(12).standard_normal(4 * ad._ELU_CHUNK).astype(dtype)
    peak = traced_peak(lambda: ad._elu_inplace(z))
    assert peak <= ad._ELU_CHUNK * z.itemsize + 4096, peak


# ---------------------------------------------------------------------------
# fully connected / l1


def test_fc_identity_and_zero_input():
    x = np.eye(3)
    out = ad.fully_connected(t64(x), t64(np.eye(3)), t64(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x)
    b = np.array([1.0, -2.0])
    out = ad.fully_connected(t64(np.zeros((4, 3))), t64(np.zeros((2, 3))), t64(b))
    np.testing.assert_array_equal(out.data, np.tile(b, (4, 1)))


def test_fc_matches_naive_matmul():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    out = ad.fully_connected(t64(x), t64(w), t64(b))
    np.testing.assert_allclose(out.data, naive_matmul_affine(x, w, b), rtol=1e-12)


def test_l1_mean_values():
    a = t64([1.0, -1.0])
    assert float(ad.l1_mean(a, t64([0.0, 0.0])).data) == 1.0
    assert float(ad.l1_mean(a, a).data) == 0.0


def test_l1_mean_matches_elementwise_loop():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 4, 5))
    got = float(ad.l1_mean(t64(a), t64(b)).data)
    assert got == pytest.approx(naive_l1_mean(a, b), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_l1_mean_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(17)
    b = rng.standard_normal(17)
    assert float(ad.l1_mean(t64(a), t64(b)).data) == float(ad.l1_mean(t64(b), t64(a)).data)


def test_l1_mean_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.l1_mean(t64(np.zeros(3)), t64(np.zeros(4)))


# ---------------------------------------------------------------------------
# backward / tape semantics


def test_backward_sum_gives_ones():
    tape = ad.Tape()
    x = tape.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
    loss = ad.sum_all(x)
    ad.backward(loss, params=[x])
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_unused_param_gets_zero_grad():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    p = ad.Tensor(np.ones(4))
    loss = ad.sum_all(x)
    ad.backward(loss, params=[x, p])
    np.testing.assert_array_equal(p.grad, np.zeros(4))


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.scale(x, 2.0)
    with pytest.raises(ShapeError):
        ad.backward(y, params=[x])


def test_backward_rejects_a_loss_on_no_tape():
    x = ad.Tensor(np.ones(3))
    with pytest.raises(ValueError, match="tape"):
        ad.backward(ad.sum_all(x), params=[x])


def test_backward_from_a_seeded_conv_output_gives_its_weight_grad():
    # seeded with c, the conv's own output starts the walk, so w's grad is
    # the weight gradient of the sum of c times the output
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 2, 5, 6))
    w, b = t64(rng.standard_normal((4, 2, 3, 3))), t64(rng.standard_normal(4))
    c = rng.standard_normal((3, 4, 5, 6))
    tape = ad.Tape()
    out = ad.conv2d(tape.leaf(x), w, b)
    ad.backward(out, params=[w], grad=c)
    np.testing.assert_allclose(w.grad, reference_conv_weight_grad(x, c), rtol=1e-12)


def test_backward_rejects_a_seed_shaped_unlike_its_output():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 3)))
    y = ad.scale(x, 2.0)
    with pytest.raises(ShapeError):
        ad.backward(y, params=[x], grad=np.ones((3, 2)))


def test_tape_is_topologically_ordered():
    tape = ad.Tape()
    x = tape.leaf(np.ones((1, 1, 2, 2)))
    y = ad.upsample_nearest2(x)
    z = ad.avg_pool2(y)
    loss = ad.sum_all(z)
    # the order is fixed at construction; backward then consumes the records
    assert [rec.op for rec in tape.records] == ["upsample_nearest2", "avg_pool2", "sum_all"]
    outputs = {rec.output.node_id for rec in tape.records}
    seen = set()
    for rec in tape.records:
        for t in rec.inputs:
            if t.node_id in outputs:
                assert t.node_id in seen
        seen.add(rec.output.node_id)
    ad.backward(loss, params=[x])
    assert tape.records == [] and tape.consumed


def test_backward_computes_no_input_grad_off_the_paths_from_params():
    # the conv's input is a leaf's concatenation with a constant: no param
    # lies behind it, so the conv's backward is not asked for its dx
    rng = np.random.default_rng(22)
    tape = ad.Tape()
    x = ad.concat_channels(tape.leaf(rng.standard_normal((1, 2, 4, 4))),
                           ad.Tensor(np.ones((1, 1, 4, 4))))
    w, b = t64(rng.standard_normal((2, 3, 3, 3))), t64(np.zeros(2))
    out = ad.conv2d(x, w, b)
    asked = []
    conv_bwd = tape.records[-1].backward_fn
    tape.records[-1].backward_fn = lambda g, needs: asked.append(needs) or conv_bwd(g, needs)
    ad.backward(ad.sum_all(out), params=[w, b])
    assert asked == [(False, True, True)]
    np.testing.assert_allclose(b.grad, [16.0, 16.0])


def test_consumed_tape_refuses_a_second_backward_and_new_ops():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.scale(x, 2.0)
    loss = ad.sum_all(y)
    ad.backward(loss, params=[x])
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(loss, params=[x])
    with pytest.raises(ValueError, match="consumed"):
        ad.scale(y, 3.0)
    with pytest.raises(ValueError, match="consumed"):
        ad.elu(y, inplace=True)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_drops_each_record_once_processed():
    """Each op's saved inputs are released during the walk: by the time the
    first op's backward runs, the later records are already off the tape."""
    tape = ad.Tape()
    x = tape.leaf(np.ones((1, 1, 2, 2)))
    loss = ad.sum_all(ad.avg_pool2(ad.upsample_nearest2(x)))
    first = tape.records[0]
    left_on_tape = []
    fn = first.backward_fn

    def spy(g, needs):
        left_on_tape.append(len(tape.records))
        return fn(g, needs)

    first.backward_fn = spy
    ad.backward(loss, params=[x])
    assert left_on_tape == [0]


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(3))
    b = t2.leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_non_finite_input_raises():
    with pytest.raises(NonFiniteError):
        ad.Tensor(np.array([1.0, np.nan]))


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    o1 = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    o2 = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    assert o1.tobytes() == o2.tobytes()


# ---------------------------------------------------------------------------
# per-operator gradient checks (strict elementwise, kink-free inputs)

OPS = ["conv2d", "conv_elu", "conv1x1", "avg_pool2", "upsample", "elu", "tanh",
       "fc", "l1_mean", "add", "scale", "concat"]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("seed", range(10))
def test_operator_gradients_match_finite_differences(op, seed):
    rng = np.random.default_rng(seed)
    params = []

    def leaf(shape, low=0.1, high=1.0):
        t = ad.Tensor(rand_away_from_zero(rng, shape, low, high))
        params.append(t)
        return t

    if op == "conv2d":
        x, w, b = leaf((1, 2, 4, 4)), leaf((2, 2, 3, 3)), leaf((2,))
        fwd = lambda tp: ad.conv2d(*[_attach(tp, t) for t in (x, w, b)])
    elif op == "conv_elu":
        x, w, b = leaf((1, 2, 4, 4)), leaf((2, 2, 3, 3)), leaf((2,))
        fwd = lambda tp: ad.conv_elu(*[_attach(tp, t) for t in (x, w, b)])
    elif op == "conv1x1":
        x, w, b = leaf((1, 3, 3, 3)), leaf((2, 3)), leaf((2,))
        fwd = lambda tp: ad.conv1x1(*[_attach(tp, t) for t in (x, w, b)])
    elif op == "avg_pool2":
        x = leaf((1, 2, 4, 4))
        fwd = lambda tp: ad.avg_pool2(_attach(tp, x))
    elif op == "upsample":
        x = leaf((1, 2, 3, 3))
        fwd = lambda tp: ad.upsample_nearest2(_attach(tp, x))
    elif op == "elu":
        x = leaf((3, 4))
        fwd = lambda tp: ad.elu(_attach(tp, x))
    elif op == "tanh":
        x = leaf((3, 4))
        fwd = lambda tp: ad.tanh(_attach(tp, x))
    elif op == "fc":
        x, w, b = leaf((2, 3)), leaf((4, 3)), leaf((4,))
        fwd = lambda tp: ad.fully_connected(*[_attach(tp, t) for t in (x, w, b)])
    elif op == "l1_mean":
        a = leaf((2, 5))
        # keep |a - b| >= 0.2 so no sign kink sits inside the FD window
        b = ad.Tensor(a.data + rand_away_from_zero(rng, (2, 5), 0.2, 1.0))
        params.append(b)
        fwd = lambda tp: ad.l1_mean(_attach(tp, a), _attach(tp, b))
    elif op == "add":
        a, b = leaf((2, 3)), leaf((2, 3))
        fwd = lambda tp: ad.add(_attach(tp, a), _attach(tp, b))
    elif op == "scale":
        a = leaf((2, 3))
        fwd = lambda tp: ad.scale(_attach(tp, a), -1.7)
    elif op == "concat":
        a, b = leaf((1, 2, 2, 2)), leaf((1, 3, 2, 2))
        fwd = lambda tp: ad.concat_channels(_attach(tp, a), _attach(tp, b))

    def build():
        tape = ad.Tape()
        out = fwd(tape)
        if out.data.size == 1:
            return tape, out
        return tape, ad.l1_mean(out, tape.leaf(np.full_like(out.data, 5.0)))

    err = check_gradients(build, params, eps=1e-4)
    assert err < 1e-4, f"{op} seed {seed}: max rel err {err}"


def _attach(tape, t):
    t._tape = tape
    return t


def test_composite_net_gradients():
    # conv -> ELU -> pool -> FC chain against central differences
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 4, 4))
    w1 = ad.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    b1 = ad.Tensor(rng.standard_normal(3) * 0.5)
    w2 = ad.Tensor(rng.standard_normal((2, 12)) * 0.5)
    b2 = ad.Tensor(rng.standard_normal(2) * 0.5)
    params = [w1, b1, w2, b2]

    def build():
        tape = ad.Tape()
        h = ad.avg_pool2(ad.elu(ad.conv2d(tape.leaf(x), w1, b1)))
        h = ad.reshape(h, (1, 12))
        out = ad.fully_connected(h, w2, b2)
        return tape, ad.scale(ad.sum_all(out), 0.25)

    err = check_gradients(build, params, eps=1e-4)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_grad_leaves_params():
    p = ad.Tensor(np.array([1.0, 2.0], dtype=np.float32))
    p.grad = np.zeros(2, dtype=np.float32)
    before = p.data.copy()
    ad.adam_step([p], ad.AdamState(), 0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude_and_direction():
    for g in (0.5, -2.0):
        p = ad.Tensor(np.array([0.0]))
        p.grad = np.array([g])
        ad.adam_step([p], ad.AdamState(), lr=0.01)
        # bias-corrected first step has magnitude ~ lr, direction -sign(g)
        assert float(p.data[0]) == pytest.approx(-0.01 * np.sign(g), rel=1e-6)


def test_adam_three_step_trajectory_matches_reference():
    grads = [0.7, -0.3, 1.1]
    expect = reference_adam(grads, lr=0.05)
    p = ad.Tensor(np.array([0.0]))
    state = ad.AdamState()
    got = []
    for g in grads:
        p.grad = np.array([g])
        ad.adam_step([p], state, 0.05)
        got.append(float(p.data[0]))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_adam_missing_grad_errors():
    p = ad.Tensor(np.ones(2))
    with pytest.raises(ValueError, match="no grad"):
        ad.adam_step([p], ad.AdamState(), 0.1)


def test_adam_freeze_flag_bit_identical():
    # a group left out of the list Adam is given stays bit-identical and
    # gets no moments, even with a grad set on every tensor
    rng = np.random.default_rng(8)
    params = NetParams()
    params.add("dec.w", ad.Tensor(rng.standard_normal(5).astype(np.float32)), "decoder")
    params.add("enc.w", ad.Tensor(rng.standard_normal(5).astype(np.float32)), "encoder")
    frozen, live = params["dec.w"], params["enc.w"]
    before = frozen.data.tobytes()
    state = ad.AdamState()
    for _ in range(7):
        for p in params.tensors():
            p.grad = rng.standard_normal(5).astype(np.float32)
        ad.adam_step(params.tensors("encoder"), state, 1e-2)
    assert params.tensors("encoder") == [live]
    assert frozen.data.tobytes() == before
    assert live.data.tobytes() != before
    assert frozen.node_id not in state.m
