"""The autodiff engine: op-level gradients and guards."""

import numpy as np
import pytest

from satguide.neural import tensor as T

from oracles import (
    conv1d_per_tap,
    conv_taps_unfused,
    embedding_add_at,
    padded_conv_taps,
    padded_max_time,
    segment_max_where,
)


def no_bias(c: int) -> T.Tensor:
    return T.constant(np.zeros(c))


def fd_grad(fn, x: np.ndarray, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        dn = fn()
        flat[i] = orig
        gf[i] = (up - dn) / (2 * h)
    return g


def check_op(build, shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    x = T.parameter(rng.uniform(-1, 1, shape))
    out = build(x)
    loss = T.mean(T.mul(out, out))
    loss.backward()
    analytic = x.grad.copy()

    def loss_value():
        out = build(x)
        return T.mean(T.mul(out, out)).item()

    numeric = fd_grad(loss_value, x.data)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=atol)


class TestOps:
    def test_add_broadcast(self):
        b = T.parameter(np.array([0.5, -0.3]))
        check_op(lambda x: T.add(x, b), (3, 2))

    def test_mul(self):
        other = T.constant(np.arange(6).reshape(3, 2) * 0.1)
        check_op(lambda x: T.mul(x, other), (3, 2))

    def test_matmul_2d(self):
        w = T.constant(np.random.default_rng(1).uniform(-1, 1, (4, 3)))
        check_op(lambda x: T.matmul(x, w), (2, 4))

    def test_matmul_weight_grad(self):
        x = T.constant(np.random.default_rng(2).uniform(-1, 1, (5, 4)))
        check_op(lambda w: T.matmul(x, w), (4, 3))

    def test_matmul_batched(self):
        w = T.constant(np.random.default_rng(3).uniform(-1, 1, (4, 3)))
        check_op(lambda x: T.matmul(x, w), (2, 5, 4))

    def test_relu_tanh_sigmoid(self):
        check_op(T.relu, (4, 3), seed=4)
        check_op(T.tanh, (4, 3), seed=5)
        check_op(T.sigmoid, (4, 3), seed=6)

    # packed layouts: one sequence, equal lengths, and mixed lengths with
    # empty and one-token sequences, so taps meet sequence boundaries
    CONV_CASES = [(3, 1, [5], 3), (5, 2, [6], 2), (3, 4, [3, 3], 2), (5, 3, [4, 4], 3),
                  (3, 1, [2, 0, 3, 1], 2), (5, 1, [1, 4, 2], 3), (3, 2, [3, 1, 4], 2)]

    def test_conv_taps_input_gradient(self):
        rng = np.random.default_rng(11)
        for s, dilation, lengths, c in self.CONV_CASES:
            # dilation 4 and 3 put some taps beyond the sequence
            w = T.constant(rng.uniform(-1, 1, (s, c, 2)))
            seg = T.Segments(lengths)
            check_op(lambda x: T.conv_taps(x, w, no_bias(2), seg, dilation),
                     (sum(lengths), c), seed=s + dilation)
            b = T.constant(rng.uniform(-0.5, 0.5, 2))
            check_op(lambda x: T.conv_taps(x, w, b, seg, dilation, relu=True),
                     (sum(lengths), c), seed=s + dilation)

    def test_conv_taps_kernel_gradient(self):
        rng = np.random.default_rng(12)
        for s, dilation, lengths, c in self.CONV_CASES:
            x = T.constant(rng.uniform(-1, 1, (sum(lengths), c)))
            seg = T.Segments(lengths)
            check_op(lambda w: T.conv_taps(x, w, no_bias(2), seg, dilation), (s, c, 2),
                     seed=s * dilation)

    def test_conv_taps_bias_gradient(self):
        rng = np.random.default_rng(15)
        for s, dilation, lengths, c in self.CONV_CASES:
            x = T.constant(rng.uniform(-1, 1, (sum(lengths), c)))
            w = T.constant(rng.uniform(-1, 1, (s, c, 2)))
            seg = T.Segments(lengths)
            for relu in (False, True):
                check_op(lambda b: T.conv_taps(x, w, b, seg, dilation, relu), (2,),
                         seed=s + c)

    def test_conv_taps_zero_padding(self):
        x = T.constant(np.arange(5, dtype=float).reshape(5, 1))
        seg = T.Segments([5])

        def tap(j):
            w = np.zeros((3, 1, 1))
            w[j] = 1.0
            return T.constant(w)

        # s=3: tap 0 reads x[i+d], tap 2 reads x[i-d]
        def conv(w, dilation):
            return T.conv_taps(x, w, no_bias(1), seg, dilation).data.reshape(-1).tolist()

        assert conv(tap(2), 1) == [0, 0, 1, 2, 3]
        assert conv(tap(0), 2) == [2, 3, 4, 0, 0]
        assert conv(tap(0), 7) == [0] * 5
        assert conv(tap(1), 7) == [0, 1, 2, 3, 4]

    def test_conv_taps_stop_at_sequence_boundaries(self):
        x = T.constant(np.arange(1, 8, dtype=float).reshape(7, 1))
        seg = T.Segments([3, 0, 1, 3])
        w = np.zeros((3, 1, 1))
        w[2] = 1.0  # out[i] = x[i-1] within i's own sequence
        assert T.conv_taps(x, T.constant(w), no_bias(1), seg, 1).data.reshape(-1).tolist() == \
            [0, 1, 2, 0, 0, 5, 6]
        w = np.ones((3, 1, 1))
        assert T.conv_taps(x, T.constant(w), no_bias(1), seg, 1).data.reshape(-1).tolist() == \
            [3, 6, 5, 4, 11, 18, 13]

    def test_concat_narrow_stack_reshape(self):
        other = T.constant(np.ones((3, 2)))
        check_op(lambda x: T.concat([x, other], axis=-1), (3, 2))
        check_op(lambda x: T.narrow(x, 1, 3), (2, 4))
        check_op(lambda x: T.reshape(x, (6,)), (2, 3))

    def test_stack_grads(self):
        a = T.parameter(np.array([1.0, 2.0]))
        b = T.parameter(np.array([3.0, 4.0]))
        out = T.stack([a, b])
        T.mean(out).backward()
        np.testing.assert_allclose(a.grad, [0.25, 0.25])

    def test_embedding_scatter(self):
        table = T.parameter(np.random.default_rng(7).uniform(-1, 1, (6, 3)))
        out = T.embedding(table, [1, 1, 4])
        T.mean(out).backward()
        assert table.grad[1].sum() != 0
        assert np.allclose(table.grad[2], 0)
        # row 1 used twice: double the scatter of row 4
        np.testing.assert_allclose(table.grad[1], 2 * table.grad[4])

    # max-pooling over time is `segment_max`, one maximum per packed sequence
    def test_max_time_2d(self):
        check_op(lambda x: T.segment_max(x, T.Segments([6])), (6, 3), seed=8)
        check_op(lambda x: T.segment_max(x, T.Segments([2, 0, 3, 1])), (6, 3), seed=9)

    def test_max_time_batched_lengths(self):
        x = T.parameter(np.random.default_rng(9).uniform(-1, 1, (8, 3)))
        out = T.segment_max(x, T.Segments([3, 5]))
        np.testing.assert_array_equal(out.data[0], x.data[:3].max(axis=0))
        np.testing.assert_array_equal(out.data[1], x.data[3:].max(axis=0))

    def test_max_time_zero_length(self):
        x = T.constant(np.ones((2, 2)))
        out = T.segment_max(x, T.Segments([0, 2, 0]))
        np.testing.assert_array_equal(out.data, [[0, 0], [1, 1], [0, 0]])

    def test_max_time_gradient_goes_to_first_maximum(self):
        x = T.parameter(np.array([[1.0, 2.0], [3.0, 2.0], [3.0, 0.0], [5.0, 5.0]]))
        T.mean(T.segment_max(x, T.Segments([3, 1]))).backward()
        np.testing.assert_array_equal(x.grad, [[0, 0.25], [0.25, 0], [0, 0], [0.25, 0.25]])

    def test_bce_with_logits(self):
        z = T.parameter(np.array([0.0, 2.0, -1.0]))
        y = np.array([1.0, 0.0, 1.0])
        loss = T.bce_with_logits(z, y)
        loss.backward()
        sig = 1 / (1 + np.exp(-z.data))
        np.testing.assert_allclose(z.grad, (sig - y) / 3, rtol=1e-12)
        # analytic value at z=0, y=1 contributes ln 2 / 3
        assert loss.item() > 0


class TestConvTapsAgainstPerTap:
    """conv_taps and segment_max against references.

    `conv1d_per_tap` given the sequence lengths shifts the packed rows
    inside each sequence and multiplies every shifted copy with its own
    matmul. The forward and the kernel gradient are that oracle's own BLAS
    products, so they match bit for bit at every width; the input gradient
    sums all taps in one product, so it matches to rounding.

    `padded_conv_taps`, `conv1d_per_tap` without lengths and
    `padded_max_time` run the batch padded to its longest sequence, as the
    towers did before packing. At the model widths BLAS rounds a row of a
    many-row product the same wherever the row sits, so the forward matches
    them bit for bit at each real row; the gradients sum over the padding
    rows too, so they match to rounding. (At output widths 8k+1 to 8k+3
    with an inner width of 16 or more, OpenBLAS's Haswell kernels round the
    last rows of a product apart from the others, so there a row can
    differ in the last bit between the packed and the padded layout, as it
    does in the padded layout between a batch and the sequence alone.)
    """

    @staticmethod
    def _padded(lengths, rows):
        real = np.zeros((len(lengths), max(max(lengths), 1)), dtype=bool)
        for b, n in enumerate(lengths):
            real[b, :n] = True
        padded = np.zeros(real.shape + rows.shape[1:])
        padded[real] = rows
        return padded, real

    def _case(self, rng, lengths, c_in, s, c_out, dilation):
        seg = T.Segments(lengths)
        x = T.parameter(rng.uniform(-1, 1, (seg.n, c_in)))
        w = T.parameter(rng.uniform(-1, 1, (s, c_in, c_out)))
        out = T.conv_taps(x, w, no_bias(c_out), seg, dilation)
        ref = conv1d_per_tap(x, w, dilation, lengths)
        np.testing.assert_array_equal(out.data, ref.data)
        up = rng.uniform(-1, 1, out.data.shape)
        T.mean(T.mul(out, T.constant(up))).backward()
        gx, gw = x.grad, w.grad
        x.grad = w.grad = None
        T.mean(T.mul(ref, T.constant(up))).backward()
        np.testing.assert_allclose(gx, x.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(gw, w.grad)

        padded, real = self._padded(lengths, x.data)
        pooled = T.segment_max(x, seg)
        np.testing.assert_array_equal(pooled.data,
                                      padded_max_time(T.constant(padded), lengths).data)
        return x, w, out, up

    def test_random_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            c_in, c_out = (int(v) for v in rng.integers(1, 33, 2))
            lengths = [int(v) for v in rng.integers(0, 40, int(rng.integers(1, 9)))]
            if rng.random() < 0.2:
                lengths = [int(v) for v in rng.integers(0, 2, len(lengths))]
            if sum(lengths) == 0:
                lengths.append(1)
            self._case(rng, lengths, c_in, int(rng.choice([1, 2, 3, 5])), c_out,
                       int(rng.choice([1, 2, 4, 8, 64])))

    def test_model_shapes(self):
        rng = np.random.default_rng(14)
        for dim in (3, 4, 6, 8, 32, 64):
            for lengths in ([1], [17], [12, 29, 1, 0, 5], [31], [1, 1, 0, 1], [3, 1, 2]):
                for s, dilation in ((5, 1), (3, 1), (3, 2), (3, 16)):
                    x, w, out, up = self._case(rng, lengths, dim, s, dim, dilation)
                    padded, real = self._padded(lengths, x.data)
                    xp = T.parameter(padded)
                    ref = padded_conv_taps(xp, w, dilation)
                    np.testing.assert_array_equal(out.data, ref.data[real])
                    np.testing.assert_array_equal(
                        out.data, conv1d_per_tap(T.constant(padded), w, dilation).data[real])
                    x.grad = w.grad = None
                    T.mean(T.mul(T.conv_taps(x, w, no_bias(dim), T.Segments(lengths), dilation),
                                 T.constant(up))).backward()
                    gx, gw = x.grad, w.grad
                    w.grad = None
                    up_padded, _ = self._padded(lengths, up)
                    T.mean(T.mul(ref, T.constant(up_padded))).backward()
                    scale = up.size / up_padded.size  # the means divide by different sizes
                    np.testing.assert_allclose(gx * scale, xp.grad[real], rtol=1e-12, atol=1e-15)
                    np.testing.assert_allclose(gw * scale, w.grad, rtol=1e-12, atol=1e-15)


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestFusedKernelsAgainstOracles:
    """The training-step kernels against their old forms in `oracles`, bit
    for bit (signed zeros included): the fused conv layer against the
    `conv_taps_unfused -> add -> relu` graph, in the output and in the
    gradients of x, w and b; the `np.bincount` embedding scatter against
    `np.add.at`."""

    def _layer(self, rng, lengths, dim, dilation, relu, s=5):
        seg = T.Segments(lengths)
        x = T.parameter(rng.uniform(-1, 1, (seg.n, dim)))
        w = T.parameter(rng.uniform(-0.3, 0.3, (s, dim, dim)))
        b = T.parameter(rng.uniform(-0.2, 0.2, dim))
        up = T.constant(rng.uniform(-1, 1, (seg.n, dim)))
        out = T.conv_taps(x, w, b, seg, dilation, relu)
        T.mean(T.mul(out, up)).backward()
        grads = [p.grad for p in (x, w, b)]
        x.grad = w.grad = b.grad = None
        ref = T.add(conv_taps_unfused(x, w, seg, dilation), b)
        if relu:
            ref = T.relu(ref)
        T.mean(T.mul(ref, up)).backward()
        assert_same_bits(out.data, ref.data)
        for got, want in zip(grads, (x.grad, w.grad, b.grad)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("dim", [8, 17, 32, 33])
    def test_fused_layer_matches_node_by_node(self, dim):
        rng = np.random.default_rng(dim)
        for dilation in (1, 2, 4):
            for relu in (False, True):
                for _ in range(3):
                    lengths = [int(v) for v in rng.integers(0, 40, int(rng.integers(1, 33)))]
                    lengths.append(int(rng.integers(2, 40)))
                    self._layer(rng, lengths, dim, dilation, relu)

    @pytest.mark.parametrize("relu", [False, True])
    def test_fused_layer_with_only_the_centre_tap_live(self, relu):
        # the centre tap reads the row itself and is never dead; at dilation
        # 16 every other tap reaches past every sequence
        rng = np.random.default_rng(21)
        for dim in (8, 33):
            self._layer(rng, [3, 0, 15, 7], dim, 16, relu)
            self._layer(rng, [4], dim, 4, relu, s=3)

    @pytest.mark.parametrize("relu", [False, True])
    def test_fused_layer_on_one_token_batches(self, relu):
        rng = np.random.default_rng(22)
        for dim in (8, 17, 32, 33):
            for lengths in ([1], [1, 1, 0, 1], [0, 1] * 16):
                self._layer(rng, lengths, dim, 1, relu)

    def _scatter(self, table_shape, ids, seed):
        rng = np.random.default_rng(seed)
        table = T.parameter(rng.uniform(-1, 1, table_shape))
        up = rng.uniform(-1, 1, np.shape(ids) + table_shape[1:])
        T.mean(T.mul(T.embedding(table, ids), T.constant(up))).backward()
        got, table.grad = table.grad, None
        T.mean(T.mul(embedding_add_at(table, ids), T.constant(up))).backward()
        assert_same_bits(got, table.grad)

    def test_embedding_scatter_matches_add_at(self):
        rng = np.random.default_rng(23)
        # few rows, many repeats: each row sums dozens of terms in order
        self._scatter((5, 32), rng.integers(0, 5, 300), 1)
        self._scatter((40, 33), rng.integers(0, 40, (7, 19)), 2)
        self._scatter((6, 3), [1, 1, 4, 1, 0, 1], 3)

    def test_embedding_scatter_of_a_scalar_id(self):
        # the tree towers look up one leaf at a time
        self._scatter((6, 8), 4, 4)
        self._scatter((6, 8), np.intp(0), 5)


class TestArrayKernels:
    """The forward kernels the no-grad path calls on plain arrays, against
    the nodes that call them, and the `segment_max` gradient against its
    `np.where` form in `oracles`, bit for bit."""

    @pytest.mark.parametrize("dim", [8, 17, 32, 33])
    def test_conv_taps_array_is_the_node_forward(self, dim):
        rng = np.random.default_rng(30 + dim)
        for lengths in ([1], [0, 1, 1], [5, 0, 12, 1, 30], [40]):
            seg = T.Segments(lengths)
            x = rng.uniform(-1, 1, (seg.n, dim))
            w = rng.uniform(-0.3, 0.3, (5, dim, dim))
            b = rng.uniform(-0.2, 0.2, dim)
            for dilation in (1, 2, 8):
                for relu in (False, True):
                    node = T.conv_taps(T.parameter(x), T.parameter(w), T.parameter(b), seg,
                                       dilation, relu)
                    assert_same_bits(T.conv_taps_array(x, w, b, seg, dilation, relu), node.data)

    def test_conv_taps_array_checks_before_the_relu(self):
        x = np.full((3, 2), 1e308)
        w = np.full((1, 2, 1), -10.0)
        with np.errstate(over="ignore"):
            for relu in (False, True):
                with pytest.raises(FloatingPointError):
                    T.conv_taps_array(x, w, np.zeros(1), T.Segments([3]), relu=relu)

    def test_segment_max_array_is_the_node_forward(self):
        rng = np.random.default_rng(31)
        for lengths in ([], [0], [0, 0], [3], [2, 0, 5, 1, 0]):
            seg = T.Segments(lengths)
            a = rng.uniform(-1, 1, (seg.n, 4))
            assert_same_bits(T.segment_max_array(a, seg),
                             T.segment_max(T.parameter(a), seg).data)

    @pytest.mark.parametrize("ties", [False, True])
    def test_segment_max_gradient_matches_where_form(self, ties):
        # ties: ReLU-like zeros and few distinct values, so most maxima are
        # attained by several rows and the first one must get the gradient
        rng = np.random.default_rng(32 + ties)
        for trial in range(40):
            lengths = [int(v) for v in rng.integers(0, 12, int(rng.integers(1, 9)))]
            seg = T.Segments(lengths)
            c = int(rng.integers(1, 34))
            data = rng.uniform(-1, 1, (seg.n, c))
            if ties:
                data = np.maximum(np.round(data * 2) / 2, 0.0)
            up = T.constant(rng.uniform(-1, 1, (len(seg), c)))
            grads = []
            for op in (T.segment_max, segment_max_where):
                a = T.parameter(data)
                out = op(a, seg)
                T.mean(T.mul(out, up)).backward()
                grads.append((out.data, a.grad))
            (out, got), (ref, want) = grads
            assert_same_bits(out, ref)
            if want is None:  # no rows: no gradient either way
                assert got is None or not got.size
            else:
                assert_same_bits(got, want)


class TestEngine:
    def test_nan_rejected(self):
        with pytest.raises(FloatingPointError):
            T.Tensor(np.array([1.0, np.nan]))

    def test_inf_rejected_from_op(self):
        x = T.constant(np.array([1e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                T.add(x, x)

    def test_fused_relu_layer_rejects_negative_infinity(self):
        # the pre-activation overflows to -inf, which the ReLU would clip
        # to 0: the check must run before it
        x = T.constant(np.full((3, 2), 1e308))
        w = T.constant(np.full((1, 2, 1), -10.0))
        with np.errstate(over="ignore"):
            for relu in (False, True):
                with pytest.raises(FloatingPointError):
                    T.conv_taps(x, w, T.constant(np.zeros(1)), T.Segments([3]), relu=relu)

    def test_no_grad_blocks_graph(self):
        x = T.parameter(np.ones(3))
        with T.no_grad():
            out = T.mul(x, x)
        assert out._backward is None and not out.requires_grad

    def test_backward_needs_scalar(self):
        x = T.parameter(np.ones(3))
        with pytest.raises(ValueError):
            T.mul(x, x).backward()

    def test_grad_accumulates_on_reuse(self):
        x = T.parameter(np.array([2.0]))
        out = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x+1 = 5
        T.mean(out).backward()
        np.testing.assert_allclose(x.grad, [5.0])
