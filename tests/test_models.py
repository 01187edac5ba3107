"""Architectures: convolution semantics, towers, trees, combiner."""

import numpy as np
import pytest

from satguide.neural import tensor as T
from satguide.neural.models import (
    ModelConfig,
    PairInput,
    combiner_logit,
    embed_sequence,
    embed_sequences,
    embed_tree,
    forward_logits,
    init_model,
    loss_and_grads,
)
from satguide.neural.train import batch_scores

from oracles import padded_embed_sequences


def seq_model(arch="cnn", dim=4, vocab=12, **kw):
    return init_model(ModelConfig(arch=arch, vocab_size=vocab, dim=dim, hidden=6,
                                  seed=1, **kw))


def randomized(model, seed=5, scale=0.3):
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.uniform(-scale, scale, p.data.shape)
    model.quantize()
    return model


class TestConv1d:
    def test_identity_kernel(self):
        dim = 3
        w = np.zeros((5, dim, dim))
        w[2] = np.eye(dim)  # center tap (j=3 of 5, index 2)
        x = T.constant(np.random.default_rng(0).uniform(-1, 1, (7, dim)))
        out = T.conv_taps(x, T.constant(w), T.constant(np.zeros(dim)), T.Segments([7]), 1)
        np.testing.assert_allclose(out.data, x.data)

    def test_boundary_zero_padding(self):
        # all-ones input, s=3, d=1, scalar taps (1,1,1), zero bias
        w = np.ones((3, 1, 1))
        x = T.constant(np.ones((5, 1)))
        out = T.conv_taps(x, T.constant(w), T.constant(np.zeros(1)), T.Segments([5]), 1)
        assert out.data.reshape(-1).tolist() == [2, 3, 3, 3, 2]

    def test_sequence_boundaries_read_as_zero_padding(self):
        # the same five ones packed as sequences of 2, 0 and 3
        w = np.ones((3, 1, 1))
        x = T.constant(np.ones((5, 1)))
        out = T.conv_taps(x, T.constant(w), T.constant(np.zeros(1)), T.Segments([2, 0, 3]), 1)
        assert out.data.reshape(-1).tolist() == [2, 2, 2, 3, 2]

    def test_dilation_reads_strided_positions(self):
        # d=2, s=3 at position 2 reads inputs {0, 2, 4}
        w = np.ones((3, 1, 1))
        x = T.constant(np.array([[1.0], [10.0], [100.0], [1000.0], [10000.0]]))
        out = T.conv_taps(x, T.constant(w), T.constant(np.zeros(1)), T.Segments([5]), 2)
        assert out.data[2, 0] == 1.0 + 100.0 + 10000.0

    def test_bias_added(self):
        w = np.zeros((3, 2, 2))
        x = T.constant(np.zeros((4, 2)))
        out = T.conv_taps(x, T.constant(w), T.constant(np.array([1.5, -0.5])), T.Segments([4]), 1)
        np.testing.assert_allclose(out.data, np.tile([1.5, -0.5], (4, 1)))


class TestReceptiveField:
    def _influence(self, layers, dilations, t=300, probe=150):
        """Positions whose output changes when input position `probe` moves."""
        dim = 2
        rng = np.random.default_rng(3)
        ws = [rng.uniform(-0.5, 0.5, (3, dim, dim)) for _ in range(layers)]
        bs = [rng.uniform(-0.1, 0.1, dim) for _ in range(layers)]

        def run(x):
            out = T.constant(x)
            for w, b, d in zip(ws, bs, dilations):
                gate = T.conv_taps(out, T.constant(w), T.constant(b), T.Segments([t]), d)
                out = T.add(out, T.mul(T.tanh(gate), T.sigmoid(gate)))
            return out.data

        x = rng.uniform(-1, 1, (t, dim))
        base = run(x)
        x2 = x.copy()
        x2[probe] += 1.0
        moved = run(x2)
        changed = np.where(np.abs(moved - base).max(axis=1) > 0)[0]
        return changed, probe

    def test_seven_layer_block_reaches_127(self):
        dilations = [1, 2, 4, 8, 16, 32, 64]
        changed, probe = self._influence(7, dilations)
        assert changed.min() == probe - 127
        assert changed.max() == probe + 127

    def test_three_layer_block_reaches_7(self):
        changed, probe = self._influence(3, [1, 2, 4], t=40, probe=20)
        assert changed.min() == probe - 7 and changed.max() == probe + 7


class TestSequenceTower:
    def test_pad_only_sequence_is_zero_vector(self):
        model = seq_model()
        out = embed_sequence([0, 0, 0], model, "clause")
        np.testing.assert_allclose(out.data, 0.0)

    def test_empty_sequence_is_zero_vector(self):
        model = seq_model()
        np.testing.assert_allclose(embed_sequence([], model, "clause").data, 0.0)

    def test_output_shape_fixed(self):
        model = seq_model()
        for n in (1, 17, 120):
            out = embed_sequence(list(np.arange(n) % 10 + 2), model, "clause")
            assert out.data.shape == (4,)

    def test_wavenet_residual_identity_zero_weights(self):
        model = seq_model("wavenet", wavenet_blocks=3, wavenet_layers=7)
        for name, p in model.params.items():
            if "filter" in name or "gate" in name:
                p.data = np.zeros_like(p.data)
        ids = [3, 4, 5, 6]
        out = embed_sequence(ids, model, "clause")
        raw = model.params["embedding"].data[ids]
        np.testing.assert_array_equal(out.data, raw.max(axis=0))

    def test_wavenet_full_token_dropout_blanks_input(self):
        model = seq_model("wavenet", wavenet_blocks=1, wavenet_layers=2,
                          token_dropout=1.0)
        rng = np.random.default_rng(0)
        a = embed_sequence([3, 4, 5], model, "clause", train_mode=True, rng=rng)
        b = embed_sequence([6, 7, 8, 9], model, "clause", train_mode=True,
                           rng=np.random.default_rng(1))
        np.testing.assert_allclose(a.data, b.data)

    def test_eval_mode_deterministic(self):
        model = seq_model("wavenet", wavenet_blocks=1, wavenet_layers=3,
                          token_dropout=0.2, feature_dropout=0.2)
        a = embed_sequence([3, 4, 5, 6], model, "clause")
        b = embed_sequence([3, 4, 5, 6], model, "clause")
        np.testing.assert_array_equal(a.data, b.data)

    def test_batched_rows_match_single(self):
        model = randomized(seq_model())
        seqs = [[3, 4, 5], [6, 7], [8, 9, 10, 11, 3]]
        batch = embed_sequences(seqs, model, "clause")
        for i, ids in enumerate(seqs):
            single = embed_sequence(ids, model, "clause")
            np.testing.assert_array_equal(batch.data[i], single.data)

    def test_batched_wavenet_rows_match_single(self):
        model = randomized(seq_model("wavenet", wavenet_blocks=1, wavenet_layers=3))
        seqs = [[3, 4, 5, 6, 7], [8, 9]]
        batch = embed_sequences(seqs, model, "clause")
        for i, ids in enumerate(seqs):
            single = embed_sequence(ids, model, "clause")
            np.testing.assert_array_equal(batch.data[i], single.data)


class TestPackedAgainstPadded:
    """embed_sequences on packed rows against `padded_embed_sequences`, the
    towers as they ran padded and masked. Embeddings match bit for bit, in
    eval mode and under dropout drawn from the same seed; the gradients
    match to rounding (weight and bias gradients no longer add the
    padding's zeros)."""

    BATCHES = [
        [[3, 4, 5], [], [6], [0, 0], [7, 8, 9, 10, 11, 3, 4], [5, 0, 6]],
        [[3], [4], [], [5]],  # no row longer than one token
        [[3, 4], [0, 5, 6, 7, 8, 9, 10, 11, 3, 4, 5, 6, 7, 8, 9, 10, 11]],
        [[0]],
        [[9] * 30, [3, 4, 5, 6], [11]],
    ]

    def _models(self):
        yield randomized(seq_model("cnn", dim=8, token_dropout=0.3))
        yield randomized(seq_model("cnn", dim=6, cnn_patch=3, cnn_layers=2,
                                   token_dropout=0.3))
        # dilations up to 64 reach past every row
        yield randomized(seq_model("wavenet", dim=6, wavenet_blocks=2, wavenet_layers=7,
                                   token_dropout=0.2, feature_dropout=0.3))
        yield randomized(seq_model("wavenet", dim=4, wavenet_blocks=1, wavenet_layers=3,
                                   feature_dropout=0.5))

    def test_eval_embeddings_bit_equal(self):
        for model in self._models():
            for batch in self.BATCHES:
                with T.no_grad():
                    out = embed_sequences(batch, model, "clause")
                    ref = padded_embed_sequences(batch, model, "clause")
                np.testing.assert_array_equal(out.data, ref.data)

    def test_training_embeddings_and_gradients(self):
        for model in self._models():
            for seed, batch in enumerate(self.BATCHES):
                shape = (len(batch), model.config.dim)
                up = T.constant(np.random.default_rng(seed).uniform(-1, 1, shape))
                grads = []
                for embed in (embed_sequences, padded_embed_sequences):
                    model.zero_grads()
                    out = embed(batch, model, "conj", True, np.random.default_rng(seed))
                    T.mean(T.mul(out, up)).backward()
                    grads.append((out.data, {k: p.grad for k, p in model.params.items()}))
                (out, got), (ref, want) = grads
                np.testing.assert_array_equal(out, ref)
                for name, g in got.items():
                    if g is None or want[name] is None:
                        assert not np.any(g if g is not None else want[name]), name
                    else:
                        np.testing.assert_allclose(g, want[name], rtol=1e-12, atol=1e-15,
                                                   err_msg=name)


class TestNoGradForward:
    """With gradients off, `embed_sequences` and `combiner_logit` run on
    plain arrays; every row must have the bits of the graph path's, and a
    non-finite pre-activation must still raise."""

    def _batches(self, rng, vocab):
        yield [[3]]  # one token
        yield [[3], [4], [0], [], [5]]  # one-token rows, PAD-only and empty
        yield [[0, 0], []]  # nothing to embed
        yield [[0, 3, 0], [4, 5, 6, 0, 7], [8]]
        for _ in range(6):
            yield [[int(t) for t in rng.integers(0, vocab, int(rng.integers(0, 40)))]
                   for _ in range(int(rng.integers(1, 33)))]

    def _models(self, dim):
        yield randomized(seq_model("cnn", dim=dim, vocab=20), seed=dim)
        yield randomized(seq_model("wavenet", dim=dim, vocab=20, wavenet_blocks=2,
                                   wavenet_layers=4), seed=dim)

    @staticmethod
    def _bits(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("dim", [8, 17, 32, 33])
    def test_embeddings_and_logits_bit_equal(self, dim):
        rng = np.random.default_rng(dim)
        for model in self._models(dim):
            for batch in self._batches(rng, 20):
                for tower in ("clause", "conj"):
                    graph = embed_sequences(batch, model, tower)
                    with T.no_grad():
                        arrays = embed_sequences(batch, model, tower)
                    assert not arrays._parents and not arrays.requires_grad
                    np.testing.assert_array_equal(self._bits(arrays.data),
                                                  self._bits(graph.data))
                conj = np.broadcast_to(graph.data[:1], graph.data.shape)
                for rows, conj_rows in ((graph.data, conj),
                                        (graph.data[:, None, :], conj[:, None, :])):
                    want = combiner_logit(T.constant(rows), T.constant(conj_rows), model)
                    with T.no_grad():
                        got = combiner_logit(T.constant(rows), T.constant(conj_rows), model)
                    np.testing.assert_array_equal(self._bits(got.data), self._bits(want.data))

    @pytest.mark.parametrize("arch", ["cnn", "wavenet"])
    def test_non_finite_pre_activation_raises(self, arch):
        # an embedding row that overflows the first layer's products to
        # -inf: the ReLU (CNN) or tanh and sigmoid (WaveNet) would hide it
        model = seq_model(arch, dim=8, wavenet_blocks=1, wavenet_layers=2)
        model.params["embedding"].data[5] = 1e308
        for name, p in model.params.items():
            if name.startswith(("clause.conv0.", "clause.b0.l0.")) and name.endswith(".w"):
                p.data[...] = -10.0
        with np.errstate(over="ignore", invalid="ignore"):
            for grad in (True, False):
                with pytest.raises(FloatingPointError):
                    if grad:
                        embed_sequences([[3, 5, 4]], model, "clause")
                    else:
                        with T.no_grad():
                            embed_sequences([[3, 5, 4]], model, "clause")

    def test_non_finite_combiner_pre_activation_raises(self):
        model = seq_model()
        model.params["comb.1.w"].data[:] = -1e308
        vec = T.constant(np.full((2, 4), 10.0))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                combiner_logit(vec, vec, model)
            with T.no_grad(), pytest.raises(FloatingPointError):
                combiner_logit(vec, vec, model)

    def test_training_dropout_under_no_grad_matches_graph(self):
        # the same dropout masks are drawn from the same stream either way
        model = randomized(seq_model("wavenet", dim=6, wavenet_blocks=2, wavenet_layers=3,
                                     token_dropout=0.3, feature_dropout=0.3))
        batch = [[3, 4, 5], [6], [], [7, 8, 9, 10, 11]]
        graph = embed_sequences(batch, model, "clause", True, np.random.default_rng(4))
        with T.no_grad():
            arrays = embed_sequences(batch, model, "clause", True, np.random.default_rng(4))
        np.testing.assert_array_equal(self._bits(arrays.data), self._bits(graph.data))


def t_apply(a, b):
    return ("apply", a, b)


LEAF3 = ("leaf", 3)
LEAF4 = ("leaf", 4)


class TestTreeTower:
    def test_leaf_passthrough_rnn(self):
        model = seq_model("tree_rnn")
        out = embed_tree(LEAF3, model, "clause")
        np.testing.assert_array_equal(out.data, model.params["embedding"].data[3])

    def test_apply_count_matches_structure(self):
        model = randomized(seq_model("tree_rnn"))
        # apply(apply(p,a),b): evaluating must differ from a flat leaf
        tree = t_apply(t_apply(LEAF3, LEAF4), ("leaf", 5))
        out = embed_tree(tree, model, "clause")
        assert out.data.shape == (4,)

    def test_isomorphic_trees_identical(self):
        model = randomized(seq_model("tree_lstm"))
        t1 = ("or", ("not", LEAF3), t_apply(LEAF4, ("leaf", 5)))
        t2 = ("or", ("not", LEAF3), t_apply(LEAF4, ("leaf", 5)))
        a = embed_tree(t1, model, "clause")
        b = embed_tree(t2, model, "clause")
        np.testing.assert_array_equal(a.data, b.data)

    def test_and_rejected_in_clause_tower(self):
        model = seq_model("tree_rnn")
        tree = ("and", LEAF3, LEAF4)
        with pytest.raises(ValueError):
            embed_tree(tree, model, "clause")
        out = embed_tree(tree, model, "conj")  # fine in the conjecture tower
        assert out.data.shape == (4,)

    def test_or_weights_shared_across_instances(self):
        # perturbing `or` weights changes multi-literal clauses, not single
        model = randomized(seq_model("tree_rnn"))
        single = ("not", LEAF3)
        multi = ("or", ("not", LEAF3), LEAF4)
        base_single = embed_tree(single, model, "clause").data.copy()
        base_multi = embed_tree(multi, model, "clause").data.copy()
        model.params["clause.L0.or.w"].data += 0.05
        np.testing.assert_array_equal(
            embed_tree(single, model, "clause").data, base_single
        )
        assert np.abs(embed_tree(multi, model, "clause").data - base_multi).max() > 0

    def test_tower_separation(self):
        model = randomized(seq_model("tree_rnn"))
        tree = ("or", LEAF3, LEAF4)
        base_conj = embed_tree(tree, model, "conj").data.copy()
        model.params["clause.L0.or.w"].data += 0.1
        np.testing.assert_array_equal(embed_tree(tree, model, "conj").data, base_conj)

    def test_multilayer_lstm_runs(self):
        model = randomized(seq_model("tree_lstm", tree_layers=3))
        tree = ("or", ("not", LEAF3), t_apply(LEAF4, ("leaf", 5)))
        assert embed_tree(tree, model, "clause").data.shape == (4,)


def random_pairs(n, seed=0, vocab=12):
    rng = np.random.default_rng(seed)
    return [PairInput(clause=list(rng.integers(1, vocab, size=rng.integers(1, 9))),
                      conj=list(rng.integers(1, vocab, size=rng.integers(1, 6))))
            for _ in range(n)]


class TestScoring:
    def test_zero_combiner_scores_half(self):
        model = randomized(seq_model())
        model.params["comb.1.w"].data[:] = 0
        model.params["comb.1.b"].data[:] = 0
        model.params["comb.2.w"].data[:] = 0
        model.params["comb.2.b"].data[:] = 0
        assert list(batch_scores(random_pairs(10), model)) == [0.5] * 10

    def test_score_in_open_interval(self):
        model = randomized(seq_model(), scale=1.0)
        probs = batch_scores(random_pairs(20, seed=3), model)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_score_depends_only_on_pair(self):
        model = randomized(seq_model())
        pair = PairInput(clause=[3, 4, 5], conj=[6, 7])
        assert batch_scores([pair], model)[0] == batch_scores([pair], model)[0]


class TestLoss:
    def test_balanced_half_prediction_is_ln2(self):
        model = seq_model()
        for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
            model.params[name].data[:] = 0
        batch = [
            PairInput(clause=[3, 4], conj=[5], label=1),
            PairInput(clause=[6], conj=[7, 8], label=0),
        ]
        loss, _ = loss_and_grads(batch, model, train_mode=False)
        assert abs(loss - np.log(2)) < 1e-12

    def test_perfect_prediction_loss_small(self):
        model = seq_model()
        model.params["comb.2.b"].data[:] = 30.0  # force p ~ 1
        batch = [PairInput(clause=[3], conj=[4], label=1)]
        loss, _ = loss_and_grads(batch, model, train_mode=False)
        assert loss < 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_and_grads([], seq_model())

    def test_gradient_descent_decreases_loss(self):
        model = randomized(seq_model())
        batch = [
            PairInput(clause=[3, 4, 5], conj=[6], label=1),
            PairInput(clause=[7, 8], conj=[9, 10], label=0),
            PairInput(clause=[4, 6], conj=[6], label=0),
            PairInput(clause=[3, 5], conj=[11], label=1),
        ]
        first, _ = loss_and_grads(batch, model, train_mode=False)
        for _ in range(100):
            loss, grads = loss_and_grads(batch, model, train_mode=False)
            for name, p in model.params.items():
                p.data = p.data - 1e-3 * grads[name]
        final, _ = loss_and_grads(batch, model, train_mode=False)
        assert final < first
