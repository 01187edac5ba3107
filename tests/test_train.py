"""Pair preparation and the training loop."""

import numpy as np

from satguide.datagen import TrainingExample
from satguide.neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from satguide.neural.models import ModelConfig, PairInput, init_model
from satguide.neural.train import (
    TrainConfig,
    accuracy,
    batch_scores,
    prepare_pairs,
    train,
)
from satguide.tokens import Vocabulary


def toy_pairs(n=64, seed=0):
    """Separable toy task: positives contain token 3, negatives token 4."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        marker = 3 if label else 4
        filler = list(rng.integers(5, 10, size=rng.integers(2, 6)))
        out.append(PairInput(clause=[marker] + filler, conj=[5, 6], label=label))
    return out


def test_overfits_separable_toy_task():
    pairs = toy_pairs(64)
    model = init_model(ModelConfig(arch="cnn", vocab_size=10, dim=8, hidden=8, seed=0))
    best, metrics = train(pairs, pairs, model, TrainConfig(steps=300, batch_size=16,
                                                           lr=3e-3, eval_every=50))
    assert metrics[-1]["accuracy"] >= 0.95 or accuracy(pairs, best) >= 0.95


def test_constant_model_scores_half_on_balanced():
    pairs = toy_pairs(32)
    model = init_model(ModelConfig(arch="cnn", vocab_size=10, dim=4, hidden=4, seed=0))
    for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
        model.params[name].data[:] = 0
    assert accuracy(pairs, model) == 0.5  # p = 0.5 exactly: > 0.5 is false


def test_eval_scores_bit_identical_across_passes():
    pairs = toy_pairs(16)
    model = init_model(ModelConfig(arch="cnn", vocab_size=10, dim=4, hidden=4, seed=3))
    a = batch_scores(pairs, model)
    b = batch_scores(pairs, model)
    np.testing.assert_array_equal(a, b)


def test_metrics_log_written(tmp_path):
    pairs = toy_pairs(16)
    model = init_model(ModelConfig(arch="cnn", vocab_size=10, dim=4, hidden=4, seed=0))
    log = tmp_path / "metrics.log"
    train(pairs, pairs, model, TrainConfig(steps=20, batch_size=8, eval_every=10,
                                           log_path=str(log)))
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("step=10 loss=")


def test_seeded_training_deterministic():
    def run():
        pairs = toy_pairs(32)
        model = init_model(ModelConfig(arch="cnn", vocab_size=10, dim=4, hidden=4, seed=1))
        best, metrics = train(pairs, pairs, model,
                              TrainConfig(steps=40, batch_size=8, eval_every=20, seed=9))
        return [m["loss"] for m in metrics]

    assert run() == run()


def vocab_of(*tokens):
    vocab = Vocabulary()
    for t in tokens:
        vocab.add(t)
    return vocab


class TestPreparePair:
    def test_sequence_inputs(self):
        vocab = vocab_of("p", "(", ")", "a", "~", "q")
        cfg = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4)
        [pair] = prepare_pairs([TrainingExample("p(a)", ["~q(a)"], 1, "c", 0)], vocab, cfg)
        assert pair.clause and pair.conj and pair.label == 1

    def test_tree_inputs(self):
        vocab = vocab_of("p", "a", "q")
        cfg = ModelConfig(arch="tree_rnn", vocab_size=len(vocab), dim=4)
        [pair] = prepare_pairs([TrainingExample("p(a)", ["~q(a)", "~p(a)"], 0, "c", 0)],
                               vocab, cfg)
        assert pair.clause[0] == "apply"
        assert pair.conj[0] == "and"


def fitted(examples, vocab, eval_examples, mconfig, tconfig):
    """The `satguide train` sequence: init, prepare, train."""
    model = init_model(mconfig, vocab.hash)
    return train(prepare_pairs(examples, vocab, mconfig),
                 prepare_pairs(eval_examples, vocab, mconfig), model, tconfig)


class TestEstimator:
    """Fit, predict and reload through the functions `satguide train` calls."""

    def test_fit_predict_cycle(self):
        vocab = vocab_of("p", "q", "(", ")", "a", "b", "~")
        examples = []
        for i in range(40):
            label = i % 2
            text = "p(a)" if label else "q(b)"
            examples.append(TrainingExample(text, ["~p(a)"], label, f"prob{i % 8}", i))
        mconfig = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=8, hidden=8)
        model, _ = fitted(examples, vocab, examples, mconfig,
                          TrainConfig(steps=150, batch_size=8, lr=3e-3, eval_every=50))
        probs = batch_scores(prepare_pairs(examples, vocab, mconfig), model)
        assert probs.shape == (40,)
        acc = np.mean((probs > 0.5).astype(int) == np.array([e.label for e in examples]))
        assert acc >= 0.9

    def test_checkpoint_round_trip(self, tmp_path):
        vocab = vocab_of("p", "(", ")", "a")
        examples = [TrainingExample("p(a)", ["p(a)"], i % 2, f"c{i}", i) for i in range(8)]
        mconfig = ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4, hidden=4)
        model, _ = fitted(examples, vocab, [], mconfig,
                          TrainConfig(steps=5, batch_size=4, eval_every=5))
        path = tmp_path / "model.ckpt"
        save_checkpoint_file(model, str(path))
        again = load_checkpoint_file(str(path), expected_vocab_hash=vocab.hash)
        pairs = prepare_pairs(examples, vocab, mconfig)
        np.testing.assert_array_equal(batch_scores(pairs, model), batch_scores(pairs, again))
