"""Bit pins of the network's scores and of a short training run.

The hex values were measured on the per-tap convolution and the
per-clause combiner that `tensor.conv_taps` and
`ClauseScorer.probabilities` replaced; any change to the neural path that
moves one bit of a clause or premise score fails here. Scores must not
depend on the batch size either. The training pins hash the checkpoint
after 25 Adam steps, with token and feature dropout for the sequence
towers, measured on the padded and masked sequence towers that packed
batches replaced. The tree-RNN pins and the tree training pins were
measured on the scorer and the pair preparation as they were before
`ClauseScorer.embed` and `PairInput`'s one-input-per-tower fields
replaced them. No wall-clock gate. The values were taken with numpy 2.4
and its bundled OpenBLAS on x86-64; another BLAS may round the same
products differently.
"""

import hashlib

import numpy as np
import pytest

from satguide.datagen import TrainingExample, build_vocabulary
from satguide.fol import Clause, clause_str, normalize_variables
from satguide.guidance import ClauseScorer
from satguide.neural.checkpoint import save_checkpoint
from satguide.neural.models import ModelConfig, init_model
from satguide.neural.train import TrainConfig, prepare_pairs, train
from satguide.parser import parse_clause_text, parse_tptp
from satguide.premsel import rank_premises

PROBLEM = """
fof(chain1, axiom, ![X]: (p(X) => q(f(X)))).
fof(chain2, axiom, ![X]: (q(X) => r(X, g(X)))).
fof(both, axiom, (p(a) & s(b, c))).
cnf(dist1, axiom, (t(c) | ~s(X, Y))).
cnf(dist2, axiom, (u(Z, Z, a))).
fof(goal, conjecture, ?[X]: r(f(X), g(f(X)))).
"""

CLAUSES = [
    "p(a)", "~p(X) | q(f(X))", "r(f(a), g(f(a)))", "~q(Y) | ~s(Y, Z) | t(Z)",
    "u(b, b, a) | p(W)", "unseen(symbol, c)", "s(b, c)", "~r(f(X), g(f(X)))",
    "q(f(f(f(f(a)))))", "t(c) | t(b) | t(a) | ~u(X, Y, Z)", "~p(b)", "q(X) | ~q(X)",
]

# dim 6 is off the BLAS kernel widths (4 and 8), where a product computed
# in another shape would round differently
ARCHS = {
    "cnn": dict(arch="cnn", dim=8, hidden=8),
    "wavenet": dict(arch="wavenet", dim=6, hidden=5, wavenet_blocks=2, wavenet_layers=3),
    "tree_lstm": dict(arch="tree_lstm", dim=6, hidden=5, tree_layers=2),
    "tree_rnn": dict(arch="tree_rnn", dim=6, hidden=5, tree_layers=2),
}

PINS = {
    "cnn": {
        "clauses": [
            "0x1.d0e856f921f2bp-2", "0x1.d44665e2b92d6p-2", "0x1.c9521959c66ddp-2",
            "0x1.d360c690e8af9p-2", "0x1.d204e9fac3d06p-2", "0x1.cfaec0561cdd4p-2",
            "0x1.d457674439755p-2", "0x1.d3ebd739aaf28p-2", "0x1.e358969259c3dp-2",
            "0x1.d2013cbd4d700p-2", "0x1.ceadc9ab87d1cp-2", "0x1.cf9a9150cf997p-2",
        ],
        "premises": {
            "chain1": "0x1.d44665e2b92d6p-2",
            "chain2": "0x1.cba7640671808p-2",
            "both": "0x1.d6373c6f91b6cp-2",
            "dist1": "0x1.d02ab733483aap-2",
            "dist2": "0x1.d0a7aba3393a4p-2",
        },
    },
    "wavenet": {
        "clauses": [
            "0x1.076480d44711ap-1", "0x1.04c0cbf5b6761p-1", "0x1.07db11ac22269p-1",
            "0x1.051d17f201a1ep-1", "0x1.ffb33e43dc588p-2", "0x1.08797e186ac92p-1",
            "0x1.0d22414366a7ep-1", "0x1.08d442d3e625bp-1", "0x1.037f102319c35p-1",
            "0x1.0599bea5d3a67p-1", "0x1.048a37ad68e55p-1", "0x1.03f874e30d12ap-1",
        ],
        "premises": {
            "chain1": "0x1.04c0cbf5b6761p-1",
            "chain2": "0x1.06ed1f22ffa84p-1",
            "both": "0x1.03805e15e43c7p-1",
            "dist1": "0x1.06160dbd75f0fp-1",
            "dist2": "0x1.084680e76699ap-1",
        },
    },
    "tree_lstm": {
        "clauses": [
            "0x1.0671a5be983e4p-1", "0x1.03dd011ce4f46p-1", "0x1.04eb6358a2607p-1",
            "0x1.031387b79f335p-1", "0x1.0358f9037529cp-1", "0x1.04663eef8ff46p-1",
            "0x1.03cb25863694ep-1", "0x1.07ce17c90d2c4p-1", "0x1.066d39ecc7b9ep-1",
            "0x1.033fca9a650f0p-1", "0x1.074826c3e05ddp-1", "0x1.03cd3a8e73bc2p-1",
        ],
        "premises": {
            "chain1": "0x1.03dd011ce4f46p-1",
            "chain2": "0x1.038395c0670ccp-1",
            "both": "0x1.06063eb7c86d6p-1",
            "dist1": "0x1.0342c4e70f112p-1",
            "dist2": "0x1.064f89cabf727p-1",
        },
    },
    "tree_rnn": {
        "clauses": [
            "0x1.076d25afef06fp-1", "0x1.0e74d99d1c55cp-1", "0x1.09ea07b621086p-1",
            "0x1.0dadb64dc5f43p-1", "0x1.0e7dece2c0a6ap-1", "0x1.076cb542d396cp-1",
            "0x1.076b7ab60c065p-1", "0x1.05841814e6769p-1", "0x1.083156a0daf7ep-1",
            "0x1.0b2db5409d71dp-1", "0x1.06cdf8bd5d7a3p-1", "0x1.0bf437ef721e7p-1",
        ],
        "premises": {
            "chain1": "0x1.0e74d99d1c55cp-1",
            "chain2": "0x1.0e63bb38f51eep-1",
            "both": "0x1.076b194500f11p-1",
            "dist1": "0x1.0b9fb9167ea39p-1",
            "dist2": "0x1.076bdb38ac990p-1",
        },
    },
}


def scorer(arch, batch_size):
    problem = parse_tptp(PROBLEM, name="pins")
    vocab = build_vocabulary([
        TrainingExample(clause_str(normalize_variables(c)),
                        [clause_str(normalize_variables(nc)) for nc in problem.negated_conjecture],
                        1, problem.name, c.id)
        for c in problem.clauses()
    ])
    model = init_model(ModelConfig(vocab_size=len(vocab), seed=3, **ARCHS[arch]),
                       vocab_hash=vocab.hash)
    rng = np.random.default_rng(29)
    for p in model.params.values():
        p.data = rng.uniform(-0.4, 0.4, p.data.shape)
    model.quantize()
    return problem, ClauseScorer(model, vocab, problem, batch_size=batch_size)


@pytest.mark.parametrize("arch", sorted(ARCHS))
@pytest.mark.parametrize("batch_size", [1, 5, 32])
def test_clause_scores_pinned(arch, batch_size):
    _, s = scorer(arch, batch_size)
    clauses = [Clause(100 + i, parse_clause_text(t)) for i, t in enumerate(CLAUSES)]
    assert [p.hex() for p in s.score_batch(clauses)] == PINS[arch]["clauses"]


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_premise_scores_pinned_and_batch_free(arch):
    scores = {}
    for batch_size in (1, 32):
        problem, s = scorer(arch, batch_size)
        ranking = rank_premises(problem, s)
        scores[batch_size] = {name: p.hex() for name, p in ranking.scores.items()}
    assert scores[1] == scores[32]
    assert scores[1] == PINS[arch]["premises"]


TRAIN_ARCHS = {
    "cnn": dict(arch="cnn", dim=8, hidden=8, token_dropout=0.2),
    "wavenet": dict(arch="wavenet", dim=6, hidden=5, wavenet_blocks=2, wavenet_layers=3,
                    token_dropout=0.2, feature_dropout=0.3),
    "tree_rnn": ARCHS["tree_rnn"],
    "tree_lstm": ARCHS["tree_lstm"],
}

TRAIN_PINS = {"cnn": "d50fec9276f134b2", "wavenet": "b62ae7b2988f72fd",
              "tree_rnn": "b1536931cba0ca13", "tree_lstm": "1a1d8f878cb433a2"}


@pytest.mark.parametrize("arch", sorted(TRAIN_ARCHS))
def test_training_checkpoint_pinned(arch):
    """25 Adam steps at batch 6 over the problem's clauses, CLAUSES and the
    one-token clause `w`: 1 to 24 tokens a clause."""
    problem = parse_tptp(PROBLEM, name="pins")
    conj = [clause_str(normalize_variables(nc)) for nc in problem.negated_conjecture]
    clauses = problem.clauses() + [Clause(0, parse_clause_text(t)) for t in CLAUSES + ["w"]]
    examples = [TrainingExample(clause_str(normalize_variables(c)), conj, i % 2,
                                problem.name, i)
                for i, c in enumerate(clauses)]
    vocab = build_vocabulary(examples)
    config = ModelConfig(vocab_size=len(vocab), seed=3, **TRAIN_ARCHS[arch])
    model, _ = train(prepare_pairs(examples, vocab, config), [],
                     init_model(config, vocab.hash),
                     TrainConfig(steps=25, batch_size=6, lr=1e-2, eval_every=25, seed=11))
    assert hashlib.sha256(save_checkpoint(model)).hexdigest()[:16] == TRAIN_PINS[arch]
