"""Training loop and an estimator-style front end for the pair scorer.

Training is a seeded minibatch loop with periodic accuracy evaluation on
a balanced holdout; the best-accuracy parameters are kept. Metrics are
appended to a plain text log, one record per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fol import Clause
from ..parser import parse_clause_text
from ..tokens import Vocabulary, tokenize_texts
from ..trees import clause_parse_tree, conjecture_tree
from . import tensor as T
from .adam import adam_init, adam_step
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .models import (
    SEQ_ARCHS,
    ModelConfig,
    ModelParams,
    PairInput,
    forward_logits,
    index_tree,
    init_model,
    loss_and_grads,
)


def prepare_pair(clause_text: str, conj_texts: list[str], vocab: Vocabulary,
                 config: ModelConfig, label: int = 0) -> PairInput:
    """Build model inputs from printed clause text.

    Sequence models get token id lists (conjecture clauses joined by SEP);
    tree models get indexed curried parse trees (joined by `and` nodes).
    """
    if config.arch in SEQ_ARCHS:
        return PairInput(
            clause_ids=tokenize_texts([clause_text], vocab, config.max_len),
            conj_ids=tokenize_texts(list(conj_texts), vocab, config.max_len),
            label=label,
        )
    clause = Clause(0, parse_clause_text(clause_text))
    conj_clauses = [Clause(i, parse_clause_text(t)) for i, t in enumerate(conj_texts)]
    return PairInput(
        clause_tree=index_tree(clause_parse_tree(clause), vocab.lookup),
        conj_tree=index_tree(conjecture_tree(conj_clauses), vocab.lookup),
        label=label,
    )


def prepare_pairs(examples, vocab: Vocabulary, config: ModelConfig) -> list[PairInput]:
    return [
        prepare_pair(ex.clause_text, ex.conj_texts, vocab, config, ex.label)
        for ex in examples
    ]


def batch_scores(pairs: list[PairInput], model: ModelParams, chunk: int = 256) -> np.ndarray:
    """Probabilities for many pairs (eval mode, no graph)."""
    out = []
    with T.no_grad():
        for i in range(0, len(pairs), chunk):
            logits = forward_logits(pairs[i : i + chunk], model, train_mode=False)
            out.append(T.sigmoid(logits).data)
    return np.concatenate(out) if out else np.zeros(0)


def accuracy(pairs: list[PairInput], model: ModelParams) -> float:
    if not pairs:
        return 0.0
    probs = batch_scores(pairs, model)
    labels = np.array([p.label for p in pairs])
    return float(np.mean((probs > 0.5) == (labels == 1)))


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 32
    lr: float = 1e-3
    eval_every: int = 200
    seed: int = 0
    log_path: str | None = None


def train(train_pairs: list[PairInput], eval_pairs: list[PairInput],
          model: ModelParams, config: TrainConfig) -> tuple[ModelParams, list[dict]]:
    """Minibatch Adam; returns the best-eval-accuracy snapshot and metrics."""
    if not train_pairs:
        raise ValueError("no training pairs")
    state = adam_init(model, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    order = rng.permutation(len(train_pairs))
    pos = 0
    metrics: list[dict] = []
    best = model.clone()
    best_acc = -1.0
    log_fh = open(config.log_path, "a") if config.log_path else None
    try:
        for step in range(1, config.steps + 1):
            batch = []
            for _ in range(min(config.batch_size, len(train_pairs))):
                if pos == len(order):
                    order = rng.permutation(len(train_pairs))
                    pos = 0
                batch.append(train_pairs[order[pos]])
                pos += 1
            loss, grads = loss_and_grads(batch, model, train_mode=True, rng=drop_rng)
            adam_step(model, grads, state)
            if step % config.eval_every == 0 or step == config.steps:
                acc = accuracy(eval_pairs, model) if eval_pairs else accuracy(batch, model)
                metrics.append({"step": step, "loss": loss, "accuracy": acc})
                if log_fh:
                    log_fh.write(f"step={step} loss={loss:.6f} accuracy={acc:.4f}\n")
                    log_fh.flush()
                if acc > best_acc:
                    best_acc = acc
                    best = model.clone()
    finally:
        if log_fh:
            log_fh.close()
    return best, metrics


class ClausePairScorer:
    """Estimator-style wrapper: construct with hyperparameters, `fit` on
    labeled examples, `predict_proba` on new ones.

    Examples are any objects with clause_text, conj_texts and label
    attributes. The fitted model lands on `model_`.
    """

    def __init__(self, arch: str = "cnn", dim: int = 64, hidden: int = 128,
                 max_len: int = 512, steps: int = 2000, batch_size: int = 32,
                 lr: float = 1e-3, eval_every: int = 200, seed: int = 0,
                 token_dropout: float = 0.0, feature_dropout: float = 0.0,
                 cnn_layers: int = 3, wavenet_blocks: int = 3,
                 wavenet_layers: int = 7, tree_layers: int = 1,
                 log_path: str | None = None):
        self.arch = arch
        self.dim = dim
        self.hidden = hidden
        self.max_len = max_len
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.eval_every = eval_every
        self.seed = seed
        self.token_dropout = token_dropout
        self.feature_dropout = feature_dropout
        self.cnn_layers = cnn_layers
        self.wavenet_blocks = wavenet_blocks
        self.wavenet_layers = wavenet_layers
        self.tree_layers = tree_layers
        self.log_path = log_path

    _param_names = (
        "arch", "dim", "hidden", "max_len", "steps", "batch_size", "lr",
        "eval_every", "seed", "token_dropout", "feature_dropout",
        "cnn_layers", "wavenet_blocks", "wavenet_layers", "tree_layers",
        "log_path",
    )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "ClausePairScorer":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def model_config(self, vocab: Vocabulary) -> ModelConfig:
        return ModelConfig(
            arch=self.arch, vocab_size=len(vocab), dim=self.dim,
            hidden=self.hidden, max_len=self.max_len, seed=self.seed,
            token_dropout=self.token_dropout, feature_dropout=self.feature_dropout,
            cnn_layers=self.cnn_layers, wavenet_blocks=self.wavenet_blocks,
            wavenet_layers=self.wavenet_layers, tree_layers=self.tree_layers,
        )

    def fit(self, examples, vocab: Vocabulary, eval_examples=None) -> "ClausePairScorer":
        config = self.model_config(vocab)
        model = init_model(config, vocab.hash)
        train_pairs = prepare_pairs(examples, vocab, config)
        eval_pairs = prepare_pairs(eval_examples, vocab, config) if eval_examples else []
        tconfig = TrainConfig(
            steps=self.steps, batch_size=self.batch_size, lr=self.lr,
            eval_every=self.eval_every, seed=self.seed, log_path=self.log_path,
        )
        self.model_, self.metrics_ = train(train_pairs, eval_pairs, model, tconfig)
        self.vocab_ = vocab
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise RuntimeError("scorer is not fitted")

    def predict_proba(self, examples) -> np.ndarray:
        self._require_fitted()
        pairs = prepare_pairs(examples, self.vocab_, self.model_.config)
        return batch_scores(pairs, self.model_)

    def predict(self, examples) -> np.ndarray:
        return (self.predict_proba(examples) > 0.5).astype(int)

    def save(self, path: str):
        self._require_fitted()
        save_checkpoint_file(self.model_, path)

    @classmethod
    def from_checkpoint(cls, path: str, vocab: Vocabulary) -> "ClausePairScorer":
        model = load_checkpoint_file(path, expected_vocab_hash=vocab.hash)
        cfg = model.config
        scorer = cls(arch=cfg.arch, dim=cfg.dim, hidden=cfg.hidden,
                     max_len=cfg.max_len, seed=cfg.seed)
        scorer.model_ = model
        scorer.vocab_ = vocab
        return scorer
