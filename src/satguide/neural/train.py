"""Pair preparation and the training loop for the pair scorer.

Training is a seeded minibatch loop with periodic accuracy evaluation on
a balanced holdout; the best-accuracy parameters are kept. Metrics are
appended to a plain text log, one record per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fol import Clause
from ..parser import parse_clause_text
from ..tokens import Vocabulary, tokenize_texts
from ..trees import clause_tree
from . import tensor as T
from .adam import adam_init, adam_step
from .models import (
    SEQ_ARCHS,
    ModelConfig,
    ModelParams,
    PairInput,
    forward_logits,
    loss_and_grads,
)


def prepare_pairs(examples, vocab: Vocabulary, config: ModelConfig) -> list[PairInput]:
    """Model inputs for examples with clause_text, conj_texts and label.

    The conjecture input is built once per distinct conjecture text list
    and shared, read-only, by every pair that has that conjecture.
    """
    conjectures: dict[tuple[str, ...], object] = {}
    pairs = []
    for ex in examples:
        key = tuple(ex.conj_texts)
        conj = conjectures.get(key)
        if conj is None:
            conj = conjectures[key] = _input(key, vocab, config)
        pairs.append(PairInput(_input([ex.clause_text], vocab, config), conj, ex.label))
    return pairs


def _input(texts, vocab: Vocabulary, config: ModelConfig):
    """One model input from printed clauses: token ids joined by SEP
    (sequence models) or their `trees.clause_tree` (tree models). One text
    is that clause alone."""
    if config.arch in SEQ_ARCHS:
        return tokenize_texts(list(texts), vocab, config.max_len)
    clauses = [Clause(i, parse_clause_text(t)) for i, t in enumerate(texts)]
    return clause_tree(clauses, vocab.lookup)


SCORE_CHUNK = 256  # pairs per eval forward pass


def batch_scores(pairs: list[PairInput], model: ModelParams) -> np.ndarray:
    """Probabilities for many pairs (eval mode, no graph)."""
    out = []
    with T.no_grad():
        for i in range(0, len(pairs), SCORE_CHUNK):
            logits = forward_logits(pairs[i : i + SCORE_CHUNK], model, train_mode=False)
            out.append(T.sigmoid(logits).data)
    return np.concatenate(out) if out else np.zeros(0)


def accuracy(pairs: list[PairInput], model: ModelParams) -> float:
    """Fraction of pairs with (p(useful) > 0.5) == label."""
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
