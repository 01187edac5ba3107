"""The two-tower clause/conjecture scorer and its embedding architectures.

A model embeds the clause and the negated conjecture with two copies of
the same architecture (separate weights, shared embedding table) and maps
the concatenated vectors through a one-hidden-layer combiner to a
usefulness probability.

Architectures: a 3-layer patch-5 convolutional net with max-pooling; a
WaveNet-style stack of gated, dilated convolutions (dilation doubling per
layer within a block) with residual connections; and recursive networks
(plain ReLU or tree LSTM with per-child forget gates including the
cross-child terms) over curried parse trees.

Parameters are stored as float32-representable float64 arrays so that
checkpoints (float32 blobs) round-trip without changing a single score.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor

ARCH_CNN = "cnn"
ARCH_WAVENET = "wavenet"
ARCH_TREE_RNN = "tree_rnn"
ARCH_TREE_LSTM = "tree_lstm"
SEQ_ARCHS = (ARCH_CNN, ARCH_WAVENET)
TREE_ARCHS = (ARCH_TREE_RNN, ARCH_TREE_LSTM)

TOWER_CLAUSE = "clause"
TOWER_CONJ = "conj"

PAD_ID = 0

# tree node kinds and their child counts, mirroring the parse trees
TREE_KINDS = {"apply": 2, "or": 2, "and": 2, "not": 1}
CLAUSE_KINDS = ("apply", "or", "not")
CONJ_KINDS = ("apply", "or", "not", "and")


@dataclass
class ModelConfig:
    arch: str
    vocab_size: int
    dim: int = 64
    hidden: int = 128
    max_len: int = 512
    cnn_layers: int = 3
    cnn_patch: int = 5
    wavenet_blocks: int = 3
    wavenet_layers: int = 7
    wavenet_patch: int = 3
    tree_layers: int = 1
    token_dropout: float = 0.0
    feature_dropout: float = 0.0
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in raw.items() if k in names})


@dataclass
class ModelParams:
    config: ModelConfig
    params: dict[str, Tensor]
    vocab_hash: str = ""

    def named_arrays(self):
        for name, p in self.params.items():
            yield name, p.data

    def quantize(self):
        """Clamp parameters to float32-representable values; pin PAD row."""
        for p in self.params.values():
            p.data = p.data.astype(np.float32).astype(np.float64)
        self.params["embedding"].data[PAD_ID] = 0.0

    def clone(self) -> "ModelParams":
        copies = {k: T.parameter(p.data.copy()) for k, p in self.params.items()}
        return ModelParams(self.config, copies, self.vocab_hash)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None


def _towers_for(config: ModelConfig):
    return ((TOWER_CLAUSE, CLAUSE_KINDS), (TOWER_CONJ, CONJ_KINDS))


def init_model(config: ModelConfig, vocab_hash: str = "") -> ModelParams:
    """Seeded initialization: uniform(-0.05, 0.05) embeddings, fan-in
    scaled layer weights, zero biases."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}

    def lin(name, fan_in, shape):
        limit = 1.0 / np.sqrt(fan_in)
        params[name + ".w"] = T.parameter(rng.uniform(-limit, limit, shape))
        params[name + ".b"] = T.parameter(np.zeros(shape[-1]))

    emb = rng.uniform(-0.05, 0.05, (config.vocab_size, config.dim))
    emb[PAD_ID] = 0.0
    params["embedding"] = T.parameter(emb)

    d = config.dim
    for tower, kinds in _towers_for(config):
        if config.arch == ARCH_CNN:
            for i in range(config.cnn_layers):
                lin(f"{tower}.conv{i}", config.cnn_patch * d, (config.cnn_patch, d, d))
        elif config.arch == ARCH_WAVENET:
            for b in range(config.wavenet_blocks):
                for l in range(config.wavenet_layers):
                    lin(f"{tower}.b{b}.l{l}.filter", config.wavenet_patch * d,
                        (config.wavenet_patch, d, d))
                    lin(f"{tower}.b{b}.l{l}.gate", config.wavenet_patch * d,
                        (config.wavenet_patch, d, d))
        elif config.arch == ARCH_TREE_RNN:
            for l in range(config.tree_layers):
                for kind in kinds:
                    n = TREE_KINDS[kind]
                    lin(f"{tower}.L{l}.{kind}", n * d, (n * d, d))
                    if l > 0:
                        lin(f"{tower}.L{l}.{kind}.x", d, (d, d))
        elif config.arch == ARCH_TREE_LSTM:
            for l in range(config.tree_layers):
                for kind in kinds:
                    n = TREE_KINDS[kind]
                    for gate in ("i", "o", "u"):
                        lin(f"{tower}.L{l}.{kind}.{gate}", n * d, (n * d, d))
                    lin(f"{tower}.L{l}.{kind}.f", n * d, (n * d, n * d))
                    if l > 0:
                        for gate in ("i", "o", "u"):
                            lin(f"{tower}.L{l}.{kind}.{gate}x", d, (d, d))
                        lin(f"{tower}.L{l}.{kind}.fx", d, (d, n * d))
        else:
            raise ValueError(f"unknown architecture {config.arch!r}")

    lin("comb.1", 2 * d, (2 * d, config.hidden))
    lin("comb.2", config.hidden, (config.hidden, 1))

    model = ModelParams(config, params, vocab_hash)
    model.quantize()
    return model


# -- convolutions ----------------------------------------------------------------


def conv1d(x: Tensor, w: Tensor, b: Tensor, dilation: int = 1,
           patch: int | None = None, mask: Tensor | None = None) -> Tensor:
    """Dilated 1-D convolution, symmetric (non-causal), zero padding.

    out_i = b + sum_j w_j @ x_{i - dilation*(j - ceil(s/2))} for j = 1..s,
    with out-of-range inputs read as zero. `w` is [s, C_in, C_out]; the
    time axis is the second-to-last of x. `mask` re-zeroes padded rows in
    batched inputs.
    """
    s = patch if patch is not None else w.data.shape[0]
    center = (s + 1) // 2
    out = None
    for j in range(1, s + 1):
        offset = dilation * (j - center)
        term = T.matmul(T.shift_time(x, offset), T.kernel_slice(w, j - 1))
        out = term if out is None else T.add(out, term)
    out = T.add(out, b)
    if mask is not None:
        out = T.mul(out, mask)
    return out


def _cnn_tower(x: Tensor, model: ModelParams, tower: str, mask: Tensor | None) -> Tensor:
    cfg = model.config
    for i in range(cfg.cnn_layers):
        x = conv1d(x, model.params[f"{tower}.conv{i}.w"],
                   model.params[f"{tower}.conv{i}.b"], 1, cfg.cnn_patch, mask)
        x = T.relu(x)
    return x


def _wavenet_layer(x: Tensor, model: ModelParams, tower: str, b: int, l: int,
                   dilation: int, mask: Tensor | None) -> Tensor:
    p = model.params
    cfg = model.config
    filt = conv1d(x, p[f"{tower}.b{b}.l{l}.filter.w"], p[f"{tower}.b{b}.l{l}.filter.b"],
                  dilation, cfg.wavenet_patch)
    gate = conv1d(x, p[f"{tower}.b{b}.l{l}.gate.w"], p[f"{tower}.b{b}.l{l}.gate.b"],
                  dilation, cfg.wavenet_patch)
    delta = T.mul(T.tanh(filt), T.sigmoid(gate))
    if mask is not None:
        delta = T.mul(delta, mask)
    return T.add(x, delta)


def _wavenet_block(x: Tensor, model: ModelParams, tower: str, b: int,
                   mask: Tensor | None, feature_mask: Tensor | None) -> Tensor:
    """One block: layer stack over the (possibly feature-dropped) input,
    dilation doubling per layer; the block residual carries the undropped
    input, so zero weights leave the block an exact identity."""
    y0 = x if feature_mask is None else T.mul(x, feature_mask)
    y = y0
    dilation = 1
    for l in range(model.config.wavenet_layers):
        y = _wavenet_layer(y, model, tower, b, l, dilation, mask)
        dilation *= 2
    return T.add(x, T.sub(y, y0))


def _wavenet_tower(x: Tensor, model: ModelParams, tower: str, mask: Tensor | None,
                   train_mode: bool, rng: np.random.Generator | None) -> Tensor:
    cfg = model.config
    if train_mode and cfg.token_dropout > 0.0:
        keep = (rng.random(x.data.shape[:-1] + (1,)) >= cfg.token_dropout)
        x = T.mul(x, T.constant(keep.astype(np.float64)))
    for b in range(cfg.wavenet_blocks):
        feature_mask = None
        if train_mode and cfg.feature_dropout > 0.0:
            keep = (rng.random(x.data.shape) >= cfg.feature_dropout)
            feature_mask = T.constant(keep.astype(np.float64))
        x = _wavenet_block(x, model, tower, b, mask, feature_mask)
    return x


# -- sequence embedding ------------------------------------------------------------


def embed_sequence(ids, model: ModelParams, tower: str,
                   train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """One token sequence to a [dim] vector: lookup, tower, max-pool.

    PAD tokens are padding, not content: they are stripped before the
    lookup, and an empty (or PAD-only) sequence embeds to the zero vector.
    """
    if model.config.arch not in SEQ_ARCHS:
        raise ValueError(f"embed_sequence needs a sequence architecture, got {model.config.arch}")
    ids = [i for i in ids if i != PAD_ID]
    if not ids:
        return T.constant(np.zeros(model.config.dim))
    x = T.embedding(model.params["embedding"], ids)
    if model.config.arch == ARCH_CNN:
        if train_mode and model.config.token_dropout > 0.0:
            keep = (rng.random((len(ids), 1)) >= model.config.token_dropout)
            x = T.mul(x, T.constant(keep.astype(np.float64)))
        x = _cnn_tower(x, model, tower, None)
    else:
        x = _wavenet_tower(x, model, tower, None, train_mode, rng)
    return T.max_time(x)


def embed_sequences(batch_ids: list[list[int]], model: ModelParams, tower: str,
                    train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Batched variant: [B, dim]. Padded positions are masked to zero after
    every layer, so each row equals its unbatched counterpart."""
    stripped = [[i for i in ids if i != PAD_ID] for ids in batch_ids]
    lengths = [len(ids) for ids in stripped]
    t_max = max(lengths) if lengths else 0
    if t_max == 0:
        return T.constant(np.zeros((len(batch_ids), model.config.dim)))
    mat = np.full((len(stripped), t_max), PAD_ID, dtype=np.intp)
    for i, ids in enumerate(stripped):
        mat[i, : len(ids)] = ids
    raw_mask = np.zeros((len(stripped), t_max, 1))
    for i, n in enumerate(lengths):
        raw_mask[i, :n] = 1.0
    mask = T.constant(raw_mask)
    x = T.mul(T.embedding(model.params["embedding"], mat), mask)
    if model.config.arch == ARCH_CNN:
        if train_mode and model.config.token_dropout > 0.0:
            keep = (rng.random((len(stripped), t_max, 1)) >= model.config.token_dropout)
            x = T.mul(x, T.constant(keep.astype(np.float64)))
        x = _cnn_tower(x, model, tower, mask)
    else:
        x = _wavenet_tower(x, model, tower, mask, train_mode, rng)
    return T.max_time(x, lengths)


# -- tree embedding -----------------------------------------------------------------


def index_tree(node, lookup) -> tuple:
    """Convert a parse TreeNode into nested tuples with leaf token ids."""
    if node.kind == "leaf":
        return ("leaf", lookup(node.symbol))
    return (node.kind,) + tuple(index_tree(ch, lookup) for ch in node.children)


def embed_tree(itree: tuple, model: ModelParams, tower: str) -> Tensor:
    """Bottom-up evaluation of an indexed tree to a [dim] vector.

    Weights are shared across all instances of a node kind. With stacked
    layers, a node at layer l sees its children at layer l and its own
    hidden state from layer l-1; leaves pass their vector up unchanged.
    """
    cfg = model.config
    if cfg.arch not in TREE_ARCHS:
        raise ValueError(f"embed_tree needs a tree architecture, got {cfg.arch}")
    kinds = CONJ_KINDS if tower == TOWER_CONJ else CLAUSE_KINDS
    p = model.params

    memo: dict[tuple[int, int], object] = {}

    def rnn_eval(node, layer) -> Tensor:
        key = (id(node), layer)
        if key in memo:
            return memo[key]
        kind = node[0]
        if kind == "leaf":
            if layer == 0:
                out = T.embedding(p["embedding"], node[1])
            else:
                out = rnn_eval(node, layer - 1)
        else:
            if kind not in kinds:
                raise ValueError(f"{kind!r} node not allowed in the {tower} tower")
            children = [rnn_eval(ch, layer) for ch in node[1:]]
            h = children[0] if len(children) == 1 else T.concat(children)
            pre = T.add(T.matmul(h, p[f"{tower}.L{layer}.{kind}.w"]),
                        p[f"{tower}.L{layer}.{kind}.b"])
            if layer > 0:
                x = rnn_eval(node, layer - 1)
                pre = T.add(pre, T.matmul(x, p[f"{tower}.L{layer}.{kind}.x.w"]))
            out = T.relu(pre)
        memo[key] = out
        return out

    def lstm_eval(node, layer) -> tuple[Tensor, Tensor | None]:
        key = (id(node), layer)
        if key in memo:
            return memo[key]
        kind = node[0]
        if kind == "leaf":
            if layer == 0:
                out = (T.embedding(p["embedding"], node[1]), None)
            else:
                out = (lstm_eval(node, layer - 1)[0], None)
        else:
            if kind not in kinds:
                raise ValueError(f"{kind!r} node not allowed in the {tower} tower")
            states = [lstm_eval(ch, layer) for ch in node[1:]]
            hs = [s[0] for s in states]
            hcat = hs[0] if len(hs) == 1 else T.concat(hs)
            base = f"{tower}.L{layer}.{kind}"

            def gate(name, act):
                pre = T.add(T.matmul(hcat, p[f"{base}.{name}.w"]), p[f"{base}.{name}.b"])
                if layer > 0:
                    x = lstm_eval(node, layer - 1)[0]
                    pre = T.add(pre, T.matmul(x, p[f"{base}.{name}x.w"]))
                return act(pre)

            i = gate("i", T.sigmoid)
            o = gate("o", T.sigmoid)
            u = gate("u", T.tanh)
            f = gate("f", T.sigmoid)  # [n*dim]: per-child gates incl. cross terms
            c = T.mul(i, u)
            for idx, (_, c_child) in enumerate(states):
                if c_child is not None:
                    fk = T.narrow(f, idx * cfg.dim, (idx + 1) * cfg.dim)
                    c = T.add(c, T.mul(fk, c_child))
            h = T.mul(o, T.tanh(c))
            out = (h, c)
        memo[key] = out
        return out

    top = cfg.tree_layers - 1
    if cfg.arch == ARCH_TREE_RNN:
        return rnn_eval(itree, top)
    return lstm_eval(itree, top)[0]


# -- combiner and pair batches -------------------------------------------------------


def combiner_logit(clause_vec: Tensor, conj_vec: Tensor, model: ModelParams) -> Tensor:
    """The usefulness logit; p(useful) is its sigmoid."""
    h = T.concat([clause_vec, conj_vec], axis=-1)
    h = T.relu(T.add(T.matmul(h, model.params["comb.1.w"]), model.params["comb.1.b"]))
    return T.add(T.matmul(h, model.params["comb.2.w"]), model.params["comb.2.b"])


@dataclass
class PairInput:
    """Prepared inputs for one (clause, negated-conjecture) pair."""

    clause_ids: list[int] | None = None
    conj_ids: list[int] | None = None
    clause_tree: tuple | None = None
    conj_tree: tuple | None = None
    label: int = 0


def forward_logits(batch: list[PairInput], model: ModelParams,
                   train_mode: bool = False, rng=None) -> Tensor:
    """Logits [B] for a batch; sequence towers run batched with masking."""
    if model.config.arch in SEQ_ARCHS:
        vc = embed_sequences([p.clause_ids for p in batch], model, TOWER_CLAUSE,
                             train_mode, rng)
        vnc = embed_sequences([p.conj_ids for p in batch], model, TOWER_CONJ,
                              train_mode, rng)
    else:
        vc = T.stack([embed_tree(p.clause_tree, model, TOWER_CLAUSE) for p in batch])
        vnc = T.stack([embed_tree(p.conj_tree, model, TOWER_CONJ) for p in batch])
    logits = combiner_logit(vc, vnc, model)
    return T.reshape(logits, (len(batch),))


def loss_and_grads(batch: list[PairInput], model: ModelParams,
                   train_mode: bool = True, rng=None):
    """Mean logistic loss and gradients for every parameter."""
    if not batch:
        raise ValueError("empty batch")
    model.zero_grads()
    logits = forward_logits(batch, model, train_mode, rng)
    labels = np.array([p.label for p in batch], dtype=np.float64)
    loss = T.bce_with_logits(logits, labels)
    loss.backward()
    grads = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.params.items()
    }
    return loss.item(), grads
