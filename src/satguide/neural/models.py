"""The two-tower clause/conjecture scorer and its embedding architectures.

A model embeds the clause and the negated conjecture with two copies of
the same architecture (separate weights, shared embedding table) and maps
the concatenated vectors through a one-hidden-layer combiner to a
usefulness probability.

Architectures: a 3-layer patch-5 convolutional net with max-pooling; a
WaveNet-style stack of gated, dilated convolutions (dilation doubling per
layer within a block) with residual connections; and recursive networks
(plain ReLU or tree LSTM with per-child forget gates including the
cross-child terms) over the curried parse trees that `trees.clause_tree`
builds.

A batch of token sequences runs packed: its tokens are the rows of one
[N, dim] array, with no padding rows and no masks, and a `tensor.Segments`
layout keeps every convolution tap and the max-pooling inside each
sequence.

Dropout acts in training only: `token_dropout` drops whole tokens of a
sequence tower, `feature_dropout` drops features at the input of each
WaveNet block. `ModelConfig` refuses a rate outside [0, 1], and a
nonzero rate on an architecture that does not read it: either rate on a
tree architecture, `feature_dropout` on the CNN.

Parameters are stored as float32-representable float64 arrays so that
checkpoints (float32 blobs) round-trip without changing a single score.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from ..trees import AND, APPLY, CHILD_COUNT, LEAF, NOT, OR
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

# the node kinds each tree tower has weights for
CLAUSE_KINDS = (APPLY, OR, NOT)
CONJ_KINDS = (APPLY, OR, NOT, AND)
TOWERS = ((TOWER_CLAUSE, CLAUSE_KINDS), (TOWER_CONJ, CONJ_KINDS))


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

    def __post_init__(self):
        # a rate is the chance to drop, with no rescaling: 1 drops every value;
        # each rate is refused on the architectures that do not read it
        for name, readers in (("token_dropout", SEQ_ARCHS), ("feature_dropout", (ARCH_WAVENET,))):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
            if rate and self.arch not in readers:
                raise ValueError(f"{name} {rate} has no effect on the {self.arch} towers")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """The config `to_json` wrote; a key this version has no field
        for raises ValueError, naming it."""
        raw = json.loads(text)
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model config keys {unknown}")
        return cls(**raw)


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
    for tower, kinds in TOWERS:
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
                    n = CHILD_COUNT[kind]
                    lin(f"{tower}.L{l}.{kind}", n * d, (n * d, d))
                    if l > 0:
                        lin(f"{tower}.L{l}.{kind}.x", d, (d, d))
        elif config.arch == ARCH_TREE_LSTM:
            for l in range(config.tree_layers):
                for kind in kinds:
                    n = CHILD_COUNT[kind]
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


def conv1d(x: Tensor, w: Tensor, b: Tensor, segments: T.Segments,
           dilation: int = 1) -> Tensor:
    """Dilated 1-D convolution, symmetric (non-causal), zero padding, over
    the packed sequences `segments` lays out in the rows of x.

    out_i = b + sum_j w_j @ x_{i - dilation*(j - ceil(s/2))} for j = 1..s,
    with inputs outside row i's own sequence read as zero. `w` is
    [s, C_in, C_out] and x is [N, C_in].
    """
    return T.add(T.conv_taps(x, w, segments, dilation), b)


def _dropout(rng: np.random.Generator, segments: T.Segments, width: int,
             rate: float) -> Tensor:
    """A keep mask for the packed rows. It is drawn over the padded
    (B, max_len, width) shape and gathered to the rows that hold a token,
    so the random stream does not depend on the packing."""
    keep = rng.random((len(segments), segments.max_len, width)) >= rate
    return T.constant(keep.reshape(-1, width)[segments.padded_rows()].astype(np.float64))


def _cnn_tower(x: Tensor, model: ModelParams, tower: str, segments: T.Segments) -> Tensor:
    cfg = model.config
    for i in range(cfg.cnn_layers):
        x = conv1d(x, model.params[f"{tower}.conv{i}.w"],
                   model.params[f"{tower}.conv{i}.b"], segments)
        x = T.relu(x)
    return x


def _wavenet_layer(x: Tensor, model: ModelParams, tower: str, b: int, l: int,
                   dilation: int, segments: T.Segments) -> Tensor:
    p = model.params
    filt = conv1d(x, p[f"{tower}.b{b}.l{l}.filter.w"], p[f"{tower}.b{b}.l{l}.filter.b"],
                  segments, dilation)
    gate = conv1d(x, p[f"{tower}.b{b}.l{l}.gate.w"], p[f"{tower}.b{b}.l{l}.gate.b"],
                  segments, dilation)
    return T.add(x, T.mul(T.tanh(filt), T.sigmoid(gate)))


def _wavenet_block(x: Tensor, model: ModelParams, tower: str, b: int,
                   segments: T.Segments, feature_mask: Tensor | None) -> Tensor:
    """One block: layer stack over the (possibly feature-dropped) input,
    dilation doubling per layer; the block residual carries the undropped
    input, so zero weights leave the block an exact identity."""
    y0 = x if feature_mask is None else T.mul(x, feature_mask)
    y = y0
    dilation = 1
    for l in range(model.config.wavenet_layers):
        y = _wavenet_layer(y, model, tower, b, l, dilation, segments)
        dilation *= 2
    return T.add(x, T.sub(y, y0))


def _wavenet_tower(x: Tensor, model: ModelParams, tower: str, segments: T.Segments,
                   train_mode: bool, rng: np.random.Generator | None) -> Tensor:
    cfg = model.config
    for b in range(cfg.wavenet_blocks):
        feature_mask = None
        if train_mode and cfg.feature_dropout > 0.0:
            feature_mask = _dropout(rng, segments, cfg.dim, cfg.feature_dropout)
        x = _wavenet_block(x, model, tower, b, segments, feature_mask)
    return x


# -- sequence embedding ------------------------------------------------------------


def embed_sequence(ids, model: ModelParams, tower: str,
                   train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """One token sequence to a [dim] vector: `embed_sequences` on a batch of one."""
    out = embed_sequences([ids], model, tower, train_mode, rng)
    return T.reshape(out, (model.config.dim,))


def embed_sequences(batch_ids: list[list[int]], model: ModelParams, tower: str,
                    train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Token sequences to [B, dim]: lookup, tower, max-pool over time.

    PAD tokens are padding, not content: they are stripped before the
    lookup, and an empty (or PAD-only) sequence embeds to the zero vector.
    The batch's tokens are packed end to end as the rows of one [N, dim]
    array, and no layer reads across a sequence boundary, so each row
    equals its embedding as a batch of one up to BLAS rounding. At the
    widths the project uses (3, 4, 6, 8, 32, 64) it is bit-equal, except
    for a one-token sequence batched with longer ones: alone it is a
    one-row product, which BLAS rounds apart from a many-row one.
    """
    cfg = model.config
    if cfg.arch not in SEQ_ARCHS:
        raise ValueError(f"embed_sequences needs a sequence architecture, got {cfg.arch}")
    stripped = [[i for i in ids if i != PAD_ID] for ids in batch_ids]
    segments = T.Segments([len(ids) for ids in stripped])
    if segments.n == 0:
        return T.constant(np.zeros((len(batch_ids), cfg.dim)))
    tokens = np.fromiter(chain.from_iterable(stripped), dtype=np.intp, count=segments.n)
    x = T.embedding(model.params["embedding"], tokens)
    if train_mode and cfg.token_dropout > 0.0:
        x = T.mul(x, _dropout(rng, segments, 1, cfg.token_dropout))
    if cfg.arch == ARCH_CNN:
        x = _cnn_tower(x, model, tower, segments)
    else:
        x = _wavenet_tower(x, model, tower, segments, train_mode, rng)
    return T.segment_max(x, segments)


# -- tree embedding -----------------------------------------------------------------


def embed_tree(tree: tuple, model: ModelParams, tower: str) -> Tensor:
    """Bottom-up evaluation of a `trees.clause_tree` to a [dim] vector.

    Weights are shared across all instances of a node kind. With stacked
    layers, a node at layer l sees its children at layer l and its own
    hidden state from layer l-1; leaves pass their vector up unchanged.
    """
    cfg = model.config
    if cfg.arch not in TREE_ARCHS:
        raise ValueError(f"embed_tree needs a tree architecture, got {cfg.arch}")
    kinds = CONJ_KINDS if tower == TOWER_CONJ else CLAUSE_KINDS
    top = cfg.tree_layers - 1
    if cfg.arch == ARCH_TREE_RNN:
        return _rnn_eval(tree, top, model.params, tower, kinds, {})
    return _lstm_eval(tree, top, model.params, tower, kinds, cfg.dim, {})[0]


# The evaluators are module functions that take their state as arguments: a
# nested function that calls itself is a reference cycle.


def _rnn_eval(node, layer, p, tower, kinds, memo) -> Tensor:
    key = (id(node), layer)
    if key in memo:
        return memo[key]
    kind = node[0]
    if kind == LEAF:
        if layer == 0:
            out = T.embedding(p["embedding"], node[1])
        else:
            out = _rnn_eval(node, layer - 1, p, tower, kinds, memo)
    else:
        if kind not in kinds:
            raise ValueError(f"{kind!r} node not allowed in the {tower} tower")
        children = [_rnn_eval(ch, layer, p, tower, kinds, memo) for ch in node[1:]]
        h = children[0] if len(children) == 1 else T.concat(children)
        pre = T.add(T.matmul(h, p[f"{tower}.L{layer}.{kind}.w"]),
                    p[f"{tower}.L{layer}.{kind}.b"])
        if layer > 0:
            x = _rnn_eval(node, layer - 1, p, tower, kinds, memo)
            pre = T.add(pre, T.matmul(x, p[f"{tower}.L{layer}.{kind}.x.w"]))
        out = T.relu(pre)
    memo[key] = out
    return out


def _lstm_eval(node, layer, p, tower, kinds, dim, memo) -> tuple[Tensor, Tensor | None]:
    key = (id(node), layer)
    if key in memo:
        return memo[key]
    kind = node[0]
    if kind == LEAF:
        if layer == 0:
            out = (T.embedding(p["embedding"], node[1]), None)
        else:
            out = (_lstm_eval(node, layer - 1, p, tower, kinds, dim, memo)[0], None)
    else:
        if kind not in kinds:
            raise ValueError(f"{kind!r} node not allowed in the {tower} tower")
        states = [_lstm_eval(ch, layer, p, tower, kinds, dim, memo) for ch in node[1:]]
        hs = [s[0] for s in states]
        hcat = hs[0] if len(hs) == 1 else T.concat(hs)
        base = f"{tower}.L{layer}.{kind}"

        def gate(name, act):
            pre = T.add(T.matmul(hcat, p[f"{base}.{name}.w"]), p[f"{base}.{name}.b"])
            if layer > 0:
                x = _lstm_eval(node, layer - 1, p, tower, kinds, dim, memo)[0]
                pre = T.add(pre, T.matmul(x, p[f"{base}.{name}x.w"]))
            return act(pre)

        i = gate("i", T.sigmoid)
        o = gate("o", T.sigmoid)
        u = gate("u", T.tanh)
        f = gate("f", T.sigmoid)  # [n*dim]: per-child gates incl. cross terms
        c = T.mul(i, u)
        for idx, (_, c_child) in enumerate(states):
            if c_child is not None:
                fk = T.narrow(f, idx * dim, (idx + 1) * dim)
                c = T.add(c, T.mul(fk, c_child))
        h = T.mul(o, T.tanh(c))
        out = (h, c)
    memo[key] = out
    return out


# -- combiner and pair batches -------------------------------------------------------


def combiner_logit(clause_vec: Tensor, conj_vec: Tensor, model: ModelParams) -> Tensor:
    """The usefulness logit; p(useful) is its sigmoid."""
    h = T.concat([clause_vec, conj_vec], axis=-1)
    h = T.relu(T.add(T.matmul(h, model.params["comb.1.w"]), model.params["comb.1.b"]))
    return T.add(T.matmul(h, model.params["comb.2.w"]), model.params["comb.2.b"])


@dataclass
class PairInput:
    """Prepared inputs for one (clause, negated-conjecture) pair: one model
    input per tower, token ids for sequence models and a `trees.clause_tree`
    for tree models."""

    clause: list[int] | tuple
    conj: list[int] | tuple
    label: int = 0


def embed_inputs(inputs: list, model: ModelParams, tower: str,
                 train_mode: bool = False, rng=None) -> Tensor:
    """[B, dim] for a batch of one tower's inputs; sequence towers run on
    the packed batch, tree towers one tree at a time."""
    if model.config.arch in SEQ_ARCHS:
        return embed_sequences(inputs, model, tower, train_mode, rng)
    return T.stack([embed_tree(t, model, tower) for t in inputs])


def forward_logits(batch: list[PairInput], model: ModelParams,
                   train_mode: bool = False, rng=None) -> Tensor:
    """Logits [B] for a batch of pairs."""
    vc = embed_inputs([p.clause for p in batch], model, TOWER_CLAUSE, train_mode, rng)
    vnc = embed_inputs([p.conj for p in batch], model, TOWER_CONJ, train_mode, rng)
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
