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
sequence. Each convolution layer is one fused `tensor.conv_taps` node:
taps, bias and, in the CNN, the ReLU.

With gradients on, the sequence towers and the combiner build an autodiff
graph. With gradients off (`tensor.no_grad()`, as in guided search and
evaluation) the same code runs on the parameters' plain arrays through the
forward kernels the graph nodes call (`tensor.conv_taps_array`,
`tensor.segment_max_array`, ...), so it gives the same bits, checks for
non-finite values before each ReLU, tanh and sigmoid, and wraps only the
result in a Tensor. `_GRAPH` and `_ARRAYS` are the two op tables the
code is written over; the tree towers always build a graph.

Dropout acts in training only: `token_dropout` drops whole tokens of a
sequence tower, `feature_dropout` drops features at the input of each
WaveNet block. `ModelConfig` refuses a rate outside [0, 1], and a
nonzero rate on an architecture that does not read it: either rate on a
tree architecture, `feature_dropout` on the CNN.

Parameters are stored as float32-representable float64 values so that
checkpoints (float32 blobs) round-trip without changing a single score.
They live in one flat buffer that every parameter array is a view into
(`ModelParams.flat`).
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
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
    """The parameters of a model, in one flat float64 buffer.

    Every parameter's `data` is a view into `flat`, in `params` order, so
    `quantize`, `clone` and the Adam update each act on the whole buffer
    at once. A caller may still rebind a parameter's `data` to a new array
    of the same shape; `buffer()` copies such an array back in and makes
    the parameter a view again.
    """

    config: ModelConfig
    params: dict[str, Tensor]
    vocab_hash: str = ""
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate([p.data.ravel() for p in self.params.values()])
        self._views = []
        at = 0
        for p in self.params.values():
            p.data = self.flat[at : at + p.data.size].reshape(p.data.shape)
            self._views.append(p.data)
            at += p.data.size

    def buffer(self) -> np.ndarray:
        """`flat`, after copying in any parameter array a caller rebound."""
        for p, view in zip(self.params.values(), self._views):
            if p.data is not view:
                if p.data.shape != view.shape:
                    raise ValueError(f"parameter shape {p.data.shape} is not {view.shape}")
                view[...] = p.data
                p.data = view
        return self.flat

    def named_arrays(self):
        for name, p in self.params.items():
            yield name, p.data

    def quantize(self):
        """Clamp parameters to float32-representable values; pin PAD row."""
        flat = self.buffer()
        flat[...] = flat.astype(np.float32)
        self.params["embedding"].data[PAD_ID] = 0.0

    def clone(self) -> "ModelParams":
        """An independent copy: one copy of the buffer."""
        self.buffer()
        copies = {k: T.parameter(p.data) for k, p in self.params.items()}
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


# -- op tables ---------------------------------------------------------------------


def _relu_array(a: np.ndarray) -> np.ndarray:
    """ReLU in place, after the check for non-finite values that the graph
    makes on the ReLU's input node."""
    T.check_finite(a)
    return np.maximum(a, 0.0, out=a)


# The ops the sequence towers and the combiner are written in. `_GRAPH`
# builds autodiff nodes over `ModelParams.params`; `_ARRAYS` computes on
# the parameters' arrays through the forward kernels of those nodes, so
# both give the same bits. `result` makes the Tensor a caller gets.
_Ops = namedtuple("_Ops", "weights embedding conv_taps segment_max add sub mul matmul "
                          "concat tanh sigmoid relu constant result")
_GRAPH = _Ops(lambda model: model.params, T.embedding, T.conv_taps, T.segment_max,
              T.add, T.sub, T.mul, T.matmul, T.concat, T.tanh, T.sigmoid, T.relu,
              T.constant, lambda out: out)
_ARRAYS = _Ops(lambda model: dict(model.named_arrays()),
               lambda table, ids: table.take(ids, axis=0), T.conv_taps_array,
               T.segment_max_array, np.add, np.subtract, np.multiply, np.matmul,
               np.concatenate, np.tanh, T.sigmoid_array, _relu_array,
               lambda a: a, T.constant)


def _ops() -> _Ops:
    """The op table for the gradient mode in force."""
    return _GRAPH if T.grad_enabled() else _ARRAYS


# -- convolutions ----------------------------------------------------------------


def _dropout(rng: np.random.Generator, segments: T.Segments, width: int,
             rate: float) -> np.ndarray:
    """A keep mask for the packed rows. It is drawn over the padded
    (B, max_len, width) shape and gathered to the rows that hold a token,
    so the random stream does not depend on the packing."""
    keep = rng.random((len(segments), segments.max_len, width)) >= rate
    return keep.reshape(-1, width)[segments.padded_rows()].astype(np.float64)


def _cnn_tower(x, p: dict, cfg: ModelConfig, tower: str, segments: T.Segments, ops: _Ops):
    for i in range(cfg.cnn_layers):
        x = ops.conv_taps(x, p[f"{tower}.conv{i}.w"], p[f"{tower}.conv{i}.b"], segments,
                          relu=True)
    return x


def _wavenet_layer(x, p: dict, name: str, dilation: int, segments: T.Segments, ops: _Ops):
    filt = ops.conv_taps(x, p[f"{name}.filter.w"], p[f"{name}.filter.b"], segments, dilation)
    gate = ops.conv_taps(x, p[f"{name}.gate.w"], p[f"{name}.gate.b"], segments, dilation)
    return ops.add(x, ops.mul(ops.tanh(filt), ops.sigmoid(gate)))


def _wavenet_block(x, p: dict, cfg: ModelConfig, tower: str, b: int, segments: T.Segments,
                   feature_mask, ops: _Ops):
    """One block: layer stack over the (possibly feature-dropped) input,
    dilation doubling per layer; the block residual carries the undropped
    input, so zero weights leave the block an exact identity."""
    y0 = x if feature_mask is None else ops.mul(x, feature_mask)
    y = y0
    dilation = 1
    for l in range(cfg.wavenet_layers):
        y = _wavenet_layer(y, p, f"{tower}.b{b}.l{l}", dilation, segments, ops)
        dilation *= 2
    return ops.add(x, ops.sub(y, y0))


def _wavenet_tower(x, p: dict, cfg: ModelConfig, tower: str, segments: T.Segments,
                   train_mode: bool, rng: np.random.Generator | None, ops: _Ops):
    for b in range(cfg.wavenet_blocks):
        feature_mask = None
        if train_mode and cfg.feature_dropout > 0.0:
            feature_mask = ops.constant(_dropout(rng, segments, cfg.dim, cfg.feature_dropout))
        x = _wavenet_block(x, p, cfg, tower, b, segments, feature_mask, ops)
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

    With gradients off the towers run on plain arrays (see the module
    docstring), with the same bits.
    """
    cfg = model.config
    if cfg.arch not in SEQ_ARCHS:
        raise ValueError(f"embed_sequences needs a sequence architecture, got {cfg.arch}")
    lengths = np.fromiter(map(len, batch_ids), dtype=np.intp, count=len(batch_ids))
    tokens = np.fromiter(chain.from_iterable(batch_ids), dtype=np.intp, count=lengths.sum())
    content = tokens != PAD_ID
    if not content.all():
        owner = np.repeat(np.arange(len(batch_ids)), lengths)
        lengths = np.bincount(owner[content], minlength=len(batch_ids))
        tokens = tokens[content]
    segments = T.Segments(lengths)
    if segments.n == 0:
        return T.constant(np.zeros((len(batch_ids), cfg.dim)))
    ops = _ops()
    p = ops.weights(model)
    x = ops.embedding(p["embedding"], tokens)
    if train_mode and cfg.token_dropout > 0.0:
        x = ops.mul(x, ops.constant(_dropout(rng, segments, 1, cfg.token_dropout)))
    if cfg.arch == ARCH_CNN:
        x = _cnn_tower(x, p, cfg, tower, segments, ops)
    else:
        x = _wavenet_tower(x, p, cfg, tower, segments, train_mode, rng, ops)
    return ops.result(ops.segment_max(x, segments))


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
    """The usefulness logit; p(useful) is its sigmoid. With gradients off it
    is computed on plain arrays, with the same bits."""
    ops = _ops()
    p = ops.weights(model)
    if ops is _ARRAYS:
        clause_vec, conj_vec = clause_vec.data, conj_vec.data
    h = ops.concat([clause_vec, conj_vec], axis=-1)
    h = ops.relu(ops.add(ops.matmul(h, p["comb.1.w"]), p["comb.1.b"]))
    return ops.result(ops.add(ops.matmul(h, p["comb.2.w"]), p["comb.2.b"]))


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
