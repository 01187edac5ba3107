"""Minimal reverse-mode autodiff over numpy arrays.

Computation is float64; gradients are plain numpy arrays accumulated on
the leaves. Graphs are built dynamically (tree-shaped inputs wire a fresh
graph per example). Every op checks its result for NaN/Inf and raises
FloatingPointError on the spot, so a bad update is caught where it
happens rather than steps later.

A batch of sequences is packed, not padded: its tokens are the rows of
one [N, C] array, and a `Segments` layout says which rows belong to which
sequence. `conv_taps` and `segment_max` never mix rows of two sequences,
so nothing needs masking.

A convolution layer is one fused `conv_taps` node: tap sum, bias and
(for the CNN) ReLU, computed in place, with a backward that masks and
sums the bias gradient itself. Its bits are those of the three-node
graph it replaced. An op that has just allocated a gradient hands it to
`_accumulate` as `fresh`, and the first such gradient of a tensor is
kept, not copied.

`no_grad()` disables graph construction for inference paths, and
`grad_enabled()` says whether it is in force. With gradients off, the
models compute on plain arrays through the `*_array` kernels
(`conv_taps_array`, `segment_max_array`, `sigmoid_array`), which are the
forward halves of the `conv_taps`, `segment_max` and `sigmoid` nodes, so
both paths give the same bits. `check_finite` is the check every node
makes; the array path makes it before each ReLU, tanh and sigmoid, which
could hide a non-finite value.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """False inside `no_grad()`: ops then build no graph."""
    return _grad_enabled


def check_finite(a: np.ndarray) -> None:
    """Raise FloatingPointError if `a` holds a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite tensor value")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        check_finite(self.data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray, fresh: bool = False):
        """Add `g` to this tensor's gradient. `fresh` says that the caller
        has just allocated `g` and hands it to no one else, so the first
        gradient can be `g` itself; otherwise it is copied, because `g`
        may be a view, or handed to several parents."""
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _make(data, parents, backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, s) in enumerate(zip(g.shape, shape)):
        if s == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- arithmetic ----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape), fresh=True)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with 2-D b (weights); a may be 1-D, 2-D or batched 3-D."""
    if b.data.ndim != 2:
        raise ValueError("matmul expects a 2-D right operand")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T, fresh=True)
        if b.requires_grad:
            k = b.data.shape[0]
            a2 = a.data.reshape(-1, k)
            g2 = g.reshape(-1, b.data.shape[1])
            b._accumulate(a2.T @ g2, fresh=True)

    return _make(out_data, (a, b), backward)


# -- nonlinearities --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0), fresh=True)

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data**2), fresh=True)

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = sigmoid_array(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data), fresh=True)

    return _make(out_data, (a,), backward)


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """The logistic function, computed without overflow on either side."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- shape ops -------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor]) -> Tensor:
    out_data = np.stack([t.data for t in tensors])

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])

    return _make(out_data, tuple(tensors), backward)


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis."""
    out_data = a.data[..., start:stop]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[..., start:stop] = g
            a._accumulate(full, fresh=True)

    return _make(out_data, (a,), backward)


class Segments:
    """Sequences packed end to end as the rows of one [N, C] array: sequence
    b is rows starts[b] : starts[b] + lengths[b]. Empty sequences take no
    rows."""

    def __init__(self, lengths):
        self.lengths = np.array(lengths, dtype=np.intp)
        self.ends = self.lengths.cumsum()
        self.starts = self.ends - self.lengths
        self.n = int(self.ends[-1]) if len(self.ends) else 0
        self.max_len = int(self.lengths.max()) if len(self.ends) else 0
        self._taps: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
        self._tap_rows: dict[tuple[int, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def pos(self) -> np.ndarray:
        """Each row's position in its sequence."""
        return np.arange(self.n) - np.repeat(self.starts, self.lengths)

    def taps(self, size: int, dilation: int) -> tuple[int, int, tuple[int, ...]]:
        """The taps of a symmetric kernel of `size` taps at `dilation` that
        read inside some sequence: (lo, hi, their offsets). Tap j (0-based)
        reads the row dilation * (j + 1 - ceil(size/2)) places back; taps
        lo:hi are the live ones, the middle ones, as the others reach past
        every sequence."""
        plan = self._taps.get((size, dilation))
        if plan is None:
            center = (size + 1) // 2
            offsets = [dilation * (j - center) for j in range(1, size + 1)]
            live = [j for j, o in enumerate(offsets) if abs(o) < self.max_len]
            lo, hi = live[0], live[-1] + 1
            plan = self._taps[size, dilation] = (lo, hi, tuple(offsets[lo:hi]))
        return plan

    def tap_rows(self, offsets: tuple[int, ...]) -> np.ndarray:
        """[len(offsets), N]: entry [k, i] is the row that a shift by
        offsets[k] inside each sequence moves to row i, i - offsets[k], or
        N where that row lies outside i's own sequence (`_gather_rows`
        reads N as a zero row). The rows of a tuple and of its reverse are
        found at once: the backward of a kernel of odd size shifts by the
        forward's offsets negated, which is the forward's tuple reversed."""
        rows = self._tap_rows.get(offsets)
        if rows is None:
            src = np.arange(self.n) - np.array(offsets, dtype=np.intp)[:, None]
            end = np.repeat(self.ends, self.lengths)  # of each row's sequence
            inside = (src >= end - np.repeat(self.lengths, self.lengths)) & (src < end)
            rows = self._tap_rows[offsets] = np.where(inside, src, self.n)
            self._tap_rows.setdefault(offsets[::-1], rows[::-1])
        return rows

    def padded_rows(self) -> np.ndarray:
        """Each row's index in the flattened (B, max_len) padded layout."""
        return np.repeat(np.arange(len(self)) * self.max_len, self.lengths) + self.pos


def conv_taps(x: Tensor, w: Tensor, b: Tensor, segments: Segments, dilation: int = 1,
              relu: bool = False) -> Tensor:
    """One layer of a dilated, symmetric, zero-padded 1-D convolution over
    packed sequences: the tap sum, plus the bias, then a ReLU if `relu`.

    out_i = b + sum_j x_{i - dilation*(j - ceil(s/2))} @ w_j for j = 1..s,
    with `w` [s, C_in, C_out], `b` [C_out], x [N, C_in] the rows of
    `segments`, and a row read from outside i's own sequence counting as
    zero. The forward is `_conv_taps_forward`, which `conv_taps_array`
    shares.

    The bias add and the ReLU act in place on the tap sum, and the result
    has the bits of `relu(add(taps, b))` computed node by node; so has
    every gradient. The node is made, and so checked for non-finite
    values, before the ReLU, which would clip a -inf to zero.
    """
    s, c_in, c_out = w.data.shape
    n = x.data.shape[0]
    out_data, shifted = _conv_taps_forward(x.data, w.data, b.data, segments, dilation)
    lo, hi, shifts = segments.taps(s, dilation)

    def backward(g):
        if relu:
            g = g * (out_data > 0.0)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0), fresh=True)
        if x.requires_grad:
            # gt[i, j] is the output gradient tap j routes back to input row i
            gt = _gather_rows(g, segments.tap_rows(tuple(-o for o in shifts)).T)
            if hi - lo < s:
                gt = np.concatenate([np.zeros((n, lo, c_out)), gt,
                                     np.zeros((n, s - hi, c_out))], axis=1)
            w_flat = w.data.transpose(1, 0, 2).reshape(c_in, s * c_out)
            per_row = (n, 1) if segments.max_len == 1 else (n,)
            x._accumulate((gt.reshape(per_row + (s * c_out,)) @ w_flat.T).reshape(n, c_in),
                          fresh=True)
        if w.requires_grad:
            gw = np.empty(w.data.shape) if hi - lo == s else np.zeros(w.data.shape)
            np.matmul(shifted.transpose(0, 2, 1), g, out=gw[lo:hi])
            w._accumulate(gw, fresh=True)

    out = _make(out_data, (x, w, b), backward)  # checks the pre-activation
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    return out


def conv_taps_array(x: np.ndarray, w: np.ndarray, b: np.ndarray, segments: Segments,
                    dilation: int = 1, relu: bool = False) -> np.ndarray:
    """`conv_taps` on plain arrays, with its bits and its check for
    non-finite values before the ReLU; no graph."""
    out = _conv_taps_forward(x, w, b, segments, dilation)[0]
    check_finite(out)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _conv_taps_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, segments: Segments,
                       dilation: int) -> tuple[np.ndarray, np.ndarray]:
    """The pre-activation of a `conv_taps` layer [N, C_out], and the rows
    of x its live taps read [k, N, C_in], which the backward reuses.

    The shifted copies of x are gathered once, through `Segments.tap_rows`,
    onto a tap axis and multiplied by the taps in one matmul; each tap's
    product is then the BLAS call a lone `shift(x) @ w_j` makes over the
    packed rows. `np.add.reduce` over the outer tap axis adds the products
    one after another in tap order, so the sum is bit-identical to adding
    the per-tap products in a loop. (Multiplying x once by a
    [C_in, s*C_out] kernel would put a tap's columns elsewhere in the BLAS
    call, which can round them differently.) When no sequence is longer
    than one token, each row is multiplied on its own, as in its padded
    layout [B, 1, C].
    """
    lo, hi, shifts = segments.taps(len(w), dilation)
    shifted = _gather_rows(x, segments.tap_rows(shifts))
    if segments.max_len == 1:
        terms = np.matmul(shifted[:, :, None], w[lo:hi, None])[:, :, 0]
    else:
        terms = np.matmul(shifted, w[lo:hi])
    out = np.add.reduce(terms, axis=0)
    out += b
    return out, shifted


def _gather_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] over the rows of a with a zero row appended as row len(a):
    `rows.shape + a.shape[1:]`, written once."""
    ext = np.empty((len(a) + 1,) + a.shape[1:])
    ext[:-1] = a
    ext[-1] = 0.0
    return ext.take(rows, axis=0)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; gradient scatter-adds into the table. The scatter is a
    `np.bincount` over each gradient element's place in the table, which
    adds the elements in the order `np.add.at` would, so it has its bits."""
    idx = np.asarray(ids, dtype=np.intp)
    out_data = table.data.take(idx, axis=0)

    def backward(g):
        if table.requires_grad:
            v = table.data.shape[0]
            c = table.data.size // v
            places = (idx.reshape(-1, 1) * c + np.arange(c)).ravel()
            full = np.bincount(places, weights=g.ravel(), minlength=v * c)
            table._accumulate(full.reshape(table.data.shape), fresh=True)

    return _make(out_data, (table,), backward)


def segment_max(a: Tensor, segments: Segments) -> Tensor:
    """Max over each sequence's rows: [N, C] -> [B, C]. An empty sequence
    pools to zero. The gradient goes to the first row that attains the
    maximum, as `np.argmax` picks it: the least row of each (sequence,
    column) among the places that equal the maximum, found by one
    `np.minimum.at` over those places."""
    out_data = segment_max_array(a.data, segments)

    def backward(g):
        if a.requires_grad and segments.n:
            c = a.data.shape[1]
            hit = np.flatnonzero(a.data == np.repeat(out_data, segments.lengths, axis=0))
            row = hit // c
            owner = np.repeat(np.arange(len(segments)), segments.lengths)
            first = np.full((len(segments), c), segments.n)
            np.minimum.at(first.reshape(-1), owner[row] * c + (hit - row * c), row)
            full = segments.lengths > 0
            grad = np.zeros_like(a.data)
            grad[first[full], np.arange(c)] = g[full]
            a._accumulate(grad, fresh=True)

    return _make(out_data, (a,), backward)


def segment_max_array(a: np.ndarray, segments: Segments) -> np.ndarray:
    """The forward of `segment_max` on a plain array."""
    full = segments.lengths > 0
    if segments.n and full.all():
        return np.maximum.reduceat(a, segments.starts, axis=0)
    out = np.zeros((len(segments), a.shape[1]))
    if segments.n:
        out[full] = np.maximum.reduceat(a, segments.starts[full], axis=0)
    return out


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.asarray(a.data.mean())

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g) / n), fresh=True)

    return _make(out_data, (a,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy against sigmoid(logits), numerically stable."""
    z = logits.data
    y = np.asarray(targets, dtype=np.float64)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(per.mean())

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(float(g) * (sigmoid_array(z) - y) / z.size, fresh=True)

    return _make(out_data, (logits,), backward)
