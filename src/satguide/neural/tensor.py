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

`no_grad()` disables graph construction for inference paths.
"""

from __future__ import annotations

from contextlib import contextmanager

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise FloatingPointError("non-finite tensor value")
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
    out_data = _sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data), fresh=True)

    return _make(out_data, (a,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
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
        ends = self.lengths.cumsum()
        self.starts = ends - self.lengths
        self.n = int(ends[-1]) if len(ends) else 0
        self.max_len = int(self.lengths.max()) if len(ends) else 0
        self.pos = np.arange(self.n) - np.repeat(self.starts, self.lengths)  # in its sequence
        self._tap_rows: dict[tuple[int, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    def tap_rows(self, offsets: tuple[int, ...]) -> np.ndarray:
        """[len(offsets), N]: entry [k, i] is the row that a shift by
        offsets[k] inside each sequence moves to row i, i - offsets[k], or
        N where that row lies outside i's own sequence (`_gather_rows`
        reads N as a zero row). The rows of a tuple and of its reverse are
        found at once: the backward of a symmetric kernel shifts by the
        forward's offsets negated, which is the forward's tuple reversed."""
        rows = self._tap_rows.get(offsets)
        if rows is None:
            o = np.array(offsets, dtype=np.intp)[:, None]
            ahead = np.repeat(self.lengths, self.lengths) - self.pos  # rows to the end
            outside = (self.pos < o) | (ahead <= -o)
            rows = np.where(outside, self.n, np.arange(self.n) - o)
            self._tap_rows[offsets] = rows
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
    zero. The shifted copies of x are gathered once, through
    `Segments.tap_rows`, onto a tap axis and multiplied by the taps in one
    matmul; each tap's product is then the BLAS call a lone
    `shift(x) @ w_j` makes over the packed rows, and the products are
    added in tap order, so the sum is bit-identical to adding the per-tap
    products one after another. (Multiplying x once by a [C_in, s*C_out]
    kernel would put a tap's columns elsewhere in the BLAS call, which can
    round them differently.) Taps that reach past every sequence are
    skipped. When no sequence is longer than one token, each row is
    multiplied on its own, as in its padded layout [B, 1, C].

    The bias add and the ReLU act in place on the tap sum, and the result
    has the bits of `relu(add(taps, b))` computed node by node; so has
    every gradient. The node is made, and so checked for non-finite
    values, before the ReLU, which would clip a -inf to zero.
    """
    s, c_in, c_out = w.data.shape
    n = x.data.shape[0]
    center = (s + 1) // 2
    offsets = [dilation * (j - center) for j in range(1, s + 1)]
    live = [j for j, o in enumerate(offsets) if abs(o) < segments.max_len]
    lo, hi = live[0], live[-1] + 1  # the live taps are the middle ones
    shifts = tuple(offsets[lo:hi])
    shifted = _gather_rows(x.data, segments.tap_rows(shifts))  # [k, N, C_in]
    rows = (n, 1) if segments.max_len == 1 else (n,)
    taps = w.data[lo:hi].reshape((hi - lo,) + (1,) * (len(rows) - 1) + (c_in, c_out))
    terms = np.matmul(shifted.reshape((hi - lo,) + rows + (c_in,)), taps).reshape(
        hi - lo, n, c_out)
    out_data = terms[0] if hi - lo == 1 else terms[0] + terms[1]
    for term in terms[2:]:
        out_data += term
    out_data += b.data

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
            x._accumulate((gt.reshape(rows + (s * c_out,)) @ w_flat.T).reshape(n, c_in),
                          fresh=True)
        if w.requires_grad:
            gw = np.empty(w.data.shape) if hi - lo == s else np.zeros(w.data.shape)
            np.matmul(shifted.transpose(0, 2, 1), g, out=gw[lo:hi])
            w._accumulate(gw, fresh=True)

    out = _make(out_data, (x, w, b), backward)  # checks the pre-activation
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    return out


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
    out_data = table.data[idx]

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
    maximum, as `np.argmax` picks it."""
    full = segments.lengths > 0
    starts = segments.starts[full]
    out_data = np.zeros((len(segments), a.data.shape[1]))
    if starts.size:
        out_data[full] = np.maximum.reduceat(a.data, starts, axis=0)

    def backward(g):
        if a.requires_grad and starts.size:
            hit = a.data == np.repeat(out_data, segments.lengths, axis=0)
            rows = np.where(hit, np.arange(segments.n)[:, None], segments.n)
            first = np.minimum.reduceat(rows, starts, axis=0)
            grad = np.zeros_like(a.data)
            grad[first, np.arange(a.data.shape[1])] = g[full]
            a._accumulate(grad, fresh=True)

    return _make(out_data, (a,), backward)


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
            logits._accumulate(float(g) * (_sigmoid(z) - y) / z.size, fresh=True)

    return _make(out_data, (logits,), backward)
