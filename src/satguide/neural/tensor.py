"""Minimal reverse-mode autodiff over numpy arrays.

Computation is float64; gradients are plain numpy arrays accumulated on
the leaves. Graphs are built dynamically (tree-shaped inputs wire a fresh
graph per example). Every op checks its result for NaN/Inf and raises
FloatingPointError on the spot, so a bad update is caught where it
happens rather than steps later.

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

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a copy: `g` may be a view, or handed to several parents
            self.grad = np.array(g, dtype=np.float64)
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
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, k: float) -> Tensor:
    out_data = a.data * k

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * k)

    return _make(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with 2-D b (weights); a may be 1-D, 2-D or batched 3-D."""
    if b.data.ndim != 2:
        raise ValueError("matmul expects a 2-D right operand")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            k = b.data.shape[0]
            a2 = a.data.reshape(-1, k)
            g2 = g.reshape(-1, b.data.shape[1])
            b._accumulate(a2.T @ g2)

    return _make(out_data, (a, b), backward)


# -- nonlinearities --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data**2))

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

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
            a._accumulate(full)

    return _make(out_data, (a,), backward)


def _tap_rows(offset: int, t: int) -> tuple[slice, slice]:
    """(output rows, input rows) that a tap at `offset` connects:
    out[i] reads in[i - offset]; rows read from outside [0, t) are zero."""
    if offset >= 0:
        return slice(offset, t), slice(0, max(t - offset, 0))
    return slice(0, max(t + offset, 0)), slice(-offset, t)


def conv_taps(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """The tap sum of a dilated, symmetric, zero-padded 1-D convolution.

    out_i = sum_j x_{i - dilation*(j - ceil(s/2))} @ w_j for j = 1..s, with
    `w` [s, C_in, C_out] and time on the second-to-last axis of x ([T, C]
    or [B, T, C]). The shifted copies of x are stacked on a tap axis and
    multiplied by the taps in one matmul; each tap's product is then the
    BLAS call a lone `shift(x) @ w_j` makes, and the products are added in
    tap order, so the sum is bit-identical to adding the per-tap products
    one after another. (Multiplying x once by a [C_in, s*C_out] kernel
    would put a tap's columns elsewhere in the BLAS call, which can round
    them differently.)
    """
    s, c_in, c_out = w.data.shape
    t = x.data.shape[-2]
    center = (s + 1) // 2
    rows = [_tap_rows(dilation * (j - center), t) for j in range(1, s + 1)]
    shifted = np.zeros((s,) + x.data.shape)
    for j, (dst, src) in enumerate(rows):
        shifted[j][..., dst, :] = x.data[..., src, :]
    terms = np.matmul(shifted, w.data.reshape((s,) + (1,) * (x.data.ndim - 2) + (c_in, c_out)))
    out_data = terms[0].copy()
    for term in terms[1:]:
        out_data += term

    def backward(g):
        if x.requires_grad:
            # gt[..., i, j, :] is the output gradient tap j routes back to input row i
            gt = np.zeros(g.shape[:-1] + (s, c_out))
            for j, (dst, src) in enumerate(rows):
                gt[..., src, j, :] = g[..., dst, :]
            w_flat = w.data.transpose(1, 0, 2).reshape(c_in, s * c_out)
            x._accumulate(gt.reshape(g.shape[:-1] + (s * c_out,)) @ w_flat.T)
        if w.requires_grad:
            w._accumulate(np.matmul(shifted.reshape(s, -1, c_in).transpose(0, 2, 1),
                                    g.reshape(-1, c_out)))

    return _make(out_data, (x, w), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; gradient scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.intp)
    out_data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table._accumulate(full)

    return _make(out_data, (table,), backward)


def max_time(a: Tensor, lengths=None) -> Tensor:
    """Max over the time axis.

    [T, C] -> [C]; [B, T, C] with `lengths` -> [B, C] where row b pools
    x[b, :lengths[b]]. Zero-length rows pool to zero.
    """
    if a.data.ndim == 2:
        if a.data.shape[0] == 0:
            return constant(np.zeros(a.data.shape[1]))
        am = np.argmax(a.data, axis=0)
        out_data = a.data[am, np.arange(a.data.shape[1])]

        def backward2(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[am, np.arange(a.data.shape[1])] = g
                a._accumulate(full)

        return _make(out_data, (a,), backward2)

    b, t, c = a.data.shape
    lens = np.full(b, t, dtype=int) if lengths is None else np.asarray(lengths, dtype=int)
    out_data = np.zeros((b, c))
    arg = np.zeros((b, c), dtype=int)
    valid = lens > 0
    for i in range(b):
        if lens[i] > 0:
            seg = a.data[i, : lens[i]]
            arg[i] = np.argmax(seg, axis=0)
            out_data[i] = seg[arg[i], np.arange(c)]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            cols = np.arange(c)
            for i in range(b):
                if valid[i]:
                    full[i, arg[i], cols] = g[i]
            a._accumulate(full)

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
            a._accumulate(np.full_like(a.data, float(g) / n))

    return _make(out_data, (a,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy against sigmoid(logits), numerically stable."""
    z = logits.data
    y = np.asarray(targets, dtype=np.float64)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(per.mean())

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(float(g) * (_sigmoid(z) - y) / z.size)

    return _make(out_data, (logits,), backward)
