"""Adam with bias-corrected moment estimates.

The moments are flat arrays laid out like `ModelParams.flat`, and a step
is a handful of in-place ufuncs over the whole buffer, with scratch
arrays allocated once. Each element sees the operations of the textbook
per-array update in the same order, so the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-4
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # the flat gradient and the step, reused by every step
    scratch: tuple[np.ndarray, ...] = field(default=(), repr=False)


def adam_init(model: ModelParams, lr: float = 1e-4) -> AdamState:
    size = model.flat.size
    return AdamState(lr, 0, np.zeros(size), np.zeros(size), (np.empty(size), np.empty(size)))


def adam_step(model: ModelParams, grads: dict[str, np.ndarray], state: AdamState):
    """One in-place update. Parameters stay float32-representable so
    checkpointing never perturbs them."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    pieces = []
    for name, p in model.params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        pieces.append(g.ravel())
    grad, step = state.scratch
    np.concatenate(pieces, out=grad)
    m, v = state.m, state.v
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=step)
    m += step
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=step)
    step *= grad
    v += step
    # step = lr * (m / bc1) / (sqrt(v / bc2) + EPS); the gradient is done
    # with, and its array holds the denominator
    np.divide(m, bc1, out=step)
    step *= state.lr
    denom = np.divide(v, bc2, out=grad)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    params = model.buffer()
    params -= step
    model.quantize()
