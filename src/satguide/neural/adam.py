"""Adam with bias-corrected moment estimates."""

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
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(model: ModelParams, lr: float = 1e-4) -> AdamState:
    state = AdamState(lr)
    for name, arr in model.named_arrays():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(model: ModelParams, grads: dict[str, np.ndarray], state: AdamState):
    """One in-place update. Parameters stay float32-representable so
    checkpointing never perturbs them."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in model.params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.data = p.data - update
    model.quantize()
