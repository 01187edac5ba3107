"""Adam updates."""

import numpy as np

from satguide.neural import tensor as T
from satguide.neural.adam import BETA1, BETA2, EPS, adam_init, adam_step
from satguide.neural.models import ModelConfig, ModelParams, init_model


def tiny_model():
    return init_model(ModelConfig(arch="cnn", vocab_size=6, dim=3, hidden=4, seed=0))


def zero_grads_like(model):
    return {name: np.zeros_like(arr) for name, arr in model.named_arrays()}


def test_zero_gradients_leave_parameters_unchanged():
    model = tiny_model()
    before = {k: v.copy() for k, v in model.named_arrays()}
    state = adam_init(model, lr=1e-2)
    adam_step(model, zero_grads_like(model), state)
    for name, arr in model.named_arrays():
        np.testing.assert_array_equal(arr, before[name])


def test_first_step_magnitude_is_lr():
    # single scalar parameter, g=1, t=1: bias corrections cancel, step = lr
    scalar = ModelParams(
        config=ModelConfig(arch="cnn", vocab_size=1, dim=1),
        params={"embedding": T.parameter(np.zeros((1, 1))), "w": T.parameter(np.array([0.5]))},
        vocab_hash="",
    )
    state = adam_init(scalar, lr=1e-4)
    grads = {"embedding": np.zeros((1, 1)), "w": np.array([1.0])}
    adam_step(scalar, grads, state)
    delta = 0.5 - scalar.params["w"].data[0]
    # float32 storage granularity near 0.5 is ~6e-8
    assert abs(delta - 1e-4) < 1e-7


def test_step_counter_increments_by_one():
    model = tiny_model()
    state = adam_init(model)
    for expected in (1, 2, 3):
        adam_step(model, zero_grads_like(model), state)
        assert state.step == expected


def test_default_hyperparameters():
    state = adam_init(tiny_model())
    assert (state.lr, BETA1, BETA2, EPS) == (1e-4, 0.9, 0.999, 1e-8)


def test_pad_row_pinned_to_zero():
    model = tiny_model()
    state = adam_init(model, lr=0.1)
    grads = zero_grads_like(model)
    grads["embedding"] = np.ones_like(grads["embedding"])
    adam_step(model, grads, state)
    np.testing.assert_array_equal(model.params["embedding"].data[0], 0.0)
    assert np.abs(model.params["embedding"].data[1]).max() > 0


def test_parameters_stay_float32_representable():
    model = tiny_model()
    state = adam_init(model, lr=1e-3)
    rng = np.random.default_rng(0)
    grads = {k: rng.normal(size=v.shape) for k, v in model.named_arrays()}
    adam_step(model, grads, state)
    for _, arr in model.named_arrays():
        np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))
