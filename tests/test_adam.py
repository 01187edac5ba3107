"""Adam updates."""

import numpy as np

from satguide.neural import tensor as T
from satguide.neural.adam import BETA1, BETA2, EPS, adam_init, adam_step
from satguide.neural.models import ModelConfig, ModelParams, init_model

from oracles import adam_step_per_array


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


def test_flat_step_matches_per_array_step():
    # 50 steps of random gradients, some of them zero or tiny, against the
    # per-array update: parameters and both moments, bit for bit
    model = init_model(ModelConfig(arch="cnn", vocab_size=9, dim=5, hidden=7, seed=2))
    names = list(model.params)
    params = {k: v.copy() for k, v in model.named_arrays()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    state = adam_init(model, lr=3e-3)
    rng = np.random.default_rng(8)
    for t in range(1, 51):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=a.shape)
                 for k, a in params.items()}
        grads[names[t % len(names)]][...] = 0.0
        adam_step(model, grads, state)
        params = adam_step_per_array(params, grads, m, v, 3e-3, t)
        for name, arr in model.named_arrays():
            np.testing.assert_array_equal(arr.view(np.int64), params[name].view(np.int64))
    flat_m = np.concatenate([m[k].ravel() for k in names])
    flat_v = np.concatenate([v[k].ravel() for k in names])
    np.testing.assert_array_equal(state.m.view(np.int64), flat_m.view(np.int64))
    np.testing.assert_array_equal(state.v.view(np.int64), flat_v.view(np.int64))


def test_parameters_are_views_of_one_buffer():
    model = tiny_model()
    assert sum(a.size for _, a in model.named_arrays()) == model.flat.size
    for _, arr in model.named_arrays():
        assert arr.base is model.flat
    # a rebound array is copied back into the buffer by the next quantize
    model.params["comb.2.b"].data = np.array([0.1])
    model.quantize()
    assert model.flat[-1] == np.float32(0.1)
    assert model.params["comb.2.b"].data.base is model.flat
    twin = model.clone()
    assert twin.flat is not model.flat
    np.testing.assert_array_equal(twin.flat, model.flat)
