"""ParamStore state, Adam updates, checkpoint format."""

import numpy as np
import pytest

from mvclust import ParamStore


def _store_with(name="p", value=None):
    store = ParamStore()
    store.add(name, np.zeros(3) if value is None else value)
    return store


def test_shapes_shared_and_zero_after_zero_grads():
    store = _store_with(value=np.ones((2, 3)))
    store.accumulate_grad("p", np.full((2, 3), 5.0))
    m, v = store.moments("p")
    assert store.grad("p").shape == store["p"].shape == m.shape == v.shape
    store.zero_grads()
    assert np.all(store.grad("p") == 0.0)


def test_duplicate_and_bad_names_rejected():
    store = _store_with()
    with pytest.raises(ValueError):
        store.add("p", np.ones(2))
    with pytest.raises(ValueError):
        store.add("", np.ones(2))


def test_adam_zero_gradient_fresh_moments_is_noop():
    store = _store_with(value=np.array([1.0, -2.0, 3.0]))
    store.adam_step(0.1)
    assert np.array_equal(store["p"], [1.0, -2.0, 3.0])
    assert store.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected m/sqrt(v) is sign(g) on the first step, so with a
    # vanishing epsilon every coordinate moves by exactly lr
    store = _store_with(value=np.zeros(3))
    store.accumulate_grad("p", np.array([0.5, -3.0, 1e-4]))
    store.adam_step(0.01, epsilon=1e-16)
    assert store["p"] == pytest.approx([-0.01, 0.01, -0.01], rel=1e-9)


def test_adam_three_steps_match_scripted_recurrence():
    # minimize x^2/2 from x=1 with lr 0.1 and default hyperparameters
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 4):
        grad = x
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        expected.append(x)

    store = _store_with(value=np.array([1.0]))
    got = []
    for _ in range(3):
        store.zero_grads()
        store.accumulate_grad("p", store["p"].copy())
        store.adam_step(lr)
        got.append(float(store["p"][0]))
    assert got == pytest.approx(expected, abs=1e-14)


def test_adam_leaves_gradients_intact():
    store = _store_with(value=np.zeros(3))
    store.accumulate_grad("p", np.array([1.0, 2.0, 3.0]))
    store.adam_step(0.1)
    assert np.array_equal(store.grad("p"), [1.0, 2.0, 3.0])


def test_adam_hyperparameter_validation():
    store = _store_with()
    for kwargs in (
        {"learning_rate": 0.0},
        {"learning_rate": 0.1, "beta1": 1.0},
        {"learning_rate": 0.1, "beta2": 0.0},
        {"learning_rate": 0.1, "epsilon": 0.0},
    ):
        with pytest.raises(ValueError):
            store.adam_step(**kwargs)


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("w", rng.standard_normal((3, 4)))
    store.add("b", rng.standard_normal(4))
    store.accumulate_grad("w", rng.standard_normal((3, 4)))
    store.accumulate_grad("b", rng.standard_normal(4))
    for _ in range(3):
        store.adam_step(0.05)
    path = tmp_path / "ckpt.bin"
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded.step == store.step
    assert sorted(loaded.names()) == sorted(store.names())
    for name in store.names():
        assert np.array_equal(loaded[name], store[name])
        for got, want in zip(loaded.moments(name), store.moments(name)):
            assert np.array_equal(got, want)


def test_checkpoint_bytes_stable(tmp_path):
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("z", rng.standard_normal(5))
    store.add("a", rng.standard_normal((2, 2)))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save(p1)
    store.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_without_moments(tmp_path):
    store = _store_with(value=np.arange(3.0))
    store.accumulate_grad("p", np.ones(3))
    store.adam_step(0.1)
    path = tmp_path / "values.bin"
    store.save(path, include_moments=False)
    loaded = ParamStore.load(path)
    assert np.array_equal(loaded["p"], store["p"])
    m, v = loaded.moments("p")
    assert np.all(m == 0.0) and np.all(v == 0.0)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        ParamStore.load(path)
