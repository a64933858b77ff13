"""ParamStore state, Adam updates, checkpoint format."""

import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from mvclust import ParamStore
from mvclust.numgrad.params import ADAM_EPSILON, _BLOCK


def _store_with(name="p", value=None):
    return ParamStore([(name, np.zeros(3) if value is None else value)])


def test_shapes_shared_and_zero_after_zero_grads():
    store = _store_with(value=np.ones((2, 3)))
    store.grad("p")[...] = np.full((2, 3), 5.0)
    m, v = store.moments("p")
    assert store.grad("p").shape == store["p"].shape == m.shape == v.shape
    store.zero_grads()
    assert np.all(store.grad("p") == 0.0)


def test_duplicate_and_bad_names_rejected():
    with pytest.raises(ValueError, match="'p' already exists"):
        ParamStore([("p", np.zeros(3)), ("p", np.ones(2))])
    with pytest.raises(ValueError, match="invalid parameter name"):
        ParamStore([("", np.ones(2))])


def test_set_value_of_another_shape_is_refused_and_keeps_the_value():
    store = _store_with(value=np.ones((2, 3)))
    with pytest.raises(ValueError) as caught:
        store.set_value("p", np.zeros((3, 2)))
    assert str(caught.value) == "shape mismatch for 'p': (3, 2) vs (2, 3)"
    assert np.all(store["p"] == 1.0)


def test_views_share_memory_with_the_arena():
    store = ParamStore([("a", np.ones((2, 3))), ("b", np.arange(4.0))])
    for name in store.names():
        m, v = store.moments(name)
        for view, arena in ((store[name], store._value), (store.grad(name), store._grad), (m, store._m), (v, store._v)):
            assert np.shares_memory(view, arena)
    store["b"][1] = 7.0  # "b" starts after the 6 elements of "a"
    store.grad("b")[...] = np.ones(4)
    assert store._value[6 + 1] == 7.0 and np.array_equal(store._grad[6:], np.ones(4))
    store.zero_grads()
    assert not store._grad.any()


def test_zeros_lays_out_zeroed_arenas_in_the_order_of_its_shapes():
    store = ParamStore.zeros({"w": (2, 3), "b": (3,)}, np.float32)
    assert store.names() == ["w", "b"] and store.dtype == np.float32 and store.step == 0
    assert store["w"].shape == (2, 3) and store._value.size == 9
    for arena in (store._value, store._grad, store._m, store._v):
        assert arena.dtype == np.float32 and not arena.any()
    empty = ParamStore.zeros({})
    assert len(empty) == 0 and empty._value.size == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_writes_its_own_copy_of_the_arenas():
    # the arenas are private mappings: a shared one would show the child's writes
    store = ParamStore([("p", np.zeros(3))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() in a process with BLAS threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            store["p"][...] = 7.0
            store.grad("p")[...] = 7.0
            store.moments("p")[0][...] = 7.0
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    for arena in (store._value, store._grad, store._m, store._v):
        assert not arena.any()


def test_store_copies_its_input():
    value = np.zeros(3)
    store = ParamStore([("p", value)])
    store["p"][0] = 1.0
    assert value[0] == 0.0


def test_arena_adam_equals_per_parameter_reference():
    # parameter sizes straddle the block size and do not divide it, so
    # blocks cut across parameters
    rng = np.random.default_rng(4)
    shapes = {"a": (_BLOCK - 3,), "b": (5, 7), "c": (3, _BLOCK // 3 + 11), "d": (1,), "e": (_BLOCK + 1,)}
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    store = ParamStore(values.items())
    ref = {name: [x.copy(), np.zeros(x.shape), np.zeros(x.shape)] for name, x in values.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 5):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for name, shape in shapes.items():
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3)
            store.grad(name)[...] = g
            x, m, v = ref[name]
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * (g * g)
            x = x - (lr * (m / c1)) / (np.sqrt(v / c2) + eps)
            ref[name] = [x, m, v]
        store.adam_step(lr)
        for name, (x, m, v) in ref.items():
            assert np.array_equal(store[name], x)
            assert np.array_equal(store.moments(name)[0], m)
            assert np.array_equal(store.moments(name)[1], v)


def test_clone_copies_every_arena():
    store = ParamStore([("w", np.ones((2, 2))), ("b", np.zeros(2))])
    store.grad("w")[...] = np.full((2, 2), 0.5)
    store.adam_step(0.1)
    copy = store.clone()
    assert copy.step == store.step
    for name in store.names():
        assert np.array_equal(copy[name], store[name])
        assert np.array_equal(copy.grad(name), store.grad(name))
        for got, want in zip(copy.moments(name), store.moments(name)):
            assert np.array_equal(got, want)
    copy["w"][...] = 9.0
    assert np.all(store["w"] != 9.0)


def test_adam_zero_gradient_fresh_moments_is_noop():
    store = _store_with(value=np.array([1.0, -2.0, 3.0]))
    store.adam_step(0.1)
    assert np.array_equal(store["p"], [1.0, -2.0, 3.0])
    assert store.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected m/sqrt(v) is g/|g| on the first step, so every
    # coordinate moves by lr*|g|/(|g|+eps): lr but for the epsilon
    g = np.array([0.5, -3.0, 1e-4])
    store = _store_with(value=np.zeros(3))
    store.grad("p")[...] = g
    store.adam_step(0.01)
    assert store["p"] == pytest.approx(-np.sign(g) * 0.01 * np.abs(g) / (np.abs(g) + ADAM_EPSILON), rel=1e-9)


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
        store.grad("p")[...] = store["p"].copy()
        store.adam_step(lr)
        got.append(float(store["p"][0]))
    assert got == pytest.approx(expected, abs=1e-14)


def test_adam_leaves_gradients_intact():
    store = _store_with(value=np.zeros(3))
    store.grad("p")[...] = np.array([1.0, 2.0, 3.0])
    store.adam_step(0.1)
    assert np.array_equal(store.grad("p"), [1.0, 2.0, 3.0])


def test_adam_hyperparameter_validation():
    # an infinite rate would turn every parameter into NaN with only a warning
    store = _store_with()
    for rate in (0.0, -1e-3, float("inf"), float("nan"), np.float32("inf"), 10**400):
        named = re.escape(f"learning_rate must be a finite number > 0, got {rate!r}")
        with pytest.raises(ValueError, match=f"^{named}$"):
            store.adam_step(learning_rate=rate)
    assert store.step == 0 and np.all(np.isfinite(store["p"]))


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore([("w", rng.standard_normal((3, 4))), ("b", rng.standard_normal(4))])
    store.grad("w")[...] = rng.standard_normal((3, 4))
    store.grad("b")[...] = rng.standard_normal(4)
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
    store = ParamStore([("z", rng.standard_normal(5)), ("a", rng.standard_normal((2, 2)))])
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save(p1)
    store.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_without_moments(tmp_path):
    store = _store_with(value=np.arange(3.0))
    store.grad("p")[...] = np.ones(3)
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


def _small_store():
    return ParamStore([("alpha", np.arange(6.0).reshape(2, 3)), ("beta", np.arange(4.0))])


def _saved(tmp_path, include_moments=True):
    path = tmp_path / "ckpt.bin"
    _small_store().save(path, include_moments=include_moments)
    return path, path.read_bytes()


# the checkpoint sizes of _small_store, with and without moments
_SMALL_SIZE = {m: len(b"".join(_small_store()._checkpoint_chunks(m))) for m in (True, False)}


@pytest.mark.parametrize(
    "include_moments, cut", [(m, cut) for m, size in _SMALL_SIZE.items() for cut in range(size)]
)
def test_every_proper_prefix_of_a_checkpoint_is_refused_naming_the_file(tmp_path, include_moments, cut):
    path, raw = _saved(tmp_path, include_moments)
    assert len(raw) == _SMALL_SIZE[include_moments]
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError) as info:
        ParamStore.load(path)
    assert str(path) in str(info.value)


def _checkpoint_of_names(*raw_names):
    """The bytes of a checkpoint without moments whose parameters are one
    zero each, named by the raw (unchecked) name bytes given."""
    parts = [b"NGPS", struct.pack("<IIQI", 1, 0, 0, len(raw_names))]
    for raw in raw_names:
        parts += [struct.pack(f"<H{len(raw)}sBQ", len(raw), raw, 1, 1), struct.pack("<d", 0.0)]
    return b"".join(parts)


@pytest.mark.parametrize(
    "names, message",
    [
        ((b"a", b"\xff"), "the name of parameter 2 of 2 is not UTF-8"),
        ((b"a", b"b", b"a"), "parameter 3 of 3 repeats the name 'a'"),
        ((b"",), "parameter 1 of 1 has an empty name"),
    ],
    ids=["not-utf8", "repeated", "empty"],
)
def test_checkpoint_with_a_bad_name_names_file_and_index(tmp_path, names, message):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(_checkpoint_of_names(*names))
    with pytest.raises(ValueError, match=rf"ckpt\.bin: {message}$"):
        ParamStore.load(path)


def test_load_allocates_only_the_stores_arenas(tmp_path):
    # the checkpoint with moments is 4.8 MB: the arenas are page mappings,
    # which tracemalloc does not see, so a load that held the file as bytes
    # would exceed the 1 MB of slack
    rng = np.random.default_rng(3)
    store = ParamStore([("w", rng.standard_normal((500, 400))), ("b", rng.standard_normal(400))])
    store.grad("w")[...] = np.ones((500, 400))
    store.adam_step(0.1)
    path = tmp_path / "big.bin"
    store.save(path)
    tracemalloc.start()
    try:
        loaded = ParamStore.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    for name in store.names():
        assert np.array_equal(loaded[name], store[name])
        for got, want in zip(loaded.moments(name), store.moments(name)):
            assert np.array_equal(got, want)


def test_checkpoint_truncated_in_a_header_names_file_and_parameter(tmp_path):
    path, raw = _saved(tmp_path)
    # "alpha": 24-byte file header, then u16 + 5 name bytes + u8 + 2 dims,
    # then 3 * 6 doubles; the cut falls inside beta's dims
    cut = 24 + 2 + 5 + 1 + 16 + 3 * 6 * 8 + 2 + 4 + 1 + 4
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match=r"truncated.*ckpt\.bin.*header of parameter 'beta'"):
        ParamStore.load(path)
    # a cut inside beta's name leaves only its position to name it
    path.write_bytes(raw[: cut - 8])
    with pytest.raises(ValueError, match=r"ckpt\.bin.*header of parameter 2 of 2 after 'alpha'"):
        ParamStore.load(path)


@pytest.mark.parametrize("include_moments", [True, False])
def test_checkpoint_truncated_inside_an_array_names_file_and_parameter(tmp_path, include_moments):
    path, raw = _saved(tmp_path, include_moments)
    path.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match=r"truncated.*ckpt\.bin.*'beta' needs"):
        ParamStore.load(path)


def test_checkpoint_of_another_version_names_file_and_version(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(ValueError, match=r"ckpt\.bin has format version 9, only 1 is supported"):
        ParamStore.load(path)


@pytest.mark.parametrize("flags", [2, 3, 1 << 31])
def test_checkpoint_with_unknown_flag_bits_names_file_and_bits(tmp_path, flags):
    # bit 0 marks Adam moments; any other bit is a format this reader does not know
    path, raw = _saved(tmp_path)
    path.write_bytes(raw[:8] + struct.pack("<I", flags) + raw[12:])
    with pytest.raises(ValueError, match=rf"ckpt\.bin sets unknown header flag bits {flags & ~1:#x}"):
        ParamStore.load(path)


def test_checkpoint_trailing_bytes_name_file_and_parameter(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(raw + b"\0" * 3)
    with pytest.raises(ValueError, match=r"ckpt\.bin has 3 trailing bytes after the last parameter 'beta'"):
        ParamStore.load(path)


def test_float32_store_keeps_its_dtype_through_adam_and_clone():
    store = ParamStore([("w", np.ones((2, 3))), ("b", np.arange(3.0))], dtype=np.float32)
    assert store.dtype == np.float32
    for arena in (store._value, store._grad, store._m, store._v):
        assert arena.dtype == np.float32
    store.grad("w")[...] = np.full((2, 3), 0.5)
    store.adam_step(0.1)
    assert store["w"].dtype == store.moments("w")[1].dtype == np.float32
    assert store.clone().dtype == np.float32
    wide = store.clone(np.float64)
    assert wide.dtype == np.float64 and wide.step == store.step
    for name in store.names():
        assert np.array_equal(wide[name], store[name]) and np.array_equal(wide.grad(name), store.grad(name))
        for got, want in zip(wide.moments(name), store.moments(name)):
            assert np.array_equal(got, want)


def test_float32_store_saves_the_bytes_of_a_float64_store_with_its_values(tmp_path):
    rng = np.random.default_rng(2)
    narrow = ParamStore([("w", rng.standard_normal((3, 4))), ("b", rng.standard_normal(4))], dtype=np.float32)
    narrow.grad("w")[...] = rng.standard_normal((3, 4))
    narrow.adam_step(0.05)
    wide = narrow.clone(np.float64)
    for include_moments in (True, False):
        narrow.save(tmp_path / "narrow.bin", include_moments=include_moments)
        wide.save(tmp_path / "wide.bin", include_moments=include_moments)
        assert (tmp_path / "narrow.bin").read_bytes() == (tmp_path / "wide.bin").read_bytes()
    loaded = ParamStore.load(tmp_path / "narrow.bin")
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded["w"], narrow["w"])


def test_save_that_fails_partway_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path, before = _saved(tmp_path)
    original = ParamStore._checkpoint_chunks

    def failing(self, include_moments):
        chunks = original(self, include_moments)
        yield from (next(chunks) for _ in range(4))
        raise OSError("disk full")

    monkeypatch.setattr(ParamStore, "_checkpoint_chunks", failing)
    store = ParamStore([("alpha", np.ones((2, 3))), ("beta", np.ones(4))])
    with pytest.raises(OSError, match="disk full"):
        store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
