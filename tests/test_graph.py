"""Graph forward/backward behavior, finite-difference consistency, errors."""

import numpy as np
import pytest

from mvclust import Graph, GraphError, ModelConfig, NumericError, ParamStore, backward, forward
from mvclust.numgrad import graph as graph_mod

from helpers import fd_gradient_errors, random_views, randomized_model, tiny_config


def _store(**arrays):
    return ParamStore(arrays.items())


def test_linear_identity_forward():
    g = Graph()
    x = g.input("x")
    out = g.linear(x, g.param("w"), g.param("b"), name="out")
    store = _store(w=np.eye(3), b=np.zeros(3))
    values = forward(g, {"x": np.array([[1.0, 2.0, 3.0]])}, store)
    assert np.array_equal(values[out], [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("relu", [True, False])
def test_linear_equals_numpy_bitwise(relu):
    # one dense layer under a loss sum(h^2 * c) whose gradient has both signs;
    # x is a parameter, so its gradient is stored too
    rng = np.random.default_rng(21)
    x, c = rng.standard_normal((7, 5)), rng.standard_normal((7, 4))
    w, b = rng.standard_normal((5, 4)), rng.standard_normal(4)
    g = Graph()
    g.linear(g.param("x"), g.param("w"), g.param("b"), relu=relu, name="h")
    g.sum(g.mul(g.square("h"), g.input("c")), name="loss")
    store = _store(x=x, w=w, b=b)
    values = forward(g, {"c": c}, store)
    backward(g, values, "loss", store)

    h = x @ w + b
    if relu:
        h = np.maximum(h, 0.0)
    dh = 2.0 * c * h
    if relu:
        dh = dh * (h > 0)
    assert relu == bool(np.any(h == 0.0))  # the mask is exercised
    assert np.array_equal(values["h"], h)
    for name, want in (("x", dh @ w.T), ("w", x.T @ dh), ("b", dh.sum(axis=0))):
        assert np.array_equal(store.grad(name), want), name


def test_linear_finite_differences():
    rng = np.random.default_rng(22)
    g = Graph()
    h = g.linear(g.param("x"), g.param("w1"), g.param("b1"), relu=True)
    g.mean(g.square(g.linear(h, g.param("w2"), g.param("b2"))), name="loss")
    store = _store(
        w1=rng.standard_normal((4, 6)),
        b1=rng.standard_normal(6),
        w2=rng.standard_normal((6, 2)),
        b2=rng.standard_normal(2),
        x=rng.standard_normal((5, 4)),
    )
    values = forward(g, {}, store)
    assert np.any(values[h] == 0.0) and np.any(values[h] > 0.0)
    worst, worst_at = fd_gradient_errors(g, {}, store)
    assert worst < 1e-4, worst_at


@pytest.mark.parametrize("relu", [True, False])
def test_linear_relu_overflow_names_the_node(relu):
    # x @ w is -inf in every column; a ReLU applied first would hide it as 0,
    # and a head layer without one is scanned by the same check
    g = Graph()
    g.linear(g.input("x"), g.param("w"), g.param("b"), relu=relu, name="dense")
    store = _store(w=np.full((2, 3), -1e308), b=np.zeros(3))
    with pytest.raises(NumericError, match="'dense'"):
        forward(g, {"x": np.full((1, 2), 10.0)}, store)


def test_linear_bias_shape_names_the_node():
    g = Graph()
    g.linear(g.input("x"), g.param("w"), g.param("b"), name="dense")
    with pytest.raises(GraphError, match="'dense'"):
        forward(g, {"x": np.ones((2, 3))}, _store(w=np.ones((3, 4)), b=np.ones((2, 4))))


def test_sigmoid_of_zero_is_half():
    g = Graph()
    y = g.sigmoid(g.input("x"), name="y")
    values = forward(g, {"x": np.zeros(4)})
    assert np.array_equal(values[y], np.full(4, 0.5))


def test_two_layer_network_hand_evaluation():
    # relu(x @ w1 + b1) @ w2 + b2 evaluated by hand for fixed weights
    g = Graph()
    x = g.input("x")
    h = g.linear(x, g.param("w1"), g.param("b1"), relu=True)
    g.linear(h, g.param("w2"), g.param("b2"), name="out")
    store = _store(
        w1=np.array([[1.0, 0.0], [-1.0, 2.0], [0.5, 1.0]]),
        b1=np.array([0.1, -0.2]),
        w2=np.array([[2.0], [-0.5]]),
        b2=np.array([0.25]),
    )
    values = forward(g, {"x": np.array([[1.0, 2.0, 3.0]])}, store)
    # x @ w1 = [0.5, 7.0]; +b1 = [0.6, 6.8]; relu keeps both;
    # 0.6*2 - 6.8*0.5 + 0.25 = -1.95
    assert values["out"].reshape(-1) == pytest.approx([-1.95], abs=1e-12)


def _grad_of_x(g, x, loss="loss", inputs=None, dtype=np.float64):
    """The loss value and d(loss)/dx of ``g``, whose parameter ``x`` is bound to ``x``."""
    store = ParamStore([("x", x)], dtype=dtype)
    values = forward(g, inputs, store, dtype=dtype)
    backward(g, values, loss, store)
    return values, store.grad("x")


def test_backward_of_sum_is_ones():
    g = Graph()
    g.sum(g.param("x"), name="loss")
    _, grad = _grad_of_x(g, np.array([3.0, -1.0, 2.5]))
    assert np.array_equal(grad, np.ones(3))


def test_backward_of_half_sum_square_is_x():
    g = Graph()
    g.affine(g.sum(g.square(g.param("x"))), scale=0.5, name="loss")
    _, grad = _grad_of_x(g, np.array([1.0, -2.0, 3.0]))
    assert grad == pytest.approx([1.0, -2.0, 3.0], abs=1e-12)


def test_fd_random_two_layer_network():
    rng = np.random.default_rng(7)
    g = Graph()
    x = g.input("x")
    h = g.linear(x, g.param("w1"), g.param("b1"), relu=True)
    out = g.linear(h, g.param("w2"), g.param("b2"))
    g.mean(g.square(out), name="loss")
    store = _store(
        w1=rng.standard_normal((4, 6)),
        b1=rng.standard_normal(6),
        w2=rng.standard_normal((6, 2)),
        b2=rng.standard_normal(2),
    )
    worst, worst_at = fd_gradient_errors(g, {"x": rng.standard_normal((5, 4))}, store)
    assert worst < 1e-4, worst_at


def _random_program(rng):
    """A random chain of primitives ending in a scalar; returns the graph
    and its parameter store, which holds its argument ``x`` too."""
    g = Graph()
    x = g.param("x")
    rows, cols = 3, 4
    p_row = 0.5 + rng.uniform(0.1, 1.0, size=cols)
    cur = g.mul(x, g.param("p_row"))
    for step in range(rng.integers(2, 6)):
        op = rng.integers(0, 8)
        if op == 0:
            cur = g.softplus(cur)
        elif op == 1:
            cur = g.sigmoid(cur)
        elif op == 2:
            cur = g.affine(cur, scale=float(rng.uniform(-1.5, 1.5)), shift=float(rng.uniform(-1, 1)))
        elif op == 3:
            cur = g.square(cur)
        elif op == 4:
            cur = g.exp(g.affine(cur, scale=0.3))
        elif op == 5:
            cur = g.log(g.affine(g.square(cur), shift=0.5))
        elif op == 6:
            cur = g.sqrt(g.affine(g.square(cur), shift=0.5))
        else:
            tail = g.sum(g.slice(cur, axis=1, start=1, stop=cols), axis=1, keepdims=True)
            cur = g.sub(cur, g.affine(tail, scale=0.5))
    cur = g.logsumexp(cur, axis=1)
    g.mean(cur, name="loss")
    return g, _store(p_row=p_row, x=rng.standard_normal((rows, cols)))


def test_fd_consistency_over_randomized_graphs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g, store = _random_program(rng)
        worst, worst_at = fd_gradient_errors(g, {}, store)
        assert worst < 1e-4, worst_at


def test_backward_linearity():
    rng = np.random.default_rng(3)
    g = Graph()
    x = g.input("x")
    w = g.param("w")
    h = g.sigmoid(g.linear(x, w, g.param("b")))
    l1 = g.sum(h, name="l1")
    l2 = g.sum(g.square(h), name="l2")
    alpha, beta = 1.7, -0.4
    g.add(g.affine(l1, scale=alpha), g.affine(l2, scale=beta), name="combo")
    store = _store(w=rng.standard_normal((4, 3)), b=np.zeros(3))
    inputs = {"x": rng.standard_normal((2, 4))}
    values = forward(g, inputs, store)

    store.zero_grads()
    backward(g, values, "l1", store)
    g1 = store.grad("w").copy()
    store.zero_grads()
    backward(g, values, "l2", store)
    g2 = store.grad("w").copy()
    store.zero_grads()
    backward(g, values, "combo", store)
    combo = store.grad("w").copy()
    assert np.max(np.abs(combo - (alpha * g1 + beta * g2))) < 1e-12


def _shared_weight_graph():
    """A graph whose weight "w" feeds two linear nodes and whose "dead" and
    "unused" the loss does not reach: "dead" feeds a branch off the loss,
    "unused" is only declared."""
    g = Graph()
    x = g.input("x")
    h = g.linear(x, g.param("w"), g.param("b"), relu=True)
    h2 = g.linear(h, "w", g.param("b2"))
    g.exp(g.mul(h2, g.param("dead")))
    g.param("unused")
    g.mean(g.square(g.mul(h2, g.param("s"))), name="loss")
    return g


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_overwrites_whatever_the_gradient_slots_held(dtype):
    # backward needs no zero_grads: over NaN-filled slots it gives the
    # gradients zero_grads + backward give, and zeros where the loss does not reach
    rng = np.random.default_rng(50)
    small = _store(w=rng.standard_normal((3, 3)), b=rng.standard_normal(3), b2=rng.standard_normal(3),
                   dead=rng.standard_normal(3), unused=rng.standard_normal(2), s=rng.standard_normal(3))
    config = tiny_config("gaussian")
    model = randomized_model(config, seed=51)
    views = random_views(config, 8, seed=52)
    eps = rng.standard_normal((8, 2))
    cases = [
        (_shared_weight_graph(), {"x": rng.standard_normal((5, 3))}, small.clone(dtype)),
        (model.elbo_graph(1), {"x0": views[0], "x1": views[1], "eps0": eps}, model.params.clone(dtype)),
    ]
    for graph, inputs, store in cases:
        store.zero_grads()
        backward(graph, forward(graph, inputs, store, dtype=dtype), "loss", store)
        want = store.clone()
        store._grad.fill(np.nan)
        backward(graph, forward(graph, inputs, store, dtype=dtype), "loss", store)
        for name in store.names():
            assert np.array_equal(store.grad(name), want.grad(name)), name
    store = cases[0][2]
    assert not store.grad("dead").any() and not store.grad("unused").any()
    assert store.grad("w").any() and store.grad("s").any()


def test_forward_and_backward_bit_identical():
    rng = np.random.default_rng(5)
    g = Graph()
    x = g.input("x")
    h = g.sigmoid(g.linear(x, g.param("w"), g.param("b")))
    g.mean(g.square(h), name="loss")
    store = _store(w=rng.standard_normal((4, 3)), b=rng.standard_normal(3))
    inputs = {"x": rng.standard_normal((6, 4))}

    runs = []
    for _ in range(2):
        store.zero_grads()
        values = forward(g, inputs, store)
        backward(g, values, "loss", store)
        runs.append((values["loss"].copy(), store.grad("w").copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_nonfinite_forward_names_the_node():
    g = Graph()
    g.exp(g.input("x"), name="blowup")
    with pytest.raises(NumericError, match="blowup"):
        forward(g, {"x": np.array([2000.0])})


def test_nonfinite_input_rejected():
    g = Graph()
    g.sum(g.input("x"), name="loss")
    with pytest.raises(NumericError, match="x"):
        forward(g, {"x": np.array([np.nan])})


def test_shape_mismatch_names_the_node():
    g = Graph()
    g.linear(g.input("a"), g.input("b"), g.input("c"), name="bad")
    for a, why in (((2, 3), "inner dimensions differ"), ((3,), "needs 2-D operands")):
        with pytest.raises(GraphError, match=f"'bad'.*{why}"):
            forward(g, {"a": np.ones(a), "b": np.ones((2, 3)), "c": np.ones(3)})


def test_unknown_reference_and_duplicate_name():
    g = Graph()
    g.input("x")
    with pytest.raises(GraphError):
        g.sigmoid("nope")
    with pytest.raises(GraphError):
        g.input("x")


def test_unbound_input_and_param():
    g = Graph()
    x = g.input("x")
    g.add(x, g.param("w"), name="out")
    with pytest.raises(GraphError, match="'x'"):
        forward(g, {}, _store(w=np.ones(2)))
    with pytest.raises(GraphError, match="'w'"):
        forward(g, {"x": np.ones(2)}, ParamStore())


def test_an_unknown_input_and_an_unknown_loss_are_named():
    g = Graph()
    g.square(g.input("x"), name="vec")
    g.sum("vec", name="loss")
    with pytest.raises(GraphError, match=r"^unknown graph inputs: \['y', 'z'\]$"):
        forward(g, {"x": np.ones(2), "z": np.ones(2), "y": np.ones(2)})
    values = forward(g, {"x": np.ones(2)})
    with pytest.raises(GraphError, match="^unknown loss value 'lost'$"):
        backward(g, values, "lost", ParamStore())


@pytest.mark.parametrize(
    "axis, stop, why",
    [(2, 1, r"slice axis 2 out of range for shape \(2, 3\)"), (1, 4, "slice bounds exceed extent 3")],
    ids=["axis", "stop"],
)
def test_a_slice_out_of_bounds_names_the_node(axis, stop, why):
    g = Graph()
    g.slice(g.input("x"), axis=axis, start=0, stop=stop, name="cut")
    with pytest.raises(GraphError, match=rf"^node 'cut' \(slice\): {why}$"):
        forward(g, {"x": np.ones((2, 3))})


def test_loss_must_be_scalar():
    g = Graph()
    g.square(g.input("x"), name="vec")
    values = forward(g, {"x": np.ones(3)})
    with pytest.raises(GraphError, match="scalar"):
        backward(g, values, "vec", ParamStore())


def test_slice_roundtrip():
    g = Graph()
    x = g.param("x")
    g.slice(x, axis=1, start=0, stop=2, name="left")
    g.slice(x, axis=1, start=2, stop=5, name="right")
    g.sum(g.square(g.slice(x, axis=1, start=1, stop=4)), name="loss")
    a, b = np.arange(4.0).reshape(2, 2), np.arange(6.0).reshape(2, 3) + 10
    values, grad = _grad_of_x(g, np.concatenate([a, b], axis=1))
    assert np.array_equal(values["left"], a)
    assert np.array_equal(values["right"], b)
    # loss touches column 1 of a and columns 0-1 of b
    expected_a = np.zeros((2, 2))
    expected_a[:, 1] = 2 * a[:, 1]
    expected_b = np.zeros((2, 3))
    expected_b[:, :2] = 2 * b[:, :2]
    assert np.allclose(grad[:, :2], expected_a, atol=1e-12)
    assert np.allclose(grad[:, 2:], expected_b, atol=1e-12)


def test_logsumexp_matches_reference():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5)) * 4
    for axis in (1, 0, None):
        for keepdims in (False, True):
            g = Graph()
            g.logsumexp(g.input("x"), axis=axis, keepdims=keepdims, name="lse")
            values = forward(g, {"x": x})
            ref = np.log(np.exp(x).sum(axis=axis, keepdims=keepdims))
            assert values["lse"].shape == ref.shape
            assert values["lse"] == pytest.approx(ref, abs=1e-12)


def test_clip_passes_gradient_only_inside_bounds():
    g = Graph()
    g.sum(g.clip(g.param("x"), -1.0, 1.0), name="loss")
    values, grad = _grad_of_x(g, np.array([-2.0, 0.3, 2.0]))
    assert np.array_equal(grad, [0.0, 1.0, 0.0])
    assert np.array_equal(values["loss"], np.asarray(0.3 - 1.0 + 1.0))


def _masked_sigmoid(x):
    """The boolean-mask form of the stable sigmoid, as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_masked_form(dtype):
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.standard_normal(500) * 12, [0.0, -0.0, 40.0, -40.0, 1e3, -1e3]]).astype(dtype)
    g = Graph()
    g.sigmoid(g.input("x"), name="y")
    got = forward(g, {"x": x}, dtype=dtype)["y"]
    assert got.dtype == dtype
    assert np.array_equal(got, _masked_sigmoid(x))


def test_softplus_finite_differences():
    rng = np.random.default_rng(32)
    g = Graph()
    g.sum(g.mul(g.softplus(g.param("x")), g.input("c")), name="loss")
    x, inputs = rng.standard_normal((4, 5)) * 3, {"c": rng.standard_normal((4, 5))}
    store = _store(x=x)
    assert forward(g, inputs, store)["loss"] == pytest.approx(np.sum(np.log1p(np.exp(x)) * inputs["c"]), abs=1e-12)
    worst, worst_at = fd_gradient_errors(g, inputs, store)
    assert worst < 1e-6, worst_at


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_value_and_gradient_finite_at_extremes(dtype):
    g = Graph()
    g.sum(g.softplus(g.param("x")), name="loss")
    values, grad = _grad_of_x(g, np.array([-1e3, -40.0, 0.0, 40.0, 1e3], dtype=dtype), dtype=dtype)
    assert values["loss"].dtype == grad.dtype == dtype
    assert np.all(np.isfinite(values["loss"])) and np.all(np.isfinite(grad))
    assert values["loss"] == pytest.approx(1040.0 + np.log(2.0), rel=1e-6)
    assert grad == pytest.approx([0.0, np.exp(-40.0), 0.5, 1.0, 1.0], rel=1e-6, abs=0.0)


def _ulps(a, b):
    """Units in the last place between two arrays of non-negative floats."""
    ints = np.int32 if a.dtype == np.float32 else np.int64
    return np.abs(a.view(ints).astype(np.int64) - b.view(ints).astype(np.int64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_is_within_4_ulps_of_logaddexp(dtype):
    rng = np.random.default_rng(33)
    x = np.concatenate([
        np.linspace(-1e3, 1e3, 20001),
        rng.standard_normal(20000) * 3,
        rng.standard_normal(20000) * 30,
        [0.0, -0.0, 1e-8, -1e-8, 40.0, -40.0, 88.0, -88.0, 1e3, -1e3],
    ]).astype(dtype)
    g = Graph()
    g.softplus(g.input("x"), name="y")
    got = forward(g, {"x": x}, dtype=dtype)["y"]
    want = np.logaddexp(0.0, x.astype(np.float64)).astype(dtype)
    assert got.dtype == dtype
    assert _ulps(got, want).max() <= 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bernoulli_elbo_gradients_do_not_read_the_softplus_value(dtype, monkeypatch):
    # softplus's gradient is g * sigmoid(h), and nothing downstream of it in
    # the ELBO reads its value back, so how the value is computed cannot move
    # any parameter gradient. Logits up to a few hundred make the two value
    # forms differ in hundreds of the 5760 elements
    config = ModelConfig(view_dims=(50, 40), latent_dim=2, n_clusters=3, likelihood="bernoulli",
                         encoder_hidden=(6, 5), decoder_hidden=(5, 6))
    model = randomized_model(config, seed=34, scale=1.0)
    store, graph = model.params.clone(dtype), model.elbo_graph(1)
    views = random_views(config, 64, seed=35)
    inputs = {"x0": views[0], "x1": views[1], "eps0": np.random.default_rng(36).standard_normal((64, 2))}

    def param_grads():
        store.zero_grads()
        values = forward(graph, inputs, store, dtype=dtype)
        backward(graph, values, "loss", store)
        return float(values["loss"]), {name: store.grad(name).copy() for name in store.names()}

    loss, grads = param_grads()
    monkeypatch.setitem(graph_mod._EVAL, "softplus", lambda n, a: np.logaddexp(0.0, a[0]))
    want_loss, want_grads = param_grads()
    assert loss == pytest.approx(want_loss, rel=1e-5)
    for name in store.names():
        assert np.array_equal(grads[name], want_grads[name]), name


def test_forward_in_float32_views_the_store_and_computes_in_float32():
    g = Graph()
    g.linear(g.input("x"), g.param("w"), g.param("b"), name="h")
    store = ParamStore([("w", np.ones((3, 2))), ("b", np.zeros(2))], dtype=np.float32)
    values = forward(g, {"x": np.ones((4, 3))}, store, dtype=np.float32)
    assert values["x"].dtype == values["h"].dtype == np.float32
    assert np.shares_memory(values["w"], store["w"]) and np.shares_memory(values["b"], store["b"])
    upcast = forward(g, {"x": np.ones((4, 3))}, store)
    assert upcast["h"].dtype == np.float64 and not np.shares_memory(upcast["w"], store["w"])
    assert np.array_equal(upcast["h"], values["h"])
