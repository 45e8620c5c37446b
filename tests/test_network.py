"""Network forward passes, tangents, and the optimizer against references."""

import numpy as np
import pytest

from flowpsm.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    FIELD_ORDER,
    MlpSpec,
    Workspace,
    forward,
    init_params,
    input_jacobian,
    learning_rate,
    optimizer_step,
    stacked_forward,
)
from flowpsm.errors import NumericalError
from flowpsm.transport import ConfigError

SPEC = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4)


@pytest.fixture()
def params():
    return init_params(SPEC, seed=3)


def test_init_fan_in_bounds_and_zero_biases(params):
    for name, (out, inp) in SPEC.layer_shapes():
        w = params.view(f"{name}.w")
        assert w.shape == (out, inp)
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(inp))
        assert np.all(params.view(f"{name}.b") == 0.0)
    again = init_params(SPEC, seed=3)
    assert np.array_equal(params.flat, again.flat)
    assert not np.array_equal(params.flat, init_params(SPEC, seed=4).flat)


def test_views_alias_flat_vector(params):
    params.view("head0.w")[0, 0] = 123.0
    assert params.flat[0] == 123.0


def test_forward_shapes_and_single_row(params, rng):
    x = rng.standard_normal((7, 5))
    y = forward(SPEC, params, x)
    assert y.shape == (7, 3)
    assert np.allclose(forward(SPEC, params, x[0]), y[0])
    with pytest.raises(ConfigError):
        forward(SPEC, params, np.zeros((2, 4)))


def _reference_forward(spec, params, x):
    """Layer-by-layer evaluation written out independently of the kernel."""

    def dense(name, h):
        return h @ params.view(f"{name}.w").T + params.view(f"{name}.b")

    h = x
    for name in ("head0", "head1", "head2", "inter"):
        h = np.tanh(dense(name, h))
    return np.concatenate([dense(f"out_{f}", np.tanh(dense(f"tail_{f}", h))) for f in FIELD_ORDER], axis=1)


def test_forward_matches_layer_by_layer_reference(params, rng):
    x = rng.standard_normal((6, 5))
    assert np.allclose(forward(SPEC, params, x), _reference_forward(SPEC, params, x), atol=1e-12)


def test_input_jacobian_matches_finite_difference(params, rng):
    x = rng.standard_normal((4, 5))
    h = 1e-6
    dirs = np.vstack([np.eye(5), rng.standard_normal((2, 5))])
    J = input_jacobian(SPEC, params, x, dirs)  # one pass for all seven directions
    assert J.shape == (7, 4, 3)
    for d, got in zip(dirs, J):
        fd = (forward(SPEC, params, x + h * d) - forward(SPEC, params, x - h * d)) / (2 * h)
        assert np.allclose(got, fd, atol=1e-7)
    assert np.allclose(input_jacobian(SPEC, params, x[0], dirs[2]), J[2, 0])


def test_tangents_match_input_jacobian(params, rng):
    x = rng.standard_normal((4, 5))
    dirs = np.eye(5)[[1, 3]]
    run = stacked_forward(SPEC, params, x, dirs)
    assert run.outputs.shape == (3, 4, 3)
    assert np.array_equal(run.outputs[0], forward(SPEC, params, x))
    for d, got in zip(dirs, run.outputs[1:]):
        assert np.allclose(got, input_jacobian(SPEC, params, x, d), atol=1e-12)


def test_gradient_of_tangent_loss_matches_finite_difference(rng):
    # losses built from values and directional derivatives must backprop exactly
    x = rng.standard_normal((3, 5))
    dirs = np.eye(5)[[0, 2]]
    weights = rng.standard_normal((3, 3, 3))

    def loss_value(spec, store):
        y = stacked_forward(spec, store, x, dirs).outputs
        return float(np.sum(weights * y) + np.sum(y[1:] ** 2))

    spec = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4)
    store = init_params(spec, seed=3)
    store.flat += 0.1 * rng.standard_normal(store.n_params)  # nonzero biases
    run = stacked_forward(spec, store, x, dirs, keep=True)
    cot = weights.copy()
    cot[1:] += 2.0 * run.outputs[1:]
    grad = run.gradient(cot)

    h = 1e-6
    for idx in np.linspace(0, store.n_params - 1, 40).astype(int):
        old = store.flat[idx]
        store.flat[idx] = old + h
        lp = loss_value(spec, store)
        store.flat[idx] = old - h
        lm = loss_value(spec, store)
        store.flat[idx] = old
        fd = (lp - lm) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), idx


def test_only_the_tanh_activation_is_accepted():
    with pytest.raises(ConfigError, match="unknown activation 'identity'"):
        MlpSpec(input_dim=4, activation="identity")


def test_field_order_is_three_branches():
    assert FIELD_ORDER == ("p", "u", "T")


def test_learning_rate_halves_every_50_epochs():
    assert learning_rate(1e-3, 1) == 1e-3
    assert learning_rate(1e-3, 49) == 1e-3
    assert learning_rate(1e-3, 50) == 5e-4
    assert learning_rate(1e-3, 99) == 5e-4
    assert learning_rate(1e-3, 100) == 2.5e-4
    with pytest.raises(ConfigError):
        learning_rate(1e-3, 0)


def test_optimizer_step_matches_adam_reference(params, rng):
    grad = rng.standard_normal(params.n_params)
    before = params.flat.copy()
    optimizer_step(params, grad, lr=1e-3)
    m = (1 - ADAM_BETA1) * grad
    v = (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1)
    v_hat = v / (1 - ADAM_BETA2)
    expected = before - 1e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    assert np.allclose(params.flat, expected, atol=1e-15)
    assert params.step == 1


def test_optimizer_rejects_non_finite_gradient(params):
    grad = np.zeros(params.n_params)
    grad[0] = np.nan
    with pytest.raises(NumericalError):
        optimizer_step(params, grad, lr=1e-3)


def test_gradient_zero_in_unused_tail_branches(params, rng):
    run = stacked_forward(SPEC, params, rng.standard_normal((2, 5)), np.eye(5)[[0, 1]], keep=True)
    cot = np.zeros_like(run.outputs)
    cot[:, :, 0] = rng.standard_normal((3, 2))  # only p carries a cotangent
    g = run.gradient(cot)
    assert g.shape == params.flat.shape

    def block(name):
        start, stop = next((s, e) for nm, _, s, e in params.layout if nm == name)
        return g[start:stop]

    for branch in ("tail_u", "tail_T", "out_u", "out_T"):
        assert np.all(block(f"{branch}.w") == 0.0)
        assert np.all(block(f"{branch}.b") == 0.0)
    for name in ("out_p.w", "tail_p.w", "head0.w"):
        assert np.any(block(name) != 0.0)


def test_stacked_forward_validates_shapes(params, rng):
    x = rng.standard_normal((3, 5))
    with pytest.raises(ConfigError):
        stacked_forward(SPEC, params, x[:, :4])
    with pytest.raises(ConfigError):
        stacked_forward(SPEC, params, x, np.eye(4))
    run = stacked_forward(SPEC, params, x, np.eye(5)[:2], keep=True)
    with pytest.raises(ConfigError):
        run.gradient(np.zeros((2, 3, 3)))


def test_gradient_needs_saved_activations(params, rng):
    run = stacked_forward(SPEC, params, rng.standard_normal((2, 5)))
    with pytest.raises(ValueError):
        run.gradient(np.zeros_like(run.outputs))


def test_workspace_reuse_matches_fresh_passes(params, rng):
    # one workspace, row counts that shrink and grow again: every pass and
    # gradient is bit-identical to a pass on fresh buffers and to no-keep outputs
    for k in (0, 2):
        ws = Workspace(SPEC, rows=7, n_directions=k)
        dirs = rng.standard_normal((k, 5))
        for n_rows in (7, 3, 7, 1, 5):
            x = rng.standard_normal((n_rows, 5))
            cot = rng.standard_normal((k + 1, n_rows, 3))
            fresh = stacked_forward(SPEC, params, x, dirs, keep=True)
            reused = stacked_forward(SPEC, params, x, dirs, workspace=ws)
            assert np.array_equal(reused.outputs, fresh.outputs)
            assert np.array_equal(reused.outputs, stacked_forward(SPEC, params, x, dirs).outputs)
            assert np.array_equal(reused.gradient(cot), fresh.gradient(cot))


def test_workspace_rejects_misuse(params, rng):
    ws = Workspace(SPEC, rows=4, n_directions=2)
    x, dirs = rng.standard_normal((4, 5)), np.eye(5)[:2]
    with pytest.raises(ConfigError):
        stacked_forward(SPEC, params, rng.standard_normal((5, 5)), dirs, workspace=ws)
    with pytest.raises(ConfigError):
        stacked_forward(SPEC, params, x, dirs[:1], workspace=ws)
    other = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=5)
    with pytest.raises(ConfigError):
        stacked_forward(other, init_params(other, 0), x, dirs, workspace=ws)
    first = stacked_forward(SPEC, params, x, dirs, workspace=ws)
    stacked_forward(SPEC, params, x[:2], dirs, workspace=ws)
    with pytest.raises(ValueError):  # the later pass overwrote what it saved
        first.gradient(np.zeros_like(first.outputs))


def test_no_keep_results_survive_later_calls(params, rng):
    x, dirs = rng.standard_normal((6, 5)), np.eye(5)[:2]
    y = forward(SPEC, params, x)
    J = input_jacobian(SPEC, params, x, dirs)
    y0, J0 = y.copy(), J.copy()
    ws = Workspace(SPEC, rows=6, n_directions=2)
    for _ in range(2):
        x2 = rng.standard_normal((6, 5))
        forward(SPEC, params, x2)
        input_jacobian(SPEC, params, x2, dirs)
        stacked_forward(SPEC, params, x2, dirs, workspace=ws).gradient(np.ones((3, 6, 3)))
    assert np.array_equal(y, y0) and np.array_equal(J, J0)
