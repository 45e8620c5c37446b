"""Network forward passes, tangents, and the optimizer against references."""

import numpy as np
import pytest

from flowpsm.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    FIELD_ORDER,
    MlpSpec,
    ParamStore,
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
from oracles import adam_out_of_place, per_field_pass

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
    y = forward(params, x)
    assert y.shape == (7, 3)
    assert np.allclose(forward(params, x[:1]), y[:1])
    for bad in (np.zeros((2, 4)), x[0]):  # a wrong width, and one row given 1-D
        with pytest.raises(ConfigError):
            forward(params, bad)


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
    assert np.allclose(forward(params, x), _reference_forward(SPEC, params, x), atol=1e-12)


def test_tangents_match_finite_difference(params, rng):
    x = rng.standard_normal((4, 5))
    h = 1e-6
    J = stacked_forward(params, x, range(5))[1:]  # one pass for all five axes
    assert J.shape == (5, 4, 3)
    for d, got in zip(np.eye(5), J):
        fd = (forward(params, x + h * d) - forward(params, x - h * d)) / (2 * h)
        assert np.allclose(got, fd, atol=1e-7)
    assert np.allclose(stacked_forward(params, x[:1], (2,))[1, 0], J[2, 0])


def test_tangents_match_one_direction_passes(params, rng):
    x = rng.standard_normal((4, 5))
    axes = (1, 3)
    out = stacked_forward(params, x, axes)
    assert out.shape == (3, 4, 3)
    assert np.array_equal(out[0], forward(params, x))
    for a, got in zip(axes, out[1:]):
        assert np.allclose(got, stacked_forward(params, x, (a,))[1], atol=1e-12)


@pytest.mark.parametrize("n_rows", [1, 6, 87])
def test_input_jacobian_matches_the_tangent_pass(rng, n_rows):
    # the reverse sweep's rows against the forward-mode tangents along every unit input axis
    spec = MlpSpec(5, 64, 32, 32)
    store = init_params(spec, seed=2)
    store.flat += 0.05 * rng.standard_normal(store.n_params)
    x = rng.standard_normal((n_rows, 5))
    y, J = input_jacobian(store, x)
    want = stacked_forward(store, x, range(5))  # (1 + 5, B, 3)
    assert y.tobytes() == forward(store, x).tobytes()
    assert J.shape == (3, n_rows, 5)
    tangents = want[1:].transpose(2, 1, 0)  # J[f, b, i] = d y[b, f] / d x[b, i]
    assert np.max(np.abs(J - tangents)) <= 1e-13 * np.max(np.abs(tangents))


def test_input_jacobian_matches_central_differences(params, rng):
    x, h = rng.standard_normal((4, 5)), 1e-6
    _, J = input_jacobian(params, x)
    for i, e in enumerate(np.eye(5)):
        fd = (forward(params, x + h * e) - forward(params, x - h * e)) / (2 * h)
        assert np.allclose(J[:, :, i], fd.T, atol=1e-8)
    with pytest.raises(ConfigError):
        input_jacobian(params, x[:, :4])


@pytest.mark.parametrize("widths", [(8, 6, 4), (64, 32, 32)])
def test_chain_matches_the_per_field_reference_bit_for_bit(rng, widths):
    # row counts whose cotangent columns take a different BLAS path by stride, and both
    # cotangent layouts the losses pass: (k+1, B, 3) rows and (k+1, 3, B) transposed
    spec = MlpSpec(5, *widths)
    store = init_params(spec, seed=2)
    store.flat += 0.05 * rng.standard_normal(store.n_params)
    for k in (0, 2):
        for n_rows in (1, 7, 130):
            x, axes = rng.standard_normal((n_rows, 5)), (3, 1)[:k]
            for cot in (rng.standard_normal((k + 1, n_rows, 3)),
                        rng.standard_normal((k + 1, 3, n_rows)).transpose(0, 2, 1)):
                want_out, want_grad = per_field_pass(store, x, axes, cot)
                ws = Workspace(spec)
                assert stacked_forward(store, x, axes, workspace=ws).tobytes() == want_out.tobytes()
                assert stacked_forward(store, x, axes).tobytes() == want_out.tobytes()
                assert ws.gradient(cot).tobytes() == want_grad.tobytes()
            if k == 0:  # forward's plain value pass gives the kernel's values
                assert forward(store, x).tobytes() == want_out[0].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_merged_pass_matches_the_per_field_reference_bit_for_bit(rng, dtype):
    # value-only rows ahead of tangent-carrying ones, as a psm batch runs them
    spec = MlpSpec(5, 64, 32, 32)
    store = init_params(spec, seed=2)
    store.flat += 0.05 * rng.standard_normal(store.n_params)
    store = ParamStore(spec=spec, flat=store.flat.astype(dtype), layout=store.layout)
    for n_values, n_rows in ((1, 1), (128, 256), (80, 256)):
        v, x = rng.standard_normal((n_values, 5)), rng.standard_normal((n_rows, 5))
        cot = (rng.standard_normal((n_values, 3)), rng.standard_normal((3, 3, n_rows)).transpose(0, 2, 1))
        (want_v, want_stack), want_grad = per_field_pass(store, x.astype(dtype), (0, 1),
                                                         tuple(c.astype(dtype) for c in cot), v.astype(dtype))
        ws = Workspace(spec)
        got_v, got_stack = stacked_forward(store, x, (0, 1), workspace=ws, values=v)
        assert got_v.dtype == got_stack.dtype == dtype
        assert got_v.tobytes() == want_v.tobytes() and got_stack.tobytes() == want_stack.tobytes()
        assert ws.gradient(cot).tobytes() == want_grad.astype(np.float64).tobytes()


def test_value_rows_beside_tangent_rows_give_the_values_of_forward(rng):
    v, x, axes = rng.standard_normal((7, 5)), rng.standard_normal((4, 5)), (4, 2)
    params = init_params(SPEC, seed=3)
    for ws in (None, Workspace(SPEC)):
        got_v, got_stack = stacked_forward(params, x, axes, workspace=ws, values=v)
        assert got_v.shape == (7, 3) and got_stack.shape == (3, 4, 3)
        assert np.array_equal(got_v, forward(params, v))
        assert np.array_equal(got_stack, stacked_forward(params, x, axes))
    # a pass given no value rows still returns, and its gradient still takes, a pair
    ws = Workspace(SPEC)
    got_v, got_stack = stacked_forward(params, x, axes, workspace=ws, values=np.empty((0, 5)))
    assert got_v.shape == (0, 3) and np.array_equal(got_stack, stacked_forward(params, x, axes))
    cot = rng.standard_normal((3, 4, 3))
    with pytest.raises(ConfigError):  # the stack alone, for a pass that returned a pair
        ws.gradient(cot)
    grad = ws.gradient((np.empty((0, 3)), cot))
    stacked_forward(params, x, axes, workspace=ws)
    assert grad.tobytes() == ws.gradient(cot).tobytes()


def test_a_ragged_last_batch_in_a_reused_workspace_matches_a_fresh_one(rng):
    # channel-study's shape: 22 inputs, 64/32/32, float32, 256 collocation rows beside
    # 128 measurement rows, then a last batch of 80
    spec = MlpSpec(22, 64, 32, 32)
    store = init_params(spec, seed=2)
    low = _float32_copy(store)
    axes = (0, 1)
    ws = Workspace(spec)
    for n_values in (128, 80):
        v, x = rng.uniform(0.0, 1.0, (n_values, 22)), rng.uniform(0.0, 1.0, (256, 22))
        cot = (rng.standard_normal((n_values, 3)), rng.standard_normal((3, 256, 3)))
        fresh = Workspace(spec)
        got, want = stacked_forward(low, x, axes, ws, values=v), stacked_forward(low, x, axes, fresh, values=v)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert ws.gradient(cot).tobytes() == fresh.gradient(cot).tobytes()


def _float32_copy(store):
    return ParamStore(spec=store.spec, flat=store.flat.astype(np.float32), layout=store.layout)


@pytest.mark.parametrize("widths", [(8, 6, 4), (64, 32, 32)])
def test_float32_store_runs_a_float32_pass_and_reverse(rng, widths):
    # every buffer, output and reverse scratch is float32, and the pass and its reverse
    # are the per-field reference run in float32, bit for bit: a scalar that promoted a
    # step to float64 would change its rounding even where the result lands in float32
    spec = MlpSpec(5, *widths)
    store = init_params(spec, seed=2)
    store.flat += 0.05 * rng.standard_normal(store.n_params)
    low = _float32_copy(store)
    f32 = np.dtype(np.float32)
    for k in (0, 2):
        x, axes = rng.standard_normal((130, 5)), (3, 1)[:k]
        cot = rng.standard_normal((k + 1, 130, 3))
        ws = Workspace(spec)
        out = stacked_forward(low, x, axes, workspace=ws)
        grad = ws.gradient(cot)
        fresh = stacked_forward(low, x, axes)
        assert out.dtype == f32 and fresh.dtype == f32
        assert grad.dtype == np.float64
        assert {b.dtype for b in ws._flat.values()} == {f32} and ws._grad.dtype == f32
        want_out, want_grad = per_field_pass(low, x.astype(f32), axes, cot.astype(f32))
        assert out.tobytes() == want_out.tobytes() and fresh.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.astype(np.float64).tobytes()
        if k == 0:  # forward's plain value pass gives the kernel's values in float32 too
            assert forward(low, x).tobytes() == want_out[0].tobytes()


@pytest.mark.parametrize("widths", [(8, 6, 4), (64, 32, 32)])
def test_float32_pass_agrees_with_float64_within_a_bound_from_its_eps(rng, widths):
    # The float32 pass rounds the parameters and inputs once and each layer's sums
    # and tanh; tanh is 1-Lipschitz and the fan-in-scaled weights keep each layer's
    # gain near 1, so each of the six layers adds a few eps of the largest magnitude.
    # 32 eps (3.8e-6) of the largest float64 magnitude bounds values, z*/t* tangents
    # and the gradient, with a margin of about 8 over the 4 eps these draws reach.
    bound = 32 * np.finfo(np.float32).eps
    spec = MlpSpec(5, *widths)
    store = init_params(spec, seed=2)
    store.flat += 0.05 * rng.standard_normal(store.n_params)
    x, axes = rng.uniform(0.0, 1.0, (256, 5)), (0, 1)  # the z* and t* axes
    cot = rng.standard_normal((3, 256, 3))
    passes = []
    for params in (store, _float32_copy(store)):
        ws = Workspace(spec)
        out = stacked_forward(params, x, axes, workspace=ws)
        passes.append((out[0], out[1], out[2], ws.gradient(cot)))
    for name, want, got in zip(("values", "z* tangents", "t* tangents", "gradient"), *passes):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), name


def test_workspace_follows_the_precision_of_each_store(params, rng):
    # one workspace alternating float64 and float32 stores: each pass and gradient is
    # bit-identical to a fresh workspace's
    ws = Workspace(SPEC)
    axes = (2, 0)
    for store in (params, _float32_copy(params), params, _float32_copy(params)):
        x, cot = rng.standard_normal((6, 5)), rng.standard_normal((3, 6, 3))
        fresh = Workspace(SPEC)
        out = stacked_forward(store, x, axes, workspace=ws)
        want = stacked_forward(store, x, axes, workspace=fresh)
        assert out.dtype == store.flat.dtype and out.tobytes() == want.tobytes()
        assert ws.gradient(cot).tobytes() == fresh.gradient(cot).tobytes()


def test_gradient_of_tangent_loss_matches_finite_difference(rng):
    # losses built from values and directional derivatives must backprop exactly
    x = rng.standard_normal((3, 5))
    axes = (0, 2)
    weights = rng.standard_normal((3, 3, 3))

    def loss_value(store):
        y = stacked_forward(store, x, axes)
        return float(np.sum(weights * y) + np.sum(y[1:] ** 2))

    spec = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4)
    store = init_params(spec, seed=3)
    store.flat += 0.1 * rng.standard_normal(store.n_params)  # nonzero biases
    ws = Workspace(spec)
    cot = weights.copy()
    cot[1:] += 2.0 * stacked_forward(store, x, axes, workspace=ws)[1:]
    grad = ws.gradient(cot)

    h = 1e-6
    for idx in np.linspace(0, store.n_params - 1, 40).astype(int):
        old = store.flat[idx]
        store.flat[idx] = old + h
        lp = loss_value(store)
        store.flat[idx] = old - h
        lm = loss_value(store)
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


def test_optimizer_step_matches_the_out_of_place_update_bit_for_bit(params, rng):
    flat, m, v = params.flat.copy(), np.zeros(params.n_params), np.zeros(params.n_params)
    for step in range(1, 51):
        grad = rng.standard_normal(params.n_params) * 10.0 ** rng.uniform(-6, 2)
        lr = learning_rate(1e-3, step)
        optimizer_step(params, grad, lr)
        flat, m, v = adam_out_of_place(flat, m, v, step, grad, lr)
        assert np.array_equal(params.flat, flat)
        assert np.array_equal(params.m, m) and np.array_equal(params.v, v)
        if step == 1:
            moments = (params.m, params.v)
        # updated in place: the store keeps the moment arrays its first step made
        assert params.m is moments[0] and params.v is moments[1]
    assert params.step == 50


def test_optimizer_rejects_non_finite_gradient(params):
    grad = np.zeros(params.n_params)
    grad[0] = np.nan
    with pytest.raises(NumericalError):
        optimizer_step(params, grad, lr=1e-3)


def test_gradient_zero_in_unused_tail_branches(params, rng):
    # a loss on one field alone reaches its own tail and output, and none of the other two
    ws = Workspace(SPEC)
    out = stacked_forward(params, rng.standard_normal((2, 5)), (0, 1), workspace=ws)

    def block(g, name):
        start, stop = next((s, e) for nm, _, s, e in params.layout if nm == name)
        return g[start:stop]

    for f, field in enumerate(FIELD_ORDER):
        cot = np.zeros_like(out)
        cot[:, :, f] = rng.standard_normal((3, 2))
        g = ws.gradient(cot)
        assert g.shape == params.flat.shape
        for other in FIELD_ORDER:
            for name in (f"tail_{other}.w", f"tail_{other}.b", f"out_{other}.w", f"out_{other}.b"):
                assert np.all(block(g, name) == 0.0) == (other != field), name
        assert np.any(block(g, "head0.w") != 0.0)


def test_perturbing_one_branch_leaves_the_others_bit_unchanged(params, rng):
    x, axes = rng.standard_normal((5, 5)), (1, 4)
    before = stacked_forward(params, x, axes).copy()
    for name in ("tail_u.w", "tail_u.b", "out_u.w", "out_u.b"):
        params.view(name)[...] += rng.standard_normal(params.view(name).shape)
    for ws in (None, Workspace(SPEC)):
        after = stacked_forward(params, x, axes, workspace=ws)
        assert np.array_equal(after[..., [0, 2]], before[..., [0, 2]])  # p and T, values and tangents
        assert np.all(after[..., 1] != before[..., 1])


def test_each_store_reads_its_own_parameters(rng):
    x = rng.standard_normal((4, 5))
    a, b = init_params(SPEC, 1), init_params(SPEC, 2)
    ya, yb = forward(a, x), forward(b, x)  # both stores now hold their cached layer views
    twin = ParamStore(spec=SPEC, flat=a.flat.copy(), layout=a.layout)
    twin.flat *= 0.5
    for store, y in ((a, ya), (b, yb), (twin, forward(twin, x))):
        assert np.allclose(y, _reference_forward(SPEC, store, x), atol=1e-12)
        assert np.array_equal(forward(store, x), y)
    assert not np.allclose(ya, yb)
    cot = rng.standard_normal((1, 4, 3))
    ws = Workspace(SPEC)
    stacked_forward(a, x, workspace=ws)
    g_a = ws.gradient(cot)
    stacked_forward(twin, x, workspace=ws)
    g_twin = ws.gradient(cot)
    assert not np.allclose(g_a, g_twin)


def test_stacked_forward_validates_shapes(params, rng):
    x = rng.standard_normal((3, 5))
    with pytest.raises(ConfigError):
        stacked_forward(params, x[:, :4])
    # out of range, negative (numpy would wrap it), repeated (a fancy-index += keeps one of the two
    # column sums), a bool, a non-integer, and a stack of direction rows
    for axes in ((0, 5), (-1,), (1, 1), (0, True), (0, 1.0), (0.5,), ("0",), np.eye(5)[:2]):
        with pytest.raises(ConfigError, match="axes must be distinct input columns"):
            stacked_forward(params, x, axes)
    ws = Workspace(SPEC)
    stacked_forward(params, x, (0, 1), workspace=ws)
    with pytest.raises(ConfigError):
        ws.gradient(np.zeros((2, 3, 3)))


def test_gradient_needs_saved_activations():
    with pytest.raises(ValueError, match="no pass"):  # nothing to reverse before the first pass
        Workspace(SPEC).gradient(np.zeros((1, 2, 3)))


def test_gradient_reverses_the_last_pass(params, rng):
    # passes of 7, 3 and 5 rows on one workspace: its gradient is the 5-row pass's, bit for bit
    ws, fresh = Workspace(SPEC), Workspace(SPEC)
    axes = (0, 3)
    for n_rows in (7, 3, 5):
        x = rng.standard_normal((n_rows, 5))
        stacked_forward(params, x, axes, workspace=ws)
    stacked_forward(params, x, axes, workspace=fresh)
    cot = rng.standard_normal((3, 5, 3))
    assert ws.gradient(cot).tobytes() == fresh.gradient(cot).tobytes()
    with pytest.raises(ConfigError):  # a cotangent shaped for the 7-row pass
        ws.gradient(np.zeros((3, 7, 3)))


def test_workspace_reuse_matches_fresh_passes(rng):
    # one workspace, passes whose row and axis counts grow its buffers, shrink and grow
    # again: k = 0 (a value pass), 2 (training's z* and t* axes) and 20 (distinct axes of
    # the 22). Every pass and gradient is bit-identical to a fresh workspace's and to
    # workspace-free outputs
    spec = MlpSpec(22, 16, 8, 8)
    store = init_params(spec, seed=4)
    ws = Workspace(spec)
    for k, n_rows, n_values in ((2, 7, 0), (0, 3, 0), (20, 6, 0), (2, 1, 5), (0, 7, 0), (20, 2, 0), (2, 9, 3)):
        x, axes = rng.standard_normal((n_rows, 22)), rng.permutation(22)[:k]
        values = rng.standard_normal((n_values, 22)) if n_values else None
        cot = rng.standard_normal((k + 1, n_rows, 3))
        if n_values:
            cot = (rng.standard_normal((n_values, 3)), cot)
        fresh_ws = Workspace(spec)
        fresh = stacked_forward(store, x, axes, workspace=fresh_ws, values=values)
        reused = stacked_forward(store, x, axes, workspace=ws, values=values)
        bare = stacked_forward(store, x, axes, values=values)
        for got in (reused, bare):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, fresh))
        assert ws.gradient(cot).tobytes() == fresh_ws.gradient(cot).tobytes()


def test_workspace_rejects_misuse(params, rng):
    ws = Workspace(SPEC)
    x, axes = rng.standard_normal((4, 5)), (0, 1)
    other = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=5)
    with pytest.raises(ConfigError, match="another architecture"):
        stacked_forward(init_params(other, 0), x, axes, workspace=ws)


def test_passes_without_workspace_survive_later_calls(params, rng):
    x, axes = rng.standard_normal((6, 5)), (0, 1)
    y = forward(params, x)
    J = stacked_forward(params, x, axes)[1:]
    ws = Workspace(SPEC)
    stacked_forward(params, x, axes, workspace=ws)
    g = ws.gradient(np.ones((3, 6, 3)))
    y0, J0, g0 = y.copy(), J.copy(), g.copy()
    for _ in range(2):
        x2 = rng.standard_normal((6, 5))
        forward(params, x2)
        stacked_forward(params, x2, axes)
        stacked_forward(params, x2, axes, workspace=ws)
        ws.gradient(np.ones((3, 6, 3)))
    assert np.array_equal(y, y0) and np.array_equal(J, J0)
    assert np.array_equal(g, g0)  # a gradient is the caller's, not the workspace's
