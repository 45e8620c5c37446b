"""Dataset assembly, losses, collocation, and the training loop."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from flowpsm.errors import NumericalError
from flowpsm.control import linearize, station_predict
from flowpsm.diagnostics import pde_residuals, prediction_errors
from flowpsm.formats import load_checkpoint, save_checkpoint
from flowpsm.network import (
    FIELD_ORDER,
    ParamStore,
    Workspace,
    forward,
    init_params,
    learning_rate,
    optimizer_step,
    stacked_forward,
)
from flowpsm.solver import SolverConfig, steady_state
from flowpsm.solver import _plan
from flowpsm.training import (
    Batch,
    NoiseSpec,
    TrainConfig,
    add_noise,
    assemble_dataset,
    check_stream_compatible,
    compute_scaling,
    evaluate_records,
    input_layout,
    logcosh_np,
    loss_and_gradient,
    measurement_loss,
    mlp_for_scenario,
    physics_loss,
    physics_residuals,
    physics_residuals_adjoint,
    pointwise_closures,
    query_rows,
    rollout_evaluate,
    sample_collocation,
    scale_sensors,
    train,
)
from flowpsm.transport import ConfigError, ScalingSpec, density, heated_channel_preset, loop_preset

from conftest import tiny_channel


def test_input_layout_matches_presets():
    for preset in (heated_channel_preset(), loop_preset()):
        lay = input_layout(preset)
        assert lay.n_controls == 2
        assert lay.n_stations == 6
        assert lay.n_state == 18
        assert lay.input_dim == 22
        assert lay.z_col == 0 and lay.t_col == 1
        assert (lay.v_cols.start, lay.v_cols.stop) == (2, 4)
        assert (lay.x0_cols.start, lay.x0_cols.stop) == (4, 22)
    spec = mlp_for_scenario(heated_channel_preset(), widths=(64, 32, 32))
    assert spec.input_dim == 22
    assert (spec.head_width, spec.intermediate_width, spec.tail_width) == (64, 32, 32)


def _full_batch(dataset):
    return Batch(inputs=dataset.inputs, targets=dataset.targets)


def _scaled_snapshot(scaling, snapshot, j):
    """Scaled (p, u, T) of one station of a (3, s) physical snapshot."""
    return np.array([scaling.scale_field(name, snapshot[f, j]) for f, name in enumerate(FIELD_ORDER)])


def test_assemble_dataset_pairing(tiny_scenario, tiny_records, tiny_dataset):
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    s = tiny_records[0].station_z.size
    K = tiny_records[0].n_steps
    assert dataset.n_samples == 2 * K * 2 * s  # 2 records, 2 rows per station-step
    assert dataset.inputs.shape == (dataset.n_samples, lay.input_dim)
    assert dataset.targets.shape == (dataset.n_samples, 3)
    # per step, a t* = 0 row then a t* = 1 row per station, both at the
    # step's (v, x0); the t* = 0 target restates x0 at the station, the
    # t* = 1 target is the next snapshot
    rec = tiny_records[1]
    for k in (0, K - 1):
        base = (K + k) * 2 * s  # the second record follows the first's K steps
        for j in range(s):
            row0, row1 = dataset.inputs[base + j], dataset.inputs[base + s + j]
            assert row0[lay.t_col] == 0.0
            assert row1[lay.t_col] == 1.0
            assert row0[lay.z_col] == scaling.scale_z(rec.station_z[j])
            assert np.array_equal(row0[lay.v_cols], scaling.scale_v(rec.v[k]))
            assert np.array_equal(row0[lay.x0_cols], scale_sensors(scaling, rec.sensors[k]))
            assert np.array_equal(np.delete(row1, lay.t_col), np.delete(row0, lay.t_col))
            assert np.array_equal(dataset.targets[base + j], _scaled_snapshot(scaling, rec.sensors[k], j))
            assert np.array_equal(dataset.targets[base + s + j],
                                  _scaled_snapshot(scaling, rec.sensors[k + 1], j))


def test_corpus_rows_are_the_rows_the_model_is_queried_with(tiny_scenario, tiny_records, tiny_dataset):
    # the t* = 1 rows of step k are the rows station_predict and
    # prediction_errors build from snapshot k and input v_k
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    rec = tiny_records[0]
    s = rec.station_z.size
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params = init_params(spec, 3)
    errors = prediction_errors(params, tiny_scenario, scaling, rec)
    for k in (0, 5, rec.n_steps - 1):
        ahead = slice(2 * k * s + s, 2 * (k + 1) * s)
        x_k, v_k = scale_sensors(scaling, rec.sensors[k]), scaling.scale_v(rec.v[k])
        rows = query_rows(lay, scaling.scale_z(rec.station_z), 1.0, v_k, x_k)
        assert np.array_equal(dataset.inputs[ahead], rows)
        pred = forward(params, rows)
        assert np.allclose(station_predict(params, tiny_scenario, scaling, x_k, v_k),
                           pred.T.ravel(), rtol=1e-13, atol=0.0)
        assert errors[k] == pytest.approx(np.mean((pred - dataset.targets[ahead]) ** 2), rel=1e-12)


@pytest.mark.parametrize("n_conditions", [1, 5])
def test_query_rows_lay_conditions_out_condition_major(rng, n_conditions):
    lay = input_layout(heated_channel_preset())
    z = rng.uniform(0.0, 1.0, 6)
    v = rng.uniform(0.0, 1.0, (n_conditions, lay.n_controls))
    x0 = rng.uniform(0.0, 1.0, (n_conditions, lay.n_state))
    want = np.empty((n_conditions * z.size, lay.input_dim))
    want[:, lay.z_col] = np.tile(z, n_conditions)
    want[:, lay.t_col] = 0.5
    want[:, lay.v_cols] = np.repeat(v, z.size, axis=0)
    want[:, lay.x0_cols] = np.repeat(x0, z.size, axis=0)
    got = query_rows(lay, z, 0.5, v, x0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if n_conditions == 1:  # a single condition given 1-D
        assert query_rows(lay, z, 0.5, v[0], x0[0]).tobytes() == want.tobytes()


def test_assemble_dataset_rejects_foreign_records(tiny_records, tiny_dataset):
    _, scaling = tiny_dataset
    with pytest.raises(ConfigError):
        assemble_dataset(tiny_records[:1], heated_channel_preset(), scaling)


def test_assemble_dataset_needs_a_record(tiny_scenario, tiny_dataset):
    with pytest.raises(ConfigError):
        assemble_dataset([], tiny_scenario, tiny_dataset[1])


def test_scaled_batch_is_inside_unit_box(tiny_scenario, tiny_dataset):
    dataset, _ = tiny_dataset
    assert np.all(dataset.inputs[:, 0] >= 0.0) and np.all(dataset.inputs[:, 0] <= 1.0)
    assert np.all(dataset.targets >= -1e-9) and np.all(dataset.targets <= 1.0 + 1e-9)


def test_compute_scaling_has_margin(tiny_scenario, tiny_records):
    scaling = compute_scaling(tiny_records[:2], tiny_scenario)
    T_all = np.concatenate([r.T.ravel() for r in tiny_records[:2]])
    assert scaling.T_min < T_all.min()
    assert scaling.T_max > T_all.max()
    assert scaling.t_max == tiny_scenario.delta_t
    assert scaling.z_max == tiny_scenario.total_length


def test_check_stream_compatible(tiny_scenario, tiny_records):
    check_stream_compatible(tiny_records[0], tiny_scenario)
    other = tiny_channel(episode_duration=40.0)
    check_stream_compatible(tiny_records[0], other)  # layout matches, hash differs
    with pytest.raises(ConfigError):
        check_stream_compatible(tiny_records[0], heated_channel_preset())


def test_add_noise_modes(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    batch = _full_batch(dataset)
    rng = np.random.default_rng(0)

    clean = add_noise(batch, NoiseSpec(), rng, lay)
    assert np.array_equal(clean.inputs, batch.inputs)
    assert clean.inputs is not batch.inputs  # a copy, never an alias

    noisy = add_noise(batch, NoiseSpec(mode="homoscedastic", sigma=0.01), rng, lay)
    assert not np.array_equal(noisy.targets, batch.targets)
    assert not np.array_equal(noisy.inputs[:, lay.x0_cols], batch.inputs[:, lay.x0_cols])
    # controls, z, t stay exact
    assert np.array_equal(noisy.inputs[:, : lay.x0_cols.start], batch.inputs[:, : lay.x0_cols.start])

    hetero = add_noise(batch, NoiseSpec(mode="heteroscedastic", xi=0.001), rng, lay)
    assert not np.array_equal(hetero.targets, batch.targets)
    with pytest.raises(ConfigError):
        NoiseSpec(mode="salt")
    with pytest.raises(ConfigError):
        NoiseSpec(sigma=-1.0)


def test_measurement_loss_logcosh(rng):
    pred = rng.standard_normal((6, 3))
    tgt = rng.standard_normal((6, 3))
    got = measurement_loss(pred, tgt)
    assert got == pytest.approx(float(np.mean(logcosh_np(pred - tgt))))


def test_logcosh_gradient_is_tanh(rng):
    x = rng.standard_normal(8) * 3.0
    h = 1e-6
    fd = (logcosh_np(x + h) - logcosh_np(x - h)) / (2 * h)
    assert np.allclose(fd, np.tanh(x), atol=1e-8)


def test_logcosh_matches_naive_and_survives_large_inputs():
    small = np.linspace(-5, 5, 41)
    assert np.allclose(logcosh_np(small), np.log(np.cosh(small)), atol=1e-12)
    big = np.array([-1e4, 1e4, 800.0])
    out = logcosh_np(big)
    assert np.all(np.isfinite(out))
    # asymptote |x| - log 2
    assert np.allclose(out, np.abs(big) - np.log(2.0))


def test_pointwise_closures_segment_lookup(tiny_scenario):
    z = np.array([0.1, 0.75, 1.4])  # cold pipe, heated pipe, cold pipe
    v = np.tile([0.65, 844.65], (3, 1))
    fric, grav, q = pointwise_closures(tiny_scenario, z, v)
    seg = tiny_scenario.segments[0]
    assert np.allclose(fric, seg.friction_factor / seg.hydraulic_diameter)
    assert np.allclose(grav, 0.0)
    assert q[0] == 0.0 and q[2] == 0.0
    assert q[1] == tiny_scenario.segments[1].heat_source


def test_pointwise_closures_loop_sink_negates_source():
    sc = loop_preset()
    v = np.tile([50.0e6, 1500.0], (2, 1))
    _, _, q = pointwise_closures(sc, np.array([1.5, 5.5]), v)  # heater, cooler
    assert q[0] == pytest.approx(50.0e6)
    assert q[1] == pytest.approx(-50.0e6)


def test_pointwise_closures_read_the_solver_cell_table():
    for sc in (heated_channel_preset(), loop_preset()):
        plan = _plan(sc)
        z = plan.grid.centers
        v = np.tile([0.5 * (lo + hi) for lo, hi in sc.input_ranges], (z.size, 1))
        fric, grav, q = pointwise_closures(sc, z, v)
        segs = [sc.segments[i] for i in plan.grid.segment_of_cell]
        assert fric.tolist() == [s.friction_factor / s.hydraulic_diameter for s in segs]
        assert grav.tolist() == [s.gravity_component for s in segs]
        assert np.array_equal(q, plan.q_fixed + plan.q_ctrl @ v[0])


def test_physics_residuals_adjoint_matches_finite_difference(tiny_scenario, tiny_dataset, rng):
    _, scaling = tiny_dataset
    n = 7
    z = rng.uniform(0.0, tiny_scenario.total_length, n)
    closures = pointwise_closures(tiny_scenario, z, np.tile([0.65, 844.65], (n, 1)))
    stacks = rng.uniform(-1.0, 1.0, (3, 3, n))  # values, z tangents, t tangents
    stacks[0, 1] -= scaling.u_min / scaling.span("u")  # u straddles zero
    weights = rng.standard_normal((3, n))

    def objective(s):
        r = physics_residuals(s[0], s[1], s[2], closures, tiny_scenario, scaling)
        return float(sum(np.sum(w * ri) for w, ri in zip(weights, r)))

    got = np.stack(physics_residuals_adjoint(stacks[0], stacks[1], stacks[2], closures,
                                             tiny_scenario, scaling, weights))
    h = 1e-7
    for idx in np.ndindex(stacks.shape):
        up, down = stacks.copy(), stacks.copy()
        up[idx] += h
        down[idx] -= h
        fd = (objective(up) - objective(down)) / (2 * h)
        assert got[idx] == pytest.approx(fd, rel=1e-6, abs=1e-6 * np.max(np.abs(got))), idx


def test_loss_and_gradient_without_physics(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params = init_params(spec, 0)
    batch = _full_batch(dataset)
    ws = Workspace(params)
    lm, lp, grad = loss_and_gradient(params, batch, None, tiny_scenario, scaling, 1.0, 0.0, ws)
    assert lp == 0.0
    assert lm == measurement_loss(forward(params, batch.inputs), batch.targets)
    _, _, half = loss_and_gradient(params, batch, None, tiny_scenario, scaling, 0.5, 0.0, ws)
    assert np.allclose(half, 0.5 * grad, rtol=1e-14, atol=0.0)


def test_one_pass_gradient_is_the_sum_of_a_measurement_and_a_physics_pass(tiny_scenario, tiny_dataset, rng):
    # float64, 64/32/32, 128 measurement and 256 collocation rows: the merged pass against a
    # measurement-only pass and a physics-only pass, each reversed on its own. The two sides
    # run the same products; only the weight gradients' sums over rows are grouped
    # differently (one GEMM over all rows against two added), each a few eps of its largest
    # term. 16 eps of the largest gradient magnitude bounds the difference: this draw
    # reaches 2.7 eps, and draws from seeds 0-11 reach 1.4-5.0.
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(64, 32, 32))
    params = init_params(spec, 0)
    params.flat += 0.05 * rng.standard_normal(params.n_params)
    lay = input_layout(tiny_scenario)
    idx = rng.choice(dataset.n_samples, 128, replace=False)
    batch = Batch(inputs=dataset.inputs[idx], targets=dataset.targets[idx])
    colloc = sample_collocation(rng, 256, batch, lay)
    alpha, beta = 0.3, 0.7
    lm, lp, grad = loss_and_gradient(params, batch, colloc, tiny_scenario, scaling, alpha, beta, Workspace(params))
    ws_m, ws_p = Workspace(params), Workspace(params)
    pred = stacked_forward(params, ws_m, batch.inputs)[1][0]
    grad_m = ws_m.gradient((np.empty((0, 3)), np.tanh(pred - batch.targets)[None] * (alpha / batch.targets.size)))
    stack = stacked_forward(params, ws_p, colloc, (lay.z_col, lay.t_col))[1]
    want_lp, g_stack = physics_loss(colloc, stack, tiny_scenario, scaling)
    want = grad_m + ws_p.gradient((np.empty((0, 3)), beta * g_stack))
    assert lm == measurement_loss(pred, batch.targets) and lp == want_lp
    assert np.max(np.abs(grad - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(want))


def test_physics_residuals_vanish_on_manufactured_steady_solution(tiny_scenario, tiny_dataset):
    # a steady solver state is a solution: build exact-valued "outputs" and
    # derivative triples from it and check the residuals are ~0
    _, scaling = tiny_dataset
    state = steady_state(tiny_scenario, np.array([0.65, 844.65]))
    z = state.grid_z[3:-3]  # stay off segment edges where derivatives kink
    dz = np.gradient(state.T, state.grid_z)

    def triple(values):
        return (values[:, None] for values in values)

    outs = (
        scaling.scale_field("p", state.p[3:-3])[:, None],
        scaling.scale_field("u", state.u[3:-3])[:, None],
        scaling.scale_field("T", state.T[3:-3])[:, None],
    )
    # physical-gradient -> scaled-tangent conversion inverts the chain rule
    tans_z = (
        (np.gradient(state.p, state.grid_z)[3:-3] * scaling.z_max / scaling.span("p"))[:, None],
        (np.gradient(state.u, state.grid_z)[3:-3] * scaling.z_max / scaling.span("u"))[:, None],
        (dz[3:-3] * scaling.z_max / scaling.span("T"))[:, None],
    )
    tans_t = tuple(np.zeros((z.size, 1)) for _ in range(3))
    v = np.tile([0.65, 844.65], (z.size, 1))
    fric, grav, q = pointwise_closures(tiny_scenario, z, v)
    closures = (fric[:, None], grav[:, None], q[:, None])
    r_mass, r_mom, r_energy = physics_residuals(outs, tans_z, tans_t, closures,
                                                tiny_scenario, scaling)
    # central differences on a 3-cell segment grid are first-order accurate;
    # residuals are nondimensional. Mass and momentum read about 2e-3 here, so
    # 1e-2 catches a friction or pressure-gradient term that is dropped or of the
    # wrong sign; energy reads about 0.13 on this grid
    assert np.max(np.abs(r_mass)) < 1e-2
    assert np.max(np.abs(r_mom)) < 1e-2
    assert np.max(np.abs(r_energy)) < 0.15


def test_sample_collocation_inherits_rows(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    batch = _full_batch(dataset)
    rng = np.random.default_rng(1)
    colloc = sample_collocation(rng, 64, batch, lay)
    assert colloc.shape == (64, lay.input_dim)
    assert np.all((colloc[:, 0] >= 0) & (colloc[:, 0] <= 1))
    assert np.all((colloc[:, 1] >= 0) & (colloc[:, 1] <= 1))
    # (v, x0) columns must be rows of the batch
    tail = colloc[:, 2:]
    pool = batch.inputs[:, 2:]
    for row in tail[:10]:
        assert np.any(np.all(np.isclose(pool, row), axis=1))
    # fresh draws differ
    colloc2 = sample_collocation(rng, 64, batch, lay)
    assert not np.array_equal(colloc, colloc2)


def test_physics_loss_validates_collocation(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    good = np.zeros((4, spec.input_dim))
    params = init_params(spec, 0)
    stack = stacked_forward(params, Workspace(params), good, (0, 1))[1]
    physics_loss(good, stack, tiny_scenario, scaling)
    with pytest.raises(ConfigError):
        physics_loss(np.zeros((4, 3)), stack, tiny_scenario, scaling)
    with pytest.raises(ConfigError):  # a stack of another row count
        physics_loss(good, stack[:, :3], tiny_scenario, scaling)
    bad = good.copy()
    bad[:, 0] = 2.0
    with pytest.raises(ConfigError, match="outside the scaled domain"):
        physics_loss(bad, stack, tiny_scenario, scaling)


def test_training_loss_gradient_matches_finite_difference(rng):
    # a loop whose closures vary along z: friction everywhere, a control-driven
    # heater and cooler, a fixed source, and gravity on two legs
    base = loop_preset()
    segs = list(base.segments)
    segs[2] = replace(segs[2], gravity_component=-9.81)
    segs[3] = replace(segs[3], heat_source=2.0e6)
    segs[5] = replace(segs[5], gravity_component=9.81)
    scenario = replace(base, segments=tuple(segs))
    spec = mlp_for_scenario(scenario, widths=(6, 5, 4))
    params = init_params(spec, 1)
    params.flat += 0.1 * rng.standard_normal(params.n_params)  # nonzero biases
    lay = input_layout(scenario)
    batch = Batch(inputs=rng.uniform(0.0, 1.0, (16, lay.input_dim)),
                  targets=rng.uniform(0.0, 1.0, (16, 3)))
    colloc = sample_collocation(rng, 48, batch, lay)
    # centre the u scaling on the median prediction so |u| sees both signs
    u_star = forward(params, colloc)[:, 1]
    u_min = -float(np.median(u_star))
    scaling = ScalingSpec(
        z_max=scenario.total_length, t_max=scenario.delta_t,
        p_min=-2000.0, p_max=2000.0, u_min=u_min, u_max=u_min + 1.0, T_min=840.0, T_max=900.0,
        rho_min=float(density(scenario.fluid, 900.0)), rho_max=float(density(scenario.fluid, 840.0)),
        v_min=(45.0e6, 1125.0), v_max=(55.0e6, 1875.0),
    )
    u = u_star + u_min
    assert np.any(u > 0.0) and np.any(u < 0.0)
    alpha, beta = 0.3, 0.7
    ws = Workspace(params)
    lm, lp, grad = loss_and_gradient(params, batch, colloc, scenario, scaling, alpha, beta, ws)
    fric, grav, q = pointwise_closures(scenario, scaling.unscale_z(colloc[:, 0]),
                                       scaling.unscale_v(colloc[:, lay.v_cols]))
    assert np.all(fric > 0.0) and len(set(grav)) == 3 and len(set(np.sign(q))) == 3

    def total(store):
        lm, lp, _ = loss_and_gradient(store, batch, colloc, scenario, scaling, alpha, beta, ws)
        return alpha * lm + beta * lp

    h = 1e-6
    for idx in np.linspace(0, params.n_params - 1, 60).astype(int):
        old = params.flat[idx]
        params.flat[idx] = old + h
        up = total(params)
        params.flat[idx] = old - h
        down = total(params)
        params.flat[idx] = old
        fd = (up - down) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-6 * max(abs(fd), 1e-3), idx


def test_train_runs_and_is_deterministic(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(epochs=3, batch_size=64, base_lr=1e-3, collocation_size=32, seed=5)
    p1, h1 = train(init_params(spec, cfg.seed), dataset, tiny_scenario, scaling, cfg)
    p2, h2 = train(init_params(spec, cfg.seed), dataset, tiny_scenario, scaling, cfg)
    for a, b in ((p1.flat, p2.flat), (p1.m, p2.m), (p1.v, p2.v)):  # float32 passes, bit-identical runs
        assert a.tobytes() == b.tobytes()
    assert [r["loss_total"] for r in h1] == [r["loss_total"] for r in h2]
    assert len(h1) == 3
    assert h1[0]["learning_rate"] == 1e-3
    assert all(set(r) == {"epoch", "loss_measurement", "loss_physics", "loss_total",
                          "learning_rate"} for r in h1)


def test_train_data_only_mode_skips_physics(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(alpha=1.0, beta=0.0, epochs=2, batch_size=64, seed=5)
    _, hist = train(init_params(spec, cfg.seed), dataset, tiny_scenario, scaling, cfg)
    assert all(r["loss_physics"] == 0.0 for r in hist)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(alpha=0.7, beta=0.5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(collocation_size=0)


def test_train_abort_ratio_guards_divergence(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(epochs=2, batch_size=64, seed=5)
    with pytest.raises(NumericalError):
        # ratio below 1 makes the first epoch itself trip the guard
        train(init_params(spec, cfg.seed), dataset, tiny_scenario, scaling, cfg, abort_ratio=0.5)


def test_rollout_evaluate_shapes_and_table(tiny_scenario, tiny_records, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(epochs=5, batch_size=128, collocation_size=32, seed=2)
    params, _ = train(init_params(spec, cfg.seed), dataset, tiny_scenario, scaling, cfg)
    rec = tiny_records[2]
    errors = rollout_evaluate(params, tiny_scenario, scaling, rec)
    assert set(errors) == {"p", "u", "T"}
    assert errors["T"].shape == (rec.n_steps, rec.grid_z.size)
    table = evaluate_records(params, tiny_scenario, scaling, [rec])
    assert set(table) == {"p", "u", "T"}
    assert table["T"]["overall_rmse"] == pytest.approx(np.sqrt(np.mean(errors["T"] ** 2)))
    assert table["T"]["mean_rmse"] == pytest.approx(np.mean(np.abs(errors["T"])))  # one record
    assert table["T"]["max_rmse"] == pytest.approx(np.max(np.abs(errors["T"])))


def test_train_rejects_mismatched_dataset(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(heated_channel_preset(), widths=(8, 6, 4))
    with pytest.raises(ConfigError):
        train(init_params(spec, 0), dataset, heated_channel_preset(), scaling,
              TrainConfig(epochs=1, batch_size=32))


def _reference_train(spec, dataset, scenario, scaling, config, noise):
    """train's loop written out, each loss on a fresh workspace and a fresh float32 cast of the store."""
    lay = input_layout(scenario)
    params = init_params(spec, config.seed)
    rng = np.random.default_rng(config.seed)
    n = dataset.n_samples
    history = []
    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config.base_lr, epoch)
        perm = rng.permutation(n)
        sum_lm = sum_lp = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = add_noise(Batch(inputs=dataset.inputs[idx], targets=dataset.targets[idx]), noise, rng, lay)
            colloc = sample_collocation(rng, config.n_collocation, batch, lay)
            shadow = ParamStore(spec, params.flat.astype(np.float32), params.layout)
            ws = Workspace(shadow)
            lm, lp, grad = loss_and_gradient(shadow, batch, colloc, scenario, scaling,
                                             config.alpha, config.beta, ws)
            optimizer_step(params, grad, lr)
            sum_lm += lm * idx.size
            sum_lp += lp * idx.size
        history.append({"epoch": epoch, "loss_measurement": sum_lm / n, "loss_physics": sum_lp / n,
                        "loss_total": (config.alpha * sum_lm + config.beta * sum_lp) / n,
                        "learning_rate": lr})
    return params, history


def test_train_workspaces_match_fresh_passes(tiny_scenario, tiny_dataset):
    # a ragged last batch and a collocation count unlike the batch size: the
    # reused workspace and the float32 copy refreshed in place give
    # bit-identical parameters and history
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    config = TrainConfig(epochs=3, batch_size=50, collocation_size=37, base_lr=1e-2, seed=4)
    assert dataset.n_samples % config.batch_size != 0
    noise = NoiseSpec(mode="homoscedastic", sigma=0.01)
    params, history = train(init_params(spec, config.seed), dataset, tiny_scenario, scaling, config, noise)
    ref_params, ref_history = _reference_train(spec, dataset, tiny_scenario, scaling, config, noise)
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert history == ref_history


def test_train_keeps_float64_master_parameters(tiny_scenario, tiny_dataset, tmp_path):
    # the passes run on a float32 copy; the store and its moments stay float64, the
    # checkpoint round-trips bit-exactly, and the passes outside train run in float64
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    config = TrainConfig(epochs=2, batch_size=64, collocation_size=32, seed=5)
    params, _ = train(init_params(spec, config.seed), dataset, tiny_scenario, scaling, config)
    assert {a.dtype for a in (params.flat, params.m, params.v)} == {np.dtype(np.float64)}
    save_checkpoint(tmp_path / "model.psmw", params)
    back = load_checkpoint(tmp_path / "model.psmw", spec)
    assert back.step == params.step
    for got, saved in ((back.flat, params.flat), (back.m, params.m), (back.v, params.v)):
        assert got.dtype == saved.dtype and got.tobytes() == saved.tobytes()
    lay = input_layout(tiny_scenario)
    assert forward(params, dataset.inputs[:5]).dtype == np.float64
    ssm = linearize(params, tiny_scenario, scaling, np.full(lay.n_state, 0.5), np.full(lay.n_controls, 0.5))
    assert {a.dtype for a in (ssm.A, ssm.B, ssm.y00)} == {np.dtype(np.float64)}
    _, res = pde_residuals(params, tiny_scenario, scaling, dataset.inputs[:2, lay.v_cols],
                           dataset.inputs[:2, lay.x0_cols])
    assert res.dtype == np.float64


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are read on Linux")
def test_psm_batches_reuse_their_pages(tiny_scenario, tiny_dataset):
    # 64/32/32 with 128 measurement and 256 collocation rows: fresh activation
    # pages cost about 1,230 minor faults per batch; the workspace removes them
    resource = pytest.importorskip("resource")
    _, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(64, 32, 32))
    params = init_params(spec, 0)
    lay = input_layout(tiny_scenario)
    rng = np.random.default_rng(0)
    ws = Workspace(params)
    batch = Batch(inputs=rng.uniform(0.0, 1.0, (128, lay.input_dim)), targets=rng.uniform(0.0, 1.0, (128, 3)))

    def one_batch():
        colloc = sample_collocation(rng, 256, batch, lay)
        _, _, grad = loss_and_gradient(params, batch, colloc, tiny_scenario, scaling,
                                       0.5, 0.5, ws)
        optimizer_step(params, grad, 1e-3)

    for _ in range(3):
        one_batch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        one_batch()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2460, faults  # a tenth of the 24.6k that fresh pages took
