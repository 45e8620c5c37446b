"""Dataset assembly, losses, collocation, and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from flowpsm.errors import NumericalError
from flowpsm.network import forward, init_params
from flowpsm.solver import SolverConfig, run_experiment, steady_state
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
    rollout_evaluate,
    sample_collocation,
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


def test_assemble_dataset_pairing(tiny_scenario, tiny_records):
    dataset, scaling = assemble_dataset(tiny_records[:2], tiny_scenario)
    s = tiny_records[0].station_z.size
    K = tiny_records[0].n_steps
    assert dataset.n_samples == 2 * K * 2 * s  # 2 records, 2 rows per station-step
    # rows come in (t=0, t=delta_t) pairs per station; t=0 target equals the
    # matching x0 entry, t=delta_t target is the next snapshot
    rec = tiny_records[0]
    for k in (0, K - 1):
        base = k * 2 * s
        for j in range(s):
            row0 = base + j
            row1 = base + s + j
            assert dataset.t[row0] == 0.0
            assert dataset.t[row1] == tiny_scenario.delta_t
            assert dataset.z[row0] == rec.station_z[j]
            assert np.array_equal(dataset.v[row0], rec.v[k])
            assert np.array_equal(dataset.x0[row0], rec.sensors[k].ravel())
            assert np.array_equal(dataset.targets[row0], rec.sensors[k][:, j])
            assert np.array_equal(dataset.targets[row1], rec.sensors[k + 1][:, j])


def test_assemble_dataset_rejects_foreign_records(tiny_scenario, tiny_records):
    other = heated_channel_preset()
    with pytest.raises(ConfigError):
        assemble_dataset(tiny_records[:1], other)


def test_scaled_batch_is_inside_unit_box(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    batch = dataset.scaled(scaling)
    assert batch.inputs.shape == (dataset.n_samples, input_layout(tiny_scenario).input_dim)
    assert np.all(batch.inputs[:, 0] >= 0.0) and np.all(batch.inputs[:, 0] <= 1.0)
    assert np.all(batch.targets >= -1e-9) and np.all(batch.targets <= 1.0 + 1e-9)


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
    batch = dataset.scaled(scaling)
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
    batch = dataset.scaled(scaling)
    lm, lp, grad = loss_and_gradient(spec, params, batch, None, tiny_scenario, scaling, 1.0, 0.0)
    assert lp == 0.0
    assert lm == measurement_loss(forward(spec, params, batch.inputs), batch.targets)
    _, _, half = loss_and_gradient(spec, params, batch, None, tiny_scenario, scaling, 0.5, 0.0)
    assert np.allclose(half, 0.5 * grad, rtol=1e-14, atol=0.0)


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
    # residuals are nondimensional so these bounds are loose but meaningful
    assert np.max(np.abs(r_mass)) < 0.15
    assert np.max(np.abs(r_energy)) < 0.15


def test_sample_collocation_inherits_rows(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    batch = dataset.scaled(scaling)
    rng = np.random.default_rng(1)
    colloc = sample_collocation(rng, 64, tiny_scenario, batch, lay)
    assert colloc.shape == (64, lay.input_dim)
    assert np.all((colloc[:, 0] >= 0) & (colloc[:, 0] <= 1))
    assert np.all((colloc[:, 1] >= 0) & (colloc[:, 1] <= 1))
    # (v, x0) columns must be rows of the batch
    tail = colloc[:, 2:]
    pool = batch.inputs[:, 2:]
    for row in tail[:10]:
        assert np.any(np.all(np.isclose(pool, row), axis=1))
    # fresh draws differ
    colloc2 = sample_collocation(rng, 64, tiny_scenario, batch, lay)
    assert not np.array_equal(colloc, colloc2)


def test_physics_loss_validates_collocation(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params = init_params(spec, 0)
    with pytest.raises(ConfigError):
        physics_loss(spec, params, np.zeros((4, 3)), tiny_scenario, scaling)
    bad = np.zeros((4, spec.input_dim))
    bad[:, 0] = 2.0
    with pytest.raises(ConfigError):
        physics_loss(spec, params, bad, tiny_scenario, scaling)


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
    colloc = sample_collocation(rng, 48, scenario, batch, lay)
    # centre the u scaling on the median prediction so |u| sees both signs
    u_star = forward(spec, params, colloc)[:, 1]
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
    lm, lp, grad = loss_and_gradient(spec, params, batch, colloc, scenario, scaling, alpha, beta)
    fric, grav, q = pointwise_closures(scenario, scaling.unscale_z(colloc[:, 0]),
                                       scaling.unscale_v(colloc[:, lay.v_cols]))
    assert np.all(fric > 0.0) and len(set(grav)) == 3 and len(set(np.sign(q))) == 3

    def total(store):
        lm, lp, _ = loss_and_gradient(spec, store, batch, colloc, scenario, scaling, alpha, beta)
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
    p1, h1 = train(spec, dataset, tiny_scenario, scaling, cfg)
    p2, h2 = train(spec, dataset, tiny_scenario, scaling, cfg)
    assert np.array_equal(p1.flat, p2.flat)
    assert [r["loss_total"] for r in h1] == [r["loss_total"] for r in h2]
    assert len(h1) == 3
    assert h1[0]["learning_rate"] == 1e-3
    assert all(set(r) == {"epoch", "loss_measurement", "loss_physics", "loss_total",
                          "learning_rate"} for r in h1)


def test_train_data_only_mode_skips_physics(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(alpha=1.0, beta=0.0, epochs=2, batch_size=64, seed=5)
    _, hist = train(spec, dataset, tiny_scenario, scaling, cfg)
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
        train(spec, dataset, tiny_scenario, scaling, cfg, abort_ratio=0.5)


def test_rollout_evaluate_shapes_and_oracle_bound(tiny_scenario, tiny_records, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    cfg = TrainConfig(epochs=5, batch_size=128, collocation_size=32, seed=2)
    params, _ = train(spec, dataset, tiny_scenario, scaling, cfg)
    rec = tiny_records[2]
    closed = rollout_evaluate(spec, params, tiny_scenario, scaling, rec)
    oracle = rollout_evaluate(spec, params, tiny_scenario, scaling, rec, oracle_x0=True)
    n = rec.grid_z.size
    assert closed.predicted["T"].shape == (rec.n_steps, n)
    assert set(closed.rmse) == {"p", "u", "T"}
    assert oracle.rmse["T"] > 0.0
    table = evaluate_records(spec, params, tiny_scenario, scaling, [rec])
    assert table["fields"]["T"]["overall_rmse"] == pytest.approx(closed.rmse["T"])
    assert table["fields"]["T"]["map"].shape == (rec.n_steps, n)
    assert table["fields"]["T"]["profile"].shape == (n,)
    assert table["fields"]["T"]["max_rmse"] >= table["fields"]["T"]["mean_rmse"]


def test_train_rejects_mismatched_dataset(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(heated_channel_preset(), widths=(8, 6, 4))
    with pytest.raises(ConfigError):
        train(spec, dataset, heated_channel_preset(), scaling,
              TrainConfig(epochs=1, batch_size=32))
