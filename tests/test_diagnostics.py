"""Fault detection, twin retraining, and residual-signature localization."""

import numpy as np
import pytest

from flowpsm.diagnostics import (
    DetectorConfig,
    ResidualSignature,
    calibrate_zeta,
    detect,
    localization_ratio,
    pde_residuals,
    prediction_errors,
    sample_conditions,
    signature,
    transfer_learn_twin,
    twin_config,
)
from flowpsm.formats import load_checkpoint, save_checkpoint
from flowpsm.network import FIELD_ORDER, forward, init_params, optimizer_step, stacked_forward
from flowpsm.solver import generate_trajectories, inject_degradation, run_experiments, steady_state
from flowpsm.training import (
    TrainConfig,
    input_layout,
    mlp_for_scenario,
    physics_residuals,
    pointwise_closures,
    query_rows,
    train,
)
from flowpsm.transport import ConfigError, build_grid, scenario_fingerprint


@pytest.fixture(scope="module")
def trained(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params, _ = train(init_params(spec, 2), dataset, tiny_scenario, scaling,
                      TrainConfig(epochs=5, batch_size=128, collocation_size=32, seed=2))
    return params


def test_detector_windows_and_latching():
    errors = np.arange(10.0)  # windows [0..3] mean 1.5, [4..7] mean 5.5, tail dropped
    res = detect(errors, DetectorConfig(zeta=2.0, window=4))
    assert res.tripped
    assert res.trip_index == 4
    assert np.allclose(res.window_means, [1.5, 5.5])

    quiet = detect(errors, DetectorConfig(zeta=10.0, window=4))
    assert not quiet.tripped
    assert quiet.trip_index is None

    # earliest window wins even if a later one is larger
    spiky = detect(np.array([9.0, 9, 9, 9, 99, 99, 99, 99]), DetectorConfig(zeta=5.0, window=4))
    assert spiky.trip_index == 0


def test_detector_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(zeta=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(zeta=1.0, window=0)
    with pytest.raises(ConfigError):
        detect(np.ones((4, 2)), DetectorConfig(zeta=1.0))
    with pytest.raises(ConfigError):
        detect(np.ones(3), DetectorConfig(zeta=1.0, window=4))


def test_calibrate_zeta_percentile_math():
    seqs = [np.arange(8.0), np.arange(4.0)]
    # window means: [1.5, 5.5] and [1.5]
    expected = 2.0 * np.percentile([1.5, 5.5, 1.5], 95.0)
    got = calibrate_zeta(seqs, window=4, multiplier=2.0, percentile=95.0)
    assert got == pytest.approx(expected)
    with pytest.raises(ConfigError):
        calibrate_zeta([np.ones(3)], window=4)


def test_prediction_errors_manual_recompute(trained, tiny_scenario, tiny_dataset, tiny_records):
    params = trained
    _, scaling = tiny_dataset
    rec = tiny_records[2]  # held-out episode
    errors = prediction_errors(params, tiny_scenario, scaling, rec)
    assert errors.shape == (rec.n_steps,)
    assert np.all(errors >= 0.0)

    lay = input_layout(tiny_scenario)
    s = rec.station_z.size
    scaled = np.stack(
        [scaling.scale_field(n, rec.sensors[:, f]) for f, n in enumerate(FIELD_ORDER)], axis=1
    )  # (K+1, 3, s)
    for k in (0, rec.n_steps - 1):
        rows = np.zeros((s, lay.input_dim))
        rows[:, lay.z_col] = scaling.scale_z(rec.station_z)
        rows[:, lay.t_col] = 1.0
        rows[:, lay.v_cols] = scaling.scale_v(rec.v[k])
        rows[:, lay.x0_cols] = scaled[k].ravel()
        pred = forward(params, rows)
        truth = scaled[k + 1].T
        assert errors[k] == pytest.approx(np.mean((pred - truth) ** 2))


def test_prediction_errors_accept_drifted_plant(trained, tiny_scenario, tiny_dataset):
    # a degraded plant changes the scenario hash but not the I/O layout
    params = trained
    _, scaling = tiny_dataset
    faulty = inject_degradation(tiny_scenario, segment_index=1, friction_multiplier=10.0)
    inputs = generate_trajectories(7, faulty, 1)
    rec = run_experiments(faulty, inputs, [steady_state(faulty, inputs[0, 0])])[0]
    assert rec.scenario_hash != scenario_fingerprint(tiny_scenario)
    errors = prediction_errors(params, tiny_scenario, scaling, rec)
    assert errors.shape == (rec.n_steps,)


def test_sample_conditions_membership_and_determinism(tiny_scenario, tiny_dataset):
    dataset, _ = tiny_dataset
    lay = input_layout(tiny_scenario)
    v1, x1 = sample_conditions(dataset, tiny_scenario, 5, seed=9)
    v2, x2 = sample_conditions(dataset, tiny_scenario, 5, seed=9)
    assert np.array_equal(v1, v2) and np.array_equal(x1, x2)
    assert v1.shape == (5, lay.n_controls) and x1.shape == (5, lay.n_state)
    pool = np.hstack([dataset.inputs[:, lay.v_cols], dataset.inputs[:, lay.x0_cols]])
    for row in np.hstack([v1, x1]):
        assert np.any(np.all(pool == row, axis=1))
    v3, _ = sample_conditions(dataset, tiny_scenario, 5, seed=10)
    assert not np.array_equal(v1, v3)
    with pytest.raises(ConfigError):
        sample_conditions(dataset, tiny_scenario, 0)
    with pytest.raises(ConfigError):
        sample_conditions(dataset, tiny_scenario, dataset.n_samples + 1)


def test_pde_residuals_shapes_and_validation(trained, tiny_scenario, tiny_dataset):
    params = trained
    dataset, scaling = tiny_dataset
    v, x0 = sample_conditions(dataset, tiny_scenario, 3, seed=1)
    z, res = pde_residuals(params, tiny_scenario, scaling, v, x0)
    assert np.array_equal(z, build_grid(tiny_scenario).centers)
    for part in (res.mass, res.momentum, res.energy):
        assert part.shape == z.shape
        assert np.all(np.isfinite(part))
    with pytest.raises(ConfigError):
        pde_residuals(params, tiny_scenario, scaling, v[:2], x0)
    with pytest.raises(ConfigError):
        pde_residuals(params, tiny_scenario, scaling, v[:, :1], x0[: v.shape[0]])


def test_pde_residuals_match_separate_value_and_tangent_passes(trained, tiny_scenario, tiny_dataset):
    params = trained
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    v, x0 = sample_conditions(dataset, tiny_scenario, 2, seed=4)
    z, res = pde_residuals(params, tiny_scenario, scaling, v, x0)
    expected = []
    for vi, xi in zip(v, x0):
        rows = np.zeros((z.size, lay.input_dim))
        rows[:, lay.z_col] = scaling.scale_z(z)
        rows[:, lay.t_col] = 0.5
        rows[:, lay.v_cols] = vi
        rows[:, lay.x0_cols] = xi
        tan_z = stacked_forward(params, rows, np.eye(lay.input_dim)[[lay.z_col]])[1]
        tan_t = stacked_forward(params, rows, np.eye(lay.input_dim)[[lay.t_col]])[1]
        closures = pointwise_closures(tiny_scenario, z, scaling.unscale_v(rows[:, lay.v_cols]))
        expected.append(physics_residuals(forward(params, rows).T, tan_z.T, tan_t.T,
                                          closures, tiny_scenario, scaling))
    for i, part in enumerate((res.mass, res.momentum, res.energy)):
        assert np.allclose(part, np.mean([e[i] for e in expected], axis=0), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n_conditions", [1, 100])
def test_pde_residuals_match_one_unchunked_pass_bit_for_bit(trained, tiny_scenario, tiny_dataset,
                                                            n_conditions):
    # 100 conditions on the 9-cell channel are 900 rows: a full chunk of the pass and a partial one
    params = trained
    dataset, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    picked = dataset.inputs[np.random.default_rng(5).integers(dataset.n_samples, size=n_conditions)]
    v, x0 = picked[:, lay.v_cols], picked[:, lay.x0_cols]
    z, res = pde_residuals(params, tiny_scenario, scaling, v, x0)
    rows = query_rows(lay, scaling.scale_z(z), 0.5, v, x0)
    axes = np.eye(lay.input_dim)[[lay.z_col, lay.t_col]]
    outs, tan_z, tan_t = (y.T for y in stacked_forward(params, rows, axes))
    closures = pointwise_closures(tiny_scenario, np.tile(z, n_conditions),
                                  scaling.unscale_v(rows[:, lay.v_cols]))
    expected = physics_residuals(outs, tan_z, tan_t, closures, tiny_scenario, scaling)
    for part, full in zip((res.mass, res.momentum, res.energy), expected):
        assert np.array_equal(part, full.reshape(n_conditions, z.size).mean(axis=0))


def test_signature_of_identical_models_is_null(trained, tiny_scenario, tiny_dataset):
    params = trained
    dataset, scaling = tiny_dataset
    v, x0 = sample_conditions(dataset, tiny_scenario, 4, seed=3)
    sig = signature(params, params, tiny_scenario, scaling, v, x0)
    assert sig.equations == ("mass", "momentum", "energy")
    assert np.all(sig.difference == 0.0)
    assert np.all(sig.scaled == 0.0)
    assert np.array_equal(sig.nominal, sig.twin)


def test_signature_scaled_rows_are_unit_peak(trained, tiny_scenario, tiny_dataset):
    params = trained
    dataset, scaling = tiny_dataset
    v, x0 = sample_conditions(dataset, tiny_scenario, 4, seed=3)
    twin, _ = transfer_learn_twin(
        params, dataset, tiny_scenario, scaling, twin_config(epochs=1, batch_size=128, seed=4)
    )
    sig = signature(params, twin, tiny_scenario, scaling, v, x0)
    assert np.allclose(sig.difference, sig.twin - sig.nominal)
    for i in range(len(sig.equations)):
        if np.any(sig.difference[i] != 0.0):
            assert np.max(np.abs(sig.scaled[i])) == pytest.approx(1.0)
        assert np.array_equal(np.sign(sig.scaled[i]), np.sign(sig.difference[i]))


def test_transfer_learn_twin_leaves_nominal_untouched(trained, tiny_scenario, tiny_dataset):
    params = trained
    dataset, scaling = tiny_dataset
    before = params.flat.copy()
    twin, history = transfer_learn_twin(
        params, dataset, tiny_scenario, scaling, twin_config(epochs=2, batch_size=128, seed=4)
    )
    assert twin is not params
    assert np.array_equal(params.flat, before)
    assert not np.array_equal(twin.flat, before)
    assert len(history) == 2
    # measurement-only objective
    assert all(row["loss_physics"] == 0.0 for row in history)
    assert history[0]["learning_rate"] == pytest.approx(1e-4)


def test_twin_and_loaded_stores_share_no_arrays_with_their_source(trained, tiny_scenario, tiny_dataset,
                                                                   tmp_path):
    # optimizer_step updates the moments in place, so a shared array would train two stores at once
    params = trained
    dataset, scaling = tiny_dataset
    assert params.m is not None
    before = [a.copy() for a in (params.flat, params.m, params.v)]
    twin, _ = transfer_learn_twin(
        params, dataset, tiny_scenario, scaling, twin_config(epochs=1, batch_size=128, seed=4)
    )
    save_checkpoint(tmp_path / "w.psmw", params)
    loaded = load_checkpoint(tmp_path / "w.psmw", params.spec)
    for store in (twin, loaded):
        for mine in (store.flat, store.m, store.v):
            assert not any(np.shares_memory(mine, theirs) for theirs in (params.flat, params.m, params.v))
    optimizer_step(loaded, np.ones(loaded.n_params), 1e-3)
    for now, then in zip((params.flat, params.m, params.v), before):
        assert np.array_equal(now, then)


def _hand_signature():
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    difference = np.array([
        [0.1, 0.1, 0.1, 0.1, 0.1],  # mass: flat
        [0.0, 0.0, 5.0, 0.0, 0.5],  # momentum: bump at z=2
        [0.0, 0.0, 0.0, 0.0, 0.0],  # energy: silent
    ])
    return ResidualSignature(
        z=z,
        equations=("mass", "momentum", "energy"),
        nominal=np.zeros_like(difference),
        twin=difference,
        difference=difference,
        scaled=difference,
    )


def test_localization_ratio_hand_case():
    sig = _hand_signature()
    ratios = localization_ratio(sig, (1.5, 2.5))
    assert ratios["momentum"] == pytest.approx(10.0)
    assert ratios["mass"] == pytest.approx(1.0)
    assert ratios["energy"] == 0.0


def test_localization_ratio_span_validation():
    sig = _hand_signature()
    with pytest.raises(ConfigError):
        localization_ratio(sig, (2.0, 2.0))
    with pytest.raises(ConfigError):
        localization_ratio(sig, (-10.0, 10.0))
    with pytest.raises(ConfigError):
        localization_ratio(sig, (10.0, 20.0))
