"""Tests of the benchmark's own output checks and tracer.

    PYTHONPATH=src python -m pytest bench/test_checks.py -q

They run in seconds without the workloads. Each check must pass on a correct
output and reject the same output with one small corruption.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

FLIBE = workloads.FLIBE


# ===================== records =====================


def test_record_reader_matches_the_program_writer(tmp_path):
    from flowpsm.formats import save_record
    from flowpsm.solver import SimulationRecord

    rng = np.random.default_rng(0)
    rec = SimulationRecord(
        scenario_hash="ab" * 32, times=np.arange(4) * 5.0, grid_z=np.linspace(0.05, 0.95, 10),
        p=rng.normal(size=(4, 10)), u=rng.normal(size=(4, 10)), T=rng.normal(size=(4, 10)),
        v=rng.normal(size=(4, 2)), station_z=np.array([0.25, 0.5, 0.75]),
        sensors=rng.normal(size=(4, 3, 3)),
    )
    save_record(tmp_path / "r.psmd", rec)
    got = checks.read_record(tmp_path / "r.psmd")
    for key in ("times", "grid_z", "station_z", "p", "u", "T", "v", "sensors"):
        assert np.array_equal(got[key], getattr(rec, key)), key


def _channel_record(u_in=0.65, t_in=830.0):
    z = np.array([0.25, 0.5, 0.75, 2.05, 2.3, 2.55])
    rise = workloads.channel_outlet_rise(u_in, t_in)
    sensors = np.zeros((2, 3, z.size))
    sensors[0, 2] = np.where(z < 1.0, t_in, t_in + rise)
    return {"v": np.array([[u_in, t_in], [u_in, t_in]]), "station_z": z, "sensors": sensors}


def test_channel_energy_balance_accepts_the_steady_rise():
    assert checks.check_channel_energy_balance(_channel_record(), FLIBE) < 1e-9


def test_channel_energy_balance_rejects_a_nudged_station():
    rec = _channel_record()
    rec["sensors"][0, 2, 4] += 1e-4
    with pytest.raises(CheckFailed, match="energy balance"):
        checks.check_channel_energy_balance(rec, FLIBE)


def _loop_record():
    dz = np.full(80, 0.1)
    z = (np.arange(80) + 0.5) * 0.1
    T0 = 873.15 + 5.0 * np.sin(2 * np.pi * z / 8.0)
    # rigid rotation of the profile round the loop keeps sum rho(T) T dz fixed
    T = np.stack([np.roll(T0, k) for k in range(5)])
    return {"T": T}, dz


def test_loop_enthalpy_accepts_a_conserving_record():
    rec, dz = _loop_record()
    assert checks.check_loop_enthalpy(rec, FLIBE, dz) < 1e-13


def test_loop_enthalpy_rejects_one_snapshot_nudged_by_1e9():
    rec, dz = _loop_record()
    rec["T"][3] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="enthalpy"):
        checks.check_loop_enthalpy(rec, FLIBE, dz)


# ===================== manifests and training metrics =====================


def test_manifest_digest_mismatch_is_rejected(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    digest = hashlib.sha256(b"x\n1\n").hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"output_digests": {"a.csv": digest}}))
    checks.check_manifest(tmp_path)
    (tmp_path / "a.csv").write_text("x\n2\n")
    with pytest.raises(CheckFailed, match="digest"):
        checks.check_manifest(tmp_path)


def _metrics(path, rows):
    lines = ["epoch,loss_measurement,loss_physics,loss_total,learning_rate"]
    lines += [",".join(str(x) for x in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_training_metrics_pass_and_each_corruption_fails(tmp_path):
    good = [(1, 0.2, 0.4, 0.3, 1e-3), (2, 0.1, 0.3, 0.2, 1e-3), (3, 0.05, 0.1, 0.075, 1e-3)]
    checks.check_training_metrics(_metrics(tmp_path / "m.csv", good), 3, "psm")
    bad_cases = {
        "rows for": (good[:2], "psm"),
        "non-finite": ([good[0], (2, float("nan"), 0.3, 0.2, 1e-3), good[2]], "psm"),
        "not below": ([good[0], good[1], (3, 0.5, 0.5, 0.5, 1e-3)], "psm"),
        "has physics loss": (good, "ann"),
        "no physics loss": ([good[0], (2, 0.1, 0.0, 0.05, 1e-3), good[2]], "psm"),
    }
    for message, (rows, mode) in bad_cases.items():
        with pytest.raises(CheckFailed, match=message):
            checks.check_training_metrics(_metrics(tmp_path / "m.csv", rows), 3, mode)


# ===================== governors =====================


def _rollout(status="at_reference", v=None):
    r = {"step": "0", "r_u_in": "0.65000000000000002", "r_T_in": "830.10000000000002",
         "status": status, "y_T_cap_4": "0.5", "bound_T_cap_4": "0.6"}
    r["v_u_in"], r["v_T_in"] = v or (r["r_u_in"], r["r_T_in"])
    return r


def test_transparent_governor_rejects_one_row_with_v_not_r():
    rows = [_rollout(), _rollout()]
    checks.check_transparent_governor(rows, ["u_in", "T_in"])
    rows[1] = _rollout(v=("0.65000000000000013", "830.10000000000002"))
    with pytest.raises(CheckFailed, match="differs from reference"):
        checks.check_transparent_governor(rows, ["u_in", "T_in"])
    with pytest.raises(CheckFailed, match="status ok"):
        checks.check_transparent_governor([_rollout(status="ok")], ["u_in", "T_in"])


def test_governed_rollout_rejects_cap_and_range_violations():
    ranges = workloads.Governor.input_ranges
    rows = [_rollout(status="ok"), _rollout(status="fallback_maxiter")]
    assert checks.check_governed_rollout(rows, ["u_in", "T_in"], ranges, 0.01) == {
        "ok": 1, "fallback_maxiter": 1}
    over = _rollout(status="ok")
    over["y_T_cap_4"] = "0.6100001"
    with pytest.raises(CheckFailed, match="exceeds cap"):
        checks.check_governed_rollout([over], ["u_in", "T_in"], ranges, 0.01)
    outside = _rollout(status="ok", v=("0.77", "830.1"))
    with pytest.raises(CheckFailed, match="outside the input range"):
        checks.check_governed_rollout([outside], ["u_in", "T_in"], ranges, 0.01)


def test_governor_caps_bind_below_the_steady_top_temperature():
    cfg = workloads.Governor().rollout_config(seed=5, index=3)
    (_, _), (_, _), (u1, t1), _ = cfg["references"]["knots"]["values"]
    top = t1 + workloads.channel_outlet_rise(u1, t1)
    caps = [c["cap_kelvin"] for c in cfg["schedule"][0]["constraints"]]
    assert top - 7.0 <= caps[0] <= top - 5.0
    assert top - 10.0 <= caps[1] <= top - 8.0
    assert top - 13.0 <= caps[2] <= top - 11.0
    assert cfg == workloads.Governor().rollout_config(seed=5, index=3)


def test_fixed_governor_inputs_match_their_digests():
    workloads.verify_governor_inputs()


# ===================== detection =====================


def test_detection_reads_no_trip_as_no_trip(tmp_path):
    (tmp_path / "verdict.txt").write_text("threshold zeta = 1e-1, window = 4 steps\nno degradation detected\n")
    assert checks.check_detection(tmp_path, expect_trip=False) == {}
    with pytest.raises(CheckFailed, match="did not trip"):
        checks.check_detection(tmp_path, expect_trip=True)


def test_detection_needs_a_three_equation_signature(tmp_path):
    (tmp_path / "verdict.txt").write_text(
        "degradation detected at step 0 (window mean 3e+01 > zeta)\n"
        "localization ratios inside z in [4, 5] m: mass 0.55, momentum 0.77, energy 0.85\n")
    header = "z,equation,r_nominal,r_twin,r_diff,r_scaled\n"
    rows = "".join(f"0.05,{eq},0,0,0.1,1\n" for eq in ("mass", "momentum", "energy"))
    (tmp_path / "signature.csv").write_text(header + rows)
    assert checks.check_detection(tmp_path, expect_trip=True) == {
        "mass": 0.55, "momentum": 0.77, "energy": 0.85}
    (tmp_path / "signature.csv").write_text(header + rows.replace("energy", "mass"))
    with pytest.raises(CheckFailed, match="equations"):
        checks.check_detection(tmp_path, expect_trip=True)
    with pytest.raises(CheckFailed, match="tripped"):
        checks.check_detection(tmp_path, expect_trip=False)


def test_rmse_ratio_reads_the_overall_row(tmp_path):
    (tmp_path / "rmse_table.csv").write_text(
        "field,statistic,psm,ann,ratio\nT,mean,1,2,0.5\nT,overall,3,4,0.75\n")
    assert checks.rmse_ratio(tmp_path / "rmse_table.csv") == 0.75


# ===================== tracer =====================


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)
    with tracer.span("outer"):
        traced_leaf()
        traced_leaf()
    layers = tracer.layer_summary()
    assert layers["leaf"]["calls"] == 2
    assert tracer.spans[1][1] == 0 and tracer.spans[2][1] == 0
    outer = layers["outer"]
    assert outer["total_ms"] >= 40.0
    assert outer["self_ms"] == pytest.approx(outer["total_ms"] - layers["leaf"]["total_ms"])
    assert tracing.median_ms([]) == 0.0
