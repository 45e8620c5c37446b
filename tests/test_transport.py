"""Scenario configs, grids, closures, and the min-max scaling layer."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from flowpsm.transport import (
    FLIBE,
    ConfigError,
    FieldState,
    FluidProps,
    PipeSegment,
    ScalingSpec,
    ScenarioConfig,
    build_grid,
    density,
    from_document,
    heated_channel_preset,
    loop_preset,
    scenario_fingerprint,
    scenario_from_dict,
)


def test_flibe_closure_values():
    assert density(FLIBE, 873.15) == pytest.approx(2413.0 - 0.488 * 873.15)
    assert FLIBE.cp == 2414.0
    arr = density(FLIBE, np.array([800.0, 900.0]))
    assert arr.shape == (2,)
    assert arr[0] > arr[1]  # density falls with temperature


def test_heated_channel_preset_geometry():
    sc = heated_channel_preset()
    assert sc.kind == "heated_channel"
    assert sc.total_length == pytest.approx(2.8)
    assert [s.length for s in sc.segments] == [1.0, 0.8, 1.0]
    heated = [s.heat_source for s in sc.segments]
    assert heated[0] == 0.0 and heated[2] == 0.0 and heated[1] > 0.0
    # sensors sit in the unheated end pipes only
    for z in sc.sensor_stations:
        assert not 1.0 <= z <= 1.8
    assert build_grid(sc).n_cells == 30
    assert sc.control_channels == ("u_in", "T_in")


def test_loop_preset_geometry():
    sc = loop_preset()
    assert sc.kind == "loop"
    grid = build_grid(sc)
    assert grid.n_cells == 80
    assert sc.total_length == pytest.approx(8.0)
    # heater and cooler reference the same channel with opposite signs
    tied = [(s.volumetric_source_id, s.source_scale) for s in sc.segments
            if s.volumetric_source_id is not None]
    assert tied == [("q_source", 1.0), ("q_source", -1.0)]
    assert sc.reference_cell == 0
    # the fault-study pipe sits immediately before the sink: z in [4, 5]
    starts = np.cumsum([0.0] + [s.length for s in sc.segments])
    assert (starts[3], starts[4]) == (4.0, 5.0)


def test_grid_metrics_and_cell_lookup():
    sc = heated_channel_preset()
    grid = build_grid(sc)
    assert grid.faces[0] == 0.0
    assert grid.faces[-1] == pytest.approx(sc.total_length)
    assert np.all(np.diff(grid.faces) > 0)
    assert grid.dz.sum() == pytest.approx(sc.total_length)
    assert np.allclose(grid.centers, 0.5 * (grid.faces[:-1] + grid.faces[1:]))
    assert np.array_equal(grid.cell_of_z(grid.centers), np.arange(grid.n_cells))
    assert grid.cell_of_z(-1.0) == 0
    assert grid.cell_of_z(100.0) == grid.n_cells - 1
    counts = np.bincount(grid.segment_of_cell)
    assert list(counts) == [s.n_elements for s in sc.segments]


def test_scenario_dict_round_trip_preserves_fingerprint():
    for sc in (heated_channel_preset(), loop_preset()):
        clone = scenario_from_dict(json.loads(json.dumps(asdict(sc))))
        assert clone == sc
        assert scenario_fingerprint(clone) == scenario_fingerprint(sc)
    # the digests that records, scaling manifests and arch.json files already carry
    assert scenario_fingerprint(heated_channel_preset()) == \
        "a1e77bd5eab75519a0dc49149b5229400a4f937d21f46ffd9949bb26e1d912aa"
    assert scenario_fingerprint(loop_preset()) == \
        "694b22278bb6e336a9da15628ec57103b83516c02eab482fdf6484ba3f95ffa6"


def test_scenario_helpers():
    sc = heated_channel_preset()
    assert sc.channel_index("T_in") == 1
    assert sc.input_ranges[sc.channel_index("u_in")] == (0.549, 0.749)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        FluidProps(rho_a=-1.0, rho_b=0.1, cp=100.0)
    with pytest.raises(ConfigError):
        PipeSegment(length=0.0, flow_area=1e-4, hydraulic_diameter=0.02, n_elements=5)
    with pytest.raises(ConfigError):
        PipeSegment(length=1.0, flow_area=1e-4, hydraulic_diameter=0.02, n_elements=0)
    base = asdict(heated_channel_preset())

    bad = dict(base, kind="reactor")
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = dict(base, sensor_stations=[5.0])
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = dict(base, input_ranges=[[0.7, 0.5], base["input_ranges"][1]])
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = dict(base, delta_t=0.0)
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = dict(base)
    bad["segments"] = [dict(base["segments"][0], volumetric_source_id="no_such")] + list(
        base["segments"][1:]
    )
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    with pytest.raises(ConfigError):
        scenario_from_dict({"kind": "loop"})


def _scaling():
    return ScalingSpec(
        z_max=2.8,
        t_max=5.0,
        p_min=-500.0,
        p_max=1500.0,
        u_min=0.5,
        u_max=0.8,
        T_min=800.0,
        T_max=890.0,
        rho_min=float(density(FLIBE, 890.0)),
        rho_max=float(density(FLIBE, 800.0)),
        v_min=(0.549, 804.65),
        v_max=(0.749, 884.65),
    )


def test_scaling_round_trip_and_bounds():
    s = _scaling()
    x = np.linspace(-500.0, 1500.0, 7)
    assert np.allclose(s.unscale_field("p", s.scale_field("p", x)), x)
    assert s.scale_field("p", -500.0) == 0.0
    assert s.scale_field("p", 1500.0) == 1.0
    assert s.scale_z(2.8) == 1.0
    assert s.scale_t(3.3) * s.t_max == pytest.approx(3.3)
    v = np.array([0.6, 850.0])
    assert np.allclose(s.unscale_v(s.scale_v(v)), v)
    assert s.span("T") == 90.0
    assert s.bounds("u") == (0.5, 0.8)


def test_scaling_dict_round_trip():
    s = _scaling()
    clone = from_document(ScalingSpec, json.loads(json.dumps(asdict(s))), "scaling")
    assert clone == s


def test_field_state_validates_shapes():
    z = np.arange(4.0)
    with pytest.raises(ConfigError, match="share one length"):
        FieldState(grid_z=z, p=np.zeros(4), T=np.zeros(3), u_face=np.zeros(5))
    # one face velocity per face: the cell count plus one
    for n_faces in (4, 6):
        with pytest.raises(ConfigError, match="u_face"):
            FieldState(grid_z=z, p=np.zeros(4), T=np.zeros(4), u_face=np.zeros(n_faces))
    state = FieldState(grid_z=z, p=np.zeros(4), T=np.zeros(4), u_face=np.arange(5.0))
    assert np.array_equal(state.u, [0.5, 1.5, 2.5, 3.5])  # the face average at each center
