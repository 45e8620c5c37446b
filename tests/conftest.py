"""Shared fixtures: small rigs and corpora that keep unit tests fast."""

import numpy as np
import pytest

from flowpsm.solver import generate_trajectories, run_experiments, steady_state
from flowpsm.training import assemble_dataset, compute_scaling
from flowpsm.transport import FLIBE, PipeSegment, ScenarioConfig


def tiny_channel(n_cells: int = 9, episode_duration: float = 30.0) -> ScenarioConfig:
    """Three short pipes, heated middle, a handful of cells. Runs in ~10 ms/step."""
    third = n_cells // 3

    def pipe(q=0.0):
        return PipeSegment(
            length=0.5,
            flow_area=3.14e-4,
            hydraulic_diameter=0.02,
            n_elements=third,
            friction_factor=0.001,
            heat_source=q,
        )

    return ScenarioConfig(
        kind="heated_channel",
        fluid=FLIBE,
        segments=(pipe(), pipe(q=5.0e7), pipe()),
        control_channels=("u_in", "T_in"),
        input_ranges=((0.549, 0.749), (804.65, 884.65)),
        sensor_stations=(0.2, 0.4, 1.1, 1.3),
        delta_t=2.5,
        episode_duration=episode_duration,
        outlet_pressure=0.0,
    )


@pytest.fixture(scope="session")
def tiny_scenario():
    return tiny_channel()


@pytest.fixture(scope="session")
def tiny_records(tiny_scenario):
    inputs = generate_trajectories(123, tiny_scenario, 3)
    return run_experiments(tiny_scenario, inputs, [steady_state(tiny_scenario, v) for v in inputs[:, 0]])


@pytest.fixture(scope="session")
def tiny_dataset(tiny_scenario, tiny_records):
    scaling = compute_scaling(tiny_records[:2], tiny_scenario)
    return assemble_dataset(tiny_records[:2], tiny_scenario, scaling), scaling


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
