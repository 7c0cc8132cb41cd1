"""Shared fixtures: a desk-size scenario, a reduced pipeline config, and a
count of the worker pools forked."""
from __future__ import annotations

import copy

import pytest

from icsadv import forking, pipeline


@pytest.fixture
def announce(capsys):
    """Print a line to the real terminal even while pytest captures output."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


@pytest.fixture
def forks(monkeypatch):
    """The worker counts of the pools ``forking.forked_pool`` opens from
    here on."""
    calls = []
    real_pool = forking.forked_pool

    def counted(*args):
        calls.append(args[0])
        return real_pool(*args)

    monkeypatch.setattr(forking, "forked_pool", counted)
    return calls


TINY_SCENARIO = {
    "format": "scenario",
    "version": 1,
    "plant": {
        "n_tanks": 1,
        "tank_capacity": 100.0,
        "inflow_rate": 1.2,
        "outflow_rate": 0.8,
        "level_low": 40.0,
        "level_high": 60.0,
        "sensor_noise_std": 0.1,
        "dt": 1.0,
        "steps": 1200,
    },
    "normal_seed": 401,
    "attack_seed": 402,
    "attacks": [
        {"kind": "sensor-bias", "target_feature": "LIT101", "delta": -25.0,
         "window": [200, 320]},
        {"kind": "actuator-flip", "target_feature": "P101", "delta": 0.0,
         "window": [600, 760]},
        {"kind": "sensor-bias", "target_feature": "FIT102", "delta": -2.0,
         "window": [900, 1000]},
    ],
}


@pytest.fixture
def tiny_scenario() -> dict:
    return copy.deepcopy(TINY_SCENARIO)


@pytest.fixture
def tiny_config() -> dict:
    return _tiny_config()


@pytest.fixture(scope="session")
def tiny_inputs():
    """Fresh (scenario, config) copies for module-scoped fixtures, which
    cannot request the function-scoped ones above."""
    return lambda: (copy.deepcopy(TINY_SCENARIO), _tiny_config())


def _tiny_config() -> dict:
    """Pipeline config small enough for unit tests (seconds, not minutes)."""
    cfg = pipeline.default_config()
    cfg["n_runs"] = 2
    cfg["mlp"].update({"epochs": 8, "batch_size": 32})
    cfg["jsma"].update(
        {"epsilon_schedule": [0.1], "variants_per_row": 1, "max_iterations": 60}
    )
    cfg["rf"].update({"n_trees": 10})
    cfg["gbc"].update({"n_stages": 20})
    return cfg
