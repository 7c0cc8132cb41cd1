"""Desk-scale water plant simulator with attack injection.

The plant is a row of identical, independent tanks. Each tank has an inlet
pump driven by a hysteresis controller (on below ``level_low``, off above
``level_high``, hold in between) and an outlet valve that is normally open,
standing in for downstream demand. Per tank the trace records five columns:

* ``LIT{k}01`` level sensor reading (true level + Gaussian noise)
* ``FIT{k}01`` inflow flowmeter reading
* ``FIT{k}02`` outflow flowmeter reading
* ``P{k}01``   pump state, 0/1/2 = off/standby/on
* ``MV{k}01``  valve state, same encoding

The true level integrates ``(inflow*pump_on - outflow*valve_open) * dt``
with no process noise, so zero-noise trajectories are hand-checkable; only
the sensor readings are noisy, and the controller acts on the noisy reading.

Two attack kinds exist. A sensor bias spoofs the recorded reading after the
fact (reading + delta inside the window) and never touches the dynamics.
An actuator flip forces the actuator to the logical complement of its
commanded state (>=1 becomes 0, 0 becomes 2) inside the window, and the
forced state both appears in the trace and drives the dynamics. Every row
inside any attack window is labeled Attack, even when delta is zero.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import kernels
from .dataset import ACTUATOR, SENSOR, Dataset, Feature, Schema
from .errors import KindMismatchError, ParameterError, parses, read_json

SENSOR_BIAS = "sensor-bias"
ACTUATOR_FLIP = "actuator-flip"

_PUMP_SLOT = 3
_VALVE_SLOT = 4
_SLOTS_PER_TANK = 5


@dataclass(frozen=True)
class PlantConfig:
    n_tanks: int = 2
    tank_capacity: float = 100.0
    inflow_rate: float = 1.2
    outflow_rate: float = 0.8
    level_low: float = 40.0
    level_high: float = 60.0
    sensor_noise_std: float = 0.15
    dt: float = 1.0
    steps: int = 20000

    def __post_init__(self):
        if self.n_tanks < 1:
            raise ParameterError("n_tanks must be >= 1")
        if not 0.0 < self.level_low < self.level_high < self.tank_capacity:
            raise ParameterError(
                "levels must satisfy 0 < level_low < level_high < tank_capacity"
            )
        if self.inflow_rate <= 0 or self.outflow_rate <= 0:
            raise ParameterError("flow rates must be positive")
        if self.sensor_noise_std < 0:
            raise ParameterError("sensor_noise_std must be >= 0")
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")

    def to_json(self) -> dict:
        return {
            "n_tanks": self.n_tanks,
            "tank_capacity": self.tank_capacity,
            "inflow_rate": self.inflow_rate,
            "outflow_rate": self.outflow_rate,
            "level_low": self.level_low,
            "level_high": self.level_high,
            "sensor_noise_std": self.sensor_noise_std,
            "dt": self.dt,
            "steps": self.steps,
        }

    @classmethod
    @parses("plant config")
    def from_json(cls, obj: dict) -> "PlantConfig":
        return cls(
            n_tanks=int(obj["n_tanks"]),
            tank_capacity=float(obj["tank_capacity"]),
            inflow_rate=float(obj["inflow_rate"]),
            outflow_rate=float(obj["outflow_rate"]),
            level_low=float(obj["level_low"]),
            level_high=float(obj["level_high"]),
            sensor_noise_std=float(obj["sensor_noise_std"]),
            dt=float(obj["dt"]),
            steps=int(obj["steps"]),
        )


@dataclass(frozen=True)
class AttackSpec:
    """One attack window; delta is only meaningful for sensor-bias."""

    kind: str
    target_feature: str
    delta: float
    window: tuple[int, int]

    def __post_init__(self):
        if self.kind not in (SENSOR_BIAS, ACTUATOR_FLIP):
            raise ParameterError(
                "attack kind must be %r or %r, got %r"
                % (SENSOR_BIAS, ACTUATOR_FLIP, self.kind)
            )
        start, end = self.window
        if start < 0 or end <= start:
            raise ParameterError(
                "attack window must satisfy 0 <= start < end, got %r" % (self.window,)
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "target_feature": self.target_feature,
            "delta": self.delta,
            "window": list(self.window),
        }

    @classmethod
    @parses("attack spec")
    def from_json(cls, obj: dict) -> "AttackSpec":
        window = obj["window"]
        return cls(
            kind=str(obj["kind"]),
            target_feature=str(obj["target_feature"]),
            delta=float(obj.get("delta", 0.0)),
            window=(int(window[0]), int(window[1])),
        )


def schema_for(config: PlantConfig) -> Schema:
    feats = []
    for k in range(1, config.n_tanks + 1):
        feats.append(Feature("LIT%d01" % k, SENSOR))
        feats.append(Feature("FIT%d01" % k, SENSOR))
        feats.append(Feature("FIT%d02" % k, SENSOR))
        feats.append(Feature("P%d01" % k, ACTUATOR))
        feats.append(Feature("MV%d01" % k, ACTUATOR))
    return Schema(tuple(feats))


def initial_levels(config: PlantConfig) -> np.ndarray:
    """Deterministic staggered start levels, mid-band for a single tank."""
    k = np.arange(1, config.n_tanks + 1, dtype=np.float64)
    span = config.level_high - config.level_low
    return config.level_low + span * k / (config.n_tanks + 1)


def _draw_noise(config: PlantConfig, seed: int):
    shape = (config.steps, config.n_tanks)
    if config.sensor_noise_std == 0.0:
        z = np.zeros(shape)
        return z, z.copy(), z.copy()
    rng = np.random.default_rng(seed)
    std = config.sensor_noise_std
    return (
        rng.normal(0.0, std, shape),
        rng.normal(0.0, std, shape),
        rng.normal(0.0, std, shape),
    )


def _run(config: PlantConfig, seed: int, pump_flip, valve_flip) -> Dataset:
    noise = _draw_noise(config, seed)
    rates = (
        config.inflow_rate,
        config.outflow_rate,
        config.level_low,
        config.level_high,
        config.tank_capacity,
        config.dt,
    )
    level, inflow, outflow, pump, valve = kernels.tank_loop(
        initial_levels(config), rates, noise, (pump_flip, valve_flip), config.steps
    )
    X = np.empty((config.steps, _SLOTS_PER_TANK * config.n_tanks))
    for k in range(config.n_tanks):
        base = _SLOTS_PER_TANK * k
        X[:, base + 0] = level[:, k]
        X[:, base + 1] = inflow[:, k]
        X[:, base + 2] = outflow[:, k]
        X[:, base + 3] = pump[:, k]
        X[:, base + 4] = valve[:, k]
    return Dataset(schema_for(config), X, np.zeros(config.steps, dtype=np.int64))


def simulate_normal(config: PlantConfig, seed: int) -> Dataset:
    """Simulate attack-free operation; every row is labeled Normal."""
    flips = np.zeros((config.steps, config.n_tanks), dtype=np.bool_)
    return _run(config, seed, flips, flips.copy())


def inject_bias(dataset: Dataset, spec: AttackSpec) -> Dataset:
    """Add a constant offset to one sensor column inside the window.

    Returns a new dataset; rows in the window get label 1 even when the
    offset is zero (a stealth window is still an attack window).
    """
    if spec.kind != SENSOR_BIAS:
        raise ParameterError("inject_bias only handles %s attacks" % SENSOR_BIAS)
    idx = dataset.schema.index_of(spec.target_feature)
    if dataset.schema.features[idx].kind != SENSOR:
        raise KindMismatchError(
            "sensor-bias target %r is an actuator column" % spec.target_feature
        )
    start, end = spec.window
    if end > dataset.n_rows:
        raise ParameterError(
            "window %r exceeds dataset length %d" % (spec.window, dataset.n_rows)
        )
    X = dataset.X.copy()
    y = dataset.y.copy()
    X[start:end, idx] += spec.delta
    y[start:end] = 1
    return Dataset(dataset.schema, X, y)


def _check_attacks(config: PlantConfig, attacks) -> None:
    schema = schema_for(config)
    by_feature: dict[str, list[tuple[int, int]]] = {}
    for spec in attacks:
        idx = schema.index_of(spec.target_feature)
        kind = schema.features[idx].kind
        if spec.kind == SENSOR_BIAS and kind != SENSOR:
            raise KindMismatchError(
                "sensor-bias target %r is an actuator column" % spec.target_feature
            )
        if spec.kind == ACTUATOR_FLIP and kind != ACTUATOR:
            raise KindMismatchError(
                "actuator-flip target %r is a sensor column" % spec.target_feature
            )
        if spec.window[1] > config.steps:
            raise ParameterError(
                "window %r exceeds run length %d" % (spec.window, config.steps)
            )
        by_feature.setdefault(spec.target_feature, []).append(spec.window)
    for name, windows in by_feature.items():
        windows.sort()
        for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
            if s1 < e0:
                raise ParameterError(
                    "overlapping windows %r and %r on feature %r"
                    % ((s0, e0), (s1, e1), name)
                )


def simulate_with_attacks(
    config: PlantConfig, attacks: list[AttackSpec], seed: int
) -> Dataset:
    """Simulate a run with the given attacks active.

    Actuator flips feed the forced state into the dynamics during the run;
    sensor biases are spoofed onto the finished trace. With an empty attack
    list the result equals simulate_normal(config, seed) exactly.
    """
    _check_attacks(config, attacks)
    schema = schema_for(config)
    pump_flip = np.zeros((config.steps, config.n_tanks), dtype=np.bool_)
    valve_flip = np.zeros((config.steps, config.n_tanks), dtype=np.bool_)
    for spec in attacks:
        if spec.kind != ACTUATOR_FLIP:
            continue
        idx = schema.index_of(spec.target_feature)
        tank, slot = divmod(idx, _SLOTS_PER_TANK)
        start, end = spec.window
        if slot == _PUMP_SLOT:
            pump_flip[start:end, tank] = True
        else:
            valve_flip[start:end, tank] = True
    ds = _run(config, seed, pump_flip, valve_flip)
    y = ds.y.copy()
    for spec in attacks:
        if spec.kind == ACTUATOR_FLIP:
            y[spec.window[0] : spec.window[1]] = 1
    ds = Dataset(schema, ds.X, y)
    for spec in attacks:
        if spec.kind == SENSOR_BIAS:
            ds = inject_bias(ds, spec)
    return ds


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


@parses("scenario", "scenario")
def parse_scenario(obj: dict):
    """Validate a scenario document.

    Returns (config, attacks, normal_seed, attack_seed).
    """
    config = PlantConfig.from_json(obj["plant"])
    normal_seed = int(obj["normal_seed"])
    attack_seed = int(obj["attack_seed"])
    attacks = [AttackSpec.from_json(a) for a in obj.get("attacks", [])]
    _check_attacks(config, attacks)
    return config, attacks, normal_seed, attack_seed


def simulate_scenario(obj: dict) -> tuple[Dataset, Dataset]:
    """Run the normal and attacked legs of a scenario document."""
    config, attacks, normal_seed, attack_seed = parse_scenario(obj)
    return (
        simulate_normal(config, normal_seed),
        simulate_with_attacks(config, attacks, attack_seed),
    )


def load_scenario(path) -> dict:
    """Read a scenario file and return the document once it parses."""

    def checked(obj):
        parse_scenario(obj)
        return obj

    return read_json(path, checked)


def bundled_scenario() -> dict:
    """The scenario shipped with the package (two tanks, eight windows)."""
    text = resources.files("icsadv.data").joinpath("default_scenario.json").read_text()
    return json.loads(text)
