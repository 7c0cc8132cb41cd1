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
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .dataset import ACTUATOR, SENSOR, Dataset, Feature, Schema
from .errors import (NON_NEGATIVE, POSITIVE, KindMismatchError, ParameterError,
                     choice, integer, known_keys, parses, read_json, real, text)

SENSOR_BIAS = "sensor-bias"
ACTUATOR_FLIP = "actuator-flip"

_PUMP_SLOT = 3
_SLOTS_PER_TANK = 5

# the range of each float field of PlantConfig but the levels and the
# capacity, whose order is checked across fields
_PLANT_RANGES = {"inflow_rate": POSITIVE, "outflow_rate": POSITIVE,
                 "sensor_noise_std": NON_NEGATIVE, "dt": POSITIVE}


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
        integer(self.n_tanks, "n_tanks", 1)
        integer(self.steps, "steps", 1)
        # every float field holds a float, so a scenario's 100 loads as 100.0
        for f in fields(self):
            if f.type == "float":
                value = real(getattr(self, f.name), f.name, _PLANT_RANGES.get(f.name))
                object.__setattr__(self, f.name, value)
        if not 0.0 < self.level_low < self.level_high < self.tank_capacity:
            raise ParameterError(
                "levels must satisfy 0 < level_low < level_high < tank_capacity"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    @parses("plant config")
    def from_json(cls, obj: dict) -> "PlantConfig":
        names = [f.name for f in fields(cls)]
        known_keys(obj, names, "plant")
        return cls(**{name: obj[name] for name in names})


@dataclass(frozen=True)
class AttackSpec:
    """One attack window; delta is only meaningful for sensor-bias."""

    kind: str
    target_feature: str
    delta: float
    window: tuple[int, int]

    def __post_init__(self):
        choice(self.kind, "attack kind", (SENSOR_BIAS, ACTUATOR_FLIP))
        object.__setattr__(self, "delta", real(self.delta, "attack delta"))
        start, end = self.window
        integer(start, "attack window start", 0)
        integer(end, "attack window end", 0)
        if end <= start:
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
        known_keys(obj, [f.name for f in fields(cls)], "attack")
        window = obj["window"]
        if len(window) != 2:
            raise ParameterError(
                "attack window must be [start, end], got %r" % (window,)
            )
        return cls(
            kind=text(obj["kind"], "attack kind"),
            target_feature=text(obj["target_feature"], "attack target_feature"),
            delta=obj.get("delta", 0.0),
            window=(window[0], window[1]),
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
    rng = np.random.default_rng(seed)
    std = config.sensor_noise_std
    return (
        rng.normal(0.0, std, shape),
        rng.normal(0.0, std, shape),
        rng.normal(0.0, std, shape),
    )


def _check_attacks(config: PlantConfig, attacks) -> None:
    schema = schema_for(config)
    by_feature: dict[str, list[tuple[int, int]]] = {}
    for spec in attacks:
        kind = schema.kind_of(spec.target_feature)
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


def _tank(config: PlantConfig, level: float, level_noise, pump_flip, q_out,
          meas_out, pump_out) -> None:
    """Step one tank from true level ``level`` over its ``level_noise``,
    ``pump_flip`` and ``q_out`` (outflow through the valve) columns, writing
    each step's level reading and pump state to the rows ``meas_out`` and
    ``pump_out``.

    Per step: read the noisy level, run the hysteresis pump controller on
    the reading, apply a pump-flip override, integrate the true level from
    the (possibly forced) pump state. The controller keeps its own command,
    so forcing the pump does not corrupt its hysteresis state; the level and
    that command are all a step carries. The loop reads and writes through
    memoryviews: lists of 100k float objects per column fragmented the heap,
    and peak RSS rose with every call.
    """
    low, high, capacity = config.level_low, config.level_high, config.tank_capacity
    inflow_rate, dt = config.inflow_rate, config.dt
    cmd = 0
    meas_out, pump_out = memoryview(meas_out), memoryview(pump_out)
    for t, (noise_t, pflip, q_out_t) in enumerate(zip(
        memoryview(np.ascontiguousarray(level_noise)),
        memoryview(np.ascontiguousarray(pump_flip)),
        memoryview(np.ascontiguousarray(q_out)),
    )):
        meas = level + noise_t
        if meas < low:
            cmd = 2
        elif meas > high:
            cmd = 0
        pump_act = (0 if cmd >= 1 else 2) if pflip else cmd
        q_in = inflow_rate if pump_act == 2 else 0.0
        meas_out[t] = meas
        pump_out[t] = pump_act
        level += (q_in - q_out_t) * dt
        if level < 0.0:
            level = 0.0
        elif level > capacity:
            level = capacity


def _run(config: PlantConfig, seed: int, attacks) -> Dataset:
    """The one log builder, for checked ``attacks``.

    Actuator flips feed the forced state into the dynamics; sensor biases
    are then added to the finished trace, in attack order. Every row inside
    an attack window is labeled 1. The tanks are independent, so ``_tank``
    steps one at a time; the valve state and both flow readings carry no
    state and are whole-column operations, each element the same float64
    arithmetic a step would do.

    X is allocated before the loop's arrays, and the loop fills one
    contiguous row per tank, scattered into X afterwards: freeing those
    arrays then leaves one free block above X, not a hole below it that
    later large arrays miss. Writing the loop's output straight into X's
    strided columns raised the peak RSS of scoring a 100k-step log by 7 MB.
    """
    schema = schema_for(config)
    shape = (config.steps, config.n_tanks)
    pump_flip, valve_flip = np.zeros(shape, bool), np.zeros(shape, bool)
    y = np.zeros(config.steps, dtype=np.int64)
    for spec in attacks:
        start, end = spec.window
        y[start:end] = 1
        if spec.kind == ACTUATOR_FLIP:
            tank, slot = divmod(schema.index_of(spec.target_feature), _SLOTS_PER_TANK)
            flip = pump_flip if slot == _PUMP_SLOT else valve_flip
            flip[start:end, tank] = True
    X = np.empty((config.steps, _SLOTS_PER_TANK * config.n_tanks))
    level_noise, inflow, outflow = _draw_noise(config, seed)
    level_meas = np.empty((config.n_tanks, config.steps))
    pump = np.empty((config.n_tanks, config.steps), dtype=np.int64)
    valve = np.where(valve_flip, 0, 2)
    q_out = np.where(valve_flip, 0.0, config.outflow_rate)
    for k, level in enumerate(initial_levels(config).tolist()):
        _tank(config, level, level_noise[:, k], pump_flip[:, k], q_out[:, k],
              level_meas[k], pump[k])
    pump = pump.T
    # each flow reading is its noise plus the flow
    inflow += np.where(pump == 2, config.inflow_rate, 0.0)
    outflow += q_out
    # tank k's column for slot s is s + 5k, in level/inflow/outflow/pump/valve order
    for slot, column in enumerate((level_meas.T, inflow, outflow, pump, valve)):
        X[:, slot::_SLOTS_PER_TANK] = column
    for spec in attacks:
        if spec.kind == SENSOR_BIAS:
            start, end = spec.window
            X[start:end, schema.index_of(spec.target_feature)] += spec.delta
    return Dataset(schema, X, y)


def simulate_normal(config: PlantConfig, seed: int) -> Dataset:
    """Simulate attack-free operation; every row is labeled Normal."""
    return _run(config, integer(seed, "seed", 0), [])


def simulate_with_attacks(
    config: PlantConfig, attacks: list[AttackSpec], seed: int
) -> Dataset:
    """Simulate a run with the given attacks active.

    Actuator flips feed the forced state into the dynamics during the run;
    sensor biases are spoofed onto the finished trace. With an empty attack
    list the result equals simulate_normal(config, seed) exactly.
    """
    seed = integer(seed, "seed", 0)
    _check_attacks(config, attacks)
    return _run(config, seed, attacks)


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


_SCENARIO_KEYS = ("format", "version", "plant", "normal_seed", "attack_seed", "attacks")


@parses("scenario", "scenario")
def parse_scenario(obj: dict):
    """Validate a scenario document.

    Returns (config, attacks, normal_seed, attack_seed).
    """
    known_keys(obj, _SCENARIO_KEYS, "scenario")
    config = PlantConfig.from_json(obj["plant"])
    normal_seed = integer(obj["normal_seed"], "normal_seed", 0)
    attack_seed = integer(obj["attack_seed"], "attack_seed", 0)
    attacks = [AttackSpec.from_json(a) for a in obj.get("attacks", [])]
    _check_attacks(config, attacks)
    return config, attacks, normal_seed, attack_seed


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
