"""Plant simulator: dynamics invariants, attack injection, scenario docs."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import dataset as ds
from icsadv import plantsim as ps
from icsadv.errors import KindMismatchError, ParameterError, ParseError


def quiet_config(**kw) -> ps.PlantConfig:
    defaults = dict(n_tanks=1, sensor_noise_std=0.0, steps=500)
    defaults.update(kw)
    return ps.PlantConfig(**defaults)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ps.PlantConfig()
        assert cfg.n_tanks == 2
        assert cfg.level_low < cfg.level_high < cfg.tank_capacity

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_tanks": 0},
            {"level_low": 70.0},  # above level_high
            {"level_high": 120.0},  # above capacity
            {"inflow_rate": 0.0},
            {"outflow_rate": -1.0},
            {"sensor_noise_std": -0.1},
            {"dt": 0.0},
            {"steps": 0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ParameterError):
            ps.PlantConfig(**kw)

    def test_json_round_trip(self):
        cfg = quiet_config(steps=77)
        assert ps.PlantConfig.from_json(cfg.to_json()) == cfg


class TestSchemaAndLevels:
    def test_schema_layout(self):
        schema = ps.schema_for(ps.PlantConfig())
        assert schema.feature_names == [
            "LIT101", "FIT101", "FIT102", "P101", "MV101",
            "LIT201", "FIT201", "FIT202", "P201", "MV201",
        ]
        assert schema.kind_of("LIT101") == ds.SENSOR
        assert schema.kind_of("P201") == ds.ACTUATOR
        assert schema.kind_of("MV101") == ds.ACTUATOR

    def test_initial_levels_staggered_within_band(self):
        cfg = ps.PlantConfig(n_tanks=3)
        lv = ps.initial_levels(cfg)
        expect = 40.0 + 20.0 * np.array([1, 2, 3]) / 4.0
        assert np.allclose(lv, expect)
        # single tank starts dead mid-band
        assert ps.initial_levels(quiet_config())[0] == 50.0


class TestNormalRun:
    def test_deterministic_by_seed(self):
        cfg = ps.PlantConfig(steps=300)
        a = ps.simulate_normal(cfg, seed=5)
        b = ps.simulate_normal(cfg, seed=5)
        c = ps.simulate_normal(cfg, seed=6)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_all_rows_labeled_normal(self):
        data = ps.simulate_normal(quiet_config(), seed=0)
        assert (data.y == 0).all()

    def test_noise_free_sawtooth(self):
        data = ps.simulate_normal(quiet_config(steps=60), seed=0)
        level, inflow, outflow, pump, valve = data.X.T
        # pump starts off (mid-band), level drains 0.8/step until below 40
        expect = []
        lv = 50.0
        for _ in range(60):
            expect.append(lv)
            lv -= 0.8
            if lv < 40.0:
                break
        assert np.array_equal(level[: len(expect)], np.array(expect))
        assert (pump[: len(expect) - 1] == 0).all()
        # first reading below the low mark turns the pump on
        t_on = len(expect)
        assert level[t_on] < 40.0
        assert pump[t_on] == 2
        assert inflow[t_on] == 1.2
        assert (valve == 2).all()
        assert (outflow == 0.8).all()

    def test_noise_free_levels_stay_in_band(self):
        data = ps.simulate_normal(quiet_config(steps=2000), seed=0)
        lit = data.X[:, 0]
        assert lit.min() >= 40.0 - 0.8 * 1.0
        assert lit.max() <= 60.0 + 1.2 * 1.0

    def test_actuator_columns_use_state_codes(self):
        data = ps.simulate_normal(ps.PlantConfig(steps=400), seed=3)
        pumps = data.X[:, [3, 8]]
        valves = data.X[:, [4, 9]]
        assert set(np.unique(pumps)) <= {0.0, 2.0}
        assert set(np.unique(valves)) == {2.0}  # valves stay open normally

    def test_true_level_unaffected_by_sensor_noise(self):
        # the reading is level + noise; recover the noise-free trajectory by
        # comparing against a zero-noise run driven to the same pump pattern
        cfg = ps.PlantConfig(n_tanks=1, sensor_noise_std=0.0, steps=200)
        data = ps.simulate_normal(cfg, seed=0)
        lit, fit_in, fit_out = data.X[:, 0], data.X[:, 1], data.X[:, 2]
        # integrate the recorded flows: next level = level + (in - out) * dt
        recon = np.empty_like(lit)
        recon[0] = 50.0
        for t in range(1, len(lit)):
            recon[t] = recon[t - 1] + (fit_in[t - 1] - fit_out[t - 1])
        assert np.allclose(recon, lit)


class TestBiasInjection:
    """Sensor biases, compared against the attack-free run of the same seed."""

    def _legs(self, spec, steps=500):
        cfg = quiet_config(steps=steps)
        return (
            ps.simulate_normal(cfg, seed=1),
            ps.simulate_with_attacks(cfg, [spec], seed=1),
        )

    def test_window_rows_get_label_and_offset(self):
        spec = ps.AttackSpec("sensor-bias", "LIT101", -10.0, (100, 200))
        data, out = self._legs(spec)
        assert int(out.y.sum()) == 100
        assert (out.y[100:200] == 1).all()
        assert np.array_equal(out.X[100:200, 0], data.X[100:200, 0] + -10.0)
        # every cell outside the window is the same bytes
        assert out.X[:100].tobytes() == data.X[:100].tobytes()
        assert out.X[200:].tobytes() == data.X[200:].tobytes()
        assert out.X[:, 1:].tobytes() == data.X[:, 1:].tobytes()

    def test_zero_delta_window_still_labeled(self):
        spec = ps.AttackSpec("sensor-bias", "LIT101", 0.0, (10, 20))
        data, out = self._legs(spec)
        assert out.X.tobytes() == data.X.tobytes()
        assert int(out.y.sum()) == 10
        assert (out.y[10:20] == 1).all()

    def test_actuator_target_rejected(self):
        with pytest.raises(KindMismatchError, match="P101"):
            self._legs(ps.AttackSpec("sensor-bias", "P101", 1.0, (0, 10)))


class TestAttackSpecs:
    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            ps.AttackSpec("replay", "LIT101", 0.0, (0, 10))

    def test_bad_window_rejected(self):
        with pytest.raises(ParameterError, match="window"):
            ps.AttackSpec("sensor-bias", "LIT101", 0.0, (10, 10))
        with pytest.raises(ParameterError, match="window"):
            ps.AttackSpec("sensor-bias", "LIT101", 0.0, (-1, 10))

    @pytest.mark.parametrize("key, value", [
        ("kind", 5), ("kind", None), ("target_feature", None),
        ("target_feature", 101), ("target_feature", True)])
    def test_names_must_be_strings(self, key, value):
        """null and 5 are not read as the names "None" and "5"."""
        doc = ps.AttackSpec("sensor-bias", "LIT101", 1.0, (5, 25)).to_json()
        doc[key] = value
        with pytest.raises(ParseError, match="attack %s %r is not a JSON string"
                           % (key, value)):
            ps.AttackSpec.from_json(doc)

    def test_json_round_trip(self):
        spec = ps.AttackSpec("actuator-flip", "P101", 0.0, (5, 25))
        assert ps.AttackSpec.from_json(spec.to_json()) == spec


class TestAttackedRun:
    def test_empty_attack_list_equals_normal_run(self):
        cfg = ps.PlantConfig(steps=400)
        a = ps.simulate_normal(cfg, seed=11)
        b = ps.simulate_with_attacks(cfg, [], seed=11)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_pump_flip_forces_off_and_drains(self):
        cfg = quiet_config(steps=900)
        spec = ps.AttackSpec("actuator-flip", "P101", 0.0, (100, 700))
        out = ps.simulate_with_attacks(cfg, [spec], seed=0)
        pump = out.X[:, 3]
        lit = out.X[:, 0]
        # inside the window the controller wants the pump on once the level
        # falls below the low mark, but the flip forces it off
        assert (pump[100:700] == 0.0).all()
        assert lit[100:700].min() == 0.0  # tank runs dry, clamped at zero
        assert (out.y[100:700] == 1).all()
        assert (out.y[:100] == 0).all() and (out.y[700:] == 0).all()
        # controller recovers after the window
        assert pump[700] == 2.0
        assert lit[-1] > 30.0

    def test_valve_flip_forces_closed_and_fills(self):
        cfg = quiet_config(steps=900)
        spec = ps.AttackSpec("actuator-flip", "MV101", 0.0, (100, 700))
        out = ps.simulate_with_attacks(cfg, [spec], seed=0)
        valve = out.X[:, 4]
        outflow = out.X[:, 2]
        lit = out.X[:, 0]
        assert (valve[100:700] == 0.0).all()
        assert (outflow[100:700] == 0.0).all()
        # level climbs to the high mark and parks just above it
        assert lit[100:700].max() <= 60.0 + 1.2
        assert lit[650] > 59.0

    def test_flip_affects_only_target_tank(self):
        cfg = ps.PlantConfig(sensor_noise_std=0.0, steps=400)
        spec = ps.AttackSpec("actuator-flip", "P201", 0.0, (50, 350))
        base = ps.simulate_normal(cfg, seed=0)
        out = ps.simulate_with_attacks(cfg, [spec], seed=0)
        assert np.array_equal(out.X[:, :5], base.X[:, :5])  # tank 1 untouched
        assert not np.array_equal(out.X[:, 5:], base.X[:, 5:])

    def test_sensor_bias_does_not_change_dynamics(self):
        cfg = ps.PlantConfig(steps=400)
        spec = ps.AttackSpec("sensor-bias", "LIT101", -25.0, (100, 300))
        base = ps.simulate_normal(cfg, seed=7)
        out = ps.simulate_with_attacks(cfg, [spec], seed=7)
        # spoofed column differs inside the window, all else identical
        assert np.allclose(out.X[100:300, 0], base.X[100:300, 0] - 25.0)
        assert np.array_equal(out.X[:, 1:], base.X[:, 1:])

    def test_mixed_attack_labels_are_union_of_windows(self):
        cfg = ps.PlantConfig(steps=500)
        attacks = [
            ps.AttackSpec("sensor-bias", "LIT101", -5.0, (50, 100)),
            ps.AttackSpec("actuator-flip", "P201", 0.0, (200, 260)),
        ]
        out = ps.simulate_with_attacks(cfg, attacks, seed=1)
        expect = np.zeros(500, dtype=np.int64)
        expect[50:100] = 1
        expect[200:260] = 1
        assert np.array_equal(out.y, expect)

    def test_wrong_kind_for_target_rejected(self):
        cfg = quiet_config()
        with pytest.raises(KindMismatchError):
            ps.simulate_with_attacks(
                cfg, [ps.AttackSpec("actuator-flip", "LIT101", 0.0, (0, 10))], seed=0
            )

    def test_overlapping_windows_same_feature_rejected(self):
        cfg = quiet_config()
        attacks = [
            ps.AttackSpec("sensor-bias", "LIT101", 1.0, (10, 50)),
            ps.AttackSpec("sensor-bias", "LIT101", 2.0, (40, 80)),
        ]
        with pytest.raises(ParameterError, match="overlap"):
            ps.simulate_with_attacks(cfg, attacks, seed=0)

    def test_overlapping_windows_different_features_allowed(self):
        cfg = quiet_config()
        attacks = [
            ps.AttackSpec("sensor-bias", "LIT101", 1.0, (10, 50)),
            ps.AttackSpec("sensor-bias", "FIT101", 1.0, (40, 80)),
        ]
        out = ps.simulate_with_attacks(cfg, attacks, seed=0)
        assert int(out.y.sum()) == 70

    def test_window_past_run_end_rejected(self):
        cfg = quiet_config(steps=100)
        with pytest.raises(ParameterError, match="exceeds"):
            ps.simulate_with_attacks(
                cfg,
                [ps.AttackSpec("sensor-bias", "LIT101", 1.0, (90, 120))],
                seed=0,
            )


def reference_tank_loop(config, level0, noise, flips):
    """Tank farm simulation, one python step at a time; returns the level,
    inflow, outflow, pump and valve columns, each (steps, n_tanks)."""
    level_noise, inflow_noise, outflow_noise = noise
    pump_flip, valve_flip = flips
    n_tanks = level0.shape[0]
    shape = (config.steps, n_tanks)
    level_meas = np.empty(shape, dtype=np.float64)
    inflow_meas = np.empty(shape, dtype=np.float64)
    outflow_meas = np.empty(shape, dtype=np.float64)
    pump_out = np.empty(shape, dtype=np.int64)
    valve_out = np.empty(shape, dtype=np.int64)
    level = level0.copy()
    pump_cmd = np.zeros(n_tanks, dtype=np.int64)
    for t in range(config.steps):
        for k in range(n_tanks):
            meas = level[k] + level_noise[t, k]
            cmd = pump_cmd[k]
            if meas < config.level_low:
                cmd = 2
            elif meas > config.level_high:
                cmd = 0
            pump_cmd[k] = cmd
            if pump_flip[t, k]:
                pump_act = 0 if cmd >= 1 else 2
            else:
                pump_act = cmd
            valve_act = 0 if valve_flip[t, k] else 2
            q_in = config.inflow_rate if pump_act == 2 else 0.0
            q_out = config.outflow_rate if valve_act == 2 else 0.0
            level_meas[t, k] = meas
            inflow_meas[t, k] = q_in + inflow_noise[t, k]
            outflow_meas[t, k] = q_out + outflow_noise[t, k]
            pump_out[t, k] = pump_act
            valve_out[t, k] = valve_act
            level[k] += (q_in - q_out) * config.dt
            if level[k] < 0.0:
                level[k] = 0.0
            elif level[k] > config.tank_capacity:
                level[k] = config.tank_capacity
    return level_meas, inflow_meas, outflow_meas, pump_out, valve_out


tank_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # data and simulation seed
    st.integers(1, 3),  # tanks
    st.integers(1, 300),  # steps
    st.booleans(),  # noisy readings, else noise-free
    st.floats(0.0, 1.0),  # share of steps with the pump flipped
    st.floats(0.0, 1.0),  # share of steps with the valve flipped
)


def _runs(mask):
    """The [start, end) windows of the runs of True in a boolean column."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def draw_tank_case(case):
    """A plant, its (pump, valve) flips per step and tank, and the attacks
    that flip them. Flow rates reach 5-60% of capacity per step, so runs
    hit both clamps."""
    seed, n_tanks, n_steps, noisy, p_pump, p_valve = case
    rng = np.random.default_rng(seed)
    capacity = float(rng.uniform(5.0, 100.0))
    level_low = float(rng.uniform(0.05, 0.5)) * capacity
    level_high = float(rng.uniform(level_low, 0.95 * capacity))
    inflow, outflow = (float(v) * capacity for v in rng.uniform(0.05, 0.6, 2))
    config = ps.PlantConfig(
        n_tanks=n_tanks, tank_capacity=capacity, inflow_rate=inflow,
        outflow_rate=outflow, level_low=level_low, level_high=level_high,
        sensor_noise_std=0.1 * capacity if noisy else 0.0,
        dt=float(rng.choice([0.5, 1.0, 1.7])), steps=n_steps,
    )
    shape = (n_steps, n_tanks)
    flips = (rng.random(shape) < p_pump, rng.random(shape) < p_valve)
    attacks = [
        ps.AttackSpec("actuator-flip", "%s%d01" % (name, k + 1), 0.0, window)
        for name, flip in zip(("P", "MV"), flips)
        for k in range(n_tanks)
        for window in _runs(flip[:, k])
    ]
    return config, flips, attacks


class TestTankLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(tank_cases)
    def test_matches_step_by_step_loop(self, case):
        config, flips, attacks = draw_tank_case(case)
        seed = case[0]
        got = ps.simulate_with_attacks(config, attacks, seed)
        want = reference_tank_loop(
            config, ps.initial_levels(config), ps._draw_noise(config, seed), flips
        )
        for slot, column in enumerate(want):
            assert got.X[:, slot::5].tobytes() == column.astype(np.float64).tobytes()

    def test_cases_reach_both_clamps(self):
        """The drawn cases do drive levels to 0 and to capacity."""
        empty = full = 0
        for seed in range(40):
            config, flips, _ = draw_tank_case((seed, 2, 300, False, 0.3, 0.3))
            # without noise the level reading is the true level
            level = reference_tank_loop(
                config, ps.initial_levels(config), ps._draw_noise(config, seed), flips
            )[0]
            empty += bool((level == 0.0).any())
            full += bool((level == config.tank_capacity).any())
        assert empty > 0 and full > 0


class TestScenario:
    def test_parse_requires_format_tag(self):
        with pytest.raises(ParseError, match="format"):
            ps.parse_scenario({"plant": {}})

    def test_parse_reports_missing_keys(self):
        with pytest.raises(ParseError):
            ps.parse_scenario({"format": "scenario", "plant": {"n_tanks": 1}})

    def test_load_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="JSON"):
            ps.load_scenario(p)

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ps.load_scenario(tmp_path / "nope.json")

    def test_round_trip_through_file(self, tmp_path, tiny_scenario):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(tiny_scenario))
        config, attacks, normal_seed, attack_seed = ps.parse_scenario(
            ps.load_scenario(p)
        )
        normal = ps.simulate_normal(config, normal_seed)
        attacked = ps.simulate_with_attacks(config, attacks, attack_seed)
        assert normal.n_rows == attacked.n_rows == 1200
        assert (normal.y == 0).all()
        assert int(attacked.y.sum()) == 120 + 160 + 100

    def test_bundled_scenario_parses(self):
        obj = ps.bundled_scenario()
        config, attacks, normal_seed, attack_seed = ps.parse_scenario(obj)
        assert config.n_tanks == 2
        assert len(attacks) == 8
        assert normal_seed != attack_seed
        kinds = {a.kind for a in attacks}
        assert kinds == {"sensor-bias", "actuator-flip"}
