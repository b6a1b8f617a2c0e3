"""Equivalence tests for the ensemble flight simulator.

The contract under test (see ``repro.sim.ensemble`` and DESIGN.md's
Performance section): an :class:`EnsembleFlightSimulator` stepping N lanes
in lockstep is **bit-for-bit** equal to N independent scalar
:class:`FlightSimulator` runs — state trajectories, telemetry samples,
sensor RNG streams, mixer counters, and (through the chaos driver) entire
campaign fingerprints including black-box crash traces.  Every assertion
here is exact equality, never ``allclose``.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro
from repro.chaos import (
    CampaignConfig,
    run_campaign,
    run_trials_ensemble,
    verify_replay,
)
from repro.chaos.campaign import TrialSpec, generate_campaign
from repro.chaos.runner import ensemble_groups
from repro.core.parallel import SweepRunnerConfig
from repro.faults.scenarios import DEFAULT_MODEL
from repro.faults.schedule import FaultSchedule
from repro.physics.environment import Wind
from repro.sim import ensemble as ensemble_module
from repro.sim.ensemble import EnsembleFlightSimulator, hover_gust_monte_carlo
from repro.sim.simulator import DroneModel, FlightSimulator

#: Keep the raw-stepping tests at the campaign default rate — cheap, and
#: the rate the chaos equivalence below exercises anyway.
RATE_HZ = 200.0

TARGETS = ([2.0, 0.0, 4.0], [0.0, -3.0, 5.0], [-1.0, 1.0, 6.0])


def _model() -> DroneModel:
    return DroneModel(**DEFAULT_MODEL)


def _wind(seed: int) -> Wind:
    return Wind(gust_speed_m_s=2.0, seed=seed)


def _assert_state_equal(state, ref) -> None:
    np.testing.assert_array_equal(state.position_m, ref.position_m)
    np.testing.assert_array_equal(state.velocity_m_s, ref.velocity_m_s)
    np.testing.assert_array_equal(state.quaternion, ref.quaternion)
    np.testing.assert_array_equal(
        state.angular_velocity_rad_s, ref.angular_velocity_rad_s
    )


def _assert_samples_equal(samples, ref_samples) -> None:
    assert len(samples) == len(ref_samples)
    for got, want in zip(samples, ref_samples):
        assert got.time_s == want.time_s
        np.testing.assert_array_equal(got.position_m, want.position_m)
        np.testing.assert_array_equal(got.velocity_m_s, want.velocity_m_s)
        np.testing.assert_array_equal(got.euler_rad, want.euler_rad)
        np.testing.assert_array_equal(got.motor_thrusts_n, want.motor_thrusts_n)
        assert got.electrical_power_w == want.electrical_power_w
        assert got.battery_voltage_v == want.battery_voltage_v
        assert got.battery_soc == want.battery_soc


def _assert_lane_matches(lane, sim) -> None:
    _assert_state_equal(lane.body.state, sim.body.state)
    assert lane.battery.state_of_charge == sim.battery.state_of_charge
    assert lane.depleted == sim.depleted
    assert lane.ekf_resets == sim.ekf_resets
    mixer = lane.controller.thrust_controller.mixer
    ref_mixer = sim.controller.thrust_controller.mixer
    assert mixer.mixes == ref_mixer.mixes
    assert mixer.saturations == ref_mixer.saturations
    _assert_samples_equal(lane.samples, sim.samples)
    # The derived metrics read the columnar records (or the scalar backend
    # after defection) and must match the scalar methods bit for bit.
    assert lane.average_power_w(0.5) == sim.average_power_w(0.5)
    assert lane.hover_position_error_m(
        TARGETS[0], since_s=0.5
    ) == sim.hover_position_error_m(np.asarray(TARGETS[0]), since_s=0.5)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("use_ekf", [False, True])
    def test_three_lanes_match_scalar_runs(self, use_ekf):
        """Distinct targets + per-lane gusty wind, stepped in uneven chunks."""
        model = _model()
        ens = EnsembleFlightSimulator(
            model,
            n_lanes=3,
            physics_rate_hz=RATE_HZ,
            use_ekf=use_ekf,
            winds=[_wind(10 + i) for i in range(3)],
        )
        scalars = [
            FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                use_ekf=use_ekf,
                wind=_wind(10 + i),
            )
            for i in range(3)
        ]
        for index, target in enumerate(TARGETS):
            ens.set_lane_target(index, target)
            scalars[index].goto(target)
        for chunk_s in (0.5, 0.75, 1.0):
            ens.run_for(chunk_s)
            for sim in scalars:
                sim.run_for(chunk_s)
        for index, sim in enumerate(scalars):
            _assert_lane_matches(ens.lane(index), sim)

    def test_gust_monte_carlo_matches_scalar_loop(self):
        """`hover_gust_monte_carlo` == one scalar flight per wind seed."""
        model = _model()
        seeds = (3, 5, 9)
        target = [0.0, 0.0, 5.0]
        errors = hover_gust_monte_carlo(
            model,
            seeds,
            gust_speed_m_s=3.0,
            duration_s=4.0,
            physics_rate_hz=RATE_HZ,
            target_m=target,
        )
        for seed, error in zip(seeds, errors):
            sim = FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                wind=Wind(
                    gust_speed_m_s=3.0, correlation_time_s=1.5, seed=seed
                ),
            )
            sim.goto(target)
            sim.run_for(4.0)
            assert error == sim.hover_position_error_m(
                np.asarray(target), since_s=2.0
            )


class TestFaultFacades:
    def test_sensor_and_actuator_faults_desync_and_restore(self):
        """Fault-facade writes mid-run stay bitwise equal to scalar writes.

        GPS denial and a barometer freeze force the affected lanes off the
        shared block RNG onto materialized per-lane generators; restoring
        the sensors must keep the streams aligned with the scalar runs.
        """
        model = _model()
        ens = EnsembleFlightSimulator(model, n_lanes=2, physics_rate_hz=RATE_HZ)
        scalars = [
            FlightSimulator(model, physics_rate_hz=RATE_HZ) for _ in range(2)
        ]
        for index in range(2):
            ens.set_lane_target(index, TARGETS[index])
            scalars[index].goto(TARGETS[index])
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        lanes = [ens.lane(0), ens.lane(1)]
        for target in (lanes[0], scalars[0]):
            target.sensors.gps.available = False
            target.sensors.imu.accel_bias_m_s2 = (0.3, -0.1, 0.05)
        for target in (lanes[1], scalars[1]):
            target.sensors.barometer.frozen = True
            target.controller.thrust_controller.mixer.set_motor_health(2, 0.7)
            target.battery.inject_drain(200.0)
            target.battery.fault_resistance_ohm = 0.05
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        for target in (lanes[0], scalars[0]):
            target.sensors.gps.available = True
            target.sensors.imu.accel_bias_m_s2 = (0.0, 0.0, 0.0)
        for target in (lanes[1], scalars[1]):
            target.sensors.barometer.frozen = False
            target.controller.thrust_controller.mixer.set_motor_health(2, 1.0)
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        for index, sim in enumerate(scalars):
            _assert_lane_matches(lanes[index], sim)
            assert (
                lanes[index].sensors.gps_fix_age_s()
                == sim.sensors.gps_fix_age_s()
            )


class TestMidFlightDefection:
    def test_defected_lane_and_survivors_stay_bitwise(self):
        model = _model()
        ens = EnsembleFlightSimulator(
            model,
            n_lanes=3,
            physics_rate_hz=RATE_HZ,
            winds=[_wind(20 + i) for i in range(3)],
        )
        scalars = [
            FlightSimulator(model, physics_rate_hz=RATE_HZ, wind=_wind(20 + i))
            for i in range(3)
        ]
        for index, target in enumerate(TARGETS):
            ens.set_lane_target(index, target)
            scalars[index].goto(target)
        ens.run_for(1.5)
        for sim in scalars:
            sim.run_for(1.5)
        for index, sim in enumerate(scalars):
            _assert_samples_equal(ens.lane_samples(index), sim.samples)

        deserter = ens.lane(1)
        materialized = deserter.defect()
        assert not deserter.attached
        assert deserter.defect() is materialized  # idempotent
        for chunk_s in (1.0, 0.5):
            ens.run_for(chunk_s)
            deserter.run_for(chunk_s)  # facade delegates to the scalar sim
            for sim in scalars:
                sim.run_for(chunk_s)
        for index, sim in enumerate(scalars):
            _assert_lane_matches(ens.lane(index), sim)
        # The deserter's scalar backend continues the ensemble-era samples.
        assert ens.lane_samples(1) is materialized.samples

    def test_attached_lane_refuses_run_for(self):
        ens = EnsembleFlightSimulator(_model(), n_lanes=1, physics_rate_hz=RATE_HZ)
        with pytest.raises(RuntimeError, match="attached"):
            ens.lane(0).run_for(0.1)


class TestChaosCampaignEquivalence:
    def test_engines_produce_identical_campaigns(self):
        """Fingerprints (and crash traces) match across engines + replay."""
        config = CampaignConfig(campaign_seed=77, trials=8, duration_s=12.0)
        scalar = run_campaign(config, engine="scalar").results
        ensemble = run_campaign(
            config, engine="ensemble", ensemble_width=3
        ).results
        assert [r.metrics() for r in scalar] == [
            r.metrics() for r in ensemble
        ]
        for ref, got in zip(scalar, ensemble):
            assert (ref.trace is None) == (got.trace is None)
            if ref.trace is not None:
                assert ref.trace.fingerprint() == got.trace.fingerprint()
        assert verify_replay(ensemble[0], config)

    def test_64_trial_campaign_replays_identically(self):
        """The ISSUE acceptance shape: 64 chaos trials, both engines."""
        config = CampaignConfig(campaign_seed=9, trials=64, duration_s=10.0)
        scalar = run_campaign(config, engine="scalar").results
        ensemble = run_campaign(config, engine="ensemble").results
        assert len(ensemble) == 64
        assert [r.metrics() for r in scalar] == [
            r.metrics() for r in ensemble
        ]
        for ref, got in zip(scalar, ensemble):
            if ref.trace is not None:
                assert got.trace is not None
                assert ref.trace.fingerprint() == got.trace.fingerprint()

    def test_two_groups_on_two_workers_submit_two_chunks(self, monkeypatch):
        """Each ensemble group is its own pool chunk, so both workers fly."""
        import repro.exec.supervised as supervised

        submitted = []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(len(args[1]))  # (fn, chunk, base, heartbeat)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(supervised, "ProcessPoolExecutor", CountingPool)
        config = CampaignConfig(campaign_seed=6, trials=4, duration_s=6.5)
        assert len(ensemble_groups(generate_campaign(config), workers=2)) == 2
        results = run_campaign(config, SweepRunnerConfig(max_workers=2)).results
        assert submitted == [1, 1]
        scalar = run_campaign(config, engine="scalar").results
        assert [r.metrics() for r in results] == [r.metrics() for r in scalar]

    def test_parallel_and_supervised_paths_agree(self, tmp_path):
        """Inline, two workers and a journaled run fly the same trials."""
        config = CampaignConfig(campaign_seed=5, trials=6, duration_s=8.0)
        base = run_campaign(config, engine="ensemble", ensemble_width=4)
        parallel = run_campaign(
            config,
            SweepRunnerConfig(max_workers=2, chunk_size=1),
            engine="ensemble",
            ensemble_width=2,
        )
        assert [r.metrics() for r in base.results] == [
            r.metrics() for r in parallel.results
        ]
        journaled = run_campaign(
            config,
            journal_path=tmp_path / "journal.jsonl",
            engine="ensemble",
            ensemble_width=4,
        )
        assert not journaled.quarantined
        assert [r.metrics() for r in base.results] == [
            r.metrics() for r in journaled.results
        ]


class TestEnsembleApi:
    def test_unknown_engine_rejected(self):
        config = CampaignConfig(trials=2, duration_s=8.0)
        with pytest.raises(ValueError, match="engine"):
            run_campaign(config, engine="warp")

    def test_groups_are_balanced_and_fill_the_workers(self):
        """Fewest balanced groups per use_ekf partition, one per worker."""
        specs = [
            TrialSpec(
                campaign_seed=1,
                trial_index=index,
                link_seed=index,
                schedule=FaultSchedule(),
                use_ekf=index < 7,
                heartbeats=False,
                offload=False,
            )
            for index in range(20)
        ]

        def shape(groups):
            return [
                (group[0][1].use_ekf, len(group)) for group in groups
            ]

        assert shape(ensemble_groups(specs)) == [(False, 13), (True, 7)]
        assert shape(ensemble_groups(specs, workers=2)) == [
            (False, 13), (True, 7),
        ]
        # Extra groups split the widest partition first.
        assert shape(ensemble_groups(specs, workers=3)) == [
            (False, 7), (False, 6), (True, 7),
        ]
        assert shape(ensemble_groups(specs, workers=4)) == [
            (False, 5), (False, 4), (False, 4), (True, 7),
        ]
        # The width cap forces more groups, still balanced.
        assert shape(ensemble_groups(specs, width=5)) == [
            (False, 5), (False, 4), (False, 4), (True, 4), (True, 3),
        ]
        # Never more groups than trials.
        assert len(ensemble_groups(specs[:3], workers=8)) == 3
        indices = [
            index for group in ensemble_groups(specs, 4) for index, _ in group
        ]
        assert sorted(indices) == list(range(20))

    def test_nonpositive_width_rejected(self):
        config = CampaignConfig(trials=2, duration_s=8.0)
        specs = generate_campaign(config)
        with pytest.raises(ValueError, match="width"):
            run_trials_ensemble(specs, config, ensemble_width=0)

    def test_mixed_ekf_specs_partition_in_input_order(self):
        """use_ekf is per-ensemble constant; results come back in order."""
        config = CampaignConfig(trials=4, duration_s=8.0)
        specs = [
            TrialSpec(
                campaign_seed=1,
                trial_index=index,
                link_seed=100 + index,
                schedule=FaultSchedule(),
                use_ekf=(index % 2 == 1),
                heartbeats=False,
                offload=False,
            )
            for index in range(4)
        ]
        results = run_trials_ensemble(specs, config)
        assert [r.spec.trial_index for r in results] == [0, 1, 2, 3]
        assert [r.spec.use_ekf for r in results] == [False, True, False, True]

    def test_clear_all_caches_drops_ensemble_scratch(self):
        ens = EnsembleFlightSimulator(
            _model(), n_lanes=2, physics_rate_hz=RATE_HZ, use_ekf=True
        )
        ens.set_lane_target(0, TARGETS[0])
        ens.run_for(0.2)
        assert ensemble_module._SCRATCH
        repro.clear_all_caches()
        assert not ensemble_module._SCRATCH
        # The pool repopulates transparently on the next run.
        ens.run_for(0.2)
        assert ensemble_module._SCRATCH
