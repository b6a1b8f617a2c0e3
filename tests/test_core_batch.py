"""Equivalence and regression tests for the vectorized design-space engine.

The batched engine (`repro.core.batch`) must be *bit-for-bit* equal to the
scalar oracle (`DroneDesign.evaluate`) — same values on feasible points,
same infeasibility messages on the rest.  These tests pin that contract
property-style over randomized designs and through the sweep API, plus the
two behavioural fixes that rode along: the frontier bucket boundary and the
``best_configuration`` tie-break.
"""

import random

import numpy as np
import pytest

from repro.core.batch import (
    BatchDesignGrid,
    capacity_cells_grid,
    evaluate_batch,
    evaluate_grid,
)
from repro.core.design import DesignEvaluation, DroneDesign
from repro.core.equations import InfeasibleDesignError, WeightBreakdown
from repro.core.explorer import (
    SweepPoint,
    _lowest_power_frontier,
    computation_footprint,
    sweep_all_wheelbases,
    sweep_wheelbase,
)
from tests.oracles import sweep as oracle


def _random_designs(count: int, seed: int):
    """Randomized design parameters spanning feasible and infeasible space."""
    rng = random.Random(seed)
    designs = []
    for _ in range(count):
        designs.append(
            dict(
                wheelbase_mm=rng.choice(
                    [rng.uniform(40.0, 1100.0), 100.0, 450.0, 800.0]
                ),
                battery_cells=rng.randint(1, 6),
                battery_capacity_mah=rng.uniform(100.0, 12000.0),
                compute_power_w=rng.uniform(0.5, 40.0),
                compute_weight_g=rng.uniform(5.0, 120.0),
                sensors_power_w=rng.uniform(0.5, 8.0),
                sensors_weight_g=rng.uniform(5.0, 60.0),
                payload_g=rng.choice([0.0, rng.uniform(0.0, 400.0)]),
                twr=rng.uniform(1.5, 3.5),
            )
        )
    return designs


def _batch_of(designs):
    keys = [k for k in designs[0] if k != "battery_cells"]
    return evaluate_batch(
        np.array([d["wheelbase_mm"] for d in designs]),
        np.array([d["battery_cells"] for d in designs], dtype=np.int64),
        np.array([d["battery_capacity_mah"] for d in designs]),
        **{
            k: np.array([d[k] for d in designs])
            for k in keys
            if k not in ("wheelbase_mm", "battery_capacity_mah")
        },
    )


class TestScalarBatchEquivalence:
    """Property-style: random designs agree bit-for-bit with the oracle."""

    def test_values_and_infeasible_sets_match(self):
        designs = _random_designs(400, seed=20210419)
        batch = _batch_of(designs)
        scalar_infeasible = set()
        batch_infeasible = set()
        for index, params in enumerate(designs):
            design = DroneDesign(**params)
            try:
                evaluation = design.evaluate()
            except InfeasibleDesignError as error:
                scalar_infeasible.add(index)
                assert batch.failure_message(index) == str(error)
            else:
                point = batch.evaluation(index)
                assert point is not None, f"lane {index} feasible only in scalar"
                assert point.as_dict() == evaluation.as_dict()
            if not bool(batch.feasible[index]):
                batch_infeasible.add(index)
        assert scalar_infeasible == batch_infeasible
        assert batch.feasible_count == len(designs) - len(scalar_infeasible)

    def test_repeat_call_hits_caches_and_matches(self):
        designs = _random_designs(60, seed=7)
        first = _batch_of(designs)
        second = _batch_of(designs)
        for index in range(len(designs)):
            a, b = first.evaluation(index), second.evaluation(index)
            if a is None:
                assert b is None
                assert first.failure_message(index) == second.failure_message(index)
            else:
                assert a.as_dict() == b.as_dict()

    def test_single_lane_matches_scalar(self):
        batch = evaluate_batch(450.0, 3, 3000.0)
        scalar = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=3000.0
        ).evaluate()
        assert batch.evaluation(0).as_dict() == scalar.as_dict()


class TestSweepEngineEquality:
    """The batch-backed sweep API returns exactly what the scalar loop did."""

    @pytest.mark.parametrize("wheelbase_mm", [100.0, 450.0, 800.0])
    def test_sweep_wheelbase_engines_agree(self, wheelbase_mm):
        batched = sweep_wheelbase(wheelbase_mm)
        scalar = oracle.sweep_wheelbase(wheelbase_mm)
        assert len(batched.points) == len(scalar.points)
        for b, s in zip(batched.points, scalar.points):
            assert (b.wheelbase_mm, b.cells, b.capacity_mah) == (
                s.wheelbase_mm,
                s.cells,
                s.capacity_mah,
            )
            assert b.evaluation.as_dict() == s.evaluation.as_dict()
        assert batched.infeasible == scalar.infeasible

    def test_sweep_all_wheelbases_passes_engine_through(self):
        """Keyword options reach each wheelbase's sweep (here a payload),
        and the result equals the one-design-at-a-time oracle."""
        batched = sweep_all_wheelbases(wheelbases_mm=(450.0,), payload_g=50.0)
        scalar = {450.0: oracle.sweep_wheelbase(450.0, payload_g=50.0)}
        assert batched.keys() == scalar.keys()
        b, s = batched[450.0], scalar[450.0]
        assert [p.evaluation.as_dict() for p in b.points] == [
            p.evaluation.as_dict() for p in s.points
        ]

    def test_computation_footprint_identical_across_engines(self):
        batched = computation_footprint(sweep_wheelbase(450.0))
        scalar = computation_footprint(oracle.sweep_wheelbase(450.0))
        assert batched.keys() == scalar.keys()
        for chip_power in batched:
            assert batched[chip_power] == scalar[chip_power]

    def test_empty_grid_returns_empty_result(self):
        result = sweep_wheelbase(450.0, cell_counts=[])
        assert result.points == []
        assert result.infeasible == []


class TestBatchGridValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BatchDesignGrid.from_arrays(
                np.array([]), np.array([], dtype=np.int64), np.array([])
            )

    def test_unsupported_cell_count_rejected(self):
        with pytest.raises(ValueError, match="cell count"):
            evaluate_batch(450.0, 9, 3000.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            evaluate_batch(450.0, 3, -10.0)

    def test_capacity_cells_grid_is_cells_major(self):
        grid = capacity_cells_grid((1, 3), (1000.0, 2000.0, 3000.0))
        assert grid["battery_cells"].tolist() == [1, 1, 1, 3, 3, 3]
        assert grid["battery_capacity_mah"].tolist() == [
            1000.0,
            2000.0,
            3000.0,
            1000.0,
            2000.0,
            3000.0,
        ]

    def test_evaluate_grid_masks_infeasible_lanes_nan(self):
        # 1S at 8000 mAh on a 100 mm frame needs an impossible motor.
        batch = evaluate_batch(
            np.array([100.0, 450.0]),
            np.array([1, 3], dtype=np.int64),
            np.array([8000.0, 3000.0]),
        )
        infeasible = ~batch.feasible
        assert np.all(np.isnan(batch.flight_time_min[infeasible]))
        assert np.all(np.isfinite(batch.flight_time_min[batch.feasible]))


def _point(weight_g: float, hover_power_w: float) -> SweepPoint:
    """A minimal SweepPoint carrying exactly the fields the frontier reads."""
    weight = WeightBreakdown(
        frame_g=weight_g,
        battery_g=0.0,
        motors_g=0.0,
        escs_g=0.0,
        propellers_g=0.0,
        compute_g=0.0,
        sensors_g=0.0,
        payload_g=0.0,
        wires_g=0.0,
    )
    evaluation = DesignEvaluation(
        weight=weight,
        propeller_inch=10.0,
        battery_voltage_v=11.1,
        motor_max_current_a=10.0,
        motor_kv=1000.0,
        required_battery_c_rating=20.0,
        hover_power_w=hover_power_w,
        maneuver_power_w=hover_power_w * 1.5,
        compute_power_w=3.0,
        sensors_power_w=2.0,
        usable_energy_wh=20.0,
        flight_time_min=20.0 * 60.0 / hover_power_w,
        maneuver_flight_time_min=10.0,
        compute_share_hover=0.05,
        compute_share_maneuver=0.03,
        gained_flight_time_min=1.0,
    )
    return SweepPoint(
        wheelbase_mm=450.0, cells=3, capacity_mah=3000.0, evaluation=evaluation
    )


class TestLowestPowerFrontierBuckets:
    def test_boundary_weight_jitter_lands_in_one_bucket(self):
        # 300 g plus/minus sub-nano-gram float noise must be ONE bucket:
        # without rounding first, 299.99999999997 // 100 floors to bucket 2
        # while 300.00000000003 // 100 lands in bucket 3.
        just_below = _point(300.0 - 3e-11, hover_power_w=120.0)
        just_above = _point(300.0 + 3e-11, hover_power_w=100.0)
        frontier = _lowest_power_frontier([just_below, just_above])
        assert len(frontier) == 1
        assert frontier[0].hover_power_w == 100.0

    def test_distinct_buckets_kept_separate(self):
        light = _point(150.0, hover_power_w=80.0)
        heavy = _point(450.0, hover_power_w=90.0)
        frontier = _lowest_power_frontier([heavy, light])
        assert [p.weight_g for p in frontier] == [150.0, 450.0]

    def test_lowest_power_wins_within_bucket(self):
        a = _point(210.0, hover_power_w=140.0)
        b = _point(260.0, hover_power_w=110.0)
        frontier = _lowest_power_frontier([a, b])
        assert len(frontier) == 1
        assert frontier[0].hover_power_w == 110.0


class TestBestConfigurationTieBreak:
    def _result_with(self, points):
        from repro.core.explorer import SweepResult

        result = SweepResult(wheelbase_mm=450.0)
        result.points = list(points)
        return result

    def test_longest_flight_time_wins(self):
        short = _point(400.0, hover_power_w=200.0)  # 6 min
        long = _point(500.0, hover_power_w=100.0)  # 12 min
        assert self._result_with([short, long]).best_configuration() is long

    def test_equal_flight_time_prefers_lighter(self):
        heavy = _point(600.0, hover_power_w=100.0)
        light = _point(500.0, hover_power_w=100.0)
        for order in ([heavy, light], [light, heavy]):
            assert self._result_with(order).best_configuration() is light

    def test_equal_weight_prefers_smaller_battery(self):
        big = _point(500.0, hover_power_w=100.0)
        small = _point(500.0, hover_power_w=100.0)
        object.__setattr__(big, "capacity_mah", 5000.0)
        object.__setattr__(small, "capacity_mah", 3000.0)
        for order in ([big, small], [small, big]):
            assert self._result_with(order).best_configuration() is small

    def test_short_flight_time_excluded(self):
        # 20 Wh at 400 W hovers for only 3 minutes: under the 5 min floor.
        too_short = _point(300.0, hover_power_w=400.0)
        assert self._result_with([too_short]).best_configuration() is None
