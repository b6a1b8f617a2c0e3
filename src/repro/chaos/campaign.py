"""Campaign generator: reproducible compound fault schedules from seeds.

PR 1's ten scenarios were hand-written corners of the reliability envelope.
A chaos campaign explores the *interior*: for each trial it samples a
compound :class:`~repro.faults.schedule.FaultSchedule` — how many faults,
which kinds, when they start, how long they last, how severe they are, with
windows free to overlap — from an RNG derived **only** from
``(campaign_seed, trial_index)``.  That derivation is the reproducibility
contract: any trial of any campaign can be regenerated in isolation, which
is what makes black-box replay and failure triage possible at
hundreds-of-trials scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.chaos.invariants import SafetyLimits
from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE, CrashEnvelope
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.sim.simulator import check_physics_rate

#: Fault kinds the chaos sampler draws from: every closed-loop kind the
#: injector can land in the simulator stack.  Perception kinds act on SLAM
#: dataset replays, not the closed-loop autopilot, so they are excluded.
CHAOS_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.GPS_LOSS,
    FaultKind.IMU_BIAS,
    FaultKind.BARO_FREEZE,
    FaultKind.BATTERY_SAG,
    FaultKind.BATTERY_DRAIN,
    FaultKind.MOTOR_DEGRADATION,
    FaultKind.ESC_THERMAL,
    FaultKind.LINK_BLACKOUT,
    FaultKind.LINK_BURST,
    FaultKind.OFFLOAD_STALL,
)

#: Kinds that only bite when the EKF is in the loop.
EKF_KINDS = (FaultKind.GPS_LOSS, FaultKind.IMU_BIAS, FaultKind.BARO_FREEZE)
#: Kinds that need GCS heartbeats flowing to be observable.
LINK_KINDS = (FaultKind.LINK_BLACKOUT, FaultKind.LINK_BURST)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, and nothing else.

    Two runs with equal configs produce bit-for-bit identical campaigns —
    the config is the campaign's identity, so it is frozen and fully
    serializable into the campaign artifact.
    """

    campaign_seed: int = 2021
    trials: int = 50
    #: Per-trial flight duration (includes the takeoff settle).
    duration_s: float = 30.0
    physics_rate_hz: float = 200.0
    control_step_s: float = 0.1
    takeoff_altitude_m: float = 4.0
    settle_s: float = 5.0
    #: Mission square half-extent around home.
    mission_half_extent_m: float = 6.0
    #: Compound-fault mix: each trial draws 1..max_faults events.
    max_faults: int = 3
    #: Earliest fault onset (let the vehicle get airborne first).
    min_onset_s: float = 4.0
    #: Probability an event window is open-ended (runs to the end).
    open_window_probability: float = 0.15
    #: Black-box ring-buffer depth (control ticks).
    recorder_maxlen: int = 400
    limits: SafetyLimits = SafetyLimits()
    envelope: CrashEnvelope = DEFAULT_CRASH_ENVELOPE

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"campaign needs at least one trial: {self.trials}")
        if self.max_faults <= 0:
            raise ValueError(f"max_faults must be positive: {self.max_faults}")
        if self.duration_s <= self.settle_s:
            raise ValueError(
                f"duration {self.duration_s} s must exceed the "
                f"settle window {self.settle_s} s"
            )
        check_physics_rate(self.physics_rate_hz)
        if not self.control_step_s > 0:
            raise ValueError(f"control step must be positive: {self.control_step_s}")
        if not self.takeoff_altitude_m > 0:
            raise ValueError(
                f"takeoff altitude must be positive: {self.takeoff_altitude_m}"
            )
        if self.recorder_maxlen <= 0:
            raise ValueError(
                f"recorder depth must be positive: {self.recorder_maxlen}"
            )
        if not self.min_onset_s >= 0:
            raise ValueError(f"fault onset cannot be negative: {self.min_onset_s}")
        if self.min_onset_s >= self.duration_s:
            raise ValueError("faults must be able to start before the trial ends")
        if not 0.0 <= self.open_window_probability <= 1.0:
            raise ValueError(
                f"probability out of range: {self.open_window_probability}"
            )


@dataclass(frozen=True)
class TrialSpec:
    """One fully-determined trial: identity, schedule, and harness flags.

    The spec is what the black-box trace stores and what the replay harness
    consumes — regenerating it from ``(campaign_seed, trial_index)`` or
    deserializing it from a trace must yield the same flight.
    """

    campaign_seed: int
    trial_index: int
    link_seed: int
    schedule: FaultSchedule
    use_ekf: bool
    heartbeats: bool
    offload: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign_seed": self.campaign_seed,
            "trial_index": self.trial_index,
            "link_seed": self.link_seed,
            "schedule": self.schedule.to_jsonable(),
            "use_ekf": self.use_ekf,
            "heartbeats": self.heartbeats,
            "offload": self.offload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrialSpec":
        return cls(
            campaign_seed=int(data["campaign_seed"]),
            trial_index=int(data["trial_index"]),
            link_seed=int(data["link_seed"]),
            schedule=FaultSchedule.from_jsonable(data["schedule"]),
            use_ekf=bool(data["use_ekf"]),
            heartbeats=bool(data["heartbeats"]),
            offload=bool(data["offload"]),
        )


def trial_rng(campaign_seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial generator: seeded by identity, nothing else."""
    return np.random.default_rng((campaign_seed, trial_index))


def _sample_gps_loss(rng: np.random.Generator) -> Dict[str, float]:
    return {}


def _sample_imu_bias(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "accel_bias_m_s2": float(rng.uniform(0.2, 1.2)),
        "gyro_bias_rad_s": float(rng.uniform(0.005, 0.05)),
    }


def _sample_baro_freeze(rng: np.random.Generator) -> Dict[str, float]:
    return {}


def _sample_battery_sag(rng: np.random.Generator) -> Dict[str, float]:
    return {"resistance_ohm": float(rng.uniform(0.02, 0.10))}


def _sample_battery_drain(rng: np.random.Generator) -> Dict[str, float]:
    return {"fraction": float(rng.uniform(0.30, 0.85))}


def _sample_motor_degradation(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "motor_index": float(rng.integers(0, 4)),
        "health": float(rng.uniform(0.35, 0.90)),
    }


def _sample_esc_thermal(rng: np.random.Generator) -> Dict[str, float]:
    return {"temperature_c": float(rng.uniform(95.0, 125.0))}


def _sample_link_blackout(rng: np.random.Generator) -> Dict[str, float]:
    return {}


def _sample_link_burst(rng: np.random.Generator) -> Dict[str, float]:
    return {
        "p_good_to_bad": float(rng.uniform(0.02, 0.20)),
        "p_bad_to_good": float(rng.uniform(0.10, 0.40)),
        "loss_bad": float(rng.uniform(0.80, 1.00)),
    }


def _sample_offload_stall(rng: np.random.Generator) -> Dict[str, float]:
    return {}


#: Severity sampler per kind — the "how bad" axis of the campaign space.
SEVERITY_SAMPLERS: Dict[
    FaultKind, Callable[[np.random.Generator], Dict[str, float]]
] = {
    FaultKind.GPS_LOSS: _sample_gps_loss,
    FaultKind.IMU_BIAS: _sample_imu_bias,
    FaultKind.BARO_FREEZE: _sample_baro_freeze,
    FaultKind.BATTERY_SAG: _sample_battery_sag,
    FaultKind.BATTERY_DRAIN: _sample_battery_drain,
    FaultKind.MOTOR_DEGRADATION: _sample_motor_degradation,
    FaultKind.ESC_THERMAL: _sample_esc_thermal,
    FaultKind.LINK_BLACKOUT: _sample_link_blackout,
    FaultKind.LINK_BURST: _sample_link_burst,
    FaultKind.OFFLOAD_STALL: _sample_offload_stall,
}


def sample_schedule(
    config: CampaignConfig, rng: np.random.Generator
) -> FaultSchedule:
    """Draw one compound fault schedule (windows may overlap freely)."""
    count = int(rng.integers(1, config.max_faults + 1))
    schedule = FaultSchedule()
    latest_onset_s = config.min_onset_s + 0.75 * (
        config.duration_s - config.min_onset_s
    )
    for _ in range(count):
        kind = CHAOS_KINDS[int(rng.integers(0, len(CHAOS_KINDS)))]
        onset_s = float(rng.uniform(config.min_onset_s, latest_onset_s))
        params = SEVERITY_SAMPLERS[kind](rng)
        if float(rng.uniform(0.0, 1.0)) < config.open_window_probability:
            schedule.add(kind, start_s=onset_s, **params)
        else:
            window_s = float(rng.uniform(2.0, max(2.5, 0.5 * config.duration_s)))
            schedule.add(
                kind, start_s=onset_s, end_s=onset_s + window_s, **params
            )
    return schedule


def generate_trial(config: CampaignConfig, trial_index: int) -> TrialSpec:
    """Regenerate trial ``trial_index`` of the campaign, in isolation."""
    if not 0 <= trial_index < config.trials:
        raise ValueError(
            f"trial index {trial_index} outside campaign of {config.trials}"
        )
    rng = trial_rng(config.campaign_seed, trial_index)
    schedule = sample_schedule(config, rng)
    link_seed = int(rng.integers(0, 2**31 - 1))
    kinds = {event.kind for event in schedule.events}
    return TrialSpec(
        campaign_seed=config.campaign_seed,
        trial_index=trial_index,
        link_seed=link_seed,
        schedule=schedule,
        use_ekf=any(kind in kinds for kind in EKF_KINDS),
        heartbeats=any(kind in kinds for kind in LINK_KINDS),
        offload=FaultKind.OFFLOAD_STALL in kinds,
    )


def generate_campaign(config: CampaignConfig) -> List[TrialSpec]:
    """Every trial spec of the campaign, in trial order."""
    return [generate_trial(config, index) for index in range(config.trials)]
