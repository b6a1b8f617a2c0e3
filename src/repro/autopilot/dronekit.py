"""DroneKit-like high-level vehicle API.

The paper uses DroneKit to "connect to the drone, issue flight commands,
and monitor the drone" from companion computers and ground stations.  This
module mirrors that API surface over our autopilot: ``connect`` returns a
:class:`Vehicle` with ``armed``, ``mode``, ``location``, ``battery``,
``simple_takeoff``, ``simple_goto``, and mission upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import ACK_ACCEPTED, Command, MessageType
from repro.sim.simulator import DroneModel, FlightSimulator


@dataclass(frozen=True)
class LocationLocal:
    """Local-frame location (the LocationLocal analogue)."""

    north: float
    east: float
    down: float

    @property
    def altitude(self) -> float:
        return -self.down


@dataclass(frozen=True)
class BatteryInfo:
    voltage: float
    level: float  # fraction of charge remaining


class Vehicle:
    """High-level handle on a (simulated) drone."""

    def __init__(self, autopilot: Autopilot):
        self._autopilot = autopilot

    # -- attributes --------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._autopilot.armed

    @armed.setter
    def armed(self, value: bool) -> None:
        if value and not self._autopilot.armed:
            self._autopilot.arm()
        elif not value and self._autopilot.armed:
            self._autopilot.disarm()

    @property
    def mode(self) -> str:
        return self._autopilot.mode.value.upper()

    @mode.setter
    def mode(self, name: str) -> None:
        self._autopilot.set_mode(FlightMode(name.lower()))

    @property
    def location(self) -> LocationLocal:
        position = self._autopilot.sim.body.state.position_m
        return LocationLocal(
            north=float(position[1]), east=float(position[0]),
            down=-float(position[2]),
        )

    @property
    def battery(self) -> BatteryInfo:
        battery = self._autopilot.sim.battery
        return BatteryInfo(
            voltage=battery.terminal_voltage_v(0.0),
            level=battery.state_of_charge,
        )

    @property
    def groundspeed(self) -> float:
        velocity = self._autopilot.sim.body.state.velocity_m_s
        return float(np.linalg.norm(velocity[0:2]))

    # -- commands ----------------------------------------------------------------

    def simple_takeoff(self, altitude_m: float, wait_s: float = 8.0) -> None:
        """Arm-checked takeoff; blocks (simulated time) until near altitude."""
        self._autopilot.takeoff(altitude_m)
        self.wait(wait_s)

    def simple_goto(self, east: float, north: float, altitude: float,
                    wait_s: float = 0.0) -> None:
        """Fly to a local-frame target in GUIDED mode."""
        self._autopilot.goto(np.array([east, north, altitude]))
        if wait_s > 0:
            self.wait(wait_s)

    def upload_mission(self, waypoints: Sequence[Sequence[float]],
                       hold_s: float = 0.0) -> None:
        items = [
            MissionItem(position_m=np.asarray(w, dtype=float), hold_s=hold_s)
            for w in waypoints
        ]
        self._autopilot.upload_mission(items)

    def start_mission(self) -> None:
        self._autopilot.set_mode(FlightMode.AUTO)

    def wait(self, duration_s: float, step_s: float = 0.1) -> None:
        """Advance simulated time while the autopilot keeps running."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        elapsed = 0.0
        while elapsed < duration_s:
            step = min(step_s, duration_s - elapsed)
            self._autopilot.update(step)
            elapsed += step

    def events(self) -> List[tuple]:
        """The autopilot's event log (arming, mode changes, failsafes)."""
        return list(self._autopilot.events)

    def commander(self, **kwargs) -> "ReliableCommander":
        """A reliable (ACK + retry) command channel to this vehicle."""
        return ReliableCommander(self._autopilot, **kwargs)

    def close(self) -> None:
        """Release the vehicle (parity with DroneKit's API)."""
        # The simulated vehicle holds no external resources.


@dataclass(frozen=True)
class CommandOutcome:
    """Result of one reliable command exchange."""

    command: Command
    acked: bool
    accepted: bool
    attempts: int
    elapsed_s: float


class ReliableCommander:
    """ACK-confirmed COMMAND_LONG delivery with capped exponential backoff.

    The bare link is fire-and-forget: over a lossy channel a command (or its
    ACK) silently vanishes.  This layer sends, waits (in simulated time) for
    the matching ACK on the downlink, and re-sends on timeout, doubling the
    wait up to ``max_backoff_s`` — the MAVLink ground-station retry idiom.
    """

    def __init__(
        self,
        autopilot: Autopilot,
        timeout_s: float = 0.5,
        max_retries: int = 4,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 4.0,
        poll_step_s: float = 0.1,
    ):
        if timeout_s <= 0 or max_backoff_s <= 0 or poll_step_s <= 0:
            raise ValueError("timeouts and poll step must be positive")
        if max_retries < 0:
            raise ValueError(f"retries cannot be negative: {max_retries}")
        if backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        self._autopilot = autopilot
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        self.poll_step_s = poll_step_s

    def send_command(
        self, command: Command, params: Tuple[float, ...] = ()
    ) -> CommandOutcome:
        """Send one command; retry until ACKed or retries are exhausted."""
        autopilot = self._autopilot
        start_s = autopilot.sim.time_s
        timeout = self.timeout_s
        attempts = 0
        sequences: set = set()
        for _ in range(self.max_retries + 1):
            sequences.add(autopilot.link.next_sequence)
            autopilot.link.send(
                MessageType.COMMAND_LONG,
                (float(command),) + tuple(float(p) for p in params),
            )
            attempts += 1
            deadline = autopilot.sim.time_s + timeout
            while autopilot.sim.time_s < deadline:
                autopilot.update(self.poll_step_s)
                ack = self._scan_for_ack(command, sequences)
                if ack is not None:
                    return CommandOutcome(
                        command=command,
                        acked=True,
                        accepted=ack,
                        attempts=attempts,
                        elapsed_s=autopilot.sim.time_s - start_s,
                    )
            timeout = min(timeout * self.backoff_factor, self.max_backoff_s)
        return CommandOutcome(
            command=command,
            acked=False,
            accepted=False,
            attempts=attempts,
            elapsed_s=autopilot.sim.time_s - start_s,
        )

    def _scan_for_ack(self, command: Command, sequences: set) -> "bool | None":
        """Drain the downlink; True/False for a matching ACK's result.

        Any attempt of this exchange may be the one that got through, so
        every sequence sent so far matches; ACKs for other commands (or
        other exchanges) are ignored.
        """
        for message in self._autopilot.downlink.drain():
            if message.message_type is not MessageType.ACK:
                continue
            if len(message.payload) < 3:
                continue
            if int(message.payload[0]) != int(command):
                continue
            if int(message.payload[2]) not in sequences:
                continue
            return message.payload[1] == ACK_ACCEPTED
        return None


def connect(
    model: Optional[DroneModel] = None, physics_rate_hz: float = 400.0
) -> Vehicle:
    """Create a simulated vehicle — the ``dronekit.connect`` analogue.

    >>> vehicle = connect()
    >>> vehicle.armed
    False
    """
    if model is None:
        model = DroneModel(
            mass_kg=1.071,
            wheelbase_mm=450.0,
            battery_cells=3,
            battery_capacity_mah=3000.0,
        )
    sim = FlightSimulator(model, physics_rate_hz=physics_rate_hz)
    return Vehicle(Autopilot(sim))
