"""Assembly of one simulated machine node.

A :class:`SimNode` wires together sockets/cores, the power model, the RC
thermal network, and a virtual hwmon chip.  It is the single point through
which the scheduler changes core activity and through which ``tempd`` (or
anything else) reads sensors — both paths advance the thermal network to the
current simulated time first, so thermal state is always consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.simmachine.core_ import SimCore, TscSpec
from repro.simmachine.hwmon import HwmonChip, SensorSpec, amd_x86_profile
from repro.simmachine.power import (
    DEFAULT_OPPS,
    OperatingPoint,
    PowerModel,
    PowerParams,
)
from repro.simmachine.thermal import ThermalNetwork, ThermalParams
from repro.util.errors import ConfigError


@dataclass
class NodeConfig:
    """Configuration for one machine node.

    ``sensor_profile`` is a factory returning the chip's sensor list so each
    node gets independent sensor objects.  Variation fields perturb this
    node relative to the fleet default (see DESIGN.md: this is what makes
    "the same workload run hotter on node 3").
    """

    name: str = "node0"
    n_sockets: int = 2
    cores_per_socket: int = 2
    thermal: ThermalParams = field(default_factory=ThermalParams)
    power: PowerParams = field(default_factory=PowerParams)
    opps: tuple[OperatingPoint, ...] = DEFAULT_OPPS
    sensor_profile: Callable[[], list[SensorSpec]] = amd_x86_profile
    ambient_c: float = 22.0
    fan_rpm: float = 3000.0
    # Per-node variation (multipliers / offsets applied to the params above)
    speed_grade: float = 1.0
    paste_quality: float = 1.0
    airflow_quality: float = 1.0
    inlet_offset_c: float = 0.0
    # Per-core TSC imperfection specs; padded with ideal specs if short.
    tsc_specs: tuple[TscSpec, ...] = ()

    @property
    def n_cores(self) -> int:
        """Total core count on this node."""
        return self.n_sockets * self.cores_per_socket


class SimNode:
    """One machine in the simulated cluster."""

    def __init__(self, config: NodeConfig, rng: Optional[np.random.Generator] = None):
        if config.n_sockets < 1 or config.cores_per_socket < 1:
            raise ConfigError(f"bad node shape in {config.name}")
        self.config = config
        self.name = config.name
        tparams = config.thermal.with_variation(
            paste_quality=config.paste_quality,
            airflow_quality=config.airflow_quality,
            inlet_offset_c=config.inlet_offset_c,
        )
        pparams = config.power.with_variation(speed_grade=config.speed_grade)
        self.power_model = PowerModel(pparams)
        self.thermal = ThermalNetwork(
            tparams,
            n_sockets=config.n_sockets,
            ambient_c=config.ambient_c,
            fan_rpm=config.fan_rpm,
        )
        self.cores: list[SimCore] = []
        cid = 0
        for s in range(config.n_sockets):
            for c in range(config.cores_per_socket):
                spec = (
                    config.tsc_specs[cid]
                    if cid < len(config.tsc_specs)
                    else TscSpec()
                )
                self.cores.append(
                    SimCore(config.name, s, c, cid, config.opps, spec)
                )
                cid += 1
        # Socket power bookkeeping: each core's dynamic power is kept per
        # core id and memoized by (activity, OPP index), so an activity
        # change costs a dict lookup and a short sum, not a model rebuild.
        cps = config.cores_per_socket
        self._socket_slices = [slice(s * cps, (s + 1) * cps)
                               for s in range(config.n_sockets)]
        self._p_static = pparams.p_uncore + pparams.leak0
        self._dyn_memo: dict[tuple[float, int], float] = {}
        self._core_dyn = [self._dynamic_power(c.activity, c.opp_index)
                          for c in self.cores]
        self.chip = HwmonChip(
            chip_name=f"{config.name}-smc",
            sensors=config.sensor_profile(),
            provider=self._provide_temperature,
            rng=rng,
        )
        self._sync_all_sockets(0.0)
        # A node that has been powered on sits at its *idle* steady state,
        # not at ambient — start there so experiments begin from the same
        # "returned to steady state" condition the paper enforces (§4.1).
        self.thermal.state = self.thermal.steady_state_for(
            self.thermal.socket_powers
        )

    # ------------------------------------------------------------------
    # Power / activity plumbing

    def _dynamic_power(self, activity: float, opp_index: int) -> float:
        """One core's dynamic power, memoized; a miss goes through
        :meth:`PowerModel.core_dynamic_power` and its range check."""
        key = (activity, opp_index)
        try:
            return self._dyn_memo[key]
        except KeyError:
            watts = self.power_model.core_dynamic_power(
                activity, self.config.opps[opp_index])
            self._dyn_memo[key] = watts
            return watts

    def _socket_power(self, socket: int) -> float:
        # The same float operations, in the same order, as
        # PowerModel.socket_power: uncore + leak0 + sum() over the socket's
        # cores by id.  The builtin sum() stays — from Python 3.12 it
        # compensates float rounding, so a += loop would change bits.
        return self._p_static + sum(self._core_dyn[self._socket_slices[socket]])

    def _sync_all_sockets(self, t: float) -> None:
        for s in range(self.config.n_sockets):
            self.thermal.set_socket_power(s, self._socket_power(s), t)

    def set_core_activity(self, core_id: int, activity: float, t: float) -> None:
        """Set a core's activity factor at time *t*, updating socket power."""
        core = self.core(core_id)
        self._core_dyn[core_id] = self._dynamic_power(activity, core.opp_index)
        core.activity = activity
        self.thermal.set_socket_power(core.socket, self._socket_power(core.socket), t)

    def set_core_opp(self, core_id: int, opp_index: int, t: float) -> None:
        """Change a core's DVFS point at time *t* (power updates immediately;
        in-flight compute keeps its original completion time)."""
        core = self.core(core_id)
        core.set_opp(opp_index)
        self._core_dyn[core_id] = self._dynamic_power(core.activity, opp_index)
        self.thermal.set_socket_power(core.socket, self._socket_power(core.socket), t)

    def set_fan_rpm(self, rpm: float, t: float) -> None:
        """Change the chassis fan speed at time *t*."""
        self.thermal.set_fan_rpm(rpm, t)

    def core(self, core_id: int) -> SimCore:
        """Look up a core by node-local id."""
        if not 0 <= core_id < len(self.cores):
            raise ConfigError(
                f"{self.name}: core {core_id} out of range (have {len(self.cores)})"
            )
        return self.cores[core_id]

    # ------------------------------------------------------------------
    # Sensor plumbing

    def _provide_temperature(self, label: str, t: float) -> float:
        self.thermal.advance_to(t)
        return self.thermal.temperature(label)

    def read_sensors(self, t: float) -> dict[str, float]:
        """Read all hwmon sensors at time *t* (quantized degC)."""
        return self.chip.read_all(t)

    def die_temperature(self, socket: int, t: float) -> float:
        """Ground-truth die temperature (degC) at time *t*."""
        self.thermal.advance_to(t)
        return self.thermal.die_temperature(socket)
