"""Lumped RC thermal network for one simulated machine node.

Each machine node is modelled with the standard compact thermal topology
that heavyweight tools (HotSpot, Mercury) reduce to at the system level:

*  one **die** node per socket (small capacitance, seconds-scale response),
*  one **sink** node per socket (heat spreader + heat sink, tens of seconds),
*  one **case** node (internal chassis air, minutes-scale),
*  **ambient** (the machine-room inlet air) as a boundary input.

Heat flows die -> sink -> case -> ambient; the sink->case and case->ambient
conductances grow with fan speed (forced convection).  Temperature-dependent
leakage power is linear in die temperature and is folded into the state
matrix, so the advance between events stays exact (see
:class:`repro.simmachine.lti.LTISystem`).

Per-node manufacturing and placement variation (thermal-paste quality,
rack-position inlet temperature) enters through
:class:`ThermalParams` multipliers — this is what reproduces the paper's
observation that identical workloads produce visibly different thermals on
different nodes of the same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.simmachine.lti import LTISystem
from repro.util.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class ThermalParams:
    """Physical parameters of a node's RC thermal network (SI units).

    The defaults are calibrated to an Opteron-era 1U dual-socket server:
    die time constant of a few seconds (so a CPU-burn loop visibly ramps the
    core sensor within Figure 2's 60-second window), sink time constant of
    tens of seconds (the slow drift visible in Figure 3), and a chassis-air
    constant of minutes.
    """

    c_die: float = 14.0         # J/K, die + integrated spreader
    c_sink: float = 180.0       # J/K, heat sink mass
    c_case: float = 900.0       # J/K, chassis air + structure

    g_die_sink: float = 8.0     # W/K, junction-to-sink (paste dependent)
    g_sink_case_ref: float = 6.0   # W/K at reference fan speed
    g_case_amb_ref: float = 25.0   # W/K at reference fan speed
    fan_ref_rpm: float = 3000.0    # fan speed at which the _ref values hold
    fan_exponent: float = 0.8      # convection ~ rpm^exponent

    leak_dT: float = 0.15       # W/K extra leakage per kelvin of die temp
    # (the constant part of leakage lives in the power model)

    # Per-node variation multipliers — set by the cluster builder.
    paste_quality: float = 1.0      # scales g_die_sink (worse paste < 1.0)
    airflow_quality: float = 1.0    # scales fan-driven conductances
    inlet_offset_c: float = 0.0     # rack-position inlet temperature offset

    def with_variation(
        self,
        *,
        paste_quality: Optional[float] = None,
        airflow_quality: Optional[float] = None,
        inlet_offset_c: Optional[float] = None,
    ) -> "ThermalParams":
        """Return a copy with per-node variation applied."""
        kwargs = {}
        if paste_quality is not None:
            kwargs["paste_quality"] = paste_quality
        if airflow_quality is not None:
            kwargs["airflow_quality"] = airflow_quality
        if inlet_offset_c is not None:
            kwargs["inlet_offset_c"] = inlet_offset_c
        return replace(self, **kwargs)

    def fan_factor(self, rpm: float) -> float:
        """Convection multiplier for a given fan speed."""
        if rpm <= 0:
            raise ConfigError(f"fan rpm must be positive, got {rpm}")
        return (rpm / self.fan_ref_rpm) ** self.fan_exponent


class ThermalNetwork:
    """Time-aware RC thermal state for one machine node.

    The network advances lazily: callers invoke :meth:`advance_to` with the
    current simulated time *before* changing any power input, so every
    segment integrates under constant input with the exact LTI solution.

    State layout: ``[die_0 .. die_{S-1}, sink_0 .. sink_{S-1}, case]``.
    Input layout: ``[P_0 .. P_{S-1}, T_ambient]``, held in one vector that
    power and ambient changes write in place.
    """

    def __init__(
        self,
        params: ThermalParams,
        n_sockets: int,
        ambient_c: float = 22.0,
        initial_c: Optional[float] = None,
        fan_rpm: float = 3000.0,
    ):
        if n_sockets < 1:
            raise ConfigError(f"need at least one socket, got {n_sockets}")
        self.params = params
        self.n_sockets = n_sockets
        self._u = np.zeros(n_sockets + 1)
        self._powers = self._u[:n_sockets]   # a view: writes land in _u
        self.ambient_c = float(ambient_c) + params.inlet_offset_c
        self.fan_rpm = float(fan_rpm)
        self.labels = (
            [f"die{i}" for i in range(n_sockets)]
            + [f"sink{i}" for i in range(n_sockets)]
            + ["case"]
        )
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        self._sys_cache: dict[float, LTISystem] = {}
        self._system = self._build_system(self.fan_rpm)
        self.last_time = 0.0
        if initial_c is None:
            # Start at the idle steady state for zero socket power, which is
            # ambient everywhere (leakage fold makes it slightly above).
            self.state = self._system.steady_state(self._u)
        else:
            self.state = np.full(len(self.labels), float(initial_c))

    # ------------------------------------------------------------------
    # System construction

    def _build_system(self, rpm: float) -> LTISystem:
        if rpm in self._sys_cache:
            return self._sys_cache[rpm]
        p = self.params
        S = self.n_sockets
        n = 2 * S + 1
        case = 2 * S
        fan = p.fan_factor(rpm) * p.airflow_quality
        g_ds = p.g_die_sink * p.paste_quality
        g_sc = p.g_sink_case_ref * fan
        g_ca = p.g_case_amb_ref * fan

        G = np.zeros((n, n))  # conductance Laplacian (plus boundary terms)
        caps = np.empty(n)
        for i in range(S):
            die, sink = i, S + i
            caps[die], caps[sink] = p.c_die, p.c_sink
            G[die, die] += g_ds
            G[sink, sink] += g_ds
            G[die, sink] -= g_ds
            G[sink, die] -= g_ds
            G[sink, sink] += g_sc
            G[case, case] += g_sc
            G[sink, case] -= g_sc
            G[case, sink] -= g_sc
        caps[case] = p.c_case
        G[case, case] += g_ca  # boundary to ambient

        A = -G / caps[:, None]
        # Fold linear leakage into the die diagonal: extra power leak_dT * T_die
        for i in range(S):
            A[i, i] += p.leak_dT / p.c_die

        B = np.zeros((n, S + 1))
        for i in range(S):
            B[i, i] = 1.0 / p.c_die
        B[case, S] = g_ca / p.c_case  # ambient input drives the case node

        sys_ = LTISystem(A, B)
        self._sys_cache[rpm] = sys_
        return sys_

    @property
    def ambient_c(self) -> float:
        """Inlet-air temperature (deg C), the last slot of the input."""
        return float(self._u[self.n_sockets])

    @ambient_c.setter
    def ambient_c(self, value: float) -> None:
        self._u[self.n_sockets] = value

    # ------------------------------------------------------------------
    # Public API

    def index_of(self, label: str) -> int:
        """Index of a thermal node by label (``die0``, ``sink1``, ``case``)."""
        try:
            return self._index[label]
        except KeyError:
            raise ConfigError(f"unknown thermal node {label!r}; have {self.labels}")

    def temperature(self, label: str) -> float:
        """Current temperature (deg C) of a thermal node, as of ``last_time``."""
        return float(self.state[self.index_of(label)])

    def advance_to(self, t: float) -> None:
        """Advance the thermal state to simulated time *t* (exact)."""
        if t < self.last_time - 1e-9:
            raise SimulationError(
                f"thermal time went backwards: {t} < {self.last_time}"
            )
        dt = t - self.last_time
        if dt > 0.0:
            self.state = self._system._advance(self.state, self._u, dt)
            self.last_time = t

    def set_socket_power(self, socket: int, watts: float, t: float) -> None:
        """Change a socket's power input, advancing to *t* first."""
        if not 0 <= socket < self.n_sockets:
            raise ConfigError(f"socket {socket} out of range")
        if watts < 0:
            raise ConfigError(f"power must be non-negative, got {watts}")
        self.advance_to(t)
        self._powers[socket] = float(watts)

    def set_fan_rpm(self, rpm: float, t: float) -> None:
        """Change the fan speed at time *t* (swaps the cached LTI system)."""
        self.advance_to(t)
        self.fan_rpm = float(rpm)
        self._system = self._build_system(self.fan_rpm)

    def set_ambient_c(self, ambient_c: float, t: float) -> None:
        """Change the inlet-air temperature at time *t*.

        Machine-room air is not constant: HVAC cycling wanders each rack
        position's inlet by fractions of a degree over tens of seconds (see
        :mod:`repro.simmachine.ambient`)."""
        self.advance_to(t)
        # The caller supplies the final inlet value (offsets already applied).
        self.ambient_c = float(ambient_c)

    def steady_state_for(self, socket_powers: np.ndarray) -> np.ndarray:
        """Steady-state temperatures under the given constant socket powers."""
        u = np.concatenate([np.asarray(socket_powers, float), [self.ambient_c]])
        return self._system.steady_state(u)

    @property
    def socket_powers(self) -> np.ndarray:
        """Current socket power inputs (W), read-only copy."""
        return self._powers.copy()

    def die_temperature(self, socket: int) -> float:
        """Convenience: current die temperature (deg C) for *socket*."""
        return self.temperature(f"die{socket}")
