"""Reference arithmetic for the simulated machine's thermal and power path.

The runtime advances each node's RC network and recomputes socket power on
every activity change, so that path is kept lean: ``ThermalNetwork`` holds
its input vector in place and ``LTISystem._advance`` skips the
complex-to-real cast on a real eigenbasis; ``SimNode`` memoizes per-core
dynamic power.  Each shortcut promises the same bits as the plain
arithmetic below, which builds everything afresh per call.  This module
keeps that plain arithmetic only to be agreed with (``test_sim_oracle.py``
step by step, ``test_sim_identity.py`` over a whole traced run).
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import SimulationError


def lti_advance(system, x0, u, dt: float) -> np.ndarray:
    """Advance ``system`` exactly by *dt* > 0 under constant input *u*:
    coerce the inputs, solve, and cast the result back to real."""
    x0 = np.asarray(x0, dtype=float)
    xss = system.steady_state(u)
    coeffs = system._Vinv @ (x0 - xss)
    x = system._V @ (np.exp(system._w * dt) * coeffs) + xss
    return np.real_if_close(x).real.astype(float)


def input_vector(net) -> np.ndarray:
    """A network's input ``[P_0 .. P_{S-1}, T_ambient]``, built afresh."""
    return np.concatenate([net.socket_powers, [net.ambient_c]])


def thermal_advance_to(net, t: float) -> None:
    """``ThermalNetwork.advance_to`` on the reference arithmetic."""
    if t < net.last_time - 1e-9:
        raise SimulationError(
            f"thermal time went backwards: {t} < {net.last_time}")
    dt = max(0.0, t - net.last_time)
    if dt > 0.0:
        net.state = lti_advance(net._system, net.state, input_vector(net), dt)
        net.last_time = t


def socket_power(node, socket: int) -> float:
    """A socket's power from its cores' activities and operating points,
    through :meth:`PowerModel.socket_power` with freshly built lists."""
    cores = [c for c in node.cores if c.socket == socket]
    return node.power_model.socket_power(
        [c.activity for c in cores], [c.opp for c in cores])


def patch_reference(monkeypatch) -> None:
    """Route every node's thermal advance and socket power through the
    reference arithmetic for the rest of a test."""
    from repro.simmachine.node import SimNode
    from repro.simmachine.thermal import ThermalNetwork

    monkeypatch.setattr(ThermalNetwork, "advance_to", thermal_advance_to)
    monkeypatch.setattr(SimNode, "_socket_power", socket_power)
