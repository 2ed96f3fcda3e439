"""The node's thermal and power path agrees bit for bit with its oracle.

A seeded loop puts one :class:`SimNode` through random activity, DVFS,
fan-speed and ambient changes and sensor reads, with many zero-length
gaps between them.  A shadow network advanced by the reference
arithmetic in ``sim_oracle.py`` follows along; after every step the
node's state vector and socket powers must equal the shadow's bytes.
The checks the per-event path still owes (core id and activity range,
thermal time going backwards) are pinned here too.
"""

import math

import numpy as np
import pytest

from repro.simmachine.node import NodeConfig, SimNode
from repro.simmachine.power import (
    ACTIVITY_BURN,
    ACTIVITY_COMM,
    ACTIVITY_COMPUTE,
    ACTIVITY_IDLE,
    ACTIVITY_MEMORY,
)
from repro.util.errors import ConfigError, SimulationError
from tests.simmachine import sim_oracle

ACTIVITIES = (ACTIVITY_BURN, ACTIVITY_COMPUTE, ACTIVITY_MEMORY,
              ACTIVITY_COMM, ACTIVITY_IDLE, 0.0)
FAN_RPMS = (2400.0, 3000.0, 4200.0)


class ShadowNetwork:
    """A node's thermal state advanced only by the reference arithmetic."""

    def __init__(self, node: SimNode):
        net = node.thermal
        self.net = net
        self.state = net.state.copy()
        self.last_time = net.last_time
        self.powers = net.socket_powers
        self.ambient_c = net.ambient_c
        self.rpm = net.fan_rpm
        self.advances = 0

    def advance_to(self, t: float) -> None:
        dt = max(0.0, t - self.last_time)
        if dt > 0.0:
            u = np.concatenate([self.powers, [self.ambient_c]])
            self.state = sim_oracle.lti_advance(
                self.net._build_system(self.rpm), self.state, u, dt)
            self.last_time = t
            self.advances += 1


def _node(shape: tuple[int, int]) -> SimNode:
    sockets, per_socket = shape
    return SimNode(
        NodeConfig(name="n0", n_sockets=sockets, cores_per_socket=per_socket,
                   speed_grade=1.037, paste_quality=0.91,
                   airflow_quality=1.06, inlet_offset_c=0.7),
        rng=np.random.default_rng(5),
    )


def _assert_same(node: SimNode, shadow: ShadowNetwork, step: int) -> None:
    net = node.thermal
    assert net.state.tobytes() == shadow.state.tobytes(), step
    assert net.socket_powers.tobytes() == shadow.powers.tobytes(), step
    assert net.last_time == shadow.last_time, step


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_node_matches_reference_arithmetic(seed, shape):
    rng = np.random.default_rng(seed)
    node = _node(shape)
    shadow = ShadowNetwork(node)
    _assert_same(node, shadow, -1)
    n_opps = len(node.config.opps)
    t = 0.0
    for step in range(1500):
        gap = rng.random()
        if gap < 0.4:
            t_op = t                                # zero-length gap
        elif gap < 0.45:
            t_op = t - 5e-10                        # within the tolerance
        else:
            t += float(rng.exponential(0.02))
            t_op = t
        op = rng.random()
        if op < 0.55:
            cid = int(rng.integers(len(node.cores)))
            act = (float(rng.random()) if rng.random() < 0.2
                   else ACTIVITIES[int(rng.integers(len(ACTIVITIES)))])
            node.set_core_activity(cid, act, t_op)
            assert node.cores[cid].activity == act
            socket = node.cores[cid].socket
            shadow.advance_to(t_op)
            shadow.powers[socket] = sim_oracle.socket_power(node, socket)
        elif op < 0.7:
            cid = int(rng.integers(len(node.cores)))
            opp = int(rng.integers(n_opps))
            node.set_core_opp(cid, opp, t_op)
            assert node.cores[cid].opp_index == opp
            socket = node.cores[cid].socket
            shadow.advance_to(t_op)
            shadow.powers[socket] = sim_oracle.socket_power(node, socket)
        elif op < 0.77:
            rpm = FAN_RPMS[int(rng.integers(len(FAN_RPMS)))]
            node.set_fan_rpm(rpm, t_op)
            shadow.advance_to(t_op)
            shadow.rpm = rpm
        elif op < 0.84:
            amb = float(21.0 + 3.0 * rng.random())
            node.thermal.set_ambient_c(amb, t_op)
            shadow.advance_to(t_op)
            shadow.ambient_c = amb
        else:
            node.read_sensors(t_op)
            shadow.advance_to(t_op)
            socket = int(rng.integers(node.config.n_sockets))
            assert node.die_temperature(socket, t_op) == shadow.state[socket]
        _assert_same(node, shadow, step)
    assert shadow.advances > 500      # the drive really moved the state


# -- the checks the per-event path still owes -------------------------------


@pytest.mark.parametrize("cid", [-1, 4, 99])
def test_set_core_activity_rejects_core_out_of_range(cid):
    node = _node((2, 2))
    with pytest.raises(ConfigError, match="out of range"):
        node.set_core_activity(cid, ACTIVITY_BURN, 0.0)


@pytest.mark.parametrize("cid", [-1, 4])
def test_set_core_opp_rejects_core_out_of_range(cid):
    node = _node((2, 2))
    with pytest.raises(ConfigError, match="out of range"):
        node.set_core_opp(cid, 0, 0.0)


def test_set_core_opp_rejects_opp_out_of_range():
    node = _node((2, 2))
    with pytest.raises(ConfigError, match="opp index"):
        node.set_core_opp(0, len(node.config.opps), 0.0)


@pytest.mark.parametrize("act", [-0.01, 1.01, 7.0, math.nan])
def test_set_core_activity_rejects_activity_out_of_range(act):
    node = _node((2, 2))
    before = node.thermal.socket_powers
    with pytest.raises(ConfigError, match="activity"):
        node.set_core_activity(0, act, 0.0)
    # A refused change leaves the core and its socket untouched, and a
    # second attempt is refused again (nothing was memoized).
    assert node.cores[0].activity == ACTIVITY_IDLE
    assert node.thermal.socket_powers.tobytes() == before.tobytes()
    with pytest.raises(ConfigError, match="activity"):
        node.set_core_activity(0, act, 0.0)


def test_advance_to_rejects_time_going_backwards():
    node = _node((2, 2))
    net = node.thermal
    net.advance_to(1.0)
    state = net.state.copy()
    net.advance_to(1.0 - 5e-10)            # inside the tolerance: no-op
    assert net.state.tobytes() == state.tobytes()
    assert net.last_time == 1.0
    with pytest.raises(SimulationError, match="backwards"):
        net.advance_to(1.0 - 2e-9)
    assert net.state.tobytes() == state.tobytes()
