"""Cluster collection service: ``tempest-wire-v1``/``v2`` streaming
aggregation with summary fan-in.

The paper runs one ``tempd`` per node and merges per-node streams into a
cluster profile offline; this package is the live path — collectors tail
each node's :class:`~repro.core.spool.TraceSpool` and stream columnar
record chunks to an aggregator, which maintains a merged
:class:`~repro.core.profilemodel.RunProfile` (exactly equal to the
in-process profile once drained) and can persist the accepted records,
byte for byte, as a closed trace directory.  Above that sits the fan-in
tier: leaf aggregators condense their accepted streams into mergeable
``tempest-summary-v3`` snapshots and ship them to a root, which composes
the global profile without ever seeing a raw record.

Layers, bottom up:

* :mod:`repro.cluster.wire` — the frame codec (pure bytes);
* :mod:`repro.cluster.aggregator` — protocol/merge core, per-connection
  state machine, multi-run registry;
* :mod:`repro.cluster.asyncserver` — non-blocking selectors event loop
  hosting many connections and runs on one thread;
* :mod:`repro.cluster.collector` — spool-tailing client with a bounded
  backpressure queue and reconnect-with-resume;
* :mod:`repro.cluster.fanin` — leaf→root summary uplink and the
  periodic snapshot pump;
* :mod:`repro.cluster.loopback` — synchronous in-memory transport so
  every protocol path is deterministically testable without sockets.

CLI: ``tempest serve`` (aggregator; ``--role leaf|root`` for fan-in)
and ``tempest push`` (collector).
"""

from repro.cluster.aggregator import (
    METRIC_NAMES,
    Aggregator,
    AggregatorConnection,
    LeafState,
    NodeState,
    RunRegistry,
    WireMetrics,
)
from repro.cluster.asyncserver import AsyncAggregatorServer
from repro.cluster.collector import (
    CollectorClient,
    CollectorConfig,
    CollectorMetrics,
    SocketTransport,
)
from repro.cluster.fanin import LeafUplink, SummaryPump
from repro.cluster.loopback import LoopbackHub, LoopbackTransport
from repro.cluster.wire import (
    DEFAULT_RUN,
    FRAME_TYPES,
    FT_SUMMARY,
    WIRE_FORMAT,
    WIRE_FORMAT_V2,
    FrameDecoder,
    WireError,
    decode_chunk,
    encode_chunk,
    encode_frame,
    encode_json_frame,
    leaf_hello_payload,
    summary_payload,
)

#: the selectors-based server replaced the thread-per-connection one;
#: the old name stays the public entry point
AggregatorServer = AsyncAggregatorServer

__all__ = [
    "Aggregator",
    "AggregatorConnection",
    "AggregatorServer",
    "AsyncAggregatorServer",
    "CollectorClient",
    "CollectorConfig",
    "CollectorMetrics",
    "DEFAULT_RUN",
    "FRAME_TYPES",
    "FT_SUMMARY",
    "FrameDecoder",
    "LeafState",
    "LeafUplink",
    "LoopbackHub",
    "LoopbackTransport",
    "METRIC_NAMES",
    "NodeState",
    "RunRegistry",
    "SocketTransport",
    "SummaryPump",
    "WIRE_FORMAT",
    "WIRE_FORMAT_V2",
    "WireError",
    "WireMetrics",
    "decode_chunk",
    "encode_chunk",
    "encode_frame",
    "encode_json_frame",
    "leaf_hello_payload",
    "summary_payload",
]
