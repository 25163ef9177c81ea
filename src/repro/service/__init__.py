"""repro.service — a compressed-array store and op server.

The serving layer over the SZOps stack: arrays live on the server as
*compressed* streams (:mod:`repro.service.store`), clients ask for
pointwise chains and reductions over a small binary protocol
(:mod:`repro.service.protocol`), and the asyncio server
(:mod:`repro.service.server`) answers them without ever materializing
the decompressed array — reductions fold through the PR-1 fusion
runtime in the quantized domain.

Concurrency is where serving earns its keep: the micro-batcher
(:mod:`repro.service.batching`) coalesces concurrent requests against
the same hot array into single fused executions (bit-identical to the
eager path), admission control sheds overload as ``BUSY``, per-request
deadlines produce ``TIMEOUT``, and live counters/latency histograms
(:mod:`repro.service.telemetry`) are served on the ``STATS`` endpoint.

Entry points::

    repro serve --port 7201            # run a server
    repro bench-serve                  # batched-vs-unbatched benchmark

    from repro.service import ServiceClient
    with ServiceClient("127.0.0.1", 7201) as c:
        c.put("U", stream_bytes)
        c.reduce("U", "mean", chain=["negation", "scalar_multiply=1.5"])

See docs/SERVICE.md for the wire format and operational semantics.
"""

from repro.service.batching import MicroBatcher
from repro.service.client import (
    AsyncServiceClient,
    ConnectionLost,
    RemoteError,
    RequestTimedOut,
    ServerBusy,
    ServiceClient,
    ServiceError,
    StaleEpoch,
)
from repro.service.protocol import FrameError, Moments, Status, Step
from repro.service.server import ServiceConfig, ServiceServer, ThreadedServer
from repro.service.store import CompressedArrayStore, StoreError, StoreMiss
from repro.service.telemetry import Telemetry

__all__ = [
    "AsyncServiceClient",
    "CompressedArrayStore",
    "ConnectionLost",
    "FrameError",
    "MicroBatcher",
    "Moments",
    "RemoteError",
    "RequestTimedOut",
    "ServerBusy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "StaleEpoch",
    "Status",
    "Step",
    "StoreError",
    "StoreMiss",
    "Telemetry",
    "ThreadedServer",
]
