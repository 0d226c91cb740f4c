"""Mesh-wide telemetry plane.

Three pieces, all stdlib-only:

- :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  fixed-bucket histograms, labeled families) with a ``snapshot()`` tree
  and Prometheus-style text exposition.  Every layer of the reproduction
  (pipeline stages, event log, replication, socket transport, the
  meshes) registers its counters into one registry per broker/node, so
  the scattered ``stats()`` attributes become one queryable tree while
  the existing ``stats()`` dicts remain as compatibility views.
- :mod:`repro.obs.tracing` — per-record tracing: a cheap trace id
  stamped into the XME2 header at origin publish, carried verbatim
  through forward/replicate/replay hops, with per-stage span events
  recorded into a bounded ring buffer per shard and a cross-shard
  timeline stitcher (``repro trace``).
- :mod:`repro.obs.http` — the polled HTTP server behind the
  operational API: one route table (``/<view>``, ``/mesh/<view>`` and
  token-gated admin POSTs, see ``repro.apps.tps.procmesh``) served by
  ``SocketMesh`` and by every ``ProcessMesh`` node.
"""

from .http import HttpError, ObsHttpServer, json_body  # noqa: F401
from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from .tracing import (  # noqa: F401
    TraceBuffer,
    TraceIdSource,
    render_timeline,
    stitch,
)

__all__ = [
    "HttpError",
    "ObsHttpServer",
    "json_body",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "TraceBuffer",
    "TraceIdSource",
    "render_timeline",
    "stitch",
]
