"""Durable persistence: segmented event log + replay cursors.

The subsystem that turns the broker mesh from a connected-subscribers-only
fabric into one that survives churn: brokers append admitted event batches
to an :class:`EventLog` before fan-out, durable subscriptions record their
replay position in a :class:`CursorStore`, and a restarted (or late)
subscriber replays the retained backlog before switching to live events.

On disk, a broker's ``log_dir`` holds ``events/`` (the log's segment
files), ``cursors.json`` (the cursor checkpoint) and ``cursors.log`` (the
cursor journal: one CRC-framed record per mutation since that
checkpoint).  Files rewritten whole go through :func:`fsio.atomic_write`.
The journal is fsynced right after each fsync of the shard's own log, and
the log is synced before each checkpoint.  Journal bytes the operating
system writes back early can still outrun the log, so a broker clamps its
own-space cursors to the recovered log end on open: a cursor never claims
as acked an offset the log no longer holds.
"""

from .cursors import CursorStore
from .log import EventLog, LogCorruptionError, LogRecord, inspect_log

__all__ = [
    "CursorStore",
    "EventLog",
    "LogCorruptionError",
    "LogRecord",
    "inspect_log",
]
