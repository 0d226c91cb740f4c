"""Crash-consistent file replacement.

A file that is rewritten whole (the cursor checkpoint, a compacted log
segment) must come back after a power loss as either its old contents or
its new ones.  Writing a temporary file and ``os.replace``-ing it is
atomic against a *process* crash only: until the new file's data and the
directory entry the rename changed are both fsynced, the operating system
may persist the rename without the data (an empty or partial file) or
lose the rename altogether.  :func:`atomic_write` orders the four steps
so neither can happen.
"""

from __future__ import annotations

import os


def fsync_dir(directory: str) -> None:
    """Make the directory's entries (created, renamed or removed files)
    durable."""
    descriptor = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: write a temporary file, fsync it,
    ``os.replace`` it over ``path``, then fsync the directory."""
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    fsync_dir(os.path.dirname(path))
