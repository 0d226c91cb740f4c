"""Tests for the crash-consistent write helper and segment creation."""

import os
import stat

from repro.persistence import EventLog, fsio


def record_durability_steps(monkeypatch):
    """Log each fsync (file or directory) and replace, in order."""
    steps = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(descriptor):
        kind = "dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file"
        steps.append(("fsync", kind))
        real_fsync(descriptor)

    def replace(source, target):
        steps.append(("replace", os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return steps


def test_atomic_write_orders_fsyncs_around_the_replace(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    target.write_bytes(b"old")
    steps = record_durability_steps(monkeypatch)
    fsio.atomic_write(str(target), b"new")
    assert steps == [("fsync", "file"), ("replace", "state.json"),
                     ("fsync", "dir")]
    assert target.read_bytes() == b"new"
    assert os.listdir(str(tmp_path)) == ["state.json"]


def test_new_segments_fsync_their_directory(tmp_path, monkeypatch):
    steps = record_durability_steps(monkeypatch)
    with EventLog(str(tmp_path), segment_max_bytes=64) as log:
        log.append(b"x" * 40)  # creates the first segment
        log.append(b"y" * 40)  # rotates: a second segment
    assert steps.count(("fsync", "dir")) == 2
