"""Power loss: an acked cursor survives it, and never outruns the log.

The shim below records, per file, its length at its last ``os.fsync``.
"Power loss" then cuts ``events/*.seg`` and ``cursors.log`` back to those
lengths — every byte not yet fsynced is dropped — and a broker reopened
on what is left must hold:

- no cursor in its own offset space above the recovered log's
  ``next_offset`` (new appends would reuse offsets the cursor claims as
  acked, and those records would be silently skipped);
- every advance made before the last log fsync.

Journal records are only ``flush()``-ed between fsyncs, and the
operating system may write them back early, so a variant keeps the whole
journal while still cutting the log: the broker must clamp its cursors
back to the recovered log end.
"""

import os
import shutil
import stat

import pytest

from repro.apps.tps import TpsBroker, TpsPeer
from repro.fixtures import person_assembly_pair, person_java
from repro.net.network import SimulatedNetwork
from repro.persistence import cursors as cursors_module

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs /proc/self/fd to name fds")


class FsyncLengths:
    """Wraps ``os.fsync``: remembers each regular file's length at its
    last fsync, and calls ``on_log_fsync`` after each fsync of a log
    segment."""

    def __init__(self, monkeypatch):
        self.lengths = {}
        self.on_log_fsync = None
        real_fsync = os.fsync

        def fsync(descriptor):
            real_fsync(descriptor)
            info = os.fstat(descriptor)
            if stat.S_ISREG(info.st_mode):
                path = os.readlink("/proc/self/fd/%d" % descriptor)
                self.lengths[path] = info.st_size
                if path.endswith(".seg") and self.on_log_fsync is not None:
                    self.on_log_fsync()

        monkeypatch.setattr(os, "fsync", fsync)

    def power_loss_image(self, log_dir, image, journal_written_back=False):
        """Copy ``log_dir`` to ``image`` as a power loss would leave it;
        ``journal_written_back`` keeps every journal byte, as if the
        operating system had written the journal back before the loss."""
        shutil.copytree(log_dir, image)
        for root, _, names in os.walk(log_dir):
            for name in names:
                if not (name.endswith(".seg") or name == "cursors.log"
                        and not journal_written_back):
                    continue
                original = os.path.realpath(os.path.join(root, name))
                kept = self.lengths.get(original, 0)
                copy = os.path.join(image, os.path.relpath(original, log_dir))
                with open(copy, "r+b") as handle:
                    handle.truncate(min(kept, os.path.getsize(copy)))


@pytest.mark.parametrize("journal_written_back", [False, True])
@pytest.mark.parametrize("fsync_every_n", [4, None])
@pytest.mark.parametrize("checkpoint_every", [512, 3])
@pytest.mark.parametrize("publishes", [3, 6, 9, 14])
def test_acked_cursors_survive_power_loss(tmp_path, monkeypatch, publishes,
                                          checkpoint_every, fsync_every_n,
                                          journal_written_back):
    """``fsync_every_n=None`` is the flush-only log: only checkpoints
    (which sync the log first) make anything durable."""
    monkeypatch.setattr(cursors_module, "_CHECKPOINT_EVERY",
                        checkpoint_every)
    shim = FsyncLengths(monkeypatch)
    log_dir = str(tmp_path / "broker")
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network, log_dir=log_dir,
                       log_kwargs={"fsync_every_n": fsync_every_n})
    publisher = TpsPeer("pub", network)
    publisher.host_assembly(person_assembly_pair()[0])
    got = []
    broker.subscribe_durable(person_java(), got.append, cursor="local-c")
    subscriber = TpsPeer("sub", network)
    subscriber.subscribe_durable_remote("broker", person_java(),
                                        got.append, cursor="remote-c")
    network.run_until_idle()
    at_last_log_fsync = {}
    shim.on_log_fsync = lambda: at_last_log_fsync.update(
        broker.cursors.as_dict())
    for index in range(publishes):
        publisher.publish("broker", publisher.new_instance(
            "demo.a.Person", ["p%d" % index]))
        network.run_until_idle()
    assert broker.cursors.get("local-c") == publishes  # all acked live
    if fsync_every_n is not None and publishes >= fsync_every_n:
        assert at_last_log_fsync  # the group commit fired
    shim.power_loss_image(log_dir, str(tmp_path / "image"),
                          journal_written_back)
    shim.on_log_fsync = None
    broker.close()

    revived = TpsBroker("broker", SimulatedNetwork(),
                        log_dir=str(tmp_path / "image"))
    try:
        end = revived.event_log.next_offset
        for name in ("local-c", "remote-c"):
            assert revived.cursors.get(name) <= end
            assert revived.cursors.get(name) >= at_last_log_fsync.get(name, 0)
    finally:
        revived.close()


def test_clean_close_never_checkpoints_ahead_of_the_log(tmp_path,
                                                        monkeypatch):
    """A flush-only log fsyncs nothing on its own; closing the broker
    must still sync it before the closing checkpoint lands."""
    shim = FsyncLengths(monkeypatch)
    log_dir = str(tmp_path / "broker")
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network, log_dir=log_dir)
    publisher = TpsPeer("pub", network)
    publisher.host_assembly(person_assembly_pair()[0])
    broker.subscribe_durable(person_java(), lambda view: None,
                             cursor="local-c")
    for index in range(5):
        publisher.publish("broker", publisher.new_instance(
            "demo.a.Person", ["p%d" % index]))
    broker.close()
    shim.power_loss_image(log_dir, str(tmp_path / "image"))

    revived = TpsBroker("broker", SimulatedNetwork(),
                        log_dir=str(tmp_path / "image"))
    try:
        assert revived.event_log.next_offset == 5
        assert revived.cursors.get("local-c") == 5
    finally:
        revived.close()
