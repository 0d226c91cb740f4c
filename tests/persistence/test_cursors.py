"""Tests for the durable cursor store (checkpoint + journal)."""

import json
import os
import shutil

import pytest

from repro.persistence import CursorStore
from repro.persistence import cursors as cursors_module


def journal_size(directory):
    path = directory / "cursors.log"
    return path.stat().st_size if path.exists() else 0


def crash_image(directory):
    """What a process crash leaves: the store's files as they are now
    (every mutation is flushed), copied aside before the store closes."""
    image = directory / "crash"
    image.mkdir()
    for name in ("cursors.json", "cursors.log"):
        if (directory / name).exists():
            shutil.copy(str(directory / name), str(image / name))
    return image


class TestCursorStore:
    def test_unknown_cursor_is_zero(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            assert store.get("nobody") == 0
            assert store.entry("nobody") is None

    def test_advance_is_monotonic(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            assert store.advance("c", 5)
            assert not store.advance("c", 3)  # going backwards is a no-op
            assert not store.advance("c", 5)
            assert store.advance("c", 9)
            assert store.get("c") == 9

    def test_register_keeps_offset(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.advance("c", 7)
            resumed = store.register("c", peer_id="sub-1",
                                     description="<xml/>")
            assert resumed == 7
            assert store.entry("c")["peer_id"] == "sub-1"

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.register("a", peer_id="p1", description="<d/>")
            store.advance("a", 12)
            store.advance("b", 3)

            with CursorStore(path) as reopened:
                assert reopened.get("a") == 12
                assert reopened.get("b") == 3
                assert reopened.entry("a")["peer_id"] == "p1"
                assert reopened.entry("a")["description"] == "<d/>"

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("a", 1)
            assert os.listdir(str(tmp_path)) == ["cursors.json"]
            with open(path, "r", encoding="utf-8") as handle:
                assert json.load(handle)["a"]["offset"] == 1

    def test_remove(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.advance("a", 1)
            assert store.remove("a")
            assert not store.remove("a")
            assert store.get("a") == 0

    def test_as_dict_snapshot(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.advance("b", 2)
            store.advance("a", 1)
            assert store.as_dict() == {"a": 1, "b": 2}
            assert store.names() == ["a", "b"]


class TestJournal:
    """Every mutation is one journal record; checkpoints rewrite
    ``cursors.json`` only at an opening's first mutation, every
    ``_CHECKPOINT_EVERY`` records and at close."""

    def test_every_mutation_is_journaled(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("c", 1)  # the opening's first mutation checkpoints
            checkpoint = (tmp_path / "cursors.json").read_bytes()
            store.advance("c", 2)
            store.advance("c", 3)
            # The checkpoint is untouched; a fresh reader replays the
            # journal and sees every advance.
            assert (tmp_path / "cursors.json").read_bytes() == checkpoint
            assert store.checkpoints == 1
            assert journal_size(tmp_path) > 0
            with CursorStore(path) as reader:
                assert reader.get("c") == 3

    def test_close_checkpoints_the_journal(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.advance("c", 1)
        store.advance("c", 7)
        store.close()
        assert journal_size(tmp_path) == 0
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["c"]["offset"] == 7
        with CursorStore(path) as reader:
            assert reader.get("c") == 7

    def test_register_is_journaled(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("other", 1)
            store.register("c", peer_id="p", description="<d/>")
            with CursorStore(path) as reader:
                assert reader.entry("c")["peer_id"] == "p"

    def test_the_sync_every_knob_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            CursorStore(str(tmp_path / "c.json"), sync_every=1)

    def test_checkpoint_every_n_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cursors_module, "_CHECKPOINT_EVERY", 4)
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            for offset in range(1, 11):
                store.advance("c", offset)
            # The first mutation, then one checkpoint per 4 journaled
            # records: the fifth mutation after a checkpoint writes the
            # state before it, then journals itself.
            assert store.checkpoints == 3
            with open(path, "r", encoding="utf-8") as handle:
                assert json.load(handle)["c"]["offset"] == 9
            with CursorStore(path) as reader:
                assert reader.get("c") == 10

    def test_a_touching_advance_below_the_cursor_keeps_it(self, tmp_path):
        """An ack below the cursor still refreshes the idleness stamp, so
        it is journaled; replaying it must not lower the offset."""
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("c", 5, touch=False)
            store.advance("c", 7, touch=False)
            size = journal_size(tmp_path)
            assert not store.advance("c", 2)
            assert journal_size(tmp_path) > size
            with CursorStore(path) as reader:
                assert reader.get("c") == 7
                assert reader.entry("c")["last_active"] == 1

    def test_a_noop_advance_writes_nothing(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.advance("c", 5)
            store.advance("c", 6)
            size = journal_size(tmp_path)
            assert not store.advance("c", 6)
            assert not store.advance("c", 2, touch=False)
            assert journal_size(tmp_path) == size

    def test_sync_fsyncs_only_unsynced_records(self, tmp_path, monkeypatch):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.advance("c", 1)
            store.advance("c", 2)
            fsyncs = []
            real_fsync = os.fsync
            monkeypatch.setattr(os, "fsync", lambda descriptor: (
                fsyncs.append(descriptor), real_fsync(descriptor)))
            store.sync()
            store.sync()
            assert len(fsyncs) == 1
            store.advance("c", 3)
            store.checkpoint()  # supersedes the journal: nothing to sync
            del fsyncs[:]
            store.sync()
            assert fsyncs == []

    def test_checkpoint_syncs_the_log_first(self, tmp_path):
        calls = []
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.before_checkpoint = lambda: calls.append(
                os.path.exists(str(tmp_path / "cursors.json")))
            store.advance("c", 1)
            assert calls == [False]  # ran before the checkpoint existed

    def test_mutation_after_close_reopens_the_journal(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.advance("c", 1)
        store.close()
        store.advance("c", 2)
        store.advance("c", 3)
        with CursorStore(path) as reader:
            assert reader.get("c") == 3
        store.close()
        with CursorStore(path) as reader:
            assert reader.get("c") == 3

    def test_read_only_open_keeps_both_files(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("c", 1)
            store.advance("c", 2)
            checkpoint = (tmp_path / "cursors.json").read_bytes()
            journal = (tmp_path / "cursors.log").read_bytes()
            with CursorStore(path) as reader:
                assert reader.get("c") == 2
            assert (tmp_path / "cursors.json").read_bytes() == checkpoint
            assert (tmp_path / "cursors.log").read_bytes() == journal


class TestJournalRecovery:
    def journaled(self, tmp_path):
        """A crashed store whose journal holds three advances of ``c``
        (1, 2, 3) over a checkpoint at 0: its ``cursors.json`` path and
        each journal record's end."""
        ends = []
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.register("c", peer_id="p")
            for offset in (1, 2, 3):
                store.advance("c", offset)
                ends.append(journal_size(tmp_path))
            image = crash_image(tmp_path)
        return str(image / "cursors.json"), ends

    def test_torn_tail_stops_replay(self, tmp_path):
        path, ends = self.journaled(tmp_path)
        journal = tmp_path / "crash" / "cursors.log"
        journal.write_bytes(journal.read_bytes()[:ends[1] + 5])  # half of #3
        torn = journal.read_bytes()
        with CursorStore(path) as reader:
            assert reader.get("c") == 2
            assert reader.journal_torn
        # A read-only open truncates nothing.
        assert journal.read_bytes() == torn

    def test_bad_crc_stops_replay(self, tmp_path):
        path, ends = self.journaled(tmp_path)
        journal = tmp_path / "crash" / "cursors.log"
        data = bytearray(journal.read_bytes())
        data[ends[1] - 2] ^= 0xFF  # a byte of record #2's body
        journal.write_bytes(bytes(data))
        with CursorStore(path) as reader:
            assert reader.get("c") == 1  # records #2 and #3 are ignored
            assert reader.journal_torn

    def test_first_mutation_truncates_the_torn_tail(self, tmp_path):
        path, ends = self.journaled(tmp_path)
        journal = tmp_path / "crash" / "cursors.log"
        journal.write_bytes(journal.read_bytes()[:ends[1] + 5])
        with CursorStore(path) as store:
            store.advance("c", 5)
            # The checkpoint took the replayed state; the torn bytes are
            # gone and the journal holds just this advance.
            assert json.loads((tmp_path / "crash" / "cursors.json")
                              .read_text())["c"]["offset"] == 2
            assert journal.stat().st_size == ends[0]  # one advance record
            store.advance("c", 6)
            with CursorStore(path) as reader:
                assert not reader.journal_torn
                assert reader.get("c") == 6

    def test_crash_between_checkpoint_and_truncation(self, tmp_path):
        """A checkpoint replaced ``cursors.json`` but the journal was not
        truncated: its records replay over state that already holds them,
        and recovery lands on that same state."""
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.register("gone", peer_id="p")
            store.register("c", peer_id="p", description="<d/>")
            store.advance("c", 10)
            store.annotate("c", floor=4)
            store.remove("gone")
            store.register("gone", peer_id="q")  # reborn at offset 0
            store.advance("gone", 2, touch=False)
            store.register("c@s1", peer_id="p", origin="s1", base="c")
            store.advance("c@s1", 40)
            store.remove("c")
            store.register("c", peer_id="p2")  # reborn: below 10 again
            store.advance("c", 3)
            expected = {name: store.entry(name) for name in store.names()}
            journal = (tmp_path / "cursors.log").read_bytes()
            store.checkpoint()
            image = crash_image(tmp_path)
        (image / "cursors.log").write_bytes(journal)  # never truncated
        with CursorStore(str(image / "cursors.json")) as reader:
            assert {name: reader.entry(name)
                    for name in reader.names()} == expected
            assert reader.get("c") == 3
            assert reader.get("gone") == 2


class Crash(Exception):
    pass


def state(store):
    return {name: store.entry(name) for name in store.names()}


class TestCrashBeforeTruncation:
    """A checkpoint replaced ``cursors.json`` and the process died before
    the journal was truncated.  The checkpoint must hold exactly what the
    journal leads to — never the mutation that triggered it — or replay
    over it lands on a state that never existed."""

    def crash_at_truncation(self, tmp_path, monkeypatch, store, mutate):
        """Run ``mutate(store)``, dying at the journal truncation; return
        the store reopened from what the crash left on disk."""
        def die(descriptor, length):
            raise Crash()

        with monkeypatch.context() as patch:
            patch.setattr(os, "ftruncate", die)
            with pytest.raises(Crash):
                mutate(store)
            image = crash_image(tmp_path)
        store.close()
        return CursorStore(str(image / "cursors.json"))

    @pytest.mark.parametrize("trigger", [
        lambda store: store.remove("c"),
        lambda store: store.prune(1),
        lambda store: store.advance("c", 9),
        lambda store: store.register("c", peer_id="q"),
        lambda store: store.annotate("c", floor=3),
        lambda store: store.clamp(2),
    ], ids=["remove", "prune", "advance", "register", "annotate", "clamp"])
    def test_checkpoint_due_after_n_records(self, tmp_path, monkeypatch,
                                            trigger):
        monkeypatch.setattr(cursors_module, "_CHECKPOINT_EVERY", 2)
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.register("c", peer_id="p", description="<d/>")
        store = CursorStore(path)
        store.advance("other", 1)  # checkpoints over the empty journal
        # Mechanical (touch=False) mutations: ``c`` stays idle since
        # incarnation 1, so ``prune(1)`` removes it.
        store.register("c", peer_id="p", description="<d/>", touch=False)
        store.advance("c", 7, touch=False)
        before = state(store)
        with self.crash_at_truncation(tmp_path, monkeypatch, store,
                                      trigger) as recovered:
            assert state(recovered) == before
            assert recovered.entry("c")["last_active"] == 1

    def test_first_mutation_after_a_crash(self, tmp_path, monkeypatch):
        """The old journal's stamps must not overwrite the new opening's:
        the checkpoint takes the replayed state, then the mutation is
        journaled with the new stamp."""
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.register("c", peer_id="p")
            store.advance("c", 3)
            image = crash_image(tmp_path)
        path = str(image / "cursors.json")
        store = CursorStore(path)  # incarnation 2, journal holds c@3
        before = state(store)
        with self.crash_at_truncation(
                image, monkeypatch, store,
                lambda store: store.advance("c", 5)) as recovered:
            assert state(recovered) == before
        with CursorStore(path) as store:
            assert store.advance("c", 5)
            with CursorStore(path) as reader:
                assert reader.get("c") == 5
                assert reader.entry("c")["last_active"] == store.incarnation


class TestClamp:
    def test_lowers_own_space_cursors_only(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("high", 9)
            store.advance("low", 2)
            store.register("high@s1", origin="s1", base="high")
            store.advance("high@s1", 30)
            store.register("self@s0", origin="s0", base="high")
            store.advance("self@s0", 8)
            store.annotate("self@s0", local=True)
            assert store.clamp(5) == ["high", "self@s0"]
            assert store.as_dict() == {"high": 5, "high@s1": 30,
                                       "low": 2, "self@s0": 5}
            assert store.clamp(5) == []
            with CursorStore(path) as reader:
                assert reader.as_dict() == store.as_dict()

    def test_replay_is_idempotent(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.advance("other", 1)
            store.advance("c", 9)
            store.clamp(4)
            store.advance("c", 6)
            journal = (tmp_path / "cursors.log").read_bytes()
            store.checkpoint()
            image = crash_image(tmp_path)
        (image / "cursors.log").write_bytes(journal)  # never truncated
        with CursorStore(str(image / "cursors.json")) as reader:
            assert reader.get("c") == 6


class TestCursorGC:
    """Incarnation stamping + prune: cursors of subscribers that never
    returned expire, so they cannot pin retention's slowest-cursor gate."""

    def test_incarnation_bumps_per_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            assert store.incarnation == 1
            store.advance("c", 1)  # a mutation persists the bump
        with CursorStore(path) as reopened:
            assert reopened.incarnation == 2

    def test_readonly_open_does_not_rewrite(self, tmp_path):
        path = tmp_path / "cursors.json"
        with CursorStore(str(path)) as store:
            store.advance("c", 1)
        before = path.read_bytes()
        with CursorStore(str(path)):  # inspect-style open: no mutation
            pass
        assert path.read_bytes() == before

    def test_prune_expires_idle_cursors_only(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.register("idle", peer_id="ghost")
        store.register("active", peer_id="alive")
        for _ in range(3):  # three incarnations in which only one returns
            store.close()
            store = CursorStore(path)
            store.register("active", peer_id="alive")
        assert store.prune(max_idle_incarnations=3) == ["idle"]
        assert "active" in store
        assert "idle" not in store
        # Persisted: the pruned cursor stays gone after a reopen.
        with CursorStore(path) as reopened:
            assert "idle" not in reopened
        store.close()

    def test_prune_touched_by_ack_is_kept(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.register("acked", peer_id="p")
            store.register("silent", peer_id="q")
        with CursorStore(path) as store:
            store.advance("acked", 5)  # an ack counts as activity
        with CursorStore(path) as store:
            store.advance("acked", 6)
            assert store.prune(max_idle_incarnations=2) == ["silent"]
            assert store.get("acked") == 6

    def test_prune_validates_threshold(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            with pytest.raises(ValueError):
                store.prune(0)

    def test_meta_key_is_reserved(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            with pytest.raises(ValueError):
                store.register("__meta__")

    def test_legacy_flat_file_loads(self, tmp_path):
        """A pre-incarnation cursors.json (no __meta__ entry) loads, and
        its unstamped cursors count as never-touched: prunable."""
        path = str(tmp_path / "cursors.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"old": {"offset": 7, "peer_id": "p",
                               "description": None}}, handle)
        with CursorStore(path) as store:
            assert store.get("old") == 7
            assert store.incarnation == 1
            assert store.prune(max_idle_incarnations=1) == ["old"]


class TestForeignFetchCursors:
    """Fetch cursors: positions in a *sibling shard's* offset space."""

    def test_origin_cursors_excluded_from_min_offset(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.register("c", peer_id="p")
            store.advance("c", 3)
            store.register("c@s1", peer_id="p", origin="s1", base="c")
            store.advance("c@s1", 99)  # a foreign offset, far ahead
            assert store.min_offset() == 3  # the local floor ignores it

    def test_derived_lists_the_cursor_family(self, tmp_path):
        with CursorStore(str(tmp_path / "cursors.json")) as store:
            store.register("c", peer_id="p")
            store.register("c@s1", peer_id="p", origin="s1", base="c")
            store.register("c@s2", peer_id="p", origin="s2", base="c")
            store.register("other", peer_id="p")
            assert store.derived("c") == ["c@s1", "c@s2"]
            assert store.derived("other") == []

    def test_origin_metadata_survives_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        with CursorStore(path) as store:
            store.register("c@s1", peer_id="p", origin="s1", base="c")
            store.advance("c@s1", 7)
        with CursorStore(path) as reopened:
            entry = reopened.entry("c@s1")
            assert entry["origin"] == "s1"
            assert entry["base"] == "c"
            assert reopened.get("c@s1") == 7
            assert reopened.derived("c") == ["c@s1"]
