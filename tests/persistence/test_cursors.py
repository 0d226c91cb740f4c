"""Tests for the durable cursor store."""

import json
import os

from repro.persistence import CursorStore


class TestCursorStore:
    def test_unknown_cursor_is_zero(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        assert store.get("nobody") == 0
        assert store.entry("nobody") is None

    def test_advance_is_monotonic(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        assert store.advance("c", 5)
        assert not store.advance("c", 3)  # going backwards is a no-op
        assert not store.advance("c", 5)
        assert store.advance("c", 9)
        assert store.get("c") == 9

    def test_register_keeps_offset(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        store.advance("c", 7)
        resumed = store.register("c", peer_id="sub-1", description="<xml/>")
        assert resumed == 7
        assert store.entry("c")["peer_id"] == "sub-1"

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.register("a", peer_id="p1", description="<d/>")
        store.advance("a", 12)
        store.advance("b", 3)

        reopened = CursorStore(path)
        assert reopened.get("a") == 12
        assert reopened.get("b") == 3
        assert reopened.entry("a")["peer_id"] == "p1"
        assert reopened.entry("a")["description"] == "<d/>"

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.advance("a", 1)
        assert os.listdir(str(tmp_path)) == ["cursors.json"]
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["a"]["offset"] == 1

    def test_remove(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        store.advance("a", 1)
        assert store.remove("a")
        assert not store.remove("a")
        assert store.get("a") == 0

    def test_as_dict_snapshot(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        store.advance("b", 2)
        store.advance("a", 1)
        assert store.as_dict() == {"a": 1, "b": 2}
        assert store.names() == ["a", "b"]


class TestDeferredSync:
    def test_sync_every_defers_persistence(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path, sync_every=3)
        store.advance("c", 1)
        store.advance("c", 2)
        # Nothing persisted yet: a fresh reader sees the registration-era
        # state (the file may not even exist).
        assert CursorStore(path).get("c") == 0
        store.advance("c", 3)  # third advance crosses the threshold
        assert CursorStore(path).get("c") == 3

    def test_flush_persists_remainder(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path, sync_every=100)
        store.advance("c", 7)
        store.flush()
        assert CursorStore(path).get("c") == 7

    def test_register_always_persists(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path, sync_every=100)
        store.register("c", peer_id="p", description="<d/>")
        assert CursorStore(path).entry("c")["peer_id"] == "p"

    def test_sync_every_validates(self, tmp_path):
        import pytest
        with pytest.raises(ValueError):
            CursorStore(str(tmp_path / "c.json"), sync_every=0)


class TestCursorGC:
    """Incarnation stamping + prune: cursors of subscribers that never
    returned expire, so they cannot pin retention's slowest-cursor gate."""

    def test_incarnation_bumps_per_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        assert store.incarnation == 1
        store.advance("c", 1)  # a mutation persists the bump
        assert CursorStore(path).incarnation == 2

    def test_readonly_open_does_not_rewrite(self, tmp_path):
        path = tmp_path / "cursors.json"
        CursorStore(str(path)).advance("c", 1)
        before = path.read_bytes()
        CursorStore(str(path))  # inspect-style open: no mutation
        assert path.read_bytes() == before

    def test_prune_expires_idle_cursors_only(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.register("idle", peer_id="ghost")
        store.register("active", peer_id="alive")
        for _ in range(3):  # three incarnations in which only one returns
            store = CursorStore(path)
            store.register("active", peer_id="alive")
        assert store.prune(max_idle_incarnations=3) == ["idle"]
        assert "active" in store
        assert "idle" not in store
        # Persisted: the pruned cursor stays gone after a reopen.
        assert "idle" not in CursorStore(path)

    def test_prune_touched_by_ack_is_kept(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.register("acked", peer_id="p")
        store.register("silent", peer_id="q")
        store = CursorStore(path)
        store.advance("acked", 5)  # an ack counts as activity
        store = CursorStore(path)
        store.advance("acked", 6)
        assert store.prune(max_idle_incarnations=2) == ["silent"]
        assert store.get("acked") == 6

    def test_prune_validates_threshold(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        import pytest
        with pytest.raises(ValueError):
            store.prune(0)

    def test_meta_key_is_reserved(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        import pytest
        with pytest.raises(ValueError):
            store.register("__meta__")

    def test_legacy_flat_file_loads(self, tmp_path):
        """A pre-incarnation cursors.json (no __meta__ entry) loads, and
        its unstamped cursors count as never-touched: prunable."""
        import json
        path = str(tmp_path / "cursors.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"old": {"offset": 7, "peer_id": "p",
                               "description": None}}, handle)
        store = CursorStore(path)
        assert store.get("old") == 7
        assert store.incarnation == 1
        assert store.prune(max_idle_incarnations=1) == ["old"]


class TestForeignFetchCursors:
    """Fetch cursors: positions in a *sibling shard's* offset space."""

    def test_origin_cursors_excluded_from_min_offset(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        store.register("c", peer_id="p")
        store.advance("c", 3)
        store.register("c@s1", peer_id="p", origin="s1", base="c")
        store.advance("c@s1", 99)  # a foreign offset, far ahead
        assert store.min_offset() == 3  # the local floor ignores it

    def test_derived_lists_the_cursor_family(self, tmp_path):
        store = CursorStore(str(tmp_path / "cursors.json"))
        store.register("c", peer_id="p")
        store.register("c@s1", peer_id="p", origin="s1", base="c")
        store.register("c@s2", peer_id="p", origin="s2", base="c")
        store.register("other", peer_id="p")
        assert store.derived("c") == ["c@s1", "c@s2"]
        assert store.derived("other") == []

    def test_origin_metadata_survives_reopen(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        store.register("c@s1", peer_id="p", origin="s1", base="c")
        store.advance("c@s1", 7)
        store.flush()
        reopened = CursorStore(path)
        entry = reopened.entry("c@s1")
        assert entry["origin"] == "s1"
        assert entry["base"] == "c"
        assert reopened.get("c@s1") == 7
        assert reopened.derived("c") == ["c@s1"]
