"""Property test: the cursor store (checkpoint + journal) matches a dict.

Random ``register``/``advance``/``annotate``/``remove``/``prune``/``clamp``
sequences, with clean reopens and crashes at random points — a crash
copies the store's files as they are (every mutation is flushed) and cuts
the journal at a random byte, often mid-record — must leave the store
equal to a plain dict model of the same operations: after each operation,
and after each recovery (which must land on the model state of the last
record wholly before the cut).

A second kind of crash kills the next mutation at the journal truncation
that follows a checkpoint, if that mutation checkpoints: the checkpoint
is on disk, the old journal is not yet emptied.  Recovery must land on
the state before that mutation when the journal held records, and on the
state after it when the journal was empty (the checkpoint then absorbed
the mutation, with nothing to replay over it).
"""

import copy
import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence import CursorStore
from repro.persistence import cursors as cursors_module

names = st.sampled_from(["a", "b", "c", "d"])
operations = st.lists(st.one_of(
    st.tuples(st.just("register"), names, st.sampled_from(["p", "q", None]),
              st.booleans(), st.booleans()),
    st.tuples(st.just("advance"), names, st.integers(0, 40), st.booleans()),
    st.tuples(st.just("annotate"), names, st.integers(0, 9)),
    st.tuples(st.just("remove"), names),
    st.tuples(st.just("prune"), st.integers(1, 3)),
    st.tuples(st.just("clamp"), st.integers(0, 40)),
    st.tuples(st.just("die-at-truncation")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("crash"), st.integers(0, 1 << 16)),
), max_size=40)


class Model:
    """The store's semantics on a plain dict, written out directly."""

    def __init__(self):
        self.entries = {}

    def apply(self, op, incarnation):
        kind = op[0]
        if kind == "register":
            _, name, peer, touch, fetch = op
            entry = self.entries.setdefault(name, {"offset": 0})
            entry["peer_id"] = peer
            entry["description"] = "<%s/>" % name
            if fetch:
                entry["origin"] = "s1"
                entry["base"] = "root"
            if touch:
                entry["last_active"] = incarnation
        elif kind == "advance":
            _, name, offset, touch = op
            entry = self.entries.setdefault(
                name, {"offset": 0, "peer_id": None, "description": None})
            if touch:
                entry["last_active"] = incarnation
            entry["offset"] = max(entry["offset"], offset)
        elif kind == "annotate":
            self.entries[op[1]]["floor"] = op[2]
        elif kind == "remove":
            self.entries.pop(op[1], None)
        elif kind == "prune":
            for name in [name for name, entry in self.entries.items()
                         if incarnation - entry.get("last_active", 0)
                         >= op[1]]:
                del self.entries[name]
        elif kind == "clamp":
            for entry in self.entries.values():
                if "origin" not in entry:
                    entry["offset"] = min(entry["offset"], op[1])


def run(store, op):
    kind = op[0]
    if kind == "register":
        _, name, peer, touch, fetch = op
        store.register(name, peer_id=peer, description="<%s/>" % name,
                       touch=touch, origin="s1" if fetch else None,
                       base="root" if fetch else None)
    elif kind == "advance":
        store.advance(op[1], op[2], touch=op[3])
    elif kind == "annotate":
        store.annotate(op[1], floor=op[2])
    elif kind == "remove":
        store.remove(op[1])
    elif kind == "clamp":
        store.clamp(op[1])
    else:
        store.prune(op[1])


class Crash(Exception):
    pass


def run_dying_at_truncation(store, op):
    """Run ``op`` with the journal truncation raising; returns whether
    it was reached (that is, whether ``op`` checkpointed)."""
    def die(descriptor, length):
        raise Crash()

    real_ftruncate = os.ftruncate
    os.ftruncate = die
    try:
        run(store, op)
    except Crash:
        return True
    finally:
        os.ftruncate = real_ftruncate
    return False


def contents(store):
    return {name: store.entry(name) for name in store.names()}


def journal_size(directory):
    path = os.path.join(directory, "cursors.log")
    return os.path.getsize(path) if os.path.exists(path) else 0


class TestCursorJournalModel:
    @settings(max_examples=100, deadline=None)
    @given(operations, st.sampled_from([2, 5, 512]))
    def test_store_matches_dict_model(self, ops, checkpoint_every):
        saved = cursors_module._CHECKPOINT_EVERY
        cursors_module._CHECKPOINT_EVERY = checkpoint_every
        root = tempfile.mkdtemp()
        directory = os.path.join(root, "0")
        store = CursorStore(os.path.join(directory, "cursors.json"))
        try:
            model = Model()
            # The incarnation the last checkpoint stored, and (end, model
            # state) at each intact record boundary of the journal file,
            # starting with its empty prefix (the checkpoint itself).
            stored_incarnation = 0
            boundaries = [(0, copy.deepcopy(model.entries))]
            die_next = False
            for step, op in enumerate(ops):
                if op[0] == "die-at-truncation":
                    die_next = True
                    continue
                if op[0] in ("reopen", "crash"):
                    fresh = os.path.join(root, str(step + 1))
                    if op[0] == "reopen":
                        checkpoints = store.checkpoints
                        store.close()
                        if store.checkpoints != checkpoints:
                            stored_incarnation = store.incarnation
                            boundaries = [(0, copy.deepcopy(model.entries))]
                        shutil.copytree(directory, fresh)
                    else:
                        shutil.copytree(directory, fresh)
                        store.close()
                        cut = op[1] % (journal_size(fresh) + 1)
                        if os.path.exists(os.path.join(fresh, "cursors.log")):
                            with open(os.path.join(fresh, "cursors.log"),
                                      "r+b") as handle:
                                handle.truncate(cut)
                        boundaries = [(end, state) for end, state
                                      in boundaries if end <= cut]
                        model.entries = copy.deepcopy(boundaries[-1][1])
                    directory = fresh
                    store = CursorStore(os.path.join(directory,
                                                     "cursors.json"))
                    assert store.incarnation == stored_incarnation + 1
                    assert store.journal_torn == \
                        (journal_size(directory) != boundaries[-1][0])
                    assert contents(store) == model.entries
                    continue
                if op[0] == "annotate" and op[1] not in model.entries:
                    try:
                        store.annotate(op[1], floor=op[2])
                    except KeyError:
                        continue
                    raise AssertionError("annotate created a cursor")
                checkpoints = store.checkpoints
                before = copy.deepcopy(model.entries)
                journal_before = journal_size(directory)
                if die_next:
                    die_next = False
                    if run_dying_at_truncation(store, op):
                        model.apply(op, store.incarnation)
                        stored_incarnation = store.incarnation
                        if journal_before:
                            model.entries = before
                        boundaries = [(end, copy.deepcopy(model.entries))
                                      for end, _ in boundaries]
                        fresh = os.path.join(root, str(step + 1))
                        shutil.copytree(directory, fresh)
                        store.close()
                        directory = fresh
                        store = CursorStore(os.path.join(directory,
                                                         "cursors.json"))
                        assert store.incarnation == stored_incarnation + 1
                        assert contents(store) == model.entries
                        continue
                else:
                    run(store, op)
                model.apply(op, store.incarnation)
                assert contents(store) == model.entries
                if store.checkpoints != checkpoints:
                    # The checkpoint took the state before ``op`` and
                    # journaled ``op`` after it — or, over an empty
                    # journal, absorbed ``op`` itself.
                    stored_incarnation = store.incarnation
                    boundaries = [(0, before)] \
                        if journal_size(directory) else []
                    boundaries.append((journal_size(directory),
                                       copy.deepcopy(model.entries)))
                elif journal_size(directory) != journal_before:
                    boundaries.append((journal_size(directory),
                                       copy.deepcopy(model.entries)))
        finally:
            store.close()
            cursors_module._CHECKPOINT_EVERY = saved
            shutil.rmtree(root)
