"""Tests for the epoch-versioned Topology value object and MeshConfig —
the unified construction surface of the three mesh runners."""

import inspect
import os

import pytest

from repro.apps.tps import BrokerMesh
from repro.apps.tps.topology import MeshConfig, Topology, rendezvous_shard
from repro.net.network import SimulatedNetwork


class TestTopology:
    def test_sized_names_shards_at_epoch_one(self):
        topology = Topology.sized(3, "demo")
        assert topology.shard_ids == ["demo-shard0", "demo-shard1",
                                      "demo-shard2"]
        assert topology.epoch == 1
        assert topology.departed == ()
        assert len(topology) == 3
        assert "demo-shard1" in topology
        assert list(topology) == topology.shard_ids

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology([])
        with pytest.raises(ValueError):
            Topology(["a", "a"])
        with pytest.raises(ValueError):
            Topology(["a"], epoch=0)
        with pytest.raises(ValueError):
            Topology(["a", "b"], departed=["b"])
        with pytest.raises(ValueError):
            Topology.sized(0)

    def test_with_shard_bumps_epoch_and_keeps_old_view(self):
        before = Topology.sized(2, "m")
        after = before.with_shard()
        assert after.epoch == before.epoch + 1
        assert after.shard_ids == ["m-shard0", "m-shard1", "m-shard2"]
        # The old value is untouched: holders keep a consistent view.
        assert before.shard_ids == ["m-shard0", "m-shard1"]
        assert before.epoch == 1

    def test_without_shard_retires_the_id(self):
        before = Topology.sized(3, "m")
        after = before.without_shard("m-shard1")
        assert after.epoch == 2
        assert after.shard_ids == ["m-shard0", "m-shard2"]
        assert after.departed == ("m-shard1",)
        # A departed id stays retired: rejoining under it is an error,
        # and the auto-generated next id skips it.
        with pytest.raises(ValueError):
            after.with_shard("m-shard1")
        assert after.next_shard_id() == "m-shard3"
        assert after.with_shard().shard_ids[-1] == "m-shard3"

    def test_membership_transition_errors(self):
        topology = Topology.sized(2, "m")
        with pytest.raises(ValueError):
            topology.with_shard("m-shard0")  # already live
        with pytest.raises(ValueError):
            topology.without_shard("m-shard9")  # unknown
        only = Topology(["solo"])
        with pytest.raises(ValueError):
            only.without_shard("solo")  # cannot empty the mesh

    def test_shard_for_matches_rendezvous(self):
        topology = Topology.sized(4, "m")
        for key in ("alice", "bob", "publisher-17"):
            assert topology.shard_for(key) == \
                rendezvous_shard(key, topology.shard_ids)
            assert topology.rank(key)[0] == topology.shard_for(key)

    def test_rehomed_is_the_minimal_migration_set(self):
        before = Topology.sized(4, "m")
        after = before.with_shard()
        keys = ["peer%03d" % index for index in range(200)]
        moved = before.rehomed(keys, after)
        # Everything that moved now lives on the newcomer, and the
        # fraction is roughly 1/N of the key space.
        for key in moved:
            assert after.shard_for(key) == "m-shard4"
        assert 0 < len(moved) < len(keys) // 2

    def test_delta(self):
        before = Topology.sized(2, "m")
        after = before.with_shard().without_shard("m-shard0")
        delta = before.delta(after)
        assert delta == {"from_epoch": 1, "to_epoch": 3,
                         "added": ["m-shard2"], "removed": ["m-shard0"]}

    def test_dict_roundtrip_and_equality(self):
        topology = Topology.sized(3, "m").without_shard("m-shard2")
        clone = Topology.from_dict(topology.as_dict())
        assert clone == topology
        assert clone.epoch == topology.epoch
        assert clone.departed == topology.departed
        assert clone != topology.with_shard()


class TestMeshConfig:
    def test_topology_with_shard_count_is_rejected(self):
        """``shard_count=`` is gone, so passing it beside ``topology=``
        is an unknown keyword, not a conflict to resolve."""
        with pytest.raises(TypeError):
            MeshConfig(topology=Topology.sized(2), shard_count=2)

    def test_mesh_config_rejects_shard_count(self):
        """``topology=`` is the only way to size a mesh."""
        with pytest.raises(TypeError):
            MeshConfig(shard_count=3, name="m")

    def test_runners_reject_shard_count(self, tmp_path):
        """Every runner rejects the removed ``shard_count=`` outright —
        ProcessMesh in the driver, before any shard process starts."""
        from repro.apps.tps.procmesh import ProcessMesh, SocketMesh
        with pytest.raises(TypeError):
            BrokerMesh(SimulatedNetwork(), shard_count=2)
        for runner in (SocketMesh, ProcessMesh):
            with pytest.raises(TypeError):
                runner(shard_count=2, sock_dir=str(tmp_path))
        assert os.listdir(str(tmp_path)) == []

    def test_accepts_wire_shape(self):
        topology = Topology.sized(2, "m")
        config = MeshConfig(topology=topology.as_dict())
        assert config.topology == topology

    def test_rejects_non_topology(self):
        with pytest.raises(TypeError):
            MeshConfig(topology=3)

    def test_default_is_four_shards(self):
        assert len(MeshConfig().topology) == 4

    def test_replication_factor_bounds(self):
        with pytest.raises(ValueError):
            MeshConfig(topology=Topology.sized(2), replication_factor=-1)
        with pytest.raises(ValueError):
            MeshConfig(topology=Topology.sized(2), replication_factor=2)
        with pytest.raises(ValueError):
            MeshConfig(topology=Topology.sized(3), replication_factor=1)

    def test_unified_constructor_signatures(self):
        """All three mesh runners expose the same membership keywords —
        the drift MeshConfig exists to prevent."""
        from repro.apps.tps.procmesh import ProcessMesh, SocketMesh
        for runner in (BrokerMesh, SocketMesh, ProcessMesh):
            parameters = inspect.signature(runner.__init__).parameters
            for keyword in ("topology", "name", "log_root",
                            "replication_factor"):
                assert keyword in parameters, \
                    "%s.__init__ lost %s=" % (runner.__name__, keyword)

    def test_broker_mesh_takes_topology(self):
        topology = Topology.sized(2, "m")
        mesh = BrokerMesh(SimulatedNetwork(), topology=topology)
        try:
            assert mesh.shard_ids == topology.shard_ids
            assert mesh.epoch == 1
        finally:
            mesh.close()



class TestSocketDirectoryLifetime:
    """A socket runner removes the socket directory it created when it
    closes, and leaves a caller's directory alone."""

    def test_socket_mesh(self, tmp_path):
        from repro.apps.tps.procmesh import SocketMesh
        mesh = SocketMesh(topology=Topology.sized(2))
        created = mesh.sock_dir
        assert os.path.isdir(created)
        mesh.close()
        assert not os.path.exists(created)
        mesh = SocketMesh(topology=Topology.sized(2),
                          sock_dir=str(tmp_path))
        mesh.close()
        assert os.path.isdir(str(tmp_path))

    def test_process_mesh(self, tmp_path):
        from repro.apps.tps.procmesh import ProcessMesh
        mesh = ProcessMesh(topology=Topology.sized(1), http=False)
        created = mesh.sock_dir
        assert os.path.isdir(created)
        mesh.stop()
        assert not os.path.exists(created)
        mesh = ProcessMesh(topology=Topology.sized(1), http=False,
                           sock_dir=str(tmp_path))
        mesh.stop()
        assert os.path.isdir(str(tmp_path))
