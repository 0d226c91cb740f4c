"""Tests for the optimistic transport protocol (Figure 1)."""

import pytest

from repro.core import ConformanceOptions
from repro.cts.assembly import Assembly
from repro.fixtures import (
    account_csharp,
    employee_assembly_pair,
    person_assembly_pair,
    person_java,
)
from repro.net.network import SimulatedNetwork
from repro.transport.protocol import InteropPeer, ProtocolError, TransportStats


@pytest.fixture
def world():
    network = SimulatedNetwork()
    sender = InteropPeer("sender", network, options=ConformanceOptions.pragmatic())
    receiver = InteropPeer("receiver", network, options=ConformanceOptions.pragmatic())
    asm_a, _ = person_assembly_pair()
    sender.host_assembly(asm_a)
    return network, sender, receiver


class TestHappyPath:
    def test_first_object_triggers_description_and_code(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.send("receiver", sender.new_instance("demo.a.Person", ["One"]))
        assert receiver.transport_stats.descriptions_fetched == 1
        assert receiver.transport_stats.assemblies_fetched == 1
        received = receiver.inbox[0]
        assert received.accepted
        assert received.view.getPersonName() == "One"

    def test_repeat_sends_are_free(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        for name in ["A", "B", "C"]:
            sender.send("receiver", sender.new_instance("demo.a.Person", [name]))
        assert receiver.transport_stats.descriptions_fetched == 1
        assert receiver.transport_stats.assemblies_fetched == 1
        assert [r.view.getPersonName() for r in receiver.inbox] == ["A", "B", "C"]

    def test_network_kind_breakdown(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.send("receiver", sender.new_instance("demo.a.Person", ["X"]))
        kinds = network.stats.by_kind_messages
        assert kinds["object"] == 1
        assert kinds["get_description"] == 1
        assert kinds["get_assembly"] == 1

    def test_no_interest_delivers_raw(self, world):
        _, sender, receiver = world
        sender.send("receiver", sender.new_instance("demo.a.Person", ["Raw"]))
        received = receiver.inbox[0]
        assert received.accepted
        assert received.interest is None
        assert received.view.GetName() == "Raw"  # provider surface, no proxy

    def test_known_type_skips_everything(self, world):
        _, sender, receiver = world
        asm_a, _ = person_assembly_pair()
        receiver.host_assembly(asm_a)  # receiver already has the code
        sender.send("receiver", sender.new_instance("demo.a.Person", ["K"]))
        assert receiver.transport_stats.descriptions_fetched == 0
        assert receiver.transport_stats.assemblies_fetched == 0
        assert receiver.inbox[0].view.GetName() == "K"

    def test_on_receive_callback(self, world):
        _, sender, receiver = world
        seen = []
        receiver.on_receive(lambda r: seen.append(r.type_name))
        sender.send("receiver", sender.new_instance("demo.a.Person", ["cb"]))
        assert seen == ["demo.a.Person"]


class TestRejection:
    def test_nonconformant_rejected_without_code_download(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.host_assembly(Assembly("bank", [account_csharp()]))
        sender.send("receiver", sender.new_instance("demo.bank.Account", ["o", 9]))
        received = receiver.inbox[0]
        assert not received.accepted
        assert received.value is None
        assert receiver.transport_stats.objects_rejected == 1
        # The optimistic win: description fetched, code NOT fetched.
        assert receiver.transport_stats.descriptions_fetched == 1
        assert receiver.transport_stats.assemblies_fetched == 0

    def test_rejection_saves_bytes(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.host_assembly(Assembly("bank", [account_csharp()]))

        network.reset_accounting()
        sender.send("receiver", sender.new_instance("demo.bank.Account", ["o", 9]))
        rejected_bytes = network.stats.bytes_sent

        network.reset_accounting()
        sender.send("receiver", sender.new_instance("demo.a.Person", ["ok"]))
        accepted_bytes = network.stats.bytes_sent
        assert rejected_bytes < accepted_bytes


class TestMultiTypeGraphs:
    def test_nested_object_downloads_one_assembly(self):
        network = SimulatedNetwork()
        sender = InteropPeer("sender", network, options=ConformanceOptions.pragmatic())
        receiver = InteropPeer("receiver", network, options=ConformanceOptions.pragmatic())
        hr_a, hr_b = employee_assembly_pair()
        sender.host_assembly(hr_a)
        receiver.declare_interest(hr_b.find_type("demo.b.Employee"))

        address = sender.new_instance("demo.a.Address", ["1 Rue", "Geneva"])
        employee = sender.new_instance("demo.a.Employee", ["Zoe", address])
        sender.send("receiver", employee)

        received = receiver.inbox[0]
        assert received.accepted
        # One assembly covers both Employee and Address.
        assert receiver.transport_stats.assemblies_fetched == 1
        assert received.view.getName() == "Zoe"
        assert received.view.getAddress().getCity() == "Geneva"


class TestCodeSourceFallback:
    def test_repository_fallback(self):
        """Sender that cannot serve code; receiver falls back to the
        configured code repository peer."""
        from repro.net.codeserver import CodeRepository

        network = SimulatedNetwork()
        repo = CodeRepository("repo", network)
        asm_a, _ = person_assembly_pair()
        repo.publish(asm_a)

        # Sender loads types into its runtime but does NOT host the assembly.
        sender = InteropPeer("sender", network, options=ConformanceOptions.pragmatic())
        sender.runtime.load_assembly(asm_a)

        receiver = InteropPeer(
            "receiver", network,
            options=ConformanceOptions.pragmatic(),
            code_source="repo",
        )
        receiver.declare_interest(person_java())
        sender.send("receiver", sender.new_instance("demo.a.Person", ["ViaRepo"]))
        assert receiver.inbox[0].view.getPersonName() == "ViaRepo"

    def test_missing_code_everywhere_fails_on_receiver_only(self):
        """The receiver cannot materialise the object — that failure is the
        receiver's (counted by the network), not an exception inside the
        sender's call stack."""
        network = SimulatedNetwork()
        sender = InteropPeer("sender", network)
        receiver = InteropPeer("receiver", network)
        asm_a, _ = person_assembly_pair()
        sender.runtime.load_assembly(asm_a)  # not hosted, no repo configured
        sender.send("receiver", sender.new_instance("demo.a.Person", ["x"]))
        assert receiver.inbox == []  # nothing delivered
        assert network.stats.handler_errors == 1
        assert "ProtocolError" in network.handler_error_log[0][2]

    def test_receive_envelope_raises_without_code(self):
        """Called directly (not through the one-way fabric), the protocol
        error is still visible to the embedding code."""
        network = SimulatedNetwork()
        sender = InteropPeer("sender", network)
        receiver = InteropPeer("receiver", network)
        asm_a, _ = person_assembly_pair()
        sender.runtime.load_assembly(asm_a)
        envelope = receiver.codec.parse(
            sender.codec.encode(sender.new_instance("demo.a.Person", ["x"]))
        )
        with pytest.raises(ProtocolError):
            receiver.receive_envelope(envelope, "sender")


class TestCodePropagation:
    def test_peer_reserves_downloaded_assemblies(self, world):
        """After downloading code, a peer can serve it onward (needed by
        brokers)."""
        network, sender, receiver = world
        sender.send("receiver", sender.new_instance("demo.a.Person", ["Hop1"]))

        third = InteropPeer("third", network, options=ConformanceOptions.pragmatic())
        third.declare_interest(person_java())
        # receiver (not the original sender) forwards the object onward.
        receiver.send("third", receiver.inbox[0].value)
        assert third.inbox[0].view.getPersonName() == "Hop1"


class TestSoapEncoding:
    def test_protocol_over_soap_payloads(self):
        network = SimulatedNetwork()
        sender = InteropPeer("sender", network, encoding="soap",
                             options=ConformanceOptions.pragmatic())
        receiver = InteropPeer("receiver", network, encoding="soap",
                               options=ConformanceOptions.pragmatic())
        asm_a, _ = person_assembly_pair()
        sender.host_assembly(asm_a)
        receiver.declare_interest(person_java())
        sender.send("receiver", sender.new_instance("demo.a.Person", ["Soapy"]))
        assert receiver.inbox[0].view.getPersonName() == "Soapy"


class TestBatchDelivery:
    """send_batch / send_payload_batch: k values, one network message."""

    def test_batch_is_one_message(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        events = [sender.new_instance("demo.a.Person", ["b%d" % i])
                  for i in range(10)]
        sender.send_batch("receiver", events)
        assert receiver.inbox == []  # queue-driven: nothing ran inline
        network.run_until_idle()
        assert [r.view.getPersonName() for r in receiver.inbox] == \
            ["b%d" % i for i in range(10)]
        assert network.stats.by_kind_messages["object_batch"] == 1
        assert sender.transport_stats.batches_sent == 1
        assert sender.transport_stats.objects_sent == 10
        assert receiver.transport_stats.batches_received == 1
        assert receiver.transport_stats.objects_received == 10

    def test_batch_cheaper_than_k_sends(self, world):
        """The batch costs fewer bytes than the same events sent one by
        one (shared envelope header + shared intern table)."""
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        events = [sender.new_instance("demo.a.Person", ["c%d" % i])
                  for i in range(10)]
        for event in events:
            sender.send("receiver", event)
        single_bytes = network.stats.by_kind_bytes["object"]
        network.reset_accounting()
        sender.send_batch("receiver", events)
        network.run_until_idle()
        batch_bytes = network.stats.by_kind_bytes["object_batch"]
        assert batch_bytes < single_bytes / 2

    def test_batch_fetches_code_once(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.send_batch("receiver", [
            sender.new_instance("demo.a.Person", ["x%d" % i]) for i in range(5)
        ])
        network.run_until_idle()
        assert receiver.transport_stats.assemblies_fetched == 1
        assert all(r.accepted for r in receiver.inbox)

    def test_mixed_batch_rejects_per_value(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.host_assembly(Assembly("bank", [account_csharp()]))
        sender.send_batch("receiver", [
            sender.new_instance("demo.bank.Account", ["o", 1]),
            sender.new_instance("demo.a.Person", ["keep"]),
        ])
        network.run_until_idle()
        assert receiver.transport_stats.objects_rejected == 1
        accepted = [r for r in receiver.inbox if r.accepted]
        assert len(accepted) == 1
        assert accepted[0].view.getPersonName() == "keep"

    def test_payload_batch_reuse_across_destinations(self, world):
        """A broker encodes the batch once and posts the same bytes to
        every destination peer."""
        network, sender, receiver = world
        second = InteropPeer("second", network,
                             options=ConformanceOptions.pragmatic())
        receiver.declare_interest(person_java())
        second.declare_interest(person_java())
        events = [sender.new_instance("demo.a.Person", ["d%d" % i])
                  for i in range(3)]
        payload = sender.codec.encode_batch(events)
        sender.send_payload_batch("receiver", payload, len(events))
        sender.send_payload_batch("second", payload, len(events))
        network.run_until_idle()
        assert len(receiver.inbox) == 3 and len(second.inbox) == 3
        assert sender.transport_stats.objects_sent == 6
        assert sender.transport_stats.batches_sent == 2

    def test_send_async_defers_receive(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.send_async("receiver", sender.new_instance("demo.a.Person", ["a"]))
        assert receiver.inbox == []
        network.run_until_idle()
        assert receiver.inbox[0].view.getPersonName() == "a"


class TestDeprecatedStatsAlias:
    def test_stats_alias_removed_after_deprecation_cycle(self, world):
        """The PR-3 DeprecationWarning shipped for one release; the alias
        is now gone — transport_stats is the only counters surface."""
        network, sender, receiver = world
        assert not hasattr(receiver, "stats")
        assert receiver.transport_stats.objects_received == 0


class TestDeliveryAck:
    """Batches carrying an ack token are acknowledged automatically."""

    def test_ack_token_echoed_to_sender(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        events = [sender.new_instance("demo.a.Person", ["a%d" % i])
                  for i in range(3)]
        payload = sender.codec.encode_batch(events, ack="token-42")
        sender.send_payload_batch("receiver", payload, len(events))

        acks = []
        sender.on("delivery_ack", lambda p, src: acks.append((p, src)) or b"OK")
        network.run_until_idle()
        assert acks == [(b"token-42", "receiver")]
        assert network.stats.by_kind_messages["delivery_ack"] == 1

    def test_no_token_no_ack(self, world):
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.send_batch("receiver", [
            sender.new_instance("demo.a.Person", ["plain"])])
        network.run_until_idle()
        assert "delivery_ack" not in network.stats.by_kind_messages


class TestRunAdmission:
    """A multi-value frame is admitted one same-type run at a time: one
    verdict and one decode call per run, nothing decoded for a rejected
    run, and every value still delivered on its own, in frame order."""

    @staticmethod
    def _known_world(world):
        """Both Person and Account registered at the receiver (an eager
        batch fetched their code), so later frames take the lazy path."""
        network, sender, receiver = world
        receiver.declare_interest(person_java())
        sender.host_assembly(Assembly("bank", [account_csharp()]))
        sender.send_batch("receiver", [
            sender.new_instance("demo.bank.Account", ["w", 0]),
            sender.new_instance("demo.a.Person", ["w"])])
        network.run_until_idle()
        receiver.inbox.clear()
        receiver.codec.stats.decodes = 0
        receiver.transport_stats = TransportStats()
        return network, sender, receiver

    @staticmethod
    def _frame(sender, kinds, ack=None):
        values = [sender.new_instance("demo.a.Person", ["p%d" % index])
                  if kind == "A" else
                  sender.new_instance("demo.bank.Account", ["a%d" % index,
                                                            index])
                  for index, kind in enumerate(kinds)]
        return sender.codec.wrap_batch(values, ack=ack)

    def _receive(self, world, kinds, ack=None):
        """Deliver one frame of ``kinds``; per delivered value, the
        receiver's decode count when it was delivered."""
        network, sender, receiver = world
        seen = []
        receiver.on_receive(
            lambda received: seen.append(receiver.codec.stats.decodes))
        envelope = self._frame(sender, kinds, ack)
        receiver._receive_batch_frame(
            sender.codec.envelope_to_bytes(envelope), "sender")
        return seen

    def test_a_rejected_run_decodes_nothing(self, world):
        network, sender, receiver = self._known_world(world)
        assert self._receive(world, "BBBB") == [0, 0, 0, 0]
        assert receiver.codec.stats.decodes == 0
        assert receiver.transport_stats.objects_rejected == 4
        assert not any(received.accepted for received in receiver.inbox)

    def test_only_the_needed_prefix_decodes(self, world):
        network, sender, receiver = self._known_world(world)
        # A A: one call decodes the run; B: nothing; A: values 2 and 3
        # (value 2 only because the frame shares one intern table).
        assert self._receive(world, "AABA") == [2, 2, 2, 4]
        assert receiver.codec.stats.decodes == 4
        assert [received.accepted for received in receiver.inbox] == \
            [True, True, False, True]
        assert [received.view.getPersonName()
                for received in receiver.inbox if received.accepted] == \
            ["p0", "p1", "p3"]
        receiver.inbox.clear()
        receiver.codec.stats.decodes = 0
        # A trailing rejected run decodes nothing.
        assert self._receive(world, "AABB") == [2, 2, 2, 2]

    def test_a_handler_declaring_an_interest_splits_the_run(self, world):
        network, sender, receiver = self._known_world(world)
        interests = []

        def declare_account(received):
            if not interests:
                interests.append(account_csharp())
                receiver.declare_interest(interests[0])

        receiver.on_receive(declare_account)
        self._receive(world, "BBB")
        # Value 0 was rejected before the Account interest existed; the
        # rest of its run is admitted afresh, as the new interest.
        assert [received.interest for received in receiver.inbox] == \
            [None, interests[0], interests[0]]
        assert receiver.transport_stats.objects_rejected == 1

    def test_a_corrupt_value_delivers_the_prefix_then_raises(self, world):
        from repro.serialization.binary import BatchDecoder
        from repro.serialization.errors import WireFormatError
        network, sender, receiver = self._known_world(world)
        envelope = self._frame(sender, "AAAA", ack="token-7")
        payload = bytearray(envelope.payload)
        decoder = BatchDecoder(receiver.codec._binary, bytes(payload))
        decoder.decode_to(2)
        payload[decoder._pos] = 0xEE  # value 2 starts with no known tag
        envelope.payload = bytes(payload)
        with pytest.raises(WireFormatError):
            receiver._receive_batch_frame(
                sender.codec.envelope_to_bytes(envelope), "sender")
        assert [received.view.getPersonName()
                for received in receiver.inbox] == ["p0", "p1"]
        assert receiver.transport_stats.objects_received == 3
        assert receiver.codec.stats.decodes == 2
        network.run_until_idle()
        assert "delivery_ack" not in network.stats.by_kind_messages
