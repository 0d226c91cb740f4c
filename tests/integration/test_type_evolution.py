"""Type evolution scenarios: the "dynamic environment where new events of
new types can be put into the system through remote locations at runtime"
(Section 3.1), including version drift between peers."""

import pytest

from repro.core import ConformanceChecker, ConformanceOptions, Verdict
from repro.cts.assembly import Assembly
from repro.describe.xml_codec import description_bytes
from repro.fixtures import person_java
from repro.langs.csharp import compile_source
from repro.net.codeserver import KIND_GET_DESCRIPTION
from repro.net.network import SimulatedNetwork
from repro.transport.protocol import InteropPeer

PERSON_V1 = """
class Person {
    private string name;
    public Person(string n) { this.name = n; }
    public string GetName() { return this.name; }
    public void SetName(string n) { this.name = n; }
}
"""

# V2 adds a field and a method (backwards-compatible extension).
PERSON_V2 = """
class Person {
    private string name;
    private int age;
    public Person(string n) { this.name = n; this.age = 0; }
    public string GetName() { return this.name; }
    public void SetName(string n) { this.name = n; }
    public int GetAge() { return this.age; }
    public void SetAge(int a) { this.age = a; }
}
"""


def v1_type():
    return compile_source(PERSON_V1, namespace="app", assembly_name="app-v1")[0]


def v2_type():
    return compile_source(PERSON_V2, namespace="app", assembly_name="app-v2")[0]


class TestVersionConformance:
    def test_v2_conforms_to_v1(self):
        """Extension is safe in the provider position: a V2 object can be
        used where V1 is expected."""
        checker = ConformanceChecker()
        result = checker.conforms(v2_type(), v1_type())
        assert result.ok
        assert result.verdict is Verdict.IMPLICIT_STRUCTURAL

    def test_v1_does_not_conform_to_v2(self):
        """But not the other way: V1 cannot satisfy V2's new members."""
        checker = ConformanceChecker()
        result = checker.conforms(v1_type(), v2_type())
        assert not result.ok
        assert any("GetAge" in f for f in result.failures)

    def test_versions_have_distinct_identities(self):
        assert v1_type().guid != v2_type().guid


class TestVersionedExchange:
    def test_new_version_flows_to_old_peer(self):
        """An upgraded publisher keeps serving a V1-expecting subscriber:
        the V2 object arrives and is usable as V1."""
        network = SimulatedNetwork()
        publisher = InteropPeer("publisher", network)
        subscriber = InteropPeer("subscriber", network)
        publisher.host_assembly(Assembly("app-v2", [v2_type()]))
        subscriber.declare_interest(v1_type())

        person = publisher.new_instance("app.Person", ["Upgraded"])
        person.invoke("SetAge", 30)
        publisher.send("subscriber", person)

        received = subscriber.inbox[0]
        assert received.accepted
        assert received.view.GetName() == "Upgraded"
        # The raw value still carries V2 state, even though the view is V1.
        assert received.value.fields["age"] == 30

    def test_old_version_rejected_by_new_expectation(self):
        network = SimulatedNetwork()
        publisher = InteropPeer("publisher", network)
        subscriber = InteropPeer("subscriber", network)
        publisher.host_assembly(Assembly("app-v1", [v1_type()]))
        subscriber.declare_interest(v2_type())

        publisher.send("subscriber", publisher.new_instance("app.Person", ["Old"]))
        assert not subscriber.inbox[0].accepted
        assert subscriber.transport_stats.assemblies_fetched == 0  # no code wasted

    def test_both_versions_coexist_on_one_peer(self):
        """Same full name, different identities: the receiver holds both
        versions' code simultaneously (GUIDs disambiguate)."""
        network = SimulatedNetwork()
        publisher1 = InteropPeer("p1", network)
        publisher2 = InteropPeer("p2", network)
        subscriber = InteropPeer("subscriber", network,
                                 options=ConformanceOptions.pragmatic())
        publisher1.host_assembly(Assembly("app-v1", [v1_type()]))
        publisher2.host_assembly(Assembly("app-v2", [v2_type()]))
        subscriber.declare_interest(person_java())

        publisher1.send("subscriber", publisher1.new_instance("app.Person", ["One"]))
        publisher2.send("subscriber", publisher2.new_instance("app.Person", ["Two"]))

        assert [r.view.getPersonName() for r in subscriber.inbox] == ["One", "Two"]
        # Each object carries its own version's identity — the second was
        # NOT silently decoded as the first version.
        first, second = (r.value.type_info for r in subscriber.inbox)
        assert first.guid == v1_type().guid
        assert second.guid == v2_type().guid
        assert subscriber.transport_stats.assemblies_fetched == 2

    def test_new_type_introduced_at_runtime(self):
        """The headline dynamic scenario: a type that did not exist when
        the receiver started is introduced, described, checked and run."""
        network = SimulatedNetwork()
        sender = InteropPeer("sender", network, options=ConformanceOptions.pragmatic())
        receiver = InteropPeer("receiver", network, options=ConformanceOptions.pragmatic())
        receiver.declare_interest(person_java())

        # Authored "at runtime", long after both peers exist.
        brand_new = compile_source(
            """
            class Person {
                private string name;
                public Person(string n) { this.name = n; }
                public string GetPersonName() { return this.name; }
                public void SetPersonName(string n) { this.name = n; }
            }
            """,
            namespace="runtime.fresh",
        )[0]
        sender.host_assembly(Assembly("fresh", [brand_new]))
        sender.send("receiver", sender.new_instance("runtime.fresh.Person", ["Hot"]))
        assert receiver.inbox[0].view.getPersonName() == "Hot"


class TestDescriptionIdentity:
    """A description stands for one version of a type: it is looked up
    by the GUID the envelope names, never by the type's name alone."""

    def v2_shaped_subscriber(self, network):
        subscriber = InteropPeer("subscriber", network,
                                 options=ConformanceOptions.pragmatic())
        subscriber.declare_interest(compile_source(
            PERSON_V2, namespace="sub", assembly_name="sub")[0])
        return subscriber

    def test_second_version_is_judged_on_its_own_description(self):
        """V2 arrives first and is accepted; V1 from another publisher
        shares V2's name but not its members, and is rejected on V1's own
        description, with no code fetched for it."""
        network = SimulatedNetwork()
        publisher1 = InteropPeer("p1", network)
        publisher2 = InteropPeer("p2", network)
        publisher1.host_assembly(Assembly("app-v1", [v1_type()]))
        publisher2.host_assembly(Assembly("app-v2", [v2_type()]))
        subscriber = self.v2_shaped_subscriber(network)

        publisher2.send("subscriber",
                        publisher2.new_instance("app.Person", ["Two"]))
        publisher1.send("subscriber",
                        publisher1.new_instance("app.Person", ["One"]))

        assert [r.accepted for r in subscriber.inbox] == [True, False]
        assert subscriber.inbox[0].view.GetAge() == 0
        assert subscriber.transport_stats.descriptions_fetched == 2
        assert subscriber.transport_stats.assemblies_fetched == 1

    def test_description_of_another_version_cannot_describe(self):
        """A sender that answers with another version's description has
        not described the type it sent: nothing is delivered and no code
        is fetched."""
        network = SimulatedNetwork()
        publisher = InteropPeer("p1", network)
        publisher.host_assembly(Assembly("app-v1", [v1_type()]))
        publisher.on(KIND_GET_DESCRIPTION,
                     lambda payload, src: description_bytes(v2_type()))
        subscriber = self.v2_shaped_subscriber(network)

        publisher.send("subscriber",
                       publisher.new_instance("app.Person", ["One"]))

        assert subscriber.inbox == []
        assert "cannot describe" in network.handler_error_log[0][2]
        assert subscriber.transport_stats.assemblies_fetched == 0
