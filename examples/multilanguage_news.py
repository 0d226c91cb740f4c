#!/usr/bin/env python3
"""Multi-language type-based publish/subscribe over the optimistic protocol.

Three organisations author "the same" NewsEvent module independently — in
C#-like, Java-like and VB-like syntax, with different accessor spellings.
A broker routes events by *type conformance*: every subscriber receives
every conformant event as its own expected type, and the code of unknown
event types travels on demand (Figure 1).

Run:  python examples/multilanguage_news.py
"""

from repro import Assembly, SimulatedNetwork
from repro.apps.tps import TpsBroker, TpsPeer
from repro.langs.csharp import compile_source as compile_csharp
from repro.langs.java import compile_source as compile_java
from repro.langs.vb import compile_source as compile_vb

CSHARP_NEWS = """
class NewsEvent {
    private string headline;
    private string body;
    public NewsEvent(string h, string b) { this.headline = h; this.body = b; }
    public string GetHeadline() { return this.headline; }
    public string GetBody() { return this.body; }
}
"""

JAVA_NEWS = """
class NewsEvent {
    private String headline;
    private String body;
    public NewsEvent(String h, String b) { this.headline = h; this.body = b; }
    public String getNewsHeadline() { return this.headline; }
    public String getNewsBody() { return this.body; }
}
"""

VB_NEWS = """
Class NewsEvent
    Private headline As String
    Private body As String
    Public Sub New(h As String, b As String)
        Me.headline = h
        Me.body = b
    End Sub
    Public Function GetHeadline() As String
        Return Me.headline
    End Function
    Public Function GetBody() As String
        Return Me.body
    End Function
End Class
"""


def main():
    network = SimulatedNetwork()
    broker = TpsBroker("broker", network)

    # Publisher: a C# shop.
    publisher = TpsPeer("reuters", network)
    cs_types = compile_csharp(CSHARP_NEWS, namespace="com.reuters")
    publisher.host_assembly(Assembly("reuters-news", cs_types))

    # Subscriber 1: a Java shop with its own NewsEvent type.
    java_subscriber = TpsPeer("javashop", network)
    java_news = compile_java(JAVA_NEWS, namespace="org.javashop")[0]

    # Subscriber 2: a VB shop.
    vb_subscriber = TpsPeer("vbshop", network)
    vb_news = compile_vb(VB_NEWS, namespace="vb.shop")[0]

    java_inbox, vb_inbox = [], []
    java_subscriber.subscribe_remote("broker", java_news, java_inbox.append)
    vb_subscriber.subscribe_remote("broker", vb_news, vb_inbox.append)

    print("Publishing two events from the C# shop...")
    for headline, body in [
        ("Types unified", "Implicit structural conformance ships."),
        ("Middleware news", "Optimistic protocol saves bytes."),
    ]:
        event = publisher.new_instance("com.reuters.NewsEvent", [headline, body])
        publisher.publish("broker", event)
    network.run_until_idle()

    print("\nJava shop received %d events (via its own surface):" % len(java_inbox))
    for event in java_inbox:
        print("  -", event.getNewsHeadline(), "//", event.getNewsBody())

    print("\nVB shop received %d events:" % len(vb_inbox))
    for event in vb_inbox:
        print("  -", event.GetHeadline(), "//", event.GetBody())

    print("\nNetwork accounting:")
    print("  messages:", network.stats.messages,
          " bytes:", network.stats.bytes_sent,
          " round trips:", network.stats.round_trips)
    print("  by kind:", dict(sorted(network.stats.by_kind_messages.items())))
    print("\nNote: descriptions/code were fetched once per peer; the second"
          " event travelled as a bare envelope.")


if __name__ == "__main__":
    main()
