"""One owner per ledger: server threads book only into their owner's.

A wire server's reactor and worker pool, and a session host built on
one, must credit a registry the server's owner holds — never the
process registry that work with no owner falls back to.  Each test
drives one error reply and one torn connection (a fid left open when
the client vanishes), then checks that the registry an unbound helper
thread sees did not move and that the owner's ledger holds the counts.
"""

import threading

import pytest

from repro.fs import wire
from repro.fs.errors import Invalid
from repro.fs.mux import MuxClient, WireServer, channel_pair
from repro.fs.vfs import VFS
from repro.metrics.counter import MetricsRegistry, current_registry
from repro.serve import SessionHost

# the server-side keys the traffic below drives: the RPC counts, the
# in-flight gauge and the error raised in the server's handler
SERVER_KEYS = ("wire.rpc.attach", "wire.rpc.walk", "wire.rpc.open",
               "mux.inflight", "fs.error.invalid")


def unowned_registry() -> MetricsRegistry:
    """The registry a thread with no binding books into."""
    found = []
    helper = threading.Thread(target=lambda: found.append(current_registry()))
    helper.start()
    helper.join()
    return found[0]


def server_books(registry: MetricsRegistry) -> dict[str, int]:
    return {name: registry.counter(name) for name in SERVER_KEYS}


def error_then_tear(channel, path: str) -> None:
    """One error reply, then drop the connection with *path* open."""
    client = MuxClient(channel)
    with pytest.raises(Invalid):
        client.rpc(wire.Twalk(fid=999, newfid=1000, names=[]))
    fid = client.walk_fid(path)
    client.rpc(wire.Topen(fid=fid, mode="r"))
    client.close()  # vanish without clunking: the server tears down


@pytest.mark.parametrize("workers", [4, 0], ids=["pool", "inline"])
def test_bare_server_books_into_its_own_ledger(workers, metrics):
    unowned = unowned_registry()
    vfs = VFS()
    vfs.write("/notes.txt", "top note\n")
    server = WireServer(vfs.root, clock=vfs.clock, workers=workers)
    client_end, server_end = channel_pair()
    server.serve(server_end)
    before = server_books(unowned)
    error_then_tear(client_end, "/notes.txt")
    server.close()
    assert server_books(unowned) == before
    books = server.metrics
    assert books.counters("wire.rpc.") == {
        "wire.rpc.attach": 1, "wire.rpc.walk": 2, "wire.rpc.open": 1}
    assert books.counter("fs.error.invalid") == 1  # raised server-side
    assert books.counter("mux.inflight") == 0
    assert books.counter("wire.bytes.in") > 0
    # the rehydrated copy of the error is the caller's, on its thread
    assert metrics.counter("fs.error.invalid") == 1
    assert metrics.counters("wire.") == {}


def test_session_host_books_into_its_own_ledgers(metrics):
    unowned = unowned_registry()
    host = SessionHost(record=False)
    channel = host.pipe()
    before = server_books(unowned)
    error_then_tear(channel, "/id")
    host.close()
    assert server_books(unowned) == before
    # the attach is the host's; the session's own RPCs are the session's
    assert host.metrics.counters("wire.rpc.") == {"wire.rpc.attach": 1}
    total = host.drain(into=MetricsRegistry("roll-up"))
    assert total.counters("wire.rpc.") == {
        "wire.rpc.attach": 1, "wire.rpc.walk": 2, "wire.rpc.open": 1}
    assert total.counter("fs.error.invalid") == 1
    assert host.session_ledger() == (1, 1)
    assert host.audit() == []
    assert metrics.counter("fs.error.invalid") == 1
