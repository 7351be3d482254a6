"""P6: wire transport throughput under concurrent sessions.

The tentpole claim of the transport layer is that serving trees over
a real byte stream — framing, tag multiplexing, per-fid state — stays
cheap enough that many simultaneous sessions share one server without
falling over.  These benches put numbers behind that: N clients over
real TCP sockets hammering one server, plus single-RPC round-trip
latency, all reported into ``BENCH_perf.json`` alongside the
``wire.rpc.*`` / ``mux.rpc.*`` latency histograms the layer records.
The server books ``wire.*`` into its own ledger, which each bench
merges into the bench ledger; client threads bind the bench ledger.
"""

import threading

from repro.fs import VFS, MuxClient, WireServer, dial, mount_remote

SESSIONS = 6        # concurrent clients (acceptance floor is 4)
ROUNDS = 25         # write+read round trips per client per iteration


def test_perf_wire_concurrent_sessions(benchmark, metrics):
    vfs = VFS()
    for i in range(SESSIONS):
        vfs.write(f"/f{i}.txt", f"seed {i}\n" * 40)
    with WireServer(vfs.root, clock=vfs.clock) as server:
        host, port = server.listen()
        clients = [MuxClient(dial(host, port)) for _ in range(SESSIONS)]
        nodes = [mount_remote(c).lookup(f"f{i}.txt")
                 for i, c in enumerate(clients)]
        failures: list[BaseException] = []

        def hammer(idx: int) -> None:
            try:
                node = nodes[idx]
                with metrics.activate():
                    for round_no in range(ROUNDS):
                        with node.open("w") as s:
                            s.write(f"client {idx} round {round_no}\n")
                        with node.open("r") as s:
                            assert s.read().startswith(f"client {idx}")
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        def storm() -> int:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(SESSIONS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if failures:
                raise failures[0]
            # 4 RPCs per open/io/clunk pair, two pairs per round
            return SESSIONS * ROUNDS * 8

        rpcs = benchmark(storm)
        assert rpcs == SESSIONS * ROUNDS * 8
        for client in clients:
            client.close()
    metrics.merge(server.metrics)
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["rpcs_per_iteration"] = rpcs
    median = benchmark.stats.stats.median if benchmark.stats else None
    if median:
        benchmark.extra_info["rpcs_per_sec"] = round(rpcs / median, 1)


def test_perf_wire_rpc_latency(benchmark, metrics):
    """One client, sequential round trips: the per-RPC floor."""
    vfs = VFS()
    vfs.write("/probe.txt", "payload\n")
    with WireServer(vfs.root, clock=vfs.clock) as server:
        host, port = server.listen()
        with MuxClient(dial(host, port)) as client:
            node = mount_remote(client).lookup("probe.txt")

            def read_once() -> str:
                with node.open("r") as s:
                    return s.read()

            assert benchmark(read_once) == "payload\n"
    metrics.merge(server.metrics)


def test_perf_wire_large_transfer(benchmark, metrics):
    """A megabyte-scale body crossing the wire in framed reads."""
    vfs = VFS()
    body = ("x" * 99 + "\n") * 5000  # 500 KB
    vfs.write("/big.txt", body)
    with WireServer(vfs.root, clock=vfs.clock) as server:
        host, port = server.listen()
        with MuxClient(dial(host, port)) as client:
            node = mount_remote(client).lookup("big.txt")

            def pull() -> int:
                with node.open("r") as s:
                    return len(s.read())

            assert benchmark(pull) == len(body)
    metrics.merge(server.metrics)
