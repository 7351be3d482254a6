"""Prove the wire path is invisible: remote /mnt/help, identical bytes.

The paper's claim that ``help`` *is* a file server is only honest if
serving the UI across a real transport changes nothing.  This check
replays each of the Figures 5-12 scenarios twice over:

1. the window server is exported through :class:`repro.fs.mux.WireServer`
   — over a real TCP socket by default, or in-memory pipes with forced
   short reads (``--pipe``) — and mounted back into the namespace as a
   :class:`~repro.fs.mux.RemoteDir` proxy, replacing the local mount;
2. the figure's session (:data:`repro.tools.scenarios.FIGURES`) is
   driven exactly as the benchmarks drive it, with ``help``, the shell
   and the tool scripts untouched;
3. the rendered screen is compared byte-for-byte against the pinned
   golden (``tests/goldens/fig*.txt``), and the server's own
   ``wire.rpc.*`` counters are checked to confirm traffic really
   crossed the wire.

Runs as a CLI (wired into the verify skill next to figcheck and
faultcheck)::

    python -m repro.tools.servecheck [--pipe]

Exit 0 when every figure matches, 1 on drift or a silent wire, 2 on
usage errors.
"""

from __future__ import annotations

import sys

from repro.core.render import render_screen
from repro.fs.mux import (
    MuxClient,
    WireServer,
    channel_pair,
    dial,
    mount_remote,
)
from repro.metrics.counter import MetricsRegistry, current_registry
from repro.tools.install import System, build_system
from repro.tools.scenarios import (FIGURES, HEIGHT, MOUNT, WIDTH,
                                   MissingGolden, first_divergent_line,
                                   load_goldens, report)


def wire_mount(system: System, transport: str = "socket"
               ) -> tuple[WireServer, MuxClient]:
    """Swap the local /mnt/help mount for one served across the wire."""
    server = WireServer(system.helpfs.root)
    if transport == "socket":
        host, port = server.listen()
        channel = dial(host, port)
    else:
        client_end, server_end = channel_pair(max_chunk=13)
        server.serve(server_end)
        channel = client_end
    client = MuxClient(channel)
    system.ns.unmount(MOUNT)
    system.ns.mount(mount_remote(client), MOUNT)
    return server, client


def check_figure(name: str, scenario, transport: str,
                 uses_wire: bool = True) -> list[str]:
    """Drive one figure over the wire; report every divergence.

    The server's ledger is read directly (a fresh server counts only
    this figure's traffic) and then folded into the caller's registry.
    """
    problems: list[str] = []
    try:
        want = load_goldens([name])[name]
    except MissingGolden as exc:
        return [f"{name}: {exc}"]
    system = build_system(width=WIDTH, height=HEIGHT)
    server, client = wire_mount(system, transport)
    try:
        scenario(system)
        got = render_screen(system.help)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"{name}: session failed over the wire: {exc!r}"]
    finally:
        client.close()
        server.close()
        current_registry().merge(server.metrics)
    if got != want:
        line = first_divergent_line(want, got)
        problems.append(f"{name}: differs from golden (first at line {line})")
    moved = (server.metrics.counter("wire.rpc.open")
             + server.metrics.counter("wire.rpc.write"))
    if uses_wire and not moved:
        problems.append(f"{name}: no traffic crossed the wire — the "
                        f"session bypassed the remote mount")
    return problems


def run(transport: str = "socket") -> list[str]:
    problems: list[str] = []
    for name, scenario, uses_wire in FIGURES:
        problems += check_figure(name, scenario, transport, uses_wire)
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    transport = "socket"
    if args == ["--pipe"]:
        transport = "pipe"
    elif args:
        print("usage: servecheck [--pipe]", file=sys.stderr)
        return 2
    with MetricsRegistry("servecheck").activate() as ledger:
        problems = run(transport)
    rpcs = " ".join(f"{k.removeprefix('wire.rpc.')}={v}" for k, v in
                    sorted(ledger.counters("wire.rpc.").items()))
    return report("servecheck", problems,
                  f"Figures 5-12 byte-identical over the {transport} "
                  f"transport", f"rpcs {rpcs}")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
