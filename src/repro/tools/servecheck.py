"""Prove the wire path is invisible: remote /mnt/help, identical bytes.

The paper's claim that ``help`` *is* a file server is only honest if
serving the UI across a real transport changes nothing.  This check
replays each of the Figures 5-12 scenarios twice over:

1. the window server is exported through :class:`repro.fs.mux.WireServer`
   — over a real TCP socket by default, or in-memory pipes with forced
   short reads (``--pipe``) — and mounted back into the namespace as a
   :class:`~repro.fs.mux.RemoteDir` proxy, replacing the local mount;
2. the figure's session is driven exactly as the benchmarks drive it,
   with ``help``, the shell and the tool scripts untouched;
3. the rendered screen is compared byte-for-byte against the pinned
   golden (``tests/goldens/fig*.txt``), and the ``wire.rpc.*``
   counters are checked to confirm traffic really crossed the wire.

Runs as a CLI (wired into the verify skill next to figcheck and
faultcheck)::

    python -m repro.tools.servecheck [--pipe]

Exit 0 when every figure matches, 1 on drift or a silent wire, 2 on
usage errors.
"""

from __future__ import annotations

import pathlib
import sys

from repro.core.render import render_screen
from repro.core.window import Subwindow
from repro.fs.mux import (
    MuxClient,
    WireServer,
    channel_pair,
    dial,
    mount_remote,
)
from repro.metrics.counter import counter, counters
from repro.tools.corpus import SRC_DIR
from repro.tools.figcheck import _first_divergent_line
from repro.tools.install import System, build_system

MOUNT = "/mnt/help"
GOLDENS = pathlib.Path(__file__).resolve().parents[3] / "tests" / "goldens"

USES = "./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n"


# -- the Figures 5-12 scenarios, exactly as the benchmarks drive them --------


def fig05_headers(system: System) -> None:
    h = system.help
    h.execute_text(h.window_by_name("/help/mail/stf"), "headers")


def fig06_messages(system: System) -> None:
    h = system.help
    mail = h.window_by_name("/help/mail/stf")
    h.execute_text(mail, "headers")
    mbox = h.window_by_name("/mail/box/rob/mbox")
    h.point_at(mbox, mbox.body.string().index("19:26"))
    h.execute_text(mail, "messages")


def fig07_stack(system: System) -> None:
    h = system.help
    mail = h.window_by_name("/help/mail/stf")
    h.execute_text(mail, "headers")
    mbox = h.window_by_name("/mail/box/rob/mbox")
    h.point_at(mbox, mbox.body.string().index("sean"))
    h.execute_text(mail, "messages")
    msg = h.window_by_name("From")
    h.point_at(msg, msg.body.string().index("176153"))
    h.execute_text(h.window_by_name("/help/db/stf"), "stack")


def fig08_openline(system: System) -> None:
    h = system.help
    trace = "strlen(s=0x0) called from textinsert+0x30 text.c:32\n"
    stack_w = h.new_window(f"{SRC_DIR}/", trace)
    h.point_at(stack_w, stack_w.body.string().index("text.c:32") + 2)
    h.exec_builtin("Open", stack_w)


def fig09_openline2(system: System) -> None:
    h = system.help
    stack_w = h.new_window(
        f"{SRC_DIR}/",
        "errs(s=0x0) called from Xdie2+0x14 exec.c:252\n"
        "lookup(s=0x40be8) called from execute+0x50 exec.c:207\n")
    h.point_at(stack_w, stack_w.body.string().index("exec.c:252") + 2)
    h.exec_builtin("Open", stack_w)


def fig10_uses(system: System) -> None:
    h = system.help
    exec_w = h.open_path(f"{SRC_DIR}/exec.c", line=252)
    start = exec_w.body.pos_of_line(252)
    n_pos = exec_w.body.string().index("errs(n)", start) + 5
    h.point_at(exec_w, n_pos)
    h.execute_text(h.window_by_name("/help/cbr/stf"), "uses *.c")


def fig11_culprit(system: System) -> None:
    h = system.help
    uses_w = h.new_window(f"{SRC_DIR}/", USES)
    h.point_at(uses_w, uses_w.body.string().index("help.c:35") + 2)
    h.exec_builtin("Open", uses_w)
    h.point_at(uses_w, uses_w.body.string().index("exec.c:213") + 2)
    h.exec_builtin("Open", uses_w)


def fig12_mk(system: System) -> None:
    # two rounds, like the benchmark's timing loop: the first builds
    # the whole program, the second (the figure) recompiles exec.c
    # alone after the Cut + Put! edit
    h = system.help
    exec_w = h.open_path(f"{SRC_DIR}/exec.c", line=213)
    edit_stf = h.window_by_name("/help/edit/stf")
    cbr_stf = h.window_by_name("/help/cbr/stf")
    original = exec_w.body.string()
    for _ in range(2):
        h.replace_body(exec_w, original)
        for w in list(h.windows.values()):
            if w.name() == f"{SRC_DIR}/mk":
                h.close_window(w)
        start, end = exec_w.body.line_span(213)
        h.select(exec_w, start, end + 1)
        h.exec_builtin("Cut", edit_stf)
        h.exec_builtin("Put!", exec_w, Subwindow.TAG)
        h.execute_text(cbr_stf, "mk")


# (name, scenario, uses_wire): figures 8, 9 and 11 exercise built-in
# Open on plain files — no tool script, so no /mnt/help traffic; they
# prove the remote mount does not *disturb* an unrelated session.
FIGURES = [
    ("fig05_headers", fig05_headers, True),
    ("fig06_messages", fig06_messages, True),
    ("fig07_stack", fig07_stack, True),
    ("fig08_openline", fig08_openline, False),
    ("fig09_openline2", fig09_openline2, False),
    ("fig10_uses", fig10_uses, True),
    ("fig11_culprit", fig11_culprit, False),
    ("fig12_mk", fig12_mk, True),
]


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
                 uses_wire: bool = True,
                 width: int = 160, height: int = 60) -> list[str]:
    """Drive one figure over the wire; report every divergence."""
    problems: list[str] = []
    golden = GOLDENS / f"{name}.txt"
    if not golden.exists():
        return [f"{name}: no golden at {golden}"]
    system = build_system(width=width, height=height)
    server, client = wire_mount(system, transport)
    rpcs_before = counter("wire.rpc.open") + counter("wire.rpc.write")
    try:
        scenario(system)
        got = render_screen(system.help)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"{name}: session failed over the wire: {exc!r}"]
    finally:
        client.close()
        server.close()
    want = golden.read_text()
    if got != want:
        line = _first_divergent_line(want, got)
        problems.append(f"{name}: differs from golden (first at line {line})")
    moved = counter("wire.rpc.open") + counter("wire.rpc.write")
    if uses_wire and moved == rpcs_before:
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
    problems = run(transport)
    for problem in problems:
        print(f"servecheck: {problem}", file=sys.stderr)
    if not problems:
        rpcs = " ".join(f"{k.removeprefix('wire.rpc.')}={v}" for k, v in
                        sorted(counters("wire.rpc.").items()))
        print(f"servecheck: Figures 5-12 byte-identical over the "
              f"{transport} transport")
        print(f"servecheck: rpcs {rpcs}")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
