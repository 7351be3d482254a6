"""The Figures 5-12 harness the figure checks share, one copy each.

Each check CLI varies one axis — servecheck the transport, faultcheck
a fault plan, replaycheck journal replay, sessioncheck the hosting
topology and LRU budget, replicacheck a primary kill — and takes the
rest from here: geometry and paths, the figure drivers and
:data:`FIGURES`, the golden compare, the recorder, the ``/s`` session
mount and the CLI tail.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Iterable

from repro.core.render import render_screen
from repro.core.window import Subwindow
from repro.fs.mux import MuxClient, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.journal import Journal, attach, scan_text
from repro.metrics.counter import MetricsRegistry
from repro.tools.corpus import SRC_DIR
from repro.tools.install import System, build_system

WIDTH, HEIGHT = 160, 60
MOUNT = "/mnt/help"
GOLDENS = pathlib.Path(__file__).resolve().parents[3] / "tests" / "goldens"
JOURNAL_PATH = "/usr/rob/help.journal"

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


class MissingGolden(Exception):
    """A figure has no pinned golden; the message is the problem text."""

    def __init__(self, name: str, path: pathlib.Path) -> None:
        super().__init__(f"no golden at {path}")
        self.name = name


def load_goldens(names: Iterable[str]) -> dict[str, str]:
    """The golden screen of each figure in *names*; raises
    :class:`MissingGolden` for the first one not pinned."""
    goldens: dict[str, str] = {}
    for name in names:
        path = GOLDENS / f"{name}.txt"
        if not path.exists():
            raise MissingGolden(name, path)
        goldens[name] = path.read_text()
    return goldens


def first_divergent_line(want: str, got: str) -> int:
    """The 1-based number of the first line where *got* leaves *want*."""
    for i, (a, b) in enumerate(zip(want.splitlines(), got.splitlines()),
                               start=1):
        if a != b:
            return i
    return min(want.count("\n"), got.count("\n")) + 1


def record(scenario, trace_screens: bool = False) -> tuple[System, str]:
    """Drive *scenario* with a journal attached; return (system, text)."""
    system = build_system(width=WIDTH, height=HEIGHT)
    journal = Journal.create(system.ns, JOURNAL_PATH)
    attach(system.help, journal, ns=system.ns, trace_screens=trace_screens)
    scenario(system)
    journal.flush()
    return system, system.ns.read(JOURNAL_PATH)


def record_figures() -> dict[str, dict]:
    """Record every figure: its input records and final screen.

    Each figure maps to ``input`` (the records as one ``input`` file
    text), ``lines`` (the same, one record per line) and ``screen``.
    Recording generates fs and journal traffic of its own; it runs
    under a throwaway registry so no caller's ledger inherits it.
    """
    scripts: dict[str, dict] = {}
    with MetricsRegistry("scenarios.record").activate():
        for name, scenario, _uses_wire in FIGURES:
            system, text = record(scenario)
            lines = [f"{r.kind} {r.payload}\n" if r.payload else f"{r.kind}\n"
                     for r in scan_text(text).records if r.applies]
            scripts[name] = {"input": "".join(lines), "lines": lines,
                             "screen": render_screen(system.help)}
    return scripts


def session_ns(client: MuxClient) -> Namespace:
    """A fresh namespace with *client*'s hosted session mounted at /s."""
    ns = Namespace(VFS())
    ns.mkdir("/s", parents=True)
    ns.mount(mount_remote(client), "/s")
    return ns


def report(tool: str, problems: list[str], *ok_lines: str) -> int:
    """Print *problems* to stderr, or the ok lines when there are none;
    the exit code: 1 on any problem, else 0."""
    for problem in problems:
        print(f"{tool}: {problem}", file=sys.stderr)
    if not problems:
        for line in ok_lines:
            print(f"{tool}: {line}")
    return 1 if problems else 0
