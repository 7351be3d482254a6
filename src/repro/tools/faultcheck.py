"""Prove the interface survives a misbehaving file server.

``help`` is one process whose whole user interface hangs off a file
service; a file server that refuses an open, drops a write, or errors
at close time must degrade into a diagnostic in the Errors window, not
take the session down.  This check replays the paper's Figures 5-12
session twice:

1. **clean** — no faults; the session must complete exactly as
   ``python -m repro`` 's ``demo`` does, producing the stack window;
2. **faulted** — ``/mnt/help`` is remounted behind a standard
   :class:`~repro.fs.faults.FaultPlan` (an open refused, a short read,
   a write fault, a close-time fault) and the same session is driven
   again.  Help must stay live, the screen must still render, every
   scheduled fault must actually fire, and each one must surface as a
   structured diagnostic.

Runs as a CLI (wired into the verify skill next to tier-1 and
figcheck)::

    python -m repro.tools.faultcheck

and from the test suite (``tests/tools/test_faultcheck.py``).  Exit 0
when both passes hold, 1 on any failed check, 2 on usage errors.
"""

from __future__ import annotations

import sys

from repro.core.help import ERRORS
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.metrics.counter import current_registry
from repro.core.render import render_screen
from repro.tools.install import System, build_system
from repro.tools.scenarios import MOUNT, report


def standard_schedule() -> FaultPlan:
    """The standard fault schedule the figure session is replayed under.

    Each rule targets an op the session is known to perform, so every
    rule fires exactly once and the replay is a deterministic
    regression test rather than a fuzz run:

    - the first ``bodyapp`` write (``headers`` filling its window)
      fails mid-stream;
    - the 2nd window creation (``messages``) is refused at open;
    - the 3rd window creation (``stack``) reads back an empty window
      name (a short read), so the script's ``$x`` is a null list;
    - the 3rd ``ctl`` close (``stack`` closing ``new/ctl``) errors
      after the data arrived.
    """
    return FaultPlan(
        Fault(op="write", path=f"{MOUNT}/*/bodyapp", at=1),
        Fault(op="open", path=f"{MOUNT}/new/ctl", at=2),
        Fault(op="read", path=f"{MOUNT}/new/ctl", at=2, short=0),
        Fault(op="close", path=f"{MOUNT}/*/ctl", at=3),
    )


def replay(system: System) -> list[str]:
    """Drive the Figures 5-12 session, skipping steps whose window
    never appeared (an upstream fault may have eaten it).

    Returns notes about skipped steps; an empty list means the full
    session ran.
    """
    h = system.help
    skipped: list[str] = []

    def exec_in(name: str, text: str) -> None:
        window = h.window_by_name(name)
        if window is None:
            skipped.append(f"no window {name!r}; skipped {text!r}")
            return
        h.execute_text(window, text)

    def point(name: str, needle: str) -> None:
        window = h.window_by_name(name)
        if window is None or needle not in window.body.string():
            skipped.append(f"no {needle!r} in window {name!r}; not pointed")
            return
        h.point_at(window, window.body.string().index(needle))

    exec_in("/help/mail/stf", "headers")
    point("/mail/box/rob/mbox", "sean")
    exec_in("/help/mail/stf", "messages")
    point("From", "176153")
    exec_in("/help/db/stf", "stack")
    return skipped


def check_clean(width: int, height: int) -> list[str]:
    """The no-fault control: the demo session must fully complete."""
    problems: list[str] = []
    system = build_system(width=width, height=height)
    skipped = replay(system)
    for note in skipped:
        problems.append(f"clean: {note}")
    h = system.help
    if h.window_by_name("/usr/rob/src/help/") is None:
        problems.append("clean: stack window missing after replay")
    errors = h.window_by_name(ERRORS)
    if errors is not None and errors.body.string():
        head = errors.body.string().splitlines()[0]
        problems.append(f"clean: unexpected Errors output: {head}")
    render_screen(h)
    return problems


def check_faulted(width: int, height: int) -> list[str]:
    """The faulted pass: inject the standard schedule, demand grace."""
    problems: list[str] = []
    system = build_system(width=width, height=height)
    plan = standard_schedule()
    faulty = wrap(system.helpfs.root, plan, base=MOUNT)
    system.ns.unmount(MOUNT)
    system.ns.mount(faulty, MOUNT)

    ledger = current_registry()  # where this thread's fs traffic lands
    before = ledger.counter("fs.fault.injected")
    replay(system)  # skipped steps are *expected* here
    injected = ledger.counter("fs.fault.injected") - before

    for rule, fired in zip(plan.faults, plan.fired):
        if rule.at != 0 and fired != 1:
            problems.append(
                f"faulted: rule {rule.op} {rule.path} at={rule.at} "
                f"fired {fired} times, want 1")
    if injected != plan.injected:
        problems.append(
            f"faulted: fs.fault.injected moved by {injected}, "
            f"plan says {plan.injected}")

    h = system.help
    if not h.running:
        problems.append("faulted: help stopped running")
    errors = h.window_by_name(ERRORS)
    if errors is None or not errors.body.string():
        problems.append("faulted: no diagnostics in the Errors window")
    elif "[" not in errors.body.string():
        problems.append("faulted: Errors output lacks structured [kind] tags")
    try:
        render_screen(h)
    except Exception as exc:  # any render crash is exactly the regression
        problems.append(f"faulted: render failed: {exc}")
    return problems


def run(width: int = 120, height: int = 40) -> list[str]:
    """Both passes; every problem found, empty when all is well."""
    current_registry().reset_counters("fs.")
    problems = check_clean(width, height)
    problems += check_faulted(width, height)
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    width, height = 120, 40
    if len(args) == 2 and args[0].isdigit() and args[1].isdigit():
        width, height = int(args[0]), int(args[1])
    elif args:
        print("usage: faultcheck [width height]", file=sys.stderr)
        return 2
    problems = run(width, height)
    tallies = " ".join(f"{k}={v}" for k, v in
                       sorted(current_registry().counters("fs.").items()))
    return report("faultcheck", problems,
                  "figure session survives the standard fault schedule",
                  tallies)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
