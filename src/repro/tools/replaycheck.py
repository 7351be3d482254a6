"""Record/replay tracing: every figure session as a replayable artifact.

For each of the Figures 5-12 scenarios this check

1. **records** the session (:func:`repro.tools.scenarios.record`): a
   journal is attached to a fresh system and the scenario drives it
   exactly as the benchmarks do;
2. **replays** the journal headlessly into a second fresh system (a
   shadow journal regenerates the trace stream as it goes);
3. **compares** — the final screen byte-for-byte against the pinned
   golden (``tests/goldens/fig*.txt``), the regenerated records
   against the recorded ones (reporting the **first divergent
   sequence number**), and, with ``--screens``, a screen CRC after
   every input record;
4. **crash-recovers** — one scenario is re-run with a ``crash`` fault
   tearing the journal mid-append, and the recovered session must
   render byte-identical to the crashed session's pre-crash screen.

Replay also lands per-record latency samples in the
``replay.apply_us`` histograms, so a replay doubles as a profile.

When a figure fails, its journal is written to
``bench_artifacts/journals/<fig>.journal`` — a red run ships its own
repro.  Runs as a CLI (wired into the verify skill)::

    python -m repro.tools.replaycheck [--screens]

Exit 0 when every figure replays clean, 1 on divergence, 2 on usage
errors.
"""

from __future__ import annotations

import pathlib
import sys

from repro.core.render import render_screen
from repro.fs.errors import Crashed
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.journal import Journal, attach, scan_text
from repro.journal.recorder import divergence, replay
from repro.journal.recovery import recover
from repro.metrics.counter import current_registry
from repro.tools.install import build_system
from repro.tools.scenarios import (FIGURES, HEIGHT, JOURNAL_PATH, WIDTH,
                                   MissingGolden, fig07_stack, load_goldens,
                                   record, report)

ARTIFACTS = pathlib.Path("bench_artifacts") / "journals"


def replay_journal(text: str, trace_screens: bool = False):
    """Replay journal *text* into a fresh system with a shadow journal.

    Returns ``(system, shadow_journal, scan)`` — the shadow journal
    holds the regenerated record stream for divergence comparison.
    """
    scan = scan_text(text)
    if scan.torn:
        raise ValueError(f"journal is torn: {scan.problems}")
    fresh = build_system(width=WIDTH, height=HEIGHT)
    shadow = Journal()
    attach(fresh.help, shadow, ns=fresh.ns, trace_screens=trace_screens)
    replay(fresh.help, scan.records)
    return fresh, shadow, scan


def check_figure(name: str, scenario, screens: bool = False) -> list[str]:
    """Record, replay, and compare one figure; report every divergence."""
    problems: list[str] = []
    try:
        want = load_goldens([name])[name]
    except MissingGolden as exc:
        return [f"{name}: {exc}"]
    try:
        _recorded, text = record(scenario, trace_screens=screens)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"{name}: recording failed: {exc!r}"]
    try:
        replayed, shadow, scan = replay_journal(text, trace_screens=screens)
    except Exception as exc:  # noqa: BLE001
        _save_journal(name, text)
        return [f"{name}: replay failed: {exc!r}"]
    if render_screen(replayed.help) != want:
        problems.append(f"{name}: replayed screen differs from golden")
    div = divergence(scan.records, shadow.records)
    if div is not None:
        seq, why = div
        problems.append(f"{name}: first divergent sequence number {seq}: "
                        f"{why}")
    if problems:
        _save_journal(name, text)
    return problems


def check_recovery() -> list[str]:
    """A crash-faulted session must recover to its pre-crash screen."""
    system = build_system(width=WIDTH, height=HEIGHT)
    journal = Journal.create(system.ns, JOURNAL_PATH)
    recorder = attach(system.help, journal, ns=system.ns, snapshot_every=3)
    fig07_stack(system)
    recorder.compact()   # exercise snapshot + truncate on a live session
    pre_crash = render_screen(system.help, full=True)
    plan = FaultPlan(Fault(op="write", path="*/help.journal", crash=True))
    system.ns.mount(wrap(system.ns.walk("/usr/rob"), plan, base="/usr/rob"),
                    "/usr/rob")
    try:
        system.help.type_text("lost to the crash")
        return ["recovery: crash fault never fired"]
    except Crashed:
        pass
    system.ns.unmount("/usr/rob")
    text = system.ns.read(JOURNAL_PATH)
    fresh = build_system(width=WIDTH, height=HEIGHT)
    try:
        recovered = recover(fresh.help, text)
    except Exception as exc:  # noqa: BLE001
        _save_journal("recovery", text)
        return [f"recovery: recover() failed: {exc!r}"]
    problems: list[str] = []
    if not recovered.torn:
        problems.append("recovery: the torn tail went undetected")
    if render_screen(fresh.help, full=True) != pre_crash:
        problems.append("recovery: recovered screen differs from the "
                        "crashed session's pre-crash screen")
    if problems:
        _save_journal("recovery", text)
    return problems


def _save_journal(name: str, text: str) -> None:
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    (ARTIFACTS / f"{name}.journal").write_text(text)


def run(screens: bool = False) -> list[str]:
    problems: list[str] = []
    for name, scenario, _ in FIGURES:
        problems += check_figure(name, scenario, screens=screens)
    problems += check_recovery()
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    screens = False
    if args == ["--screens"]:
        screens = True
    elif args:
        print("usage: replaycheck [--screens]", file=sys.stderr)
        return 2
    problems = run(screens=screens)
    mode = "with intermediate screens" if screens else "final screens"
    counter = current_registry().counter
    return report(
        "replaycheck", problems,
        f"Figures 5-12 replay byte-identical ({mode}); crash recovery "
        f"restores the pre-crash screen",
        f"{counter('journal.append.records')} appended, "
        f"{counter('journal.replay.records')} scanned, "
        f"{counter('journal.replay.applied')} applied, "
        f"{counter('journal.checksum.failed')} checksum failures")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
