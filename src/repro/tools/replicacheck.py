"""Prove failover is invisible: SIGKILL the primary, goldens survive.

servecheck proved one session is byte-identical across the wire;
sessioncheck proved N concurrent sessions are isolated; this check
proves the replication story end to end with a **real process kill**:

1. the parent process starts a :class:`~repro.serve.replica.
   ReplicaStandby` listening on TCP and spawns a child process (this
   same module with ``--primary``) hosting the primary
   :class:`~repro.serve.SessionHost`, whose :class:`~repro.serve.
   replica.ReplicaFeed` dials the standby over that socket — every
   acknowledged write is durably on the standby first;
2. each Figures 5-12 scenario is recorded locally into its input
   records (:func:`repro.tools.scenarios.record_figures`, the same
   traffic models loadgen replays); the parent attaches one session
   per figure to the child and writes a *seeded prefix* of each
   figure's records — every figure is mid-stream;
3. the parent sends the child a real ``SIGKILL``.  No teardown, no
   flush, no goodbye: exactly the failure the journal-shipping design
   claims to survive;
4. the standby notices the feed silence (missed heartbeats), is
   promoted — every shipped journal enters the hibernated table — and
   the parent re-attaches each figure session to the promoted host:
   the session's ``inputs`` file (the replication resume index) must
   cover every write the dead primary acknowledged (**zero
   acknowledged-write loss**), the parent replays only the
   unacknowledged tail, and the final screen must equal the pinned
   golden (``tests/goldens/fig*.txt``) **byte-for-byte**;
5. the promoted host's ledger is audited: the promotion books balance
   and no session was lost or duplicated.

::

    python -m repro.tools.replicacheck [--figures N] [--seed S]

Every golden is loaded before the child is spawned, so a missing
one is reported without killing anything.  ``--figures N`` narrows
the sweep to the first N figures (the test suite's fast path).
``--primary --standby HOST:PORT`` is the child entry — not for
humans.  Exit 0 when every screen matches, 1 on any
divergence or lost write, 2 on usage errors.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.fs.errors import FsError
from repro.fs.mux import MuxClient, dial
from repro.serve import SessionHost
from repro.serve.replica import ReplicaFeed, ReplicaStandby
from repro.tools.scenarios import (FIGURES, HEIGHT, WIDTH, MissingGolden,
                                   first_divergent_line, load_goldens,
                                   record_figures, report, session_ns)

HEARTBEAT = 0.1        # feed heartbeat; detection = 3 missed beats
DETECT_TIMEOUT = 30.0  # how long the parent waits for feed silence
CHILD_TIMEOUT = 30.0   # how long the parent waits for the child banner


def _split_points(seed: int, names: list[str],
                  scripts: dict[str, dict]) -> dict[str, int]:
    """Seeded per-figure kill points: how many records ship pre-kill.

    Every figure is left genuinely mid-stream — at least one record
    written (so the session exists and shipped) and, where the figure
    is long enough, at least one still unwritten (so promotion must
    hand the resume index back to the client).
    """
    import random
    rng = random.Random(f"replicacheck:{seed}")
    points: dict[str, int] = {}
    for name in names:
        total = len(scripts[name]["lines"])
        if total <= 1:
            points[name] = total
        else:
            points[name] = max(1, min(total - 1,
                                      round(total * rng.uniform(0.3, 0.8))))
    return points


# -- the child: a primary host shipping to the parent's standby -----------

def run_primary(standby_host: str, standby_port: int) -> int:
    """Host the primary until SIGKILL takes it.  Child entry point."""
    primary = SessionHost(width=WIDTH, height=HEIGHT)
    feed = ReplicaFeed(dial(standby_host, standby_port), heartbeat=HEARTBEAT)
    primary.attach_replica(feed)
    addr = primary.listen()
    print(f"primary {addr[0]} {addr[1]}", flush=True)
    while True:  # the parent's SIGKILL is the only way out
        time.sleep(60)


# -- the parent: drive, kill, promote, compare ----------------------------

def run_check(figures: int | None, seed: int) -> int:
    names = [name for name, _, _ in FIGURES][:figures]
    # every golden up front: a missing one must not cost a primary kill
    try:
        goldens = load_goldens(names)
    except MissingGolden as exc:
        return report("replicacheck", [f"{exc.name}: {exc}"])
    scripts = record_figures()
    points = _split_points(seed, names, scripts)
    problems: list[str] = []

    standby = ReplicaStandby(width=WIDTH, height=HEIGHT, id_prefix="rc.",
                             heartbeat=HEARTBEAT)
    sb_host, sb_port = standby.host.listen()
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.replicacheck",
         "--primary", "--standby", f"{sb_host}:{sb_port}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 [str(pathlib.Path(__file__).resolve().parents[2])]
                 + os.environ.get("PYTHONPATH", "").split(os.pathsep))})
    clients: list[MuxClient] = []
    try:
        banner = child.stdout.readline().split()
        if len(banner) != 3 or banner[0] != "primary":
            print(f"replicacheck: bad child banner {banner!r}",
                  file=sys.stderr)
            return 2
        addr = (banner[1], int(banner[2]))

        # every figure mid-stream: attach, write the seeded prefix,
        # leave the connection open (the sessions stay live)
        acked: dict[str, int] = {}
        for name in names:
            client = MuxClient(dial(*addr), aname=name)
            clients.append(client)
            ns = session_ns(client)
            count = 0
            for line in scripts[name]["lines"][:points[name]]:
                ns.append("/s/input", line)
                count += 1  # the append returned: the write was acked
            acked[name] = count
        print(f"replicacheck: {len(names)} figures mid-stream, "
              f"{sum(acked.values())} writes acknowledged")

        # the real thing: SIGKILL, no teardown of any kind
        t_kill = time.monotonic()
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)
        deadline = t_kill + DETECT_TIMEOUT
        while standby.primary_alive():
            if time.monotonic() > deadline:
                print("replicacheck: standby never noticed the kill",
                      file=sys.stderr)
                return 1
            time.sleep(HEARTBEAT / 5)
        detect_ms = (time.monotonic() - t_kill) * 1e3

        promotion = standby.promote()
        promote_ms = promotion["elapsed_us"] / 1e3
        problems += [f"promote: {p}" for p in promotion["problems"]]
        if promotion["sessions"] != len(names):
            problems.append(
                f"promotion adopted {promotion['sessions']} sessions, "
                f"expected {len(names)}")
        print(f"replicacheck: killed pid {child.pid}, detected in "
              f"{detect_ms:.0f}ms, promoted {promotion['sessions']} "
              f"sessions in {promote_ms:.1f}ms")

        # every figure resumes on the promoted standby and must land
        # byte-identical on its golden
        for name in names:
            try:
                client = MuxClient(standby.host.pipe(), aname=name)
            except FsError as exc:
                problems.append(f"{name}: re-attach failed: {exc}")
                continue
            try:
                ns = session_ns(client)
                held = int(ns.read("/s/inputs"))
                if held < acked[name]:
                    problems.append(
                        f"{name}: acked-write loss — standby holds "
                        f"{held} records, primary acked {acked[name]}")
                for line in scripts[name]["lines"][held:]:
                    ns.append("/s/input", line)
                screen = ns.read("/s/screen")
            finally:
                client.close()
            if screen != goldens[name]:
                at = first_divergent_line(goldens[name], screen)
                problems.append(f"{name}: post-promotion screen differs "
                                f"from golden (first at line {at})")

        problems += [f"audit: {p}" for p in standby.host.audit()]
    finally:
        for client in clients:
            try:
                client.close()
            except (FsError, OSError):
                pass
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)
        child.stdout.close()
        standby.close()

    return report("replicacheck", problems,
                  f"all {len(names)} post-promotion screens byte-identical "
                  f"to goldens, zero acknowledged writes lost")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    figures: int | None = None
    seed = 1
    primary = False
    standby_addr: str | None = None
    i = 0
    try:
        while i < len(args):
            arg = args[i]
            if arg == "--figures":
                i += 1
                figures = int(args[i])
                if not 1 <= figures <= len(FIGURES):
                    raise ValueError(figures)
            elif arg == "--seed":
                i += 1
                seed = int(args[i])
            elif arg == "--primary":
                primary = True
            elif arg == "--standby":
                i += 1
                standby_addr = args[i]
            else:
                raise ValueError(arg)
            i += 1
    except (IndexError, ValueError) as exc:
        print(f"replicacheck: bad arguments: {exc}", file=sys.stderr)
        print("usage: replicacheck [--figures N] [--seed S]",
              file=sys.stderr)
        return 2
    if primary:
        if not standby_addr or ":" not in standby_addr:
            print("replicacheck: --primary needs --standby HOST:PORT",
                  file=sys.stderr)
            return 2
        host, _, port = standby_addr.rpartition(":")
        return run_primary(host, int(port))
    return run_check(figures, seed)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
