"""Prove session hosting is invisible AND isolated: K sessions, one host.

PR 3's servecheck proved one session is byte-identical across the
wire; this check proves **N concurrent sessions in one process** are
each byte-identical *and* fully isolated from one another:

1. each Figures 5-12 scenario is recorded once locally
   (:func:`repro.tools.scenarios.record_figures`), yielding the stream
   of input records that reproduces it;
2. a :class:`~repro.serve.SessionHost` hosts the sessions; a **solo**
   pass drives every figure through one connection at a time,
   pinning the per-session baseline — rendered screen (compared
   byte-for-byte against the pinned goldens), journal kind sequence,
   and counter ledger;
3. K workers then drive all the figures **concurrently**, each in its
   own hosted session, and every session's screen, journal and ledger
   must equal the solo baseline exactly — any cross-session counter
   bleed, journal cross-talk or screen corruption is a diff;
4. the host's own ledger is audited: sessions opened == closed, and
   zero session-scoped counters in the host registry.

Runs over both transports (in-memory pipes with forced short reads,
and real TCP sockets) unless narrowed::

    python -m repro.tools.sessioncheck [--sessions K] [--pipe | --tcp]
                                       [--shards N]
    python -m repro.tools.sessioncheck --budget N

With ``--shards N`` the sessions are hosted by a
:class:`~repro.serve.ShardRouter` over N independent shard hosts
instead of a single :class:`~repro.serve.SessionHost` — the same
byte-identity and isolation must hold when attaches are hashed across
shards, or sharding is visible to clients.

With ``--budget N`` the check instead proves **hibernation** is
invisible: the host gets an LRU memory budget of N resident worlds,
every figure session is driven, detached (which hibernates it to a
disk snapshot), and re-attached — the woken screen must equal the
pinned golden byte-for-byte, at most N worlds may ever be resident,
and the wake ledger must balance (every hibernation accounted for by
a wake or a snapshot still parked on the spool).  It runs one pipe
host, so it takes no other flag.

Exit 0 when every session matches, 1 on any divergence, 2 on usage
errors.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.fs.mux import MuxClient, dial
from repro.serve import SessionHost, ShardRouter
from repro.tools.scenarios import (HEIGHT, WIDTH, MissingGolden,
                                   first_divergent_line, load_goldens,
                                   record_figures, report, session_ns)

# Ledger entries whose values depend on connection identity (the
# attach name's length changes frame sizes) or are transient gauges;
# everything else must match the solo baseline exactly.
_UNSTABLE = ("wire.bytes.",)
_GAUGES = {"mux.inflight"}


def _ledger_of(metrics_text: str) -> dict[str, int]:
    ledger: dict[str, int] = {}
    for line in metrics_text.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith(_UNSTABLE) or name in _GAUGES:
            continue
        ledger[name] = int(value)
    return ledger


def drive_session(host: SessionHost, transport: str, addr, name: str,
                  script: dict) -> dict:
    """One hosted session: attach, apply the records, collect the state.

    Reads happen in a fixed order ending with the ledger, so every
    run's ledger covers exactly the same preceding traffic and the
    solo/concurrent comparison is exact.
    """
    if transport == "tcp":
        channel = dial(*addr)
    else:
        channel = host.pipe(max_chunk=13)
    client = MuxClient(channel, aname=name)
    try:
        ns = session_ns(client)
        ns.append("/s/input", script["input"])
        return {"screen": ns.read("/s/screen"),
                "journal": ns.read("/s/journal"),
                "ledger": _ledger_of(ns.read("/s/metrics"))}
    finally:
        client.close()


def _compare(name: str, got: dict, baseline: dict,
             golden: str) -> list[str]:
    problems: list[str] = []
    if got["screen"] != golden:
        line = first_divergent_line(golden, got["screen"])
        problems.append(f"{name}: screen differs from golden "
                        f"(first at line {line})")
    if got["journal"] != baseline["journal"]:
        problems.append(f"{name}: journal kind sequence diverged from "
                        f"the solo baseline")
    if got["ledger"] != baseline["ledger"]:
        diffs = [key for key in sorted(set(got["ledger"])
                                       | set(baseline["ledger"]))
                 if got["ledger"].get(key) != baseline["ledger"].get(key)]
        shown = ", ".join(
            f"{key}={baseline['ledger'].get(key, 0)}->"
            f"{got['ledger'].get(key, 0)}" for key in diffs[:4])
        problems.append(f"{name}: counter bleed — {len(diffs)} ledger "
                        f"entries differ from the solo baseline ({shown})")
    return problems


def check_transport(transport: str, sessions: int,
                    scripts: dict[str, dict],
                    shards: int = 0) -> list[str]:
    """Solo baseline, then K concurrent workers, then the host audit."""
    problems: list[str] = []
    try:
        goldens = load_goldens(scripts)
    except MissingGolden as exc:
        return [f"{transport}: {exc}"]

    if shards:
        host = ShardRouter(shards=shards, width=WIDTH, height=HEIGHT,
                           workers=max(4, sessions))
    else:
        host = SessionHost(width=WIDTH, height=HEIGHT,
                           workers=max(4, sessions))
    addr = host.listen() if transport == "tcp" else None
    try:
        # -- solo: one session per figure, nothing else running ----------
        baselines: dict[str, dict] = {}
        for name, script in scripts.items():
            try:
                baselines[name] = drive_session(
                    host, transport, addr, f"{name}.solo", script)
            except Exception as exc:  # noqa: BLE001 - the crash IS the finding
                return [f"{transport}/{name}: solo session failed: {exc!r}"]
            problems += _compare(f"{transport}/{name}.solo",
                                 baselines[name], baselines[name],
                                 goldens[name])
        if problems:
            return problems  # a broken baseline makes the rest noise

        # -- concurrent: K workers, all figures each --------------------
        start = threading.Barrier(sessions)
        failures: list[str] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            start.wait()
            for name, script in scripts.items():
                label = f"{transport}/{name}.w{index}"
                try:
                    got = drive_session(host, transport, addr,
                                        f"{name}.w{index}", script)
                except Exception as exc:  # noqa: BLE001
                    with lock:
                        failures.append(f"{label}: session failed: {exc!r}")
                    continue
                found = _compare(label, got, baselines[name], goldens[name])
                with lock:
                    failures.extend(found)

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"sessioncheck-w{i}")
                   for i in range(sessions)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        problems += failures
    finally:
        host.close()

    problems += [f"{transport}: {p}" for p in host.audit()]
    opened, closed = host.session_ledger()
    want = (sessions + 1) * len(scripts)
    if opened != want or closed != want:
        problems.append(f"{transport}: expected {want} sessions opened "
                        f"and closed, saw opened={opened} closed={closed}")
    return problems


def _read_screen(host: SessionHost, name: str) -> str:
    """Attach (waking the session if hibernated) and read the screen."""
    client = MuxClient(host.pipe(), aname=name)
    try:
        return session_ns(client).read("/s/screen")
    finally:
        client.close()


def _await_counter(host: SessionHost, name: str, want: int,
                   timeout: float = 10.0) -> bool:
    """Detach-driven hibernation is asynchronous; wait for the ledger."""
    deadline = time.monotonic() + timeout
    while host.metrics.counter(name) < want:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def check_budget(budget: int, scripts: dict[str, dict]) -> list[str]:
    """Drive every figure through a hibernate/wake cycle under a budget."""
    problems: list[str] = []
    try:
        goldens = load_goldens(scripts)
    except MissingGolden as exc:
        return [f"budget: {exc}"]

    host = SessionHost(width=WIDTH, height=HEIGHT, max_live=budget)
    try:
        # -- pass 1: drive each figure, detach -> hibernate ----------------
        for name, script in scripts.items():
            try:
                got = drive_session(host, "pipe", None, f"{name}.hib",
                                    script)
            except Exception as exc:  # noqa: BLE001 - the crash IS it
                return [f"budget/{name}: session failed: {exc!r}"]
            if got["screen"] != goldens[name]:
                line = first_divergent_line(goldens[name], got["screen"])
                problems.append(f"budget/{name}: live screen differs "
                                f"from golden (first at line {line})")
        if not _await_counter(host, "host.sessions.hibernated",
                              len(scripts)):
            problems.append(
                f"budget: only "
                f"{host.metrics.counter('host.sessions.hibernated')} of "
                f"{len(scripts)} detached sessions hibernated")
        resident = sum(1 for s in host.sessions.values() if s is not None)
        if resident > budget:
            problems.append(f"budget: {resident} worlds resident after "
                            f"hibernation, budget is {budget}")
        if problems:
            return problems  # a broken park makes the wake pass noise

        # -- pass 2: wake each, the screen must still match the golden ----
        for name in scripts:
            try:
                screen = _read_screen(host, f"{name}.hib")
            except Exception as exc:  # noqa: BLE001
                problems.append(f"budget/{name}: wake failed: {exc!r}")
                continue
            if screen != goldens[name]:
                line = first_divergent_line(goldens[name], screen)
                problems.append(f"budget/{name}: woken screen differs "
                                f"from golden (first at line {line})")
        _await_counter(host, "host.sessions.hibernated", 2 * len(scripts))
        if host.live_peak > budget:
            problems.append(f"budget: live_peak {host.live_peak} "
                            f"exceeded the budget {budget}")
    finally:
        host.close()

    problems += [f"budget: {p}" for p in host.audit()]
    woken = host.metrics.counter("host.sessions.woken")
    if woken != len(scripts):
        problems.append(f"budget: expected {len(scripts)} wakes, "
                        f"ledger says {woken}")
    if not (host.metrics.histogram("host.wake_us") or {}).get("count"):
        problems.append("budget: no host.wake_us latency samples")
    return problems


def run(sessions: int, transports: list[str],
        shards: int = 0) -> list[str]:
    scripts = record_figures()
    problems: list[str] = []
    for transport in transports:
        problems += check_transport(transport, sessions, scripts, shards)
    return problems


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    sessions = 4
    shards = 0
    budget = 0
    transports = ["pipe", "tcp"]
    # the budget pass runs one pipe host, so --budget takes no other flag
    usage = "--budget" in args and len(args) != 2
    while args and not usage:
        arg = args.pop(0)
        if arg == "--sessions" and args and args[0].isdigit():
            sessions = int(args.pop(0))
        elif arg == "--shards" and args and args[0].isdigit():
            shards = int(args.pop(0))
        elif arg == "--budget" and args and args[0].isdigit():
            budget = int(args.pop(0))
        elif arg == "--pipe":
            transports = ["pipe"]
        elif arg == "--tcp":
            transports = ["tcp"]
        else:
            usage = True
    if usage:
        print("usage: sessioncheck [--sessions K] [--pipe | --tcp] "
              "[--shards N]\n       sessioncheck --budget N", file=sys.stderr)
        return 2
    if budget:
        return report("sessioncheck", check_budget(budget, record_figures()),
                      f"Figures 5-12 byte-identical through a hibernate/"
                      f"wake cycle under a {budget}-world budget")
    hosting = f"a {shards}-shard router" if shards else "one session host"
    return report("sessioncheck", run(sessions, transports, shards),
                  f"Figures 5-12 byte-identical and fully isolated across "
                  f"{sessions} concurrent sessions over "
                  f"{' and '.join(transports)} on {hosting}")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
