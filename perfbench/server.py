"""The benchmark's server process: one workload's host, on TCP.

Started by ``run.py`` as a child process, in the same way as
``python -m repro.tools.replicacheck --primary``::

    python3 perfbench/server.py --workload NAME --out DIR [--trace]

It builds the workload's target — a plain :class:`SessionHost` under a
hibernation budget for ``visits``, a plain host for ``edit``, a
replicated two-shard :class:`ShardRouter` in sync mode for
``edit_replicated`` — listens on a loopback port, and prints
``ready HOST PORT``.  It then waits for ``stop`` on its standard input.
On ``stop`` it waits for the clients' sessions to leave, discards the
hibernated snapshots, audits the ledgers, shuts the target down and
prints one ``report {json}`` line: the audit, the session and wake
ledgers, CPU time since ``ready`` and the histograms and counters the
per-layer metrics need.

With ``--trace`` every layer's entry point is wrapped by a
:class:`tracing.Tracer` before the target is built; the spans are
summarised into the report and written to ``DIR/spans-server.tsv``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.metrics.counter import MetricsRegistry  # noqa: E402
from repro.serve import SessionHost, ShardRouter, kind_class  # noqa: E402

# the screen size workloads.py renders every reference screen at
WIDTH, HEIGHT = 160, 60
# the hibernation budget for visits: at most two visits are connected
# at once, so every drop hibernates and no victim is ever connected
VISITS_MAX_LIVE = 8
DRAIN_TIMEOUT = 30.0
OPS = ("attach", "walk", "open", "read", "write", "clunk")


def install_tracer():
    """Wrap each layer's public entry point where its caller looks it up."""
    import repro.fs.wire
    import repro.journal.recovery
    import repro.serve.host
    import repro.tools.install
    from repro.fs.mux import _Connection
    from repro.journal.log import Journal
    from repro.journal.recorder import SessionRecorder
    from repro.serve.replica import ReplicaFeed

    from tracing import Tracer

    def msg_type(msg) -> str:
        return type(msg).__name__ if msg is not None else ""

    tracer = Tracer()
    # the RPC as served: the root every other server span nests under
    tracer.wrap(_Connection, "_handle", "mux.handle",
                tag=lambda args, _r: args[1].op)
    tracer.wrap(repro.fs.wire, "encode", "wire.encode",
                tag=lambda args, _r: msg_type(args[0]), size=len)
    tracer.wrap(repro.fs.wire, "decode", "wire.decode",
                tag=lambda _a, result: msg_type(result and result[0]))
    tracer.wrap(repro.serve.host, "apply_record", "core.apply",
                tag=lambda args, _r: kind_class(args[1].kind))
    tracer.wrap(repro.serve.host, "render_screen", "core.render", size=len)
    tracer.wrap(repro.tools.install, "build_system", "install.build")
    tracer.wrap(repro.journal.recovery, "recover", "journal.recover")
    tracer.wrap(SessionRecorder, "compact_to_text", "journal.compact")
    tracer.wrap(Journal, "flush", "journal.flush")
    tracer.wrap(SessionHost, "hibernate", "host.hibernate")
    tracer.wrap(ReplicaFeed, "ship", "replica.ship")
    tracer.wrap(ShardRouter, "_route_channel", "shards.route")
    return tracer


def make_target(workload: str, spool: pathlib.Path):
    if workload == "visits":
        return SessionHost(width=WIDTH, height=HEIGHT,
                           max_live=VISITS_MAX_LIVE, spool=spool)
    if workload == "edit":
        return SessionHost(width=WIDTH, height=HEIGHT)
    if workload == "edit_replicated":
        return ShardRouter(shards=2, width=WIDTH, height=HEIGHT,
                           replicate=True, replica_mode="sync")
    raise ValueError(f"unknown workload {workload!r}")


def live_sessions(target) -> int:
    opened, closed = target.session_ledger()
    return opened - closed


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def shutdown(target, spool: pathlib.Path) -> dict:
    """Quiesce, discard the parked snapshots, audit, close, drain."""
    hosts = target.hosts if isinstance(target, ShardRouter) else [target]
    problems: list[str] = []
    deadline = time.monotonic() + DRAIN_TIMEOUT
    while live_sessions(target):
        if time.monotonic() > deadline:
            problems.append(f"{live_sessions(target)} sessions still live "
                            f"{DRAIN_TIMEOUT:.0f}s after the clients left")
            break
        time.sleep(0.01)
    for host in hosts:
        for sid in list(host.hibernated):
            host.evict(sid)
    problems += target.audit()
    # audit() balances both: opened == closed + live (none are live
    # now), and hibernated == woken + discarded (none are parked now)
    ledger = {name: sum(host.metrics.counter(f"host.sessions.{name}")
                        for host in hosts)
              for name in ("opened", "closed", "hibernated", "woken",
                           "discarded")}
    if isinstance(target, ShardRouter):
        promoted = target.metrics.counter("router.shards.promoted")
        if promoted:
            problems.append(f"{promoted} shards promoted mid-run")
    live_peak = max(host.live_peak for host in hosts)
    target.close()
    shutil.rmtree(spool, ignore_errors=True)
    drained = target.drain(into=MetricsRegistry("perfbench.server"))
    p50_us = {}
    for name in ([f"wire.rpc.{op}" for op in OPS]
                 + ["host.attach_us.cold", "host.attach_us.wake",
                    "replica.lag_us"]):
        stats = drained.histogram(name)
        p50_us[name] = stats["p50"] if stats else 0.0
    counters = {name: drained.counter(name) for name in (
        "session.input.applied", "fs.open", "fs.read", "fs.write",
        "fs.close")}
    return {"problems": problems, "ledger": ledger, "live_peak": live_peak,
            "p50_us": p50_us, "counters": counters}


def layer_figures(tracer, applied: int) -> dict:
    """The server's per-layer metrics from its spans."""
    from tracing import Summary

    s = Summary(tracer.spans)
    frames = ("Tship", "Rship", "")
    codec = [t for (n, t) in s.self_ns if n.startswith("wire.")
             and t not in frames]
    per = (lambda n: n / applied) if applied else (lambda n: 0.0)
    figures = {
        "install.build.calls": s.count("install.build"),
        "install.build.p50_ms": s.p50_ms("install.build"),
        "host.hibernate.calls": s.count("host.hibernate"),
        "host.hibernate.p50_ms": s.p50_ms("host.hibernate"),
        "journal.flush.p50_ms": s.p50_ms("journal.flush"),
        "journal.flush.per_record": per(s.count("journal.flush")),
        "journal.compact.p50_ms": s.p50_ms("journal.compact"),
        "journal.recover.p50_ms": s.p50_ms("journal.recover"),
        "core.render.p50_ms": s.p50_ms("core.render"),
        "core.render.kb": s.mean_size("core.render") / 1024,
        "wire.encode.p50_us": s.p50_ms("wire.encode", codec) * 1e3,
        "wire.decode.p50_us": s.p50_ms("wire.decode", codec) * 1e3,
        "wire.kb.per_read": s.mean_size("wire.encode", ("Rread",)) / 1024,
        "shards.route.p50_ms": s.p50_ms("shards.route"),
        "replica.ship.p50_ms": s.p50_ms("replica.ship"),
        "replica.ship.per_record": per(s.count("replica.ship")),
    }
    for klass in ("key", "mouse", "window", "exec"):
        figures[f"core.apply.{klass}.p50_ms"] = s.p50_ms("core.apply",
                                                         (klass,))
    for op in OPS:
        figures[f"trace.coverage.{op}"] = s.coverage(op)
    return figures


def main(argv: list[str]) -> int:
    workload = argv[argv.index("--workload") + 1]
    out = pathlib.Path(argv[argv.index("--out") + 1])
    traced = "--trace" in argv
    out.mkdir(parents=True, exist_ok=True)
    tracer = install_tracer() if traced else None
    spool = out / f"spool-{os.getpid()}"
    target = make_target(workload, spool)
    host, port = target.listen()
    cpu0 = cpu_seconds()
    print(f"ready {host} {port}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    cpu = cpu_seconds() - cpu0
    report = shutdown(target, spool)
    report["cpu_s"] = cpu
    if tracer is not None:
        applied = report["counters"]["session.input.applied"]
        report["layers"] = layer_figures(tracer, applied)
        tracer.write(out / "spans-server.tsv")
    print("report " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
