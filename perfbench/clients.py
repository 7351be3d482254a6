"""The load generator: two closed-loop clients against the server.

Each client is one thread with at most one connection open at a time,
and sends its next request only after the reply to the last one — a
simulated user who waits to see the result of each click.  Think time
is zero: the loop measures the server, not a pause.

Every op is timed from just before the call to just after the reply
(:meth:`Clock.op`).  A Busy reply is retried after a short backoff
until :data:`BUSY_GIVE_UP` seconds have passed; only the successful
attempt is timed, and giving up fails the op.  Every screen read is compared
with the screen the planner computed for that point, so a wrong
screen counts as a failed op just like an error does.

The timed window opens when both clients have finished their warm-up
(a barrier) and closes ``seconds`` later; work in flight at the close
is finished untimed, so every session still ends on a checked screen.
With ``seconds=None`` the window stays open until a fixed amount of
work is done, which makes every count in the run exact for a seed.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

from repro.fs.errors import Busy, FsError
from repro.fs.mux import MuxClient, dial, mount_remote

from workloads import UNAME

CLIENTS = 2
BUSY_BACKOFF = 0.002     # seconds, times the attempt number ...
BUSY_BACKOFF_MAX = 0.02  # ... up to this
BUSY_GIVE_UP = 10.0      # seconds of Busy replies that fail an op
WARM_VISITS = 16         # untimed visits before the window opens
WARM_RECORDS = 100       # untimed records per edit client


class Stats:
    """What one client saw; merged across clients after the run."""

    def __init__(self) -> None:
        # per op class: (start, latency ms) of every op timed, and the
        # end of every op completed inside the window; times in seconds
        # from the window's opening
        self.ms: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.done: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def merge(self, other: "Stats") -> None:
        for op, values in other.ms.items():
            self.ms[op].extend(values)
        for op, values in other.done.items():
            self.done[op].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:20 - len(self.problems)])


class Clock:
    """The timed window shared by the clients, and the op timer.

    *on_mark* is called once, on the client thread that completes the
    *mark*-th write of the run (warm-up included): a fixed point in the
    work, whatever the host's speed."""

    def __init__(self, seconds: float | None, tracer=None,
                 mark: int | None = None, on_mark=None) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.mark = mark
        self.on_mark = on_mark
        self.writes = itertools.count(1)
        self.t0: float | None = None
        self.deadline: float | None = None
        self.barrier = threading.Barrier(CLIENTS, action=self._open)

    def _open(self) -> None:
        self.t0 = time.perf_counter()
        if self.seconds is not None:
            self.deadline = self.t0 + self.seconds

    def warm_done(self) -> None:
        """Called once per client; the window opens when both have.
        A client that failed during warm-up breaks the barrier, and
        the window then never opens."""
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            pass

    def over(self) -> bool:
        return self.deadline is not None \
            and time.perf_counter() >= self.deadline

    def span(self, name: str, tag: str = ""):
        if self.tracer is None:
            return nullcontext([tag, 0])
        return self.tracer.span(name, tag)

    def op(self, stats: Stats, name: str, fn):
        """Run one op, retrying Busy replies; time the success."""
        stats.attempted += 1
        give_up = time.perf_counter() + BUSY_GIVE_UP
        for attempt in itertools.count(1):
            with self.span("client.op", name) as label:
                start = time.perf_counter()
                try:
                    result = fn()
                except Busy:
                    label[0] = "busy"
                    if start >= give_up:
                        raise
                    retry = True
                else:
                    retry = False
                end = time.perf_counter()
            if retry:
                time.sleep(min(BUSY_BACKOFF * attempt, BUSY_BACKOFF_MAX))
                continue
            if name == "write" and next(self.writes) == self.mark:
                self.on_mark()
            if (self.t0 is not None and start >= self.t0
                    and (self.deadline is None or start < self.deadline)):
                stats.ms[name].append((start - self.t0, (end - start) * 1e3))
                if self.deadline is None or end <= self.deadline:
                    stats.done[name].append(end - self.t0)
            return result


def connect(clock: Clock, stats: Stats, addr, aname: str,
            op: str) -> MuxClient:
    """Dial and attach as one timed op; a refused attach closes its
    channel so no receiver thread outlives the attempt."""
    def attach() -> MuxClient:
        channel = dial(*addr)
        try:
            return MuxClient(channel, aname=aname, uname=UNAME)
        except BaseException:
            channel.close()
            raise
    return clock.op(stats, op, attach)


# -- visits -------------------------------------------------------------------


class TaskQueue:
    """The visit tasks in planned order, handed out one at a time."""

    def __init__(self, tasks, limit: int | None = None) -> None:
        self.tasks = tasks if limit is None else tasks[:limit]
        self.next = 0
        self.lock = threading.Lock()
        # uid -> set once that user's first visit has dropped
        self.dropped: dict[int, threading.Event] = {
            t.plan.uid: threading.Event() for t in self.tasks
            if t.kind == "visit"}

    def take(self):
        with self.lock:
            if self.next >= len(self.tasks):
                return None, -1
            index = self.next
            self.next += 1
            return self.tasks[index], index


def visit(clock: Clock, stats: Stats, addr, task, models) -> None:
    """One visit (attach, write, read, drop) or one return (wake)."""
    plan = task.plan
    model = models[plan.model]
    with clock.span("client.session", task.kind):
        client = connect(clock, stats, addr, plan.aname,
                         "attach" if task.kind == "visit" else "wake")
        try:
            remote = mount_remote(client)
            screen = remote.lookup("screen")
            if task.kind == "wake":
                # a woken world must show what its owner last saw
                seen = clock.op(stats, "read", lambda: screen.data)
                if seen != model.screens[-1]:
                    stats.fail(f"{plan.aname}: woken screen differs from "
                               f"the screen before the drop")
                return
            written = 0
            with remote.lookup("input").open("a") as sink:
                for step, arg in plan.steps:
                    if step == "write":
                        line = model.lines[int(arg)]
                        clock.op(stats, "write", lambda: sink.write(line))
                        written += 1
                    elif step == "read":
                        seen = clock.op(stats, "read", lambda: screen.data)
                        if seen != model.screens[written]:
                            stats.fail(f"{plan.aname}: screen after "
                                       f"{written} records of "
                                       f"{plan.model} differs")
        finally:
            client.close()  # the drop hibernates the session


def visits_client(stats: Stats, index: int, clock: Clock, addr,
                  queue: TaskQueue, models) -> None:
    warm = True
    try:
        # a task taken is always run: a wake waits for its visit's drop
        while not clock.over():
            task, at = queue.take()
            if warm and (task is None or at >= WARM_VISITS):
                warm = False
                clock.warm_done()
            if task is None:
                return
            if task.kind == "wake":
                # the drop was sent; until the server has hibernated the
                # session, the wake's attach is refused Busy ("already
                # attached") and retried, so every wake is a real wake
                queue.dropped[task.plan.uid].wait()
            try:
                visit(clock, stats, addr, task, models)
            except (FsError, OSError) as exc:
                stats.fail(f"{task.plan.aname} ({task.kind}): {exc!r}")
            finally:
                if task.kind == "visit":
                    queue.dropped[task.plan.uid].set()
    finally:
        if warm:
            clock.barrier.abort()  # never strand the other client


# -- edit ---------------------------------------------------------------------


class EditClient:
    """One user editing in one held session.

    The client streams its planned records, reading the screen at
    every planned point, and stops at the first read point after the
    window closes (or after *quota* records).  A client that runs out
    of stream starts it again in a fresh session.
    """

    def __init__(self, stats: Stats, index: int, clock: Clock, addr,
                 stream, quota: int | None) -> None:
        self.stats = stats
        self.index = index
        self.clock = clock
        self.addr = addr
        self.stream = stream
        self.quota = quota
        self.warm = True
        self.total = 0
        self.stopped = False

    def run(self) -> None:
        session = 0
        try:
            while not self.stopped:
                self.session(f"ed.c{self.index}.{session}")
                session += 1
        except (FsError, OSError) as exc:
            self.stats.fail(f"edit client {self.index}: {exc!r}")
        finally:
            if self.warm:
                self.clock.barrier.abort()  # never strand the other client

    def session(self, aname: str) -> None:
        clock, stats, stream = self.clock, self.stats, self.stream
        with clock.span("client.session", "edit"):
            client = connect(clock, stats, self.addr, aname, "attach")
            try:
                remote = mount_remote(client)
                screen = remote.lookup("screen")
                with remote.lookup("input").open("a") as sink:
                    reads = zip(stream.reads, stream.screens)
                    point, want = next(reads)
                    for done, line in enumerate(stream.lines, start=1):
                        clock.op(stats, "write", lambda: sink.write(line))
                        self.total += 1
                        if done != point:
                            continue
                        seen = clock.op(stats, "read", lambda: screen.data)
                        if seen != want:
                            stats.fail(f"{aname}: screen after {done} "
                                       f"records differs")
                        self.checkpoint()
                        if self.stopped:
                            return
                        point, want = next(reads, (None, None))
            finally:
                client.close()

    def checkpoint(self) -> None:
        if self.warm:
            if self.total >= WARM_RECORDS:
                self.warm = False
                self.clock.warm_done()
        elif self.clock.over() or (self.quota is not None
                                   and self.total >= self.quota):
            self.stopped = True


def edit_client(stats: Stats, index: int, clock: Clock, addr, streams,
                quota: int | None) -> None:
    EditClient(stats, index, clock, addr, streams[index], quota).run()


def run_clients(target, *args) -> Stats:
    """Run ``target(stats, index, *args)`` on each client thread; returns
    the merged stats."""
    def guarded(stats: Stats, index: int) -> None:
        try:
            target(stats, index, *args)
        except Exception as exc:  # a client bug fails the run, loudly
            traceback.print_exc()
            stats.fail(f"client {index}: {exc!r}")

    per = [Stats() for _ in range(CLIENTS)]
    threads = [threading.Thread(target=guarded, args=(per[i], i),
                                name=f"perfbench-client{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = Stats()
    for stats in per:
        merged.merge(stats)
    return merged
