"""Counting what the user actually did: clicks, sweeps, keystrokes.

:class:`InteractionStats` is attached to every
:class:`repro.core.help.Help` instance and updated by its event layer;
integration tests assert the paper's numbers against it.

The module also hosts the **performance counters** the incremental
display pipeline, the file servers, the wire transport and the journal
report into.  Since the session-scoped refactor they live in a
:class:`MetricsRegistry` — a thread-safe object holding counters and
bounded latency histograms — rather than in module globals, so one
process can run many isolated ``help`` sessions (see
:mod:`repro.serve`) without their ledgers bleeding into each other.

Emitters deep in the substrate do not carry a registry: the two
module-level writers, :func:`incr` and :func:`observe`, delegate to
the **active** registry — the one bound for the current execution
context with :meth:`MetricsRegistry.activate` (a ``contextvars``
binding, so each wire worker routes to its own session's or server's
registry).  Readers never go through the shim: they name the registry
they read.  An emit with no binding lands in one fixed, module-private
process registry, which nothing swaps; :func:`current_registry` says
which registry the calling context would credit.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

# -- bounded latency reservoirs ----------------------------------------------

# Per-histogram sample cap.  Exact count/sum/min/max are always kept;
# beyond the cap the sample list is decimated (every other sample
# dropped, stride doubled), a deterministic systematic sample that
# keeps quantiles stable while bounding a long-running host's memory.
RESERVOIR_CAP = 2048


class Reservoir:
    """One histogram: exact moments plus a capped, decimated sample."""

    __slots__ = ("count", "total", "minimum", "maximum", "samples",
                 "stride", "_pending")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples: list[float] = []
        self.stride = 1        # keep every stride-th observation
        self._pending = 0      # observations since the last kept one

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._pending += 1
        if self._pending < self.stride:
            return
        self._pending = 0
        self.samples.append(value)
        if len(self.samples) >= RESERVOIR_CAP:
            # decimate: keep every other sample, double the stride
            del self.samples[1::2]
            self.stride *= 2

    def fold(self, other: "Reservoir") -> None:
        """Absorb *other* (a closed session's ledger roll-up)."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.samples.extend(other.samples)
        while len(self.samples) >= RESERVOIR_CAP:
            del self.samples[1::2]
            self.stride *= 2

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "p50": percentile(self.samples, 0.50),
            "p95": percentile(self.samples, 0.95),
            "p99": percentile(self.samples, 0.99),
        }


def percentile(samples: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by linear interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


# -- the registry ------------------------------------------------------------


class MetricsRegistry:
    """One session's (or one process's) counters and histograms.

    Every mutation takes the registry lock: ``incr`` is a
    read-modify-write, and under the wire layer's worker pool two RPCs
    bump the same counter concurrently — unlocked, increments are lost
    and the benchgate ledger stops balancing.  The lock is uncontended
    in the single-session case and held for nanoseconds, so the hot
    paths (a dict bump per event) stay cheap.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._reservoirs: dict[str, Reservoir] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {self.name!r}>"

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add *n* to the named performance counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, int]:
        """A snapshot of all counters whose name starts with *prefix*."""
        with self._lock:
            return {k: v for k, v in self._counters.items()
                    if k.startswith(prefix)}

    def reset_counters(self, prefix: str = "") -> None:
        """Zero the counters starting with *prefix* ('' resets everything)."""
        with self._lock:
            for key in list(self._counters):
                if key.startswith(prefix):
                    del self._counters[key]

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one sample (e.g. a latency in microseconds) under *name*."""
        with self._lock:
            reservoir = self._reservoirs.get(name)
            if reservoir is None:
                reservoir = self._reservoirs[name] = Reservoir()
            reservoir.add(value)

    def observe_op(self, name: str, op: str, value: float) -> None:
        """Record one sample under *name* and its ``<name>.<op>`` bucket.

        Op-class tagging: the aggregate histogram answers "how slow is
        this path overall" while the per-op bucket answers "which op
        class blew the tail" — the shape the loadgen SLO budgets gate
        on (p99 per attach/read/write/apply/wake, not one blended
        number that a fast majority op can hide a regression inside).
        """
        with self._lock:
            for key in (name, f"{name}.{op}"):
                reservoir = self._reservoirs.get(key)
                if reservoir is None:
                    reservoir = self._reservoirs[key] = Reservoir()
                reservoir.add(value)

    def histogram(self, name: str) -> dict[str, float] | None:
        """Summary stats of the named histogram, or None if never observed.

        Keys: ``count``, ``min``, ``max``, ``p50``, ``p95``, ``p99`` —
        the shape benchmark reports and the wire layer's
        ``wire.rpc.<op>`` latency tracking need.  ``count``, ``min``,
        ``max`` and ``mean`` are exact however many samples were
        observed; the quantiles come from the bounded reservoir.
        """
        with self._lock:
            reservoir = self._reservoirs.get(name)
            if reservoir is None or not reservoir.count:
                return None
            return reservoir.summary()

    def histograms(self, prefix: str = "") -> dict[str, dict[str, float]]:
        """Summaries of every histogram whose name starts with *prefix*."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for name in sorted(self._reservoirs):
                if name.startswith(prefix):
                    reservoir = self._reservoirs[name]
                    if reservoir.count:
                        out[name] = reservoir.summary()
        return out

    def reset_histograms(self, prefix: str = "") -> None:
        """Drop the histograms starting with *prefix* ('' drops everything)."""
        with self._lock:
            for key in list(self._reservoirs):
                if key.startswith(prefix):
                    del self._reservoirs[key]

    # -- ledger roll-up ---------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s counters and histograms into this registry.

        The session host uses this at teardown: a closed session's
        private ledger is rolled up into the host's, so a benchmark
        run's ``BENCH_perf.json`` still carries the complete
        ``fs.open == fs.close`` balance across every session hosted.
        """
        with other._lock:
            counters = dict(other._counters)
            reservoirs = list(other._reservoirs.items())
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, theirs in reservoirs:
                mine = self._reservoirs.get(name)
                if mine is None:
                    mine = self._reservoirs[name] = Reservoir()
                mine.fold(theirs)

    @contextmanager
    def activate(self):
        """Bind this registry as the active one for the calling context.

        A ``with`` block: module-level :func:`incr`/:func:`observe`
        calls made anywhere under it — on this thread, in this
        context — credit this registry.  Bindings nest, and leaving
        the block restores whatever was bound before.
        """
        token = _active.set(self)
        try:
            yield self
        finally:
            _active.reset(token)


# -- the active-registry shim ------------------------------------------------

# Work with no owner — a quickstart script, a test's helper thread, an
# FsError built on a client thread — books here.  Nothing swaps it and
# nothing serving reads it: every thread the serving stack owns binds
# its owner's registry.
_PROCESS = MetricsRegistry("process")

# The active registry for the current execution context.  Threads
# start with an empty context, so they see _PROCESS until the code
# running them binds a registry with MetricsRegistry.activate().
_active: contextvars.ContextVar[MetricsRegistry] = \
    contextvars.ContextVar("repro_metrics_registry", default=_PROCESS)


def current_registry() -> MetricsRegistry:
    """The registry :func:`incr` and :func:`observe` route to, right now."""
    return _active.get()


def incr(name: str, n: int = 1) -> None:
    """Add *n* to the named counter in the active registry."""
    _active.get().incr(name, n)


def observe(name: str, value: float) -> None:
    """Record one histogram sample in the active registry."""
    _active.get().observe(name, value)


@dataclass
class InteractionStats:
    """Tallies of user input since the session began (or last reset)."""

    button_presses: int = 0
    keystrokes: int = 0
    gestures: list[str] = field(default_factory=list)

    def press(self, button_name: str) -> None:
        """Record one mouse button press."""
        self.button_presses += 1
        self.gestures.append(f"press:{button_name}")

    def keys(self, n: int) -> None:
        """Record *n* typed characters."""
        self.keystrokes += n
        if n:
            self.gestures.append(f"type:{n}")

    def note(self, what: str) -> None:
        """Record a semantic event (executed command, chord, ...)."""
        self.gestures.append(what)

    def reset(self) -> None:
        """Zero the counters (start of a measured task)."""
        self.button_presses = 0
        self.keystrokes = 0
        self.gestures.clear()

    @property
    def middle_clicks(self) -> int:
        """Presses of the middle (execute) button."""
        return sum(1 for g in self.gestures if g == "press:middle")

    @property
    def touched_keyboard(self) -> bool:
        """True if any text was typed (the zero-keystroke claim)."""
        return self.keystrokes > 0
