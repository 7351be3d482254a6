"""Session identity: the bundle of state one help session owns.

The paper's ``help`` is one program serving one user; the ROADMAP
grows it toward a host serving many.  Everything that distinguishes
one session from another — its namespace, its metrics ledger, its
fault plan, its journal — travels together in a
:class:`SessionContext` so no layer has to reach for process globals:
:class:`~repro.core.help.Help`, :class:`~repro.helpfs.server.HelpFS`,
:class:`~repro.shell.interp.Interp`,
:class:`~repro.journal.log.Journal` and
:class:`~repro.journal.recorder.SessionRecorder` all accept one, and
:mod:`repro.serve` builds one per attached connection.

The deep substrate (VFS traversal, frame layout, the wire codec)
still reports metrics through the module-level ``incr``/``observe`` in
:mod:`repro.metrics.counter`; those calls resolve the **active**
registry at call time, so a host binds the session's ledger with
``context.metrics.activate()`` around any work it does on that
session's behalf and the whole call tree lands in the right ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.counter import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.faults import FaultPlan
    from repro.fs.namespace import Namespace
    from repro.journal.log import Journal
    from repro.journal.recorder import SessionRecorder


@dataclass
class SessionContext:
    """One session's identity and private state, threaded everywhere.

    - ``session_id`` — names the session in ``/srv/sessions`` listings,
      journal paths and metric labels;
    - ``ns`` — the session's namespace (its own fork of the world);
    - ``metrics`` — the session's private ledger; nothing this session
      does lands in another session's counters;
    - ``fault_plan`` — deterministic fault injection scoped to this
      session alone;
    - ``journal`` / ``recorder`` — the session's write-ahead log and
      the tee that feeds it, when recording is on.
    """

    session_id: str
    ns: "Namespace"
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    fault_plan: "FaultPlan | None" = None
    journal: "Journal | None" = None
    recorder: "SessionRecorder | None" = None
