"""Interaction-cost instrumentation.

The paper's evaluation is a demonstration with quantified gestures:
"two button clicks" to open ``dat.h``, "three button clicks" to fetch
a declaration, "a total of three clicks of the middle button" to fix
and rebuild, and "through this entire demo I haven't yet touched the
keyboard."  This package makes those claims measurable:

- :mod:`repro.metrics.counter` — per-session counters help maintains
  (button presses, keystrokes, gesture log);
- :mod:`repro.metrics.klm` — a keystroke-level model assigning times
  to operators (K, P, B, H) so interaction *cost* can be compared;
- :mod:`repro.metrics.baseline` — KLM scripts of the same tasks in a
  traditional pop-up-menu / typing interface, the implicit baseline
  the paper argues against.
"""

from repro.metrics.counter import (InteractionStats, MetricsRegistry,
                                   current_registry, incr, observe,
                                   percentile)
from repro.metrics.klm import KLM_TIMES, Action, Script, script_time

__all__ = ["InteractionStats", "Action", "Script", "script_time", "KLM_TIMES",
           "incr", "observe", "percentile", "MetricsRegistry",
           "current_registry"]
