"""Test isolation for the metrics substrate.

Counters and histograms in :mod:`repro.metrics` live in a
:class:`~repro.metrics.MetricsRegistry`.  Code that doesn't carry an
explicit registry handle books into whichever registry is bound for
the calling context; servers book into their own ``server.metrics``.
Without isolation the test thread's ledger would bleed across tests:
a test asserting ``fs.open == fs.close`` would inherit every earlier
test's traffic, and its own leaks would poison later tests.

The autouse fixture binds a fresh registry on the test's own thread
for the length of the test (``MetricsRegistry.activate``) — no
process state is swapped, so threads the test starts, and servers it
builds, keep to their own ledgers.  The ``metrics`` fixture hands the
test that same registry to read, so a bare ``pytest
tests/x.py::one_test`` observes the same counters as a full run.
"""

import pytest

from repro.metrics.counter import MetricsRegistry


@pytest.fixture(autouse=True)
def metrics():
    """The registry bound on this test's thread for its duration."""
    with MetricsRegistry("test").activate() as registry:
        yield registry
