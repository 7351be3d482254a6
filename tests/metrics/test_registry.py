"""The MetricsRegistry: thread safety, bounded reservoirs, the shim.

The session-scoped architecture hangs off three properties proved
here: ``incr`` is atomic under contention (the mux worker pool bumps
shared counters concurrently), histograms hold bounded memory however
long a host runs, and the module-level ``incr``/``observe`` route to
whichever registry ``activate()`` bound for the calling context.
"""

from __future__ import annotations

import threading

import pytest

from repro.metrics.counter import (
    RESERVOIR_CAP,
    MetricsRegistry,
    Reservoir,
    current_registry,
    incr,
    percentile,
)


# -- the lost-update stress test ----------------------------------------------


def test_threaded_incr_loses_no_updates():
    """N threads x M increments must land exactly N*M.

    Before the registry, ``incr`` was an unlocked read-modify-write on
    a module dict; under the wire layer's worker pool two RPCs could
    interleave the read and the write and drop increments.  This is
    the regression test: any lost update breaks the exact total.
    """
    registry = MetricsRegistry("stress")
    threads, per_thread = 8, 5_000

    def hammer():
        for _ in range(per_thread):
            registry.incr("stress.count")
            registry.observe("stress.sample", 1.0)

    pool = [threading.Thread(target=hammer) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert registry.counter("stress.count") == threads * per_thread
    assert registry.histogram("stress.sample")["count"] == threads * per_thread


def test_threaded_shim_respects_per_thread_binding():
    """Each thread's activate() binding routes only its own calls."""
    registries = [MetricsRegistry(f"t{i}") for i in range(4)]

    def work(registry):
        with registry.activate():
            for _ in range(1_000):
                incr("bound.count")

    pool = [threading.Thread(target=work, args=(r,)) for r in registries]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    for registry in registries:
        assert registry.counter("bound.count") == 1_000


# -- counters -----------------------------------------------------------------


def test_counter_basics_and_prefix_reset():
    registry = MetricsRegistry()
    registry.incr("a.one")
    registry.incr("a.two", 5)
    registry.incr("b.one")
    assert registry.counter("a.two") == 5
    assert registry.counters("a.") == {"a.one": 1, "a.two": 5}
    registry.reset_counters("a.")
    assert registry.counters("a.") == {}
    assert registry.counter("b.one") == 1
    registry.reset_counters()
    assert registry.counters() == {}


# -- bounded histograms -------------------------------------------------------


def test_reservoir_stays_bounded():
    """A million observations keep at most RESERVOIR_CAP samples."""
    registry = MetricsRegistry()
    for i in range(100_000):
        registry.observe("lat", float(i))
    reservoir = registry._reservoirs["lat"]
    assert len(reservoir.samples) < RESERVOIR_CAP
    stats = registry.histogram("lat")
    # the exact moments never decay
    assert stats["count"] == 100_000
    assert stats["min"] == 0.0
    assert stats["max"] == 99_999.0
    assert stats["mean"] == pytest.approx(49_999.5)


def test_reservoir_quantiles_stay_accurate_past_the_cap():
    """Stride decimation is a systematic sample: quantiles hold."""
    registry = MetricsRegistry()
    n = 50_000
    for i in range(n):
        registry.observe("lat", float(i))
    stats = registry.histogram("lat")
    # within 1% of the true quantile despite keeping ~2k of 50k samples
    assert stats["p50"] == pytest.approx(n * 0.50, rel=0.01)
    assert stats["p95"] == pytest.approx(n * 0.95, rel=0.01)
    assert stats["p99"] == pytest.approx(n * 0.99, rel=0.01)


def test_histogram_report_shape_is_stable():
    """The summary keys existing benches consume are all present."""
    registry = MetricsRegistry()
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.observe("op", value)
    stats = registry.histogram("op")
    assert set(stats) == {"count", "min", "max", "mean", "p50", "p95", "p99"}
    assert stats["count"] == 4
    assert stats["p50"] == pytest.approx(2.5)
    assert registry.histogram("never") is None
    registry.reset_histograms()
    assert registry.histograms() == {}


def test_percentile_linear_interpolation_unchanged():
    assert percentile([1.0], 0.5) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0  # sorts first
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_reservoir_fold_merges_exact_moments():
    a, b = Reservoir(), Reservoir()
    for i in range(10):
        a.add(float(i))
    for i in range(10, 20):
        b.add(float(i))
    a.fold(b)
    assert a.count == 20
    assert a.minimum == 0.0 and a.maximum == 19.0
    assert a.total == pytest.approx(sum(range(20)))


# -- the default/active plumbing ----------------------------------------------


def test_module_shim_routes_to_active_registry(metrics):
    mine = MetricsRegistry("mine")
    incr("shim.count")  # the test's own binding (the metrics fixture)
    with mine.activate() as bound:
        assert bound is mine
        incr("shim.count", 2)
        assert current_registry() is mine
    assert mine.counter("shim.count") == 2
    assert metrics.counter("shim.count") == 1
    assert current_registry() is metrics


def test_activate_nests_and_restores():
    outer, inner = MetricsRegistry("outer"), MetricsRegistry("inner")
    with outer.activate():
        with inner.activate():
            incr("n")
            assert current_registry() is inner
        incr("n")
        assert current_registry() is outer
    assert inner.counter("n") == 1
    assert outer.counter("n") == 1


def test_merge_folds_counters_and_histograms():
    target, source = MetricsRegistry("a"), MetricsRegistry("b")
    target.incr("shared", 1)
    source.incr("shared", 2)
    source.incr("only.b", 3)
    source.observe("lat", 10.0)
    target.merge(source)
    assert target.counter("shared") == 3
    assert target.counter("only.b") == 3
    assert target.histogram("lat")["count"] == 1
    # the source is untouched
    assert source.counter("shared") == 2
