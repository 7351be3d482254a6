"""P8: loadgen soak — 1000 users of recorded traffic under SLO budgets.

Every other perf bench times one op in isolation; this one times the
*system under traffic*.  :mod:`repro.tools.loadgen` replays the
recorded Figures 5-12 journals as weighted scenarios for 1000
simulated users against a 4-shard router over real TCP sockets — a
closed loop of attach, think, write input records, read screens, drop
(which hibernates the world), and a seeded cohort returning to wake
what it parked.  The per-op-class latency histograms (attach / read /
write / apply / wake), error counts and backpressure counters become
the ``loadgen`` section of ``BENCH_perf.json``, where
:mod:`repro.tools.benchgate` enforces hard p99 ceilings and an
error-rate budget: a latency regression in any op class turns the
bench gate red even when every ledger still balances.
"""

from repro.tools import benchgate
from repro.tools.loadgen import LoadGen, build_models, validate

USERS = 1000     # simulated users in the soak
SHARDS = 4       # router shards the traffic spreads over
WORKERS = 8      # concurrent closed-loop drivers
SEED = 20260808  # the schedule: same seed, byte-identical traffic


def test_perf_loadgen_soak(benchmark, report_extra, metrics):
    """1000 recorded-journal users through 4 shards, SLOs enforced."""
    models = build_models()
    lg = LoadGen(users=USERS, shards=SHARDS, seed=SEED, workers=WORKERS,
                 transport="tcp", models=models)

    report = benchmark.pedantic(lg.run, rounds=1, iterations=1)

    # the fleet itself must be clean: every op class sampled, no
    # unexpected client-visible errors, host and router ledgers
    # balanced (LoadGen.run folds its audits into report.problems)
    assert validate(report) == [], validate(report)
    for op in ("attach", "read", "write", "apply", "wake"):
        assert report.op_us[op].get("count"), f"no {op} samples"
    assert report.ops["attach"] == USERS
    assert report.live_peak <= report.max_live

    # the SLO budget table holds on this run's own numbers — the same
    # audit benchgate applies to the emitted section, asserted here so
    # a breach names the failing bench, not just the gate
    assert benchgate.audit_loadgen(report.to_dict()) == []

    # fold only the loadgen ledger (client op histograms + host-level
    # counters) into the report — a full drain() would carry every
    # session's journal appends into the counters and imbalance the
    # journal benches' closed append==replay+dropped loop
    metrics.merge(lg.metrics)
    report_extra("loadgen", **report.to_dict())
    benchmark.extra_info["users"] = USERS
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["ops_total"] = sum(report.ops.values())
    if report.duration_s:
        benchmark.extra_info["ops_per_sec"] = round(
            sum(report.ops.values()) / report.duration_s, 1)
