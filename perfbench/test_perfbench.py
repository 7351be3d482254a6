"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Tiny runs of every workload against a real server child, with every
correctness check on; the determinism of the planned inputs; a
corrupted reference that must show as failed ops; and the traced run's
metric set and exact counts.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.tools import loadgen  # noqa: E402

TINY = run.Sizes(stream_records=300, trace_tasks=40, trace_records=150)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("install.build.calls", "mux.rpcs.per_visit", "mux.rpcs.per_read",
         "mux.rpcs.per_write")


@pytest.fixture(scope="module")
def models():
    return workloads.visit_models()


def test_same_seed_same_inputs_other_seed_other_inputs(models):
    traffic, _ = models
    crc = {seed: loadgen.schedule_crc(loadgen.schedule(seed, 200, traffic))
           for seed in (3, 3, 4)}
    assert len(set(crc.values())) == 2
    first = workloads.edit_stream(3, 0, 200).crc()
    assert workloads.edit_stream(3, 0, 200).crc() == first
    assert workloads.edit_stream(4, 0, 200).crc() != first
    assert workloads.edit_stream(3, 1, 200).crc() != first


def test_edit_stream_reads_end_on_the_last_record():
    stream = workloads.edit_stream(5, 0, 120)
    assert stream.reads[-1] == len(stream.lines)
    assert len(stream.screens) == len(stream.reads)
    gaps = [b - a for a, b in zip((0,) + stream.reads, stream.reads)]
    assert max(gaps) < 12


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_every_check(workload):
    result = run.measure(workload, 7, 1, False, TINY)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_wrong_reference_screen_counts_as_failed(models):
    _traffic, by_name = models
    plan = run.make_plan("visits", 9, 1, TINY)
    plan.models = {name: workloads.Model(m.name, m.lines,
                                         m.screens[:-1] + ("corrupt\n",))
                   for name, m in by_name.items()}
    server, _took = run.start_server("visits", traced=False)
    try:
        p = run.drive(server, plan, 1, TINY)
    finally:
        server.kill()
    assert p.stats.failed > 0
    assert run.client_figures(p)["failed_ratio"] > 0
    assert any("differs" in problem for problem in p.stats.problems)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run.measure(workload, 11, 1, True, TINY)
    assert result["correct"], result
    assert list(result["metrics"]) == [m["name"]
                                       for m in DECLARED["per_layer"]]
    figures = {k: v["value"] for k, v in result["metrics"].items()}
    assert figures["install.build.calls"] >= 2
    assert figures["mux.rpcs.per_write"] == 1.0
    assert 0 < figures["trace.coverage.write"] <= 1
    replicated = figures["replica.ship.per_record"] > 0
    assert replicated == (workload == "edit_replicated")
    if workload == "visits":
        assert figures["host.hibernate.calls"] > 0
        assert figures["journal.recover.p50_ms"] > 0


def test_busy_is_retried_and_the_mark_fires_once():
    import clients
    from repro.fs.errors import Busy

    marks = []
    clock = clients.Clock(None, mark=3, on_mark=lambda: marks.append(1))
    stats = clients.Stats()
    replies = iter([Busy("already attached"), Busy("already attached")])

    def refused_twice():
        for reply in replies:
            raise reply
        return "ok"

    assert clock.op(stats, "wake", refused_twice) == "ok"
    for _ in range(5):
        clock.op(stats, "write", lambda: None)
    assert marks == [1]
    assert stats.attempted == 6 and stats.failed == 0


def test_exact_counts_repeat_for_one_seed():
    first, second = (run.measure("visits", 13, 1, True, TINY)["metrics"]
                     for _ in range(2))
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_benchmark_file_keeps_its_contract():
    assert list(DECLARED) == ["command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(run.WORKLOADS)
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    every = names + [m["name"] for m in metrics]
    assert len(every) == len(set(every))
    assert all(name.match(n) for n in every)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in DECLARED["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(DECLARED["command"] + [
        "--workload", "edit", "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
