"""Tests of the benchmark itself: seeded inputs, metric names, spans, failure accounting.

Run with ``python -m pytest bench``.  Inputs are shrunk so every workload
finishes in about a second.
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (ROOT / "src", ROOT / "tests", BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import fixtures  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"TRAIN_SENTENCES": 40, "TAIL_SENTENCES": 60, "PROVE_FORMULAS": 64, "TAIL_QUERIES": 12}


@pytest.fixture
def small_inputs(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(fixtures, name, value)


def test_same_seed_gives_same_input_digests(small_inputs, tmp_path):
    for workload in bench_run.WORKLOADS:
        first = fixtures.make_fixtures(workload, 7, tmp_path / "a" / workload)
        again = fixtures.make_fixtures(workload, 7, tmp_path / "b" / workload)
        other = fixtures.make_fixtures(workload, 8, tmp_path / "c" / workload)
        assert first and first == again
        assert first != other


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One untraced and one traced run of every workload on tiny inputs."""
    patch = pytest.MonkeyPatch()
    for name, value in SMALL.items():
        patch.setattr(fixtures, name, value)
    patch.setattr(bench_run, "OUT", tmp_path_factory.mktemp("bench_out"))
    deadline = time.monotonic() + 600
    try:
        return {
            (workload, trace): bench_run.run_one(workload, 3, 0.2, trace, deadline)
            for workload in bench_run.WORKLOADS
            for trace in (False, True)
        }
    finally:
        patch.undo()


def test_result_metric_names_match_benchmark_json(records):
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    computed = {"trace.overhead_share"}  # the launcher adds this one from both runs
    for (workload, trace), record in records.items():
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == (per_layer if trace else end_to_end), workload
        assert result["correct"], (workload, record.get("traced", record["untraced"])["problems"])
        assert result["attempted"] >= 1
        assert set(record["untraced"]["end_to_end"]) == set(end_to_end), workload
        if trace:
            computed.update(record["traced"]["layers"])
    # Every per-layer metric is computed by some workload, none only defaulted.
    assert computed == set(per_layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)


def test_operation_reads_its_fastest_pass_and_fails_by_majority():
    passes = [
        [(0.1, None), (0.05, "timeout"), (0.3, None)],
        [(0.5, None), (0.05, "timeout"), (0.05, "timeout")],
        [(0.2, None), (0.02, None), (0.1, None)],
        [(0.4, None), (0.05, "timeout"), (0.2, None)],
    ]
    assert workloads.combine_passes(passes, ["a", "b", "x"]) == [
        (0.1, None, "a"),  # the fastest of four passes
        (0.05, "timeout", "b"),  # timed out in three of four passes
        (0.1, None, "x"),  # timed out in one of four, which does not count
    ]


def test_traced_run_emits_a_span_for_every_layer(records):
    seen = set()
    for (workload, trace), record in records.items():
        if trace:
            seen.update(record["traced"]["span_names"])
    assert set(workloads.SPAN_METRICS) <= seen
    assert {name.split(".")[0] for name in seen} == {
        "formula", "prover", "corpus", "model", "retrieval", "inference"
    }


def test_timeout_and_recursion_error_count_as_failed_operations(monkeypatch, tmp_path):
    items = [
        ["random", 1, "p->p"],
        ["chain", 1000, fixtures.chain_text(["p"] * 1000)],
        ["random", 1, "q->q"],
        ["random", 1, "r->r"],
    ]
    (tmp_path / "formulas.json").write_text(json.dumps(items), encoding="utf-8")
    prove = workloads.prover.prove

    def step():
        pass

    def stalls_on_q_and_loops_on_r(goal):
        surface = getattr(goal.antecedent, "surface", "")[:1]  # passes rename q to qa, qb, ...
        if surface == "q":
            time.sleep(5)  # past the wall-clock safety deadline
        if surface == "r":
            for _ in range(workloads.BUDGET_CALLS + 1):  # past the call budget
                step()
        return prove(goal)

    monkeypatch.setattr(workloads.prover, "prove", stalls_on_q_and_loops_on_r)
    monkeypatch.setattr(workloads, "SAFETY_S", 0.2)
    result = workloads.run_workload("prove-mix", 1, 0.0, False, tmp_path, tmp_path, share=0.0)
    assert signal.getsignal(signal.SIGALRM) is not workloads._on_alarm
    assert result["attempted"] == 8
    # the chain twice (RecursionError), q->q decide (deadline) and r->r decide (budget)
    assert result["failed"] == 4
    assert result["details"]["failures"] == {"recursion_parse": 2, "timeout": 2}
    assert result["details"]["timed_requests"] == 4
    assert result["details"]["pass_failures"] == [0, 0]
    assert result["wrong"] == 0
    assert result["layers"]["prover.timeouts"] == 2
    assert result["layers"]["formula.recursion_errors"] == 2
    assert result["end_to_end"]["op_p90_ms"] == pytest.approx(workloads.DEADLINE_S * 1e3)
