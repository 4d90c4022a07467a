"""The benchmark's own tests.

    python -m pytest perfbench/tests -q

Seeded inputs, metric names and output schema, the refusal to run
without the program, and a smoke run of every workload on a tiny trace.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PAIRS = [(asn, family) for asn in (3, 17, 42, 99, 254, 290, 311, 512)
         for family in ("AldiBot", "BlackEnergy", "DirtJumper", "Nitol",
                        "Optima", "Pandora", "YZF", "DDoSer", "Colddeath")]


def _hot(seed: int) -> bytes:
    working_set = workloads.hot_working_set(seed, PAIRS)
    bodies = workloads.hot_bodies(working_set)
    return b"\n".join(bodies[i] for i in workloads.hot_order(seed, len(bodies)))


def _sweep(seed: int, n: int = 200) -> list[bytes]:
    batches = workloads.sweep_batches(seed, PAIRS, 12 * 86400.0)
    return [workloads.sweep_body(*next(batches)) for _ in range(n)]


def test_same_seed_same_request_streams():
    assert _hot(7) == _hot(7)
    assert _sweep(7) == _sweep(7)


def test_other_seed_other_request_streams():
    assert _hot(7) != _hot(8)
    assert _sweep(7) != _sweep(8)


def test_sweep_batches_are_distinct_pairs_at_fresh_times():
    batches = workloads.sweep_batches(3, PAIRS, 12 * 86400.0)
    seen = set()
    for _ in range(3000):
        now, items = next(batches)
        assert now not in seen
        seen.add(now)
        assert 11 * 86400.0 <= now <= 12 * 86400.0
        assert len(set(items)) == len(items) == workloads.SWEEP_BATCH


def test_eligible_pairs_need_history_before_the_earliest_now():
    end = 12 * 86400.0
    early, late = end - 2 * 86400.0, end - 3600.0
    targets = [(1, early)] * 10 + [(2, early)] * 9 + [(3, late)] * 50
    assert workloads.eligible_pairs(targets, ["B", "A"], end) == [
        (1, "A"), (1, "B")]


@pytest.fixture(scope="module")
def tiny_feed():
    from repro.dataset.generator import DatasetConfig, TraceGenerator
    from repro.ingest import SimulatedFeed

    trace, _ = TraceGenerator(DatasetConfig(n_days=4, scale=0.5, seed=8)).generate()
    feed = SimulatedFeed(trace, horizon_days=1, batch_days=0.25)
    batches = []
    while not feed.exhausted:
        batches.append(feed.next_batch())
    return [b for b in batches if b]


def test_feed_order_is_seeded_and_keeps_every_record(tiny_feed):
    def encoded(seed):
        return json.dumps(workloads.feed_order(seed, tiny_feed)).encode()

    assert encoded(5) == encoded(5)
    assert encoded(5) != encoded(6)
    for original, ordered in zip(tiny_feed, workloads.feed_order(5, tiny_feed)):
        key = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
        assert sorted(map(key, original)) == sorted(map(key, ordered))


def test_benchmark_json_matches_the_runner():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    spec = json.loads(text)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == ["hot", "sweep"]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")


def _check_result(line: str, expected: dict) -> dict:
    """Validate the result line's schema; return it parsed."""
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    return result


def test_load_generator_never_imports_the_program():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import loadgen; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture
def tiny_world(tmp_path, monkeypatch):
    """Runs on a 4-day trace with one server and two refresh ops."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SERVERS_PER_RUN", 1)
    monkeypatch.setattr(run, "REFRESH_OPS", 2)
    monkeypatch.setattr(workloads, "WORLD_DAYS", 4)


def _run(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return _check_result(lines[-1], run.PER_LAYER if trace else run.END_TO_END)


def test_smoke_run_of_every_workload_on_a_tiny_trace(tiny_world, capsys):
    """Every workload traced, and one untraced, within a minute including
    the store build."""
    t0 = time.perf_counter()
    results = {}
    for workload, trace in (("hot", 0), ("hot", 1), ("sweep", 1)):
        result = _run(capsys, workload, trace)
        assert result["correct"], result
        results[workload, trace] = {k: v["value"]
                                    for k, v in result["metrics"].items()}
    assert time.perf_counter() - t0 < 60

    assert all(value > 0 for value in results["hot", 0].values())
    hot, sweep = results["hot", 1], results["sweep", 1]
    assert hot["serving.cache_hit_share"] >= 0.99
    assert abs(hot["server.reconcile_gap_share"]) <= run.RECONCILE_TOLERANCE
    assert hot["core.predict_ms_p50"] > 0
    assert hot["core.warm_refit_s"] == 0  # the refresh path runs on sweep
    assert sweep["serving.cache_hit_share"] <= 0.01
    assert 0 <= sweep["serving.batch_overhead_share"] < 1
    for name in ("server.handle_ms_p50", "serving.query_ms_p50",
                 "core.predict_ms_p50", "core.tree_ms_p50",
                 "core.features_self_ms_p50", "core.cold_fit_s",
                 "core.warm_refit_s", "persistence.stage_s",
                 "persistence.activate_s", "ingest.refresh_op_ms_p50",
                 "ingest.cold_seed_s", "ingest.append_ms_p50"):
        assert sweep[name] > 0, name
    assert sweep["ingest.refresh_op_ms_p50"] > sweep["ingest.append_ms_p50"]


def test_a_run_out_of_time_reports_failed_ops(tiny_world, monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 0.0)
    for workload, trace in (("hot", 0), ("sweep", 1)):
        result = _run(capsys, workload, trace)
        assert not result["correct"]
        assert result["failed"] >= 1


def test_load_generator_counts_a_dropped_connection_as_failed(tmp_path):
    """A server that closes the connection fails the op; no crash."""
    import loadgen

    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def close_one():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.close()

        closer = threading.Thread(target=close_one)
        closer.start()
        result = loadgen.run({
            "host": "127.0.0.1", "port": listener.getsockname()[1],
            "workload": "hot", "seed": 1, "connections": 1, "seconds": 1.0,
            "warmup_s": 0.0, "pairs": PAIRS[:workloads.HOT_WORKING_SET],
            "trace_end_s": 0.0})
        closer.join()
    assert result["failed"] == result["attempted"] == 1
    assert "closed" in result["errors"][0]
