"""One benchmark run of the forecast service.

    python3 perfbench/run.py --workload hot|sweep --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it carries the run's host diagnostics.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Everything a run writes: the model store it builds, logs, scratch.
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(BENCH))
import diag  # noqa: E402
import workloads  # noqa: E402

#: Fresh server processes per run.  Each boot is a ``setup_s`` sample,
#: and the timed window is split over them and pooled, so no single
#: process sets a run.
SERVERS_PER_RUN = 3
BOOT_TIMEOUT_S = 60.0
#: Refresh ops the traced ``sweep`` run times after its cold seed.
REFRESH_OPS = 4
WARMUP_S = 0.5
#: Seconds after the model store is ready by which a run stops starting
#: work.  Work it could not finish by then (a server that never boots or
#: hangs, refresh ops not reached) counts as failed, so a change that
#: makes the program several times slower, or hangs it, still gets a
#: result line within the three minutes a run may take.
RUN_BUDGET_S = 150.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "client.op_p99_ms": "ms",
    "client.samples": "count",
    "client.cpu_share": "ratio",
    "host.probe_ms": "ms",
    "host.probe_drift_share": "ratio",
    "host.steal_share": "ratio",
    "server.cpu_ms_per_op": "ms",
    "server.handle_ms_p50": "ms",
    "server.dispatch_self_ms_p50": "ms",
    "server.wire_ms_p50": "ms",
    "server.requests": "count",
    "server.bad_requests": "count",
    "server.shed": "count",
    "server.reconcile_gap_share": "ratio",
    "serving.query_ms_p50": "ms",
    "serving.cache_hit_share": "ratio",
    "serving.coalesced_share": "ratio",
    "serving.model_answer_share": "ratio",
    "serving.fallback_share": "ratio",
    "serving.batch_overhead_share": "ratio",
    "core.predict_ms_p50": "ms",
    "core.history_ms_p50": "ms",
    "core.temporal_ms_p50": "ms",
    "core.spatial_ms_p50": "ms",
    "core.tree_ms_p50": "ms",
    "core.features_self_ms_p50": "ms",
    "core.cold_fit_s": "s",
    "core.warm_refit_s": "s",
    "core.fit.temporal_s": "s",
    "core.fit.spatial_s": "s",
    "core.fit.tree_s": "s",
    "persistence.restore_s": "s",
    "persistence.stage_s": "s",
    "persistence.verify_s": "s",
    "persistence.activate_s": "s",
    "ingest.refresh_op_ms_p50": "ms",
    "ingest.cold_seed_s": "s",
    "ingest.append_ms_p50": "ms",
    "ingest.tail_ms_p50": "ms",
    "ingest.drift_observe_us_p50": "us",
    "dataset.load_trace_s": "s",
    "telemetry.trace_overhead_ms": "ms",
}

#: The traced ``hot`` run's stages must add up to the client's p50
#: within this share of it.
RECONCILE_TOLERANCE = 0.10
#: Span times are rounded to the microsecond on the wire.
SPAN_SLACK_MS = 0.003

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def generator_env() -> dict:
    """The load generator's environment: ``repro`` is not importable."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


# ----- the model store the servers boot from -----

def source_digest() -> str:
    """Digest of the program's source and the trace world."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update(f"{workloads.WORLD_DAYS}/{workloads.WORLD_SCALE}/"
                  f"{workloads.WORLD_SEED}".encode())
    return digest.hexdigest()[:16]


def build_store() -> Path:
    """The versioned store ``repro export-models`` builds from this source.

    Built once per source digest and reused by later runs of the same
    checkout; a different source never sees it.
    """
    store = WORK / f"store-{source_digest()}"
    if (store / "CURRENT").is_file():
        return store
    WORK.mkdir(parents=True, exist_ok=True)
    staging = WORK / f".building-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    t0 = time.perf_counter()
    with open(WORK / "export.log", "w") as log:
        subprocess.run(
            [sys.executable, "-m", "repro", "export-models",
             "--days", str(workloads.WORLD_DAYS),
             "--scale", str(workloads.WORLD_SCALE),
             "--seed", str(workloads.WORLD_SEED),
             "--store", str(staging), "--keep", "1"],
            cwd=ROOT, env=program_env(), stdout=log, stderr=log,
            stdin=subprocess.DEVNULL, check=True, timeout=600)
    os.replace(staging, store)
    print(f"built model store {store.name} in "
          f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return store


# ----- the server -----

def _request(port: int, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """``python -m repro serve-http --store S`` with default flags.

    ``--port 0`` only lets the kernel pick a free port; the port is read
    from the server's own log.  ``setup_s`` runs from spawn to the first
    ``/healthz`` 200.
    """

    def __init__(self, store: Path, log_path: Path, timeout_s: float) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http",
             "--store", str(store), "--port", "0"],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)
        try:
            self.port = self._await_port(t0 + timeout_s)
            self._await_healthy(t0 + timeout_s)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve-http exited {self.proc.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            time.sleep(0.002)
        raise TimeoutError("serve-http did not start listening")

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if _request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.002)
        raise TimeoutError("serve-http never reported healthy")

    def counters(self) -> dict:
        status, body = _request(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)["counters"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def run_generator(spec: dict, tag: str, timeout_s: float) -> dict:
    """One window of load; a generator that dies or hangs is one failed op."""
    spec_path = WORK / f"loadgen-{tag}.spec.json"
    out_path = WORK / f"loadgen-{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "loadgen.py"),
                        str(spec_path), str(out_path)],
                       cwd=ROOT, env=generator_env(), stdin=subprocess.DEVNULL,
                       check=True, timeout=max(timeout_s, 1.0))
        return json.loads(out_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return {"ops": 0, "attempted": 1, "failed": 1,
                "errors": [f"load generator: {type(exc).__name__}: {exc}"],
                "wall_s": 0.0, "cpu_s": 0.0, "latencies_ms": [], "kept": [],
                "kept_all": []}


# ----- checks -----

#: Fields that record timing, cache state or tracing, not the forecast;
#: ``schema_version`` is checked on its own, since batch items carry it
#: only on the batch body.
_NOT_COMPARED = ("latency_s", "cached", "trace_id", "spans", "schema_version")


def _comparable(forecast: dict) -> dict:
    """A served forecast dict without the fields that are not compared."""
    return {k: v for k, v in forecast.items() if k not in _NOT_COMPARED}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


class Reference:
    """An in-process ``ForecastEngine`` restored from the served store."""

    def __init__(self, store: Path) -> None:
        from repro.dataset.generator import SimulationEnvironment
        from repro.dataset.loader import load_trace
        from repro.evaluation.reporting import FORECAST_SCHEMA_VERSION
        from repro.persistence import ModelStore
        from repro.serving import ForecastEngine, ModelRegistry

        self.schema_version = FORECAST_SCHEMA_VERSION
        trace_file = ModelStore(store).resolve().path / ModelStore.TRACE_FILE
        t0 = time.perf_counter()
        self.trace = load_trace(trace_file)
        self.load_trace_s = time.perf_counter() - t0
        self.env = SimulationEnvironment.from_metadata(self.trace.metadata)
        registry = ModelRegistry()
        t0 = time.perf_counter()
        restored = registry.load(store, self.trace, self.env)
        self.restore_s = time.perf_counter() - t0
        if not restored:
            raise RuntimeError(f"store {store} restored no model")
        self.predictor = restored[0].predictor
        self.engine = ForecastEngine(self.trace, self.env, registry=registry,
                                     max_workers=1)
        self.trace_end_s = self.trace.n_hours * 3600.0
        self.pairs = workloads.eligible_pairs(
            [(a.target_asn, a.start_time) for a in self.trace.attacks],
            self.trace.families(), self.trace_end_s)

    def expected(self, asn: int, family: str, now: float | None) -> dict:
        from repro.serving import ForecastRequest

        forecast = self.engine.query(ForecastRequest(asn, family, now))
        return json.loads(json.dumps(_comparable(forecast.to_dict())))

    def mismatch(self, served: dict, asn: int, family: str,
                 now: float | None) -> str | None:
        """Why a served forecast differs from the reference, or ``None``."""
        if not _finite(served.get("forecast")):
            return f"non-finite forecast for ({asn}, {family}, {now})"
        expected = self.expected(asn, family, now)
        if _comparable(served) != expected:
            return (f"({asn}, {family}, {now}): served {_comparable(served)} "
                    f"!= reference {expected}")
        return None

    def close(self) -> None:
        self.engine.close()


def _check_answer(workload: str, key, text: str, working_set: list,
                  reference: Reference) -> str | None:
    body = json.loads(text)
    if body.get("schema_version") != reference.schema_version:
        return f"schema_version {body.get('schema_version')}"
    if workload == "hot":
        asn, family = working_set[key]
        return reference.mismatch(body, asn, family, None)
    now, items = key
    served = body.get("forecasts") or []
    if len(served) != len(items):
        return f"{len(served)} forecasts for {len(items)} requests"
    for (asn, family), answer in zip(items, served):
        problem = reference.mismatch(answer, asn, family, now)
        if problem:
            return problem
    return None


def check_answers(workload: str, kept: list, working_set: list,
                  reference: Reference) -> list[str]:
    """One problem string per kept answer that fails the correctness gate."""
    problems = []
    for key, text in kept:
        try:
            problem = _check_answer(workload, key, text, working_set,
                                    reference)
        except (ValueError, AttributeError, KeyError, TypeError) as exc:
            problem = f"unreadable answer {text[:200]!r}: {exc!r}"
        if problem:
            problems.append(problem)
    return problems


# ----- the http workloads -----

def _spans(body: dict) -> tuple[float, list[tuple[float, float]]]:
    """``server.handle`` ms and the ``serving.query`` spans of one answer.

    Raises ``ValueError`` for an answer without a ``server.handle`` span.
    """
    handle = [s["elapsed_s"] for s in body.get("spans", ())
              if s["name"] == "server.handle"]
    if not handle:
        raise ValueError("traced answer has no server.handle span")
    forecasts = body.get("forecasts") or [body]
    queries = [(s["start_s"], s["elapsed_s"])
               for f in forecasts for s in f.get("spans", ())
               if s["name"] == "serving.query"]
    return handle[0] * 1000.0, queries


def _covered_ms(spans: list[tuple[float, float]]) -> float:
    """Wall time the union of ``(start_s, elapsed_s)`` spans covers, in ms."""
    covered, end = 0.0, -math.inf
    for start, elapsed in sorted(spans):
        stop = start + elapsed
        if stop > end:
            covered += stop - max(start, end)
            end = stop
    return covered * 1000.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _remaining(deadline: float) -> float:
    return deadline - time.perf_counter()


def run_http(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    store = build_store()
    deadline = time.perf_counter() + RUN_BUDGET_S
    reference = Reference(store)
    if workload == "hot":
        working_set = workloads.hot_working_set(seed, reference.pairs)
        pairs, connections = working_set, len(os.sched_getaffinity(0))
    else:
        working_set, pairs, connections = [], reference.pairs, 1
    window_s = seconds / SERVERS_PER_RUN
    spec = {"host": "127.0.0.1", "workload": workload,
            "connections": connections, "seconds": window_s,
            "warmup_s": WARMUP_S, "pairs": pairs,
            "trace_end_s": reference.trace_end_s}

    windows = {"plain": [], "traced": []}
    setup, rss, failures = [], [], []
    server_cpu_s, deltas = 0.0, {}
    probe_before, steal = diag.probe_ms(), [0, 0]
    for k in range(SERVERS_PER_RUN):
        if _remaining(deadline) <= 0:
            failures.append(f"server {k}: not started, the run's "
                            f"{RUN_BUDGET_S:.0f} s budget is spent")
            continue
        server = None
        try:
            server = Server(store, WORK / f"server-{k}.log",
                            min(BOOT_TIMEOUT_S, _remaining(deadline)))
            setup.append(server.setup_s)
            # fill the prediction cache so /metrics deltas see only hits
            for body in workloads.hot_bodies(working_set):
                status, answer = _request(server.port, "POST",
                                          "/v1/forecast", body)
                if status != 200:
                    raise RuntimeError(f"warm-up forecast answered {status}: "
                                       f"{answer[:200]!r}")
            for name in ("plain", "traced") if traced else ("plain",):
                before = server.counters()
                cpu0, host0 = diag.process_cpu_s(server.proc.pid), diag.cpu_times()
                result = run_generator(
                    {**spec, "port": server.port, "traced": name == "traced",
                     "keep_all": name == "traced",
                     # each server answers a different stretch of the stream
                     "seed": seed * SERVERS_PER_RUN + k},
                    f"{workload}-{k}-{name}", _remaining(deadline))
                host1 = diag.cpu_times()
                steal[0] += host1[0] - host0[0]
                steal[1] += host1[1] - host0[1]
                windows[name].append(result)
                if name == "plain":
                    server_cpu_s += diag.process_cpu_s(server.proc.pid) - cpu0
                    after = server.counters()
                    for counter in set(after) | set(before):
                        deltas[counter] = (deltas.get(counter, 0)
                                           + after.get(counter, 0)
                                           - before.get(counter, 0))
            rss.append(diag.peak_rss_mb(server.proc.pid))
        except Exception as exc:  # a broken server is a failed op, not a crash
            failures.append(f"server {k}: {type(exc).__name__}: {exc}")
        finally:
            if server is not None:
                server.stop()
    probe_after = diag.probe_ms()

    plain = windows["plain"]
    latencies = [x for r in plain for x in r["latencies_ms"]]
    ops = sum(r["ops"] for r in plain)
    wall = sum(r["wall_s"] for r in plain)
    errors = [e for r in plain for e in r["errors"]]
    problems = list(failures)
    for r in plain:
        problems += check_answers(workload, r["kept"], working_set, reference)
        if workload == "hot" and r["ops"] and len(r["kept"]) != len(working_set):
            problems.append(f"only {len(r['kept'])} of {len(working_set)} "
                            "working-set pairs answered")

    out = {
        "attempted": sum(r["attempted"] for r in plain) + len(failures),
        "failed": sum(r["failed"] for r in plain) + len(problems),
        "errors": (problems + errors)[:5],
        "metrics": {
            "ops_per_s": _share(ops, wall),
            "op_p50_ms": diag.p50(latencies),
            "setup_s": diag.p50(setup),
            "peak_rss_mb": diag.p50(rss),
        },
        "diagnostics": {
            "client.samples": len(latencies),
            "client.op_p99_ms": diag.percentile(latencies, 99),
            "client.cpu_share": _share(sum(r["cpu_s"] for r in plain), wall),
            "host.probe_ms": (probe_before + probe_after) / 2,
            "host.probe_drift_share": _share(probe_after - probe_before,
                                             probe_before),
            "host.steal_share": _share(steal[1], steal[0]),
            "server.cpu_ms_per_op": _share(server_cpu_s * 1000.0, ops),
            "per_server_ops_per_s": [_share(r["ops"], r["wall_s"]) for r in plain],
            "per_server_op_p50_ms": [diag.p50(r["latencies_ms"]) for r in plain],
            "setup_samples_s": setup,
        },
    }
    if traced:
        out["layers"] = http_layers(workload, windows, deltas, reference,
                                    working_set, out)
    reference.close()
    if traced and workload == "sweep":
        refresh = refresh_layers(store, seed, deadline)
        out["attempted"] += refresh["attempted"]
        out["failed"] += refresh["failed"]
        out["errors"] = (out["errors"] + refresh["errors"])[:5]
        out["layers"].update(refresh["layers"])
    return out


def http_layers(workload: str, windows: dict, deltas: dict,
                reference: Reference, working_set: list, out: dict) -> dict:
    """Per-layer metrics of a traced ``hot``/``sweep`` run."""
    import layers

    client, handle, dispatch_self, wire, query, engine = [], [], [], [], [], []
    negative = unreadable = 0
    batches = []
    for result in windows["traced"]:
        for latency, text in zip(result["latencies_ms"], result["kept_all"]):
            try:
                body = json.loads(text)
                handle_ms, queries = _spans(body)
            except (ValueError, AttributeError, KeyError, TypeError):
                unreadable += 1
                continue
            covered = _covered_ms(queries)
            client.append(latency)
            handle.append(handle_ms)
            engine.append(covered)
            dispatch_self.append(handle_ms - covered)
            wire.append(latency - handle_ms)
            query += [elapsed * 1000.0 for _, elapsed in queries]
            if min(handle_ms - covered, latency - handle_ms) < -SPAN_SLACK_MS:
                negative += 1
            if workload == "sweep" and len(batches) < 32:
                items = [(f["asn"], f["family"], f["now"])
                         for f in body["forecasts"]]
                batches.append((handle_ms, items))
    traced_p50 = diag.p50(client)
    # per answer, wire + dispatch self + engine time is the client time;
    # on hot the engine time is the one serving.query span
    parts = diag.p50(wire) + diag.p50(dispatch_self) + diag.p50(engine)
    gap = _share(parts - traced_p50, traced_p50)

    if workload == "hot":
        replay = [(asn, family, None) for asn, family in working_set] * 4
    else:
        replay = [item for _, items in batches for item in items]
    core = layers.replay_core(reference.predictor, replay)
    overhead = []
    for i, (handle_ms, items) in enumerate(batches):
        spent = sum(core["predict_ms"][i * len(items):(i + 1) * len(items)])
        overhead.append(_share(handle_ms - spent, handle_ms))

    traced_windows = windows["traced"]
    out["attempted"] += sum(r["attempted"] for r in traced_windows)
    out["failed"] += sum(r["failed"] for r in traced_windows)
    http_errors = [e for r in traced_windows for e in r["errors"]]
    problems = []
    if unreadable:
        problems.append(f"{unreadable} traced answers without readable spans")
    if negative:
        problems.append(f"{negative} traced answers with a negative stage")
    if workload == "hot" and abs(gap) > RECONCILE_TOLERANCE:
        problems.append(f"stages add up to {parts:.4f} ms, client p50 "
                        f"{traced_p50:.4f} ms ({gap:+.1%})")
    if core["violations"]:
        problems.append(f"{core['violations']} core replays whose stages "
                        "exceed the call")
    out["failed"] += len(problems)
    out["errors"] = (out["errors"] + http_errors + problems)[:5]

    queries = deltas.get("serving.queries", 0)
    metrics = {
        **out["diagnostics"],
        "server.handle_ms_p50": diag.p50(handle),
        "server.dispatch_self_ms_p50": diag.p50(dispatch_self),
        "server.wire_ms_p50": diag.p50(wire),
        "server.requests": deltas.get("server.requests", 0),
        "server.bad_requests": deltas.get("server.bad_requests", 0),
        "server.shed": deltas.get("server.shed", 0),
        "server.reconcile_gap_share": gap,
        "serving.query_ms_p50": diag.p50(query),
        "serving.cache_hit_share": _share(
            deltas.get("serving.prediction_cache_hits", 0), queries),
        "serving.coalesced_share": _share(
            deltas.get("serving.coalesced", 0), queries),
        "serving.model_answer_share": _share(
            deltas.get("serving.model_answers", 0), queries),
        "serving.fallback_share": _share(
            deltas.get("serving.fallbacks", 0), queries),
        "serving.batch_overhead_share": diag.p50(overhead),
        "persistence.restore_s": reference.restore_s,
        "dataset.load_trace_s": reference.load_trace_s,
        "telemetry.trace_overhead_ms": traced_p50 - out["metrics"]["op_p50_ms"],
    }
    metrics.update({k: v for k, v in core.items() if k.startswith("core.")})
    return metrics


# ----- the refresh path, in the traced sweep run -----

def refresh_feed(trace_file: Path) -> list[list[dict]]:
    """The first ``REFRESH_OPS`` batches the simulated feed delivers."""
    from repro.dataset.loader import load_trace
    from repro.ingest import SimulatedFeed

    feed = SimulatedFeed(load_trace(trace_file),
                         horizon_days=workloads.FEED_HORIZON_DAYS,
                         batch_days=workloads.FEED_BATCH_DAYS)
    batches = []
    while not feed.exhausted and len(batches) < REFRESH_OPS:
        batch = feed.next_batch()
        if batch:
            batches.append(batch)
    return batches


def _run_refresh_worker(spec: dict, deadline: float) -> dict:
    """One ``refresh_worker.py`` process; one that dies or hangs fails its ops."""
    if _remaining(deadline) <= 0:
        return {"attempted": REFRESH_OPS, "failed": REFRESH_OPS,
                "errors": ["refresh worker not started, the run's "
                           f"{RUN_BUDGET_S:.0f} s budget is spent"]}
    spec_path = WORK / "refresh.spec.json"
    out_path = WORK / "refresh.out.json"
    spec_path.write_text(json.dumps(
        # the worker stops starting ops when this is spent
        {**spec, "budget_s": _remaining(deadline) - 15.0}))
    out_path.unlink(missing_ok=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "refresh_worker.py"),
                        str(spec_path), str(out_path)],
                       cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                       check=True, timeout=max(_remaining(deadline), 1.0))
        return json.loads(out_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return {"attempted": REFRESH_OPS, "failed": REFRESH_OPS,
                "errors": [f"refresh worker: {type(exc).__name__}: {exc}"]}


def refresh_layers(store: Path, seed: int, deadline: float) -> dict:
    """Per-layer metrics of the refresh path: ``repro.ingest``, the fit
    side of ``repro.core`` and the store writes of ``repro.persistence``.
    """
    from repro.persistence import ModelStore

    trace = ModelStore(store).resolve().path / ModelStore.TRACE_FILE
    feed = WORK / "refresh-feed.json"
    feed.write_text(json.dumps(refresh_feed(trace)))
    result = _run_refresh_worker(
        {"trace": str(trace), "feed": str(feed),
         "workdir": str(WORK / "refresh"), "seed": seed}, deadline)
    shutil.rmtree(WORK / "refresh", ignore_errors=True)
    stages = result.get("stages", [])

    def p50(key: str) -> float:
        return diag.p50(result.get(key, []))

    def stage(name: str) -> float:
        return diag.p50([s[name] for s in stages])

    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "layers": {
            "ingest.refresh_op_ms_p50": p50("op_ms"),
            "ingest.cold_seed_s": p50("seed_s"),
            "ingest.append_ms_p50": p50("append_ms"),
            "ingest.tail_ms_p50": p50("tail_ms"),
            "ingest.drift_observe_us_p50": p50("observe_us"),
            "core.cold_fit_s": p50("cold_fit_s"),
            "core.warm_refit_s": stage("refit"),
            "core.fit.temporal_s": stage("fit.temporal"),
            "core.fit.spatial_s": stage("fit.spatial"),
            "core.fit.tree_s": stage("fit.tree"),
            "persistence.stage_s": stage("stage"),
            "persistence.verify_s": stage("verify"),
            "persistence.activate_s": stage("activate"),
        },
    }


# ----- entry point -----

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    out = run_http(args.workload, args.seed, args.seconds, traced)

    for error in out["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if traced:
        layers = out["layers"]
        missing = sorted(set(PER_LAYER) - set(layers))
        if missing:
            print("not exercised by this workload (reported as 0): "
                  + ", ".join(missing), file=sys.stderr)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(out["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"diagnostics": out["diagnostics"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its servers and workers on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
