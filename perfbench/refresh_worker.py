"""The refresh path, timed layer by layer in its own process.

    python refresh_worker.py SPEC.json OUT.json

The traced ``sweep`` run starts one of these to measure the fit and
store-write direction that serving never takes.  It drives the
continuous-learning path through public library calls only, with no
server and no supervisor (export-only), with the ``layers.REFRESH_PATH``
timers installed:

* a cold seed into an empty store, i.e. ``RefreshPipeline.refresh()``
  with nothing to warm from (cold fit, stage, verify, activate);
* then, from a restored copy of the seeded store, one op per feed
  batch; ``budget_s`` running out ends them, and ops not run count as
  failed.  An op appends the batch (``RecordJournal.append_many``),
  reads it back (``tail``), scores its attacks with the live model into
  ``DriftMonitor.observe``, and runs ``RefreshPipeline.refresh()`` (warm
  refit, stage, verify, activate).

Every op's result is checked: ``ok``, a rising ``model_version``,
``CURRENT`` resolving to the version just activated, and a dense
journal.

Spec keys: ``trace`` (base trace file), ``feed`` (a JSON list of record
batches, one per op), ``workdir``, ``seed`` (the records' arrival order
within each batch) and ``budget_s`` (seconds from the start after which
no op is started).
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import workloads  # noqa: E402

#: Store versions kept, as ``repro ingest-daemon`` keeps by default.
KEEP_LAST = 4


def _check_refresh(result, store_root: Path, previous_version: int) -> str | None:
    """Why a refresh result breaks the contract, or ``None``."""
    from repro.persistence import ModelStore

    if not result.ok:
        return f"refresh failed: {result.error}"
    if result.model_version is None or result.model_version <= previous_version:
        return (f"model_version {result.model_version} does not follow "
                f"{previous_version}")
    current = ModelStore(store_root).current_version()
    if current is None or result.version_path is None or (
            current.resolve() != Path(result.version_path).resolve()):
        return f"CURRENT resolves to {current}, not {result.version_path}"
    ingest = json.loads((current / ModelStore.INGEST_FILE).read_text())
    if ingest.get("model_version") != result.model_version:
        return (f"active version records model_version "
                f"{ingest.get('model_version')}, not {result.model_version}")
    return None


def _stage_times(stages) -> dict:
    """Seconds per refresh stage of the latest refresh, from its events."""
    trace_write = stages.last("stage.trace")
    activate = stages.last("activate")
    return {
        "refit": stages.total("refit"),
        "fit.temporal": stages.total("fit.temporal"),
        "fit.spatial": stages.total("fit.spatial"),
        "fit.tree": stages.total("fit.tree"),
        "stage": stages.total("stage.models") + stages.total("stage.trace"),
        # _verify runs between the trace snapshot and activation
        "verify": (activate[0] - trace_write[1]
                   if activate and trace_write else 0.0),
        "activate": stages.total("activate"),
    }


def run(spec: dict) -> dict:
    from repro.dataset.generator import SimulationEnvironment
    from repro.dataset.loader import load_trace
    from repro.ingest import DriftMonitor, RecordJournal, RefreshPipeline

    deadline = time.perf_counter() + spec["budget_s"]
    workdir = Path(spec["workdir"])
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    base = load_trace(spec["trace"])
    env = SimulationEnvironment.from_metadata(base.metadata)
    batches = workloads.feed_order(
        spec["seed"], json.loads(Path(spec["feed"]).read_text()))
    stages = layers.Stages()

    out = {"seed_s": [], "cold_fit_s": [], "op_ms": [], "stages": [],
           "append_ms": [], "tail_ms": [], "observe_us": [],
           "attempted": 0, "failed": 0, "errors": []}

    def fail(message: str) -> None:
        out["failed"] += 1
        if len(out["errors"]) < 5:
            out["errors"].append(message)

    planned = len(batches)
    out["attempted"] = planned
    ran = 0
    try:
        with layers.patched(layers.REFRESH_PATH, stages):
            if time.perf_counter() > deadline:
                raise TimeoutError(f"the run's {spec['budget_s']:.0f} s "
                                   "budget is spent")
            seeded = workdir / "seed"
            pipeline = RefreshPipeline(base, env,
                                       RecordJournal(seeded / "journal"),
                                       seeded / "store", keep_last=KEEP_LAST)
            stages.events.clear()
            gc.collect()
            t0 = time.perf_counter()
            result = pipeline.refresh(reason="seed")
            out["seed_s"].append(time.perf_counter() - t0)
            out["cold_fit_s"].append(stages.total("refit"))
            problem = _check_refresh(result, seeded / "store", 0)
            if problem:
                raise RuntimeError(f"cold seed: {problem}")

            root = workdir / "ops"
            shutil.copytree(seeded / "store", root / "store")
            journal = RecordJournal(root / "journal")
            pipeline = RefreshPipeline(base, env, journal, root / "store",
                                       keep_last=KEEP_LAST)
            model = pipeline.load_current()
            if model is None:
                raise RuntimeError("seeded store restored no model")
            drift = DriftMonitor()
            version, cursor = model.version, 0
            for batch in batches:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"the run's {spec['budget_s']:.0f} "
                                       "s budget is spent")
                ran += 1
                stages.events.clear()
                # no op pays for collecting the garbage of the one before
                gc.collect()
                t0 = time.perf_counter()
                try:
                    first, next_offset = journal.append_many(batch)
                    t1 = time.perf_counter()
                    entries = list(journal.tail(cursor))
                    t2 = time.perf_counter()
                    predictor = pipeline.registry.latest().predictor
                    for entry in entries:
                        cursor = entry.offset + 1
                        if entry.kind != "attack":
                            continue
                        record = entry.record
                        forecast = predictor.predict_next_for_network(
                            record.target_asn, record.family,
                            now=record.start_time)
                        predicted = (float(forecast.magnitude)
                                     if forecast is not None else None)
                        t_obs = time.perf_counter()
                        drift.observe(model.key.lineage,
                                      float(record.magnitude), predicted)
                        out["observe_us"].append(
                            (time.perf_counter() - t_obs) * 1e6)
                    result = pipeline.refresh(reason="drift")
                    done = time.perf_counter()
                except Exception:  # a broken op is a failed op
                    fail(traceback.format_exc(limit=3))
                    continue
                out["op_ms"].append((done - t0) * 1000.0)
                out["append_ms"].append((t1 - t0) * 1000.0)
                out["tail_ms"].append((t2 - t1) * 1000.0)
                out["stages"].append(_stage_times(stages))
                offsets = [entry.offset for entry in entries]
                problem = _check_refresh(result, root / "store", version)
                if problem is None and (
                        next_offset - first != len(batch)
                        or offsets != list(range(first, next_offset))):
                    problem = (f"journal not dense: appended [{first}, "
                               f"{next_offset}) read back {offsets[:3]}...")
                if problem:
                    fail(problem)
                version = result.model_version or version
            all_offsets = [entry.offset for entry in journal.tail(0)]
            if all_offsets != list(range(journal.next_offset)):
                fail("journal offsets are not dense")
    except Exception:  # a broken seed or restore, or no time left
        if len(out["errors"]) < 5:
            out["errors"].append(traceback.format_exc(limit=3))
        if ran == planned:
            out["failed"] += 1
    # ops never reached count as failed: the work is fixed
    out["failed"] += planned - ran
    out["attempted"] = max(planned, out["failed"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text())
    Path(argv[2]).write_text(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
