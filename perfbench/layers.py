"""Per-layer timers the traced run installs around public program calls.

The program itself is not changed: for the length of a ``with``
block, public methods are replaced by wrappers that record each call's
start and end, and restored afterwards.  Untraced runs never enter
these blocks.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from repro.core.pipeline import AttackPredictor
from repro.core.spatial import SpatialModel
from repro.core.spatiotemporal import HistoryIndex, SpatiotemporalModel
from repro.core.temporal import FamilyTemporalModel, TemporalModel
from repro.persistence.store import ModelStore
from repro.serving.registry import ModelRegistry
from repro.tree.model_tree import ModelTree
import repro.ingest.refresher as refresher

import diag

#: ``(owner, attribute, stage)`` timed during the in-process core replay.
CORE_PREDICT = [
    (HistoryIndex, "recent_global", "history"),
    (HistoryIndex, "recent_family", "history"),
    (HistoryIndex, "recent_same_as", "history"),
    (FamilyTemporalModel, "predict_next_hour", "temporal"),
    (FamilyTemporalModel, "predict_next_interval", "temporal"),
    (SpatialModel, "predict_next_hour", "spatial"),
    (SpatialModel, "predict_next_interval", "spatial"),
    (SpatialModel, "predict_next_duration", "spatial"),
    (ModelTree, "predict", "tree"),
    (SpatiotemporalModel, "predict_context", "context"),
]

#: Timed during the refresh workload's traced run.
REFRESH_PATH = [
    (ModelRegistry, "refresh", "refit"),
    (TemporalModel, "fit", "fit.temporal"),
    (SpatialModel, "fit", "fit.spatial"),
    (SpatiotemporalModel, "fit", "fit.tree"),
    (ModelStore, "stage_version", "stage.models"),
    (refresher, "save_trace", "stage.trace"),
    (ModelStore, "activate_version", "activate"),
]


class Stages:
    """Records ``(stage, start, end)`` for every wrapped call."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float, float]] = []

    def wrap(self, stage: str, fn):
        events = self.events

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((stage, t0, time.perf_counter()))
        return timed

    def total(self, stage: str) -> float:
        """Seconds spent in ``stage`` since the events were last cleared."""
        return sum(t1 - t0 for name, t0, t1 in self.events if name == stage)

    def last(self, stage: str) -> tuple[float, float] | None:
        """``(start, end)`` of the latest call of ``stage``."""
        for name, t0, t1 in reversed(self.events):
            if name == stage:
                return t0, t1
        return None


@contextmanager
def patched(targets, stages: Stages):
    """Install timing wrappers for the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, stage in targets:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, stages.wrap(stage, getattr(owner, attr)))
        yield stages
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def replay_core(predictor: AttackPredictor, requests) -> dict:
    """Replay ``(asn, family, now)`` forecasts single-threaded, stage by stage.

    Returns per-call lists in ms: ``predict``, ``history``, ``temporal``,
    ``spatial``, ``tree`` and ``features_self`` (``predict_context``
    minus the temporal, spatial and tree stages), plus ``violations``:
    the calls whose stages add up to more than the call itself.
    """
    stages = Stages()
    out = {name: [] for name in ("predict", "history", "temporal", "spatial",
                                 "tree", "features_self")}
    violations = 0
    with patched(CORE_PREDICT, stages):
        for asn, family, now in requests:
            stages.events.clear()
            t0 = time.perf_counter()
            predictor.predict_next_for_network(asn, family, now=now)
            total = (time.perf_counter() - t0) * 1000.0
            part = {name: stages.total(name) * 1000.0
                    for name in ("history", "temporal", "spatial", "tree",
                                 "context")}
            out["predict"].append(total)
            for name in ("history", "temporal", "spatial", "tree"):
                out[name].append(part[name])
            out["features_self"].append(
                part["context"] - part["temporal"] - part["spatial"]
                - part["tree"])
            if part["history"] + part["context"] > total:
                violations += 1
    summary = {f"core.{name}_ms_p50": diag.p50(values)
               for name, values in out.items()}
    summary["predict_ms"] = out["predict"]
    summary["violations"] = violations
    return summary
