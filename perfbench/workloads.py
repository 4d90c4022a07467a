"""Seeded inputs of the three workloads.

Standard library only: the load generator imports this module, and the
generator must never import ``repro``.  Every stream is a pure function
of the benchmark seed and plain data (the eligible ``(asn, family)``
pairs and the trace end), so the same seed gives byte-identical request
bodies and a different seed gives different ones.
"""

from __future__ import annotations

import json
import random

#: The trace every workload runs on: the 12-day, half-rate world of the
#: repository's quick recipe (about 1.3k attacks).  The world is fixed
#: so that run-to-run spread measures the program, not the draw of a
#: world; the benchmark seed varies what is asked of it.
WORLD_DAYS = 12
WORLD_SCALE = 0.5
WORLD_SEED = 8

#: A network is asked about only if it saw this many attacks before the
#: earliest ``now`` a request can carry: the model's full same-AS window.
MIN_HISTORY = 10

HOT_WORKING_SET = 32
HOT_STREAM_LEN = 4096
SWEEP_BATCH = 64
#: ``now`` of a sweep batch lies in the last day of the trace, so every
#: pair has its full same-AS history behind it.
SWEEP_NOW_SPAN_S = 86400.0

#: Refresh feed: simulated days past the trace end, and days per op.
FEED_HORIZON_DAYS = 2
FEED_BATCH_DAYS = 0.25


def encode(obj) -> bytes:
    """Compact, key-ordered JSON: the wire form of every request body."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def eligible_pairs(attack_targets: list[tuple[int, float]],
                   families: list[str], trace_end_s: float) -> list:
    """``(asn, family)`` pairs both workloads draw from.

    ``attack_targets`` holds ``(target_asn, start_time)`` per attack.
    Eligibility depends on the trace alone, never on the model, so a
    change to the model cannot change the request stream.
    """
    cutoff = trace_end_s - SWEEP_NOW_SPAN_S
    counts: dict[int, int] = {}
    for asn, start in attack_targets:
        if start < cutoff:
            counts[asn] = counts.get(asn, 0) + 1
    ases = sorted(asn for asn, n in counts.items() if n >= MIN_HISTORY)
    return [(asn, family) for asn in ases for family in sorted(families)]


def hot_working_set(seed: int, pairs: list) -> list[tuple[int, str]]:
    """The ``HOT_WORKING_SET`` pairs the ``hot`` workload asks about."""
    rng = random.Random(f"hot-set:{seed}")
    return [tuple(p) for p in rng.sample(sorted(map(tuple, pairs)),
                                         HOT_WORKING_SET)]


def hot_bodies(working_set: list) -> list[bytes]:
    """One ``POST /v1/forecast`` body per working-set pair (now = trace end)."""
    return [encode({"asn": asn, "family": family})
            for asn, family in working_set]


def hot_order(seed: int, n_pairs: int) -> list[int]:
    """Seeded order in which the working set is asked, cycled by the client."""
    rng = random.Random(f"hot-order:{seed}")
    return [rng.randrange(n_pairs) for _ in range(HOT_STREAM_LEN)]


def sweep_batches(seed: int, pairs: list, trace_end_s: float):
    """Endless ``(now, [(asn, family), ...])`` batches; ``now`` never repeats.

    Each batch holds ``SWEEP_BATCH`` distinct pairs sharing one ``now``,
    so every item misses the prediction cache.
    """
    rng = random.Random(f"sweep:{seed}")
    ordered = sorted(map(tuple, pairs))
    seen: set[float] = set()
    while True:
        now = round(trace_end_s - rng.uniform(0.0, SWEEP_NOW_SPAN_S), 3)
        if now in seen:
            continue
        seen.add(now)
        yield now, rng.sample(ordered, SWEEP_BATCH)


def sweep_body(now: float, items: list) -> bytes:
    """One ``POST /v1/forecast/batch`` body."""
    return encode({"requests": [{"asn": asn, "family": family, "now": now}
                                for asn, family in items]})


def feed_order(seed: int, batches: list[list[dict]]) -> list[list[dict]]:
    """Feed batches, each in seeded arrival order.

    The simulated feed fixes *which* records arrive in each quarter day;
    the seed fixes the order they reach the journal, as reports from
    independent monitors would.  ``AttackTrace`` sorts what it is given,
    so the work per op and the fitted models are the same for every seed.
    """
    rng = random.Random(f"feed:{seed}")
    ordered = []
    for batch in batches:
        shuffled = list(batch)
        rng.shuffle(shuffled)
        ordered.append(shuffled)
    return ordered
