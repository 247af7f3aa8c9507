"""Per-layer figures of the traced run.

Every figure is timed from the benchmark's own code around a call into
one layer's public function (or read from the server's trace log with
``repro obs spans``); nothing inside ``src/`` is instrumented.  Timings
are medians per call, counts are totals per run.  :data:`PER_LAYER`
lists every figure with its unit in the order ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import SpanRecorder, median

PER_LAYER: dict[str, str] = {
    # Request path (answers a warm request).
    "server.protocol.parse_request_us": "us",
    "query.parser.parse_pattern_us": "us",
    "query.canonical.canonical_key_us": "us",
    "service.session.peek_estimates_us": "us",
    "server.protocol.encode_line_us": "us",
    "server.span.store_lookup_us": "us",
    "server.span.cache_probe_us": "us",
    "service.lru.estimate_hits": "count",
    "service.lru.estimate_misses": "count",
    "server.cpu_us_per_request": "us",
    "client.cpu_us_per_request": "us",
    # Estimator path (answers a cache miss).
    "server.span.queue_us": "us",
    "server.span.exec_us": "us",
    "core.ceg_o.build_ceg_o_ms": "ms",
    "core.ceg_o.ceg_edges": "count",
    "core.paths.estimate_from_ceg_us": "us",
    "core.ceg_m.molp_bound_ms": "ms",
    "catalog.degrees.stat_relations_us": "us",
    "catalog.degrees.stat_relations_calls": "count",
    "catalog.markov.cardinality_us": "us",
    "catalog.markov.cardinality_calls": "count",
    "query.canonical.canonical_pattern_us": "us",
    "service.lru.skeleton_misses": "count",
    # Artifact load.
    "stats.store.load_ms": "ms",
    # Build and maintenance.
    "stats.build.level1_s": "s",
    "stats.build.level2_s": "s",
    "stats.build.examined": "count",
    "stats.build.stored": "count",
    "stats.store.save_ms": "ms",
    "engine.counter.count_pattern_ms": "ms",
    "engine.counter.count_pattern_calls": "count",
    "delta.maintain.maintain_ms": "ms",
    "delta.maintain.persist_ms": "ms",
    "delta.maintain.incremental_applies": "count",
    "delta.deltafile.delta_kb": "KiB",
    "delta.deltafile.replay_delta_chain_ms": "ms",
    # What the traced run costs against the untraced one.
    "trace.overhead_pct": "%",
}

#: Modules that call the exact counter by a name they imported; the
#: counter wrapper replaces each of those names.
COUNTER_USERS = (
    "repro.engine.counter",
    "repro.stats.build",
    "repro.delta.maintain",
    "repro.catalog.markov",
    "repro.datasets.workloads",
)

OPTIMISTIC = [(hop, agg) for hop in ("max", "min", "all")
              for agg in ("max", "min", "avg")]


@contextlib.contextmanager
def counted_counter(recorder: SpanRecorder):
    """Time every ``count_pattern`` call the program makes meanwhile."""
    import importlib

    restores = [
        recorder.wrap(importlib.import_module(module), "count_pattern",
                      "engine.counter.count_pattern")
        for module in COUNTER_USERS
    ]
    try:
        yield
    finally:
        for restore in restores:
            restore()


def request_path(recorder: SpanRecorder, lines: list[bytes], session,
                 tenant: str) -> None:
    """Time the warm request path on already-encoded request lines.

    ``session`` must already hold every requested estimate, as the
    server's does on a warm request.
    """
    from repro.query import canonical_key, parse_pattern
    from repro.server import protocol
    from repro.service import EstimatorSpec

    for line in lines:
        request = recorder.call("server.protocol.parse_request",
                                protocol.parse_request, line)
        pattern = recorder.call("query.parser.parse_pattern",
                                parse_pattern, request.query)
        recorder.call("query.canonical.canonical_key", canonical_key, pattern)
        specs = [EstimatorSpec.from_name(name)
                 for name in request.estimators]
        cached = recorder.call("service.session.peek_estimates",
                               session.peek_estimates, pattern, specs)
        if cached is None:
            raise RuntimeError(f"request path: {request.query!r} is not "
                               "warm in the benchmark's session")
        payload = protocol.ok_response(request.id, {
            "tenant": tenant, "generation": 0, "query": request.query,
            "estimates": cached, "errors": {}, "seconds": 0.0,
        })
        recorder.call("server.protocol.encode_line", protocol.encode_line,
                      payload)


def estimator_path(recorder: SpanRecorder, artifact: Path, patterns) -> None:
    """Time a cold estimate of every pattern on a freshly loaded store.

    Calls the layers in the order a session does on a miss: canonical
    form, ``CEG_O`` build, the nine hop DPs, then the MOLP bound; the
    Markov and degree catalogs are wrapped to count and time their
    lookups.  The load itself is the ``stats.store.load`` span.
    """
    from repro.catalog import DegreeCatalog, MarkovTable
    from repro.core.ceg_m import molp_bound
    from repro.core.ceg_o import build_ceg_o
    from repro.core.paths import estimate_from_ceg
    from repro.query import canonical_pattern
    from repro.stats import StatisticsStore

    store = recorder.call("stats.store.load", StatisticsStore.load, artifact)
    restores = [
        recorder.wrap(MarkovTable, "cardinality", "catalog.markov.cardinality"),
        recorder.wrap(DegreeCatalog, "stat_relations",
                      "catalog.degrees.stat_relations"),
    ]
    try:
        for pattern in patterns:
            shape = recorder.call("query.canonical.canonical_pattern",
                                  canonical_pattern, pattern)
            ceg = recorder.call("core.ceg_o.build_ceg_o", build_ceg_o,
                                shape, store.markov)
            recorder.count("core.ceg_o.ceg_edges", ceg.num_edges)
            for hop, agg in OPTIMISTIC:
                recorder.call("core.paths.estimate_from_ceg",
                              estimate_from_ceg, ceg, hop, agg)
            recorder.call("core.ceg_m.molp_bound", molp_bound, shape,
                          store.degrees)
    finally:
        for restore in restores:
            restore()


def save_and_delta(recorder: SpanRecorder, artifact: Path, graph,
                   batch, scratch: Path) -> None:
    """Time a save, one update batch and a replay load on a copy.

    The copy is saved from a graph-attached load of ``artifact``, one
    batch goes through ``apply_updates`` with job telemetry (its
    ``maintain``/``persist`` spans), and a graph-free load replays it.
    """
    from repro.stats import StatisticsStore

    store = StatisticsStore.load(artifact, graph=graph)
    copy = scratch / "layer-probe-artifact"
    shutil.rmtree(copy, ignore_errors=True)
    recorder.call("stats.store.save", store.save, copy)
    apply_traced(recorder, store, batch, copy)
    replay_traced(recorder, copy)
    shutil.rmtree(copy, ignore_errors=True)


def apply_traced(recorder: SpanRecorder, store, batch, directory: Path):
    """``apply_updates`` with telemetry; records its spans and delta size."""
    from repro.delta import apply_updates
    from repro.obs.offline import JobTelemetry

    telemetry = JobTelemetry("updates.apply")
    outcome = apply_updates(store, batch, directory=directory,
                            telemetry=telemetry)
    for span in telemetry.trace.spans:
        if span.name in ("maintain", "persist"):
            recorder.add(f"delta.maintain.{span.name}", 0.0,
                         span.ms / 1000.0)
    if outcome.mode == "incremental":
        recorder.count("delta.maintain.incremental_applies")
    if outcome.delta_file:
        recorder.add("delta.deltafile.delta", 0.0, 0.0,
                     kib=(directory / outcome.delta_file).stat().st_size
                     / 1024.0)
    return outcome


def replay_traced(recorder: SpanRecorder, directory: Path):
    """Graph-free load of ``directory`` with the delta replay timed."""
    import repro.delta.deltafile as deltafile
    from repro.stats import StatisticsStore

    restore = recorder.wrap(deltafile, "replay_delta_chain",
                            "delta.deltafile.replay_delta_chain")
    try:
        return recorder.call("stats.store.load", StatisticsStore.load,
                             directory)
    finally:
        restore()


def build_levels(recorder: SpanRecorder, levels: list) -> None:
    """Level timings and counters from a manifest's ``levels`` table."""
    for entry in levels:
        recorder.add(f"stats.build.level{entry['level']}", 0.0,
                     float(entry["seconds"]))
        recorder.count("stats.build.examined", entry["examined"])
        recorder.count("stats.build.stored", entry["stored"])


def server_spans(env: dict, trace_log: Path) -> dict[str, dict]:
    """``repro obs spans`` over a server's whole trace log.

    Returns ``{stage: {"count", "self_ms", "mean_self_us"}}``.
    """
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "spans", str(trace_log)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(completed.stdout)
    return {
        stage["stage"]: {
            "count": stage["count"],
            "self_ms": stage["self_ms"],
            "mean_self_us": stage["self_ms"] * 1000.0 / stage["count"],
        }
        for stage in report["stages"]
    }


def distinct_patterns(patterns) -> list:
    """One pattern per canonical shape, in first-seen order."""
    from repro.query import canonical_key

    seen: set = set()
    kept = []
    for pattern in patterns:
        key = canonical_key(pattern)
        if key not in seen:
            seen.add(key)
            kept.append(pattern)
    return kept


def serving_figures(spans: dict, cache: dict, server_us: float,
                    client_us: float, overhead_pct: float) -> dict:
    """The figures a traced server gives, keyed by per-layer name.

    ``spans`` is :func:`server_spans` output, ``cache`` a
    :func:`checks.cache_delta` of the ``stats`` verb's counters.
    """
    def span_us(stage: str) -> float:
        return spans.get(stage, {}).get("mean_self_us", 0.0)

    return {
        "server.span.store_lookup_us": span_us("store_lookup"),
        "server.span.cache_probe_us": span_us("cache_probe"),
        "server.span.queue_us": span_us("queue"),
        "server.span.exec_us": span_us("exec"),
        "service.lru.estimate_hits": cache["estimate hits"],
        "service.lru.estimate_misses": cache["estimate misses"],
        "service.lru.skeleton_misses": cache["skeleton misses"],
        "server.cpu_us_per_request": server_us,
        "client.cpu_us_per_request": client_us,
        "trace.overhead_pct": overhead_pct,
    }


def summarize(recorder: SpanRecorder, extra: dict[str, float]) -> dict:
    """The per-layer metrics dict from recorded spans plus ``extra``."""
    def p50(name: str, scale: float) -> float:
        return recorder.p50(name, scale)

    deltas = [span[3]["kib"] for span in recorder.spans
              if span[0] == "delta.deltafile.delta"]
    values = {
        "server.protocol.parse_request_us":
            p50("server.protocol.parse_request", 1e6),
        "query.parser.parse_pattern_us": p50("query.parser.parse_pattern", 1e6),
        "query.canonical.canonical_key_us":
            p50("query.canonical.canonical_key", 1e6),
        "service.session.peek_estimates_us":
            p50("service.session.peek_estimates", 1e6),
        "server.protocol.encode_line_us":
            p50("server.protocol.encode_line", 1e6),
        "core.ceg_o.build_ceg_o_ms": p50("core.ceg_o.build_ceg_o", 1e3),
        "core.ceg_o.ceg_edges": recorder.counts["core.ceg_o.ceg_edges"],
        "core.paths.estimate_from_ceg_us":
            p50("core.paths.estimate_from_ceg", 1e6),
        "core.ceg_m.molp_bound_ms": p50("core.ceg_m.molp_bound", 1e3),
        "catalog.degrees.stat_relations_us":
            p50("catalog.degrees.stat_relations", 1e6),
        "catalog.degrees.stat_relations_calls":
            len(recorder.durations("catalog.degrees.stat_relations")),
        "catalog.markov.cardinality_us":
            p50("catalog.markov.cardinality", 1e6),
        "catalog.markov.cardinality_calls":
            len(recorder.durations("catalog.markov.cardinality")),
        "query.canonical.canonical_pattern_us":
            p50("query.canonical.canonical_pattern", 1e6),
        "stats.store.load_ms": p50("stats.store.load", 1e3),
        "stats.build.level1_s": p50("stats.build.level1", 1.0),
        "stats.build.level2_s": p50("stats.build.level2", 1.0),
        "stats.build.examined": recorder.counts["stats.build.examined"],
        "stats.build.stored": recorder.counts["stats.build.stored"],
        "stats.store.save_ms": p50("stats.store.save", 1e3),
        "engine.counter.count_pattern_ms":
            p50("engine.counter.count_pattern", 1e3),
        "engine.counter.count_pattern_calls":
            len(recorder.durations("engine.counter.count_pattern")),
        "delta.maintain.maintain_ms": p50("delta.maintain.maintain", 1e3),
        "delta.maintain.persist_ms": p50("delta.maintain.persist", 1e3),
        "delta.maintain.incremental_applies":
            recorder.counts["delta.maintain.incremental_applies"],
        "delta.deltafile.delta_kb": median(deltas) if deltas else 0.0,
        "delta.deltafile.replay_delta_chain_ms":
            p50("delta.deltafile.replay_delta_chain", 1e3),
    }
    values.update(extra)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer figures not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
