"""The ``maintain`` workload: build, apply update batches, replay.

Set-up, all in this process: the graph and a full-enumeration
statistics build of hetionet@0.05 saved to a directory (``build_s``;
repeated, ``setup_s`` is the median).  One round then copies that
artifact, loads it with its graph as ``repro updates apply`` does,
sends a seeded chain of small insert/delete batches, one per label,
through ``apply_updates(..., directory=...)`` (``latency_p50_ms`` per
batch, ``throughput_ops`` in batches per second), and makes a
graph-free ``StatisticsStore.load`` of the final generation, which
replays the delta chain (``load_s``).  Every round repeats the same
operations on a fresh copy, with edges drawn for that round.

After the timed rounds the last round's catalogs are checked against a
cold rebuild on the mutated graph, the replayed store against the
maintained one, and the final edge set against the one the benchmark
derived by applying the batches itself.
"""

from __future__ import annotations

import contextlib
import gc
import json
import shutil
import time

import batches as batch_inputs
import checks
import layers
import serve
from common import (
    Calibrated,
    CheckFailed,
    SpanRecorder,
    cpu_seconds,
    median,
    peak_rss_mib,
    qerror_log10,
    tail,
    tree_mib,
)

DATASET = "hetionet"
SCALE = 0.05
#: Per batch; there is one batch per label (24 on hetionet).
BATCH_INSERTS = 1
BATCH_DELETES = 1
SETUPS = 5
#: The q-error queries: the serving workloads' population, sampled on the
#: preset graph before any update, counted exactly on the final graph.
QERROR_PER_TEMPLATE = 2
QUERY_SEED = serve.QUERY_SEED


def _config():
    from repro.stats import StatsBuildConfig

    # What ``repro stats build`` uses for a full build.
    return StatsBuildConfig(h=2, molp_h=2)


def _setup(directory, recorder: SpanRecorder | None):
    """The graph plus the initial full build, saved to ``directory``.

    Returns (graph, build + save seconds).
    """
    from repro.datasets.presets import DATASETS
    from repro.stats import build_statistics

    graph = DATASETS[DATASET].build(SCALE)
    started = time.perf_counter()
    if recorder is None:
        store = build_statistics(graph, _config(), dataset_name=DATASET)
        store.save(directory)
    else:
        with layers.counted_counter(recorder):
            store = build_statistics(graph, _config(), dataset_name=DATASET)
        recorder.call("stats.store.save", store.save, directory)
        layers.build_levels(recorder, store.manifest.build_config["levels"])
    return graph, time.perf_counter() - started


def _chain(graph, seed: int, round_index: int):
    """The update batches of one round, and the edge set they lead to.

    Each round draws its own edges (from the seed and the round number):
    what a batch costs depends on the edges it touches, and a median over
    several draws moves less from seed to seed than one draw does.
    """
    from repro.delta.updates import UpdateBatch

    chain, final_edges = batch_inputs.update_batches(
        graph, f"{seed}/{round_index}", BATCH_INSERTS, BATCH_DELETES)
    return [UpdateBatch(batch) for batch in chain], final_edges


def _round(graph, chain, base, directory, recorder: SpanRecorder | None):
    """Apply the chain to a copy of ``base``, then replay-load it.

    The copy and its graph-attached load (what ``repro updates apply``
    starts from) are outside the timed work.  Returns the apply
    timings, the load timing and both stores.
    """
    from repro.delta import apply_updates
    from repro.stats import StatisticsStore

    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(base, directory)
    store = StatisticsStore.load(directory, graph=graph)
    applies = []
    for batch in chain:
        began = time.perf_counter()
        if recorder is None:
            outcome = apply_updates(store, batch, directory=directory)
        else:
            with layers.counted_counter(recorder):
                outcome = layers.apply_traced(recorder, store, batch,
                                              directory)
        applies.append(time.perf_counter() - began)
        if outcome.mode == "noop":
            raise CheckFailed(f"batch {len(applies)} changed nothing")
    began = time.perf_counter()
    if recorder is None:
        replayed = StatisticsStore.load(directory)
    else:
        replayed = layers.replay_traced(recorder, directory)
    load = time.perf_counter() - began
    return applies, load, store, replayed


def run(ctx) -> dict:
    """One run of the maintain workload."""
    from repro.datasets.workloads import (
        WorkloadQuery,
        acyclic_workload,
        cyclic_workload,
    )
    from repro.engine import counter
    from repro.stats import build_statistics

    failures: list[str] = []
    recorder = SpanRecorder()
    setups, builds = [], []
    for index in range(SETUPS):
        base = ctx.scratch / f"base-{index}"
        traced = ctx.trace and index == SETUPS - 1
        with Calibrated("numpy") as calibration:
            started = time.perf_counter()
            graph, build = _setup(base, recorder if traced else None)
            setup = time.perf_counter() - started
        setups.append(calibration.scaled(setup))
        builds.append(calibration.scaled(build))
        gc.collect()

    # Every time below is at the reference speed (common.slowdown).
    applies, loads, sizes, slowdowns, round_rates = [], [], [], [], []
    traced_applies, untraced_applies = [], []
    measured = 0.0
    rounds = attempted = 0
    directory = ctx.scratch / "maintained"
    # A traced run needs its second round: odd rounds are the traced ones.
    while rounds < (2 if ctx.trace else 1) or measured < ctx.seconds:
        # Each round starts from the same heap: the last round's stores
        # are dropped and collected outside the timed work.
        store = replayed = None
        gc.collect()
        traced = ctx.trace and rounds % 2 == 1
        chain, final_edges = _chain(graph, ctx.seed, rounds)
        with Calibrated("numpy") as calibration:
            raw_applies, raw_load, store, replayed = _round(
                graph, chain, base, directory, recorder if traced else None)
        round_applies = [calibration.scaled(x) for x in raw_applies]
        load = calibration.scaled(raw_load)
        slowdowns.append(calibration.factor)
        if traced:
            traced_applies.extend(round_applies)
        else:
            untraced_applies.extend(round_applies)
        applies.extend(round_applies)
        round_rates.append(len(round_applies) / sum(round_applies))
        loads.append(load)
        sizes.append(tree_mib(directory))
        measured += sum(raw_applies) + raw_load
        attempted += len(round_applies) + 1
        rounds += 1
    rss = peak_rss_mib()

    cold = build_statistics(store.graph, _config(), dataset_name=DATASET)
    for check, args in (
        (checks.check_catalogs_equal, (store, cold, "maintained vs cold")),
        (checks.check_catalogs_equal, (replayed, store, "replayed vs "
                                       "maintained")),
        (checks.check_edge_set, (store.graph, final_edges, "final graph")),
    ):
        try:
            check(*args)
        except CheckFailed as error:
            failures.append(str(error))

    # The build and the maintainer count through the join engine and call
    # count_pattern only as a fallback; the traced run times the exact
    # counter on these queries.
    with (layers.counted_counter(recorder) if ctx.trace
          else contextlib.nullcontext()):
        queries = [
            WorkloadQuery(query.name, query.template, query.pattern,
                          counter.count_pattern(store.graph, query.pattern))
            for query in (
                acyclic_workload(graph, per_template=QERROR_PER_TEMPLATE,
                                 seed=QUERY_SEED)
                + cyclic_workload(graph, per_template=QERROR_PER_TEMPLATE,
                                  seed=QUERY_SEED)
            )
        ]
    replayed_session = replayed.session()
    maintained_session = store.session()
    estimates = {"max-hop-max": [], "MOLP": []}
    for query in queries:
        for name, values in estimates.items():
            value = replayed_session.estimate(query.pattern, name)
            values.append(value)
            try:
                checks.check_bit_identical(
                    {name: value},
                    {name: maintained_session.estimate(query.pattern, name)},
                    f"{query.name} replayed vs maintained")
                if name == "MOLP":
                    checks.check_molp_bound(value, query.true_cardinality,
                                            query.name)
            except CheckFailed as error:
                failures.append(str(error))
    truths = [query.true_cardinality for query in queries]

    result = {
        "attempted": attempted,
        "failed": 0,
        "failures": failures,
        "report": {
            "rounds": rounds,
            "batches_per_round": len(chain),
            "apply_tail_ms": tail([x * 1e3 for x in applies]),
            "builds_s": builds,
            "loads_s": loads,
            "round_slowdowns": slowdowns,
            "setups_s": setups,
            "graph_edges": graph.num_edges,
        },
        "end_to_end": {
            "setup_s": median(setups),
            "throughput_ops": median(round_rates),
            "latency_p50_ms": median(applies) * 1e3,
            "peak_rss_mb": rss,
            "build_s": median(builds),
            "load_s": median(loads),
            "artifact_mb": median(sizes),
            "qerror_maxhop_log10": qerror_log10(estimates["max-hop-max"],
                                                truths),
            "qerror_molp_log10": qerror_log10(estimates["MOLP"], truths),
        },
    }
    if ctx.trace:
        overhead = 0.0
        if traced_applies and untraced_applies:
            overhead = (median(traced_applies) / median(untraced_applies)
                        - 1) * 100
        result["per_layer"] = _probe_served(
            ctx, recorder, directory, queries, replayed_session, overhead,
            failures)
        result["recorder"] = recorder
    shutil.rmtree(directory, ignore_errors=True)
    return result


def _probe_served(ctx, recorder: SpanRecorder, directory, queries,
                  session, overhead: float, failures: list) -> dict:
    """Serve the final generation once cold and once warm, traced.

    Gives the request- and estimator-path figures on maintain's own
    artifact and checks that the served floats of the delta-replayed
    artifact equal the in-process replayed store's.
    """
    names = ("max-hop-max", "MOLP")
    lines = [serve.encode_request(position,
                                  serve.format_text(query.pattern), names)
             for position, query in enumerate(queries)]
    trace_log = ctx.scratch / "maintain-trace.ndjson"
    server = serve.Server(ctx.env, directory, ctx.scratch,
                          trace_log=trace_log)
    try:
        connection = serve.Connection(server.port)
        try:
            before = server.cache()
            cpu_start = cpu_seconds(server.pid)
            client_start = time.process_time()
            for _ in range(2):
                _, responses, _ = connection.window(lines)
                for query, raw in zip(queries, responses):
                    expected = {name: session.estimate(query.pattern, name)
                                for name in names}
                    try:
                        checks.check_bit_identical(
                            json.loads(raw)["result"]["estimates"], expected,
                            f"{query.name} served from the replayed chain")
                    except CheckFailed as error:
                        failures.append(str(error))
            requests = 2 * len(lines)
            server_us = (cpu_seconds(server.pid) - cpu_start) * 1e6 / requests
            client_us = (time.process_time() - client_start) * 1e6 / requests
            cache = checks.cache_delta(before, server.cache())
        finally:
            connection.close()
    finally:
        server.close()
    spans = layers.server_spans(ctx.env, trace_log)
    layers.request_path(recorder, lines, session, serve.TENANT)
    layers.estimator_path(recorder, directory, layers.distinct_patterns(
        [query.pattern for query in queries]))
    return layers.summarize(recorder, layers.serving_figures(
        spans, cache, server_us, client_us, overhead))
