"""The two serving workloads: ``serve-warm`` and ``serve-cold``.

Both start ``repro serve`` with default flags on a workload-directed
artifact built by ``repro stats build`` and drive it closed-loop from
this process over one connection for traffic, plus one for the
``stats``/``reload`` control verbs.  Every request line is encoded
before a timed window opens and every response is parsed and checked
after it closes; the client's garbage collector is off inside windows
and runs between them.

* serve-warm: hetionet@0.05; a Zipf-skewed pool of request texts (the
  workload's queries, each also under two variable renamings) with
  mostly ``max-hop-max``, some ``MOLP`` and some ``all-hops-avg``.  The
  pool is far smaller than the 4096-entry estimate cache and is
  pre-warmed, so every timed request is a cache hit.
* serve-cold: hetionet@0.2; every query asks for all nine optimistic
  estimators plus ``MOLP``, and the tenant is reloaded before each pass
  (outside the window), so every (query, estimator) pair misses.

The query population is the §6.1 acyclic and cyclic workload sampled
with ``QUERY_SEED`` (the ``repro stats build --seed`` default), the same
on every run: a cold request costs from under a millisecond to over a
hundred, so fifty queries drawn afresh per seed would move throughput by
more than any bound worth setting.  ``--seed`` drives the traffic: the
Zipf ranks, the renamings, the estimator draws and the request order.
"""

from __future__ import annotations

import gc
import json
import random
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from batches import update_batches
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
TENANT = "bench"
QUERY_SEED = 7
ALL_ESTIMATORS = (
    "max-hop-max", "max-hop-min", "max-hop-avg",
    "min-hop-max", "min-hop-min", "min-hop-avg",
    "all-hops-max", "all-hops-min", "all-hops-avg",
    "MOLP",
)
#: Instances per §6.1 template, as ``repro stats build --per-template``.
PER_TEMPLATE = 2
#: serve-warm's estimator mix and Zipf exponent: the load model of
#: ``benchmarks/bench_server_load.py`` (``ESTIMATOR_MIX``, ``zipf_ranks``).
WARM_MIX = (("max-hop-max", 0.7), ("MOLP", 0.2), ("all-hops-avg", 0.1))
ZIPF_S = 1.1
#: Texts per query on serve-warm: the original and two renamings, so the
#: pool (150 texts x 3 estimators) stays far below the 4096-entry cache.
VARIANTS = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 4
#: Sample of queries whose exact count the benchmark re-counts itself,
#: and the partial-match budget of each brute-force count.
BRUTE_SAMPLE = 3
BRUTE_LIMIT = 400_000
SERVER_START_TIMEOUT = 60.0


@dataclass(frozen=True)
class Profile:
    """Inputs of one serving workload."""

    name: str
    scale: float
    warm: bool
    #: serve-warm: requests per round; serve-cold sends each query once.
    round_requests: int = 0


WARM = Profile("serve-warm", scale=0.05, warm=True, round_requests=1000)
COLD = Profile("serve-cold", scale=0.2, warm=False)


class Server:
    """One ``repro serve`` subprocess on a single tenant."""

    def __init__(self, env: dict, artifact: Path, scratch: Path,
                 trace_log: Path | None = None):
        from repro.server import EstimationClient

        command = [sys.executable, "-m", "repro", "serve", "--tenant",
                   f"{TENANT}={artifact}", "--port", "0"]
        if trace_log is not None:
            command += ["--trace-log", str(trace_log)]
        self._stderr_path = scratch / f"server-{artifact.name}.err"
        self._stderr = self._stderr_path.open("wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._stderr, env=env)
        self.control = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        SERVER_START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    "repro serve did not print its ready line: "
                    + self._stderr_path.read_text(errors="replace")[-2000:]
                )
            #: Spawn to ready line: interpreter start, imports, artifact load.
            self.start_seconds = time.perf_counter() - started
            self.port = int(json.loads(line)["port"])
            self.control = EstimationClient("127.0.0.1", self.port,
                                            timeout=120.0)
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cache(self) -> dict:
        """The tenant's session-cache counters (``stats`` verb)."""
        return self.control.stats()["tenants"][TENANT]["cache"]

    def reload(self) -> None:
        self.control.reload(TENANT)

    def close(self) -> None:
        """Shut the server down and wait until it has exited."""
        try:
            if self.control is not None and self.proc.poll() is None:
                self.control.shutdown()
        except Exception:  # noqa: BLE001 - still wait for / kill the process
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.control is not None:
            self.control.close()
        self.proc.stdout.close()
        self._stderr.close()


class Connection:
    """The traffic connection: depth-1 closed loop over raw lines."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def window(self, lines: list[bytes]):
        """Send each line after the previous answer arrived.

        Returns (per-request seconds, raw response lines, window seconds).
        """
        send = self.sock.sendall
        readline = self.reader.readline
        clock = time.perf_counter
        latencies = [0.0] * len(lines)
        responses: list[bytes] = [b""] * len(lines)
        started = clock()
        for position, line in enumerate(lines):
            sent = clock()
            send(line)
            responses[position] = readline()
            latencies[position] = clock() - sent
        return latencies, responses, clock() - started

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def encode_request(request_id: int, text: str, estimators) -> bytes:
    """One ``estimate`` request line for the benchmark tenant."""
    from repro.server import protocol

    return protocol.encode_line({
        "v": protocol.PROTOCOL_VERSION, "verb": "estimate", "id": request_id,
        "tenant": TENANT, "query": text, "estimators": list(estimators),
    })


def format_text(pattern) -> str:
    """A pattern in the arrow syntax the server parses."""
    from repro.query.parser import format_pattern

    return format_pattern(pattern)


def _renamed(pattern, variant: int, rng: random.Random):
    """The pattern with every variable renamed (variant 0: unchanged)."""
    if variant == 0:
        return pattern
    names = list(pattern.variables)
    fresh = [f"v{variant}_{index}" for index in range(len(names))]
    rng.shuffle(fresh)
    return pattern.rename(dict(zip(names, fresh)))


class Workload:
    """Seeded inputs, the expected answers, and the check state."""

    def __init__(self, profile: Profile, seed: int, recorder: SpanRecorder):
        from repro.datasets import load_dataset
        from repro.datasets.workloads import acyclic_workload, cyclic_workload
        from repro.query import canonical_key

        self.profile = profile
        self.seed = seed
        self.graph = load_dataset(DATASET, profile.scale)
        with layers.counted_counter(recorder):
            self.queries = (
                acyclic_workload(self.graph, per_template=PER_TEMPLATE,
                                 seed=QUERY_SEED)
                + cyclic_workload(self.graph, per_template=PER_TEMPLATE,
                                  seed=QUERY_SEED)
            )
        self.distinct_shapes = len(
            {canonical_key(query.pattern) for query in self.queries})
        rng = random.Random(seed)
        if profile.warm:
            self._warm_requests(rng)
        else:
            order = list(range(len(self.queries)))
            rng.shuffle(order)
            self.requests = [
                (index, self._text(index, rng.randrange(VARIANTS), rng),
                 ALL_ESTIMATORS)
                for index in order
            ]
        self.lines = [encode_request(position, text, estimators)
                      for position, (_, text, estimators)
                      in enumerate(self.requests)]
        self.expected: dict[int, dict[str, float]] = {}

    def _text(self, index: int, variant: int, rng: random.Random) -> str:
        return format_text(_renamed(self.queries[index].pattern, variant, rng))

    def _warm_requests(self, rng: random.Random) -> None:
        texts = [[self._text(index, variant, rng)
                  for variant in range(VARIANTS)]
                 for index in range(len(self.queries))]
        ranks = list(range(len(self.queries)))
        rng.shuffle(ranks)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in ranks]
        names = [name for name, _ in WARM_MIX]
        mix = [weight for _, weight in WARM_MIX]
        self.requests = []
        for _ in range(self.profile.round_requests):
            index = rng.choices(range(len(self.queries)), weights)[0]
            variant = rng.randrange(VARIANTS)
            estimator = rng.choices(names, mix)[0]
            self.requests.append((index, texts[index][variant], (estimator,)))
        # Warm-up: every (text, estimator) pair the traffic can ask for.
        # Each text, not just each shape: canonical_key falls back to a
        # name-dependent encoding above eight variables, so a renamed
        # 8-edge tree has a key (and cache entry) of its own.
        self.warmup_lines = [encode_request(-1, text, (name,))
                             for variants in texts for text in variants
                             for name in names]

    def compute_expected(self, artifact: Path) -> None:
        """Every requested estimate from an in-process session.

        The session is then warmed with every requested (text,
        estimator) pair, as the server's is on a warm request, so the
        traced request path finds each pair in its cache.
        """
        from repro.query import parse_pattern
        from repro.stats import StatisticsStore

        session = StatisticsStore.load(artifact).session()
        self.session = session
        names = ([name for name, _ in WARM_MIX] if self.profile.warm
                 else ALL_ESTIMATORS)
        for index, query in enumerate(self.queries):
            self.expected[index] = {
                name: session.estimate(query.pattern, name) for name in names
            }
        for text, estimators in dict.fromkeys(
                (text, estimators) for _, text, estimators in self.requests):
            pattern = parse_pattern(text)
            for name in estimators:
                session.estimate(pattern, name)

    def check_responses(self, responses: list[bytes], failures: list) -> int:
        """Check every response of one window; returns failed requests."""
        failed = 0
        for position, raw in enumerate(responses):
            index, _text, estimators = self.requests[position]
            where = f"{self.profile.name} query {index}"
            response = json.loads(raw)
            if response.get("id") != position:
                failures.append(f"{where}: response id {response.get('id')!r}"
                                f" for request {position}")
                continue
            if not response.get("ok") or response["result"]["errors"]:
                failed += 1
                continue
            served = response["result"]["estimates"]
            expected = {name: self.expected[index][name]
                        for name in estimators}
            try:
                checks.check_bit_identical(served, expected, where)
                if "MOLP" in served:
                    checks.check_molp_bound(
                        served["MOLP"],
                        self.queries[index].true_cardinality, where)
                checks.check_hop_orders(served, where)
            except CheckFailed as error:
                failures.append(str(error))
        return failed

    def check_exact_sample(self, failures: list) -> int:
        """Re-count exact counts by brute force, smallest counts first.

        Queries over the brute-force budget are skipped; at least one
        must be checked.
        """
        index = checks.EdgeIndex(self.graph.triples())
        order = sorted(range(len(self.queries)),
                       key=lambda i: self.queries[i].true_cardinality)
        checked = 0
        for position in order:
            query = self.queries[position]
            edges = [(e.src, e.dst, e.label) for e in query.pattern.edges]
            try:
                checks.check_exact_count(index, edges,
                                         query.true_cardinality,
                                         BRUTE_LIMIT, query.name)
            except CheckFailed as error:
                failures.append(str(error))
            except ValueError:
                continue  # over the brute-force budget; try the next
            checked += 1
            if checked == BRUTE_SAMPLE:
                break
        if checked == 0:
            failures.append("no exact count could be cross-checked")
        return checked

    def qerrors(self) -> tuple[float, float]:
        truths = [q.true_cardinality for q in self.queries]
        return (
            qerror_log10([self.expected[i]["max-hop-max"]
                          for i in range(len(truths))], truths),
            qerror_log10([self.expected[i]["MOLP"]
                          for i in range(len(truths))], truths),
        )


def _build_artifact(env: dict, workload: Workload, out: Path) -> float:
    """``repro stats build`` for the workload; returns its wall seconds."""
    profile = workload.profile
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "stats", "build",
         "--dataset", DATASET, "--scale", str(profile.scale),
         "--workload", "both", "--per-template", str(PER_TEMPLATE),
         "--seed", str(QUERY_SEED), "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    return time.perf_counter() - started


def _setup(env, workload: Workload, scratch: Path, index: int,
           trace_log: Path | None, failures: list):
    """Build, start and warm one server.

    Returns (server, traffic connection, artifact, build seconds, load
    seconds, set-up seconds).  serve-warm sends every (text, estimator)
    pair once; serve-cold sends one request and then reloads, so the
    caches start empty but the server's code paths are warm.
    """
    started = time.perf_counter()
    artifact = scratch / f"artifact-{index}"
    with Calibrated("numpy") as calibration:
        build_seconds = _build_artifact(env, workload, artifact)
    build_seconds = calibration.scaled(build_seconds)
    server = Server(env, artifact, scratch, trace_log=trace_log)
    try:
        connection = Connection(server.port)
        lines = (workload.warmup_lines if workload.profile.warm
                 else workload.lines[:1])
        _, responses, _ = connection.window(lines)
        answers = [json.loads(raw) for raw in responses]
        bad = [a for a in answers if not a.get("ok") or a["result"]["errors"]]
        if bad:
            failures.append(f"warm-up: {len(bad)} requests failed")
        if not workload.profile.warm:
            server.reload()
    except BaseException:
        server.close()
        raise
    return (server, connection, artifact, build_seconds, server.start_seconds,
            time.perf_counter() - started)


def run(profile: Profile, ctx) -> dict:
    """One run of a serving workload; see :func:`run.main` for ``ctx``."""
    recorder = SpanRecorder()
    workload = Workload(profile, ctx.seed, recorder)
    failures: list[str] = []
    setups, builds, loads = [], [], []
    server = connection = None
    untraced = None
    trace_log = ctx.scratch / "server-trace.ndjson" if ctx.trace else None
    try:
        for index in range(SETUPS):
            if server is not None and not (ctx.trace and index == SETUPS - 1):
                connection.close()
                server.close()
            elif server is not None:
                untraced = (server, connection)
            log = trace_log if ctx.trace and index == SETUPS - 1 else None
            server, connection, artifact, build_s, load_s, setup_s = _setup(
                ctx.env, workload, ctx.scratch, index, log, failures)
            setups.append(setup_s)
            builds.append(build_s)
            loads.append(load_s)

        workload.compute_expected(artifact)

        traffic = _timed_rounds(workload, server, connection, ctx, failures,
                                untraced)
        rss = peak_rss_mib(server.pid)
    finally:
        for pair in (untraced, (server, connection)):
            if pair is not None and pair[0] is not None:
                pair[1].close()
                pair[0].close()

    workload.check_exact_sample(failures)
    maxhop, molp = workload.qerrors()
    result = {
        "attempted": traffic["attempted"],
        "failed": traffic["failed"],
        "failures": failures,
        "report": {
            "rounds": traffic["rounds"],
            "round_seconds": traffic["windows"],
            "round_slowdowns": traffic["slowdowns"],
            "raw_latency_p50_ms": median(traffic["raw_latencies"]) * 1e3,
            "requests": traffic["attempted"],
            "latency_tail_ms": tail([x * 1e3 for x in traffic["latencies"]]),
            "server_cpu_us_per_request": traffic["server_cpu_us"],
            "client_cpu_us_per_request": traffic["client_cpu_us"],
            "distinct_shapes": workload.distinct_shapes,
            "setups_s": setups,
        },
        "end_to_end": {
            "setup_s": median(setups),
            # Median over rounds: a few slow windows do not move it.
            "throughput_ops": median([len(workload.lines) / seconds
                                      for seconds in traffic["windows"]]),
            "latency_p50_ms": median(traffic["latencies"]) * 1e3,
            "peak_rss_mb": rss,
            "build_s": median(builds),
            "load_s": median(loads),
            "artifact_mb": tree_mib(artifact),
            "qerror_maxhop_log10": maxhop,
            "qerror_molp_log10": molp,
        },
    }
    if ctx.trace:
        result["per_layer"] = _layer_figures(
            workload, ctx, recorder, artifact, trace_log, traffic)
        result["report"]["server_spans"] = result["per_layer"].pop(
            "_server_spans")
        result["recorder"] = recorder
    return result


def _timed_rounds(workload: Workload, server: Server, connection: Connection,
                  ctx, failures: list, untraced) -> dict:
    """Whole rounds until ``ctx.seconds`` of timed windows have passed.

    In the traced run the rounds alternate between the traced server and
    an untraced one, and the latency ratio between them is the tracing
    overhead; every other figure comes from the traced server.  Each
    window is timed with the slowdown measured on both sides of it, and
    ``latencies`` and ``windows`` are at the reference speed.
    """
    profile = workload.profile
    latencies: list[float] = []
    raw_latencies: list[float] = []
    slowdowns: list[float] = []
    untraced_latencies: list[float] = []
    seconds = 0.0
    windows: list[float] = []
    cache = {"estimate hits": 0, "estimate misses": 0, "skeleton misses": 0}
    server_cpu = client_cpu = 0.0
    attempted = failed = rounds = 0
    while rounds == 0 or seconds < ctx.seconds:
        targets = [(server, connection, True)]
        if untraced is not None:
            targets.append((untraced[0], untraced[1], False))
        for target, conn, primary in targets:
            if not profile.warm:
                target.reload()
            before = target.cache()
            gc.collect()
            with Calibrated("python") as calibration:
                gc.disable()
                server_cpu_start = cpu_seconds(target.pid)
                client_cpu_start = time.process_time()
                try:
                    window = conn.window(workload.lines)
                finally:
                    client_cpu_used = time.process_time() - client_cpu_start
                    server_cpu_used = (cpu_seconds(target.pid)
                                       - server_cpu_start)
                    gc.enable()
            raw_round, responses, window_seconds = window
            round_latencies = [calibration.scaled(x) for x in raw_round]
            after = target.cache()
            round_failed = workload.check_responses(responses, failures)
            moved = _check_cache(workload, before, after, failures)
            if not primary:
                untraced_latencies.extend(round_latencies)
                continue
            latencies.extend(round_latencies)
            raw_latencies.extend(raw_round)
            slowdowns.append(calibration.factor)
            for name, amount in moved.items():
                cache[name] += amount
            windows.append(calibration.scaled(window_seconds))
            seconds += window_seconds
            server_cpu += server_cpu_used
            client_cpu += client_cpu_used
            attempted += len(responses)
            failed += round_failed
            rounds += 1
    requests = max(attempted, 1)
    server_us = server_cpu * 1e6 / requests
    client_us = client_cpu * 1e6 / requests
    if profile.warm and client_us >= server_us:
        failures.append(
            f"load generator is the saturated side: client "
            f"{client_us:.0f} us CPU per request >= server {server_us:.0f} us"
        )
    overhead = None
    if untraced_latencies:
        overhead = (median(latencies) / median(untraced_latencies) - 1) * 100
    return {
        "latencies": latencies, "raw_latencies": raw_latencies,
        "rounds": rounds, "windows": windows, "slowdowns": slowdowns,
        "cache": cache,
        "attempted": attempted, "failed": failed,
        "server_cpu_us": server_us, "client_cpu_us": client_us,
        "overhead_pct": overhead,
    }


def _check_cache(workload: Workload, before: dict, after: dict,
                 failures: list) -> dict:
    """All hits on a warm round; one skeleton miss per shape when cold.

    Returns how far the counters moved.
    """
    requests = len(workload.requests)
    if workload.profile.warm:
        wanted = dict(estimate_hits=requests, estimate_misses=0,
                      skeleton_misses=0)
    else:
        shapes = workload.distinct_shapes
        cells = len(ALL_ESTIMATORS)
        wanted = dict(estimate_hits=(requests - shapes) * cells,
                      estimate_misses=shapes * cells,
                      skeleton_misses=shapes)
    try:
        checks.check_cache_delta(before, after, where=workload.profile.name,
                                 **wanted)
    except CheckFailed as error:
        failures.append(str(error))
    return checks.cache_delta(before, after)


def _layer_figures(workload: Workload, ctx, recorder: SpanRecorder,
                   artifact: Path, trace_log: Path, traffic: dict) -> dict:
    """Per-layer figures of a traced serving run."""
    from repro.delta.updates import UpdateBatch
    from repro.stats.artifact import StoreManifest

    spans = layers.server_spans(ctx.env, trace_log)
    layers.request_path(recorder, workload.lines, workload.session, TENANT)
    layers.estimator_path(recorder, artifact, layers.distinct_patterns(
        [query.pattern for query in workload.queries]))
    layers.build_levels(
        recorder, StoreManifest.load(artifact).build_config["levels"])
    chain, _ = update_batches(workload.graph, workload.seed, inserts=1,
                              deletes=1)
    layers.save_and_delta(recorder, artifact, workload.graph,
                          UpdateBatch(chain[0]), ctx.scratch)
    figures = layers.summarize(recorder, layers.serving_figures(
        spans, traffic["cache"], traffic["server_cpu_us"],
        traffic["client_cpu_us"], traffic["overhead_pct"] or 0.0))
    figures["_server_spans"] = {"rounds": traffic["rounds"], "stages": spans}
    return figures
