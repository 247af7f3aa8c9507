"""Correctness checks on the program's outputs.

Each check raises :class:`~common.CheckFailed` on a wrong output and
returns None otherwise.  None of them trusts an earlier output of the
program: served floats are compared with an in-process session built
by the benchmark, bounds are checked against exact counts that are
themselves cross-checked on a sample by :func:`brute_count` (a small
counter written here), and the maintained catalogs are compared with a
cold rebuild.  :func:`self_test` feeds every check a deliberately wrong
input and passes only if each one rejects it.
"""

from __future__ import annotations

from collections import defaultdict

from common import CheckFailed

HOP_SETS = ("max-hop", "min-hop", "all-hops")
AGGREGATORS = ("min", "avg", "max")

#: An ``avg`` estimate is a float division of a float sum: when every
#: path estimate is equal it may land a few ulps beside them.
AVG_REL_TOLERANCE = 1e-9


def check_bit_identical(served: dict, expected: dict, where: str) -> None:
    """Served floats equal the in-process ones bit for bit."""
    if set(served) != set(expected):
        raise CheckFailed(
            f"{where}: served estimators {sorted(served)} != expected "
            f"{sorted(expected)}"
        )
    for name, value in expected.items():
        got = served[name]
        if not isinstance(got, float) or got.hex() != value.hex():
            raise CheckFailed(
                f"{where}: {name} served {got!r}, in-process {value!r}"
            )


def check_molp_bound(molp: float, exact: float, where: str) -> None:
    """MOLP is a pessimistic bound: never below the exact count."""
    if not molp >= exact:
        raise CheckFailed(f"{where}: MOLP {molp!r} < exact count {exact!r}")


def check_hop_orders(estimates: dict, where: str) -> None:
    """``min <= avg <= max`` per hop set, and the all-hops envelope."""
    for hop in HOP_SETS:
        low, mid, high = (estimates.get(f"{hop}-{agg}") for agg in AGGREGATORS)
        if low is None or mid is None or high is None:
            continue
        slack = AVG_REL_TOLERANCE * abs(high)
        if not (low <= high and low - slack <= mid <= high + slack):
            raise CheckFailed(
                f"{where}: {hop} min/avg/max out of order: "
                f"{low!r} / {mid!r} / {high!r}"
            )
    if all(
        f"{hop}-{agg}" in estimates
        for hop in HOP_SETS for agg in ("min", "max")
    ):
        top = estimates["all-hops-max"]
        if top < estimates["max-hop-max"] or top < estimates["min-hop-max"]:
            raise CheckFailed(
                f"{where}: all-hops-max {top!r} below a single-hop-set max"
            )
        bottom = estimates["all-hops-min"]
        if (
            bottom > estimates["max-hop-min"]
            or bottom > estimates["min-hop-min"]
        ):
            raise CheckFailed(
                f"{where}: all-hops-min {bottom!r} above a single-hop-set min"
            )


class EdgeIndex:
    """Label -> source -> destinations, built from ``(src, dst, label)``."""

    def __init__(self, triples):
        self.out: dict[str, dict[int, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.inn: dict[str, dict[int, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.edges: set[tuple[int, int, str]] = set()
        for src, dst, label in triples:
            triple = (int(src), int(dst), str(label))
            if triple in self.edges:
                continue
            self.edges.add(triple)
            self.out[triple[2]][triple[0]].append(triple[1])
            self.inn[triple[2]][triple[1]].append(triple[0])


def brute_count(index: EdgeIndex, edges, limit: int) -> int:
    """Homomorphism count of a pattern by plain backtracking.

    ``edges`` are ``(src_var, dst_var, label)``.  Variables are bound in
    an order where each new one is reached through an edge from a bound
    one; every other edge is checked against the edge set.  Raises
    ValueError past ``limit`` partial matches, so callers keep the
    sample to queries it can afford.
    """
    edges = list(edges)
    order: list[str] = [edges[0][0]]
    steps: list[tuple[int, bool]] = []  # (edge index, bound var is src)
    bound = {edges[0][0]}
    num_vars = len({var for edge in edges for var in edge[:2]})
    while len(steps) < num_vars - 1:
        for position, (src, dst, _label) in enumerate(edges):
            if src in bound and dst not in bound:
                steps.append((position, True))
                bound.add(dst)
                order.append(dst)
                break
            if dst in bound and src not in bound:
                steps.append((position, False))
                bound.add(src)
                order.append(src)
                break
        else:
            raise ValueError("pattern is not connected")
    tree_edges = {position for position, _ in steps}
    closing = [e for i, e in enumerate(edges) if i not in tree_edges]
    # The first step leaves order[0], so only vertices with an edge of
    # its label on that side can start a match.
    position, from_src = steps[0]
    starts = (index.out if from_src else index.inn)[edges[position][2]]
    work = 0
    total = 0

    def extend(depth: int, binding: dict) -> None:
        nonlocal work, total
        work += 1
        if work > limit:
            raise ValueError("brute-force count over its work limit")
        if depth == len(steps):
            for src, dst, label in closing:
                if (binding[src], binding[dst], label) not in index.edges:
                    return
            total += 1
            return
        position, from_src = steps[depth]
        src, dst, label = edges[position]
        if from_src:
            candidates = index.out[label].get(binding[src], ())
            new_var = dst
        else:
            candidates = index.inn[label].get(binding[dst], ())
            new_var = src
        for vertex in candidates:
            binding[new_var] = vertex
            extend(depth + 1, binding)
        binding.pop(new_var, None)

    for vertex in sorted(starts):
        extend(0, {order[0]: vertex})
    return total


def check_exact_count(index: EdgeIndex, edges, exact: float, limit: int,
                      where: str) -> None:
    """The program's exact count equals the benchmark's own count."""
    own = brute_count(index, edges, limit)
    if float(own) != float(exact):
        raise CheckFailed(
            f"{where}: exact count {exact!r} but brute force counts {own}"
        )


def cache_delta(before: dict, after: dict) -> dict[str, int]:
    """How far the ``stats`` verb's cache counters moved."""
    return {
        "estimate hits": after["estimates"]["hits"]
        - before["estimates"]["hits"],
        "estimate misses": after["estimates"]["misses"]
        - before["estimates"]["misses"],
        "skeleton misses": after["skeletons"]["misses"]
        - before["skeletons"]["misses"],
    }


def check_cache_delta(before: dict, after: dict, *, estimate_hits: int,
                      estimate_misses: int, skeleton_misses: int,
                      where: str) -> None:
    """The ``stats`` verb's cache counters moved by exactly this much."""
    moved = cache_delta(before, after)
    wanted = {
        "estimate hits": estimate_hits,
        "estimate misses": estimate_misses,
        "skeleton misses": skeleton_misses,
    }
    if moved != wanted:
        raise CheckFailed(f"{where}: cache counters moved {moved}, "
                          f"expected {wanted}")


def check_catalogs_equal(left, right, where: str) -> None:
    """Two stores hold identical Markov and degree catalogs."""
    for name in ("markov", "degrees"):
        if (
            getattr(left, name).to_artifact()
            != getattr(right, name).to_artifact()
        ):
            raise CheckFailed(f"{where}: {name} catalogs differ")


def check_edge_set(graph, expected: set, where: str) -> None:
    """A graph holds exactly the expected ``(src, dst, label)`` edges."""
    got = {(int(s), int(d), str(l)) for s, d, l in graph.triples()}
    if got != expected:
        raise CheckFailed(
            f"{where}: edge set differs ({len(got - expected)} extra, "
            f"{len(expected - got)} missing)"
        )


def _rejects(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except CheckFailed:
        return True
    return False


def self_test(workdir) -> dict[str, bool]:
    """Feed every check a deliberately wrong input; True means rejected.

    Uses the running example (13 vertices) so it runs in seconds; the
    wrong inputs are a perturbed float, a MOLP value below the exact
    count, out-of-order hop aggregates, a wrong exact count, a cache
    miss on a warm pass, a store replayed with one delta file dropped,
    and an edge set with one edge lost.
    """
    from repro.datasets import load_dataset
    from repro.delta import apply_updates
    from repro.delta.updates import DELETE, INSERT, EdgeUpdate, UpdateBatch
    from repro.errors import DatasetError
    from repro.query import parse_pattern
    from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

    graph = load_dataset("example")
    store = build_statistics(graph, StatsBuildConfig(h=2, molp_h=2))
    session = store.session()
    pattern = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
    names = ["max-hop-max", "max-hop-avg", "max-hop-min", "min-hop-max",
             "min-hop-avg", "min-hop-min", "all-hops-max", "all-hops-avg",
             "all-hops-min", "MOLP"]
    good = {name: session.estimate(pattern, name) for name in names}
    index = EdgeIndex(graph.triples())
    edges = [(e.src, e.dst, e.label) for e in pattern.edges]
    exact = float(brute_count(index, edges, 10_000))

    results: dict[str, bool] = {}
    perturbed = dict(good)
    perturbed["max-hop-max"] = float.fromhex(
        (good["max-hop-max"] * (1 + 2 ** -52)).hex()
    )
    if perturbed["max-hop-max"] == good["max-hop-max"]:
        perturbed["max-hop-max"] = good["max-hop-max"] + 1e-9
    results["bit_identical/perturbed_float"] = _rejects(
        check_bit_identical, perturbed, good, "self-test")
    results["molp_bound/below_exact"] = _rejects(
        check_molp_bound, exact - 1.0, exact, "self-test")
    swapped = dict(good)
    swapped["max-hop-min"], swapped["max-hop-max"] = (
        good["max-hop-max"] + 1.0, good["max-hop-min"])
    results["hop_order/min_above_max"] = _rejects(
        check_hop_orders, swapped, "self-test")
    envelope = dict(good)
    envelope["all-hops-max"] = min(good["max-hop-max"],
                                   good["min-hop-max"]) * 0.5
    envelope["all-hops-avg"] = envelope["all-hops-min"] = min(
        envelope["all-hops-max"], good["all-hops-min"])
    results["hop_order/all_hops_below_single"] = _rejects(
        check_hop_orders, envelope, "self-test")
    results["exact_count/off_by_one"] = _rejects(
        check_exact_count, index, edges, exact + 1.0, 10_000, "self-test")
    counters = {"estimates": {"hits": 10, "misses": 2},
                "skeletons": {"hits": 0, "misses": 1}}
    missed = {"estimates": {"hits": 19, "misses": 3},
              "skeletons": {"hits": 0, "misses": 1}}
    results["cache_delta/miss_on_warm_pass"] = _rejects(
        check_cache_delta, counters, missed, estimate_hits=10,
        estimate_misses=0, skeleton_misses=0, where="self-test")

    directory = workdir / "self-test-artifact"
    maintained = build_statistics(graph, StatsBuildConfig(
        h=2, molp_h=2, baselines=False))
    maintained.save(directory)
    expected_edges = set(index.edges)
    for batch in (
        [EdgeUpdate(INSERT, 0, 7, "B"), EdgeUpdate(DELETE, 3, 5, "B")],
        [EdgeUpdate(INSERT, 1, 4, "A"), EdgeUpdate(DELETE, 5, 7, "C")],
    ):
        apply_updates(maintained, UpdateBatch(batch), directory=directory)
        for update in batch:
            if update.op == INSERT:
                expected_edges.add(update.triple)
            else:
                expected_edges.discard(update.triple)
    check_catalogs_equal(StatisticsStore.load(directory), maintained,
                         "self-test control")
    check_edge_set(maintained.graph, expected_edges, "self-test control")
    delta_files = sorted((directory / "deltas").glob("*.json"))
    delta_files[-1].unlink()
    try:
        dropped = StatisticsStore.load(directory)
    except DatasetError:
        results["replay/dropped_delta_file"] = True
    else:
        results["replay/dropped_delta_file"] = _rejects(
            check_catalogs_equal, dropped, maintained, "self-test")
    lost = set(expected_edges)
    lost.pop()
    results["edge_set/lost_edge"] = _rejects(
        check_edge_set, maintained.graph, lost, "self-test")
    return results
