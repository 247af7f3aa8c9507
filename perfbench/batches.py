"""Seeded insert/delete batches, and the edge set they lead to.

The benchmark draws its update batches itself (rather than with the
program's own generator) and applies them to a plain Python set, so the
final edge set it expects does not depend on the code under test.
"""

from __future__ import annotations

import random


def update_batches(graph, seed: int | str, inserts: int,
                   deletes: int) -> tuple[list, set]:
    """One batch per label: ``deletes`` deletions, ``inserts`` insertions.

    What an update costs depends mostly on its label, so every label
    gets exactly one batch on every seed; the seed picks the order of
    the labels and the edges.  Deletions pick an edge of the label
    present at that point of the chain; insertions pick an absent edge
    of the label between existing vertices, so every operation changes
    the graph.  Returns the batches (as lists of ``EdgeUpdate``) and the
    edge set after all of them.
    """
    from repro.delta.updates import DELETE, INSERT, EdgeUpdate

    edges = {(int(s), int(d), str(l)) for s, d, l in graph.triples()}
    labels = sorted(graph.labels)
    vertices = graph.num_vertices
    rng = random.Random(seed)
    rng.shuffle(labels)
    batches = []
    for label in labels:
        present = sorted(edge for edge in edges if edge[2] == label)
        removed = set(rng.sample(present, deletes))
        edges -= removed
        batch = [EdgeUpdate(DELETE, *triple) for triple in sorted(removed)]
        while len(batch) < deletes + inserts:
            triple = (rng.randrange(vertices), rng.randrange(vertices), label)
            # A batch is applied in its (shuffled) order: re-inserting an
            # edge it also deletes would make the outcome depend on it.
            if triple in edges or triple in removed:
                continue
            edges.add(triple)
            batch.append(EdgeUpdate(INSERT, *triple))
        rng.shuffle(batch)
        batches.append(batch)
    return batches, edges
