"""Host-side kernel passes of the breadth-first level loop.

These are the vectorised bodies of the paper's two per-level kernels
(CountCliques and OutputNewCliques, Algorithm 2) plus the pair-chunk
machinery that bounds host memory while materialising the per-thread
inner loops. They contain *no* device accounting -- the
:class:`~repro.engine.driver.LevelDriver` charges the launches --
which is what lets one pass implementation serve both the isolated
(one search) and fused (merged concurrent-window) launch schedules.

The count pass hands its hits to the output pass: OutputNewCliques
writes exactly the successful lookups of the threads that survive the
prune, so the host answers each connectivity check once although the
driver charges both kernels' binary searches, as the paper's two
passes make them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph.csr import CSRGraph

#: ``(thread, partner)`` int32 index pairs of surviving count-pass hits
Hits = Tuple[np.ndarray, np.ndarray]

__all__ = [
    "Hits",
    "chunk_slices",
    "expand_pairs",
    "count_pass",
    "output_pass",
    "run_boundaries_host",
]


def chunk_slices(tail: np.ndarray, chunk_pairs: int):
    """Split thread ranges so each slice covers <= chunk_pairs pairs."""
    csum = np.cumsum(tail)
    total = int(csum[-1]) if csum.size else 0
    if total == 0:
        return
    start = 0
    n = tail.size
    while start < n:
        base = int(csum[start - 1]) if start else 0
        # furthest thread whose cumulative pair count stays in budget
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        if stop <= start:  # single thread exceeding the budget: take it alone
            stop = start + 1
        yield start, stop
        start = stop


def expand_pairs(tail_slice: np.ndarray, start: int):
    """Flat int32 (idx1, idx2) pair arrays for threads [start, start+len).

    Thread indices address one clique-list node, whose int32 arrays
    bound them, so int32 holds every index and halves the traffic.
    """
    total = int(tail_slice.sum())
    idx1 = np.repeat(
        np.arange(start, start + tail_slice.size, dtype=np.int32), tail_slice
    )
    first = (np.cumsum(tail_slice) - tail_slice).astype(np.int32)
    within = np.arange(total, dtype=np.int32) - np.repeat(first, tail_slice)
    idx2 = idx1 + 1 + within
    return idx1, idx2


def count_pass(
    graph: CSRGraph,
    vertex: np.ndarray,
    tail: np.ndarray,
    chunk_pairs: int,
    min_count: int,
) -> Tuple[np.ndarray, Hits]:
    """Per-thread successful-lookup counts (CountCliques), plus hits.

    Returns ``(counts, hits)``. ``hits`` holds the int32 ``(thread,
    partner)`` index pairs of every successful lookup whose thread
    survives the prune, i.e. has ``count >= max(min_count, 1)``;
    ``min_count`` is the driver's ``bar - k``. Chunks hold whole
    threads in ascending order, so the hits come out in exactly the
    order OutputNewCliques writes them (:func:`output_pass`).
    """
    n = tail.size
    counts = np.zeros(n, dtype=np.int64)
    floor = max(min_count, 1)
    threads: List[np.ndarray] = []
    partners: List[np.ndarray] = []
    for start, stop in chunk_slices(tail, chunk_pairs):
        reps = tail[start:stop]
        idx1, idx2 = expand_pairs(reps, start)
        found = graph.batch_has_edge(
            np.repeat(vertex[start:stop], reps), vertex[idx2]
        )
        hit = np.flatnonzero(found)
        if hit.size == 0:
            continue
        f1 = idx1[hit]
        chunk_counts = np.bincount(f1 - start, minlength=stop - start)
        counts[start:stop] = chunk_counts
        survive = chunk_counts >= floor
        if not survive.all():
            keep = survive[f1 - start]
            f1, hit = f1[keep], hit[keep]
        threads.append(f1)
        partners.append(idx2[hit])
    if not threads:
        empty = np.zeros(0, dtype=np.int32)
        return counts, (empty, empty)
    return counts, (np.concatenate(threads), np.concatenate(partners))


def output_pass(
    vertex: np.ndarray,
    hits: Hits,
    new_vertex: np.ndarray,
    new_sublist: np.ndarray,
) -> None:
    """Write surviving candidates into the new node (OutputNewCliques).

    ``hits`` are the count pass's surviving ``(thread, partner)``
    pairs, already in output order: entry ``i`` of the new node is
    candidate ``vertex[partner[i]]`` with back-pointer ``thread[i]``
    (the thread's own entry, the shared parent). Threads the driver
    pruned after the count pass contributed no hits, so nothing is
    re-expanded or re-queried here.
    """
    thread, partner = hits
    assert thread.size == new_vertex.size, "hits do not match the new node"
    np.take(vertex, partner, out=new_vertex)
    new_sublist[:] = thread


def run_boundaries_host(values: np.ndarray) -> np.ndarray:
    """Run boundaries without device accounting (charged by the driver)."""
    n = values.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return np.concatenate([starts, [n]]).astype(np.int64)
