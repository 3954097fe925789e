"""Pluggable problem kinds for the level engine.

The paper's count / scan / output level loop is the computational
shape shared by three problems: maximum clique enumeration (this
paper), k-clique counting (Almasri et al.), and maximal clique
enumeration (Almasri/Nagi/Chang) -- see PAPERS.md. A
:class:`ProblemKind` encapsulates everything that differs between
them so :class:`~repro.engine.driver.LevelDriver` and
:func:`~repro.engine.sweep.window_sweep` stay single implementations:

* the **count/output kernel bodies** (``count`` / ``output``; all
  kinds currently share the paper's passes, but a kind may override
  them -- ``count`` returns the surviving hits the driver hands to
  ``output``);
* **ω̄-pruning applicability** (``effective_bar``): max-clique prunes
  sublists that cannot reach the bound; the counting and enumeration
  kinds must visit every clique, so their bar is 0 (the driver's
  pruning block is a no-op at bar 0);
* the **level-termination rule**: ``stop_level`` stops k-clique
  counting at level ``k``; the other kinds run until no new cliques
  are generated;
* the **per-level harvest** (``on_level`` / ``harvest_stop``):
  maximal-enum collects zero-extension entries (after a maximality
  check against the full graph), k-clique counting reads the size of
  the stopping level;
* the **result**: the :class:`KindState` accumulator the driver
  threads through the search (the sweep merges it across windows),
  the closed-form answers that need no search (``trivial``), and the
  assembly of the kind's result type from a search outcome
  (``result``) -- the pipeline stages never branch on the kind;
* **resumability** (``supports_checkpoint``, read by
  :func:`checkpoint_refusal`).

``MAX_CLIQUE`` is the default kind and is behaviour-identical to the
pre-kind driver: identity bar, no stop level, no harvest, the same
kernels -- the max-clique launch sequence, costs, and results are
byte-for-byte unchanged.

Maximal-enum correctness: the oriented expansion emits every clique
of size >= 2 exactly once (as its rank-sorted vertex sequence), and an
entry whose extension count is 0 has no *forward* extension. Such a
clique may still be contained in a larger clique through a
lower-ranked vertex, so each zero-extension entry is verified against
the full adjacency (a clique is maximal iff no vertex is adjacent to
all of its members). Singleton maximal cliques (isolated vertices)
never enter the 2-clique list and are added by the pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.config import PROBLEM_KINDS
from ..core.result import (
    HeuristicReport,
    KCliqueCountResult,
    MaxCliqueResult,
    MaximalEnumResult,
    SolveResult,
)
from .passes import Hits, chunk_slices, count_pass, output_pass

__all__ = [
    "KindState",
    "ProblemKind",
    "KCliqueCountKind",
    "MaximalEnumKind",
    "MAX_CLIQUE",
    "resolve_kind",
    "merge_state",
    "checkpoint_refusal",
    "resumable",
    "max_clique_result",
    "PROBLEM_KINDS",
]


@dataclass
class KindState:
    """Mutable per-search accumulator a :class:`ProblemKind` fills.

    ``count`` is the kind's scalar figure (k-cliques counted, maximal
    cliques found); ``cliques`` holds harvested cliques as sorted
    vertex tuples (maximal-enum only).
    """

    count: int = 0
    cliques: List[Tuple[int, ...]] = field(default_factory=list)


class ProblemKind:
    """One problem the level loop can solve (default: max-clique).

    Subclasses override the class attributes and hooks; the base class
    *is* the max-clique kind, and every hook defaults to the behaviour
    the paper's Algorithm 2 specifies.
    """

    #: stable identifier; must be a member of ``PROBLEM_KINDS``
    name = "max-clique"
    #: whether the ω̄ bound may zero sub-bound sublists
    prunes = True
    #: whether the sound early-exit (Algorithm 2 line 36) may fire
    allows_early_exit = True
    #: whether windowed checkpoints describe this kind's state
    supports_checkpoint = True
    #: stop expanding once the head node reaches this level
    stop_level: Optional[int] = None

    # ------------------------------------------------------------------
    # kernel bodies (the paper's passes; kinds may substitute their own)
    # ------------------------------------------------------------------
    def count(
        self, graph, vertex, tail, chunk_pairs, min_count
    ) -> Tuple[np.ndarray, Hits]:
        """The CountCliques pass body: ``(counts, surviving hits)``.

        ``min_count`` is the prune threshold ``bar - k``; hits of
        threads below it are not kept (see :func:`count_pass`).
        """
        return count_pass(graph, vertex, tail, chunk_pairs, min_count)

    def output(self, vertex, hits, new_vertex, new_sublist) -> None:
        """The OutputNewCliques pass body, fed the count pass's hits."""
        output_pass(vertex, hits, new_vertex, new_sublist)

    # ------------------------------------------------------------------
    # per-search hooks
    # ------------------------------------------------------------------
    def new_state(self) -> Optional[KindState]:
        """Fresh accumulator for one search (None: nothing to collect)."""
        return None

    def effective_bar(self, omega_bar: int) -> int:
        """The pruning bound the driver applies (0 disables pruning)."""
        return omega_bar

    def on_level(self, graph, device, clique_list, counts, state) -> None:
        """Harvest hook, called after the count pass of every level.

        ``clique_list.head`` is the level being expanded and ``counts``
        its per-entry extension counts (un-pruned for non-pruning
        kinds).
        """

    def harvest_stop(self, clique_list, state) -> None:
        """Harvest hook, called when ``stop_level`` ends the search."""

    # ------------------------------------------------------------------
    # result assembly (``ctx`` is the pipeline's ExecutionContext)
    # ------------------------------------------------------------------
    def trivial(self, ctx) -> Optional[SolveResult]:
        """The result of an input solved without a pipeline run, or None.

        The empty graph has ω = 0; in an edgeless graph every vertex
        is a maximum clique of size 1.
        """
        n = ctx.graph.num_vertices
        if n == 0:
            return max_clique_result(
                ctx, 0, 0, np.zeros((0, 0), dtype=np.int32), "trivial",
                heuristic=HeuristicReport("none", 0, np.zeros(0, dtype=np.int32)),
            )
        if ctx.graph.num_edges == 0:
            cap = min(n, ctx.config.max_cliques_report)
            return max_clique_result(
                ctx, 1, n, np.arange(cap, dtype=np.int32).reshape(-1, 1),
                "trivial",
                heuristic=HeuristicReport("none", 1, np.zeros(0, dtype=np.int32)),
            )
        return None

    def result(self, ctx, outcome) -> SolveResult:
        """Assemble the solve's result from a search outcome.

        ``outcome`` is a :class:`~repro.engine.driver.BFSOutcome` or a
        :class:`~repro.engine.sweep.WindowedOutcome`; each knows how to
        produce its maximum-clique witness.
        """
        omega, count, cliques, found_by = outcome.witness(
            ctx.heuristic, ctx.config.max_cliques_report
        )
        # a search that setup pruned to nothing counts no pruned
        # candidates (the heuristic clique is then the answer)
        pruned = (
            outcome.candidates_pruned + ctx.setup_stats.pruned_2cliques
            if outcome.omega
            else 0
        )
        return max_clique_result(
            ctx, omega, count, cliques, found_by, outcome,
            candidates_pruned=int(pruned),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class KCliqueCountKind(ProblemKind):
    """Count k-cliques: stop at level ``k``, pruning disabled.

    The clique list's node at level ``k`` holds every k-clique exactly
    once (the same fact :func:`repro.core.clique_counts.clique_profile`
    reads level sizes from), so the count is the stopping node's size.
    """

    name = "k-clique-count"
    prunes = False
    allows_early_exit = False
    supports_checkpoint = False

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.stop_level = int(k)

    def new_state(self) -> KindState:
        return KindState()

    def effective_bar(self, omega_bar: int) -> int:
        return 0

    def harvest_stop(self, clique_list, state) -> None:
        state.count += clique_list.head.size

    def trivial(self, ctx) -> Optional[KCliqueCountResult]:
        """Closed forms: k = 1 counts vertices, k = 2 counts edges (the
        level loop's root is already level 2); an edgeless graph has
        no larger cliques."""
        graph = ctx.graph
        if self.stop_level == 1:
            count = graph.num_vertices
        elif self.stop_level == 2:
            count = graph.num_edges
        elif graph.num_edges == 0:
            count = 0
        else:
            return None
        return KCliqueCountResult(
            k=self.stop_level, count=count, found_by="trivial",
            **ctx.telemetry(),
        )

    def result(self, ctx, outcome) -> KCliqueCountResult:
        return KCliqueCountResult(
            k=self.stop_level, count=int(outcome.state.count),
            **ctx.telemetry(outcome),
        )


class MaximalEnumKind(ProblemKind):
    """Enumerate maximal cliques: harvest zero-extension entries.

    Every level's entries with extension count 0 are candidate maximal
    cliques; each is materialised (Figure 1 back-pointer walk) and kept
    iff no vertex of the graph is adjacent to all of its members. The
    verification is charged as one ``check_maximal`` launch with a
    thread per candidate (each thread intersects the members'
    adjacency lists, cost ~ level); the host checks a level's
    candidates together (:func:`_has_no_common_neighbour`).
    """

    name = "maximal-enum"
    prunes = False
    allows_early_exit = False
    supports_checkpoint = False

    def new_state(self) -> KindState:
        return KindState()

    def effective_bar(self, omega_bar: int) -> int:
        return 0

    def on_level(self, graph, device, clique_list, counts, state) -> None:
        zero = np.flatnonzero(counts == 0)
        if zero.size == 0:
            return
        level = clique_list.head.level
        device.launch(
            float(level), n_threads=int(zero.size), name="check_maximal"
        )
        rows = clique_list.read_cliques(entries=zero).astype(np.int64)
        maximal = _has_no_common_neighbour(graph, rows)
        found = np.sort(rows[maximal], axis=1)
        state.count += len(found)
        state.cliques.extend(tuple(r) for r in found.tolist())

    def trivial(self, ctx) -> Optional[MaximalEnumResult]:
        """Without edges every vertex is an isolated singleton."""
        if ctx.graph.num_edges == 0:
            return self._result(ctx, [], "trivial")
        return None

    def result(self, ctx, outcome) -> MaximalEnumResult:
        return self._result(ctx, outcome.state.cliques, "search", outcome)

    @staticmethod
    def _result(ctx, harvested, found_by, outcome=None) -> MaximalEnumResult:
        """``harvested`` (sorted vertex tuples, sizes >= 2) plus the
        isolated vertices, which never enter the 2-clique list, in
        canonical (size, lexicographic) order and capped at
        ``max_cliques_report`` (the total stays exact)."""
        singles = [(int(v),) for v in np.flatnonzero(ctx.graph.degrees == 0)]
        ordered = sorted(singles + list(harvested), key=lambda c: (len(c), c))
        total = len(ordered)
        cap = ctx.config.max_cliques_report
        return MaximalEnumResult(
            num_maximal_cliques=total,
            max_clique_size=len(ordered[-1]) if ordered else 0,
            cliques=ordered[:cap],
            enumerated_all=total <= cap,
            found_by=found_by,
            **ctx.telemetry(outcome),
        )


#: max edge queries per ``_has_no_common_neighbour`` batch (host memory)
_CHECK_QUERIES = 1 << 22


def _has_no_common_neighbour(graph, rows: np.ndarray) -> np.ndarray:
    """Per row of clique members: True iff no vertex is adjacent to all.

    A common neighbour must be a neighbour of the row's lowest-degree
    member (the pivot), so each of the pivot's neighbours is tested
    against the other members -- one ``batch_has_edge`` call per batch
    of rows. Members are never their own neighbours (no self loops),
    so a member among the pivot's neighbours fails its own test.
    """
    m, width = rows.shape
    maximal = np.ones(m, dtype=bool)
    ro = graph.row_offsets
    pick = np.argmin(graph.degrees[rows], axis=1)
    pivot = rows[np.arange(m), pick]
    others_mask = np.ones(rows.shape, dtype=bool)
    others_mask[np.arange(m), pick] = False
    others = rows[others_mask].reshape(m, width - 1)
    n_cand = ro[pivot + 1] - ro[pivot]
    for start, stop in chunk_slices(n_cand * (width - 1), _CHECK_QUERIES):
        reps = n_cand[start:stop]
        row = np.repeat(np.arange(start, stop), reps)
        first = np.cumsum(reps) - reps
        pos = np.repeat(ro[pivot[start:stop]] - first, reps)
        cand = graph.col_indices[pos + np.arange(row.size)]
        adjacent = graph.batch_has_edge(
            np.repeat(cand, width - 1), others[row].ravel()
        )
        common = adjacent.reshape(row.size, width - 1).all(axis=1)
        maximal[row[common]] = False
    return maximal


#: The default kind: the paper's maximum clique enumeration.
MAX_CLIQUE = ProblemKind()


def resolve_kind(config) -> ProblemKind:
    """The :class:`ProblemKind` for a :class:`~repro.core.config.SolverConfig`."""
    if config.problem == "k-clique-count":
        return KCliqueCountKind(config.k)
    if config.problem == "maximal-enum":
        return MaximalEnumKind()
    if config.problem != "max-clique":  # pragma: no cover - config validates
        raise ValueError(f"unknown problem kind {config.problem!r}")
    return MAX_CLIQUE


def checkpoint_refusal(config) -> Optional[str]:
    """Why windowed checkpoint/resume cannot serve ``config`` (None: it can).

    Only a sequential (``window_fanout == 1``) windowed sweep is
    resumable: concurrent windows interleave their ω̄ updates, and a
    windows-done checkpoint does not capture the accumulated state of
    a kind without ``supports_checkpoint``.
    """
    if not resolve_kind(config).supports_checkpoint:
        return (
            "checkpoint/resume is only defined for the max-clique "
            f"problem kind (got problem={config.problem!r})"
        )
    if not config.windowed:
        return "checkpoint/resume requires a windowed search (set a window size)"
    if config.window_fanout > 1:
        return (
            "checkpoint/resume requires window_fanout == 1 "
            "(the concurrent-windows sweep is not resumable)"
        )
    return None


def resumable(config) -> bool:
    """Whether a solve under ``config`` can checkpoint and resume."""
    return checkpoint_refusal(config) is None


def max_clique_result(
    ctx, omega, count, cliques, found_by, outcome=None, heuristic=None,
    **fields,
) -> MaxCliqueResult:
    """A :class:`MaxCliqueResult` with the context's shared telemetry.

    ``fields`` sets further result fields (e.g. ``candidates_pruned``);
    ``heuristic`` defaults to the context's heuristic report.
    """
    return MaxCliqueResult(
        clique_number=int(omega),
        num_maximum_cliques=int(count),
        cliques=cliques,
        found_by=found_by,
        enumerated_all=ctx.config.enumerate_all,
        heuristic=heuristic if heuristic is not None else ctx.heuristic,
        **fields,
        **ctx.telemetry(outcome),
    )


def merge_state(acc: Optional[KindState], part: Any) -> None:
    """Fold one window's (or lane's) state into the sweep accumulator."""
    if acc is None or part is None:
        return
    acc.count += part.count
    acc.cliques.extend(part.cliques)
