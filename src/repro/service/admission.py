"""Memory-aware admission control.

The paper frames windowing as a memory/parallelism trade-off: the full
breadth-first search is fastest but must hold every candidate of a
level simultaneously, while the windowed search bounds peak memory at
the cost of extra launches (Sections IV-E, V-C). Deciding *before*
launch which side of that trade-off a job lands on is the admission
controller's purpose: it estimates the device bytes a solve will need
from the same quantities :mod:`repro.gpusim` charges (CSR residency,
2-clique list nodes, Moon-Moser candidate expansion -- the estimator
used by :func:`repro.engine.sweep.auto_window_size`) and picks one of

* **full** -- the plain breadth-first enumeration fits comfortably;
* **windowed** -- the full search is projected over budget, so the
  config is rewritten to the windowed search (``window_size="auto"``
  plus adaptive splitting) instead of letting it OOM-fail;
* **reject** -- even the windowed floor (CSR residency + working sets
  + the 2-clique list) exceeds the budget; the job is refused with a
  reason before any device time is charged.

The estimate is deliberately coarse -- it brackets the search between
"no pruning" (Moon-Moser expansion of the average sublist tail) and
the windowed floor -- and errs toward windowing; the degradation
ladder (:mod:`repro.service.policy`) catches the cases it gets wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.config import SolverConfig
from ..engine.problems import resolve_kind
from ..graph.csr import CSRGraph

__all__ = ["MemoryEstimate", "AdmissionDecision", "AdmissionController", "estimate_memory"]

#: decision identifiers
ADMIT_FULL = "full"
ADMIT_WINDOWED = "windowed"
REJECT = "reject"

#: bytes per clique-list entry: int32 vertexID + int32 sublistID
#: (matches ``repro.core.clique_list`` node layout)
BYTES_PER_CANDIDATE = 8

#: per-vertex scratch charged by preprocess/heuristic stages
#: (rank array + heuristic working sets, a few int32 arrays)
WORKING_BYTES_PER_VERTEX = 16

#: Moon-Moser tail cap, as in ``auto_window_size``
_TAIL_CAP = 48.0


@dataclass(frozen=True)
class MemoryEstimate:
    """Projected device-memory needs of one solve, in bytes."""

    csr_bytes: int  #: CSR residency (row_offsets + col_indices)
    working_bytes: int  #: preprocess/heuristic scratch
    two_clique_bytes: int  #: the root clique-list node (oriented edges)
    expansion_factor: float  #: Moon-Moser growth of the candidate set
    full_search_bytes: int  #: projected total clique-list storage, full BF

    @property
    def full_total_bytes(self) -> int:
        """Projected peak of the full breadth-first search."""
        return (
            self.csr_bytes
            + self.working_bytes
            + self.two_clique_bytes
            + self.full_search_bytes
        )

    @property
    def windowed_floor_bytes(self) -> int:
        """Minimum bytes any windowed run needs (CSR + setup transient
        + one window's working set)."""
        return self.csr_bytes + self.working_bytes + 2 * self.two_clique_bytes


def estimate_memory(graph: CSRGraph, config: Optional[SolverConfig] = None) -> MemoryEstimate:
    """Estimate the device memory a solve of ``graph`` will need.

    Mirrors what the device pool actually charges: the CSR arrays stay
    resident for the whole solve, setup materialises one clique-list
    entry per oriented edge, and the breadth-first levels grow that
    root by a Moon-Moser factor of the average sublist tail (the full
    search never frees a level, Section II-D).

    The estimate is kind-aware: a kind with a ``stop_level`` (the
    ``k-clique-count`` kind stops at level ``k``) has the depth-truncated
    per-level growth ``(1 + avg_tail)^(k-2)`` (never more than the
    open-ended Moon-Moser bound); ``maximal-enum`` runs the same
    unbounded expansion as ``max-clique`` (Moon-Moser is already the
    no-pruning bound).
    """
    n = max(graph.num_vertices, 1)
    m = graph.num_edges  # oriented 2-cliques: one per undirected edge
    two_clique = BYTES_PER_CANDIDATE * m
    avg_tail = max(m / n - 1.0, 0.0)
    expansion = float(3.0 ** (min(avg_tail, _TAIL_CAP) / 3.0))
    k = resolve_kind(config).stop_level if config is not None else None
    if k is not None:
        if k <= 2:
            truncated = 1.0  # closed form, no level loop runs
        else:
            truncated = float((1.0 + min(avg_tail, _TAIL_CAP)) ** min(k - 2, 32))
        expansion = min(expansion, truncated)
    return MemoryEstimate(
        csr_bytes=graph.nbytes,
        working_bytes=WORKING_BYTES_PER_VERTEX * graph.num_vertices,
        two_clique_bytes=two_clique,
        expansion_factor=expansion,
        full_search_bytes=int(two_clique * expansion),
    )


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admission control for one job."""

    decision: str  #: "full" | "windowed" | "reject"
    reason: str
    config: SolverConfig  #: the configuration to execute (may differ)
    estimate: MemoryEstimate
    budget_bytes: Optional[int]

    @property
    def admitted(self) -> bool:
        return self.decision != REJECT


class AdmissionController:
    """Decides full vs. windowed vs. reject before launching a solve.

    Parameters
    ----------
    safety_factor:
        Fraction of the device budget the *full* search estimate must
        fit within to be admitted un-windowed; headroom covers
        estimate error and primitive temporaries.
    """

    def __init__(self, safety_factor: float = 0.8) -> None:
        if not 0.0 < safety_factor <= 1.0:
            raise ValueError("safety_factor must be in (0, 1]")
        self.safety_factor = safety_factor

    def decide(
        self,
        graph: CSRGraph,
        config: SolverConfig,
        budget_bytes: Optional[int],
    ) -> AdmissionDecision:
        """Pick the launch mode for one job against a device budget."""
        estimate = estimate_memory(graph, config)
        if budget_bytes is None:
            return AdmissionDecision(
                decision=ADMIT_WINDOWED if config.windowed else ADMIT_FULL,
                reason="unbounded device budget",
                config=config,
                estimate=estimate,
                budget_bytes=None,
            )
        if estimate.windowed_floor_bytes > budget_bytes:
            return AdmissionDecision(
                decision=REJECT,
                reason=(
                    f"windowed floor {estimate.windowed_floor_bytes} B "
                    f"(CSR {estimate.csr_bytes} B + working "
                    f"{estimate.working_bytes} B + 2-clique list "
                    f"{estimate.two_clique_bytes} B) exceeds the "
                    f"{budget_bytes} B device budget"
                ),
                config=config,
                estimate=estimate,
                budget_bytes=budget_bytes,
            )
        full_fits = (
            estimate.full_total_bytes <= self.safety_factor * budget_bytes
        )
        if config.windowed:
            # the caller asked for windowing: keep their window settings
            return AdmissionDecision(
                decision=ADMIT_WINDOWED,
                reason="windowed search requested by configuration",
                config=config,
                estimate=estimate,
                budget_bytes=budget_bytes,
            )
        if full_fits:
            return AdmissionDecision(
                decision=ADMIT_FULL,
                reason=(
                    f"full-search estimate {estimate.full_total_bytes} B fits "
                    f"{self.safety_factor:.0%} of the {budget_bytes} B budget"
                ),
                config=config,
                estimate=estimate,
                budget_bytes=budget_bytes,
            )
        return AdmissionDecision(
            decision=ADMIT_WINDOWED,
            reason=(
                f"full-search estimate {estimate.full_total_bytes} B exceeds "
                f"{self.safety_factor:.0%} of the {budget_bytes} B budget "
                f"(x{estimate.expansion_factor:.1f} Moon-Moser expansion); "
                f"admitting windowed"
            ),
            config=windowed_variant(config),
            estimate=estimate,
            budget_bytes=budget_bytes,
        )


def windowed_variant(config: SolverConfig) -> SolverConfig:
    """The windowed rewrite of a full-search configuration.

    Auto-sized windows (Moon-Moser, ``auto_window_size``) plus adaptive
    splitting, so windows that still exceed the budget split and retry
    instead of failing. ``window_fanout > 1`` is incompatible with
    adaptive splitting and is preserved as-is.
    """
    window_size = config.window_size if config.window_size is not None else "auto"
    if config.window_fanout > 1:
        return replace(config, window_size=window_size)
    return replace(
        config,
        window_size=window_size,
        adaptive_windowing=True,
        early_exit_heuristic=False,
    )
