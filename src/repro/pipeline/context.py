"""The execution context shared by all pipeline stages.

One :class:`ExecutionContext` is created per solve and threaded
through every stage. It carries

* the immutable inputs (graph, config, device, RNG, tracer),
* the state stages hand to each other (rank values, the heuristic
  report, the carried lower bound ω̄, the 2-clique arrays, setup
  statistics, and finally the result),
* solve-scoped bookkeeping (start timestamps, deadline, per-stage
  model-time breakdown, deferred cleanups).

Stages communicate *only* through the context; nothing is passed
positionally between them, so stage lists can be reordered, extended,
or partially run (see ``repro.experiments.harness.heuristic_probe``
for the probe-style use).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from ..core.result import HeuristicReport, SetupStats, SolveResult
from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from ..trace import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from ..core.checkpoint import SearchCheckpoint
    from ..core.config import SolverConfig

__all__ = ["ExecutionContext"]


@dataclass
class ExecutionContext:
    """Shared state of one pipeline run (one solve)."""

    graph: CSRGraph
    config: "SolverConfig"
    device: Device
    tracer: Tracer = NULL_TRACER
    rng: Optional[np.random.Generator] = None

    # --- carried stage-to-stage state -------------------------------
    ranks: Optional[np.ndarray] = None
    heuristic: Optional[HeuristicReport] = None
    #: carried lower bound ω̄: seeded by the heuristic stage, raised by
    #: search stages as better cliques are found
    omega_bar: int = 2
    src: Optional[np.ndarray] = None
    dst: Optional[np.ndarray] = None
    setup_stats: Optional[SetupStats] = None
    result: Optional[SolveResult] = None

    # --- checkpoint/resume ------------------------------------------
    #: resume point for the windowed search (validated by the stage)
    checkpoint: Optional["SearchCheckpoint"] = None
    #: callback invoked with a stamped checkpoint after every completed
    #: window; None disables checkpoint capture
    checkpoint_sink: Optional[Callable[["SearchCheckpoint"], None]] = None

    # --- solve-scoped bookkeeping -----------------------------------
    t0: float = 0.0  # host wall clock at solve start
    m0: float = 0.0  # device model clock at solve start
    base_mem: int = 0  # device bytes in use at solve start
    deadline: Optional[float] = None
    #: model seconds spent per stage, in execution order
    stage_times: Dict[str, float] = field(default_factory=dict)
    _cleanups: List[Callable[[], None]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    @classmethod
    def begin(
        cls,
        graph: CSRGraph,
        config: "SolverConfig",
        device: Device,
        tracer: Tracer = NULL_TRACER,
        checkpoint: Optional["SearchCheckpoint"] = None,
        checkpoint_sink: Optional[Callable[["SearchCheckpoint"], None]] = None,
    ) -> "ExecutionContext":
        """Open a context at the current clocks and reset the peak.

        Mirrors the pre-pipeline solver preamble exactly: the memory
        peak restarts so ``peak_memory_bytes`` is per-solve even on a
        shared device.
        """
        t0 = time.perf_counter()
        ctx = cls(
            graph=graph,
            config=config,
            device=device,
            tracer=tracer,
            checkpoint=checkpoint,
            checkpoint_sink=checkpoint_sink,
            t0=t0,
            m0=device.model_time_s,
            deadline=(
                t0 + config.time_limit_s
                if config.time_limit_s is not None
                else None
            ),
        )
        device.pool.reset_peak()
        ctx.base_mem = device.pool.in_use_bytes
        return ctx

    # ------------------------------------------------------------------
    def model_clock(self) -> float:
        """Current device model time (tracer timestamp source)."""
        return self.device.model_time_s

    def span(self, name: str, category: str = "stage", **attrs):
        """Tracer span on this context's model clock."""
        return self.tracer.span(
            name, category=category, model_clock=self.model_clock, **attrs
        )

    def telemetry(self, outcome=None) -> Dict[str, Any]:
        """The result fields every problem kind shares, captured now.

        Peak memory and model time are per-solve deltas. ``outcome`` (a
        search outcome) adds its levels, windows, stored candidates and
        search bytes. ``stage_times`` is attached *by reference*: the
        runner finishes filling it (the search stage's own entry lands
        after the stage returns), so the result sees the complete
        breakdown.
        """
        device = self.device
        fields: Dict[str, Any] = dict(
            setup=self.setup_stats if self.setup_stats is not None else SetupStats(),
            peak_memory_bytes=device.pool.peak_bytes - self.base_mem,
            device_stats=device.stats(),
            model_time_s=device.model_time_s - self.m0,
            wall_time_s=time.perf_counter() - self.t0,
            stage_times=self.stage_times,
        )
        if outcome is not None:
            fields.update(
                levels=outcome.levels,
                windows=outcome.windows,
                candidates_stored=int(outcome.candidates_stored),
                search_memory_bytes=int(outcome.search_memory_bytes),
            )
        return fields

    def defer(self, fn: Callable[[], None]) -> None:
        """Register a cleanup run (LIFO) when the pipeline finishes."""
        self._cleanups.append(fn)

    def run_cleanups(self) -> None:
        while self._cleanups:
            self._cleanups.pop()()
