"""The search engine: one level loop, pluggable batch executors.

This layer owns the two mechanisms the rest of the repo configures
rather than reimplements (see docs/ARCHITECTURE.md):

* :mod:`~repro.engine.driver` -- :class:`LevelDriver`, the single
  implementation of the paper's count / scan / output breadth-first
  level loop (Algorithm 2); :mod:`~repro.engine.sweep` adds the
  window sweep (splitting, ordering, adaptive retry, checkpointing).
  The full, windowed and concurrent-windows searches are pipeline
  stage configurations of these two entry points, and
  :mod:`~repro.engine.problems` supplies what differs per problem
  kind, result assembly included.
* :mod:`~repro.engine.executor` -- the :class:`Executor` protocol the
  solve service drains batches through: :class:`SerialExecutor` (the
  reference order) and :class:`ThreadedExecutor` (one worker per
  pooled device, deterministic ticket-ordered commits, byte-identical
  records to serial).

``engine`` sits between :mod:`repro.gpusim` (which it charges) and
the pipeline (which configures it); it may import core's data model
but never ``core.solver``, :mod:`repro.pipeline`, or anything above
them.
"""

from .driver import BFSOutcome, LevelDriver
from .executor import (
    BatchPlan,
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)
from .passes import chunk_slices, count_pass, expand_pairs, output_pass
from .problems import (
    MAX_CLIQUE,
    KCliqueCountKind,
    KindState,
    MaximalEnumKind,
    ProblemKind,
    checkpoint_refusal,
    merge_state,
    resolve_kind,
    resumable,
)
from .sweep import WindowedOutcome, order_groups, window_sweep

__all__ = [
    "LevelDriver",
    "BFSOutcome",
    "WindowedOutcome",
    "window_sweep",
    "order_groups",
    "ProblemKind",
    "KindState",
    "KCliqueCountKind",
    "MaximalEnumKind",
    "MAX_CLIQUE",
    "resolve_kind",
    "merge_state",
    "checkpoint_refusal",
    "resumable",
    "chunk_slices",
    "expand_pairs",
    "count_pass",
    "output_pass",
    "Executor",
    "BatchPlan",
    "SerialExecutor",
    "ThreadedExecutor",
    "resolve_executor",
]
