"""Composable solve pipeline (stages + execution context + runner).

The paper's solver is an explicit pipeline -- preprocessing, heuristic
lower bound, 2-clique setup, breadth-first search -- and this package
makes each phase a first-class :class:`~repro.pipeline.stages.Stage`
sharing one :class:`~repro.pipeline.context.ExecutionContext`, so
phases can be observed (see :mod:`repro.trace`), timed per stage, and
swapped or extended without touching the solver.

``MaxCliqueSolver`` assembles the default stage list via
:func:`~repro.pipeline.stages.default_stages` and runs it with
:func:`~repro.pipeline.runner.run_pipeline`.
"""

from .context import ExecutionContext
from .runner import run_pipeline
from .stages import (
    CSRResidencyStage,
    FullSearchStage,
    HeuristicStage,
    PreprocessStage,
    Stage,
    TwoCliqueSetupStage,
    WindowedSearchStage,
    default_stages,
)

__all__ = [
    "ExecutionContext",
    "Stage",
    "CSRResidencyStage",
    "PreprocessStage",
    "HeuristicStage",
    "TwoCliqueSetupStage",
    "FullSearchStage",
    "WindowedSearchStage",
    "default_stages",
    "run_pipeline",
]
