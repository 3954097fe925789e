"""The solve pipeline's composable stages.

Each stage wraps one phase of the paper's pipeline (Section IV) and
communicates only through the shared
:class:`~repro.pipeline.context.ExecutionContext`:

==============  =====================================================
stage name      phase
==============  =====================================================
``csr_upload``  copy the CSR arrays into device global memory
``preprocess``  rank values (k-core decomposition for core variants)
``heuristic``   greedy lower bound ω̄ (Section IV-A, Algorithm 1)
``setup``       the pruned, ordered 2-clique list (Section IV-C)
``bfs``         full breadth-first search (Section IV-D)
``windowed``    windowed search (Section IV-E), sequential or
                concurrent windows (Section V-C3)
==============  =====================================================

The search stages call the two engine entry points directly --
:meth:`repro.engine.driver.LevelDriver.run` and
:func:`repro.engine.sweep.window_sweep`, both configurations of the
one level loop (see docs/ARCHITECTURE.md) -- with the
:class:`~repro.engine.problems.ProblemKind` resolved from the config,
and hand result assembly to that kind; they never branch on the
kind's name. Deadlines are uniform
:class:`~repro.core.deadline.Deadline` checks labelled per search
flavour: ``"breadth-first search"``, ``"windowed search"`` and
``"concurrent windowed search"``.
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

import numpy as np

from ..core.config import Heuristic, RankKey
from ..core.config import config_fingerprint as _config_fingerprint
from ..core.deadline import as_deadline
from ..core.heuristics import run_heuristic
from ..core.setup import build_two_clique_list
from ..engine.driver import LevelDriver
from ..engine.problems import checkpoint_refusal, max_clique_result, resolve_kind
from ..engine.sweep import window_sweep
from ..errors import CheckpointError, DeviceLostError
from ..graph.kcore import core_numbers
from ..log import get_logger
from .context import ExecutionContext

__all__ = [
    "Stage",
    "CSRResidencyStage",
    "PreprocessStage",
    "HeuristicStage",
    "TwoCliqueSetupStage",
    "FullSearchStage",
    "WindowedSearchStage",
    "default_stages",
]

log = get_logger("pipeline")


@runtime_checkable
class Stage(Protocol):
    """One composable phase of the solve pipeline.

    A stage reads its inputs from the context, performs its device
    work, and writes its outputs back; it must not assume which stages
    ran before it beyond the context fields it consumes.
    """

    #: stable identifier used for spans, breakdowns, and docs
    name: str

    def run(self, ctx: ExecutionContext) -> None:
        """Execute the stage against the shared context."""
        ...


class CSRResidencyStage:
    """Copy the CSR arrays into device global memory.

    The graph stays resident for the whole computation (every kernel
    binary-searches adjacency rows); the buffers are freed by the
    runner's cleanup pass when the pipeline finishes.
    """

    name = "csr_upload"

    def run(self, ctx: ExecutionContext) -> None:
        rows = ctx.device.from_host(ctx.graph.row_offsets, label="csr.row_offsets")
        cols = ctx.device.from_host(ctx.graph.col_indices, label="csr.col_indices")
        ctx.defer(cols.free)
        ctx.defer(rows.free)


class PreprocessStage:
    """Rank values: k-core decomposition for core variants, else degrees."""

    name = "preprocess"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        if config.heuristic.uses_core_numbers or (
            config.orientation_key is RankKey.CORE
        ):
            ctx.ranks = core_numbers(ctx.graph, ctx.device)
        else:
            ctx.ranks = ctx.graph.degrees


class HeuristicStage:
    """Greedy heuristic lower bound ω̄ (paper Section IV-A)."""

    name = "heuristic"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        ctx.heuristic = run_heuristic(
            ctx.graph,
            config.heuristic,
            ctx.device,
            h=config.heuristic_runs,
            ranks=ctx.ranks if config.heuristic is not Heuristic.NONE else None,
        )
        # config.omega_floor carries outside knowledge (streaming
        # sessions: the previous epoch's ω after inserts); anything
        # below the floor may be pruned, so callers setting a floor
        # must discard results whose clique_number falls under it
        ctx.omega_bar = max(
            ctx.heuristic.lower_bound, 2, config.omega_floor
        )
        ctx.tracer.counter("heuristic.lower_bound", ctx.heuristic.lower_bound)


class TwoCliqueSetupStage:
    """Build the pruned, ordered 2-clique list (paper Section IV-C)."""

    name = "setup"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        ctx.src, ctx.dst, ctx.setup_stats = build_two_clique_list(
            ctx.graph,
            ctx.omega_bar,
            ctx.device,
            ranks=ctx.ranks,
            orientation_key=config.orientation_key,
            sublist_order=config.sublist_order,
            coloring_preprune=config.coloring_preprune,
        )
        stats = ctx.setup_stats
        ctx.tracer.counter("setup.prepruned_vertices", stats.prepruned_vertices)
        ctx.tracer.counter("setup.pruned_sublists", stats.pruned_sublists)
        ctx.tracer.counter("setup.pruned_2cliques", stats.pruned_2cliques)
        ctx.tracer.counter("setup.kept_2cliques", stats.kept_2cliques)


class FullSearchStage:
    """Full breadth-first search: :meth:`LevelDriver.run` on the whole
    2-clique list (every maximum clique, for the default kind)."""

    name = "bfs"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        kind = resolve_kind(config)
        if kind.prunes:
            shortcut = self._single_sublist_shortcut(ctx)
            if shortcut is not None:
                ctx.result = shortcut
                return
        driver = LevelDriver(
            ctx.graph,
            ctx.device,
            chunk_pairs=config.chunk_pairs,
            deadline=as_deadline(ctx.deadline, "breadth-first search"),
        )
        outcome = driver.run(
            ctx.src,
            ctx.dst,
            ctx.omega_bar,
            early_exit_heuristic=kind.allows_early_exit
            and config.early_exit_heuristic
            and not config.enumerate_all
            and ctx.heuristic.clique.size >= 2,
            kind=kind,
        )
        try:
            _record_counters(ctx, outcome)
            ctx.omega_bar = max(ctx.omega_bar, int(outcome.omega))
            ctx.result = kind.result(ctx, outcome)
        finally:
            outcome.clique_list.free_all()

    def _single_sublist_shortcut(self, ctx: ExecutionContext):
        """Paper Section IV-C: skip the exact search when pruning left
        exactly one sublist of length ω̄ - 1.

        Every surviving candidate clique lives inside that sublist, and
        an ω̄-clique needs *all* of it plus the source -- so if that
        vertex set is a clique (it contains the heuristic's own clique
        of the same size, so it is), it is the unique maximum clique.
        """
        src, dst, omega_bar = ctx.src, ctx.dst, ctx.omega_bar
        if src.size == 0 or src.size != omega_bar - 1:
            return None
        if np.unique(src).size != 1:
            return None
        members = np.concatenate([[src[0]], dst]).astype(np.int64)
        iu, iv = np.triu_indices(members.size, k=1)
        ctx.device.launch(
            ctx.graph.lookup_cost[members[iu]].astype(np.float64),
            name="shortcut_verify",
        )
        if not ctx.graph.batch_has_edge(members[iu], members[iv]).all():
            return None  # not a clique: fall through to the exact search
        clique = np.sort(members).astype(np.int32)
        return max_clique_result(
            ctx,
            clique.size,
            1,
            clique.reshape(1, -1),
            "heuristic",
            candidates_stored=int(src.size),
            candidates_pruned=int(ctx.setup_stats.pruned_2cliques),
        )


class WindowedSearchStage:
    """Windowed search (Section IV-E): :func:`window_sweep` over the
    2-clique list, one window at a time (``window_fanout == 1``) or
    ``window_fanout`` windows per fused launch group."""

    name = "windowed"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        kind = resolve_kind(config)
        if ctx.checkpoint is not None or ctx.checkpoint_sink is not None:
            refusal = checkpoint_refusal(config)
            if refusal is not None:
                raise CheckpointError(refusal)
        if ctx.checkpoint is not None:
            ctx.checkpoint.validate_for(
                ctx.graph.fingerprint(), _config_fingerprint(config)
            )
            ctx.tracer.counter("search.checkpoint.resumed")
        # concurrent windows share their group-start bound, so the
        # early exit does not apply to them (config validation already
        # keeps adaptive splitting sequential)
        sequential = config.window_fanout == 1
        heuristic_clique = (
            ctx.heuristic.clique
            if ctx.heuristic is not None
            else np.zeros(0, dtype=np.int32)
        )
        try:
            outcome = window_sweep(
                ctx.graph,
                ctx.src,
                ctx.dst,
                ctx.omega_bar,
                heuristic_clique,
                ctx.device,
                window_size=config.window_size,
                fanout=config.window_fanout,
                window_order=config.window_order,
                chunk_pairs=config.chunk_pairs,
                early_exit_heuristic=sequential and config.early_exit_heuristic,
                deadline=ctx.deadline,
                adaptive=config.adaptive_windowing,
                checkpoint=ctx.checkpoint,
                checkpoint_sink=self._stamped_sink(ctx),
                label=(
                    "windowed search" if sequential
                    else "concurrent windowed search"
                ),
                kind=kind,
            )
        except DeviceLostError as exc:
            # stamp the escaping checkpoint so the service (or a
            # --checkpoint file) can verify identity on resume
            if exc.checkpoint is not None:
                exc.checkpoint.graph_fingerprint = ctx.graph.fingerprint()
                exc.checkpoint.config_fingerprint = _config_fingerprint(config)
            raise
        # the windows carried ω̄ forward internally; persist the final
        # (possibly raised) bound in the context
        ctx.omega_bar = max(ctx.omega_bar, int(outcome.omega))
        _record_counters(ctx, outcome)
        ctx.tracer.counter("search.windows", len(outcome.windows))
        ctx.result = kind.result(ctx, outcome)

    @staticmethod
    def _stamped_sink(ctx: ExecutionContext):
        """Wrap the context's sink to stamp graph/config fingerprints.

        The engine has no notion of fingerprints; every checkpoint that
        leaves the pipeline carries them so resume can verify identity.
        """
        if ctx.checkpoint_sink is None:
            return None
        gfp = ctx.graph.fingerprint()
        cfp = _config_fingerprint(ctx.config)
        user_sink = ctx.checkpoint_sink

        def sink(ckpt) -> None:
            ckpt.graph_fingerprint = gfp
            ckpt.config_fingerprint = cfp
            user_sink(ckpt)

        return sink


def _record_counters(ctx: ExecutionContext, outcome) -> None:
    ctx.tracer.counter(
        "search.candidates_generated",
        sum(s.generated for s in outcome.levels),
    )
    ctx.tracer.counter("search.candidates_stored", outcome.candidates_stored)
    ctx.tracer.counter("search.candidates_pruned", outcome.candidates_pruned)


def default_stages(config) -> List[Stage]:
    """The pipeline for the given configuration.

    The heuristic stage exists to raise the ω̄ pruning bound, which
    only a kind that ``prunes`` may use -- the counting and
    enumeration kinds must visit every clique, so their pipelines
    skip it (the setup stage then builds the 2-clique list at the
    ω̄ = 2 floor, pruning nothing).
    """
    search: Stage = WindowedSearchStage() if config.windowed else FullSearchStage()
    stages: List[Stage] = [CSRResidencyStage(), PreprocessStage()]
    if resolve_kind(config).prunes:
        stages.append(HeuristicStage())
    stages.append(TwoCliqueSetupStage())
    stages.append(search)
    return stages
