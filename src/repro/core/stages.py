"""Composable pipeline stages and the per-stage metrics layer.

The pipeline's four steps — ``prefetch``, ``fasterq-dump``, STAR
alignment, DESeq2 normalization — are uniform :class:`Stage` objects.
``run_batch`` runs every accession through one body: a *read source*
puts the accession's reads on the context, then :class:`AlignStage`
aligns them, each ``run`` wrapped in the pipeline's retry/journal
harness.  ``BatchOptions.streaming`` only picks the read source:

* :class:`DumpedReads` (the default) runs :class:`PrefetchStage` and
  :class:`FasterqDumpStage` in the consumer, writing the paper's
  ``.sra`` and FASTQ files, and hands over one whole-accession chunk;
* :class:`~repro.core.streaming.StreamedReads` runs the download in a
  downloader thread and hands over a live
  :class:`~repro.align.backend.ReadChunkStream`.

Every stage's ``step_key`` is the FaultPlan / journal / failure-record
step name (``prefetch`` / ``fasterq_dump`` / ``align``), so scripted
fault plans (``step:key:kind``), journal replay, and retry ledgers use
one vocabulary on both read sources.

:class:`StageMetrics` / :class:`PipelineHealth` are the
``EngineHealth``-style counters for the stages: per-stage throughput,
busy/stall seconds, and queue occupancy, plus the download-bytes-saved
accounting that early-stopped streams produce.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.align.backend import ReadChunkStream, resolve_backend
from repro.core.early_stopping import EarlyStopMonitor
from repro.quant.deseq2 import estimate_size_factors, normalize_counts
from repro.reads.sra import prefetch, run_fasterq_dump
from repro.reads.trim import ReadTrimmer

if TYPE_CHECKING:
    from repro.align.progress import ProgressRecord

__all__ = [
    "AlignStage",
    "Deseq2Stage",
    "DumpedReads",
    "FasterqDumpStage",
    "PipelineHealth",
    "PrefetchStage",
    "Stage",
    "StageContext",
    "StageMetrics",
    "default_stages",
]


@dataclass
class StageContext:
    """Mutable per-accession state threaded through the stage DAG.

    ``pipeline`` is the owning :class:`TranscriptomicsAtlasPipeline`
    (duck-typed to keep this module import-light); stages read its
    config/repository/aligner and write their products back here.
    ``state`` is the pipeline's per-accession accounting dict (survives
    into FAILED results, unlike this context).  ``batch`` is the
    :class:`~repro.core.pipeline.BatchRunner` executing the accession
    (its backend, shard size and shard checkpoints).
    """

    pipeline: Any
    accession: str
    work: Path
    state: dict
    batch: Any
    #: products, populated as stages run
    sra_path: Path | None = None
    paired: bool = False
    fastq_path: Path | None = None
    fastq_path_2: Path | None = None
    #: the accession's reads, as a ReadChunkStream
    reads: ReadChunkStream | None = None
    trim_stats: Any | None = None
    backend: Any | None = None
    out_dir: Path | None = None
    star_result: Any | None = None
    #: set when the drain deadline aborted the alignment (→ DRAINED)
    drain_hit: bool = False
    #: read-source hook: called with the triggering progress record when
    #: the alignment aborts (early stop or drain) — cancels a download
    on_align_abort: Callable[[ProgressRecord], None] | None = None


@runtime_checkable
class Stage(Protocol):
    """One pipeline step, uniform across execution shapes.

    ``step_key`` is the stable identifier used by FaultPlan scripts,
    journal step-done records, failure records, and the retry ledger;
    ``timing_key`` is the :class:`StepTiming` bucket the stage's wall
    clock lands in (None for batch-scoped stages).  ``prepare`` runs
    once per accession *outside* the retry loop (idempotency not
    required); ``run`` is the retried body and must be safe to invoke
    again after a transient failure.
    """

    name: str
    step_key: str
    timing_key: str | None

    def prepare(self, ctx: StageContext) -> None:
        """One-time setup before the retried body (may be a no-op)."""
        ...

    def run(self, ctx: StageContext) -> None:
        """Execute the step, writing products onto ``ctx``."""
        ...


class PrefetchStage:
    """Step 1: download the ``.sra`` container into the workspace."""

    name = "prefetch"
    step_key = "prefetch"
    timing_key = "prefetch"

    def prepare(self, ctx: StageContext) -> None:
        """No setup needed."""

    def run(self, ctx: StageContext) -> None:
        """Download the container; detect the library layout from magic."""
        cfg = ctx.pipeline.config
        ctx.sra_path = prefetch(
            ctx.pipeline.repository,
            ctx.accession,
            ctx.work,
            fault_plan=cfg.fault_plan,
        )
        ctx.paired = ctx.sra_path.read_bytes()[:4] == b"SRAP"
        ctx.state["paired"] = ctx.paired
        ctx.state["download_bytes_total"] = ctx.sra_path.stat().st_size


class FasterqDumpStage:
    """Step 2: convert the container to FASTQ (mate-split when paired)."""

    name = "fasterq-dump"
    step_key = "fasterq_dump"
    timing_key = "fasterq_dump"

    def prepare(self, ctx: StageContext) -> None:
        """No setup needed."""

    def run(self, ctx: StageContext) -> None:
        """Dump FASTQ file(s) next to the container and hand the decoded
        reads to the align stage."""
        cfg = ctx.pipeline.config
        assert ctx.sra_path is not None, "prefetch must run first"
        dump = run_fasterq_dump(ctx.sra_path, ctx.work, fault_plan=cfg.fault_plan)
        ctx.fastq_path = dump.paths[0]
        ctx.fastq_path_2 = dump.paths[1] if len(dump.paths) > 1 else None
        ctx.reads = ReadChunkStream.whole(dump.reads)
        ctx.state["fastq_bytes"] = sum(p.stat().st_size for p in dump.paths)


class AlignStage:
    """Step 3: STAR alignment through the resolved backend.

    The reads are already on ``ctx.reads``, a
    :class:`~repro.align.backend.ReadChunkStream`: one whole-accession
    chunk from the ``fasterq-dump`` stage, or a streamed download's live
    feed.  ``prepare`` trims them when configured (single-end only;
    trimming works on records, and streamed batches reject it),
    starts the engine when the requested backend can use it (``"auto"``
    or ``"engine"``), consumes any scripted ``engine_worker`` fault, and
    resolves the backend.  ``run`` is retry-safe: the scripted ``align`` fault check
    fires before any read is consumed, and the stateful early-stop
    monitor is rebuilt per attempt so a retried alignment sees the same
    cadence as an unfaulted run.
    """

    name = "align"
    step_key = "align"
    timing_key = "star"

    def prepare(self, ctx: StageContext) -> None:
        """Trim reads if asked, arm chaos faults, resolve the backend."""
        pipeline = ctx.pipeline
        cfg = pipeline.config
        if cfg.trim is not None and not ctx.paired:
            records, ctx.trim_stats = ReadTrimmer(cfg.trim).trim(
                ctx.reads.materialize().records()
            )
            ctx.reads = ReadChunkStream.whole(records)
        batch_size = ctx.batch.align_batch_size
        requested = ctx.batch.options.backend or "auto"
        # only the backends that can run on the engine start it
        engine = (
            pipeline._get_engine(batch_size)
            if requested in ("auto", "engine")
            else None
        )
        if (
            engine is not None
            and cfg.fault_plan is not None
            and cfg.fault_plan.consume("engine_worker", ctx.accession)
            is not None
        ):
            # scripted chaos: SIGKILL one pool worker right before this
            # accession's alignment, exercising the engine's recovery path
            engine.kill_worker()
        ctx.backend = resolve_backend(
            cfg,
            pipeline.aligner,
            engine,
            paired=ctx.paired,
            requested=requested,
            faas=(
                pipeline._get_faas_backend(batch_size)
                if requested == "faas"
                else None
            ),
            batch_size=batch_size,
        )
        ctx.out_dir = (
            (ctx.work / "star")
            if (cfg.write_outputs and not ctx.paired)
            else None
        )

    def run(self, ctx: StageContext) -> None:
        """Align, honouring early stopping, drain deadlines, and faults."""
        pipeline = ctx.pipeline
        cfg = pipeline.config
        if cfg.fault_plan is not None:
            cfg.fault_plan.check("align", ctx.accession)
        # the monitor is stateful — build a fresh one per attempt so a
        # retried alignment sees the same cadence as an unfaulted run
        monitor = (
            EarlyStopMonitor(
                policy=cfg.early_stopping, on_abort=ctx.on_align_abort
            )
            if cfg.early_stopping is not None
            else None
        )
        base_hook = monitor.hook if monitor is not None else None

        def hook(record) -> bool:
            # past the drain deadline, abort at the next checkpoint —
            # the result is marked DRAINED (not REJECTED_EARLY) and a
            # resumed run re-executes the accession from scratch
            if pipeline._drain_expired():
                ctx.drain_hit = True
                if ctx.on_align_abort is not None:
                    ctx.on_align_abort(record)
                return False
            return base_hook(record) if base_hook is not None else True

        # shard-level checkpointing (see repro.core.replication) belongs
        # to the batch: None unless it journals with shard checkpoints
        ctx.star_result = ctx.backend.align(
            ctx.reads,
            monitor=hook,
            out_dir=ctx.out_dir,
            checkpoint=ctx.batch.checkpointer(ctx.accession),
        )


class Deseq2Stage:
    """Step 4: joint DESeq2 normalization — a batch-scoped stage.

    Unlike the per-accession stages it consumes the whole batch's
    accepted counts, so ``run`` takes the pipeline itself and returns
    the ``(matrix, size_factors, normalized)`` triple;
    ``TranscriptomicsAtlasPipeline.normalize`` delegates here.
    """

    name = "deseq2"
    step_key = "deseq2"
    timing_key = None

    def prepare(self, ctx) -> None:
        """No setup needed."""

    def run(self, pipeline):
        """Median-of-ratios normalization over the accepted columns."""
        matrix = pipeline.build_count_matrix().drop_all_zero_genes()
        factors = estimate_size_factors(matrix)
        return matrix, factors, normalize_counts(matrix, factors)


def default_stages() -> list[Stage]:
    """The per-accession stage DAG, in execution order."""
    return [PrefetchStage(), FasterqDumpStage(), AlignStage()]


class DumpedReads:
    """The default read source: the paper's files, one accession at a time.

    The consumer runs :class:`PrefetchStage` and :class:`FasterqDumpStage`
    under the harness, writing the ``.sra`` container and FASTQ file(s),
    and the align stage gets one whole-accession chunk.
    """

    def running(self, pending: list[str]):
        """Nothing runs beside the consumers."""
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def reads(self, ctx: StageContext, harness):
        """Put ``ctx.accession``'s reads on ``ctx`` for the enclosed
        alignment."""
        for stage in (PrefetchStage(), FasterqDumpStage()):
            stage.prepare(ctx)
            harness.attempt(
                stage.step_key,
                stage.timing_key,
                lambda stage=stage: stage.run(ctx),
            )
        yield


# --------------------------------------------------------------------------
# per-stage metrics (EngineHealth-style counters for the stages)
# --------------------------------------------------------------------------


@dataclass
class StageMetrics:
    """Counters for one stage of the DAG.

    ``busy_seconds`` is time spent doing the stage's own work;
    ``stall_seconds`` is time blocked on backpressure (a full downstream
    queue or an empty upstream one).  ``units`` are stage-appropriate
    work units (bytes moved for prefetch, reads for align).
    """

    name: str
    items: int = 0
    units: int = 0
    busy_seconds: float = 0.0
    stall_seconds: float = 0.0
    queue_peak: int = 0
    queue_occupancy_sum: float = 0.0
    queue_samples: int = 0

    def record(
        self,
        *,
        items: int = 0,
        units: int = 0,
        busy: float = 0.0,
        stall: float = 0.0,
    ) -> None:
        """Accumulate work done by this stage."""
        self.items += items
        self.units += units
        self.busy_seconds += busy
        self.stall_seconds += stall

    def sample_queue(self, depth: int) -> None:
        """Record an inter-stage queue occupancy observation."""
        self.queue_peak = max(self.queue_peak, depth)
        self.queue_occupancy_sum += depth
        self.queue_samples += 1

    @property
    def mean_queue_depth(self) -> float:
        """Average observed queue occupancy (0 when never sampled)."""
        if not self.queue_samples:
            return 0.0
        return self.queue_occupancy_sum / self.queue_samples

    @property
    def throughput(self) -> float:
        """Work units per busy second (0 when the stage never ran)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.units / self.busy_seconds


@dataclass
class PipelineHealth:
    """Pipeline-level observability: per-stage metrics + stream accounting.

    The streaming counterpart of :class:`~repro.align.engine.EngineHealth`
    — consulted by tests, the CLI's stream report, and the docs'
    reproducible claims.  All methods are thread-safe (the downloader
    thread and the consuming thread both report here).
    """

    stages: dict[str, StageMetrics] = field(default_factory=dict)
    #: accessions that executed through the streaming path
    accessions_streamed: int = 0
    #: archive bytes that existed / were skipped by cancelled downloads
    download_bytes_total: int = 0
    download_bytes_saved: int = 0
    #: downloads cancelled mid-stream (early stop or drain)
    downloads_cancelled: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def stage(self, name: str) -> StageMetrics:
        """Get-or-create the metrics bucket for ``name``."""
        with self._lock:
            metrics = self.stages.get(name)
            if metrics is None:
                metrics = self.stages[name] = StageMetrics(name)
            return metrics

    def record_stream(
        self, *, bytes_total: int, bytes_saved: int, cancelled: bool
    ) -> None:
        """Account one streamed accession's download outcome."""
        with self._lock:
            self.accessions_streamed += 1
            self.download_bytes_total += bytes_total
            self.download_bytes_saved += bytes_saved
            if cancelled:
                self.downloads_cancelled += 1

    def to_rows(self) -> list[tuple[str, int, int, float, float, float]]:
        """Tabular view: (stage, items, units, busy_s, stall_s, mean_q)."""
        with self._lock:
            return [
                (
                    m.name,
                    m.items,
                    m.units,
                    m.busy_seconds,
                    m.stall_seconds,
                    m.mean_queue_depth,
                )
                for m in self.stages.values()
            ]
