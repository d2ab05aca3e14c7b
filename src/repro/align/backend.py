"""One aligner-backend interface over the three ways a run can execute.

The pipeline used to branch inline over serial single-end
(:class:`~repro.align.star.StarAligner`), serial paired
(:class:`~repro.align.paired.PairedStarAligner`), and the shared-memory
engine (:class:`~repro.align.engine.ParallelStarAligner`) — three call
shapes to wrap every time a cross-cutting concern (retries, fault
injection, timing) touched the STAR step.  :class:`AlignerBackend`
collapses them to a single ``align(reads) -> AlignmentOutcome`` surface,
and :func:`resolve_backend` is the one place that knows which concrete
backend a given accession should use.

Every backend is the same shard runner (:func:`repro.align.runner.
run_shards`) with a different executor — inline, the engine's worker
pool, or FaaS invocations — so all of them merge, early-stop and
checkpoint identically, and every shard goes through the vectorized
batch core (:mod:`repro.align.batch`) when ``StarParameters.batch_align``
is on.

Every backend takes the same read container, :class:`ReadChunkStream`:
a chunk feed with the read total known up front.  The ``fasterq-dump``
stage hands over one whole-accession chunk; a streamed download feeds
chunks as they arrive, so alignment starts before the download
finishes.  The serial, paired and engine backends consume the feed
lazily for both library layouts (streamed pairs arrive as row-aligned
mate columns).  Only FaaS materializes it first, because its shard
sizing needs the whole payload's wire bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

from repro.align.counts import GeneCounts
from repro.align.paired import PairedStarAligner
from repro.align.runner import (
    PairedEndCodec,
    SingleEndCodec,
    column_feed,
    run_shards,
)
from repro.align.star import StarAligner
from repro.cloud.faas import (
    ExecutionCapExceeded,
    FaasService,
    FunctionCrashed,
    PayloadTooLarge,
    TooManyRequests,
)
from repro.reads.fastq import PairedColumns, ReadColumns, as_columns

if TYPE_CHECKING:
    from repro.align.engine import ParallelStarAligner
    from repro.align.outcome import AlignmentOutcome
    from repro.align.star import ProgressMonitorHook
    from repro.reads.fastq import FastqRecord

__all__ = [
    "AlignerBackend",
    "BACKEND_CHOICES",
    "EngineBackend",
    "FaasAlignerBackend",
    "PairedAlignerBackend",
    "ReadChunkStream",
    "SerialAlignerBackend",
    "resolve_backend",
]

#: valid values for the pipeline-level backend-selection knob
BACKEND_CHOICES = ("auto", "serial", "engine", "faas")


@dataclass
class ReadChunkStream:
    """One accession's reads as a chunk feed with a known total — the
    one read container every backend aligns.

    ``chunks`` yields :class:`~repro.reads.fastq.ReadColumns` for
    single-end accessions or row-aligned
    :class:`~repro.reads.fastq.PairedColumns` for paired ones.  A
    streamed download feeds it lazily
    (:meth:`repro.reads.stream.SraStream.chunks`, with ``reads_total``
    from the SRA container header, so progress records and therefore
    early-stopping decisions match a whole-accession run); the
    ``fasterq-dump`` stage hands over one whole-accession chunk
    (:meth:`whole`).
    """

    chunks: Iterable
    reads_total: int
    paired: bool = False

    @classmethod
    def whole(cls, reads, mate2=None) -> "ReadChunkStream":
        """All of an accession's reads as one chunk: columns or records
        (plus ``mate2`` for pairs), or a :class:`PairedColumns`."""
        feed, total = column_feed(reads, None, mate2)
        return cls(feed, total, isinstance(feed[0], PairedColumns))

    def records(self):
        """The chunk feed, pulled lazily (the reads stay columns)."""
        yield from self.chunks

    def materialize(self) -> ReadColumns | PairedColumns:
        """Drain the feed into one chunk."""
        concat = PairedColumns.concat if self.paired else ReadColumns.concat
        return concat(list(self.records()))


@runtime_checkable
class AlignerBackend(Protocol):
    """Anything that can run one accession's alignment end to end."""

    #: short label used in failure records and reports
    name: str

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        """Align ``reads``; honour the monitor's abort, write outputs if asked.

        ``checkpoint`` is an optional shard checkpointer (see
        :class:`repro.core.replication.ShardCheckpointer`): shards it
        holds are replayed instead of re-aligned, and each live shard is
        recorded once merged.  Alignment results never depend on it.
        """
        ...


class SerialAlignerBackend:
    """In-process single-end alignment via :class:`StarAligner`."""

    name = "serial"

    def __init__(self, aligner: StarAligner) -> None:
        self.aligner = aligner

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        if reads.paired:
            raise ValueError("serial single-end backend got paired reads")
        return self.aligner.run(
            reads.records(),
            reads_total=reads.reads_total,
            monitor=monitor,
            out_dir=out_dir,
            checkpoint=checkpoint,
        )


class PairedAlignerBackend:
    """In-process paired-end alignment via :class:`PairedStarAligner`.

    ``out_dir`` is accepted for interface uniformity but unused: paired
    runs keep their results in memory, as the pipeline always has.
    """

    name = "paired"

    def __init__(self, paired_aligner: PairedStarAligner) -> None:
        self.paired_aligner = paired_aligner

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        if not reads.paired:
            raise ValueError("paired backend got single-end reads")
        return self.paired_aligner.run(
            reads.records(),
            reads_total=reads.reads_total,
            monitor=monitor,
            checkpoint=checkpoint,
        )


class EngineBackend:
    """Shared-memory multi-process alignment via :class:`ParallelStarAligner`.

    Handles both library layouts — the engine already exposes matching
    ``run`` / ``run_paired`` entry points.
    """

    name = "engine"

    def __init__(self, engine: ParallelStarAligner) -> None:
        self.engine = engine

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        """Feed chunks into the engine's dispatch window as they arrive."""
        if reads.paired:
            return self.engine.run_paired(
                reads.records(),
                reads_total=reads.reads_total,
                monitor=monitor,
                checkpoint=checkpoint,
            )
        return self.engine.run(
            reads.records(),
            reads_total=reads.reads_total,
            monitor=monitor,
            out_dir=out_dir,
            checkpoint=checkpoint,
        )


class FaasAlignerBackend:
    """Serverless scatter-gather alignment over short-lived functions.

    The authors' follow-up paper replaces long-lived workers with FaaS:
    one accession's reads go through the shard runner
    (:func:`repro.align.runner.run_shards`) with each shard executed as
    one function invocation against a simulated
    :class:`~repro.cloud.faas.FaasService`.  The *function body* is the
    same pure per-shard function a pool worker runs (the codec's
    ``align``), and the gather side is the runner's ordered merge
    that every backend shares — so results are byte-identical to the
    serial and engine backends.

    What the service can throw, the backend absorbs:

    * retryable failures (:class:`TooManyRequests` throttles,
      :class:`FunctionCrashed` sandbox deaths) re-invoke the same shard
      under the per-invocation :class:`~repro.core.resilience.RetryPolicy`,
      with backoff spent on the backend's *virtual* clock;
    * structural failures (:class:`ExecutionCapExceeded` timeouts,
      :class:`PayloadTooLarge` requests/responses) split the shard in
      two and re-invoke both halves, merging sub-results so the original
      schedule bounds — and therefore shard-checkpoint keys — are
      preserved.

    Shards are pre-sized from the batch-core cost model (the engine's
    sizing rule) *and* the service's payload/cap limits, so splits are
    the exception; ``checkpoint`` compatibility means a resumed batch
    skips every shard a previous invocation round completed.

    Durations are modeled (``seconds_per_read``), never wall-clock, so
    cap and billing behaviour is deterministic; the virtual clock also
    drives the warm-container pool, which persists across accessions
    when the pipeline reuses one backend instance.
    """

    name = "faas"

    def __init__(
        self,
        aligner: StarAligner,
        *,
        paired_parameters: Any = None,
        service: FaasService | None = None,
        function_name: str = "star-align",
        memory_mb: int = 3008,
        cold_start_seconds: float = 2.0,
        retry: Any = None,
        parallelism: int = 8,
        batch_size: int | None = None,
        seconds_per_read: float = 2e-4,
        response_bytes_per_outcome: int = 96,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if seconds_per_read <= 0:
            raise ValueError("seconds_per_read must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.aligner = aligner
        self.paired_parameters = paired_parameters
        self._paired: PairedStarAligner | None = None
        self.service = service if service is not None else FaasService()
        try:
            self.function = self.service.function(function_name)
        except KeyError:
            self.function = self.service.create_function(
                function_name,
                memory_mb=memory_mb,
                cold_start_seconds=cold_start_seconds,
            )
        if retry is None:
            # local import: repro.core imports this module at package init
            from repro.core.resilience import RetryPolicy

            retry = RetryPolicy(
                max_attempts=4, base_delay=0.5, max_delay=30.0, jitter=0.0
            )
        self.retry = retry
        self.parallelism = parallelism
        self.batch_size = batch_size
        self.seconds_per_read = seconds_per_read
        self.response_bytes_per_outcome = response_bytes_per_outcome
        #: virtual service time (advanced by modeled durations + backoff)
        self.virtual_now = 0.0
        self.cap_reshards = 0
        self.payload_reshards = 0
        self.throttle_retries = 0
        self.crash_retries = 0

    # -- plumbing ------------------------------------------------------------

    @property
    def limits(self):
        return self.function.limits

    def _paired_aligner(self) -> PairedStarAligner:
        if self._paired is None:
            self._paired = PairedStarAligner(self.aligner, self.paired_parameters)
        return self._paired

    def _response_bytes(self, outcomes: list) -> int:
        return len(outcomes) * self.response_bytes_per_outcome

    def shard_size(
        self,
        reads: ReadColumns | list[FastqRecord],
        mate2: ReadColumns | list[FastqRecord] | None = None,
    ) -> int:
        """Reads per invocation: the engine's cost-model size, capped by
        what fits the request-payload limit.

        Payload size is known exactly up front, so oversized requests
        are prevented here rather than discovered by a 413.  Execution
        *time* is data-dependent (the service discovers cap overruns at
        run time), so the cap deliberately does not clamp the schedule —
        overruns surface as :class:`ExecutionCapExceeded` and are
        re-sharded, which is the ``cap_reshards`` metric the campaign
        reports.
        """
        reads = as_columns(reads)
        n = len(reads)
        if self.batch_size is not None:
            base = self.batch_size
        elif not self.aligner.parameters.batch_align:
            base = 64
        else:
            per_wave = -(-n // (2 * self.parallelism)) if n else 64
            base = max(64, min(1024, per_wave))
        if not n:
            return base
        # sequence + qualities + id + framing: the wire-size estimate the
        # shard sizer and the service's payload check both use
        total_bytes = reads.wire_bytes()
        if mate2 is not None:
            total_bytes += as_columns(mate2).wire_bytes()
        avg = max(1.0, total_bytes / n)
        by_payload = max(1, int(self.limits.max_request_bytes / avg))
        return max(1, min(base, by_payload))

    def faas_summary(self) -> dict:
        """Counters for reports: invocation mix, re-shards, billing."""
        fn = self.function
        bill = fn.bill()
        return {
            "invocations": fn.invocations,
            "cold_starts": fn.cold_starts,
            "warm_starts": fn.warm_starts,
            "cold_start_share": fn.cold_start_share,
            "throttle_retries": self.throttle_retries,
            "crash_retries": self.crash_retries,
            "cap_reshards": self.cap_reshards,
            "payload_reshards": self.payload_reshards,
            "gb_seconds": bill.gb_seconds,
            "billed_usd": bill.total_usd,
        }

    # -- scatter side --------------------------------------------------------

    def _execute_shard(self, payload, *, paired: bool):
        """Run one shard through one (or more) function invocations.

        Returns the worker-tuple ``(outcomes, partial, seed_stats)`` —
        exactly what a pool worker would have produced for this shard,
        whatever combination of retries and splits it took to get there.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                invocation = self.function.invoke(
                    payload.wire_bytes(), now=self.virtual_now
                )
            except PayloadTooLarge:
                self.payload_reshards += 1
                return self._split_shard(payload, paired=paired)
            except TooManyRequests:
                if not self.retry.should_retry(attempt):
                    raise
                self.throttle_retries += 1
                self.virtual_now += self.retry.delay_for(attempt)
                continue
            # the function body: the same pure per-shard function a pool
            # worker runs, so the shard result is byte-identical wherever
            # it executes
            if paired:
                value = PairedEndCodec(self._paired_aligner()).align(payload)
            else:
                value = SingleEndCodec(self.aligner).align(payload)
            duration = len(payload) * self.seconds_per_read
            self.virtual_now += invocation.cold_start_seconds + min(
                duration, self.limits.max_execution_seconds
            )
            try:
                self.function.complete(
                    invocation,
                    duration,
                    self._response_bytes(value[0]),
                    now=self.virtual_now,
                )
            except FunctionCrashed:
                if not self.retry.should_retry(attempt):
                    raise
                self.crash_retries += 1
                self.virtual_now += self.retry.delay_for(attempt)
                continue
            except ExecutionCapExceeded:
                self.cap_reshards += 1
                return self._split_shard(payload, paired=paired)
            except PayloadTooLarge:
                # the response could not leave the function: halve the work
                self.payload_reshards += 1
                return self._split_shard(payload, paired=paired)
            return value

    def _split_shard(self, payload, *, paired: bool):
        n = len(payload)
        if n <= 1:
            raise  # single read still over a limit: surface the limit error
        mid = n // 2
        return self._merge_values(
            self._execute_shard(payload[:mid], paired=paired),
            self._execute_shard(payload[mid:], paired=paired),
        )

    def _merge_values(self, a, b):
        """Fold two sub-shard worker tuples into one shard tuple."""
        a_out, a_partial, a_stats = a
        b_out, b_partial, b_stats = b
        if a_partial is None and b_partial is None:
            partial = None
        else:
            merged = GeneCounts(self.aligner.index.annotation)
            for p in (a_partial, b_partial):
                if p is not None:
                    merged.merge_partial(p)
            partial = merged.to_partial()
        stats = {
            k: a_stats.get(k, 0) + b_stats.get(k, 0)
            for k in a_stats.keys() | b_stats.keys()
            if k != "fallback_depths"
        }
        depths = dict(a_stats.get("fallback_depths", {}))
        for d, c in b_stats.get("fallback_depths", {}).items():
            depths[d] = depths.get(d, 0) + c
        stats["fallback_depths"] = depths
        return a_out + b_out, partial, stats

    # -- gather side ---------------------------------------------------------

    def align(
        self,
        reads: ReadChunkStream,
        *,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        checkpoint: Any = None,
    ) -> AlignmentOutcome:
        """Materialize, then scatter: shard sizing needs the whole
        payload's wire bytes (see :meth:`shard_size`)."""
        columns = reads.materialize()
        if reads.paired:
            codec = PairedEndCodec(self._paired_aligner())
            shard = self.shard_size(columns.mate1, columns.mate2)
        else:
            codec = SingleEndCodec(self.aligner)
            shard = self.shard_size(columns)
        return run_shards(
            codec,
            [columns],
            total=reads.reads_total,
            shard=shard,
            executor=lambda payloads: (
                (payload, self._execute_shard(payload, paired=reads.paired))
                for payload in payloads
            ),
            monitor=monitor,
            checkpoint=checkpoint,
            out_dir=out_dir,
        )


def resolve_backend(
    config: Any,
    aligner: StarAligner,
    engine: ParallelStarAligner | None = None,
    *,
    paired: bool = False,
    requested: str | None = None,
    faas: FaasAlignerBackend | None = None,
    batch_size: int | None = None,
) -> AlignerBackend:
    """Pick the backend for one accession.

    ``config`` is the pipeline-level options bundle (duck-typed so this
    module stays import-light); backend-selection knobs added there are
    honoured here, keeping call sites branch-free.

    ``requested`` (or ``config.backend``) pins an execution substrate:
    ``"serial"`` runs in-process even when a live engine exists,
    ``"engine"`` demands the worker pool (ValueError without one),
    ``"faas"`` routes through ``faas`` — a pipeline-cached
    :class:`FaasAlignerBackend`, built fresh here when none is supplied
    (warm containers then do not persist across accessions).  Under
    ``"auto"`` (the default) a live ``engine`` wins (it serves both
    layouts from one worker pool); otherwise the library layout picks
    the serial backend, sharding at ``batch_size`` reads when given
    (None keeps ``StarParameters.align_batch_size``).
    """
    if requested is None:
        requested = getattr(config, "backend", None)
    if requested is None:
        requested = "auto"
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of {BACKEND_CHOICES}"
        )
    if requested == "faas":
        if faas is not None:
            return faas
        return FaasAlignerBackend(
            aligner,
            paired_parameters=getattr(config, "paired_parameters", None),
            batch_size=batch_size,
        )
    if requested == "engine":
        if engine is None:
            raise ValueError(
                'backend="engine" needs a live engine (workers > 1)'
            )
        return EngineBackend(engine)
    if requested == "auto" and engine is not None:
        return EngineBackend(engine)
    if batch_size is not None:
        aligner = StarAligner(
            aligner.index,
            replace(aligner.parameters, align_batch_size=batch_size),
        )
    if paired:
        parameters = getattr(config, "paired_parameters", None)
        return PairedAlignerBackend(PairedStarAligner(aligner, parameters))
    return SerialAlignerBackend(aligner)
