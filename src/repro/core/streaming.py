"""The streamed read source of ``run_batch`` (``BatchOptions(streaming=True)``).

``run_batch`` runs one body per accession on ``max_parallel`` consumers;
the read source decides where the reads come from.  The default,
:class:`~repro.core.stages.DumpedReads`, runs ``prefetch →
fasterq-dump`` to completion first, so the network idles while STAR
runs and the CPU idles while bytes move.  :class:`StreamedReads`
overlaps them:

* a single **downloader thread** pulls accessions in submission order,
  streaming each ``.sra`` container through
  :class:`~repro.reads.stream.SraStream` — bytes decode into read
  column chunks as they arrive — and pushes chunks into a bounded
  per-accession queue (the backpressure window);
* each **consumer** aligns its accession from the live chunk queue
  while the downloader already streams the next one.  One admission
  bound of ``max_parallel + prefetch_depth`` caps how many accessions
  are downloading or being aligned at once;
* early stopping (or a drain deadline) aborting an accession's
  alignment **cancels its in-flight download** at the next chunk
  boundary — the un-moved remainder is reported as
  ``download_bytes_saved`` on the result and in
  :class:`~repro.core.stages.PipelineHealth`.

Results are byte-identical to the dumped source: chunk boundaries never
affect alignment outcomes or the shard schedule (so shard checkpoints
interchange too), record parsing matches the ``fasterq-dump``
semantics exactly, retry jitter draws from the same per-accession
stream in the same step order, and journal records interchange freely
(the read source is not fingerprinted).  The one documented divergence:
an accession whose download was cancelled mid-stream reports the
*partial* ``fastq_bytes`` actually decoded — that is the point of
cancelling.

Failure semantics match the dumped source: prefetch faults retry under
the same policy inside the downloader (each attempt reopens the
stream), ``fasterq_dump`` faults are checked before the first chunk is
handed over, and an ``align`` fault fires before any chunk is consumed
so transient align faults retry safely.  Only a failure *after* chunks
were consumed is unrecoverable mid-stream (the bytes are gone) and
surfaces as a permanent-style step failure.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.align.backend import ReadChunkStream
from repro.core.resilience import StepFailed, run_with_retry
from repro.core.stages import StageContext
from repro.reads.stream import SraStream
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.core.pipeline import BatchOptions

__all__ = ["StreamedReads"]

#: poll interval for the bounded queues and coordination events; short
#: enough that cancellation feels immediate, long enough to stay cheap
_POLL_SECONDS = 0.05


@dataclass
class _Handle:
    """Shared per-accession state between the downloader and consumer."""

    accession: str
    #: bounded chunk queue: ("chunk", payload) | ("done", None) | ("error", exc)
    items: queue.Queue = field(default_factory=queue.Queue)
    #: consumer → downloader: stop moving bytes for this accession
    cancel: threading.Event = field(default_factory=threading.Event)
    #: downloader → consumer: header parsed (or ``error`` set)
    meta: threading.Event = field(default_factory=threading.Event)
    #: downloader → consumer: this accession's download work is over
    finished: threading.Event = field(default_factory=threading.Event)
    #: the live stream (set just before ``meta``)
    stream: SraStream | None = None
    #: prefetch/dump step failure, raised in the consumer (before meta)
    error: StepFailed | None = None
    #: mid-stream decode/transfer failure (after meta)
    stream_error: BaseException | None = None
    #: guard: a chunk feed is single-use — see module docstring
    consume_started: bool = False
    #: retries spent by the downloader on this accession's steps
    retries: int = 0
    #: wall seconds the downloader spent on this accession
    download_seconds: float = 0.0
    #: seconds the downloader sat blocked on a full chunk queue
    stall_seconds: float = 0.0
    #: per-accession jitter stream, shared with the consumer's align
    #: retries so draw order matches the dumped source exactly
    rng: Any = None
    #: the pipeline's PipelineHealth (align-side queue and stall figures)
    health: Any = None

    def __iter__(self):
        """Bridge the chunk queue into the align stage; each iteration is
        one align attempt.

        Single-use: the bytes behind consumed chunks are gone, so a
        second iteration (an align retry *after* consumption began)
        fails loudly instead of silently aligning a truncated stream.
        Align retries triggered before any chunk was consumed — the
        scripted-fault case — never enter here twice because the fault
        check precedes consumption.
        """
        if self.consume_started:
            raise RuntimeError(
                f"{self.accession!r}: streamed reads were already "
                "consumed; a mid-stream alignment cannot be retried"
            )
        self.consume_started = True
        metrics = self.health.stage("align")
        stalled = 0.0
        try:
            while True:
                try:
                    kind, payload = self.items.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    if self.finished.is_set() and self.items.empty():
                        if self.stream_error is not None:
                            raise self.stream_error
                        return  # cancelled: downloader exited early
                    stalled += _POLL_SECONDS
                    continue
                if kind == "chunk":
                    metrics.sample_queue(self.items.qsize())
                    yield payload
                elif kind == "error":
                    raise payload
                else:  # "done"
                    return
        finally:
            metrics.record(stall=stalled)


class StreamedReads:
    """The streamed read source (see module doc).

    ``run_batch`` runs its consumers inside :meth:`running`, and each
    consumer aligns inside :meth:`reads` — the interface
    :class:`~repro.core.stages.DumpedReads` has too.
    """

    def __init__(self, pipeline, options: "BatchOptions") -> None:
        self.pipeline = pipeline
        self.options = options
        #: admits the accessions being consumed plus ``prefetch_depth``
        #: lookahead downloads; released as consumers finish each
        self._admission = threading.Semaphore(
            options.max_parallel + options.prefetch_depth
        )
        self._stop = threading.Event()
        self._handles: dict[str, _Handle] = {}

    @contextlib.contextmanager
    def running(self, pending: list[str]):
        """Download ``pending`` in submission order while the block runs.

        On exit every download is cancelled.  Accessions never consumed
        (a drain stopped admission) have no journal records, so a
        resumed batch re-runs exactly them.
        """
        for accession in pending:
            self._handles[accession] = _Handle(
                accession,
                items=queue.Queue(maxsize=self.options.buffer_chunks),
                rng=derive_rng(
                    self.pipeline.config.retry_seed, f"retry:{accession}"
                ),
                health=self.pipeline.stage_health,
            )
        self._thread = threading.Thread(
            target=self._download_all,
            args=(list(self._handles.values()),),
            name="stream-downloader",
            daemon=True,
        )
        self._thread.start()
        try:
            yield
        finally:
            self._stop.set()
            for handle in self._handles.values():
                self._release_handle(handle)
                # unblock the downloader's admission wait for every
                # handle it may still loop over (over-release is safe)
                self._admission.release()
            self._thread.join(timeout=30.0)

    @staticmethod
    def _release_handle(handle: _Handle) -> None:
        """Cancel a handle and drain its queue so the downloader exits."""
        handle.cancel.set()
        if handle.stream is not None:
            handle.stream.cancel()
        while True:
            try:
                handle.items.get_nowait()
            except queue.Empty:
                return

    # -- downloader side -----------------------------------------------------

    def _download_all(self, handles: list[_Handle]) -> None:
        for handle in handles:
            self._admission.acquire()
            if self._stop.is_set():
                handle.meta.set()
                handle.finished.set()
                continue
            self._download_one(handle)

    def _download_one(self, handle: _Handle) -> None:
        pipeline = self.pipeline
        cfg = pipeline.config
        options = self.options
        started = time.monotonic()

        def on_retry(step, attempt, exc, delay):
            handle.retries += 1
            pipeline.retry_ledger.record(step)

        def open_stream() -> SraStream:
            # same fault point as the sequential prefetch(); each retry
            # reopens the stream so attempts are independent
            if cfg.fault_plan is not None:
                cfg.fault_plan.check("prefetch", handle.accession)
            return SraStream(
                pipeline.repository,
                handle.accession,
                chunk_bytes=options.download_chunk_bytes,
                chunk_reads=options.chunk_reads,
            ).open()

        def dump_check() -> None:
            # decode happens inline while streaming, but the scripted
            # fault point (and its retry accounting) must keep working
            if cfg.fault_plan is not None:
                cfg.fault_plan.check("fasterq_dump", handle.accession)

        try:
            try:
                stream = run_with_retry(
                    open_stream,
                    policy=cfg.retry,
                    step="prefetch",
                    key=handle.accession,
                    rng=handle.rng,
                    on_retry=on_retry,
                )
                run_with_retry(
                    dump_check,
                    policy=cfg.retry,
                    step="fasterq_dump",
                    key=handle.accession,
                    rng=handle.rng,
                    on_retry=on_retry,
                )
            except StepFailed as exc:
                handle.error = exc
                handle.meta.set()
                return
            handle.stream = stream
            handle.meta.set()
            try:
                for chunk in stream.chunks():
                    if not self._put(handle, ("chunk", chunk)):
                        return
                self._put(handle, ("done", None))
            except Exception as exc:  # decode/transfer failure mid-stream
                handle.stream_error = exc
                self._put(handle, ("error", exc))
        finally:
            handle.download_seconds = time.monotonic() - started
            handle.finished.set()
            stream = handle.stream
            if stream is not None:
                pipeline.stage_health.stage("prefetch").record(
                    items=1,
                    units=stream.bytes_downloaded,
                    busy=max(
                        0.0, handle.download_seconds - handle.stall_seconds
                    ),
                    stall=handle.stall_seconds,
                )
                pipeline.stage_health.record_stream(
                    bytes_total=stream.total_bytes,
                    bytes_saved=stream.bytes_saved,
                    cancelled=stream.cancelled,
                )

    def _put(self, handle: _Handle, item: tuple) -> bool:
        """Enqueue with backpressure; False when cancelled/stopped."""
        metrics = self.pipeline.stage_health.stage("prefetch")
        while True:
            if handle.cancel.is_set() or self._stop.is_set():
                return False
            try:
                metrics.sample_queue(handle.items.qsize())
                handle.items.put(item, timeout=_POLL_SECONDS)
                return True
            except queue.Full:
                handle.stall_seconds += _POLL_SECONDS

    # -- consumer side -------------------------------------------------------

    @contextlib.contextmanager
    def reads(self, ctx: StageContext, harness):
        """Hand ``ctx.accession``'s live chunk feed to the enclosed
        alignment; settle the download's accounting once it returns.

        The accession's admission is released on the way out, whether
        the alignment finished, failed or was drained.
        """
        handle = self._handles[ctx.accession]
        # align retries continue the jitter stream the downloader's
        # retries drew from, so draw order matches the dumped source
        harness.rng = handle.rng
        try:
            stream = self._await_stream(handle, harness)
            state = harness.state
            state["streamed"] = True
            state["paired"] = stream.paired
            state["download_bytes_total"] = stream.total_bytes
            ctx.paired = stream.paired
            ctx.reads = ReadChunkStream(
                chunks=handle,
                reads_total=stream.n_reads,
                paired=stream.paired,
            )

            def on_abort(record) -> None:
                # early stop / drain: stop moving bytes at the next boundary
                handle.cancel.set()
                stream.cancel()

            ctx.on_align_abort = on_abort
            yield
            handle.finished.wait()
            state["fastq_bytes"] = stream.fastq_bytes
            state["download_bytes_saved"] = stream.bytes_saved
            harness.timings["prefetch"] += handle.download_seconds
            self.pipeline.stage_health.stage("align").record(
                units=stream.records_out
            )
        finally:
            self._release_handle(handle)
            self._admission.release()

    def _await_stream(self, handle: _Handle, harness) -> SraStream:
        """Wait for the download's header; raise its prefetch/dump failure."""
        while not handle.meta.wait(_POLL_SECONDS):
            if not self._thread.is_alive():
                raise RuntimeError(
                    "stream downloader died before metadata for "
                    f"{handle.accession!r}"
                )
        harness.retries["n"] += handle.retries
        if handle.error is not None:
            handle.finished.wait()
            harness.timings["prefetch"] += handle.download_seconds
            raise handle.error
        if harness.journal is not None:
            # the download/decode steps have settled their retries; the
            # journal keeps the dumped path's step vocabulary
            harness.journal.record_step_done(handle.accession, "prefetch")
            harness.journal.record_step_done(handle.accession, "fasterq_dump")
        assert handle.stream is not None
        return handle.stream
