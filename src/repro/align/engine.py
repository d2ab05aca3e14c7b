"""Shared-memory parallel alignment engine.

The paper's instance architecture (§II, Fig. 2) keeps one copy of the
STAR index in ``/dev/shm`` and fans alignment work out to every core.
This module reproduces both levers for the in-process aligner:

* :class:`SharedIndexBlocks` publishes a :class:`~repro.align.index.
  GenomeIndex`'s big arrays — the genome (1 byte/base), the suffix
  array (8 bytes/base), and the prefix jump table — into POSIX shared
  memory once.  Worker processes *attach* to the blocks and wrap them
  in zero-copy numpy views instead of each receiving a ~9 byte/base
  pickle;

* :class:`ParallelStarAligner` is the worker-pool executor of the
  shard runner (:func:`repro.align.runner.run_shards`): it dispatches
  shards to a persistent pool and hands results back **in read order**,
  so the merged :class:`~repro.align.star.StarRunResult` is identical to
  what the serial :class:`~repro.align.star.StarAligner` produces —
  outcomes, progress snapshots, final stats, and gene counts alike.

The early-stopping contract survives parallelism: the runner's merge
sees shards in read order, so an abort stops at the same read the serial
run stops at; shards not yet dispatched are never pulled, and the
(bounded) in-flight window is abandoned.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.align.index import GenomeIndex
from repro.align.paired import (
    PairedParameters,
    PairedRunResult,
    PairedStarAligner,
)
from repro.align.runner import (
    PairedEndCodec,
    ShardValue,
    SingleEndCodec,
    column_feed,
    run_shards,
)
from repro.align.star import (
    ProgressMonitorHook,
    StarAligner,
    StarParameters,
    StarRunResult,
)
from repro.align.suffix_array import PrefixJumpTable, SeedSearchStats
from repro.genome.annotation import Annotation
from repro.reads.fastq import FastqRecord, PairedColumns, ReadColumns

__all__ = [
    "EngineHealth",
    "ParallelStarAligner",
    "SharedIndexBlocks",
    "SharedIndexSpec",
    "attach_shared_index",
]


# --------------------------------------------------------------------------
# shared-memory publication
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedIndexSpec:
    """Everything a worker needs to reconstruct the index.

    The two block names point at the shared-memory copies of the big
    arrays; the remaining fields (contig table, annotation, sjdb) are
    small and travel with the spec itself.
    """

    genome_block: str
    suffix_block: str
    n_bases: int
    assembly_name: str
    names: list[str]
    offsets: np.ndarray
    annotation: Annotation | None
    sjdb: set[tuple[str, int, int]]
    #: prefix jump table, published alongside genome/SA so workers never
    #: rebuild it; ``None`` when the index was built without one
    jump_block: str | None = None
    jump_length: int = 0


def attach_shared_index(spec: SharedIndexSpec) -> tuple[GenomeIndex, list]:
    """Attach to published blocks and build a zero-copy :class:`GenomeIndex`.

    Returns the index plus the block handles, which the caller must keep
    alive for as long as the index is used (the numpy views borrow their
    buffers).

    Attaching re-registers the block names with the resource tracker.
    Pool workers share their parent's tracker process, where registration
    is idempotent (a set), so the parent's single ``unlink`` on shutdown
    leaves the tracker clean — no "leaked shared_memory" warnings and no
    per-worker unregister gymnastics.
    """
    genome_shm = shared_memory.SharedMemory(name=spec.genome_block)
    suffix_shm = shared_memory.SharedMemory(name=spec.suffix_block)
    genome = np.ndarray((spec.n_bases,), dtype=np.uint8, buffer=genome_shm.buf)
    suffix = np.ndarray((spec.n_bases,), dtype=np.int64, buffer=suffix_shm.buf)
    handles = [genome_shm, suffix_shm]
    jump_table = None
    if spec.jump_block is not None:
        jump_shm = shared_memory.SharedMemory(name=spec.jump_block)
        entries = 6**spec.jump_length + 1
        bounds = np.ndarray((entries,), dtype=np.int64, buffer=jump_shm.buf)
        jump_table = PrefixJumpTable(spec.jump_length, bounds)
        handles.append(jump_shm)
    index = GenomeIndex(
        assembly_name=spec.assembly_name,
        genome=genome,
        suffix_array=suffix,
        offsets=spec.offsets,
        names=list(spec.names),
        annotation=spec.annotation,
        sjdb=spec.sjdb,
        jump_table=jump_table,
        # the publisher decides whether a table exists; a worker must not
        # quietly rebuild one the parent chose to omit
        auto_jump_table=False,
    )
    return index, handles


class SharedIndexBlocks:
    """Owner of the shared-memory copies of one index's big arrays.

    Create in the parent, hand :attr:`spec` to workers, and call
    :meth:`close` (or rely on the garbage-collection finalizer) to
    release the segments.  Closing is idempotent.
    """

    def __init__(self, index: GenomeIndex) -> None:
        genome = np.ascontiguousarray(index.genome, dtype=np.uint8)
        suffix = np.ascontiguousarray(index.suffix_array, dtype=np.int64)
        if index.jump_table is None and index.auto_jump_table and index.n_bases:
            index.jump_table = PrefixJumpTable.build(genome, suffix)
        # shared_memory rejects zero-sized segments; a degenerate empty
        # index still gets valid (1-byte) blocks and n_bases=0 views.
        self._genome_shm = shared_memory.SharedMemory(
            create=True, size=max(1, genome.nbytes)
        )
        self._suffix_shm = shared_memory.SharedMemory(
            create=True, size=max(1, suffix.nbytes)
        )
        np.ndarray(genome.shape, dtype=np.uint8, buffer=self._genome_shm.buf)[
            :
        ] = genome
        np.ndarray(suffix.shape, dtype=np.int64, buffer=self._suffix_shm.buf)[
            :
        ] = suffix
        self._shms = [self._genome_shm, self._suffix_shm]
        jump_block = None
        jump_length = 0
        if index.jump_table is not None:
            bounds = np.ascontiguousarray(index.jump_table.bounds, dtype=np.int64)
            jump_shm = shared_memory.SharedMemory(create=True, size=bounds.nbytes)
            np.ndarray(bounds.shape, dtype=np.int64, buffer=jump_shm.buf)[:] = bounds
            self._shms.append(jump_shm)
            jump_block = jump_shm.name
            jump_length = index.jump_table.length
        self.spec = SharedIndexSpec(
            genome_block=self._genome_shm.name,
            suffix_block=self._suffix_shm.name,
            n_bases=index.n_bases,
            assembly_name=index.assembly_name,
            names=list(index.names),
            offsets=np.asarray(index.offsets, dtype=np.int64).copy(),
            annotation=index.annotation,
            sjdb=index.sjdb,
            jump_block=jump_block,
            jump_length=jump_length,
        )
        self._finalizer = weakref.finalize(self, _release_blocks, *self._shms)

    @property
    def nbytes(self) -> int:
        """Bytes resident in shared memory."""
        return sum(shm.size for shm in self._shms)

    def close(self) -> None:
        """Release both segments (close + unlink); safe to call twice."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive


def _release_blocks(*blocks: shared_memory.SharedMemory) -> None:
    for shm in blocks:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

#: Per-worker state, populated by :func:`_init_worker`.  Module-global so
#: batch functions dispatched through the pool can reach it.
_WORKER: dict = {}


def _init_worker(
    spec: SharedIndexSpec,
    parameters: StarParameters,
    paired_parameters: PairedParameters,
) -> None:
    index, handles = attach_shared_index(spec)
    aligner = StarAligner(index, parameters)
    # Build the search context now (bytes genome + zero-copy SA view):
    # paying it at init keeps the first batch's latency flat.
    index.search_context  # noqa: B018 - intentional warm-up
    _WORKER["se"] = SingleEndCodec(aligner)
    _WORKER["pe"] = PairedEndCodec(PairedStarAligner(aligner, paired_parameters))
    _WORKER["handles"] = handles


def _align_batch(reads: ReadColumns) -> ShardValue:
    """Pool entry point: align one single-end shard with the worker aligner."""
    return _WORKER["se"].align(reads)


def _align_batch_paired(pairs: PairedColumns) -> ShardValue:
    """Pool entry point: align one paired shard with the worker aligner."""
    return _WORKER["pe"].align(pairs)


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------

#: worker start method: fork launches every worker on an executor's first
#: submit, and the workers share the parent's resource tracker (see
#: :func:`attach_shared_index`)
_START_METHOD = "fork"

#: attempts a shard gets on the worker pool; a shard whose pool broke on
#: every one of them is computed in the parent
_MAX_ATTEMPTS = 3


@dataclass
class EngineHealth:
    """Failure/recovery accounting for one engine's lifetime."""

    #: worker pools that broke (a worker died) under a run
    worker_failures: int = 0
    #: shards resubmitted to a fresh pool after their pool broke
    redispatched_batches: int = 0
    #: shards computed in the parent: out of attempts, or no pool left
    serial_fallback_batches: int = 0
    #: fresh pools started in place of broken ones
    pool_restarts: int = 0
    #: batches merged that ran through the vectorized batch core
    #: (:mod:`repro.align.batch`) rather than the per-read reference path
    batch_core_batches: int = 0
    #: aggregated seed-search counters (jump-table hits, binary-search
    #: steps saved, fallback-depth histogram) across every batch merged by
    #: this engine, wherever the batch ran
    seed_search: SeedSearchStats = field(default_factory=SeedSearchStats)


@dataclass
class _Inflight:
    """One dispatched shard; the payload is kept so it can be resubmitted."""

    payload: object
    #: the pool the shard last went to and its future there; no future
    #: means the parent computes the shard
    executor: ProcessPoolExecutor | None = None
    future: Future | None = None
    attempts: int = 0


class ParallelStarAligner:
    """Multiprocess drop-in for :class:`~repro.align.star.StarAligner.run`.

    The engine owns a :class:`SharedIndexBlocks` publication and a
    persistent worker pool; both are created lazily on the first
    :meth:`run` (or eagerly via :meth:`start`/``with``) and reused across
    runs, mirroring the paper's load-index-once-per-instance design.

    ``batch_size`` reads are pickled per task; the index is never
    re-sent.  ``batch_size=None`` (the default) sizes shards from the
    batch-core cost model: the vectorized core amortizes its per-call
    numpy overhead across the whole shard, so shards should be as large
    as load balancing allows — two shards per worker bounds the tail
    straggler at half a worker's share, clamped to [64, 1024] so tiny
    runs still exercise every worker and huge runs still checkpoint
    progress at a useful cadence.  With the batch core disabled the
    historical 64-read shard is kept (per-read cost dominates, shard
    size is latency-neutral).  Results are merged strictly in read
    order, so outputs —
    including the ``Log.progress.out`` cadence the early-stopping monitor
    consumes — are identical to a serial run's.  When the monitor aborts,
    batches not yet dispatched are cancelled and at most
    ``2 * workers`` already-dispatched batches are discarded.
    """

    def __init__(
        self,
        index: GenomeIndex,
        parameters: StarParameters | None = None,
        *,
        workers: int = 2,
        batch_size: int | None = None,
        paired_parameters: PairedParameters | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.index = index
        self.parameters = parameters or StarParameters()
        self.paired_parameters = paired_parameters or PairedParameters()
        self.workers = workers
        self.batch_size = batch_size
        self.health = EngineHealth()
        self._blocks: SharedIndexBlocks | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._local: StarAligner | None = None
        self._local_paired: PairedStarAligner | None = None
        self._dispatch_lock = threading.Lock()
        self._active_runs = 0

    # -- lifecycle -----------------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        """A worker pool attached to the already-published blocks.

        Fork launches every worker on the first submit; waiting for that
        warm-up task leaves the workers forked and the pool proven live.
        """
        executor = ProcessPoolExecutor(
            self.workers,
            mp.get_context(_START_METHOD),
            initializer=_init_worker,
            initargs=(self._blocks.spec, self.parameters, self.paired_parameters),
        )
        executor.submit(os.getpid).result()
        return executor

    def start(self) -> "ParallelStarAligner":
        """Publish the index and spin up the worker pool (idempotent)."""
        with self._dispatch_lock:
            if self._executor is None:
                self._blocks = SharedIndexBlocks(self.index)
                self._executor = self._new_executor()
        return self

    def _stop(self, *, wait: bool) -> None:
        """Shut the pool down and release the blocks (lock held).

        Shards not yet running are cancelled; a run still holding them
        computes them in the parent.  Before a waiting shutdown, a probe
        task settles only once the pool has noticed any dead worker, so
        the shutdown never joins a survivor stuck behind a killed one.
        """
        if self._executor is not None:
            if wait:
                with suppress(BrokenProcessPool):
                    self._executor.submit(os.getpid).result()
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
        if self._blocks is not None:
            self._blocks.close()
            self._blocks = None

    def close(self) -> None:
        """Tear down the pool and release the shared-memory blocks."""
        with self._dispatch_lock:
            self._stop(wait=True)

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: wait for active runs, then :meth:`close`.

        The pipeline's drain path (SIGTERM / spot notice) calls this so
        in-flight alignments finish merging before the pool and the
        shared-memory publication go away.  Returns True when every run
        finished within ``timeout`` seconds (or no run was active);
        False when the deadline expired and the pool was shut down with
        work still in flight — those runs compute whatever shards remain
        in the parent, so they still complete correctly.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._dispatch_lock:
                if self._active_runs == 0:
                    self._stop(wait=True)
                    return True
                if deadline is not None and time.monotonic() >= deadline:
                    self._stop(wait=False)
                    return False
            time.sleep(0.005)

    def __enter__(self) -> "ParallelStarAligner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def shared_bytes(self) -> int:
        """Bytes currently published to shared memory (0 when stopped)."""
        return self._blocks.nbytes if self._blocks is not None else 0

    # -- fault injection / introspection ---------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of currently live pool workers (empty when stopped)."""
        executor = self._executor
        if executor is None:
            return []
        return [p.pid for p in list(executor._processes.values()) if p.is_alive()]

    def kill_worker(self, index: int = 0) -> int:
        """SIGKILL one live worker (chaos testing); returns its pid.

        The pool breaks; runs resubmit their unfinished shards to a fresh
        pool and keep going — callers observe nothing but latency.
        """
        pids = self.start().worker_pids()
        if not pids:
            raise RuntimeError("no live workers to kill")
        pid = pids[index % len(pids)]
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- dispatch ------------------------------------------------------------

    def _shard_size(self, n_reads: int) -> int:
        """Reads per dispatched shard for a run of ``n_reads``."""
        if self.batch_size is not None:
            return self.batch_size
        if not self.parameters.batch_align:
            return 64
        per_worker = -(-n_reads // (2 * self.workers))  # ceil division
        return max(64, min(1024, per_worker))

    def _local_aligner(self) -> StarAligner:
        """The parent-process serial aligner used for fallback batches."""
        if self._local is None:
            self._local = StarAligner(self.index, self.parameters)
        return self._local

    def _local_paired_aligner(self) -> PairedStarAligner:
        if self._local_paired is None:
            self._local_paired = PairedStarAligner(
                self._local_aligner(), self.paired_parameters
            )
        return self._local_paired

    def _local_equivalent(self, fn: Callable) -> Callable:
        """The in-parent function computing exactly what ``fn`` computes
        in a worker — same pure batch helper, different aligner instance,
        byte-identical results."""
        if fn is _align_batch:
            return SingleEndCodec(self._local_aligner()).align
        return PairedEndCodec(self._local_paired_aligner()).align

    def _dispatch(self, fn: Callable, entry: _Inflight) -> _Inflight:
        """Submit ``entry``'s shard to the pool, or leave it to the parent.

        A broken pool — the one the shard's last attempt ran on, or one a
        submit finds broken — is replaced by the first run to see it; the
        shared blocks outlive it, so the index is never republished.  The
        shard goes to the parent when the engine has no pool (drain
        expired, or closed) or it has broken ``_MAX_ATTEMPTS`` pools.
        """
        with self._dispatch_lock:
            broken, entry.future = entry.executor, None
            while self._executor is not None:
                if self._executor is broken:
                    broken.shutdown(wait=False)
                    self._executor = self._new_executor()
                    self.health.worker_failures += 1
                    self.health.pool_restarts += 1
                if entry.attempts == _MAX_ATTEMPTS:
                    break
                try:
                    entry.future = self._executor.submit(fn, entry.payload)
                except BrokenProcessPool:
                    broken = self._executor
                    continue
                entry.executor = self._executor
                entry.attempts += 1
                if entry.attempts > 1:
                    self.health.redispatched_batches += 1
                return entry
            self.health.serial_fallback_batches += 1
            return entry

    def _settle(self, fn: Callable, entry: _Inflight):
        """Wait for ``entry``'s value, resubmitting it after a pool break."""
        while entry.future is not None:
            try:
                return entry.future.result()
            except (BrokenProcessPool, CancelledError):
                self._dispatch(fn, entry)
        return self._local_equivalent(fn)(entry.payload)

    def _ordered_results(self, fn: Callable, payloads: Iterable) -> Iterator:
        """Yield ``(payload, fn(payload))`` pairs in payload order.

        ``payloads`` may be any iterable — including a live stream whose
        next item is not available yet; dispatch simply blocks pulling it
        while already-submitted batches keep crunching in the pool (this
        is the engine end of the streaming pipeline's backpressure).
        Keeps at most ``2 * workers`` batches dispatched.  If the caller
        stops consuming (early abort), the remaining payloads are never
        pulled and in-flight results are abandoned — the pool stays
        usable for subsequent runs.  Worker deaths are absorbed by
        resubmission and the parent fallback (see :meth:`_dispatch`), so
        the stream of results is identical no matter what failed.
        """
        self.start()
        with self._dispatch_lock:
            self._active_runs += 1
        try:
            window: deque[_Inflight] = deque()
            payload_iter = iter(payloads)
            while True:
                for payload in islice(payload_iter, 2 * self.workers - len(window)):
                    window.append(self._dispatch(fn, _Inflight(payload)))
                if not window:
                    break
                head = window.popleft()
                yield head.payload, self._settle(fn, head)
        finally:
            with self._dispatch_lock:
                self._active_runs -= 1

    # -- runs ------------------------------------------------------------------

    def run(
        self,
        reads: ReadColumns | Iterable,
        *,
        reads_total: int | None = None,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> StarRunResult:
        """Parallel equivalent of :meth:`StarAligner.run` (same signature).

        ``reads`` may be a lazy feed of column chunks (e.g. a streamed
        download) when ``reads_total`` is given — shards are pulled as
        they become available and results stay byte-identical to the
        whole-batch path.  ``checkpoint`` works as in
        :func:`repro.align.runner.run_shards`.
        """
        feed, total = column_feed(reads, reads_total)
        return run_shards(
            SingleEndCodec(self._local_aligner()),
            feed,
            total=total,
            shard=self._shard_size(total),
            executor=lambda payloads: self._ordered_results(
                _align_batch, payloads
            ),
            monitor=monitor,
            clock=clock,
            checkpoint=checkpoint,
            health=self.health,
            out_dir=out_dir,
        )

    def run_paired(
        self,
        mate1: ReadColumns | list[FastqRecord] | Iterable,
        mate2: ReadColumns | list[FastqRecord] | None = None,
        *,
        reads_total: int | None = None,
        monitor: ProgressMonitorHook | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> PairedRunResult:
        """Parallel equivalent of :meth:`PairedStarAligner.run` (same
        signature, including the lazy pair feed)."""
        feed, total = column_feed(mate1, reads_total, mate2)
        return run_shards(
            PairedEndCodec(self._local_paired_aligner()),
            feed,
            total=total,
            shard=self._shard_size(total),
            executor=lambda payloads: self._ordered_results(
                _align_batch_paired, payloads
            ),
            monitor=monitor,
            clock=clock,
            checkpoint=checkpoint,
            health=self.health,
        )
