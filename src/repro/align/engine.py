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
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.pool import TERMINATE, AsyncResult, Pool
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
from repro.reads.fastq import FastqRecord

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


def _align_batch(records: list[FastqRecord]) -> ShardValue:
    """Pool entry point: align one single-end batch with the worker aligner."""
    return _WORKER["se"].align(records)


def _align_batch_paired(
    batch: tuple[list[FastqRecord], list[FastqRecord]],
) -> ShardValue:
    """Pool entry point: align one paired batch with the worker aligner."""
    return _WORKER["pe"].align(batch)


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


@dataclass
class EngineHealth:
    """Failure/recovery accounting for one engine's lifetime.

    ``degraded`` flips when the worker pool became unusable and the
    engine switched to computing batches serially in the parent — runs
    still complete (identical output, serial speed).
    """

    worker_failures: int = 0
    redispatched_batches: int = 0
    serial_fallback_batches: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    #: batches merged that ran through the vectorized batch core
    #: (:mod:`repro.align.batch`) rather than the per-read reference path
    batch_core_batches: int = 0
    #: aggregated seed-search counters (jump-table hits, binary-search
    #: steps saved, fallback-depth histogram) across every batch merged by
    #: this engine, wherever the batch ran
    seed_search: SeedSearchStats = field(default_factory=SeedSearchStats)


#: sentinel for an exhausted payload stream in _ordered_results
_NO_PAYLOAD = object()


class _LocalResult:
    """An already-computed batch result quacking like an AsyncResult."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def ready(self) -> bool:
        return True

    def get(self, timeout: float | None = None):
        return self.value


@dataclass
class _Inflight:
    """One dispatched batch: payload kept so it can be re-dispatched."""

    payload: object
    result: "AsyncResult | _LocalResult"
    attempts: int = 1


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
    ``max_inflight`` already-dispatched batches are discarded.
    """

    def __init__(
        self,
        index: GenomeIndex,
        parameters: StarParameters | None = None,
        *,
        workers: int = 2,
        batch_size: int | None = None,
        max_inflight: int | None = None,
        paired_parameters: PairedParameters | None = None,
        mp_context: str | None = None,
        health_interval: float = 0.1,
        max_batch_retries: int = 3,
        stall_timeout: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if health_interval <= 0:
            raise ValueError("health_interval must be positive")
        if max_batch_retries < 1:
            raise ValueError("max_batch_retries must be >= 1")
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        self.index = index
        self.parameters = parameters or StarParameters()
        self.paired_parameters = paired_parameters or PairedParameters()
        self.workers = workers
        self.batch_size = batch_size
        self.max_inflight = max_inflight or 2 * workers
        self.mp_context = mp_context
        #: how often the merge loop re-checks worker liveness while waiting
        self.health_interval = health_interval
        #: dispatch attempts per batch before it is computed in the parent
        self.max_batch_retries = max_batch_retries
        #: after a worker failure, how long re-dispatched work may sit
        #: with no completions before the pool is declared wedged
        self.stall_timeout = stall_timeout
        self.health = EngineHealth()
        self._blocks: SharedIndexBlocks | None = None
        self._pool: Pool | None = None
        self._worker_pids: set[int] = set()
        self._local: StarAligner | None = None
        self._local_paired: PairedStarAligner | None = None
        #: a worker was killed/lost since the last (re)start — arms the
        #: stall detector (healthy pools never pay stall bookkeeping)
        self._suspect = False
        self._dispatch_lock = threading.Lock()
        self._active_runs = 0

    # -- lifecycle -----------------------------------------------------------

    def _spawn_pool(self) -> Pool:
        """Create a worker pool attached to the already-published blocks."""
        ctx = mp.get_context(self.mp_context)
        return ctx.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(
                self._blocks.spec,
                self.parameters,
                self.paired_parameters,
            ),
        )

    def start(self) -> "ParallelStarAligner":
        """Publish the index and spin up the worker pool (idempotent)."""
        if self._pool is None:
            self._blocks = SharedIndexBlocks(self.index)
            self._pool = self._spawn_pool()
            self._worker_pids = {p.pid for p in self._pool._pool}
            self._suspect = False
        return self

    def _teardown_pool(self, pool: Pool) -> None:
        """Terminate a pool, surviving SIGKILLed workers.

        A worker SIGKILLed mid-queue-operation dies *holding* whichever
        POSIX semaphore it had acquired (process death does not release
        them) and may leave a half-read byte stream in the task pipe, so
        every graceful path through ``Pool.terminate`` — the task-queue
        drain, the result-queue sentinel put — can block forever on a
        lock no live process will ever release.  When any worker was
        lost, bypass the graceful machinery entirely: defuse the
        finalizer (it would rerun — and hang — the same drain at
        interpreter exit), stop the maintenance threads, and SIGKILL
        what's left.  Handler threads are daemons, so any parked on a
        dead semaphore are simply abandoned with the pool.
        """
        if not self._suspect and all(p.is_alive() for p in pool._pool):
            pool.terminate()
            pool.join()
            return
        pool._terminate.cancel()
        for handler in (
            pool._worker_handler,
            pool._task_handler,
            pool._result_handler,
        ):
            handler._state = TERMINATE
        try:
            pool._change_notifier.put(None)
        except Exception:
            pass
        pool._worker_handler.join(timeout=1.0)
        for proc in pool._pool:
            if proc.is_alive():
                proc.kill()
        for proc in pool._pool:
            proc.join(timeout=1.0)

    def close(self) -> None:
        """Tear down the pool and release the shared-memory blocks."""
        if self._pool is not None:
            self._teardown_pool(self._pool)
            self._pool = None
        if self._blocks is not None:
            self._blocks.close()
            self._blocks = None
        self._worker_pids = set()
        self._suspect = False

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: wait for active runs, then :meth:`close`.

        The pipeline's drain path (SIGTERM / spot notice) calls this so
        in-flight alignments finish merging before the pool and the
        shared-memory publication go away.  Returns True when every run
        finished within ``timeout`` seconds (or no run was active);
        False when the deadline expired and the pool was torn down with
        work still in flight — those runs degrade to serial-in-parent
        for whatever batches remain, so they still complete correctly.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._dispatch_lock:
                if self._active_runs == 0:
                    self.close()
                    return True
                if deadline is not None and time.monotonic() >= deadline:
                    # deadline expired with runs still merging: condemn the
                    # pool so those runs compute remaining batches in the
                    # parent (degraded = serial, identical output), then
                    # tear it down.  _pool is cleared under the lock so no
                    # merge loop re-dispatches into a dying pool, and the
                    # end-of-run finalizer skips its pool rebuild.
                    self.health.degraded = True
                    pool, self._pool = self._pool, None
                    break
            time.sleep(0.005)
        if pool is not None:
            self._teardown_pool(pool)
        if self._blocks is not None:
            self._blocks.close()
            self._blocks = None
        self._worker_pids = set()
        return False

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
        if self._pool is None:
            return []
        return [p.pid for p in self._pool._pool if p.is_alive()]

    def kill_worker(self, index: int = 0) -> int:
        """SIGKILL one live worker (chaos testing); returns its pid.

        The merge loop notices the death, re-dispatches whatever that
        worker had in flight, and keeps going — callers observe nothing
        but latency.
        """
        pids = self.start().worker_pids()
        if not pids:
            raise RuntimeError("no live workers to kill")
        pid = pids[index % len(pids)]
        os.kill(pid, signal.SIGKILL)
        # arm the stall detector: depending on what the worker was doing
        # when it died, the pool may be wedged rather than self-healing
        self._suspect = True
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

    def _workers_changed(self) -> bool:
        """True when the worker set lost a member since the last snapshot."""
        if self._pool is None:
            return True
        procs = list(self._pool._pool)
        pids = {p.pid for p in procs}
        changed = pids != self._worker_pids or any(
            not p.is_alive() for p in procs
        )
        if changed:
            self._worker_pids = pids
        return changed

    def _submit(self, fn: Callable, local_fn: Callable, payload, attempts=1):
        """Dispatch one batch to the pool, or compute it locally when
        the engine is degraded / the pool refuses work."""
        if not self.health.degraded and self._pool is not None:
            try:
                return _Inflight(
                    payload, self._pool.apply_async(fn, (payload,)), attempts
                )
            except Exception:
                self.health.degraded = True
        self.health.serial_fallback_batches += 1
        return _Inflight(payload, _LocalResult(local_fn(payload)), attempts)

    def _recover_inflight(
        self, fn: Callable, local_fn: Callable, inflight: "deque[_Inflight]"
    ) -> None:
        """A worker died: re-dispatch every batch not yet completed.

        The pool auto-respawns workers (same initializer, so the shared
        index re-attaches); a batch that keeps failing past
        ``max_batch_retries`` is computed in the parent instead, and if
        the pool refuses new work the engine degrades to serial-in-parent
        for everything still pending.  Duplicate execution (the old task
        may still complete elsewhere) is harmless — batches are pure, and
        the superseded AsyncResult is simply never read.
        """
        self.health.worker_failures += 1
        self._suspect = True
        for entry in inflight:
            if isinstance(entry.result, _LocalResult) or entry.result.ready():
                continue
            entry.attempts += 1
            if entry.attempts > self.max_batch_retries or self.health.degraded:
                self.health.serial_fallback_batches += 1
                entry.result = _LocalResult(local_fn(entry.payload))
                continue
            try:
                entry.result = self._pool.apply_async(fn, (entry.payload,))
                self.health.redispatched_batches += 1
            except Exception:
                self.health.degraded = True
                self.health.serial_fallback_batches += 1
                entry.result = _LocalResult(local_fn(entry.payload))

    def _localize_inflight(
        self, local_fn: Callable, inflight: "deque[_Inflight]"
    ) -> None:
        """Compute every not-yet-ready in-flight batch in the parent."""
        for entry in inflight:
            if isinstance(entry.result, _LocalResult) or entry.result.ready():
                continue
            self.health.serial_fallback_batches += 1
            entry.result = _LocalResult(local_fn(entry.payload))

    def _degrade_pool(
        self, local_fn: Callable, inflight: "deque[_Inflight]"
    ) -> None:
        """Declare the pool wedged: serial fallback for everything pending.

        A worker SIGKILLed while blocked reading the shared task queue
        dies holding the queue's read lock, which wedges the whole pool —
        respawned workers block on the dead process's lock and no task is
        ever picked up again.  Re-dispatch cannot fix that, so once
        re-dispatched work stalls past ``stall_timeout`` the engine stops
        trusting the pool: pending batches are computed in the parent
        (identical output, serial speed) and the pool is rebuilt when the
        last active run finishes.
        """
        self.health.degraded = True
        self._localize_inflight(local_fn, inflight)

    def _await_head(
        self,
        fn: Callable,
        local_fn: Callable,
        head: _Inflight,
        inflight: "deque[_Inflight]",
    ):
        """Block until the oldest in-flight batch has a value.

        Waits in ``health_interval`` slices: a timeout is the cue to
        re-check worker liveness, because a batch whose worker was
        SIGKILLed will never complete on its original AsyncResult.  After
        a worker loss, time spent waiting with no completions and no
        further worker churn accumulates toward ``stall_timeout``; hitting
        it means the pool is wedged and the run degrades to serial.
        """
        stalled = 0.0
        while True:
            if isinstance(head.result, _LocalResult):
                return head.result.value
            try:
                return head.result.get(timeout=self.health_interval)
            except mp.TimeoutError:
                with self._dispatch_lock:
                    if self._workers_changed():
                        self._recover_inflight(fn, local_fn, inflight)
                        stalled = 0.0
                        continue
                    if self.health.degraded:
                        # another run's merge loop already condemned the
                        # pool; stop waiting on it immediately
                        self._localize_inflight(local_fn, inflight)
                        continue
                    if self._suspect:
                        stalled += self.health_interval
                        if stalled >= self.stall_timeout:
                            self._degrade_pool(local_fn, inflight)

    def _restart_pool(self) -> None:
        """Replace a wedged pool with a fresh one (call with lock held).

        The shared-memory blocks outlive the pool, so the rebuild is just
        process spawn + re-attach — the index is never re-published.
        """
        if self._pool is not None:
            self._teardown_pool(self._pool)
        self._pool = self._spawn_pool()
        self._worker_pids = {p.pid for p in self._pool._pool}
        self._suspect = False
        self.health.degraded = False
        self.health.pool_restarts += 1

    def _ordered_results(self, fn: Callable, payloads: Iterable) -> Iterator:
        """Yield ``(payload, fn(payload))`` pairs in payload order.

        ``payloads`` may be any iterable — including a live stream whose
        next item is not available yet; dispatch simply blocks pulling it
        while already-submitted batches keep crunching in the pool (this
        is the engine end of the streaming pipeline's backpressure).
        Keeps at most ``max_inflight`` batches dispatched.  If the caller
        stops consuming (early abort), the remaining payloads are never
        pulled and in-flight results are abandoned — the pool stays
        usable for subsequent runs.  Worker deaths are absorbed by
        re-dispatch / serial fallback (see :meth:`_recover_inflight`), a
        wedged pool by degradation (see :meth:`_degrade_pool`) — so the
        stream of results is identical no matter what failed.  When the
        pool was condemned, the last run to finish rebuilds it, keeping
        the engine usable afterwards.
        """
        self.start()
        local_fn = self._local_equivalent(fn)
        with self._dispatch_lock:
            self._active_runs += 1
        try:
            inflight: deque[_Inflight] = deque()
            payload_iter = iter(payloads)
            exhausted = False
            while True:
                while not exhausted and len(inflight) < self.max_inflight:
                    payload = next(payload_iter, _NO_PAYLOAD)
                    if payload is _NO_PAYLOAD:
                        exhausted = True
                        break
                    inflight.append(self._submit(fn, local_fn, payload))
                if not inflight:
                    break
                value = self._await_head(fn, local_fn, inflight[0], inflight)
                head = inflight.popleft()
                yield head.payload, value
        finally:
            with self._dispatch_lock:
                self._active_runs -= 1
                if (
                    self.health.degraded
                    and self._active_runs == 0
                    and self._pool is not None
                ):
                    self._restart_pool()

    # -- runs ------------------------------------------------------------------

    def run(
        self,
        records: Iterable[FastqRecord],
        *,
        reads_total: int | None = None,
        monitor: ProgressMonitorHook | None = None,
        out_dir: Path | str | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> StarRunResult:
        """Parallel equivalent of :meth:`StarAligner.run` (same signature).

        ``records`` may be a lazy iterable (e.g. a streamed chunk feed)
        when ``reads_total`` is given — shards are pulled as they become
        available and results stay byte-identical to the list path.
        ``checkpoint`` works as in :func:`repro.align.runner.run_shards`.
        """
        if reads_total is None:
            records = list(records)
            reads_total = len(records)
        return run_shards(
            SingleEndCodec(self._local_aligner()),
            records,
            total=reads_total,
            shard=self._shard_size(reads_total),
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
        mate1: list[FastqRecord],
        mate2: list[FastqRecord],
        *,
        monitor: ProgressMonitorHook | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> PairedRunResult:
        """Parallel equivalent of :meth:`PairedStarAligner.run`."""
        if len(mate1) != len(mate2):
            raise ValueError("mate lists must have equal length")
        return run_shards(
            PairedEndCodec(self._local_paired_aligner()),
            zip(mate1, mate2),
            total=len(mate1),
            shard=self._shard_size(len(mate1)),
            executor=lambda payloads: self._ordered_results(
                _align_batch_paired, payloads
            ),
            monitor=monitor,
            clock=clock,
            checkpoint=checkpoint,
            health=self.health,
        )
