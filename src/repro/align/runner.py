"""The one shard runner behind every whole-run alignment.

A run's reads arrive as column chunks
(:class:`~repro.reads.fastq.ReadColumns`, or
:class:`~repro.reads.fastq.PairedColumns` for pairs).  The runner cuts
them into shards — column slices, which are also the payloads executors
ship — computes each shard with a pure
per-shard function, and merges the shard values strictly in read order
into one :class:`~repro.align.star.StarRunResult` (single-end) or
:class:`~repro.align.paired.PairedRunResult` (paired-end).  The merge is
where the paper's early stopping (§III-B) lives: a ``Log.progress.out``
snapshot goes out every ``progress_every`` reads, and the monitor hook
may abort the run at any snapshot.  :func:`run_shards` owns all of that
once, together with the shard schedule and shard checkpoints, and works
a shard at a time: snapshot counts come from running sums over the
shard, and an abort keeps a slice of it.  Two things vary per call:

* the **codec** (:class:`SingleEndCodec` / :class:`PairedEndCodec`)
  knows the library layout: the pure per-shard function, the status
  tally and GeneCounts rules, and how the final statistics and the
  result are built.  Single-end shard outcomes are
  :class:`~repro.align.outcome.AlignmentColumns`, tallied and counted
  with array operations; paired-end ones are lists of
  :class:`~repro.align.paired.PairedOutcome`;
* the **executor** decides where shards run.  It maps an iterable of
  payloads to ``(payload, value)`` pairs in payload order: inline (the
  default, a lazy map in this process), the engine's worker pool
  (``ParallelStarAligner._ordered_results``), or FaaS invocations
  (``FaasAlignerBackend._execute_shard``).

Every executor returns exactly what the pure per-shard function returns,
so outcomes, progress cadence, gene counts and abort points are
byte-identical whichever executor ran the shards.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.align.counts import GeneCounts, GeneCountsPartial
from repro.align.outcome import AlignmentColumns
from repro.align.paired import (
    PairedOutcome,
    PairedRunResult,
    PairedStarAligner,
    PairStatus,
)
from repro.align.progress import FinalLogStats, ProgressRecord
from repro.align.star import (
    AlignmentStatus,
    ProgressMonitorHook,
    StarAligner,
    StarRunResult,
)
from repro.reads.fastq import PairedColumns, ReadColumns, as_columns

__all__ = ["PairedEndCodec", "SingleEndCodec", "column_feed", "run_shards"]

#: One shard's value: outcomes (:class:`AlignmentColumns`, or a list of
#: :class:`PairedOutcome`), its GeneCounts partial (None without
#: quantification) and its seed-search counter delta.
ShardValue = tuple[AlignmentColumns | list, GeneCountsPartial | None, dict]

#: Maps payloads to ``(payload, value)`` pairs, in payload order.
Executor = Callable[[Iterable], Iterator[tuple[object, ShardValue]]]

# --------------------------------------------------------------------------
# shard schedule
# --------------------------------------------------------------------------


def _tail_floor(shard: int) -> int:
    """Minimum size worth dispatching as its own final shard."""
    return max(1, shard // 4)


def _shard_bounds(total: int, shard: int) -> list[tuple[int, int]]:
    """Slice bounds for ``total`` reads in ``shard``-sized pieces.

    A degenerate tail (shorter than a quarter shard) is merged into the
    previous shard instead of being dispatched on its own — streaming
    produces arbitrary tail chunks, and a near-empty final dispatch
    costs a full worker round-trip for a handful of reads.  Results are
    unaffected: merging only moves a batch boundary, and outcomes are
    batch-boundary invariant.  These bounds are the keys of shard
    checkpoints; :func:`_iter_shards` yields the same schedule lazily.
    """
    bounds = [
        (start, min(start + shard, total)) for start in range(0, total, shard)
    ]
    if len(bounds) >= 2 and bounds[-1][1] - bounds[-1][0] < _tail_floor(shard):
        start, end = bounds.pop()
        prev_start, _ = bounds.pop()
        bounds.append((prev_start, end))
    return bounds


def _regroup(chunks: Iterable, size: int) -> Iterator:
    """Re-cut a feed of column chunks into ``size``-read groups (the last
    may be short), pulling no chunk before its reads are needed."""
    parts: list = []
    have = 0
    for chunk in chunks:
        start = 0
        while start < len(chunk):
            take = min(size - have, len(chunk) - start)
            parts.append(chunk[start : start + take])
            have += take
            start += take
            if have == size:
                yield type(chunk).concat(parts)
                parts, have = [], 0
    if have:
        yield type(parts[0]).concat(parts)


def _iter_shards(
    chunks: Iterable, shard: int, *, hold_back: bool = True
) -> Iterator:
    """Lazily shard a feed of column chunks, merging a degenerate tail.

    Chunks (:class:`~repro.reads.fastq.ReadColumns`, or
    :class:`~repro.reads.fastq.PairedColumns` for pairs) are sliced and
    joined into ``shard``-read column shards whatever their own sizes.
    One full shard is held back so the final short tail (when smaller
    than :func:`_tail_floor`) can be merged into it — the streaming
    equivalent of :func:`_shard_bounds`, pulling no more than one shard
    ahead of what has been dispatched.  ``hold_back=False`` yields plain
    ``shard``-sized groups instead, pulling nothing ahead: the inline
    executor aligns each group as soon as its reads arrive.
    """
    groups = _regroup(chunks, shard)
    if not hold_back:
        yield from groups
        return
    held = next(groups, None)
    if held is None:
        return
    for nxt in groups:
        if len(nxt) < _tail_floor(shard):
            # a short group is the last one
            yield type(held).concat([held, nxt])
            return
        yield held
        held = nxt
    yield held


def column_feed(reads, total: int | None, mate2=None) -> tuple[Iterable, int]:
    """A run's reads as the runner's chunk feed, with the read total.

    Without ``total``, ``reads`` is one batch — columns, a record list
    converted here, once (both mates' when ``mate2`` is given), or
    :class:`~repro.reads.fastq.PairedColumns`.  With it, ``reads`` is
    already a lazy feed of column chunks (a streamed download) and
    passes through untouched.
    """
    if total is not None:
        return reads, total
    if mate2 is not None:
        reads = PairedColumns(as_columns(reads), as_columns(mate2))
    elif not isinstance(reads, PairedColumns):
        reads = as_columns(reads)
    return [reads], len(reads)


# --------------------------------------------------------------------------
# codecs: what differs by library layout
# --------------------------------------------------------------------------


class _Codec:
    """What both layouts share.

    :meth:`align` is the pure per-shard function: pool workers, the
    engine's serial fallback, FaaS invocations and the inline executor
    all run it, so a shard's value is the same wherever it ran.  An
    instance used by :func:`run_shards` also carries that run's tally.
    """

    def __init__(self, aligner: StarAligner, quant: bool, progress_every: int):
        self.aligner = aligner
        #: the annotation to count against; None without quantification
        self.annotation = aligner.index.annotation if quant else None
        self.progress_every = progress_every
        self.batch_align = aligner.parameters.batch_align

    def align(self, payload) -> ShardValue:
        stats = self.aligner.index.search_context.stats
        before = stats.snapshot()
        outcomes = self._outcomes(payload)
        partial = None
        if self.annotation is not None:
            counts = GeneCounts(self.annotation)
            self.count(counts, outcomes)
            partial = counts.to_partial()
        return outcomes, partial, stats.since(before)

    def _final(self, outcomes, *, total, elapsed, aborted, **by_status):
        unique, multi = self.mapped()
        return FinalLogStats(
            reads_total=total,
            reads_processed=len(outcomes),
            mapped_unique=unique,
            mapped_multi=multi,
            elapsed_seconds=elapsed,
            aborted=aborted,
            **by_status,
        )


class SingleEndCodec(_Codec):
    """Single-end layout: shards are :class:`ReadColumns`."""

    def __init__(self, aligner: StarAligner) -> None:
        params = aligner.parameters
        super().__init__(aligner, params.quant_gene_counts, params.progress_every)
        self.unique = self.multi = self.too_many = self.unmapped = 0
        self.spliced = self.mismatch_bases = self.aligned_bases = 0

    def _outcomes(self, reads: ReadColumns) -> AlignmentColumns:
        # the vectorized batch core, or the per-read oracle when
        # StarParameters.batch_align is off
        return self.aligner.align_batch(reads)

    @staticmethod
    def count(counts: GeneCounts, outcomes: AlignmentColumns) -> None:
        """GeneCounts rule: unique reads are assigned to genes."""
        counts.record_columns(outcomes)

    @staticmethod
    def join(parts: list[AlignmentColumns]) -> AlignmentColumns:
        return AlignmentColumns.concat(parts)

    @staticmethod
    def mapped_flags(outcomes: AlignmentColumns) -> tuple[np.ndarray, np.ndarray]:
        """Per-read (unique, multimapped) flags, for progress snapshots."""
        return (
            outcomes.status_is(AlignmentStatus.UNIQUE),
            outcomes.status_is(AlignmentStatus.MULTIMAPPED),
        )

    def tally(self, outcomes: AlignmentColumns) -> None:
        unique, multi, too_many, unmapped = np.bincount(
            outcomes.status, minlength=4
        ).tolist()
        self.unique += unique
        self.multi += multi
        self.too_many += too_many
        self.unmapped += unmapped
        is_unique = outcomes.status_is(AlignmentStatus.UNIQUE)
        self.spliced += int(np.count_nonzero(outcomes.spliced[is_unique]))
        self.mismatch_bases += int(outcomes.mismatches[is_unique].sum())
        # the blocks tile the read (whole, or prefix + remainder), so
        # their lengths sum to the read length
        self.aligned_bases += int(outcomes.block_lengths()[is_unique].sum())

    def mapped(self) -> tuple[int, int]:
        """``(unique, multi)`` as the progress file reports them."""
        return self.unique, self.multi

    def result(self, outcomes, progress, counts, *, out_dir, **run) -> StarRunResult:
        final = self._final(
            outcomes,
            too_many_loci=self.too_many,
            unmapped=self.unmapped,
            mismatch_rate=(
                self.mismatch_bases / self.aligned_bases
                if self.aligned_bases
                else 0.0
            ),
            spliced_reads=self.spliced,
            **run,
        )
        result = StarRunResult(outcomes, progress, final, counts, final.aborted)
        if out_dir is not None:
            result.write_outputs(out_dir)
        return result


class PairedEndCodec(_Codec):
    """Paired layout: shards are :class:`PairedColumns`.

    Progress counts pairs.  Paired runs keep their results in memory, so
    ``out_dir`` is ignored.
    """

    def __init__(self, paired: PairedStarAligner) -> None:
        params = paired.parameters
        super().__init__(
            paired.aligner, params.quant_gene_counts, params.progress_every
        )
        self.paired = paired
        self.proper = self.one_mate = self.discordant = 0
        self.multi = self.unmapped = self.spliced = 0

    def _outcomes(self, pairs: PairedColumns) -> list[PairedOutcome]:
        # both mate columns go through the batch core whole, then pairing
        # runs per pair
        mates1 = self.aligner.align_batch(pairs.mate1)
        mates2 = self.aligner.align_batch(pairs.mate2)
        return [
            self.paired._pair_outcome(rid, m1, m2)
            for rid, m1, m2 in zip(pairs.mate1.ids, mates1, mates2)
        ]

    @staticmethod
    def count(counts: GeneCounts, outcomes: list[PairedOutcome]) -> None:
        """GeneCounts rule: each pair counts once, via its unique mates."""
        for outcome in outcomes:
            if outcome.status is PairStatus.PROPER_PAIR:
                blocks = list(outcome.mate1.blocks) + list(outcome.mate2.blocks)
                counts.record_unique(blocks, outcome.mate1.strand)
            elif outcome.status is PairStatus.ONE_MATE:
                unique = (
                    outcome.mate1
                    if outcome.mate1.status is AlignmentStatus.UNIQUE
                    else outcome.mate2
                )
                counts.record_unique(list(unique.blocks), unique.strand)
            elif outcome.status in (PairStatus.DISCORDANT, PairStatus.MULTIMAPPED):
                counts.record_multimapped()
            else:
                counts.record_unmapped()

    @staticmethod
    def join(parts: list[list[PairedOutcome]]) -> list[PairedOutcome]:
        return [outcome for part in parts for outcome in part]

    @staticmethod
    def mapped_flags(outcomes: list[PairedOutcome]) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair flags for the progress file's (unique, multi) counts."""
        multi = np.array([o.status is PairStatus.MULTIMAPPED for o in outcomes], bool)
        mapped = np.array([o.status.is_mapped for o in outcomes], bool)
        return mapped & ~multi, multi

    def tally(self, outcomes: list[PairedOutcome]) -> None:
        for outcome in outcomes:
            status = outcome.status
            if status is PairStatus.PROPER_PAIR:
                self.proper += 1
            elif status is PairStatus.ONE_MATE:
                self.one_mate += 1
            elif status is PairStatus.DISCORDANT:
                self.discordant += 1
            elif status is PairStatus.MULTIMAPPED:
                self.multi += 1
            else:
                self.unmapped += 1
            self.spliced += outcome.mate1.spliced or outcome.mate2.spliced

    def mapped(self) -> tuple[int, int]:
        return self.proper + self.one_mate + self.discordant, self.multi

    def result(self, outcomes, progress, counts, *, out_dir, **run) -> PairedRunResult:
        final = self._final(
            outcomes,
            too_many_loci=0,
            unmapped=self.unmapped,
            mismatch_rate=0.0,
            spliced_reads=self.spliced,
            **run,
        )
        return PairedRunResult(outcomes, progress, final, counts, final.aborted)


# --------------------------------------------------------------------------
# the runner
# --------------------------------------------------------------------------


def _inline(align: Callable[[object], ShardValue]) -> Executor:
    """The in-process executor: a lazy map, one shard at a time."""
    return lambda payloads: ((payload, align(payload)) for payload in payloads)


def _in_order(shards: Iterator, execute: Executor, checkpoint):
    """Yield ``(span, value, replayed)`` for every shard, in order.

    Shards the checkpoint already holds are served from it; only the
    rest are handed to ``execute`` (a shard's columns are its payload).
    The executor pulls the schedule itself, as far ahead as it likes, so
    ``pending`` queues what it has pulled until the merge reaches it.
    """
    pending: deque = deque()

    def live_payloads():
        start = 0
        for reads in shards:
            span = (start, start + len(reads))
            start = span[1]
            hit = checkpoint.load(*span) if checkpoint is not None else None
            pending.append((span, hit))
            if hit is None:
                yield reads

    live = execute(live_payloads())
    try:
        for _payload, value in live:
            # cached shards ahead of this live one merge first
            while pending[0][1] is not None:
                span, hit = pending.popleft()
                yield span, hit, True
            span, _ = pending.popleft()
            yield span, value, False
        for span, hit in pending:  # trailing cached shards
            yield span, hit, True
    finally:
        # close now, so the engine's end-of-run bookkeeping runs before
        # the run returns rather than at garbage collection
        live.close()


def run_shards(
    codec: SingleEndCodec | PairedEndCodec,
    chunks: Iterable,
    *,
    total: int,
    shard: int,
    executor: Executor | None = None,
    hold_back: bool = True,
    monitor: ProgressMonitorHook | None = None,
    clock: Callable[[], float] = time.monotonic,
    checkpoint=None,
    health=None,
    out_dir: Path | str | None = None,
):
    """Align ``chunks`` shard by shard and merge them into one run result.

    ``chunks`` is a feed of column chunks (:class:`ReadColumns`, or
    :class:`PairedColumns` for pairs; see :func:`column_feed`) and may be
    lazy; ``total`` is the read count progress records report.  Shards
    are ``shard`` reads long (see :func:`_iter_shards` for
    ``hold_back``) and run on ``executor`` (inline when None).

    The monitor sees every progress snapshot in read order; returning
    False aborts the run at that read — the rest of the shard is
    discarded and nothing further is pulled.  Gene counts come from the
    shard's partial when the shard was consumed whole, else from a
    recount of the consumed prefix, so they always match the outcomes.

    ``checkpoint`` (a :class:`repro.core.replication.ShardCheckpointer`)
    serves shards the journal already holds instead of running them, and
    records each live shard once it is merged whole and the run has not
    aborted.  ``health`` (an engine's ``EngineHealth``) counts every
    merged shard, replayed ones included.
    """
    started = clock()
    parts: list = []
    processed = 0
    progress: list[ProgressRecord] = []
    counts = GeneCounts(codec.annotation) if codec.annotation is not None else None
    every = codec.progress_every
    aborted = False

    def report(processed: int, unique: int, multi: int) -> bool:
        """Log a progress snapshot; True when the monitor says stop."""
        record = ProgressRecord(
            elapsed_seconds=max(0.0, clock() - started),
            reads_processed=processed,
            reads_total=total,
            mapped_unique=unique,
            mapped_multi=multi,
        )
        progress.append(record)
        return monitor is not None and not monitor(record)

    merged = _in_order(
        _iter_shards(chunks, shard, hold_back=hold_back),
        executor if executor is not None else _inline(codec.align),
        checkpoint,
    )
    try:
        for span, value, replayed in merged:
            shard_outcomes, partial, seed_stats = value
            if health is not None:
                health.seed_search.merge(seed_stats)
                if codec.batch_align:
                    health.batch_core_batches += 1
            # a snapshot is due each time the running read count reaches
            # a multiple of ``every``: after ``end`` reads of this shard,
            # for each ``end`` in ``ends``
            n = len(shard_outcomes)
            consumed = n
            ends = range(every - processed % every, n + 1, every)
            if ends:
                unique, multi = codec.mapped()
                unique_flags, multi_flags = codec.mapped_flags(shard_outcomes)
                unique_run = np.cumsum(unique_flags)
                multi_run = np.cumsum(multi_flags)
                for end in ends:
                    if report(
                        processed + end,
                        unique + int(unique_run[end - 1]),
                        multi + int(multi_run[end - 1]),
                    ):
                        aborted = True
                        consumed = end
                        break
            whole = consumed == n
            kept = shard_outcomes if whole else shard_outcomes[:consumed]
            parts.append(kept)
            codec.tally(kept)
            processed += consumed
            if counts is not None:
                if whole and partial is not None:
                    counts.merge_partial(partial)
                else:
                    codec.count(counts, kept)
            if checkpoint is not None and whole and not replayed and not aborted:
                checkpoint.record(*span, shard_outcomes, partial, seed_stats)
            if aborted:
                break
    finally:
        merged.close()

    # closing snapshot (STAR writes a last progress line at completion);
    # an abort always happens right after a snapshot, so none is due then
    if not progress or progress[-1].reads_processed != processed:
        aborted = report(processed, *codec.mapped())
    return codec.result(
        codec.join(parts),
        progress,
        counts,
        total=total,
        elapsed=max(0.0, clock() - started),
        aborted=aborted,
        out_dir=out_dir,
    )
