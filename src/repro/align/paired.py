"""Paired-end alignment on top of the single-read STAR-like core.

STAR aligns mates jointly; this implementation takes the standard
two-phase approximation — align each mate with the single-read machinery,
then *pair* the placements: a proper pair has both mates on the same
contig, on opposite strands, in inward-facing (FR) orientation, with a
template length within configured bounds.  Pair-level classification and
GeneCounts count each *pair* once, as STAR does with ``--quantMode
GeneCounts`` on paired data.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import time

from repro.align.counts import GeneCounts
from repro.align.progress import FinalLogStats, ProgressRecord
from repro.align.star import (
    ReadAlignment,
    AlignmentStatus,
    StarAligner,
)
from repro.genome.annotation import Strand
from repro.reads.fastq import FastqRecord, ReadColumns
from repro.util.validation import check_positive


class PairStatus(enum.Enum):
    """Pair-level classification."""

    PROPER_PAIR = "proper_pair"  # both unique, FR orientation, TLEN in bounds
    DISCORDANT = "discordant"  # both mapped uniquely, geometry wrong
    ONE_MATE = "one_mate"  # exactly one mate mapped uniquely
    MULTIMAPPED = "multimapped"  # either mate multimapped (no unique pair)
    UNMAPPED = "unmapped"  # neither mate mapped

    @property
    def is_mapped(self) -> bool:
        """Counts toward the progress mapping rate (STAR counts pairs with
        at least a unique or multi placement)."""
        return self in (
            PairStatus.PROPER_PAIR,
            PairStatus.DISCORDANT,
            PairStatus.ONE_MATE,
            PairStatus.MULTIMAPPED,
        )


@dataclass(frozen=True)
class PairedParameters:
    """Pairing geometry (STAR option analogues)."""

    #: accepted template length range (``--alignMatesGapMax`` spirit)
    min_template: int = 50
    max_template: int = 2000
    progress_every: int = 500
    quant_gene_counts: bool = True

    def __post_init__(self) -> None:
        check_positive("min_template", self.min_template)
        if self.max_template < self.min_template:
            raise ValueError("max_template must be >= min_template")
        check_positive("progress_every", self.progress_every)


@dataclass(frozen=True)
class PairedOutcome:
    """Result of aligning one read pair."""

    pair_id: str
    status: PairStatus
    mate1: ReadAlignment
    mate2: ReadAlignment
    template_length: int | None = None

    @property
    def contig(self) -> str | None:
        if self.mate1.blocks:
            return self.mate1.blocks[0].contig
        if self.mate2.blocks:
            return self.mate2.blocks[0].contig
        return None


@dataclass
class PairedRunResult:
    """Whole-run output for a paired sample."""

    outcomes: list[PairedOutcome]
    progress: list[ProgressRecord]
    final: FinalLogStats
    gene_counts: GeneCounts | None
    aborted: bool

    @property
    def proper_pair_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return (
            sum(o.status is PairStatus.PROPER_PAIR for o in self.outcomes)
            / len(self.outcomes)
        )

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction

    def template_lengths(self) -> list[int]:
        """TLENs of proper pairs (insert-size distribution)."""
        return [
            o.template_length
            for o in self.outcomes
            if o.status is PairStatus.PROPER_PAIR and o.template_length
        ]


def _span(outcome: ReadAlignment) -> tuple[int, int] | None:
    """(start, end) of an outcome's footprint on its contig."""
    if not outcome.blocks:
        return None
    return outcome.blocks[0].start, outcome.blocks[-1].end


class PairedStarAligner:
    """Paired-end façade over a single-read :class:`StarAligner`."""

    def __init__(
        self,
        aligner: StarAligner,
        parameters: PairedParameters | None = None,
    ) -> None:
        self.aligner = aligner
        self.parameters = parameters or PairedParameters()

    def classify_pair(
        self, m1: ReadAlignment, m2: ReadAlignment
    ) -> tuple[PairStatus, int | None]:
        """Pair two mate outcomes into a status and template length."""
        u1 = m1.status is AlignmentStatus.UNIQUE
        u2 = m2.status is AlignmentStatus.UNIQUE
        mapped1 = m1.status.is_mapped
        mapped2 = m2.status.is_mapped
        if not mapped1 and not mapped2:
            return PairStatus.UNMAPPED, None
        if u1 and u2:
            s1, s2 = _span(m1), _span(m2)
            same_contig = (
                m1.blocks[0].contig == m2.blocks[0].contig
            )
            opposite = (
                m1.strand is not None
                and m2.strand is not None
                and m1.strand is not m2.strand
            )
            if same_contig and opposite and s1 and s2:
                left, right = (s1, s2) if s1[0] <= s2[0] else (s2, s1)
                tlen = right[1] - left[0]
                # FR orientation: the leftmost mate must be the forward one
                forward_first = (
                    (m1.strand is Strand.FORWARD and s1[0] <= s2[0])
                    or (m2.strand is Strand.FORWARD and s2[0] <= s1[0])
                )
                if (
                    forward_first
                    and self.parameters.min_template
                    <= tlen
                    <= self.parameters.max_template
                ):
                    return PairStatus.PROPER_PAIR, tlen
            return PairStatus.DISCORDANT, None
        if (u1 and not mapped2) or (u2 and not mapped1):
            return PairStatus.ONE_MATE, None
        return PairStatus.MULTIMAPPED, None

    def align_pair(
        self, record1: FastqRecord, record2: FastqRecord
    ) -> PairedOutcome:
        """Align both mates and pair them."""
        m1 = self.aligner.align_read(record1)
        m2 = self.aligner.align_read(record2)
        return self._pair_outcome(record1.read_id, m1, m2)

    def _pair_outcome(
        self, mate1_id: str, m1: ReadAlignment, m2: ReadAlignment
    ) -> PairedOutcome:
        """Pair two already-aligned mate outcomes."""
        status, tlen = self.classify_pair(m1, m2)
        pair_id = mate1_id.rsplit("/", 1)[0]
        return PairedOutcome(
            pair_id=pair_id, status=status, mate1=m1, mate2=m2,
            template_length=tlen,
        )

    def run(
        self,
        mate1: ReadColumns | list[FastqRecord] | Iterable,
        mate2: ReadColumns | list[FastqRecord] | None = None,
        *,
        reads_total: int | None = None,
        monitor: Callable[[ProgressRecord], bool] | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint=None,
    ) -> PairedRunResult:
        """Align a paired sample with progress reporting and early abort.

        Progress counts *pairs*; the monitor hook and abort semantics match
        the single-end driver, so :class:`~repro.core.early_stopping.
        EarlyStopMonitor` plugs in unchanged.  Both mates (columns, or
        record lists converted on entry) go through the batch core in
        ``align_batch_size`` groups.  When ``reads_total`` is given,
        ``mate1`` is instead a lazy feed of
        :class:`~repro.reads.fastq.PairedColumns` chunks (e.g. a streamed
        download) and ``mate2`` is None.  ``checkpoint`` turns on shard
        checkpoints (see :func:`repro.align.runner.run_shards`).
        """
        from repro.align.runner import PairedEndCodec, column_feed, run_shards

        feed, total = column_feed(mate1, reads_total, mate2)
        return run_shards(
            PairedEndCodec(self),
            feed,
            total=total,
            shard=self.aligner.parameters.align_batch_size,
            hold_back=False,
            monitor=monitor,
            clock=clock,
            checkpoint=checkpoint,
        )
