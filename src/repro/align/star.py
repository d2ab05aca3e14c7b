"""The STAR-like aligner driver.

Ties the pieces together the way STAR 2.7 does at the architectural level:
MMP seeding against the suffix-array index, mismatch-budgeted extension,
splice stitching, both-strand search, unique/multi/unmapped classification
with a multimapping cap, optional GeneCounts quantification, periodic
``Log.progress.out`` snapshots, and a monitor hook that can abort the run —
the integration point for the paper's early-stopping optimization.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.align.counts import GeneCounts
from repro.align.extend import ScoringParams, ungapped_extend
from repro.align.index import GenomeIndex
from repro.align.progress import (
    FinalLogStats,
    ProgressRecord,
    write_final_log,
    write_progress_log,
)
from repro.align.seeds import maximal_mappable_prefix
from repro.align.splice import (
    DEFAULT_MAX_INTRON,
    DEFAULT_MIN_INTRON,
    SplicedAlignment,
    stitch_spliced,
)
from repro.genome.alphabet import reverse_complement
from repro.genome.annotation import Strand
from repro.genome.model import SequenceRegion
from repro.reads.fastq import FastqRecord, ReadColumns

if TYPE_CHECKING:
    from repro.align.outcome import AlignmentColumns


class AlignmentStatus(enum.Enum):
    """Classification of one read, following STAR's Log.final.out buckets."""

    UNIQUE = "unique"
    MULTIMAPPED = "multimapped"
    TOO_MANY_LOCI = "too_many_loci"
    UNMAPPED = "unmapped"

    @property
    def is_mapped(self) -> bool:
        """Counts toward the progress file's 'mapped %' (unique + multi)."""
        return self in (AlignmentStatus.UNIQUE, AlignmentStatus.MULTIMAPPED)


@dataclass(frozen=True)
class StarParameters:
    """Run parameters (named after the corresponding STAR options)."""

    scoring: ScoringParams = field(default_factory=ScoringParams)
    #: ``--outFilterMultimapNmax``: more loci than this → too_many_loci
    multimap_nmax: int = 10
    #: cap on SA hits examined per seed (``--seedMultimapNmax`` spirit)
    seed_multimap_nmax: int = 50
    min_intron: int = DEFAULT_MIN_INTRON
    max_intron: int = DEFAULT_MAX_INTRON
    #: emit a progress record every N reads
    progress_every: int = 1000
    #: compute GeneCounts (``--quantMode GeneCounts``)
    quant_gene_counts: bool = True
    #: route reads through the vectorized batch core
    #: (:mod:`repro.align.batch`); the per-read path stays available as
    #: the reference oracle
    batch_align: bool = True
    #: reads per batch-core call inside :meth:`StarAligner.run`
    align_batch_size: int = 512

    def __post_init__(self) -> None:
        if self.multimap_nmax < 1:
            raise ValueError("multimap_nmax must be >= 1")
        if self.progress_every < 1:
            raise ValueError("progress_every must be >= 1")
        if self.align_batch_size < 1:
            raise ValueError("align_batch_size must be >= 1")


@dataclass(frozen=True)
class ReadAlignment:
    """Result of aligning one read."""

    read_id: str
    status: AlignmentStatus
    strand: Strand | None = None
    score: int = 0
    n_loci: int = 0
    mismatches: int = 0
    blocks: tuple[SequenceRegion, ...] = ()
    spliced: bool = False


class _Candidate(NamedTuple):
    """Internal: one scored placement of one read orientation (the
    per-read path's)."""

    score: int
    genome_start: int
    mismatches: int
    blocks: tuple[tuple[int, int], ...]  # absolute (start, end) pairs
    spliced: bool


#: ``(status, strand, chosen, n_loci)``, see :meth:`StarAligner._choose`
Choice = tuple[AlignmentStatus, Strand | None, _Candidate | None, int]


class RunAborted(Exception):
    """Raised internally when the monitor requests termination."""


@dataclass
class StarRunResult:
    """Everything a run produces (STAR's output directory, in-memory).

    ``outcomes`` are :class:`~repro.align.outcome.AlignmentColumns`;
    indexing or iterating them yields :class:`ReadAlignment` objects.
    """

    outcomes: AlignmentColumns
    progress: list[ProgressRecord]
    final: FinalLogStats
    gene_counts: GeneCounts | None
    aborted: bool

    @property
    def mapped_fraction(self) -> float:
        return self.final.mapped_fraction

    def write_outputs(self, out_dir: Path | str) -> dict[str, Path]:
        """Write Log.progress.out, Log.final.out and ReadsPerGene.out.tab."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "progress": out_dir / "Log.progress.out",
            "final": out_dir / "Log.final.out",
        }
        write_progress_log(self.progress, paths["progress"])
        write_final_log(self.final, paths["final"])
        if self.gene_counts is not None:
            paths["counts"] = out_dir / "ReadsPerGene.out.tab"
            self.gene_counts.write_tab(paths["counts"])
        return paths

    def write_sam(
        self,
        records: list[FastqRecord],
        index: GenomeIndex,
        path: Path | str,
    ) -> int:
        """Write ``Aligned.out.sam`` for this run's outcomes.

        ``records`` must be the same reads the run aligned, in order; an
        aborted run accepts the full list and writes only the processed
        prefix.
        """
        from repro.align.sam import write_sam

        processed = records[: len(self.outcomes)]
        return write_sam(processed, self.outcomes, index, path)


#: Monitor signature: receives each progress record, returns False to abort.
ProgressMonitorHook = Callable[[ProgressRecord], bool]


class StarAligner:
    """Spliced aligner over one :class:`~repro.align.index.GenomeIndex`."""

    def __init__(
        self, index: GenomeIndex, parameters: StarParameters | None = None
    ) -> None:
        self.index = index
        self.parameters = parameters or StarParameters()

    # -- single read ---------------------------------------------------------

    def align_read(self, record: FastqRecord) -> ReadAlignment:
        """Align one read on both strands; classify per STAR's rules."""
        fwd = record.sequence
        if fwd.size == 0:
            # zero-length reads (aggressive trimming, malformed FASTQ) can
            # never seed: skip the reverse complement and candidate search
            return ReadAlignment(record.read_id, AlignmentStatus.UNMAPPED)
        rev = reverse_complement(fwd)
        fwd_cands = self._align_oriented(fwd)
        rev_cands = self._align_oriented(rev)
        return self._classify(record.read_id, fwd_cands, rev_cands)

    def align_batch(
        self, reads: ReadColumns | list[FastqRecord]
    ) -> AlignmentColumns:
        """Align a batch of reads; uses the batch core when enabled.

        Dispatching whole batches amortizes per-read Python overhead into
        vectorized kernels (see :mod:`repro.align.batch`); results are
        bit-identical to mapping :meth:`align_read` over the reads, which
        is what runs (on records) when ``batch_align`` is off.  Either
        way the outcomes come back as columns.
        """
        if self.parameters.batch_align:
            from repro.align.batch import align_read_batch

            return align_read_batch(self, reads)
        from repro.align.outcome import AlignmentColumns

        if isinstance(reads, ReadColumns):
            reads = reads.records()
        return AlignmentColumns.from_records(
            self.align_read(record) for record in reads
        )

    def _classify(
        self,
        read_id: str,
        fwd_cands: list[_Candidate],
        rev_cands: list[_Candidate],
    ) -> ReadAlignment:
        """Classify one read's candidate sets (the per-read path)."""
        status, strand, chosen, n_loci = self._choose(fwd_cands, rev_cands)
        if chosen is None:
            return ReadAlignment(read_id, status, n_loci=n_loci)
        blocks = []
        for start, end in chosen.blocks:
            contig, local = self.index.to_contig_coords(start)
            blocks.append(SequenceRegion(contig, local, local + (end - start)))
        return ReadAlignment(
            read_id=read_id,
            status=status,
            strand=strand,
            score=chosen.score,
            n_loci=n_loci,
            mismatches=chosen.mismatches,
            blocks=tuple(blocks),
            spliced=chosen.spliced,
        )

    def _choose(
        self, fwd_cands: list[_Candidate], rev_cands: list[_Candidate]
    ) -> Choice:
        """Pick a read's reported placement per STAR's rules.

        The per-read oracle of the batch core's columnar classification
        (:func:`repro.align.batch._choose_columns`).  Returns ``(status,
        strand, chosen, n_loci)``; ``chosen`` is None when the read is
        unmapped or maps to too many loci.
        """
        if not fwd_cands and not rev_cands:
            return AlignmentStatus.UNMAPPED, None, None, 0
        if (
            len(fwd_cands) + len(rev_cands) == 1
            and self.parameters.multimap_nmax >= 1
        ):
            # one candidate: it is the best (and only) locus — skip the
            # general case's set/minimum machinery, which dominates
            # classification time on typical unique-hit workloads
            chosen = fwd_cands[0] if fwd_cands else rev_cands[0]
            if chosen.score < 0:
                return AlignmentStatus.UNMAPPED, None, None, 0
            strand = Strand.FORWARD if fwd_cands else Strand.REVERSE
            return AlignmentStatus.UNIQUE, strand, chosen, 1
        best_score = -1
        for cand in fwd_cands + rev_cands:
            best_score = max(best_score, cand.score)
        if best_score < 0:
            return AlignmentStatus.UNMAPPED, None, None, 0

        best_fwd = [c for c in fwd_cands if c.score == best_score]
        best_rev = [c for c in rev_cands if c.score == best_score]
        # distinct loci across both strands
        loci = {(c.genome_start, True) for c in best_fwd} | {
            (c.genome_start, False) for c in best_rev
        }
        n_loci = len(loci)
        if n_loci > self.parameters.multimap_nmax:
            return AlignmentStatus.TOO_MANY_LOCI, None, None, n_loci
        status = (
            AlignmentStatus.UNIQUE if n_loci == 1 else AlignmentStatus.MULTIMAPPED
        )
        chosen = min(
            best_fwd + best_rev, key=lambda c: (c.mismatches, c.genome_start)
        )
        strand = Strand.FORWARD if chosen in best_fwd else Strand.REVERSE
        return status, strand, chosen, n_loci

    def _align_oriented(self, read: np.ndarray) -> list[_Candidate]:
        """All acceptable placements of one read orientation."""
        params = self.parameters
        scoring = params.scoring
        n = int(read.size)
        # one numpy->list conversion per orientation, shared by the prefix
        # seed and the error-bridge re-seed below
        read_list = read.tolist()
        seed = maximal_mappable_prefix(
            self.index, read, max_hits=params.seed_multimap_nmax,
            read_list=read_list,
        )
        candidates: list[_Candidate] = []
        if seed.length == 0:
            return candidates

        seen_starts: set[int] = set()
        for p in seed.positions:
            # Path 1: contiguous placement anchored at the seed position.
            ext = ungapped_extend(
                self.index, read, p, max_mismatches=scoring.max_mismatches
            )
            if ext.ok and scoring.accepts(ext.matched, ext.mismatches, n):
                if p not in seen_starts:
                    seen_starts.add(p)
                    candidates.append(
                        _Candidate(
                            score=scoring.score(ext.matched, ext.mismatches),
                            genome_start=p,
                            mismatches=ext.mismatches,
                            blocks=((p, p + n),),
                            spliced=False,
                        )
                    )
                continue
            # Path 2: spliced placement — prefix here, remainder after an intron.
            if seed.length < n:
                spliced = stitch_spliced(
                    self.index,
                    read,
                    seed.length,
                    p,
                    scoring=scoring,
                    min_intron=params.min_intron,
                    max_intron=params.max_intron,
                )
                if spliced is not None and scoring.accepts(
                    spliced.aligned_length - spliced.mismatches,
                    spliced.mismatches,
                    n,
                ):
                    candidates.append(self._spliced_candidate(spliced, scoring))

        # Path 3: error bridge — a mismatch near the read start truncates the
        # prefix seed; re-seed one base past it and back-project the start.
        if not candidates and 0 < seed.length < n:
            bridge_start = seed.length + 1
            if n - bridge_start >= 12:
                second = maximal_mappable_prefix(
                    self.index,
                    read,
                    read_start=bridge_start,
                    max_hits=params.seed_multimap_nmax,
                    read_list=read_list,
                )
                for q in second.positions:
                    p = q - bridge_start
                    if p < 0 or p in seen_starts:
                        continue
                    ext = ungapped_extend(
                        self.index, read, p, max_mismatches=scoring.max_mismatches
                    )
                    if ext.ok and scoring.accepts(ext.matched, ext.mismatches, n):
                        seen_starts.add(p)
                        candidates.append(
                            _Candidate(
                                score=scoring.score(ext.matched, ext.mismatches),
                                genome_start=p,
                                mismatches=ext.mismatches,
                                blocks=((p, p + n),),
                                spliced=False,
                            )
                        )
        return candidates

    def _spliced_candidate(
        self, spliced: SplicedAlignment, scoring: ScoringParams
    ) -> _Candidate:
        matched = spliced.aligned_length - spliced.mismatches
        return _Candidate(
            score=scoring.score(matched, spliced.mismatches),
            genome_start=spliced.genome_start,
            mismatches=spliced.mismatches,
            blocks=tuple(
                (s.genome_start, s.genome_start + s.length) for s in spliced.segments
            ),
            spliced=True,
        )

    # -- whole run -------------------------------------------------------------

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
        """Align a run's reads, reporting progress and honouring a monitor.

        ``monitor`` receives every :class:`ProgressRecord`; returning False
        aborts the run (the early-stopping integration point).  Partial
        results are still classified, logged, and (if ``out_dir`` is given)
        written out — matching how the paper's pipeline salvages statistics
        from terminated runs.

        ``reads`` is a :class:`~repro.reads.fastq.ReadColumns` or a list
        of records.  When ``reads_total`` is given, it is instead a lazy
        feed of column chunks (e.g. a streamed download): reads are pulled
        as consumed, one ``align_batch_size`` group at a time, with
        byte-identical results.  ``checkpoint`` turns on shard
        checkpoints (see :func:`repro.align.runner.run_shards`).
        """
        from repro.align.runner import SingleEndCodec, column_feed, run_shards

        feed, total = column_feed(reads, reads_total)
        return run_shards(
            SingleEndCodec(self),
            feed,
            total=total,
            shard=self.parameters.align_batch_size,
            hold_back=False,
            monitor=monitor,
            clock=clock,
            checkpoint=checkpoint,
            out_dir=out_dir,
        )
