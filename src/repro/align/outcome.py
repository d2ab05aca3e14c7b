"""The run-result surface shared by every whole-run alignment backend.

:class:`~repro.align.star.StarRunResult` (single-end) and
:class:`~repro.align.paired.PairedRunResult` (paired-end) used to share
their consumer-facing surface only *by convention* — the pipeline, the
early-stopping monitor plumbing, and the parallel engine all relied on a
code comment promising that both "expose ``final``, ``aborted``,
``gene_counts`` and ``mapped_fraction``".  :class:`AlignmentOutcome`
states that contract as a structural :class:`~typing.Protocol`, so new
backends (and the resilience layer that wraps them) are typed against
one interface instead of a union of concrete classes.

Per-read results travel as :class:`AlignmentColumns`: one shard's
outcomes as arrays, from the batch core through the shard merge and
GeneCounts to the journal.  A :class:`~repro.align.star.ReadAlignment`
is built only when someone indexes or iterates the columns (SAM output,
paired-end pairing, tests).

Naming note: through v0 the name ``AlignmentOutcome`` referred to the
*per-read* classification record; that class is now
:class:`~repro.align.star.ReadAlignment`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.align.star import AlignmentStatus, ReadAlignment
from repro.genome.annotation import Strand
from repro.genome.model import SequenceRegion

if TYPE_CHECKING:
    from repro.align.counts import GeneCounts
    from repro.align.progress import FinalLogStats, ProgressRecord

__all__ = ["AlignmentColumns", "AlignmentOutcome", "STATUSES", "STRANDS"]

#: ``AlignmentColumns.status`` code -> status (codes follow enum order:
#: unique 0, multimapped 1, too many loci 2, unmapped 3)
STATUSES = tuple(AlignmentStatus)
#: ``AlignmentColumns.strand`` code -> strand (0 = no placement)
STRANDS = (None, Strand.FORWARD, Strand.REVERSE)

_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
_STRAND_CODE = {strand: code for code, strand in enumerate(STRANDS)}


@runtime_checkable
class AlignmentOutcome(Protocol):
    """What one accession's completed (or aborted) alignment run exposes.

    Structural — any object with these members satisfies it; both
    :class:`~repro.align.star.StarRunResult` and
    :class:`~repro.align.paired.PairedRunResult` do.
    """

    #: STAR's ``Log.final.out`` aggregate statistics
    final: FinalLogStats
    #: ``Log.progress.out`` snapshots, in read order
    progress: list[ProgressRecord]
    #: ``ReadsPerGene.out.tab`` counts, or None when quantification is off
    gene_counts: GeneCounts | None
    #: True when the early-stopping monitor terminated the run
    aborted: bool

    @property
    def mapped_fraction(self) -> float:
        """Final mapping rate — the atlas acceptance-bar input."""
        ...


#: dtype of every per-read and per-block array of :class:`AlignmentColumns`
_ARRAYS = {
    "status": np.int8,
    "strand": np.int8,
    "n_loci": np.int64,
    "score": np.int64,
    "mismatches": np.int64,
    "spliced": bool,
    "block_offsets": np.int64,
    "block_contig": np.int64,
    "block_start": np.int64,
    "block_end": np.int64,
}


@dataclass(frozen=True, eq=False)
class AlignmentColumns:
    """The alignment outcomes of a batch of single-end reads, as columns.

    Read ``i`` is ``ids[i]`` with ``status[i]`` (a :data:`STATUSES`
    code), ``strand[i]`` (a :data:`STRANDS` code), ``n_loci``, ``score``,
    ``mismatches`` and ``spliced``; its chosen blocks are rows
    ``block_offsets[i] : block_offsets[i + 1]`` of ``block_contig`` (an
    ordinal into ``contigs``), ``block_start`` and ``block_end`` (contig
    coordinates); ``block_offsets[0]`` is 0.  Reads without a reported
    placement (unmapped, too many loci) hold strand 0, zero score and
    mismatches and no blocks — the fields their :class:`ReadAlignment`
    defaults to.  Array-likes given for the arrays (lists from a record
    list or a journal payload) are coerced to their dtypes.

    Indexing with an int or iterating yields :class:`ReadAlignment`
    objects; slicing yields columns.  Equality compares read by read,
    against columns or any sequence of :class:`ReadAlignment`.
    """

    ids: list[str]
    status: np.ndarray  # int8 STATUSES codes
    strand: np.ndarray  # int8 STRANDS codes
    n_loci: np.ndarray  # int64
    score: np.ndarray  # int64
    mismatches: np.ndarray  # int64
    spliced: np.ndarray  # bool
    block_offsets: np.ndarray  # int64, n_reads + 1
    block_contig: np.ndarray  # int64 ordinals into ``contigs``
    block_start: np.ndarray  # int64
    block_end: np.ndarray  # int64
    contigs: tuple[str, ...]

    def __post_init__(self) -> None:
        # arrays already of their dtype pass through uncopied
        for name, dtype in _ARRAYS.items():
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=dtype)
            )
        object.__setattr__(self, "contigs", tuple(self.contigs))

    @classmethod
    def from_records(
        cls, outcomes: Iterable[ReadAlignment]
    ) -> "AlignmentColumns":
        """Columns holding ``outcomes``, in order (the per-read oracle's
        and version-1 journal payloads' way in)."""
        outcomes = list(outcomes)
        contigs: dict[str, int] = {}
        offsets = [0]
        block_contig: list[int] = []
        block_start: list[int] = []
        block_end: list[int] = []
        for o in outcomes:
            for b in o.blocks:
                block_contig.append(contigs.setdefault(b.contig, len(contigs)))
                block_start.append(b.start)
                block_end.append(b.end)
            offsets.append(len(block_start))
        return cls(
            [o.read_id for o in outcomes],
            [_STATUS_CODE[o.status] for o in outcomes],
            [_STRAND_CODE[o.strand] for o in outcomes],
            [o.n_loci for o in outcomes],
            [o.score for o in outcomes],
            [o.mismatches for o in outcomes],
            [o.spliced for o in outcomes],
            offsets,
            block_contig,
            block_start,
            block_end,
            contigs,
        )

    @classmethod
    def concat(cls, parts: Sequence["AlignmentColumns"]) -> "AlignmentColumns":
        """The reads of every part, in order.

        Parts naming their contigs differently (columns from different
        sources) are re-coded onto the union of their contig tables.
        """
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_records([])
        contigs = parts[0].contigs
        block_contig = [p.block_contig for p in parts]
        if any(p.contigs != contigs for p in parts):
            table: dict[str, int] = {}
            for p in parts:
                for name in p.contigs:
                    table.setdefault(name, len(table))
            contigs = tuple(table)
            block_contig = [
                np.array([table[n] for n in p.contigs], dtype=np.int64)[
                    p.block_contig
                ]
                for p in parts
            ]
        offsets = [np.zeros(1, dtype=np.int64)]
        base = 0
        for p in parts:
            offsets.append(p.block_offsets[1:] + base)
            base += int(p.block_offsets[-1])
        return cls(
            [rid for p in parts for rid in p.ids],
            np.concatenate([p.status for p in parts]),
            np.concatenate([p.strand for p in parts]),
            np.concatenate([p.n_loci for p in parts]),
            np.concatenate([p.score for p in parts]),
            np.concatenate([p.mismatches for p in parts]),
            np.concatenate([p.spliced for p in parts]),
            np.concatenate(offsets),
            np.concatenate(block_contig),
            np.concatenate([p.block_start for p in parts]),
            np.concatenate([p.block_end for p in parts]),
            contigs,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __add__(self, other: "AlignmentColumns") -> "AlignmentColumns":
        return AlignmentColumns.concat([self, other])

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("alignment columns slice only contiguously")
            stop = max(start, stop)
            lo, hi = int(self.block_offsets[start]), int(self.block_offsets[stop])
            return AlignmentColumns(
                self.ids[start:stop],
                self.status[start:stop],
                self.strand[start:stop],
                self.n_loci[start:stop],
                self.score[start:stop],
                self.mismatches[start:stop],
                self.spliced[start:stop],
                self.block_offsets[start : stop + 1] - lo,
                self.block_contig[lo:hi],
                self.block_start[lo:hi],
                self.block_end[lo:hi],
                self.contigs,
            )
        i = range(len(self))[key]
        return next(iter(self[i : i + 1]))

    def __iter__(self) -> Iterator[ReadAlignment]:
        names = self.contigs
        regions = [
            SequenceRegion(names[c], s, e)
            for c, s, e in zip(
                self.block_contig.tolist(),
                self.block_start.tolist(),
                self.block_end.tolist(),
            )
        ]
        offsets = self.block_offsets.tolist()
        for i, (rid, status, strand, score, n_loci, mm, spliced) in enumerate(
            zip(
                self.ids,
                self.status.tolist(),
                self.strand.tolist(),
                self.score.tolist(),
                self.n_loci.tolist(),
                self.mismatches.tolist(),
                self.spliced.tolist(),
            )
        ):
            yield ReadAlignment(
                rid,
                STATUSES[status],
                STRANDS[strand],
                score,
                n_loci,
                mm,
                tuple(regions[offsets[i] : offsets[i + 1]]),
                spliced,
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, AlignmentColumns):
            if len(self) != len(other):
                return False
            if self.contigs != other.contigs:
                return list(self) == list(other)
            return self.ids == other.ids and all(
                np.array_equal(getattr(self, f), getattr(other, f))
                for f in _ARRAYS
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- derived columns -----------------------------------------------------

    def block_lengths(self) -> np.ndarray:
        """Per-read sum of its blocks' lengths (0 without blocks)."""
        covered = np.zeros(self.block_start.size + 1, dtype=np.int64)
        np.cumsum(self.block_end - self.block_start, out=covered[1:])
        return covered[self.block_offsets[1:]] - covered[self.block_offsets[:-1]]

    def status_is(self, status: AlignmentStatus) -> np.ndarray:
        """Boolean mask of the reads with ``status``."""
        return self.status == _STATUS_CODE[status]
