"""Gene annotation model: genes, transcripts, exons, strand.

This is the minimum structure STAR's ``--quantMode GeneCounts`` needs:
gene extents for read-to-gene assignment and exon chains for the read
simulator and the splice-junction database (``sjdb``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.genome.alphabet import reverse_complement
from repro.genome.model import Assembly, SequenceRegion


class Strand(enum.Enum):
    """Genomic strand of a feature."""

    FORWARD = "+"
    REVERSE = "-"

    @property
    def sign(self) -> int:
        return 1 if self is Strand.FORWARD else -1


@dataclass(frozen=True)
class Exon:
    """One exon: a region plus its ordinal within the transcript."""

    region: SequenceRegion
    number: int

    @property
    def length(self) -> int:
        return self.region.length


@dataclass
class Transcript:
    """An ordered exon chain on one contig and strand.

    Exons are stored in genomic coordinate order regardless of strand;
    ``spliced_length`` and sequence extraction handle orientation.
    """

    transcript_id: str
    gene_id: str
    contig: str
    strand: Strand
    exons: list[Exon] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.exons:
            raise ValueError(f"transcript {self.transcript_id} has no exons")
        for exon in self.exons:
            if exon.region.contig != self.contig:
                raise ValueError(
                    f"exon on {exon.region.contig} in transcript on {self.contig}"
                )
        ordered = sorted(self.exons, key=lambda e: e.region.start)
        for a, b in zip(ordered, ordered[1:]):
            if a.region.end > b.region.start:
                raise ValueError(
                    f"overlapping exons in transcript {self.transcript_id}"
                )
        self.exons = ordered

    @property
    def start(self) -> int:
        return self.exons[0].region.start

    @property
    def end(self) -> int:
        return self.exons[-1].region.end

    @property
    def spliced_length(self) -> int:
        """Length of the mature (intron-less) transcript."""
        return sum(e.length for e in self.exons)

    @property
    def introns(self) -> list[SequenceRegion]:
        """Intron intervals between consecutive exons (genomic order)."""
        out: list[SequenceRegion] = []
        for a, b in zip(self.exons, self.exons[1:]):
            out.append(SequenceRegion(self.contig, a.region.end, b.region.start))
        return out

    @property
    def junctions(self) -> list[tuple[int, int]]:
        """Splice junctions as (donor_end, acceptor_start) genomic pairs."""
        return [(i.start, i.end) for i in self.introns]

    def spliced_sequence(self, assembly: Assembly) -> np.ndarray:
        """Extract the mature transcript sequence in 5'→3' orientation."""
        parts = [assembly.fetch(e.region) for e in self.exons]
        seq = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
        if self.strand is Strand.REVERSE:
            seq = reverse_complement(seq)
        return seq

    def genomic_position(self, transcript_offset: int) -> int:
        """Map a 0-based offset on the mature transcript to a genomic position.

        Accounts for strand: offset 0 is the transcript's 5' end.
        """
        if not 0 <= transcript_offset < self.spliced_length:
            raise IndexError(
                f"offset {transcript_offset} outside transcript of length "
                f"{self.spliced_length}"
            )
        if self.strand is Strand.FORWARD:
            remaining = transcript_offset
            for exon in self.exons:
                if remaining < exon.length:
                    return exon.region.start + remaining
                remaining -= exon.length
        else:
            remaining = transcript_offset
            for exon in reversed(self.exons):
                if remaining < exon.length:
                    return exon.region.end - 1 - remaining
                remaining -= exon.length
        raise AssertionError("unreachable: offset validated above")


@dataclass
class Gene:
    """A gene: named extent plus its transcripts."""

    gene_id: str
    name: str
    contig: str
    strand: Strand
    transcripts: list[Transcript] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.transcripts:
            raise ValueError(f"gene {self.gene_id} has no transcripts")
        for t in self.transcripts:
            if t.gene_id != self.gene_id:
                raise ValueError(
                    f"transcript {t.transcript_id} belongs to {t.gene_id}, "
                    f"not {self.gene_id}"
                )

    @property
    def start(self) -> int:
        return min(t.start for t in self.transcripts)

    @property
    def end(self) -> int:
        return max(t.end for t in self.transcripts)

    @property
    def region(self) -> SequenceRegion:
        return SequenceRegion(self.contig, self.start, self.end)


class _ContigIndex(NamedTuple):
    """One contig's genes as rows sorted by (start, annotation ordinal)."""

    starts: list[int]
    ends: list[int]
    #: annotation ordinal of each row
    ordinals: list[int]
    #: longest gene extent on the contig: a gene ending after ``s``
    #: starts after ``s - longest``
    longest: int
    #: ``(starts, ends, ordinals)`` as int64 arrays, for batch queries
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray]


class _Lookup(NamedTuple):
    #: gene id -> annotation ordinal
    ordinals: dict[str, int]
    contigs: dict[str, _ContigIndex]
    #: per annotation ordinal: True for a forward-strand gene
    forward: np.ndarray


@dataclass
class Annotation:
    """All genes of an assembly, with index structures for assignment.

    Lookups go through a per-contig index of gene extents, built on the
    first query and kept out of pickled state; the gene list must not
    change after that.
    """

    genes: list[Gene] = field(default_factory=list)

    #: None until the first query, and in pickles (including those
    #: written before the index existed); set in one store, so threads
    #: racing on a first query each build an equal index
    _lookup = None

    def __post_init__(self) -> None:
        ids = [g.gene_id for g in self.genes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate gene ids in annotation")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lookup", None)
        return state

    def __len__(self) -> int:
        return len(self.genes)

    def __iter__(self):
        return iter(self.genes)

    @property
    def gene_ids(self) -> list[str]:
        return [g.gene_id for g in self.genes]

    @property
    def transcripts(self) -> list[Transcript]:
        return [t for g in self.genes for t in g.transcripts]

    def _index(self) -> _Lookup:
        if self._lookup is None:
            rows: dict[str, list[tuple[int, int, int]]] = {}
            for i, g in enumerate(self.genes):
                rows.setdefault(g.contig, []).append((g.start, i, g.end))
            contigs = {}
            for contig, extents in rows.items():
                extents.sort()
                starts, ordinals, ends = map(list, zip(*extents))
                longest = max(e - s for s, _, e in extents)
                arrays = tuple(
                    np.array(column, dtype=np.int64)
                    for column in (starts, ends, ordinals)
                )
                contigs[contig] = _ContigIndex(
                    starts, ends, ordinals, longest, arrays
                )
            by_id = {g.gene_id: i for i, g in enumerate(self.genes)}
            forward = np.array(
                [g.strand is Strand.FORWARD for g in self.genes], dtype=bool
            )
            self._lookup = _Lookup(by_id, contigs, forward)
        return self._lookup

    def ordinal(self, gene_id: str) -> int:
        """Position of ``gene_id`` in the annotation's gene order."""
        try:
            return self._index().ordinals[gene_id]
        except KeyError:
            raise KeyError(f"no gene {gene_id!r}") from None

    def gene(self, gene_id: str) -> Gene:
        return self.genes[self.ordinal(gene_id)]

    def genes_on(self, contig: str) -> list[Gene]:
        """Genes on one contig, sorted by start coordinate."""
        idx = self._index().contigs.get(contig)
        return [] if idx is None else [self.genes[i] for i in idx.ordinals]

    def assign_position(self, contig: str, position: int) -> Gene | None:
        """Return the gene whose extent covers (contig, position), if any.

        Where gene extents overlap, the first (lowest-start) match wins —
        matching STAR's "ambiguous counts to neither" is handled one level
        up in :mod:`repro.align.counts`, which needs *all* hits.
        """
        idx = self._index().contigs.get(contig)
        if idx is None:
            return None
        lo = bisect_right(idx.starts, position - idx.longest)
        hi = bisect_right(idx.starts, position, lo)
        for row in range(lo, hi):
            if idx.ends[row] > position:
                return self.genes[idx.ordinals[row]]
        return None

    def overlapping_genes(self, region: SequenceRegion) -> list[Gene]:
        """All genes whose extent overlaps ``region``, in annotation order.

        Overlap is :meth:`SequenceRegion.overlaps`: only rows starting
        before ``region.end`` and after ``region.start - longest`` can
        qualify, so a query costs O(log genes) plus that window.
        """
        idx = self._index().contigs.get(region.contig)
        if idx is None:
            return []
        s = region.start
        lo = bisect_right(idx.starts, s - idx.longest)
        hi = bisect_left(idx.starts, region.end, lo)
        ends, ordinals = idx.ends, idx.ordinals
        hits = sorted(ordinals[row] for row in range(lo, hi) if ends[row] > s)
        return [self.genes[i] for i in hits]

    def overlap_pairs(
        self, contig: str, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`overlapping_genes` for many regions on one contig at once.

        Region ``i`` is ``[starts[i], ends[i])``.  Returns ``(rows,
        genes)``: region ``rows[k]`` overlaps the gene of annotation
        ordinal ``genes[k]``, one pair per overlap, in region order.  Each
        region's candidate window comes from one ``searchsorted`` pair
        and the windows expand CSR-style, so the cost follows the rows
        hit, not the genes on the contig.
        """
        empty = np.zeros(0, dtype=np.int64)
        idx = self._index().contigs.get(contig)
        if idx is None or not len(starts):
            return empty, empty
        gene_starts, gene_ends, ordinals = idx.arrays
        lo = np.searchsorted(gene_starts, starts - idx.longest, side="right")
        hi = np.maximum(np.searchsorted(gene_starts, ends, side="left"), lo)
        width = hi - lo
        rows = np.repeat(np.arange(width.size, dtype=np.int64), width)
        first = np.cumsum(width) - width
        candidate = np.repeat(lo - first, width) + np.arange(
            rows.size, dtype=np.int64
        )
        hit = gene_ends[candidate] > starts[rows]
        return rows[hit], ordinals[candidate[hit]]

    def forward_genes(self) -> np.ndarray:
        """Per annotation ordinal: True for a forward-strand gene."""
        return self._index().forward

    def splice_junctions(self) -> list[tuple[str, int, int]]:
        """The annotated junction database: (contig, donor_end, acceptor_start).

        Deduplicated and sorted — this is what STAR calls the ``sjdb``.
        """
        seen: set[tuple[str, int, int]] = set()
        for t in self.transcripts:
            for start, end in t.junctions:
                seen.add((t.contig, start, end))
        return sorted(seen)
