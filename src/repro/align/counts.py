"""``--quantMode GeneCounts`` — per-gene read counting.

Reproduces STAR's ``ReadsPerGene.out.tab``: four special rows
(``N_unmapped``, ``N_multimapping``, ``N_noFeature``, ``N_ambiguous``)
followed by one row per gene, with three count columns for the three
strandedness conventions (unstranded, stranded-forward, stranded-reverse).
Only uniquely mapped reads are assigned to genes, as in STAR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.genome.annotation import Annotation, Gene, Strand
from repro.genome.model import SequenceRegion

if TYPE_CHECKING:
    from repro.align.outcome import AlignmentColumns

#: Column order of ReadsPerGene.out.tab after the gene id.
STRAND_COLUMNS = ("unstranded", "forward", "reverse")

_SPECIAL_ROWS = ("N_unmapped", "N_multimapping", "N_noFeature", "N_ambiguous")


@dataclass(frozen=True)
class GeneCountsPartial:
    """Compact, annotation-free snapshot of one batch's gene counts.

    Worker processes in :mod:`repro.align.engine` count their batch locally
    and ship this partial back (only non-zero genes) instead of the whole
    :class:`GeneCounts`, whose ``annotation`` would be re-pickled per batch.
    Merging partials batch-by-batch in read order reproduces exactly the
    counts a serial run accumulates.
    """

    n_unmapped: int
    n_multimapping: int
    n_no_feature: dict[str, int]
    n_ambiguous: dict[str, int]
    gene_counts: dict[str, dict[str, int]]


@dataclass
class GeneCounts:
    """Accumulator for gene-level counts over one alignment run.

    Only genes that were counted hold a row (``hits``), so building,
    filling and partialling a per-shard accumulator costs O(genes hit),
    not O(annotation).  ``counts`` is the dense view over every gene.
    """

    annotation: Annotation
    n_unmapped: int = 0
    n_multimapping: int = 0
    #: per-strandedness convention: noFeature/ambiguous and per-gene counts
    n_no_feature: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in STRAND_COLUMNS}
    )
    n_ambiguous: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in STRAND_COLUMNS}
    )
    #: gene id -> per-column counts, for genes counted at least once
    hits: dict[str, dict[str, int]] = field(default_factory=dict)

    def _row(self, gene_id: str) -> dict[str, int]:
        row = self.hits.get(gene_id)
        if row is None:
            self.annotation.ordinal(gene_id)  # KeyError for a foreign gene
            row = self.hits[gene_id] = dict.fromkeys(STRAND_COLUMNS, 0)
        return row

    # -- accumulation ------------------------------------------------------

    def record_unmapped(self) -> None:
        self.n_unmapped += 1

    def record_multimapped(self) -> None:
        self.n_multimapping += 1

    def record_unique(
        self, blocks: list[SequenceRegion], read_strand: Strand
    ) -> None:
        """Assign one uniquely mapped read given its exonic blocks.

        A gene matches when any block overlaps its extent.  For the two
        stranded conventions the gene must additionally lie on the matching
        strand (forward = read strand equals gene strand; reverse =
        opposite, as for dUTP protocols).
        """
        overlapping: list[Gene] = []
        seen: set[str] = set()
        for block in blocks:
            for gene in self.annotation.overlapping_genes(block):
                if gene.gene_id not in seen:
                    seen.add(gene.gene_id)
                    overlapping.append(gene)
        self._tally("unstranded", overlapping)
        same = [g for g in overlapping if g.strand is read_strand]
        opposite = [g for g in overlapping if g.strand is not read_strand]
        self._tally("forward", same)
        self._tally("reverse", opposite)

    def record_columns(self, outcomes: AlignmentColumns) -> None:
        """Count a batch of single-end outcomes, as looping the per-read
        rule would: :meth:`record_unique` for each unique read,
        :meth:`record_multimapped` for multimapped and too-many-loci
        reads, :meth:`record_unmapped` for the rest.

        Every unique read's blocks resolve against the gene-extent index
        in one :meth:`Annotation.overlap_pairs` call per contig; distinct
        (read, gene) pairs then give each read's gene count per
        strandedness convention.
        """
        from repro.align.star import AlignmentStatus

        def n_with(status: AlignmentStatus) -> int:
            return int(np.count_nonzero(outcomes.status_is(status)))

        self.n_unmapped += n_with(AlignmentStatus.UNMAPPED)
        self.n_multimapping += n_with(AlignmentStatus.MULTIMAPPED) + n_with(
            AlignmentStatus.TOO_MANY_LOCI
        )
        unique = np.flatnonzero(outcomes.status_is(AlignmentStatus.UNIQUE))
        if not unique.size:
            return
        # the unique reads' blocks, each tagged with its read's position
        # in ``unique``
        offsets = outcomes.block_offsets
        n_blocks = offsets[unique + 1] - offsets[unique]
        block_read = np.repeat(np.arange(unique.size, dtype=np.int64), n_blocks)
        block = (
            np.repeat(offsets[unique] - (np.cumsum(n_blocks) - n_blocks), n_blocks)
            + np.arange(block_read.size, dtype=np.int64)
        )
        contig = outcomes.block_contig[block]
        pair_read, pair_gene = [], []
        for c in np.unique(contig).tolist():
            on = contig == c
            rows, genes = self.annotation.overlap_pairs(
                outcomes.contigs[c],
                outcomes.block_start[block[on]],
                outcomes.block_end[block[on]],
            )
            pair_read.append(block_read[on][rows])
            pair_gene.append(genes)
        n_genes = max(1, len(self.annotation.genes))
        pairs = np.unique(
            np.concatenate(pair_read + [np.zeros(0, dtype=np.int64)]) * n_genes
            + np.concatenate(pair_gene + [np.zeros(0, dtype=np.int64)])
        )
        read, gene = np.divmod(pairs, n_genes)
        # strand codes: 1 forward, 2 reverse (0, no strand, matches none)
        gene_strand = np.where(self.annotation.forward_genes()[gene], 1, 2)
        same = gene_strand == outcomes.strand[unique][read]
        for column, mask in (
            ("unstranded", slice(None)),
            ("forward", same),
            ("reverse", ~same),
        ):
            self._tally_columns(column, unique.size, read[mask], gene[mask])

    def _tally_columns(
        self, column: str, n_reads: int, read: np.ndarray, gene: np.ndarray
    ) -> None:
        """:meth:`_tally` for ``n_reads`` reads given their distinct
        (read, gene) pairs."""
        per_read = np.bincount(read, minlength=n_reads)
        self.n_no_feature[column] += int(np.count_nonzero(per_read == 0))
        self.n_ambiguous[column] += int(np.count_nonzero(per_read > 1))
        assigned, hits = np.unique(gene[per_read[read] == 1], return_counts=True)
        genes = self.annotation.genes
        for ordinal, n in zip(assigned.tolist(), hits.tolist()):
            self._row(genes[ordinal].gene_id)[column] += n

    def _tally(self, column: str, genes: list[Gene]) -> None:
        if not genes:
            self.n_no_feature[column] += 1
        elif len(genes) > 1:
            self.n_ambiguous[column] += 1
        else:
            self._row(genes[0].gene_id)[column] += 1

    # -- partials (parallel engine) ------------------------------------------

    def to_partial(self) -> GeneCountsPartial:
        """Extract the non-zero state as an annotation-free partial.

        Genes are listed in annotation order.
        """
        return GeneCountsPartial(
            n_unmapped=self.n_unmapped,
            n_multimapping=self.n_multimapping,
            n_no_feature=dict(self.n_no_feature),
            n_ambiguous=dict(self.n_ambiguous),
            gene_counts={
                gene_id: dict(self.hits[gene_id])
                for gene_id in sorted(self.hits, key=self.annotation.ordinal)
            },
        )

    def merge_partial(self, partial: GeneCountsPartial) -> None:
        """Add one batch's partial into this accumulator."""
        self.n_unmapped += partial.n_unmapped
        self.n_multimapping += partial.n_multimapping
        for c in STRAND_COLUMNS:
            self.n_no_feature[c] += partial.n_no_feature[c]
            self.n_ambiguous[c] += partial.n_ambiguous[c]
        for gene_id, row in partial.gene_counts.items():
            mine = self._row(gene_id)
            for c in STRAND_COLUMNS:
                mine[c] += row[c]

    # -- reporting -----------------------------------------------------------

    @property
    def counts(self) -> dict[str, dict[str, int]]:
        """Gene id → per-column counts for every gene, in annotation order."""
        zero = dict.fromkeys(STRAND_COLUMNS, 0)
        return {g: dict(self.hits.get(g, zero)) for g in self.annotation.gene_ids}

    def total_assigned(self, column: str = "unstranded") -> int:
        """Reads assigned to exactly one gene under ``column``."""
        return sum(row[column] for row in self.hits.values())

    def column_vector(self, column: str = "unstranded") -> dict[str, int]:
        """Gene id → count for one strandedness convention."""
        return {g: c[column] for g, c in self.counts.items()}

    def to_tab(self) -> str:
        """Render as ``ReadsPerGene.out.tab`` text."""
        lines = [
            "\t".join(
                [
                    "N_unmapped",
                    str(self.n_unmapped),
                    str(self.n_unmapped),
                    str(self.n_unmapped),
                ]
            ),
            "\t".join(
                [
                    "N_multimapping",
                    str(self.n_multimapping),
                    str(self.n_multimapping),
                    str(self.n_multimapping),
                ]
            ),
            "\t".join(
                ["N_noFeature"] + [str(self.n_no_feature[c]) for c in STRAND_COLUMNS]
            ),
            "\t".join(
                ["N_ambiguous"] + [str(self.n_ambiguous[c]) for c in STRAND_COLUMNS]
            ),
        ]
        for gene_id, row in self.counts.items():
            lines.append(
                "\t".join([gene_id] + [str(row[c]) for c in STRAND_COLUMNS])
            )
        return "\n".join(lines) + "\n"

    def write_tab(self, path: Path | str) -> None:
        """Write ``ReadsPerGene.out.tab``."""
        Path(path).write_text(self.to_tab())


def read_counts_tab(path: Path | str) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Parse a ``ReadsPerGene.out.tab`` file.

    Returns ``(specials, genes)`` where ``specials`` maps the N_* rows to
    their unstranded value and ``genes`` maps gene id to the three-column
    count list.
    """
    specials: dict[str, int] = {}
    genes: dict[str, list[int]] = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"malformed counts line: {line!r}")
        name, values = fields[0], [int(v) for v in fields[1:]]
        if name in _SPECIAL_ROWS:
            specials[name] = values[0]
        else:
            genes[name] = values
    return specials, genes
