"""Annotation model tests: transcripts, coordinate mapping, junctions."""

import numpy as np
import pytest

from repro.genome.alphabet import decode, encode, reverse_complement
from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.model import Assembly, Contig, SequenceRegion


def make_transcript(strand=Strand.FORWARD, tid="T1", gid="G1"):
    exons = [
        Exon(SequenceRegion("1", 10, 20), 1),
        Exon(SequenceRegion("1", 40, 50), 2),
        Exon(SequenceRegion("1", 70, 85), 3),
    ]
    return Transcript(tid, gid, "1", strand, exons)


@pytest.fixture
def tiny_assembly():
    rng = np.random.default_rng(0)
    seq = encode("".join("ACGT"[i] for i in rng.integers(0, 4, size=100)))
    return Assembly("mini", [Contig("1", seq)])


class TestTranscript:
    def test_extent_and_length(self):
        t = make_transcript()
        assert t.start == 10 and t.end == 85
        assert t.spliced_length == 10 + 10 + 15

    def test_exons_sorted(self):
        exons = [
            Exon(SequenceRegion("1", 40, 50), 2),
            Exon(SequenceRegion("1", 10, 20), 1),
        ]
        t = Transcript("T", "G", "1", Strand.FORWARD, exons)
        assert [e.region.start for e in t.exons] == [10, 40]

    def test_overlapping_exons_rejected(self):
        exons = [
            Exon(SequenceRegion("1", 10, 25), 1),
            Exon(SequenceRegion("1", 20, 30), 2),
        ]
        with pytest.raises(ValueError):
            Transcript("T", "G", "1", Strand.FORWARD, exons)

    def test_no_exons_rejected(self):
        with pytest.raises(ValueError):
            Transcript("T", "G", "1", Strand.FORWARD, [])

    def test_exon_on_wrong_contig_rejected(self):
        with pytest.raises(ValueError):
            Transcript(
                "T", "G", "1", Strand.FORWARD, [Exon(SequenceRegion("2", 0, 5), 1)]
            )

    def test_introns_and_junctions(self):
        t = make_transcript()
        assert [(i.start, i.end) for i in t.introns] == [(20, 40), (50, 70)]
        assert t.junctions == [(20, 40), (50, 70)]

    def test_spliced_sequence_forward(self, tiny_assembly):
        t = make_transcript()
        seq = t.spliced_sequence(tiny_assembly)
        manual = np.concatenate(
            [
                tiny_assembly.fetch(SequenceRegion("1", 10, 20)),
                tiny_assembly.fetch(SequenceRegion("1", 40, 50)),
                tiny_assembly.fetch(SequenceRegion("1", 70, 85)),
            ]
        )
        assert decode(seq) == decode(manual)

    def test_spliced_sequence_reverse_is_revcomp(self, tiny_assembly):
        fwd = make_transcript(Strand.FORWARD).spliced_sequence(tiny_assembly)
        rev = make_transcript(Strand.REVERSE).spliced_sequence(tiny_assembly)
        assert decode(rev) == decode(reverse_complement(fwd))

    def test_genomic_position_forward(self):
        t = make_transcript()
        assert t.genomic_position(0) == 10
        assert t.genomic_position(9) == 19
        assert t.genomic_position(10) == 40  # first base of exon 2
        assert t.genomic_position(20) == 70

    def test_genomic_position_reverse(self):
        t = make_transcript(Strand.REVERSE)
        # 5' end of a reverse transcript is the genomic *end*
        assert t.genomic_position(0) == 84
        assert t.genomic_position(14) == 70
        assert t.genomic_position(15) == 49

    def test_genomic_position_bounds(self):
        t = make_transcript()
        with pytest.raises(IndexError):
            t.genomic_position(t.spliced_length)

    def test_position_mapping_consistent_with_sequence(self, tiny_assembly):
        """Base at transcript offset k equals genome base at mapped position."""
        t = make_transcript()
        spliced = t.spliced_sequence(tiny_assembly)
        genome = tiny_assembly.contig("1").sequence
        for k in [0, 5, 10, 19, 34]:
            assert spliced[k] == genome[t.genomic_position(k)]


class TestGene:
    def test_extent_spans_transcripts(self):
        g = Gene("G1", "GENE1", "1", Strand.FORWARD, [make_transcript()])
        assert g.start == 10 and g.end == 85
        assert g.region == SequenceRegion("1", 10, 85)

    def test_foreign_transcript_rejected(self):
        with pytest.raises(ValueError):
            Gene("G2", "GENE2", "1", Strand.FORWARD, [make_transcript(gid="G1")])

    def test_no_transcripts_rejected(self):
        """An empty gene has no extent: rejected up front, by name."""
        with pytest.raises(ValueError, match="G7"):
            Gene("G7", "GENE7", "1", Strand.FORWARD, [])


class TestAnnotation:
    def make(self) -> Annotation:
        t1 = make_transcript()
        t2 = Transcript(
            "T2",
            "G2",
            "1",
            Strand.REVERSE,
            [Exon(SequenceRegion("1", 200, 260), 1)],
        )
        return Annotation(
            [
                Gene("G1", "GENE1", "1", Strand.FORWARD, [t1]),
                Gene("G2", "GENE2", "1", Strand.REVERSE, [t2]),
            ]
        )

    def test_duplicate_gene_ids_rejected(self):
        g = Gene("G1", "N", "1", Strand.FORWARD, [make_transcript()])
        with pytest.raises(ValueError):
            Annotation([g, g])

    def test_lookup(self):
        ann = self.make()
        assert ann.gene("G2").name == "GENE2"
        with pytest.raises(KeyError):
            ann.gene("G9")

    def test_genes_on_sorted(self):
        ann = self.make()
        genes = ann.genes_on("1")
        assert [g.gene_id for g in genes] == ["G1", "G2"]
        assert ann.genes_on("2") == []

    def test_ordinal(self):
        ann = self.make()
        assert [ann.ordinal(g) for g in ("G1", "G2")] == [0, 1]
        with pytest.raises(KeyError):
            ann.ordinal("G9")

    def test_assign_position(self):
        ann = self.make()
        assert ann.assign_position("1", 45).gene_id == "G1"
        assert ann.assign_position("1", 230).gene_id == "G2"
        assert ann.assign_position("1", 150) is None
        assert ann.assign_position("2", 45) is None

    def test_overlapping_genes(self):
        ann = self.make()
        hits = ann.overlapping_genes(SequenceRegion("1", 80, 210))
        assert {g.gene_id for g in hits} == {"G1", "G2"}

    def test_splice_junctions_deduplicated(self):
        ann = self.make()
        sj = ann.splice_junctions()
        assert sj == [("1", 20, 40), ("1", 50, 70)]
