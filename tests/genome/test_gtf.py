"""GTF round-trip tests."""

import pytest

from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.gtf import read_gtf, write_gtf
from repro.genome.model import SequenceRegion


@pytest.fixture
def annotation(universe):
    return universe.annotation


class TestRoundtrip:
    def test_gene_ids_preserved(self, annotation, tmp_path):
        path = tmp_path / "genes.gtf"
        write_gtf(annotation, path)
        back = read_gtf(path)
        assert back.gene_ids == annotation.gene_ids

    def test_exon_structure_preserved(self, annotation, tmp_path):
        path = tmp_path / "genes.gtf"
        write_gtf(annotation, path)
        back = read_gtf(path)
        for g1, g2 in zip(annotation, back):
            for t1, t2 in zip(g1.transcripts, g2.transcripts):
                assert t1.transcript_id == t2.transcript_id
                assert [
                    (e.region.start, e.region.end) for e in t1.exons
                ] == [(e.region.start, e.region.end) for e in t2.exons]

    def test_strands_preserved(self, annotation, tmp_path):
        path = tmp_path / "genes.gtf"
        write_gtf(annotation, path)
        back = read_gtf(path)
        assert [g.strand for g in back] == [g.strand for g in annotation]

    def test_junctions_preserved(self, annotation, tmp_path):
        path = tmp_path / "genes.gtf"
        write_gtf(annotation, path)
        assert read_gtf(path).splice_junctions() == annotation.splice_junctions()

    def test_gzip(self, annotation, tmp_path):
        path = tmp_path / "genes.gtf.gz"
        write_gtf(annotation, path)
        assert len(read_gtf(path)) == len(annotation)


class TestFormat:
    def small(self) -> Annotation:
        t = Transcript(
            "T1", "G1", "1", Strand.FORWARD, [Exon(SequenceRegion("1", 0, 10), 1)]
        )
        return Annotation([Gene("G1", "NAME1", "1", Strand.FORWARD, [t])])

    def test_one_based_inclusive_coordinates(self, tmp_path):
        path = tmp_path / "x.gtf"
        write_gtf(self.small(), path)
        exon_lines = [
            line for line in path.read_text().splitlines() if "\texon\t" in line
        ]
        fields = exon_lines[0].split("\t")
        assert fields[3] == "1" and fields[4] == "10"  # 0-based [0,10) -> 1..10

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "x.gtf"
        write_gtf(self.small(), path)
        content = "# a comment\n" + path.read_text()
        path.write_text(content)
        assert len(read_gtf(path)) == 1

    def test_gene_without_transcripts_rejected(self, tmp_path):
        """A ``gene`` line with no transcripts fails at parse time, by name."""
        path = tmp_path / "x.gtf"
        write_gtf(self.small(), path)
        lonely = '1\trepro\tgene\t20\t30\t.\t+\t.\tgene_id "G2"; gene_name "N2";\n'
        path.write_text(path.read_text() + lonely)
        with pytest.raises(ValueError, match="G2"):
            read_gtf(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.gtf"
        path.write_text("1\tsrc\tgene\t1\n")
        with pytest.raises(ValueError):
            read_gtf(path)
