"""GeneCounts (ReadsPerGene.out.tab) tests."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.counts import GeneCounts, read_counts_tab
from repro.align.outcome import AlignmentColumns
from repro.align.star import AlignmentStatus, ReadAlignment
from repro.genome.annotation import Annotation, Exon, Gene, Strand, Transcript
from repro.genome.model import SequenceRegion


@pytest.fixture
def annotation():
    def gene(gid, start, end, strand):
        t = Transcript(
            f"T{gid}", gid, "1", strand, [Exon(SequenceRegion("1", start, end), 1)]
        )
        return Gene(gid, gid, "1", strand, [t])

    return Annotation(
        [
            gene("G1", 0, 100, Strand.FORWARD),
            gene("G2", 200, 300, Strand.REVERSE),
            gene("G3", 280, 400, Strand.FORWARD),  # overlaps G2
        ]
    )


class TestAccumulation:
    def test_unique_assignment(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 90)], Strand.FORWARD)
        assert gc.counts["G1"]["unstranded"] == 1
        assert gc.counts["G1"]["forward"] == 1  # read strand == gene strand
        assert gc.counts["G1"]["reverse"] == 0
        assert gc.n_no_feature["reverse"] == 1

    def test_reverse_strand_convention(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 210, 260)], Strand.FORWARD)
        # G2 is a reverse-strand gene; a forward read counts in the
        # "reverse" (dUTP) column, not "forward"
        assert gc.counts["G2"]["unstranded"] == 1
        assert gc.counts["G2"]["forward"] == 0
        assert gc.counts["G2"]["reverse"] == 1

    def test_ambiguous_overlap(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 285, 295)], Strand.FORWARD)
        assert gc.n_ambiguous["unstranded"] == 1
        assert gc.counts["G2"]["unstranded"] == 0
        assert gc.counts["G3"]["unstranded"] == 0
        # stranded columns disambiguate: only G3 is forward
        assert gc.counts["G3"]["forward"] == 1
        assert gc.counts["G2"]["reverse"] == 1

    def test_no_feature(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 150, 160)], Strand.FORWARD)
        assert gc.n_no_feature["unstranded"] == 1

    def test_spliced_blocks_union(self, annotation):
        """Two blocks in the same gene count once, not twice."""
        gc = GeneCounts(annotation)
        gc.record_unique(
            [SequenceRegion("1", 10, 20), SequenceRegion("1", 60, 70)],
            Strand.FORWARD,
        )
        assert gc.counts["G1"]["unstranded"] == 1

    def test_unmapped_and_multi(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unmapped()
        gc.record_multimapped()
        gc.record_multimapped()
        assert gc.n_unmapped == 1
        assert gc.n_multimapping == 2


class TestOutput:
    def test_tab_roundtrip(self, annotation, tmp_path):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.FORWARD)
        gc.record_unmapped()
        path = tmp_path / "ReadsPerGene.out.tab"
        gc.write_tab(path)
        specials, genes = read_counts_tab(path)
        assert specials["N_unmapped"] == 1
        assert genes["G1"] == [1, 1, 0]
        assert set(genes) == {"G1", "G2", "G3"}

    def test_special_rows_first(self, annotation):
        gc = GeneCounts(annotation)
        lines = gc.to_tab().splitlines()
        assert [line.split("\t")[0] for line in lines[:4]] == [
            "N_unmapped",
            "N_multimapping",
            "N_noFeature",
            "N_ambiguous",
        ]

    def test_column_vector_and_total(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.FORWARD)
        gc.record_unique([SequenceRegion("1", 210, 220)], Strand.REVERSE)
        vec = gc.column_vector("unstranded")
        assert vec == {"G1": 1, "G2": 1, "G3": 0}
        assert gc.total_assigned() == 2

    def test_malformed_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.tab"
        path.write_text("G1\t1\t2\n")
        with pytest.raises(ValueError):
            read_counts_tab(path)


# -- the per-contig index against a linear-scan oracle -----------------------

CONTIGS = ("1", "2", "3")


def oracle_overlapping(ann, region):
    """Every gene whose extent overlaps ``region``, by linear scan."""
    return [
        g for g in ann.genes if g.contig == region.contig and g.region.overlaps(region)
    ]


def oracle_assign(ann, contig, position):
    """First covering gene by lowest start, ties in annotation order."""
    on = sorted((g for g in ann.genes if g.contig == contig), key=lambda g: g.start)
    return next((g for g in on if g.start <= position < g.end), None)


def make_gene(i, contig, exons, strand):
    gid = f"G{i}"
    spans = [SequenceRegion(contig, s, s + n) for s, n in exons]
    t = Transcript(
        f"T{i}", gid, contig, strand, [Exon(r, k) for k, r in enumerate(spans)]
    )
    return Gene(gid, gid, contig, strand, [t])


# small coordinates so equal starts, nesting and overlaps are common;
# zero-length exons make zero-length gene extents
gene_specs = st.lists(
    st.tuples(
        st.sampled_from(CONTIGS),
        st.integers(0, 60),
        st.lists(st.integers(0, 25), min_size=1, max_size=3),
        st.sampled_from(list(Strand)),
    ),
    max_size=30,
)


def build_annotation(specs):
    genes = []
    for i, (contig, start, lengths, strand) in enumerate(specs):
        exons, pos = [], start
        for n in lengths:
            exons.append((pos, n))
            pos += n + 5
        genes.append(make_gene(i, contig, exons, strand))
    return Annotation(genes)


# "X" is a contig no gene lies on
regions = st.builds(
    lambda c, s, n: SequenceRegion(c, s, s + n),
    st.sampled_from(CONTIGS + ("X",)),
    st.integers(0, 150),
    st.integers(0, 30),
)


class TestIndexMatchesLinearScan:
    @given(gene_specs, st.lists(regions, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_overlapping_genes(self, specs, queries):
        ann = build_annotation(specs)
        for region in queries:
            assert ann.overlapping_genes(region) == oracle_overlapping(ann, region)

    @given(
        gene_specs,
        st.lists(
            st.tuples(st.sampled_from(CONTIGS + ("X",)), st.integers(0, 150)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_assign_position(self, specs, queries):
        ann = build_annotation(specs)
        for contig, position in queries:
            assert ann.assign_position(contig, position) is oracle_assign(
                ann, contig, position
            )

    @given(gene_specs)
    @settings(max_examples=50, deadline=None)
    def test_genes_on_and_lookup(self, specs):
        ann = build_annotation(specs)
        for contig in CONTIGS:
            on = sorted(
                (g for g in ann.genes if g.contig == contig), key=lambda g: g.start
            )
            assert ann.genes_on(contig) == on
        for g in ann.genes:
            assert ann.gene(g.gene_id) is g


# one read: unmapped, multimapped, or unique with 1-3 blocks on one contig
reads = st.one_of(
    st.just("unmapped"),
    st.just("multi"),
    st.tuples(
        st.sampled_from(CONTIGS + ("X",)),
        st.lists(
            st.tuples(st.integers(0, 150), st.integers(0, 30)), min_size=1, max_size=3
        ),
        st.sampled_from(list(Strand)),
    ),
)


def record(gc, read):
    if read == "unmapped":
        gc.record_unmapped()
    elif read == "multi":
        gc.record_multimapped()
    else:
        contig, blocks, strand = read
        gc.record_unique([SequenceRegion(contig, s, s + n) for s, n in blocks], strand)


class TestShardPartials:
    @given(
        gene_specs,
        st.lists(reads, max_size=40),
        st.lists(st.integers(0, 40), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_merged_partials_equal_one_accumulator(self, specs, rs, cuts):
        ann = build_annotation(specs)
        whole = GeneCounts(ann)
        for read in rs:
            record(whole, read)
        bounds = [0, *sorted(min(c, len(rs)) for c in cuts), len(rs)]
        merged = GeneCounts(ann)
        for lo, hi in zip(bounds, bounds[1:]):
            shard = GeneCounts(ann)
            for read in rs[lo:hi]:
                record(shard, read)
            merged.merge_partial(shard.to_partial())
        assert merged.to_partial() == whole.to_partial()
        assert list(merged.to_partial().gene_counts) == list(
            whole.to_partial().gene_counts
        )
        assert merged.counts == whole.counts
        assert merged.to_tab() == whole.to_tab()

        partial = whole.to_partial()
        # non-zero genes only, in annotation order
        nonzero = [(g, row) for g, row in whole.counts.items() if any(row.values())]
        assert list(partial.gene_counts.items()) == nonzero

    def test_foreign_gene_in_partial_rejected(self, annotation):
        gc = GeneCounts(annotation)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.FORWARD)
        partial = gc.to_partial()
        other = Annotation([make_gene(9, "1", [(0, 10)], Strand.FORWARD)])
        with pytest.raises(KeyError):
            GeneCounts(other).merge_partial(partial)


# -- whole-shard counting: record_columns equals the per-read loop ------------

# like ``reads``, plus too-many-loci reads and blocks on any contig (two
# blocks make a spliced read; "X" carries no gene; coordinate 0 and
# blocks past every gene cover the contig edges)
shard_reads = st.one_of(
    st.just("unmapped"),
    st.just("multi"),
    st.just("too_many"),
    st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from(CONTIGS + ("X",)),
                st.integers(0, 150),
                st.integers(0, 30),
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(list(Strand)),
    ),
)


def alignment(i, read) -> ReadAlignment:
    rid = f"r{i}"
    if read == "unmapped":
        return ReadAlignment(rid, AlignmentStatus.UNMAPPED)
    if read == "multi":
        return ReadAlignment(rid, AlignmentStatus.MULTIMAPPED, Strand.FORWARD, 7, 2)
    if read == "too_many":
        return ReadAlignment(rid, AlignmentStatus.TOO_MANY_LOCI, n_loci=20)
    blocks, strand = read
    return ReadAlignment(
        rid,
        AlignmentStatus.UNIQUE,
        strand,
        n_loci=1,
        blocks=tuple(SequenceRegion(c, s, s + n) for c, s, n in blocks),
        spliced=len(blocks) > 1,
    )


def looped(ann, outcomes) -> GeneCounts:
    """The per-read rule, one call per read."""
    gc = GeneCounts(ann)
    for o in outcomes:
        if o.status is AlignmentStatus.UNIQUE:
            gc.record_unique(list(o.blocks), o.strand)
        elif o.status is AlignmentStatus.UNMAPPED:
            gc.record_unmapped()
        else:
            gc.record_multimapped()
    return gc


def columnar(ann, columns) -> GeneCounts:
    gc = GeneCounts(ann)
    gc.record_columns(columns)
    return gc


class TestRecordColumns:
    @given(
        gene_specs,
        st.lists(shard_reads, max_size=40),
        st.integers(0, 40),
        st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_record_unique_loop(self, specs, rs, a, b):
        ann = build_annotation(specs)
        outcomes = [alignment(i, r) for i, r in enumerate(rs)]
        columns = AlignmentColumns.from_records(outcomes)
        want = looped(ann, outcomes)
        got = columnar(ann, columns)
        assert got == want
        assert got.to_partial() == want.to_partial()
        assert got.to_tab() == want.to_tab()
        # a slice's blocks start mid-array
        lo, hi = sorted((min(a, len(rs)), min(b, len(rs))))
        assert columnar(ann, columns[lo:hi]) == looped(ann, outcomes[lo:hi])

    def test_overlaps_strands_and_spliced_reads(self, annotation):
        outcomes = [
            alignment(0, ([("1", 10, 80)], Strand.FORWARD)),  # G1
            alignment(1, ([("1", 210, 50)], Strand.FORWARD)),  # G2, opposite
            alignment(2, ([("1", 285, 10)], Strand.REVERSE)),  # G2 + G3
            # spliced inside G1, and spliced across G1 and G2
            alignment(3, ([("1", 10, 10), ("1", 60, 10)], Strand.FORWARD)),
            alignment(4, ([("1", 90, 20), ("1", 250, 10)], Strand.REVERSE)),
            alignment(5, ([("1", 0, 1)], Strand.REVERSE)),  # contig start
            alignment(6, ([("1", 399, 5)], Strand.FORWARD)),  # G3's last base
            alignment(7, ([("1", 400, 5)], Strand.FORWARD)),  # just past G3
            alignment(8, ([("2", 10, 10)], Strand.FORWARD)),  # no genes
            alignment(9, "unmapped"),
            alignment(10, "too_many"),
        ]
        got = columnar(annotation, AlignmentColumns.from_records(outcomes))
        assert got == looped(annotation, outcomes)
        assert got.counts["G1"] == {"unstranded": 3, "forward": 2, "reverse": 2}
        assert got.n_ambiguous["unstranded"] == 2
        assert got.n_multimapping == 1 and got.n_unmapped == 1


# -- the cached index stays out of pickles ------------------------------------


class TestPickledAnnotation:
    def count(self, ann):
        gc = GeneCounts(ann)
        gc.record_unique([SequenceRegion("1", 285, 295)], Strand.FORWARD)
        gc.record_unique([SequenceRegion("1", 10, 20)], Strand.REVERSE)
        return gc.to_tab()

    def test_round_trip_counts_and_drops_index(self, annotation):
        fresh = pickle.dumps(annotation)
        want = self.count(annotation)  # builds the index
        assert pickle.dumps(annotation) == fresh
        loaded = pickle.loads(fresh)
        assert "_lookup" not in vars(loaded)
        assert self.count(loaded) == want

    def test_pre_index_pickle_state_counts(self, annotation):
        """An annotation restored from state holding only its genes — what
        a cache file written before the index existed unpickles to."""
        want = self.count(annotation)
        old = Annotation.__new__(Annotation)
        old.__dict__.update(genes=annotation.genes)
        assert self.count(old) == want


# -- scaling guard: a shard's cost follows the genes it hits ------------------


def _forbidden(self):
    raise AssertionError("per-read path touched a per-gene property")


class TestScalingGuard:
    def test_no_per_gene_work_after_first_query(self, monkeypatch):
        genes = [
            make_gene(i, CONTIGS[i % 3], [(i * 10, 8)], Strand.FORWARD)
            for i in range(50_000)
        ]
        ann = Annotation(genes)
        first = GeneCounts(ann)
        first.record_unique([SequenceRegion("1", 0, 5)], Strand.FORWARD)

        for attr in ("start", "end", "region"):
            monkeypatch.setattr(Gene, attr, property(_forbidden))
        monkeypatch.setattr(Annotation, "gene_ids", property(_forbidden))

        shard = GeneCounts(ann)
        # gene i covers [10 i, 10 i + 8) on contig CONTIGS[i % 3]
        shard.record_unique([SequenceRegion("2", 40, 45)], Strand.FORWARD)
        shard.record_unique(
            [SequenceRegion("1", 30, 35), SequenceRegion("1", 60, 65)],
            Strand.REVERSE,
        )
        partial = shard.to_partial()
        assert list(partial.gene_counts) == ["G4"]
        assert partial.n_ambiguous["unstranded"] == 1

        empty = GeneCounts(ann)
        assert empty.to_partial().gene_counts == {}
        assert empty.hits == {}
