"""Batch alignment core: bit-identity against the per-read oracle.

The contract of :mod:`repro.align.batch` is byte-for-byte equivalence
with the serial path — every test here compares ``align_read_batch``
against a list comprehension over :meth:`StarAligner.align_read` (the
reference oracle) on adversarial inputs: random genomes, N runs, reads
crossing contig boundaries, reads shorter than the jump-table k-mer,
paired mates, and early-stopped runs.
"""

import numpy as np
import pytest

from repro.align.batch import align_read_batch
from repro.align.counts import GeneCounts
from repro.align.index import GenomeIndex
from repro.align.paired import PairedParameters, PairedStarAligner
from repro.align.progress import ProgressRecord
from repro.align.star import AlignmentStatus, StarAligner, StarParameters
from repro.align.suffix_array import build_suffix_array
from repro.genome.alphabet import BASE_N, reverse_complement
from repro.reads.fastq import FastqRecord


def as_record(seq: np.ndarray, rid: str) -> FastqRecord:
    seq = np.asarray(seq, dtype=np.uint8)
    return FastqRecord(rid, seq, np.full(seq.size, 35, dtype=np.uint8))


def oracle(aligner: StarAligner, records: list[FastqRecord]):
    return [aligner.align_read(r) for r in records]


def assert_batch_matches(aligner: StarAligner, records: list[FastqRecord]):
    assert align_read_batch(aligner, records) == oracle(aligner, records)


def random_index(rng: np.random.Generator, *, n_contigs=3, contig_len=400,
                 n_runs=0) -> GenomeIndex:
    """A small multi-contig genome with optional embedded N runs."""
    genome = rng.integers(0, 4, n_contigs * contig_len).astype(np.uint8)
    for _ in range(n_runs):
        start = int(rng.integers(0, genome.size - 10))
        genome[start : start + int(rng.integers(1, 10))] = BASE_N
    offsets = np.arange(0, (n_contigs + 1) * contig_len, contig_len, dtype=np.int64)
    return GenomeIndex(
        assembly_name="rand",
        genome=genome,
        suffix_array=build_suffix_array(genome),
        offsets=offsets,
        names=[f"c{i}" for i in range(n_contigs)],
    )


def sample_reads(
    rng: np.random.Generator, index: GenomeIndex, *, n_reads=60, read_length=50
) -> list[FastqRecord]:
    """Genomic slices with mutations/Ns, RC reads, and pure-noise reads."""
    records = []
    gn = index.genome.size
    for i in range(n_reads):
        kind = i % 6
        if kind == 5:
            seq = rng.integers(0, 4, read_length).astype(np.uint8)
        else:
            start = int(rng.integers(0, gn - read_length))
            seq = index.genome[start : start + read_length].copy()
            if kind == 1:  # scattered substitutions
                for _ in range(int(rng.integers(1, 4))):
                    j = int(rng.integers(0, read_length))
                    seq[j] = (seq[j] + 1) % 4
            elif kind == 2:  # early error triggers the bridge re-seed
                seq[int(rng.integers(0, 4))] = (seq[0] + 1) % 4
            elif kind == 3:  # read-side N run
                j = int(rng.integers(0, read_length - 3))
                seq[j : j + 3] = BASE_N
            elif kind == 4:
                seq = reverse_complement(seq)
        records.append(as_record(seq, f"r{i}"))
    return records


class TestRandomGenomes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_genome_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        index = random_index(rng)
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, sample_reads(rng, index))

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_genome_with_n_runs(self, seed):
        """Genome-side N runs: seeds stop at N, extension counts them."""
        rng = np.random.default_rng(seed)
        index = random_index(rng, n_runs=8)
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, sample_reads(rng, index))

    def test_contig_boundary_reads(self):
        """Reads straddling contig joins must fail extension identically."""
        rng = np.random.default_rng(99)
        index = random_index(rng, n_contigs=4, contig_len=300)
        records = []
        for i, boundary in enumerate((300, 600, 900)):
            for shift in (-40, -25, -10, -1):
                seq = index.genome[boundary + shift : boundary + shift + 50].copy()
                records.append(as_record(seq, f"b{i}_{shift}"))
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, records)

    def test_reads_shorter_than_jump_length(self):
        """Short reads can't use the k-mer table; the fallback walk must
        agree lane-for-lane with the serial search."""
        rng = np.random.default_rng(5)
        index = random_index(rng)
        jump_len = index.search_context.jump_length
        assert jump_len > 1  # the premise: shorter reads exist
        records = []
        for i in range(20):
            length = int(rng.integers(1, jump_len))
            start = int(rng.integers(0, index.genome.size - length))
            records.append(as_record(index.genome[start : start + length], f"s{i}"))
        records.append(as_record(np.zeros(0, dtype=np.uint8), "empty"))
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        assert_batch_matches(aligner, records)


def planted_index(rng, repeats) -> tuple[GenomeIndex, list[np.ndarray]]:
    """A random 3-contig genome with ``repeats`` (copies of each planted
    50-mer) laid inside contigs; returns the index and the 50-mers."""
    contig_len = 700
    genome = rng.integers(0, 4, 3 * contig_len).astype(np.uint8)
    kmers = []
    slot = 0
    for copies in repeats:
        kmer = rng.integers(0, 4, 50).astype(np.uint8)
        kmers.append(kmer)
        for _ in range(copies):
            contig, k = divmod(slot, 6)
            start = contig * contig_len + 10 + 110 * k
            genome[start : start + 50] = kmer
            slot += 1
    offsets = np.arange(0, 4 * contig_len, contig_len, dtype=np.int64)
    index = GenomeIndex(
        assembly_name="planted",
        genome=genome,
        suffix_array=build_suffix_array(genome),
        offsets=offsets,
        names=["c0", "c1", "c2"],
    )
    return index, kmers


class TestOutcomeKinds:
    """Each classification outcome, batch core against the oracle."""

    def test_every_status_and_zero_length_reads(self):
        rng = np.random.default_rng(21)
        index, (multi, too_many) = planted_index(rng, repeats=(3, 6))
        aligner = StarAligner(
            index, StarParameters(quant_gene_counts=False, multimap_nmax=4)
        )
        empty = np.zeros(0, dtype=np.uint8)
        unique = index.genome[1450:1510]  # after every planted copy
        records = [
            as_record(unique, "unique"),
            as_record(reverse_complement(unique), "unique_rc"),
            as_record(empty, "empty0"),
            as_record(multi, "multi"),
            as_record(reverse_complement(multi), "multi_rc"),
            as_record(too_many, "too_many"),
            as_record(empty, "empty1"),
            as_record(rng.integers(0, 4, 60).astype(np.uint8), "noise"),
            as_record(empty, "empty2"),
        ]
        want = oracle(aligner, records)
        assert [o.status.value for o in want] == [
            "unique", "unique", "unmapped", "multimapped", "multimapped",
            "too_many_loci", "unmapped", "unmapped", "unmapped",
        ]
        assert [o.n_loci for o in want[3:6]] == [3, 3, 6]
        got = align_read_batch(aligner, records)
        assert got == want
        assert list(got) == want and [got[i] for i in range(len(got))] == want

    def test_bridge_rescued_reads(self, monkeypatch):
        """Reads whose early error leaves the prefix seed without an
        accepted placement, rescued by the error-bridge re-seed."""
        import repro.align.star as star

        rng = np.random.default_rng(33)
        index = random_index(rng, contig_len=600)
        aligner = StarAligner(index, StarParameters(quant_gene_counts=False))
        records = []
        for i in range(60):
            start = int(rng.integers(0, index.genome.size - 60))
            seq = index.genome[start : start + 60].copy()
            j = int(rng.integers(2, 8))
            seq[j] = (seq[j] + 1 + int(rng.integers(0, 3))) % 4
            records.append(as_record(seq, f"e{i}"))
        seeds = []
        mmp = star.maximal_mappable_prefix

        def counting(index, read, **kwargs):
            seeds.append(kwargs.get("read_start", 0))
            return mmp(index, read, **kwargs)

        monkeypatch.setattr(star, "maximal_mappable_prefix", counting)
        want = []
        rescued = 0
        for record in records:
            seeds.clear()
            want.append(aligner.align_read(record))
            bridged = any(s > 0 for s in seeds)
            rescued += bridged and want[-1].status.is_mapped
        monkeypatch.undo()
        assert rescued >= 5
        assert align_read_batch(aligner, records) == want


class TestSimulatedSample:
    def test_bulk_sample_bit_identical(self, index_r111, bulk_sample):
        aligner = StarAligner(index_r111, StarParameters())
        assert_batch_matches(aligner, list(bulk_sample.records))

    def test_run_results_identical(self, index_r111, bulk_sample):
        """Whole-run equality: outcomes, progress counters, final stats."""
        records = list(bulk_sample.records)
        on = StarAligner(
            index_r111, StarParameters(progress_every=50, batch_align=True)
        ).run(records)
        off = StarAligner(
            index_r111, StarParameters(progress_every=50, batch_align=False)
        ).run(records)
        assert on.outcomes == off.outcomes
        assert [r.reads_processed for r in on.progress] == [
            r.reads_processed for r in off.progress
        ]
        assert on.final.mapped_unique == off.final.mapped_unique
        assert on.final.mapped_multi == off.final.mapped_multi
        assert on.final.unmapped == off.final.unmapped
        assert on.final.mismatch_rate == off.final.mismatch_rate
        assert on.gene_counts.to_partial() == off.gene_counts.to_partial()


@pytest.fixture(scope="module")
def paired_sample(simulator):
    from repro.reads.library import LibraryType
    from repro.reads.paired import PairedProfile, simulate_paired

    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=120, read_length=70,
            insert_mean=250, insert_sd=30,
        ),
        rng=9,
    )


class TestPairedMates:
    def test_paired_run_bit_identical(self, index_r111, paired_sample):
        mate1, mate2 = paired_sample.mate1, paired_sample.mate2
        results = {}
        for batch in (True, False):
            aligner = StarAligner(
                index_r111, StarParameters(batch_align=batch)
            )
            paired = PairedStarAligner(aligner, PairedParameters())
            results[batch] = paired.run(mate1, mate2)
        assert results[True].outcomes == results[False].outcomes
        assert results[True].final.mapped_unique == results[False].final.mapped_unique


class TestEarlyStopMidBatch:
    def test_aborted_run_identical(self, index_r111, bulk_sample):
        """An abort between batch boundaries must truncate at the same
        read the serial loop stops at, with identical partial results."""
        records = list(bulk_sample.records)
        results = {}
        for batch in (True, False):
            aligner = StarAligner(
                index_r111,
                StarParameters(
                    progress_every=30, batch_align=batch, align_batch_size=64
                ),
            )
            # abort at the third progress record: read 90, mid-way through
            # the second 64-read batch
            seen = []

            def monitor(rec, seen=seen):
                seen.append(rec)
                return len(seen) < 3

            results[batch] = aligner.run(records, monitor=monitor)
        on, off = results[True], results[False]
        assert on.aborted and off.aborted
        assert on.outcomes == off.outcomes
        assert len(on.outcomes) == 90
        assert on.final.reads_processed == off.final.reads_processed

    @pytest.mark.parametrize("stop_at", [1, 3, 4])
    def test_abort_mid_shard_matches_per_read_merge(
        self, index_r111, bulk_sample, stop_at
    ):
        """The shard-at-a-time merge reproduces the read-at-a-time one: a
        snapshot every ``progress_every`` reads with running counts, the
        abort at the same read, and gene counts and final statistics
        over exactly the consumed prefix."""
        records = list(bulk_sample.records)
        aligner = StarAligner(
            index_r111, StarParameters(progress_every=30, align_batch_size=64)
        )
        seen = []

        def monitor(rec):
            seen.append(rec)
            return len(seen) < stop_at

        result = aligner.run(records, monitor=monitor, clock=lambda: 0.0)

        # the read-at-a-time reference over the oracle's outcomes
        outcomes = oracle(aligner, records)
        unique = multi = 0
        want_progress = []
        for n, o in enumerate(outcomes, 1):
            unique += o.status is AlignmentStatus.UNIQUE
            multi += o.status is AlignmentStatus.MULTIMAPPED
            if n % 30 == 0:
                want_progress.append(
                    ProgressRecord(0.0, n, len(records), unique, multi)
                )
                if len(want_progress) == stop_at:
                    break
        kept = outcomes[: 30 * stop_at]
        counts = GeneCounts(index_r111.annotation)
        for o in kept:
            if o.status is AlignmentStatus.UNIQUE:
                counts.record_unique(list(o.blocks), o.strand)
            elif o.status is AlignmentStatus.UNMAPPED:
                counts.record_unmapped()
            else:
                counts.record_multimapped()
        uniques = [o for o in kept if o.status is AlignmentStatus.UNIQUE]

        assert result.aborted
        assert result.progress == seen == want_progress
        assert result.outcomes == kept
        assert result.gene_counts == counts
        assert result.gene_counts.to_tab() == counts.to_tab()
        final = result.final
        assert (final.mapped_unique, final.mapped_multi) == (unique, multi)
        assert final.reads_processed == len(kept)
        assert final.spliced_reads == sum(o.spliced for o in uniques)
        assert final.mismatch_rate == sum(o.mismatches for o in uniques) / sum(
            b.end - b.start for o in uniques for b in o.blocks
        )
