"""Mock SRA container, repository, and tool tests."""

import numpy as np
import pytest

from repro.genome.alphabet import encode
from repro.reads.fastq import FastqRecord, read_fastq
from repro.reads.library import LibraryType
from repro.reads.paired import PairedSraArchive
from repro.reads.sra import (
    SraArchive,
    SraRepository,
    archive_from_fastq,
    fasterq_dump,
    load_archive,
    prefetch,
)


def make_records(n=5, length=20) -> list[FastqRecord]:
    rng = np.random.default_rng(0)
    return [
        FastqRecord(
            f"read.{i}",
            rng.integers(0, 4, size=length).astype(np.uint8),
            rng.integers(20, 40, size=length).astype(np.uint8),
        )
        for i in range(n)
    ]


@pytest.fixture
def archive():
    return SraArchive("SRR123", LibraryType.BULK_POLYA, make_records())


class TestArchive:
    def test_bytes_roundtrip(self, archive):
        back = SraArchive.from_bytes(archive.to_bytes())
        assert back.accession == "SRR123"
        assert back.library is LibraryType.BULK_POLYA
        assert back.n_reads == archive.n_reads
        for a, b in zip(archive.records, back.records):
            assert a.read_id == b.read_id
            assert a.sequence_str == b.sequence_str
            assert np.array_equal(a.qualities, b.qualities)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            SraArchive.from_bytes(b"JUNKJUNKJUNK")

    def test_bad_version_rejected(self, archive):
        data = bytearray(archive.to_bytes())
        data[4] = 99
        with pytest.raises(ValueError, match="version"):
            SraArchive.from_bytes(bytes(data))

    def test_metadata_consistent(self, archive):
        meta = archive.metadata(tissue="lung")
        assert meta.accession == "SRR123"
        assert meta.n_reads == 5
        assert meta.read_length == 20
        assert meta.tissue == "lung"
        assert meta.sra_bytes == len(archive.to_bytes())

    def test_compression_beats_raw_for_repetitive(self):
        records = [
            FastqRecord(
                f"r{i}", encode("A" * 200), np.full(200, 30, dtype=np.uint8)
            )
            for i in range(20)
        ]
        archive = SraArchive("SRRZ", LibraryType.BULK_POLYA, records)
        meta = archive.metadata()
        assert meta.sra_bytes < meta.fastq_bytes


class TestRepository:
    def test_memory_deposit_fetch(self, archive):
        repo = SraRepository()
        repo.deposit(archive)
        assert "SRR123" in repo
        assert repo.accessions() == ["SRR123"]
        back = SraArchive.from_bytes(repo.fetch_bytes("SRR123"))
        assert back.accession == "SRR123"

    def test_disk_backed(self, archive, tmp_path):
        repo = SraRepository(tmp_path / "ncbi")
        repo.deposit(archive)
        assert (tmp_path / "ncbi" / "SRR123.sra").exists()
        repo2 = SraRepository(tmp_path / "ncbi")  # fresh handle, same dir
        assert repo2.accessions() == ["SRR123"]

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_paired_deposit_round_trips(self, tmp_path, on_disk):
        mate1 = make_records(4, 20)
        mate2 = [FastqRecord(f"{r.read_id}/2", r.sequence, r.qualities) for r in mate1]
        paired = PairedSraArchive("SRR456", LibraryType.BULK_POLYA, mate1, mate2)
        repo = SraRepository(tmp_path / "ncbi" if on_disk else None)
        meta = repo.deposit(paired)
        blob = repo.fetch_bytes("SRR456")
        assert blob == paired.to_bytes()
        back = PairedSraArchive.from_bytes(blob)
        assert [r.read_id for r in back.mate2] == [r.read_id for r in mate2]
        assert meta.accession == "SRR456"
        assert meta.n_reads == paired.n_pairs == 4
        assert meta.read_length == 20
        assert meta.sra_bytes == len(blob)
        assert meta.fastq_bytes > 0

    def test_missing_accession(self):
        repo = SraRepository()
        assert "SRR999" not in repo
        with pytest.raises(KeyError):
            repo.fetch_bytes("SRR999")


class TestTools:
    def test_prefetch_layout(self, archive, tmp_path):
        repo = SraRepository()
        repo.deposit(archive)
        path = prefetch(repo, "SRR123", tmp_path)
        assert path == tmp_path / "SRR123" / "SRR123.sra"
        assert path.exists()

    def test_fasterq_dump_roundtrip(self, archive, tmp_path):
        repo = SraRepository()
        repo.deposit(archive)
        sra_path = prefetch(repo, "SRR123", tmp_path)
        fastq_path = fasterq_dump(sra_path, tmp_path / "fastq")
        records = read_fastq(fastq_path)
        assert len(records) == archive.n_reads
        assert records[0].sequence_str == archive.records[0].sequence_str

    def test_load_archive(self, archive, tmp_path):
        path = tmp_path / "a.sra"
        path.write_bytes(archive.to_bytes())
        assert load_archive(path).accession == "SRR123"

    def test_archive_from_fastq_roundtrip(self, archive, tmp_path):
        repo = SraRepository()
        repo.deposit(archive)
        sra_path = prefetch(repo, "SRR123", tmp_path)
        fastq_path = fasterq_dump(sra_path, tmp_path / "fq")
        rebuilt = archive_from_fastq("SRR123", fastq_path, LibraryType.BULK_POLYA)
        assert rebuilt.n_reads == archive.n_reads
        assert rebuilt.to_bytes() == archive.to_bytes()
