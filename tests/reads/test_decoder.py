"""The columnar FASTQ decoder against the line reader, on every entry point.

``iter_fastq`` (the line-by-line reader) is the oracle for what a valid
payload decodes to.  The decoder runs behind three entry points — a FASTQ
file (:func:`read_fastq_columns`), an archive dump
(:func:`run_fasterq_dump`) and a streamed download (:class:`SraStream`) —
and every malformed payload must fail with a ``ValueError`` on all three.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reads.fastq import (
    FastqRecord,
    ReadColumns,
    decode_fastq,
    iter_fastq,
    read_fastq_columns,
    write_fastq,
)
from repro.reads.library import LibraryType
from repro.reads.sra import (
    SraArchive,
    SraRepository,
    run_fasterq_dump,
)
from repro.reads.stream import SraStream

ACC = "SRRDEC01"

id_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
)
header_tail = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from([" ", "\t", "  "]), st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8
    )).map("".join),
)
# lowercase, N and letters outside ACGTN all occur in real FASTQ files
base_text = st.text(alphabet="ACGTNacgtnRYKM.-", max_size=30)


@st.composite
def fastq_record(draw):
    """``(header, sequence, plus line, quality)`` text for one read."""
    seq = draw(base_text)
    qual = draw(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=len(seq),
            max_size=len(seq),
        )
    )
    plus = draw(st.sampled_from(["+", "+", "+dup"]))
    return draw(id_text) + draw(header_tail), seq, plus, qual


def fastq_text(records) -> bytes:
    return "".join(
        f"@{h}\n{s}\n{p}\n{q}\n" for h, s, p, q in records
    ).encode("ascii")


def canonical(seq: str) -> str:
    """What the encode/decode round trip makes of a sequence line."""
    return "".join(c if c in "ACGTN" else "N" for c in seq.upper())


def archive_bytes(payload: bytes, n_reads: int, *, level: int = 6) -> bytes:
    """A single-end container around raw payload bytes."""
    header = json.dumps(
        {"accession": ACC, "library": LibraryType.BULK_POLYA.value,
         "n_reads": n_reads, "read_length": 0}
    ).encode("ascii")
    return (
        b"SRAR" + struct.pack("<HI", 1, len(header)) + header
        + zlib.compress(payload, level)
    )


def repository_with(blob: bytes) -> SraRepository:
    repo = SraRepository()
    repo._blobs[ACC] = blob
    return repo


def streamed(blob: bytes, **kwargs) -> ReadColumns:
    stream = SraStream(repository_with(blob), ACC, **kwargs).open()
    return ReadColumns.concat(list(stream.chunks()))


def assert_matches_oracle(columns: ReadColumns, oracle: list[FastqRecord]):
    assert columns.ids == [r.read_id for r in oracle]
    assert len(columns) == len(oracle)
    for got, want in zip(columns.records(), oracle):
        assert np.array_equal(got.sequence, want.sequence)
        assert np.array_equal(got.qualities, want.qualities)


class TestDecoderProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(fastq_record(), max_size=8))
    def test_every_entry_point_matches_the_line_reader(self, tmp_path_factory, records):
        tmp = tmp_path_factory.mktemp("dec")
        payload = fastq_text(records)
        path = tmp / "reads.fastq"
        path.write_bytes(payload)
        oracle = list(iter_fastq(path))

        assert_matches_oracle(read_fastq_columns(path), oracle)
        blob = archive_bytes(payload, len(records))
        sra = tmp / f"{ACC}.sra"
        sra.write_bytes(blob)
        dump = run_fasterq_dump(sra, tmp / "out")
        assert_matches_oracle(dump.reads, oracle)
        assert_matches_oracle(streamed(blob, chunk_bytes=7, chunk_reads=3), oracle)

        # the dumped file is what write_fastq writes for the archive's
        # records: whole headers, canonical bases, bare '+' lines
        want = "".join(
            f"@{h}\n{canonical(s)}\n+\n{q}\n" for h, s, _, q in records
        ).encode("ascii")
        assert dump.paths[0].read_bytes() == want
        archived = SraArchive.from_bytes(blob).records
        write_fastq(archived, tmp / "records.fastq")
        assert (tmp / "records.fastq").read_bytes() == want

    @settings(max_examples=25, deadline=None)
    @given(st.lists(fastq_record(), min_size=1, max_size=5), st.integers(1, 4))
    def test_stream_boundaries_at_every_byte_offset(self, records, chunk_reads):
        """A stored (uncompressed) zlib payload fed one byte at a time
        puts a chunk boundary after every payload byte."""
        payload = fastq_text(records)
        blob = archive_bytes(payload, len(records), level=0)
        want = decode_fastq(payload, source=ACC)
        got = streamed(blob, chunk_bytes=1, chunk_reads=chunk_reads)
        assert got.ids == want.ids
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.bases, want.bases)
        assert np.array_equal(got.qualities, want.qualities)

    def test_zero_length_reads(self, tmp_path):
        payload = b"@a\n\n+\n\n@b\nAC\n+\nII\n@c\n\n+\n\n"
        reads = decode_fastq(payload, source="x")
        assert reads.ids == ["a", "b", "c"]
        assert reads.lengths.tolist() == [0, 2, 0]
        assert [r.length for r in reads.records()] == [0, 2, 0]


MALFORMED = {
    "missing @ header": b"r1\nACGT\n+\nIIII\n",
    "missing + separator": b"@r1\nACGT\n-\nIIII\n",
    "length mismatch": b"@r1\nACGT\n+\nIII\n",
    "quality below Phred+33": b"@r1\nACGT\n+\nII I\n",
    "truncated record": b"@r1\nACGT\n+\nIIII\n@r2\nAC\n",
    "unterminated final line": b"@r1\nACGT\n+\nIIII",
    "header without an id": b"@\nACGT\n+\nIIII\n",
    "header id after whitespace": b"@ r1\nACGT\n+\nIIII\n",
}


class TestMalformed:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_rejected_by_every_entry_point(self, tmp_path, payload):
        path = tmp_path / "bad.fastq"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="bad.fastq"):
            read_fastq_columns(path)
        blob = archive_bytes(payload, 1)
        sra = tmp_path / f"{ACC}.sra"
        sra.write_bytes(blob)
        with pytest.raises(ValueError, match=ACC):
            run_fasterq_dump(sra, tmp_path / "out")
        with pytest.raises(ValueError):
            streamed(blob, chunk_bytes=5, chunk_reads=1)

    @pytest.mark.parametrize("declared", [1, 3])
    def test_header_read_count_checked(self, tmp_path, declared):
        blob = archive_bytes(b"@a\nA\n+\nI\n@b\nC\n+\nI\n", declared)
        sra = tmp_path / f"{ACC}.sra"
        sra.write_bytes(blob)
        with pytest.raises(ValueError, match="header says"):
            run_fasterq_dump(sra, tmp_path / "out")
        with pytest.raises(ValueError, match="header says"):
            streamed(blob)

    def test_paired_line_count_divisible_by_eight(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            decode_fastq(b"@a/1\nA\n+\nI\n", source="x", mates=2)


class TestIdlessHeaders:
    """A header with no id is a ValueError naming its source on every
    entry point, never an IndexError."""

    @pytest.mark.parametrize("header", [b"@", b"@ x"])
    def test_value_error_names_the_source(self, tmp_path, header):
        payload = header + b"\nACGT\n+\nIIII\n"
        path = tmp_path / "noid.fastq"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="noid.fastq.*no read id"):
            list(iter_fastq(path))
        with pytest.raises(ValueError, match="noid.fastq.*no read id"):
            read_fastq_columns(path)
        blob = archive_bytes(payload, 1)
        sra = tmp_path / f"{ACC}.sra"
        sra.write_bytes(blob)
        with pytest.raises(ValueError, match=f"{ACC}.*no read id"):
            run_fasterq_dump(sra, tmp_path / "out")
        with pytest.raises(ValueError, match=f"{ACC}.*no read id"):
            streamed(blob)


class TestReadIdRule:
    def test_archive_keeps_whole_headers_and_round_trips(self):
        records = [
            FastqRecord("r1 len=4", np.array([0, 1, 2, 3]), np.full(4, 30)),
            FastqRecord("r2\tlane=7", np.array([3, 3]), np.full(2, 20)),
        ]
        blob = SraArchive(ACC, LibraryType.BULK_POLYA, records).to_bytes()
        back = SraArchive.from_bytes(blob)
        assert [r.read_id for r in back.records] == ["r1 len=4", "r2\tlane=7"]
        assert back.to_bytes() == blob
        assert streamed(blob).ids == ["r1", "r2"]

    def test_columns_round_trip_through_records(self):
        payload = b"@a x\nACGT\n+\nIIII\n@b\nGG\n+\n!!\n"
        reads = decode_fastq(payload, source="x")
        again = ReadColumns.from_records(reads.records())
        assert again.ids == reads.ids
        assert np.array_equal(again.offsets, reads.offsets)
        assert np.array_equal(again.bases, reads.bases)
        assert np.array_equal(again.qualities, reads.qualities)
