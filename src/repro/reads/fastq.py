"""FASTQ record model, the columnar read layout, and FASTQ I/O.

Two read representations live here:

* :class:`FastqRecord` — one read as an object.  Trimming, SAM output,
  the per-read alignment oracle and the test/demo utilities work on
  records;
* :class:`ReadColumns` — a whole batch of reads as four columns (ids,
  concatenated base codes, offsets, qualities).  Everything on the hot
  path — ``fasterq-dump``, the streamed download, the shard runner and
  the batch alignment core — moves reads in this form, so a read never
  becomes an object between the archive and its alignment.

:class:`FastqPayload` is the one vectorized decoder from FASTQ bytes (an
archive payload, a FASTQ file, or a stream's decompressed bytes) to
columns.  :func:`iter_fastq` is the plain line-by-line reader; it streams
files of any size and is the reference the decoder is tested against.
Both follow one read-id rule: the id is the header text after ``@`` up to
the first whitespace, and a header without one is rejected.
"""

from __future__ import annotations

import gzip
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.genome.alphabet import (
    _DECODE_LUT,
    _ENCODE_LUT,
    BASE_N,
    decode,
    encode,
)

PHRED_OFFSET = 33
MAX_PHRED = 41

_NEWLINE = ord("\n")
_AT = ord("@")
_PLUS = ord("+")

#: bytes that end a read id: ASCII whitespace (what ``str.split`` splits
#: on) plus the newline an id-less ``@`` header line ends with
_ID_END = np.zeros(256, dtype=bool)
_ID_END[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


@dataclass
class FastqRecord:
    """One read: identifier, encoded sequence, numeric Phred qualities."""

    read_id: str
    sequence: np.ndarray  # uint8 base codes
    qualities: np.ndarray  # uint8 Phred scores (not ASCII)

    def __post_init__(self) -> None:
        self.sequence = np.asarray(self.sequence, dtype=np.uint8)
        self.qualities = np.asarray(self.qualities, dtype=np.uint8)
        if self.sequence.shape != self.qualities.shape:
            raise ValueError(
                f"read {self.read_id}: sequence length {self.sequence.size} != "
                f"quality length {self.qualities.size}"
            )

    @property
    def length(self) -> int:
        return int(self.sequence.size)

    @property
    def sequence_str(self) -> str:
        return decode(self.sequence)

    @property
    def quality_str(self) -> str:
        return (self.qualities + PHRED_OFFSET).tobytes().decode("ascii")

    @property
    def mean_quality(self) -> float:
        return float(self.qualities.mean()) if self.qualities.size else 0.0

    @classmethod
    def from_strings(cls, read_id: str, sequence: str, quality: str) -> "FastqRecord":
        """Build a record from FASTQ text fields."""
        q = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
        if (q < PHRED_OFFSET).any():
            raise ValueError(f"read {read_id}: quality characters below Phred+33 range")
        return cls(read_id, encode(sequence), (q - PHRED_OFFSET).astype(np.uint8))


# --------------------------------------------------------------------------
# columns
# --------------------------------------------------------------------------


def _mask(size: int, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Boolean mask of the ranges ``[starts[i], stops[i])`` over ``size``
    bytes; the ranges must be disjoint and in order.  One byte per
    position, where gather indices would take eight."""
    bounds = np.empty(2 * starts.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1:2] = starts
    bounds[2:-1:2] = stops
    inside = np.zeros(bounds.size - 1, dtype=bool)
    inside[1::2] = True
    return np.repeat(inside, np.diff(bounds))


@dataclass(frozen=True, eq=False)
class ReadColumns:
    """A batch of reads as columns.

    Read ``i`` is ``ids[i]``; its base codes are
    ``bases[offsets[i] : offsets[i + 1]]`` and its Phred scores the same
    slice of ``qualities``.  Slicing (``columns[a:b]``) gives views, so
    sharding a batch copies nothing until a shard is pickled.
    """

    ids: list[str]
    bases: np.ndarray  # uint8 base codes, all reads concatenated
    offsets: np.ndarray  # int64, n_reads + 1 read boundaries
    qualities: np.ndarray  # uint8 Phred scores, laid out like ``bases``

    @classmethod
    def _build(cls, ids, lengths, bases, qualities) -> "ReadColumns":
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(list(ids), bases, offsets, qualities)

    @classmethod
    def from_records(cls, records: Iterable[FastqRecord]) -> "ReadColumns":
        """Columns holding ``records``, in order."""
        records = list(records)
        if not records:
            return cls.concat([])
        return cls._build(
            [r.read_id for r in records],
            np.array([r.length for r in records], dtype=np.int64),
            np.concatenate([r.sequence for r in records]),
            np.concatenate([r.qualities for r in records]),
        )

    @classmethod
    def concat(cls, parts: Sequence["ReadColumns"]) -> "ReadColumns":
        """The reads of every part, in order."""
        if len(parts) == 1:
            return parts[0]
        empty = np.zeros(0, dtype=np.uint8)
        return cls._build(
            [rid for part in parts for rid in part.ids],
            np.concatenate([np.diff(p.offsets) for p in parts] or [empty]),
            np.concatenate([p.bases for p in parts] or [empty]),
            np.concatenate([p.qualities for p in parts] or [empty]),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key: slice) -> "ReadColumns":
        if not isinstance(key, slice):
            raise TypeError("read columns take slices; use records() for reads")
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise ValueError("read columns slice only contiguously")
        stop = max(start, stop)
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return ReadColumns(
            self.ids[start:stop],
            self.bases[lo:hi],
            self.offsets[start : stop + 1] - lo,
            self.qualities[lo:hi],
        )

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def wire_bytes(self) -> int:
        """Sequence + qualities + id + 8 framing bytes per read: the request
        size estimate the FaaS shard sizer and payload check use."""
        return 2 * int(self.bases.size) + sum(map(len, self.ids)) + 8 * len(self)

    def records(self) -> list[FastqRecord]:
        """One :class:`FastqRecord` per read (views into the columns)."""
        off = self.offsets.tolist()
        return [
            FastqRecord(rid, self.bases[a:b], self.qualities[a:b])
            for rid, a, b in zip(self.ids, off, off[1:])
        ]


@dataclass(frozen=True, eq=False)
class PairedColumns:
    """Both mates of a batch of read pairs, pair ``i`` at row ``i`` of each."""

    mate1: ReadColumns
    mate2: ReadColumns

    def __post_init__(self) -> None:
        if len(self.mate1) != len(self.mate2):
            raise ValueError("mate lists must have equal length")

    @classmethod
    def concat(cls, parts: Sequence["PairedColumns"]) -> "PairedColumns":
        if len(parts) == 1:
            return parts[0]
        return cls(
            ReadColumns.concat([p.mate1 for p in parts]),
            ReadColumns.concat([p.mate2 for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.mate1)

    def __getitem__(self, key: slice) -> "PairedColumns":
        return PairedColumns(self.mate1[key], self.mate2[key])

    def wire_bytes(self) -> int:
        return self.mate1.wire_bytes() + self.mate2.wire_bytes()


def as_columns(reads: ReadColumns | Iterable[FastqRecord]) -> ReadColumns:
    """``reads`` as columns: record lists are converted once, here."""
    if isinstance(reads, ReadColumns):
        return reads
    return ReadColumns.from_records(reads)


# --------------------------------------------------------------------------
# the decoder
# --------------------------------------------------------------------------


class FastqPayload:
    """One FASTQ payload, validated and decoded in a few numpy passes.

    ``mates=2`` reads a mate-interleaved payload (mate 1's four lines,
    then mate 2's).  Construction checks everything the line reader
    checks — ``@`` headers with a read id, ``+`` separators, equal
    sequence and quality lengths, the Phred+33 floor — plus the framing
    a whole payload has: ASCII only, a newline-terminated final line, a
    line count divisible by ``4 * mates`` and, when ``expected`` is
    given, that many reads (or pairs).  Every failure is a
    :class:`ValueError` naming ``source``.
    """

    def __init__(
        self,
        payload: bytes,
        *,
        source: str,
        mates: int = 1,
        expected: int | None = None,
    ) -> None:
        self.source = source
        self.mates = mates
        self._payload = payload
        buf = self._buf = np.frombuffer(payload, dtype=np.uint8)
        if buf.size and buf[-1] != _NEWLINE:
            raise ValueError(f"{source}: unterminated final line")
        if buf.size and int(buf.max()) > 127:
            raise ValueError(f"{source}: non-ASCII byte in FASTQ payload")
        ends = np.flatnonzero(buf == _NEWLINE)
        if ends.size % (4 * mates):
            raise ValueError(
                f"{source}: FASTQ line count {ends.size} not divisible by "
                f"{4 * mates}"
            )
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        # one row per record; columns: header, sequence, '+', quality
        s = self._starts = starts.reshape(-1, 4)
        e = self._ends = ends.reshape(-1, 4)
        n_rows = s.shape[0]
        if expected is not None and n_rows // mates != expected:
            unit = "pairs" if mates == 2 else "reads"
            raise ValueError(
                f"{source}: header says {expected} {unit}, payload has "
                f"{n_rows // mates}"
            )

        self._fail_where(buf[s[:, 0]] != _AT, "expected '@' header, got {0!r}", 0)
        self._fail_where(buf[s[:, 2]] != _PLUS, "malformed separator line {0!r}", 2)
        lengths = e[:, 1] - s[:, 1]
        self._fail_where(
            lengths != e[:, 3] - s[:, 3],
            "sequence/quality length mismatch in {0!r}",
            0,
        )
        self._fail_where(
            _ID_END[buf[s[:, 0] + 1]], "read header {0!r} has no read id", 0
        )
        self._seq_mask = _mask(buf.size, s[:, 1], e[:, 1])
        quals = buf[_mask(buf.size, s[:, 3], e[:, 3])]
        low = quals < PHRED_OFFSET
        if low.any():
            # the read whose quality slice holds the first low byte
            row = np.searchsorted(np.cumsum(lengths), np.argmax(low), side="right")
            raise ValueError(
                f"{source}: quality characters below Phred+33 range in "
                f"{self._line(int(row), 0)!r}"
            )
        self._bases = _ENCODE_LUT[buf[self._seq_mask]]
        self._quals = quals - PHRED_OFFSET
        self._lengths = lengths

    def __len__(self) -> int:
        """Reads (or pairs) in the payload."""
        return self._starts.shape[0] // self.mates

    def _line(self, row: int, k: int) -> str:
        start, end = int(self._starts[row, k]), int(self._ends[row, k])
        return self._payload[start:end].decode("ascii", "replace")

    def _fail_where(self, bad: np.ndarray, message: str, k: int) -> None:
        if bad.any():
            line = self._line(int(np.argmax(bad)), k)
            raise ValueError(f"{self.source}: " + message.format(line))

    def _header_bytes(self) -> np.ndarray:
        """Every header line after its ``@``, newline included."""
        s, e = self._starts[:, 0], self._ends[:, 0]
        return self._buf[_mask(self._buf.size, s + 1, e + 1)]

    def headers(self) -> list[str]:
        """Every record's header text after ``@``, whitespace included."""
        return self._header_bytes().tobytes().decode("ascii").split("\n")[:-1]

    def _ids(self) -> list[str]:
        """Headers cut at the first whitespace (the read-id rule)."""
        raw = self._header_bytes()
        headers = raw.tobytes().decode("ascii").split("\n")[:-1]
        # the only id-ending bytes are the newlines: no header to cut
        if np.count_nonzero(_ID_END[raw]) == len(headers):
            return headers
        return [h.split(None, 1)[0] for h in headers]

    def columns(self, ids: list[str] | None = None) -> ReadColumns | PairedColumns:
        """The reads as columns (:class:`PairedColumns` when ``mates=2``).

        ``ids`` overrides the read ids (one per record, in payload order);
        by default they follow the read-id rule.
        """
        ids = ids if ids is not None else self._ids()
        every = ReadColumns._build(ids, self._lengths, self._bases, self._quals)
        if self.mates == 1:
            return every
        return PairedColumns(self._rows(every, 0), self._rows(every, 1))

    def _rows(self, every: ReadColumns, mate: int) -> ReadColumns:
        rows = slice(mate, None, self.mates)
        at = _mask(
            every.bases.size, every.offsets[:-1][rows], every.offsets[1:][rows]
        )
        return ReadColumns._build(
            every.ids[rows],
            self._lengths[rows],
            every.bases[at],
            every.qualities[at],
        )

    def canonical(self, mate: int = 0) -> bytes:
        """One mate's records as FASTQ text, exactly as :func:`write_fastq`
        writes them: headers and qualities verbatim, bases through the
        encode/decode round trip (upper case, anything else ``N``), bare
        ``+`` separators."""
        out = self._buf.copy()
        out[self._seq_mask] = _DECODE_LUT[self._bases]
        s = self._starts[mate :: self.mates]
        e = self._ends[mate :: self.mates]
        if self.mates == 1 and (e[:, 2] - s[:, 2] == 1).all():
            return out.tobytes()
        # keep the header and sequence lines, '+', its newline, the quality
        keep_from = np.stack([s[:, 0], s[:, 2], e[:, 2], s[:, 3]], axis=1)
        keep_to = np.stack(
            [e[:, 1] + 1, s[:, 2] + 1, e[:, 2] + 1, e[:, 3] + 1], axis=1
        )
        return out[_mask(out.size, keep_from.ravel(), keep_to.ravel())].tobytes()


def decode_fastq(
    payload: bytes, *, source: str, mates: int = 1
) -> ReadColumns | PairedColumns:
    """Decode FASTQ bytes straight into columns (see :class:`FastqPayload`)."""
    return FastqPayload(payload, source=source, mates=mates).columns()


# --------------------------------------------------------------------------
# files
# --------------------------------------------------------------------------


def _open(path: Path | str, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def iter_fastq(path: Path | str) -> Iterator[FastqRecord]:
    """Stream records from a FASTQ file line by line, validating 4-line
    framing."""
    with _open(path, "rt") as fh:
        while True:
            header = fh.readline()
            if not header:
                return
            header = header.rstrip("\n")
            if not header.startswith("@"):
                raise ValueError(f"{path}: expected '@' header, got {header!r}")
            sequence = fh.readline().rstrip("\n")
            plus = fh.readline().rstrip("\n")
            quality = fh.readline().rstrip("\n")
            if not plus.startswith("+"):
                raise ValueError(f"{path}: malformed separator line {plus!r}")
            if len(sequence) != len(quality):
                raise ValueError(
                    f"{path}: sequence/quality length mismatch in {header!r}"
                )
            text = header[1:]
            if not text or text[0].isspace():
                raise ValueError(f"{path}: read header {header!r} has no read id")
            yield FastqRecord.from_strings(text.split(None, 1)[0], sequence, quality)


def read_fastq(path: Path | str) -> list[FastqRecord]:
    """Eagerly read a whole FASTQ file."""
    return list(iter_fastq(path))


def read_fastq_columns(path: Path | str) -> ReadColumns:
    """Decode a whole (gzipped if ``.gz``) FASTQ file into columns."""
    with _open(path, "rb") as fh:
        return decode_fastq(fh.read(), source=str(path))


def format_fastq(records: Iterable[FastqRecord]) -> bytes:
    """FASTQ text for ``records``: ``@id``, bases, ``+``, Phred+33."""
    reads = as_columns(records)
    if reads.bases.size and int(reads.bases.max()) > BASE_N:
        raise ValueError("code array contains values outside the ACGTN alphabet")
    seq = _DECODE_LUT[reads.bases].tobytes().decode("ascii")
    qual = (reads.qualities + PHRED_OFFSET).tobytes().decode("ascii")
    off = reads.offsets.tolist()
    return "".join(
        f"@{rid}\n{seq[a:b]}\n+\n{qual[a:b]}\n"
        for rid, a, b in zip(reads.ids, off, off[1:])
    ).encode("ascii")


def write_fastq(reads: Iterable[FastqRecord] | bytes, path: Path | str) -> int:
    """Write a (gzipped if ``.gz``) FASTQ file; returns the read count.

    ``reads`` is records, or FASTQ text already formatted the same way
    (``fasterq-dump`` hands over its decoded payload).
    """
    data = reads if isinstance(reads, bytes) else format_fastq(reads)
    with _open(path, "wb") as fh:
        fh.write(data)
    return data.count(b"\n") // 4


def fastq_byte_size(records: Iterable[FastqRecord]) -> int:
    """Exact uncompressed FASTQ byte size of ``records`` without writing them."""
    total = 0
    for rec in records:
        total += 1 + len(rec.read_id) + 1  # @id\n
        total += rec.length + 1  # seq\n
        total += 2  # +\n
        total += rec.length + 1  # qual\n
    return total
