"""Chunked streaming over SRA containers: the reads side of the DAG.

The streaming pipeline overlaps download, decompression, and alignment
instead of running ``prefetch → fasterq-dump → align`` to completion one
step at a time.  This module supplies the reads-layer machinery:

* :func:`iter_fastq_chunks` / :func:`iter_chunks` — the chunk API that
  feeds the engine's batch queue;
* :class:`SraStream` — an incremental decoder that turns a *byte-chunk*
  download of an ``.sra`` container into read column chunks
  (:class:`~repro.reads.fastq.ReadColumns`) as they decompress, with
  mid-stream cancellation (the early-stopping hook that saves download
  bytes, not just align seconds) and exact byte accounting;
* :class:`ThrottledRepository` — a repository wrapper that simulates
  network transfer time, used by the stream benchmark and tests to make
  the overlap measurable.

Chunk boundaries never affect results: the batch alignment core is
boundary-independent, so a streamed run is byte-identical to the
sequential path no matter how the bytes arrived.
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TypeVar

import numpy as np

from repro.reads.fastq import ReadColumns, decode_fastq, read_fastq_columns
from repro.reads.library import LibraryType
from repro.reads.sra import _MAGIC, _MAGIC_PAIRED, _PREFIX, _VERSION, SraRepository

T = TypeVar("T")

_HEADER_PREFIX_LEN = 4 + _PREFIX.size
_NEWLINE = ord("\n")

#: default records per streamed chunk (the unit the align stage consumes)
DEFAULT_CHUNK_READS = 256
#: default bytes per download chunk (the unit the prefetch stage moves)
DEFAULT_CHUNK_BYTES = 64 * 1024


def iter_chunks(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Re-chunk any iterable into lists of ``size`` items (last may be short)."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    it = iter(items)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def iter_fastq_chunks(
    path: Path | str, chunk_reads: int = DEFAULT_CHUNK_READS
) -> Iterator[ReadColumns]:
    """Decode a FASTQ file and hand it out as ``chunk_reads``-read column
    chunks (the pipeline's chunk API)."""
    if chunk_reads < 1:
        raise ValueError("chunk size must be >= 1")
    reads = read_fastq_columns(path)
    for start in range(0, len(reads), chunk_reads):
        yield reads[start : start + chunk_reads]


class ThrottledRepository:
    """A repository wrapper that charges simulated transfer time.

    ``fetch_bytes`` (the sequential ``prefetch`` path) sleeps the whole
    transfer up front; ``fetch_chunks`` (the streamed path) sleeps per
    chunk — so a cancelled stream genuinely avoids the un-downloaded
    remainder, and overlap against align time is measurable in wall
    clock.  ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        repository: SraRepository,
        *,
        bandwidth_bytes_per_s: float = 10e6,
        latency_seconds: float = 0.0,
        sleep=time.sleep,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")
        self.repository = repository
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_seconds = latency_seconds
        self.sleep = sleep

    def transfer_seconds(self, n_bytes: int) -> float:
        """Simulated seconds to move ``n_bytes`` (excluding latency)."""
        return n_bytes / self.bandwidth_bytes_per_s

    def fetch_bytes(self, accession: str) -> bytes:
        """Whole-archive fetch, paying the full transfer time up front."""
        blob = self.repository.fetch_bytes(accession)
        self.sleep(self.latency_seconds + self.transfer_seconds(len(blob)))
        return blob

    def fetch_chunks(
        self, accession: str, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> Iterator[bytes]:
        """Chunked fetch, paying transfer time per chunk as it streams."""
        blob = self.repository.fetch_bytes(accession)
        if self.latency_seconds:
            self.sleep(self.latency_seconds)
        for start in range(0, len(blob), chunk_bytes):
            chunk = blob[start : start + chunk_bytes]
            self.sleep(self.transfer_seconds(len(chunk)))
            yield chunk

    def archive_bytes(self, accession: str) -> int:
        """Archive size (a metadata query — no transfer time charged)."""
        return len(self.repository.fetch_bytes(accession))

    def accessions(self) -> list[str]:
        """Delegate to the wrapped repository."""
        return self.repository.accessions()

    def deposit(self, archive):
        """Delegate to the wrapped repository."""
        return self.repository.deposit(archive)

    def __contains__(self, accession: str) -> bool:
        return accession in self.repository


class SraStream:
    """Incrementally download and parse one accession's ``.sra`` archive.

    Call :meth:`open` to pull bytes until the container header is parsed
    (``paired``/``n_reads``/``library`` become available — the align
    stage needs the read total before the payload finishes), then
    iterate :meth:`chunks`: each item is a
    :class:`~repro.reads.fastq.ReadColumns` chunk of ``chunk_reads``
    reads for single-end archives, or a
    :class:`~repro.reads.fastq.PairedColumns` chunk of that many pairs
    for paired ones.  Chunks come out of the same decoder, with the same
    checks and read-id rule, as the sequential ``fasterq-dump`` step, and
    ``fastq_bytes`` accumulates the exact size the dumped FASTQ file(s)
    would have had on disk.

    :meth:`cancel` stops the download at the next chunk boundary;
    ``bytes_saved`` then reports what never moved — the quantity the
    early-stopping report claims.
    """

    def __init__(
        self,
        repository,
        accession: str,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        chunk_reads: int = DEFAULT_CHUNK_READS,
    ) -> None:
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if chunk_reads < 1:
            raise ValueError("chunk_reads must be >= 1")
        self.repository = repository
        self.accession = accession
        self.chunk_bytes = chunk_bytes
        self.chunk_reads = chunk_reads
        #: set by :meth:`open`
        self.paired = False
        self.n_reads = 0  # reads (single-end) or pairs (paired)
        self.library: LibraryType | None = None
        self.total_bytes = 0
        #: running accounting
        self.bytes_downloaded = 0
        self.fastq_bytes = 0
        self.records_out = 0
        self.cancelled = False
        self._finished = False
        self._byte_iter: Iterator[bytes] | None = None
        self._decomp = zlib.decompressobj()
        #: decompressed payload not yet decoded, and its newline count
        self._text = bytearray()
        self._newlines = 0

    # -- byte side -----------------------------------------------------------

    def _open_byte_iter(self) -> Iterator[bytes]:
        repo = self.repository
        if hasattr(repo, "fetch_chunks"):
            return iter(repo.fetch_chunks(self.accession, self.chunk_bytes))
        blob = repo.fetch_bytes(self.accession)
        return (
            blob[i : i + self.chunk_bytes]
            for i in range(0, len(blob), self.chunk_bytes)
        )

    def _archive_bytes(self) -> int:
        repo = self.repository
        if hasattr(repo, "archive_bytes"):
            return int(repo.archive_bytes(self.accession))
        return len(repo.fetch_bytes(self.accession))

    @property
    def bytes_saved(self) -> int:
        """Bytes the cancellation avoided downloading (0 while streaming)."""
        if not (self.cancelled or self._finished):
            return 0
        return max(0, self.total_bytes - self.bytes_downloaded)

    def cancel(self) -> None:
        """Stop downloading at the next chunk boundary (idempotent)."""
        self.cancelled = True

    # -- header --------------------------------------------------------------

    def open(self) -> "SraStream":
        """Fetch and parse the container header; returns ``self``.

        Raises the same :class:`ValueError` family as the eager
        :class:`~repro.reads.sra.SraArchive` parser on bad magic or an
        unsupported version, so failure semantics match the sequential
        ``fasterq-dump`` step.
        """
        self.total_bytes = self._archive_bytes()
        self._byte_iter = self._open_byte_iter()
        buffer = b""
        while len(buffer) < _HEADER_PREFIX_LEN:
            buffer += self._next_bytes()
        magic = buffer[:4]
        if magic == _MAGIC_PAIRED:
            self.paired = True
        elif magic != _MAGIC:
            raise ValueError("not an SRA archive (bad magic)")
        version, header_len = _PREFIX.unpack_from(buffer, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported SRA archive version {version}")
        while len(buffer) < _HEADER_PREFIX_LEN + header_len:
            buffer += self._next_bytes()
        header = json.loads(
            buffer[_HEADER_PREFIX_LEN : _HEADER_PREFIX_LEN + header_len]
        )
        self.library = LibraryType(header["library"])
        self.n_reads = int(
            header["n_pairs"] if self.paired else header["n_reads"]
        )
        self._ingest(buffer[_HEADER_PREFIX_LEN + header_len :])
        return self

    def _next_bytes(self) -> bytes:
        assert self._byte_iter is not None
        chunk = next(self._byte_iter, None)
        if chunk is None:
            raise ValueError(
                f"truncated SRA archive for {self.accession!r}"
            )
        self.bytes_downloaded += len(chunk)
        return chunk

    # -- payload -------------------------------------------------------------

    def _ingest(self, data: bytes) -> None:
        """Feed compressed payload bytes through the incremental inflater."""
        if data:
            self._add_text(self._decomp.decompress(data))

    def _add_text(self, text: bytes) -> None:
        self._text += text
        self._newlines += text.count(b"\n")

    def _take(self, n_lines: int):
        """Decode the first ``n_lines`` complete lines into one chunk."""
        view = np.frombuffer(self._text, dtype=np.uint8)
        cut = int(np.flatnonzero(view == _NEWLINE)[n_lines - 1]) + 1
        del view  # release the buffer before resizing it
        data = bytes(self._text[:cut])
        del self._text[:cut]
        self._newlines -= n_lines
        return self._decode(data)

    def _decode(self, data: bytes):
        reads = decode_fastq(
            data, source=self.accession, mates=2 if self.paired else 1
        )
        self.fastq_bytes += len(data)
        self.records_out += len(reads)
        return reads

    def chunks(self) -> Iterator:
        """Yield read chunks as payload bytes arrive (see class doc)."""
        if self._byte_iter is None:
            self.open()
        per_chunk = self.chunk_reads * (8 if self.paired else 4)
        while True:
            while self._newlines >= per_chunk:
                yield self._take(per_chunk)
            if self.cancelled:
                return
            chunk = next(self._byte_iter, None)
            if chunk is None:
                break
            self.bytes_downloaded += len(chunk)
            self._ingest(chunk)
        self._add_text(self._decomp.flush())
        while self._newlines >= per_chunk:
            yield self._take(per_chunk)
        if self._text:
            # the short last chunk; decoding it checks the final framing
            # (terminated last line, whole records)
            yield self._decode(bytes(self._text))
            self._text.clear()
        self._finished = True
        if not self.cancelled and self.records_out != self.n_reads:
            raise ValueError(
                f"corrupt SRA archive: header says {self.n_reads} "
                f"{'pairs' if self.paired else 'reads'}, payload has "
                f"{self.records_out}"
            )
