"""Mock SRA container format, repository, and the two NCBI tools.

The real pipeline's first two steps are ``prefetch`` (download ``.sra``)
and ``fasterq-dump`` (convert to FASTQ).  NCBI is unreachable here, so this
module defines a self-contained ``.sra`` container with the same tool
interface and round-trip guarantees:

* :class:`SraArchive` — header (accession, library type, read geometry)
  plus a zlib-compressed FASTQ payload;
* :class:`SraRepository` — an accession-keyed store playing the role of
  the NCBI repository (backed by a directory or kept in memory);
* :func:`prefetch` / :func:`fasterq_dump` — the tool front-ends used by
  :class:`repro.core.pipeline.TranscriptomicsAtlasPipeline`.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.reads.fastq import FastqRecord, iter_fastq, write_fastq
from repro.reads.library import LibraryType, SraRunMetadata

if TYPE_CHECKING:
    from repro.core.resilience import FaultPlan
    from repro.reads.paired import PairedSraArchive

_MAGIC = b"SRAR"
_VERSION = 1


@dataclass
class SraArchive:
    """One SRA run: metadata header + compressed read payload."""

    accession: str
    library: LibraryType
    records: list[FastqRecord]

    @property
    def n_reads(self) -> int:
        return len(self.records)

    @property
    def read_length(self) -> int:
        return self.records[0].length if self.records else 0

    def _fastq_bytes(self) -> bytes:
        buf = io.StringIO()
        for rec in self.records:
            buf.write(f"@{rec.read_id}\n{rec.sequence_str}\n+\n{rec.quality_str}\n")
        return buf.getvalue().encode("ascii")

    def to_bytes(self) -> bytes:
        """Serialize: MAGIC | version | header-length | header-json | zlib(fastq)."""
        header = json.dumps(
            {
                "accession": self.accession,
                "library": self.library.value,
                "n_reads": self.n_reads,
                "read_length": self.read_length,
            }
        ).encode("ascii")
        payload = zlib.compress(self._fastq_bytes(), level=6)
        return (
            _MAGIC
            + struct.pack("<HI", _VERSION, len(header))
            + header
            + payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SraArchive":
        """Parse a serialized archive, validating magic and version."""
        if data[:4] != _MAGIC:
            raise ValueError("not an SRA archive (bad magic)")
        version, header_len = struct.unpack_from("<HI", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported SRA archive version {version}")
        header_start = 4 + struct.calcsize("<HI")
        header = json.loads(data[header_start : header_start + header_len])
        fastq_text = zlib.decompress(data[header_start + header_len :]).decode("ascii")
        records: list[FastqRecord] = []
        lines = fastq_text.splitlines()
        if len(lines) % 4 != 0:
            raise ValueError("corrupt SRA payload: FASTQ line count not divisible by 4")
        for i in range(0, len(lines), 4):
            records.append(
                FastqRecord.from_strings(lines[i][1:], lines[i + 1], lines[i + 3])
            )
        archive = cls(
            accession=header["accession"],
            library=LibraryType(header["library"]),
            records=records,
        )
        if archive.n_reads != header["n_reads"]:
            raise ValueError(
                f"corrupt SRA archive: header says {header['n_reads']} reads, "
                f"payload has {archive.n_reads}"
            )
        return archive

    def metadata(self, *, tissue: str = "unknown") -> SraRunMetadata:
        """Derive the repository catalog entry for this archive."""
        blob = self.to_bytes()
        fastq_size = len(self._fastq_bytes())
        return SraRunMetadata(
            accession=self.accession,
            library=self.library,
            n_reads=self.n_reads,
            read_length=self.read_length,
            sra_bytes=len(blob),
            fastq_bytes=fastq_size,
            tissue=tissue,
        )


class SraRepository:
    """Accession-keyed archive store standing in for the NCBI SRA.

    In-memory by default; pass ``root`` to persist archives as
    ``<root>/<accession>.sra`` files.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._blobs: dict[str, bytes] = {}
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def deposit(self, archive: SraArchive | PairedSraArchive) -> SraRunMetadata:
        """Store a single-end or paired archive; returns its catalog metadata."""
        blob = archive.to_bytes()
        if self.root is not None:
            (self.root / f"{archive.accession}.sra").write_bytes(blob)
        else:
            self._blobs[archive.accession] = blob
        return archive.metadata()

    def accessions(self) -> list[str]:
        """All deposited accessions, sorted."""
        if self.root is not None:
            return sorted(p.stem for p in self.root.glob("*.sra"))
        return sorted(self._blobs)

    def fetch_bytes(self, accession: str) -> bytes:
        """Raw archive bytes for ``accession``; KeyError when absent."""
        if self.root is not None:
            path = self.root / f"{accession}.sra"
            if not path.exists():
                raise KeyError(f"accession {accession!r} not in repository")
            return path.read_bytes()
        if accession not in self._blobs:
            raise KeyError(f"accession {accession!r} not in repository")
        return self._blobs[accession]

    def fetch_chunks(self, accession: str, chunk_bytes: int = 65536):
        """Raw archive bytes as an iterator of chunks (the streaming path).

        The base implementation slices :meth:`fetch_bytes`; wrappers that
        model transfer time (:class:`~repro.reads.stream.ThrottledRepository`)
        override this to charge per chunk so cancellation saves real time.
        """
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        blob = self.fetch_bytes(accession)
        return (
            blob[i : i + chunk_bytes] for i in range(0, len(blob), chunk_bytes)
        )

    def archive_bytes(self, accession: str) -> int:
        """Size of the stored archive in bytes (a metadata query)."""
        if self.root is not None:
            path = self.root / f"{accession}.sra"
            if not path.exists():
                raise KeyError(f"accession {accession!r} not in repository")
            return path.stat().st_size
        return len(self.fetch_bytes(accession))

    def __contains__(self, accession: str) -> bool:
        try:
            self.fetch_bytes(accession)
        except KeyError:
            return False
        return True


def prefetch(
    repository: SraRepository,
    accession: str,
    dest_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> Path:
    """Download an SRA container to ``dest_dir`` (pipeline step 1).

    Mirrors the NCBI tool's layout: ``<dest>/<accession>/<accession>.sra``.
    ``fault_plan`` lets the resilience harness script download failures
    (the real tool's most failure-prone step) before any bytes move.
    """
    if fault_plan is not None:
        fault_plan.check("prefetch", accession)
    dest = Path(dest_dir) / accession
    dest.mkdir(parents=True, exist_ok=True)
    out = dest / f"{accession}.sra"
    out.write_bytes(repository.fetch_bytes(accession))
    return out


def fasterq_dump(
    sra_path: Path | str,
    out_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> Path:
    """Convert an SRA container to FASTQ (pipeline step 2).

    Returns the path of the produced ``<accession>.fastq`` file.
    """
    sra_path = Path(sra_path)
    if fault_plan is not None:
        fault_plan.check("fasterq_dump", sra_path.stem)
    archive = SraArchive.from_bytes(sra_path.read_bytes())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{archive.accession}.fastq"
    write_fastq(archive.records, out)
    return out


def load_archive(sra_path: Path | str) -> SraArchive:
    """Parse an on-disk ``.sra`` file into an :class:`SraArchive`."""
    return SraArchive.from_bytes(Path(sra_path).read_bytes())


def archive_from_fastq(
    accession: str, fastq_path: Path | str, library: LibraryType
) -> SraArchive:
    """Package an existing FASTQ file back into an archive (test utility)."""
    return SraArchive(accession, library, list(iter_fastq(fastq_path)))
