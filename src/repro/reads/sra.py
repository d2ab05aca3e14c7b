"""Mock SRA container format, repository, and the two NCBI tools.

The real pipeline's first two steps are ``prefetch`` (download ``.sra``)
and ``fasterq-dump`` (convert to FASTQ).  NCBI is unreachable here, so this
module defines a self-contained ``.sra`` container with the same tool
interface and round-trip guarantees:

* :class:`SraArchive` — header (accession, library type, read geometry)
  plus a zlib-compressed FASTQ payload;
* :class:`SraRepository` — an accession-keyed store playing the role of
  the NCBI repository (backed by a directory or kept in memory);
* :func:`prefetch` / :func:`run_fasterq_dump` — the tool front-ends used
  by :class:`repro.core.pipeline.TranscriptomicsAtlasPipeline`; the dump
  decodes the payload once into :class:`~repro.reads.fastq.ReadColumns`
  and hands them on with the FASTQ file it writes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.reads.fastq import (
    FastqPayload,
    FastqRecord,
    PairedColumns,
    ReadColumns,
    format_fastq,
    iter_fastq,
    write_fastq,
)
from repro.reads.library import LibraryType, SraRunMetadata

if TYPE_CHECKING:
    from repro.core.resilience import FaultPlan
    from repro.reads.paired import PairedSraArchive

_MAGIC = b"SRAR"
_MAGIC_PAIRED = b"SRAP"
_VERSION = 1
_PREFIX = struct.Struct("<HI")


def pack_archive(header: dict, fastq: bytes, *, paired: bool = False) -> bytes:
    """Serialize: MAGIC | version | header-length | header-json | zlib(fastq)."""
    blob = json.dumps(header).encode("ascii")
    magic = _MAGIC_PAIRED if paired else _MAGIC
    return magic + _PREFIX.pack(_VERSION, len(blob)) + blob + zlib.compress(fastq, 6)


def read_archive(data: bytes) -> tuple[dict, FastqPayload]:
    """Validate a container (either layout) and decode its payload.

    Returns the JSON header and the decoded payload; a paired archive's
    payload interleaves the mates (``mates=2``).
    """
    magic = data[:4]
    if magic not in (_MAGIC, _MAGIC_PAIRED):
        raise ValueError("not an SRA archive (bad magic)")
    version, header_len = _PREFIX.unpack_from(data, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported SRA archive version {version}")
    start = 4 + _PREFIX.size
    header = json.loads(data[start : start + header_len])
    paired = magic == _MAGIC_PAIRED
    payload = FastqPayload(
        zlib.decompress(data[start + header_len :]),
        source=header["accession"],
        mates=2 if paired else 1,
        expected=header["n_pairs" if paired else "n_reads"],
    )
    return header, payload


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
        return format_fastq(self.records)

    def to_bytes(self) -> bytes:
        """Serialize the container (see :func:`pack_archive`)."""
        header = {
            "accession": self.accession,
            "library": self.library.value,
            "n_reads": self.n_reads,
            "read_length": self.read_length,
        }
        return pack_archive(header, self._fastq_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "SraArchive":
        """Parse a serialized archive, validating magic and version.

        Record ids keep the whole header line, so an archive round-trips
        byte for byte; the reads ``fasterq-dump`` hands on cut them at
        the first whitespace.
        """
        header, payload = read_archive(data)
        if payload.mates != 1:
            raise ValueError("not a single-end SRA archive (bad magic)")
        return cls(
            accession=header["accession"],
            library=LibraryType(header["library"]),
            records=payload.columns(ids=payload.headers()).records(),
        )

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


@dataclass(frozen=True)
class FastqDump:
    """What one ``fasterq-dump`` run produced."""

    #: ``<accession>.fastq``, or ``_1``/``_2`` files for a paired archive
    paths: tuple[Path, ...]
    #: the same reads, decoded once (ids cut at the first whitespace)
    reads: ReadColumns | PairedColumns


def run_fasterq_dump(
    sra_path: Path | str,
    out_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> FastqDump:
    """Convert an SRA container of either layout to FASTQ (pipeline step 2).

    The payload is decoded once: its FASTQ text goes to disk with bases
    canonicalized (byte-identical to :func:`write_fastq` over the
    archive's records), and the decoded columns come back for the align
    stage, which therefore never re-reads the file.  Paired archives split into
    ``_1``/``_2`` files, like ``fasterq-dump --split-files``.
    """
    sra_path = Path(sra_path)
    if fault_plan is not None:
        fault_plan.check("fasterq_dump", sra_path.stem)
    header, payload = read_archive(sra_path.read_bytes())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    accession = header["accession"]
    if payload.mates == 2:
        from repro.reads.paired import write_mate_files

        paths = write_mate_files(payload, out_dir, accession)
    else:
        paths = (out_dir / f"{accession}.fastq",)
        write_fastq(payload.canonical(), paths[0])
    return FastqDump(paths, payload.columns())


def fasterq_dump(
    sra_path: Path | str,
    out_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> Path:
    """Convert a single-end SRA container to FASTQ (pipeline step 2).

    Returns the path of the produced ``<accession>.fastq`` file.
    """
    dump = run_fasterq_dump(sra_path, out_dir, fault_plan=fault_plan)
    if len(dump.paths) != 1:
        raise ValueError(f"{sra_path}: paired archive, use fasterq_dump_paired")
    return dump.paths[0]


def load_archive(sra_path: Path | str) -> SraArchive:
    """Parse an on-disk ``.sra`` file into an :class:`SraArchive`."""
    return SraArchive.from_bytes(Path(sra_path).read_bytes())


def archive_from_fastq(
    accession: str, fastq_path: Path | str, library: LibraryType
) -> SraArchive:
    """Package an existing FASTQ file back into an archive (test utility)."""
    return SraArchive(accession, library, list(iter_fastq(fastq_path)))
