"""Paired-end sequencing support.

Most SRA RNA-seq runs are paired-end: a cDNA *fragment* of a few hundred
bases is sequenced from both ends, giving mate 1 (the fragment's 5' end
on the transcript strand) and mate 2 (the reverse complement of its 3'
end).  This module adds:

* a fragment-based paired simulator built on the same transcript model as
  :class:`~repro.reads.simulator.ReadSimulator`;
* a paired ``.sra`` container (``SRAP`` magic) whose ``fasterq-dump``
  splits into ``_1.fastq`` / ``_2.fastq`` files, matching the real tool's
  ``--split-files`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.genome.alphabet import random_sequence, reverse_complement
from repro.reads.fastq import FastqPayload, FastqRecord, format_fastq, write_fastq
from repro.reads.library import LibraryType, SampleProfile, SraRunMetadata
from repro.reads.simulator import ReadSimulator
from repro.reads.sra import pack_archive, read_archive, run_fasterq_dump
from repro.util.rng import derive_rng, ensure_rng

if TYPE_CHECKING:
    from repro.core.resilience import FaultPlan
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PairedProfile:
    """Generation parameters for one paired-end sample."""

    library: LibraryType
    n_pairs: int
    read_length: int = 100
    insert_mean: float = 300.0
    insert_sd: float = 40.0
    error_rate: float = 0.002
    offtarget_fraction: float | None = None

    def __post_init__(self) -> None:
        check_positive("n_pairs", self.n_pairs)
        check_positive("read_length", self.read_length)
        check_positive("insert_mean", self.insert_mean)
        check_positive("insert_sd", self.insert_sd)
        if self.insert_mean < self.read_length:
            raise ValueError("insert_mean must be at least one read length")

    def single_end_view(self) -> SampleProfile:
        """The equivalent single-end profile (shared machinery)."""
        return SampleProfile(
            library=self.library,
            n_reads=self.n_pairs,
            read_length=self.read_length,
            error_rate=self.error_rate,
            offtarget_fraction=self.offtarget_fraction,
        )


@dataclass
class PairedSample:
    """Mate-1/mate-2 records plus generation truth."""

    mate1: list[FastqRecord]
    mate2: list[FastqRecord]
    true_gene: list[str | None]
    true_fragment: list[tuple[int, int] | None]  # transcript-coordinate span

    def __post_init__(self) -> None:
        if not (
            len(self.mate1) == len(self.mate2) == len(self.true_gene)
            == len(self.true_fragment)
        ):
            raise ValueError("paired sample arrays must have equal lengths")

    @property
    def n_pairs(self) -> int:
        return len(self.mate1)

    @property
    def on_target_fraction(self) -> float:
        if not self.true_gene:
            return 0.0
        return sum(g is not None for g in self.true_gene) / len(self.true_gene)


def simulate_paired(
    simulator: ReadSimulator,
    profile: PairedProfile,
    *,
    rng: np.random.Generator | int | None = None,
    read_id_prefix: str = "pair",
) -> PairedSample:
    """Generate a paired-end sample from a simulator's transcript set.

    Fragment starts are uniform on the transcript; the insert length is
    normal (clipped to [read_length, transcript length]).  Off-target
    pairs are two independent random reads — they should not map, and if
    they do they won't pair properly.
    """
    se_profile = profile.single_end_view()
    rng = ensure_rng(rng)
    expr_rng = derive_rng(rng, "expression")
    pick_rng = derive_rng(rng, "picks")
    err_rng = derive_rng(rng, "errors")
    qual_rng = derive_rng(rng, "quality")
    off_rng = derive_rng(rng, "offtarget")
    insert_rng = derive_rng(rng, "inserts")

    weights = simulator._expression_weights(expr_rng)
    transcripts = simulator._transcripts
    seqs = simulator._transcript_seqs
    n = profile.n_pairs
    L = profile.read_length
    is_off = pick_rng.random(n) < se_profile.effective_offtarget_fraction
    t_idx = pick_rng.choice(len(transcripts), size=n, p=weights)
    qual1 = simulator._qualities(n, L, qual_rng)
    qual2 = simulator._qualities(n, L, qual_rng)

    mate1: list[FastqRecord] = []
    mate2: list[FastqRecord] = []
    true_gene: list[str | None] = []
    true_fragment: list[tuple[int, int] | None] = []

    for i in range(n):
        rid = f"{read_id_prefix}.{i}"
        if is_off[i]:
            seq1 = random_sequence(L, off_rng, gc=0.5)
            seq2 = random_sequence(L, off_rng, gc=0.5)
            true_gene.append(None)
            true_fragment.append(None)
        else:
            ti = int(t_idx[i])
            tseq = seqs[ti]
            tlen = int(tseq.size)
            insert = int(
                np.clip(
                    insert_rng.normal(profile.insert_mean, profile.insert_sd),
                    L,
                    max(L, tlen),
                )
            )
            if tlen <= insert:
                start, insert = 0, tlen
            else:
                start = int(pick_rng.integers(0, tlen - insert + 1))
            fragment = tseq[start : start + insert]
            seq1 = fragment[:L].copy()
            tail = fragment[-L:] if fragment.size >= L else fragment
            seq2 = reverse_complement(tail)
            if seq1.size < L:  # degenerate short transcript: pad
                seq1 = np.concatenate(
                    [seq1, random_sequence(L - seq1.size, off_rng, gc=0.5)]
                )
            if seq2.size < L:
                seq2 = np.concatenate(
                    [seq2, random_sequence(L - seq2.size, off_rng, gc=0.5)]
                )
            seq1 = simulator._apply_errors(seq1, profile.error_rate, err_rng)
            seq2 = simulator._apply_errors(seq2, profile.error_rate, err_rng)
            true_gene.append(transcripts[ti].gene_id)
            true_fragment.append((start, start + insert))
        mate1.append(FastqRecord(f"{rid}/1", seq1, qual1[i]))
        mate2.append(FastqRecord(f"{rid}/2", seq2, qual2[i]))
    return PairedSample(mate1, mate2, true_gene, true_fragment)


@dataclass
class PairedSraArchive:
    """A paired-end SRA container (mate-interleaved payload)."""

    accession: str
    library: LibraryType
    mate1: list[FastqRecord]
    mate2: list[FastqRecord]

    def __post_init__(self) -> None:
        if len(self.mate1) != len(self.mate2):
            raise ValueError("mate lists must have equal length")

    @property
    def n_pairs(self) -> int:
        return len(self.mate1)

    def _fastq_bytes(self) -> bytes:
        return format_fastq(r for pair in zip(self.mate1, self.mate2) for r in pair)

    def metadata(self, *, tissue: str = "unknown") -> SraRunMetadata:
        """Catalog entry, as :meth:`SraArchive.metadata`; reads count
        pairs (the header's ``n_pairs``) at mate 1's length."""
        return SraRunMetadata(
            accession=self.accession,
            library=self.library,
            n_reads=self.n_pairs,
            read_length=self.mate1[0].length if self.mate1 else 0,
            sra_bytes=len(self.to_bytes()),
            fastq_bytes=len(self._fastq_bytes()),
            tissue=tissue,
        )

    def to_bytes(self) -> bytes:
        header = {
            "accession": self.accession,
            "library": self.library.value,
            "n_pairs": self.n_pairs,
        }
        return pack_archive(header, self._fastq_bytes(), paired=True)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PairedSraArchive":
        header, payload = read_archive(data)
        if payload.mates != 2:
            raise ValueError("not a paired SRA archive (bad magic)")
        pairs = payload.columns(ids=payload.headers())
        return cls(
            accession=header["accession"],
            library=LibraryType(header["library"]),
            mate1=pairs.mate1.records(),
            mate2=pairs.mate2.records(),
        )


def write_mate_files(
    payload: FastqPayload, out_dir: Path, accession: str
) -> tuple[Path, Path]:
    """Write a decoded paired payload as ``_1.fastq`` / ``_2.fastq``."""
    paths = (out_dir / f"{accession}_1.fastq", out_dir / f"{accession}_2.fastq")
    for mate, path in enumerate(paths):
        write_fastq(payload.canonical(mate), path)
    return paths


def fasterq_dump_paired(
    sra_path: Path | str,
    out_dir: Path | str,
    *,
    fault_plan: "FaultPlan | None" = None,
) -> tuple[Path, Path]:
    """Split a paired archive into ``_1.fastq`` / ``_2.fastq`` files.

    Mirrors ``fasterq-dump --split-files``.
    """
    dump = run_fasterq_dump(sra_path, out_dir, fault_plan=fault_plan)
    if len(dump.paths) != 2:
        raise ValueError(f"{sra_path}: not a paired SRA archive")
    return dump.paths
