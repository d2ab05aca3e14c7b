"""Workload definitions and seeded input generation.

A workload is a genome universe, a list of accessions to archive, and the
execution shape the pipeline runs them in.  Inputs are a pure function of
``(workload name, seed)``.

The program only ever sees the generated archives — written as
``<root>/<accession>.sra`` files behind an ``SraRepository(root=...)`` —
plus the assembly/annotation its index is built from.  Paired archives
are written as raw ``PairedSraArchive.to_bytes()`` because
``SraRepository.deposit`` only accepts single-end archives (see NOTES.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.simulator import ReadSimulator
from repro.reads.sra import SraArchive
from repro.util.rng import derive_rng

READ_LENGTH = 100

#: worker processes for engine trials: one per core, at least two so the
#: engine engages at all (a 1-core box oversubscribes; cpu_count is
#: recorded with every run)
ENGINE_WORKERS = max(2, os.cpu_count() or 1)

#: frozen simulated bandwidth of the ``mixed_stream`` repository.  Chosen
#: once so that a bulk accession's download (about 0.3 s for its 125 kB)
#: takes a little longer than its alignment on a 2-vCPU box: the download
#: binds, and how well the stages overlap sets the wall time.  Never
#: re-tune it per run: it is part of the workload's definition.
MIXED_BANDWIDTH_BYTES_PER_S = 400_000.0


@dataclass(frozen=True)
class AccessionSpec:
    """One archive to generate."""

    library: LibraryType
    n_reads: int  # reads (single-end) or pairs (paired)
    paired: bool = False

    @property
    def archived_reads(self) -> int:
        """Reads in the archive, counting PE mates individually."""
        return 2 * self.n_reads if self.paired else self.n_reads


@dataclass(frozen=True)
class Workload:
    """Inputs plus execution shape for one benchmark workload."""

    name: str
    why: str
    universe: GenomeUniverseSpec
    accessions: tuple[AccessionSpec, ...]
    #: ``BatchOptions(streaming=True)`` behind a throttled repository
    streaming: bool = False
    #: interleave trials through the shared-memory engine
    #: (``PipelineConfig(workers=ENGINE_WORKERS)``) with the serial ones
    #: and report their ratio, the engine's pay-or-delete gate
    engine_trials: bool = False


#: about 600 genes over about 0.9 Mb
GENES_600 = GenomeUniverseSpec(
    n_chromosomes=6, chromosome_length=150_000, genes_per_chromosome=100
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk_seq",
            why=(
                "bulk SE on 24 genes, sequential serial shape with a journal "
                "as the CLI runs it; interleaved engine trials give the "
                "engine/serial ratio"
            ),
            universe=GenomeUniverseSpec(),
            accessions=tuple(
                AccessionSpec(LibraryType.BULK_POLYA, 3000) for _ in range(4)
            ),
            engine_trials=True,
        ),
        Workload(
            name="genes_600",
            why=(
                "bulk_seq's shape on ~600 genes over ~0.9 Mb: GeneCounts' "
                "per-read gene scan dominates wall"
            ),
            universe=GENES_600,
            accessions=tuple(
                AccessionSpec(LibraryType.BULK_POLYA, 750) for _ in range(4)
            ),
        ),
        Workload(
            name="mixed_stream",
            why=(
                "streamed SE+PE+single-cell behind a throttled repository: "
                "overlap, PE path, early stop and download cancellation"
            ),
            universe=GenomeUniverseSpec(),
            accessions=(
                AccessionSpec(LibraryType.BULK_POLYA, 2000),
                AccessionSpec(LibraryType.SINGLE_CELL_3P, 3000),
                AccessionSpec(LibraryType.BULK_POLYA, 1000, paired=True),
                AccessionSpec(LibraryType.BULK_POLYA, 2000),
            ),
            streaming=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated for one (workload, seed)."""

    assembly: object
    annotation: object
    archive_root: Path
    accessions: list[str]
    #: archived reads over all accessions (PE mates counted individually)
    archived_reads: int


def make_inputs(workload: Workload, seed: int, archive_root: Path) -> Inputs:
    """Generate the genome and write every archive under ``archive_root``.

    Reads are simulated one accession at a time and serialized straight
    to disk, so no simulated records outlive this call.
    """
    rng = derive_rng(seed, f"perfbench:{workload.name}")
    universe = make_universe(workload.universe, derive_rng(rng, "universe"))
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    simulator = ReadSimulator(assembly, universe.annotation)
    archive_root.mkdir(parents=True, exist_ok=True)
    accessions: list[str] = []
    for i, spec in enumerate(workload.accessions):
        acc = f"SRRPB{i:03d}"
        acc_rng = derive_rng(rng, f"reads:{i}")
        if spec.paired:
            sample = simulate_paired(
                simulator,
                PairedProfile(spec.library, n_pairs=spec.n_reads,
                              read_length=READ_LENGTH),
                rng=acc_rng,
                read_id_prefix=acc,
            )
            blob = PairedSraArchive(
                acc, spec.library, sample.mate1, sample.mate2
            ).to_bytes()
        else:
            sample = simulator.simulate(
                SampleProfile(spec.library, n_reads=spec.n_reads,
                              read_length=READ_LENGTH),
                rng=acc_rng,
                read_id_prefix=acc,
            )
            blob = SraArchive(acc, spec.library, sample.records).to_bytes()
        (archive_root / f"{acc}.sra").write_bytes(blob)
        accessions.append(acc)
    return Inputs(
        assembly=assembly,
        annotation=universe.annotation,
        archive_root=archive_root,
        accessions=accessions,
        archived_reads=sum(a.archived_reads for a in workload.accessions),
    )
