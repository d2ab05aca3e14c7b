"""RNA-seq read simulator.

Generates FASTQ reads from a genome + annotation with the two properties
the paper's optimizations depend on:

* reads from *transcripts* (possibly spanning splice junctions) that the
  aligner should map — their fraction sets the terminal mapping rate;
* *off-target* reads (random sequence: adapter dimers, rRNA, decayed
  material) that will not map — dominant in single-cell 3' libraries run
  through a bulk pipeline.

Expression follows a log-normal law over genes so GeneCounts output has a
realistic long tail for the DESeq2 stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.genome.alphabet import BASE_N, random_sequence
from repro.genome.annotation import Annotation, Transcript
from repro.genome.model import Assembly
from repro.reads.fastq import MAX_PHRED, FastqRecord
from repro.reads.library import SampleProfile
from repro.util.rng import derive_rng, ensure_rng
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs shared by all samples generated from one simulator instance."""

    #: log-normal sigma of per-gene expression (2.0 gives a realistic tail)
    expression_sigma: float = 1.5
    #: mean Phred score of simulated base qualities
    mean_quality: int = 36
    #: per-base probability that a simulated quality dips (sequencer noise)
    quality_dip_rate: float = 0.05

    def __post_init__(self) -> None:
        check_positive("expression_sigma", self.expression_sigma)
        if not 2 <= self.mean_quality <= MAX_PHRED:
            raise ValueError(f"mean_quality must be in [2, {MAX_PHRED}]")
        check_fraction("quality_dip_rate", self.quality_dip_rate)


@dataclass
class SimulatedSample:
    """Output bundle: reads plus the ground truth used to make them."""

    records: list[FastqRecord]
    #: per-read gene id, or None for off-target reads
    true_gene: list[str | None]
    #: per-read transcript offset (None for off-target)
    true_offset: list[int | None]
    expression: dict[str, float] = field(default_factory=dict)

    @property
    def n_reads(self) -> int:
        return len(self.records)

    @property
    def on_target_fraction(self) -> float:
        if not self.true_gene:
            return 0.0
        return sum(g is not None for g in self.true_gene) / len(self.true_gene)


class ReadSimulator:
    """Simulate RNA-seq samples from one (assembly, annotation) pair.

    Transcript sequences are extracted once at construction; per-sample
    generation is vectorized over reads.
    """

    def __init__(
        self,
        assembly: Assembly,
        annotation: Annotation,
        *,
        config: SimulatorConfig | None = None,
    ) -> None:
        self.assembly = assembly
        self.annotation = annotation
        self.config = config or SimulatorConfig()
        self._transcripts: list[Transcript] = list(annotation.transcripts)
        if not self._transcripts:
            raise ValueError("annotation has no transcripts to simulate from")
        self._transcript_seqs = [
            t.spliced_sequence(assembly) for t in self._transcripts
        ]

    def _expression_weights(self, rng: np.random.Generator) -> np.ndarray:
        """Draw per-transcript expression weights (log-normal, length-biased)."""
        levels = rng.lognormal(mean=0.0, sigma=self.config.expression_sigma,
                               size=len(self._transcripts))
        lengths = np.array([t.spliced_length for t in self._transcripts], dtype=float)
        weights = levels * lengths
        return weights / weights.sum()

    def _qualities(
        self, n: int, length: int, rng: np.random.Generator
    ) -> np.ndarray:
        base = np.full((n, length), self.config.mean_quality, dtype=np.int16)
        jitter = rng.integers(-2, 3, size=(n, length))
        dips = rng.random((n, length)) < self.config.quality_dip_rate
        base += jitter
        base[dips] -= rng.integers(8, 20, size=int(dips.sum()))
        return np.clip(base, 2, MAX_PHRED).astype(np.uint8)

    def _apply_errors(
        self, seq: np.ndarray, error_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Introduce substitution errors in place-free fashion."""
        if error_rate <= 0:
            return seq
        seq = seq.copy()
        mask = (rng.random(seq.size) < error_rate) & (seq != BASE_N)
        if mask.any():
            subs = rng.integers(0, 4, size=int(mask.sum())).astype(np.uint8)
            collide = subs == seq[mask]
            subs[collide] = (subs[collide] + 1) % 4
            seq[mask] = subs
        return seq

    def simulate(
        self,
        profile: SampleProfile,
        *,
        rng: np.random.Generator | int | None = None,
        read_id_prefix: str = "read",
    ) -> SimulatedSample:
        """Generate one sample according to ``profile``."""
        rng = ensure_rng(rng)
        expr_rng = derive_rng(rng, "expression")
        pick_rng = derive_rng(rng, "picks")
        err_rng = derive_rng(rng, "errors")
        qual_rng = derive_rng(rng, "quality")
        off_rng = derive_rng(rng, "offtarget")

        weights = self._expression_weights(expr_rng)
        offtarget = profile.effective_offtarget_fraction
        n = profile.n_reads
        L = profile.read_length

        is_off = pick_rng.random(n) < offtarget
        transcript_idx = pick_rng.choice(len(self._transcripts), size=n, p=weights)
        qualities = self._qualities(n, L, qual_rng)

        records: list[FastqRecord] = []
        true_gene: list[str | None] = []
        true_offset: list[int | None] = []
        expression: dict[str, float] = {}
        for t, w in zip(self._transcripts, weights):
            expression[t.gene_id] = expression.get(t.gene_id, 0.0) + float(w)

        for i in range(n):
            rid = f"{read_id_prefix}.{i}"
            if is_off[i]:
                seq = random_sequence(L, off_rng, gc=0.5)
                true_gene.append(None)
                true_offset.append(None)
            else:
                ti = int(transcript_idx[i])
                tseq = self._transcript_seqs[ti]
                if tseq.size < L:
                    # transcript shorter than the read: pad with off-target
                    # tail so the read still has full length
                    pad = random_sequence(L - tseq.size, off_rng, gc=0.5)
                    seq = np.concatenate([tseq, pad])
                    offset = 0
                else:
                    offset = int(pick_rng.integers(0, tseq.size - L + 1))
                    seq = tseq[offset : offset + L]
                seq = self._apply_errors(seq, profile.error_rate, err_rng)
                true_gene.append(self._transcripts[ti].gene_id)
                true_offset.append(offset)
            records.append(FastqRecord(rid, seq, qualities[i]))
        return SimulatedSample(
            records=records,
            true_gene=true_gene,
            true_offset=true_offset,
            expression=expression,
        )
