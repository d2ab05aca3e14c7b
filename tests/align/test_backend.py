"""Unified aligner-backend API: ReadChunkStream, protocols, resolve_backend."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.align.backend import (
    AlignerBackend,
    EngineBackend,
    PairedAlignerBackend,
    ReadChunkStream,
    SerialAlignerBackend,
    resolve_backend,
)
from repro.align.outcome import AlignmentOutcome
from repro.align.paired import PairedParameters, PairedStarAligner
from repro.align.star import StarAligner
from repro.reads.library import LibraryType
from repro.reads.paired import PairedProfile, simulate_paired


@pytest.fixture(scope="module")
def paired_sample(simulator):
    return simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA, n_pairs=100, read_length=70,
            insert_mean=250, insert_sd=30,
        ),
        rng=13,
    )


class TestReadBatch:
    """Whole-accession read batches: ``ReadChunkStream.whole``."""

    def test_single_end(self, bulk_sample):
        batch = ReadChunkStream.whole(bulk_sample.records)
        assert not batch.paired
        assert batch.reads_total == len(bulk_sample.records)
        assert len(batch.materialize()) == len(bulk_sample.records)

    def test_paired(self, paired_sample):
        batch = ReadChunkStream.whole(paired_sample.mate1, paired_sample.mate2)
        assert batch.paired
        assert batch.reads_total == len(paired_sample.mate1)
        assert len(batch.materialize()) == len(paired_sample.mate1)

    def test_mismatched_mate_lengths_rejected(self, paired_sample):
        with pytest.raises(ValueError, match="equal length"):
            ReadChunkStream.whole(paired_sample.mate1, paired_sample.mate2[:-1])


class TestProtocolConformance:
    def test_backends_satisfy_protocol(self, aligner_r111):
        serial = SerialAlignerBackend(aligner_r111)
        paired = PairedAlignerBackend(PairedStarAligner(aligner_r111))
        engine = EngineBackend(SimpleNamespace(run=None, run_paired=None))
        for backend in (serial, paired, engine):
            assert isinstance(backend, AlignerBackend)
        assert {serial.name, paired.name, engine.name} == {
            "serial", "paired", "engine",
        }

    def test_star_result_satisfies_outcome(self, aligner_r111, bulk_sample):
        result = aligner_r111.run(bulk_sample.records)
        assert isinstance(result, AlignmentOutcome)
        assert 0.0 <= result.mapped_fraction <= 1.0

    def test_paired_result_satisfies_outcome(self, aligner_r111, paired_sample):
        result = PairedStarAligner(aligner_r111).run(
            paired_sample.mate1, paired_sample.mate2
        )
        assert isinstance(result, AlignmentOutcome)
        assert 0.0 <= result.mapped_fraction <= 1.0


class TestResolveBackend:
    def test_engine_wins_for_both_layouts(self, aligner_r111):
        engine = SimpleNamespace(run=None, run_paired=None)
        for paired in (False, True):
            backend = resolve_backend(
                None, aligner_r111, engine, paired=paired
            )
            assert isinstance(backend, EngineBackend)
            assert backend.engine is engine

    def test_paired_without_engine(self, aligner_r111):
        params = PairedParameters(progress_every=25)
        config = SimpleNamespace(paired_parameters=params)
        backend = resolve_backend(config, aligner_r111, paired=True)
        assert isinstance(backend, PairedAlignerBackend)
        assert backend.paired_aligner.aligner is aligner_r111
        assert backend.paired_aligner.parameters is params

    def test_paired_default_parameters(self, aligner_r111):
        backend = resolve_backend(None, aligner_r111, paired=True)
        assert isinstance(backend, PairedAlignerBackend)
        assert isinstance(backend.paired_aligner.parameters, PairedParameters)

    def test_serial_fallback(self, aligner_r111):
        backend = resolve_backend(None, aligner_r111)
        assert isinstance(backend, SerialAlignerBackend)
        assert backend.aligner is aligner_r111


class TestAlignDispatch:
    def test_serial_matches_direct_run(self, aligner_r111, bulk_sample):
        backend = SerialAlignerBackend(aligner_r111)
        got = backend.align(ReadChunkStream.whole(bulk_sample.records))
        want = aligner_r111.run(bulk_sample.records)
        assert got.final.mapped_unique == want.final.mapped_unique
        assert got.gene_counts == want.gene_counts
        assert not got.aborted

    def test_serial_rejects_paired_batch(self, aligner_r111, paired_sample):
        backend = SerialAlignerBackend(aligner_r111)
        batch = ReadChunkStream.whole(paired_sample.mate1, paired_sample.mate2)
        with pytest.raises(ValueError, match="paired"):
            backend.align(batch)

    def test_paired_matches_direct_run(self, aligner_r111, paired_sample):
        backend = PairedAlignerBackend(PairedStarAligner(aligner_r111))
        got = backend.align(
            ReadChunkStream.whole(paired_sample.mate1, paired_sample.mate2)
        )
        want = PairedStarAligner(aligner_r111).run(
            paired_sample.mate1, paired_sample.mate2
        )
        assert got.final.mapped_unique == want.final.mapped_unique
        assert got.mapped_fraction == want.mapped_fraction

    def test_paired_rejects_single_end_batch(self, aligner_r111, bulk_sample):
        backend = PairedAlignerBackend(PairedStarAligner(aligner_r111))
        with pytest.raises(ValueError, match="single-end"):
            backend.align(ReadChunkStream.whole(bulk_sample.records))

    def test_paired_feed_is_consumed_lazily(self, aligner_r111, paired_sample):
        """Streamed pairs align as they arrive, not after the last chunk."""
        aligner = StarAligner(
            aligner_r111.index,
            replace(aligner_r111.parameters, align_batch_size=20),
        )
        pairs = ReadChunkStream.whole(
            paired_sample.mate1, paired_sample.mate2
        ).materialize()
        pulled = []

        def feed():
            for start in range(0, len(pairs), 10):
                pulled.append(start)
                yield pairs[start : start + 10]

        first_report = []

        def monitor(record):
            first_report.append(len(pulled))
            return True

        paired = PairedStarAligner(aligner, PairedParameters(progress_every=25))
        got = PairedAlignerBackend(paired).align(
            ReadChunkStream(feed(), len(pairs), paired=True), monitor=monitor
        )
        want = paired.run(paired_sample.mate1, paired_sample.mate2)
        assert first_report[0] < len(pulled)
        assert got.outcomes == want.outcomes

    def test_engine_routes_by_layout(self, bulk_sample, paired_sample):
        calls = []
        stub = SimpleNamespace(
            run=lambda reads, reads_total, **kwargs: (
                calls.append(("run", reads_total))
            ),
            run_paired=lambda pairs, reads_total, **kwargs: (
                calls.append(("run_paired", reads_total))
            ),
        )
        backend = EngineBackend(stub)
        backend.align(ReadChunkStream.whole(bulk_sample.records))
        backend.align(
            ReadChunkStream.whole(paired_sample.mate1, paired_sample.mate2)
        )
        assert calls == [
            ("run", len(bulk_sample.records)),
            ("run_paired", len(paired_sample.mate1)),
        ]
