"""BatchOptions consolidation: validation, warning-free calls, overrides."""

import time

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACCESSIONS = ["SRROPT001", "SRROPT002"]


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCESSIONS):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=150, read_length=80),
            rng=700 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return repo


def make_pipeline(repository, aligner, workspace):
    return TranscriptomicsAtlasPipeline(
        repository,
        aligner,
        workspace,
        config=PipelineConfig(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
        ),
    )


class TestValidation:
    def test_defaults_are_valid(self):
        options = BatchOptions()
        assert options.max_parallel == 1
        assert not options.streaming

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_parallel": 0},
            {"prefetch_depth": -1},
            {"chunk_reads": 0},
            {"buffer_chunks": 0},
            {"download_chunk_bytes": 0},
            {"drain_deadline": -0.1},
            {"align_batch_size": 0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            BatchOptions(**kwargs)

    def test_streaming_excludes_accession_parallelism(self):
        with pytest.raises(ValueError, match="max_parallel"):
            BatchOptions(streaming=True, max_parallel=2)
        BatchOptions(streaming=True, max_parallel=1)  # fine

    def test_shard_checkpoints_require_a_journal(self, tmp_path):
        with pytest.raises(ValueError, match="journal"):
            BatchOptions(shard_checkpoints=True)
        BatchOptions(
            shard_checkpoints=True, journal=tmp_path / "j.jsonl"
        )  # fine

    def test_shard_checkpoints_exclude_streaming(self, tmp_path):
        with pytest.raises(ValueError, match="streaming"):
            BatchOptions(
                shard_checkpoints=True,
                streaming=True,
                journal=tmp_path / "j.jsonl",
            )

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BatchOptions().max_parallel = 2


class TestDeprecatedKwargs:
    def test_options_alone_does_not_warn(
        self, repository, aligner_r111, tmp_path, recwarn
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        pipeline.run_batch(ACCESSIONS[:1], BatchOptions())
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]


class TestPerBatchOverrides:
    def test_drain_deadline_override_feeds_request_drain(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        pipeline.run_batch(ACCESSIONS[:1], BatchOptions(drain_deadline=123.0))
        assert pipeline._drain_deadline_base == 123.0
        pipeline.request_drain()
        assert pipeline._drain_deadline_at > time.monotonic() + 60
        assert not pipeline._drain_expired()

    def test_explicit_deadline_still_wins(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        pipeline._drain_deadline_base = 500.0
        pipeline.request_drain(deadline=0.0)
        assert pipeline._drain_expired()

    def test_align_batch_override_recorded(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path)
        pipeline.run_batch(ACCESSIONS[:1], BatchOptions(align_batch_size=7))
        assert pipeline._align_batch_override == 7
