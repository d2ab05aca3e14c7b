"""BatchOptions consolidation: validation, warning-free calls, and
per-batch overrides that last exactly one batch."""

import time

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
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

    def test_streaming_allows_accession_parallelism(self):
        options = BatchOptions(streaming=True, max_parallel=2, backend="faas")
        assert options.streaming and options.max_parallel == 2

    def test_shard_checkpoints_require_a_journal(self, tmp_path):
        with pytest.raises(ValueError, match="journal"):
            BatchOptions(shard_checkpoints=True)
        BatchOptions(
            shard_checkpoints=True, journal=tmp_path / "j.jsonl"
        )  # fine

    def test_shard_checkpoints_allow_streaming(self, tmp_path):
        options = BatchOptions(
            shard_checkpoints=True,
            streaming=True,
            journal=tmp_path / "j.jsonl",
        )
        assert options.shard_checkpoints and options.streaming

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


def drain_when_started(pipeline, journal, **kwargs):
    """Request a drain as the batch's first accession starts."""
    original = journal.record_started

    def spy(accession):
        original(accession)
        pipeline.request_drain(**kwargs)

    journal.record_started = spy


class TestPerBatchOverrides:
    def test_drain_deadline_override_feeds_request_drain(
        self, repository, aligner_r111, tmp_path
    ):
        """A drain requested during the batch gets the batch's deadline:
        the first accession keeps running, the second is not admitted."""
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal = RunJournal(tmp_path / "j.jsonl")
        drain_when_started(pipeline, journal)
        results = pipeline.run_batch(
            ACCESSIONS, BatchOptions(journal=journal, drain_deadline=123.0)
        )
        assert [r.accession for r in results] == ACCESSIONS[:1]
        assert results[0].status is RunStatus.ACCEPTED
        assert pipeline._drain_deadline_at > time.monotonic() + 60
        assert not pipeline._drain_expired()

    def test_explicit_deadline_still_wins(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal = RunJournal(tmp_path / "j.jsonl")
        drain_when_started(pipeline, journal, deadline=0.0)
        results = pipeline.run_batch(
            ACCESSIONS, BatchOptions(journal=journal, drain_deadline=500.0)
        )
        assert [r.status for r in results] == [RunStatus.DRAINED]
        assert pipeline._drain_expired()

    def test_align_batch_override_recorded(
        self, repository, aligner_r111, tmp_path
    ):
        """The batch's shard size cuts its shards; the next batch is back
        on the config's (here ``StarParameters.align_batch_size``)."""
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        spans = {}
        for size, accession in [(7, ACCESSIONS[0]), (None, ACCESSIONS[1])]:
            path = tmp_path / f"{accession}.jsonl"
            pipeline.run_batch(
                [accession],
                BatchOptions(
                    journal=path, shard_checkpoints=True, align_batch_size=size
                ),
            )
            spans[accession] = sorted(
                RunJournal(path).replay().align_shards[accession]
            )
        assert spans[ACCESSIONS[0]][:2] == [(0, 7), (7, 14)]
        assert spans[ACCESSIONS[1]] == [(0, 150)]

    def test_options_do_not_outlive_their_batch(
        self, repository, aligner_r111, tmp_path
    ):
        """Regression: backend, shard checkpoints and drain deadline used
        to stay installed on the pipeline after ``run_batch`` returned."""
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        path = tmp_path / "j.jsonl"
        pipeline.run_batch(
            ACCESSIONS[:1],
            BatchOptions(
                journal=path,
                shard_checkpoints=True,
                backend="faas",
                drain_deadline=123.0,
            ),
        )
        invocations = pipeline._get_faas_backend().function.invocations
        assert invocations > 0
        records = path.read_text().count("\n")

        result = pipeline.run_accession(ACCESSIONS[1])
        assert result.status is RunStatus.ACCEPTED
        assert pipeline._get_faas_backend().function.invocations == invocations
        assert path.read_text().count("\n") == records
        assert pipeline.shard_checkpoint_summary()["recorded"] > 0
        pipeline.request_drain()
        assert pipeline._drain_deadline_at < time.monotonic() + 60
