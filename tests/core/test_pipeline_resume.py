"""Checkpoint/resume and graceful-drain semantics of the journaled batch."""

import math
import signal
import threading
import time

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    BatchRunner,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
    drain_on_signals,
)
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACCESSIONS = ["SRR5000001", "SRR5000002", "SRR5000003", "SRR5000004"]


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCESSIONS):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
            rng=500 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return repo


def make_pipeline(repository, aligner, workspace, **overrides):
    base = dict(
        early_stopping=EarlyStoppingPolicy(min_reads=20), write_outputs=False
    )
    base.update(overrides)
    return TranscriptomicsAtlasPipeline(
        repository, aligner, workspace, config=PipelineConfig(**base)
    )


def comparable(result):
    final = result.star_result.final if result.star_result else None
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        None
        if final is None
        else (final.reads_processed, final.mapped_unique, final.unmapped),
    )


class TestJournaledBatch:
    def test_records_every_transition(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal_path = tmp_path / "run.jsonl"
        pipeline.run_batch(ACCESSIONS[:2], BatchOptions(journal=journal_path))
        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == set(ACCESSIONS[:2])
        assert replay.in_flight == []
        # batch-start + per accession: started + 3 step-done + completed
        assert replay.n_records == 1 + 2 * 5

    def test_resume_replays_completed_batch(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        originals = first.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path)
        )

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        resumed = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        assert [r.accession for r in resumed] == ACCESSIONS
        assert all(r.resumed for r in resumed)
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        # the count matrix built from replayed results matches the live one
        live = first.build_count_matrix()
        replayed = second.build_count_matrix()
        assert live.gene_ids == replayed.gene_ids
        assert (live.counts == replayed.counts).all()

    def test_resume_runs_only_the_pending_tail(
        self, repository, aligner_r111, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        first.run_batch(ACCESSIONS[:2], BatchOptions(journal=journal_path))

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        results = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        by_acc = {r.accession: r for r in results}
        assert [r.accession for r in results] == ACCESSIONS
        assert all(by_acc[a].resumed for a in ACCESSIONS[:2])
        assert all(not by_acc[a].resumed for a in ACCESSIONS[2:])

        reference = make_pipeline(repository, aligner_r111, tmp_path / "ref")
        assert [comparable(r) for r in results] == [
            comparable(r) for r in reference.run_batch(ACCESSIONS)
        ]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "engine"])
    def test_shard_checkpoints_resume_without_realigning(
        self, repository, aligner_r111, tmp_path, workers
    ):
        """Drop an accession's terminal record but keep its ``align.shard``
        checkpoints: resume must rebuild the result from the journal's
        shards (checkpoint hits, zero re-alignments) and match a plain
        reference byte-identically — on the serial backend and the engine."""
        import json

        journal_path = tmp_path / "run.jsonl"
        victim = ACCESSIONS[1]
        first = make_pipeline(
            repository, aligner_r111, tmp_path / "a", workers=workers,
            align_batch_size=32,
        )
        originals = first.run_batch(
            ACCESSIONS[:2],
            BatchOptions(journal=journal_path, shard_checkpoints=True),
        )
        assert first.shard_checkpoint_summary()["recorded"] > 0

        # simulate dying right before the victim's commit point
        lines = journal_path.read_text().splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if not (
                json.loads(line)["t"] == "completed"
                and json.loads(line)["acc"] == victim
            )
        ]
        assert len(kept) == len(lines) - 1
        journal_path.write_text("".join(kept))

        second = make_pipeline(
            repository, aligner_r111, tmp_path / "b", workers=workers,
            align_batch_size=32,
        )
        resumed = second.run_batch(
            ACCESSIONS[:2],
            BatchOptions(
                journal=journal_path, resume=True, shard_checkpoints=True
            ),
        )
        summary = second.shard_checkpoint_summary()
        assert summary["hits"] > 0
        assert summary["recorded"] == 0  # every shard came from the journal
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        by_acc = {r.accession: r for r in resumed}
        assert not by_acc[victim].resumed  # re-ran, but from checkpoints

    @pytest.mark.parametrize("via", ["config", "options"])
    def test_serial_backend_shards_at_align_batch_size(
        self, simulator, aligner_r111, tmp_path, via
    ):
        """``align_batch_size`` (from the config or the batch options) sets
        the serial backend's shard size, as it does the engine's and
        FaaS's: 600 reads at 64 journal ten shard checkpoints."""
        acc = "SRR5000600"
        repo = SraRepository()
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=600, read_length=80),
            rng=600,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
        size = {"align_batch_size": 64}
        pipeline = make_pipeline(
            repo, aligner_r111, tmp_path / "w", **(size if via == "config" else {})
        )
        journal_path = tmp_path / "run.jsonl"
        pipeline.run_batch(
            [acc],
            BatchOptions(
                journal=journal_path,
                shard_checkpoints=True,
                **(size if via == "options" else {}),
            ),
        )
        shards = RunJournal(journal_path).replay().align_shards[acc]
        assert len(shards) == math.ceil(600 / 64)

    def test_resume_parallel_matches_serial(
        self, repository, aligner_r111, tmp_path
    ):
        """Execution shape is not part of the fingerprint: a batch
        journaled serially resumes under max_parallel > 1."""
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner_r111, tmp_path / "a")
        first.run_batch(ACCESSIONS[:1], BatchOptions(journal=journal_path))
        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        results = second.run_batch(
            ACCESSIONS,
            BatchOptions(max_parallel=3, journal=journal_path, resume=True),
        )
        assert [r.accession for r in results] == ACCESSIONS
        assert results[0].resumed and not results[1].resumed


class TestGracefulDrain:
    def test_drain_before_start_admits_nothing(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        pipeline.request_drain()
        assert pipeline.draining
        results = pipeline.run_batch(ACCESSIONS)
        assert results == []

    def test_drain_mid_batch_then_resume(
        self, repository, aligner_r111, tmp_path
    ):
        """Drain after the first completion: remaining accessions are not
        admitted, the journal stays resumable, and the resumed batch
        matches an uninterrupted reference."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal = RunJournal(journal_path)
        first_done = threading.Event()

        original = journal.record_completed

        def spy(accession, payload):
            original(accession, payload)
            first_done.set()

        journal.record_completed = spy

        def drainer():
            first_done.wait(timeout=60)
            pipeline.request_drain(deadline=0.0)

        thread = threading.Thread(target=drainer)
        thread.start()
        results = pipeline.run_batch(ACCESSIONS, BatchOptions(journal=journal))
        thread.join()

        assert 1 <= len(results) < len(ACCESSIONS)
        finished = [r for r in results if r.status.terminal]
        assert finished, "at least the first accession must have completed"

        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == {r.accession for r in finished}

        second = make_pipeline(repository, aligner_r111, tmp_path / "b")
        resumed = second.run_batch(
            ACCESSIONS, BatchOptions(journal=journal_path, resume=True)
        )
        reference = make_pipeline(repository, aligner_r111, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(ACCESSIONS)
        ]

    def test_expired_deadline_marks_run_drained(
        self, repository, aligner_r111, tmp_path
    ):
        """With the deadline already spent, an in-flight alignment aborts
        at its next checkpoint and the run is journaled non-terminal."""
        journal_path = tmp_path / "run.jsonl"
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        pipeline._drain_deadline_at = time.monotonic() - 1.0
        pipeline._drain.set()
        result = BatchRunner(
            pipeline, BatchOptions(), RunJournal(journal_path)
        ).execute(ACCESSIONS[0])
        assert result.status is RunStatus.DRAINED
        assert not result.status.terminal
        assert result.counts is None
        replay = RunJournal(journal_path).replay()
        assert replay.terminal == {}
        assert replay.in_flight == [ACCESSIONS[0]]

    def test_drained_status_properties(self):
        assert not RunStatus.DRAINED.terminal
        assert not RunStatus.DRAINED.produced_counts
        assert all(
            s.terminal for s in RunStatus if s is not RunStatus.DRAINED
        )

    def test_drain_tears_engine_down(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path / "w", workers=2
        )
        pipeline.run_batch(ACCESSIONS[:1])
        assert pipeline._engine is not None
        assert pipeline.drain(timeout=10.0)
        assert pipeline._engine is None


class TestSignalHandling:
    def test_sigterm_requests_drain(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        with drain_on_signals(pipeline, deadline=0.0):
            signal.raise_signal(signal.SIGTERM)
            assert pipeline.draining
            # second signal escalates so a stuck drain can be interrupted
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGTERM)

    def test_handlers_restored_on_exit(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        before = signal.getsignal(signal.SIGTERM)
        with drain_on_signals(pipeline):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before
