"""Checkpoint/resume and graceful-drain semantics of the journaled batch."""

import gc
import json
import math
import shutil
import signal
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.resilience import FaultPlan
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
        journal.close()  # the caller's journal: run_batch leaves it open

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
        with RunJournal(journal_path) as journal:
            result = BatchRunner(pipeline, BatchOptions(), journal).execute(
                ACCESSIONS[0]
            )
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


#: a shard-checkpoint journal written before single-end shard payloads
#: became columns: ``align.shard`` records carry one encoded outcome list
#: per read under ``"o"`` (no ``"v"``), and the ``completed`` records are
#: cut so a resume must rebuild both accessions from their shards
V1_JOURNAL = Path(__file__).parent / "data" / "v1_se_shard_journal.jsonl"
V1_ACCESSIONS = ["SRRV10001", "SRRV10002"]


class TestVersion1ShardJournal:
    @pytest.fixture(scope="class")
    def v1_repository(self, simulator):
        repo = SraRepository()
        for i, acc in enumerate(V1_ACCESSIONS):
            sample = simulator.simulate(
                SampleProfile(LibraryType.BULK_POLYA, n_reads=96, read_length=80),
                rng=900 + i,
                read_id_prefix=acc,
            )
            repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
        return repo

    def test_fixture_holds_version_1_payloads(self):
        records = [json.loads(line) for line in V1_JOURNAL.read_text().splitlines()]
        shards = [r["shard"] for r in records if r["t"] == "align.shard"]
        assert len(shards) == 6  # 2 accessions x 96 reads in 32-read shards
        assert all("o" in s and "v" not in s for s in shards)
        assert not any(r["t"] == "completed" for r in records)

    def test_resume_replays_version_1_shards(
        self, v1_repository, index_r111, tmp_path
    ):
        aligner = StarAligner(index_r111, StarParameters(align_batch_size=32))
        journal_path = tmp_path / "run.jsonl"
        shutil.copy(V1_JOURNAL, journal_path)
        config = PipelineConfig(write_outputs=False)
        resumed_pipeline = TranscriptomicsAtlasPipeline(
            v1_repository, aligner, tmp_path / "a", config=config
        )
        resumed = resumed_pipeline.run_batch(
            V1_ACCESSIONS,
            BatchOptions(journal=journal_path, resume=True, shard_checkpoints=True),
        )
        assert resumed_pipeline.shard_checkpoint_summary() == {
            "hits": 6,
            "recorded": 0,
        }
        reference = TranscriptomicsAtlasPipeline(
            v1_repository, aligner, tmp_path / "b", config=config
        ).run_batch(V1_ACCESSIONS)
        assert [r.status for r in resumed] == [RunStatus.ACCEPTED] * 2
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference
        ]
        for got, want in zip(resumed, reference):
            assert got.star_result.outcomes == want.star_result.outcomes
            assert (
                got.star_result.gene_counts.to_tab()
                == want.star_result.gene_counts.to_tab()
            )


class TestBatchResources:
    """What a batch opens or starts it does not leave behind."""

    def test_path_journal_closed_after_batch(
        self, repository, aligner_r111, tmp_path
    ):
        """A journal ``run_batch`` opened from a path is closed when the
        batch returns: dropping the pipeline leaks no open file."""
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        journal_path = tmp_path / "run.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            pipeline.run_batch(
                ACCESSIONS[:2],
                BatchOptions(journal=journal_path, shard_checkpoints=True),
            )
            del pipeline
            gc.collect()
        leaks = [
            str(w.message)
            for w in caught
            if issubclass(w.category, ResourceWarning)
            and str(journal_path) in str(w.message)
        ]
        assert not leaks, leaks
        assert set(RunJournal(journal_path).replay().terminal) == set(
            ACCESSIONS[:2]
        )

    def test_caller_journal_left_open(self, repository, aligner_r111, tmp_path):
        pipeline = make_pipeline(repository, aligner_r111, tmp_path / "w")
        with RunJournal(tmp_path / "run.jsonl") as journal:
            pipeline.run_batch(ACCESSIONS[:1], BatchOptions(journal=journal))
            assert journal._fh is not None and not journal._fh.closed

    @pytest.mark.parametrize("backend", ["serial", "faas"])
    def test_engine_not_started_for_backends_without_it(
        self, repository, aligner_r111, tmp_path, backend
    ):
        plan = FaultPlan.parse(f"engine_worker:{ACCESSIONS[0]}:transient*1")
        pipeline = make_pipeline(
            repository, aligner_r111, tmp_path / "w", workers=2, fault_plan=plan
        )
        results = pipeline.run_batch(
            ACCESSIONS[:1], BatchOptions(backend=backend)
        )
        assert results[0].status is RunStatus.ACCEPTED
        assert pipeline._engine is None
        assert plan.injected == {}  # no pool, so no worker to kill

    def test_auto_backend_starts_engine_and_fires_worker_fault(
        self, repository, aligner_r111, tmp_path
    ):
        plan = FaultPlan.parse(f"engine_worker:{ACCESSIONS[0]}:transient*1")
        with make_pipeline(
            repository, aligner_r111, tmp_path / "w", workers=2, fault_plan=plan
        ) as pipeline:
            results = pipeline.run_batch(ACCESSIONS[:1])
            assert results[0].status is RunStatus.ACCEPTED
            assert pipeline._engine is not None
            assert plan.injected == {"engine_worker": 1}
            assert pipeline._engine.health.worker_failures >= 1


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
