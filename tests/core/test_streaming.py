"""Streamed ≡ sequential: the identity property the overlap must preserve."""

import dataclasses
import sys
import threading

import pytest

from repro.align.star import StarAligner, StarParameters
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.paired import PairedProfile, PairedSraArchive, simulate_paired
from repro.reads.sra import SraArchive, SraRepository
from repro.reads.stream import ThrottledRepository
from repro.reads.trim import TrimConfig

BULK = ["SRRST0001", "SRRST0002", "SRRST0003"]
SC = "SRRST0004"  # low mapping rate: early-stopped
PE = "SRRSTPE05"
ALL = BULK + [SC, PE]


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(BULK):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=200, read_length=80),
            rng=800 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    sc = simulator.simulate(
        SampleProfile(LibraryType.SINGLE_CELL_3P, n_reads=300, read_length=80),
        rng=880,
        read_id_prefix=SC,
    )
    repo.deposit(SraArchive(SC, LibraryType.SINGLE_CELL_3P, sc.records))
    paired = simulate_paired(
        simulator,
        PairedProfile(
            LibraryType.BULK_POLYA,
            n_pairs=80,
            read_length=60,
            insert_mean=200,
            insert_sd=25,
        ),
        rng=890,
    )
    repo._blobs[PE] = PairedSraArchive(
        PE, LibraryType.BULK_POLYA, paired.mate1, paired.mate2
    ).to_bytes()
    return repo


@pytest.fixture(scope="module")
def aligner(index_r111):
    # cadence tight enough that early stopping fires genuinely mid-stream
    return StarAligner(
        index_r111, StarParameters(progress_every=25, align_batch_size=25)
    )


def make_pipeline(repository, aligner, workspace, **overrides):
    base = dict(
        early_stopping=EarlyStoppingPolicy(min_reads=20), write_outputs=False
    )
    base.update(overrides)
    return TranscriptomicsAtlasPipeline(
        repository, aligner, workspace, config=PipelineConfig(**base)
    )


def comparable(result):
    """Everything output-like; excludes wall clock and — for cancelled
    streams — the legitimately-partial fastq_bytes (see streaming docs)."""
    final = result.star_result.final if result.star_result else None
    if final is not None:
        stats = dataclasses.asdict(final)
        stats.pop("elapsed_seconds")
    else:
        stats = None
    failure = result.failure
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        stats,
        None if failure is None else (failure.step, failure.permanent),
    )


#: execution options a streamed batch combines with; each must leave
#: outputs identical to the sequential serial run
COMBINED = {
    "max_parallel": {"max_parallel": 2},
    "faas": {"backend": "faas"},
    "shard_checkpoints": {"shard_checkpoints": True},
}


def streamed_options(tmp_path, **kwargs):
    """Streamed BatchOptions; shard checkpoints get the journal they need."""
    if kwargs.get("shard_checkpoints"):
        kwargs.setdefault("journal", tmp_path / "streamed.jsonl")
    return BatchOptions(streaming=True, **kwargs)


class TestStreamedIdentity:
    @pytest.mark.parametrize(
        "chunk_reads,prefetch_depth,combined",
        [
            pytest.param(16, 0, {}, id="0-16"),
            pytest.param(256, 0, {}, id="0-256"),
            pytest.param(16, 2, {}, id="2-16"),
            pytest.param(256, 2, {}, id="2-256"),
        ]
        + [
            pytest.param(16, 1, extra, id=name)
            for name, extra in COMBINED.items()
        ],
    )
    def test_mixed_batch_matches_sequential(
        self, repository, aligner, tmp_path, chunk_reads, prefetch_depth, combined
    ):
        """SE accepted + SE early-stopped + PE, across chunk sizes,
        lookahead depths, accession parallelism, the FaaS backend and
        shard checkpoints: outcome-identical to the sequential path."""
        sequential = make_pipeline(
            repository, aligner, tmp_path / "seq"
        ).run_batch(ALL, BatchOptions())
        streamed = make_pipeline(
            repository, aligner, tmp_path / "st"
        ).run_batch(
            ALL,
            streamed_options(
                tmp_path,
                chunk_reads=chunk_reads,
                prefetch_depth=prefetch_depth,
                download_chunk_bytes=2048,
                **combined,
            ),
        )
        assert [comparable(r) for r in streamed] == [
            comparable(r) for r in sequential
        ]
        assert all(r.streamed for r in streamed)
        assert all(not r.streamed for r in sequential)
        assert {r.accession: r.status for r in streamed}[SC] is (
            RunStatus.REJECTED_EARLY
        )

    @pytest.mark.parametrize(
        "combined",
        [pytest.param({}, id="plain")]
        + [pytest.param(extra, id=name) for name, extra in COMBINED.items()],
    )
    def test_count_matrices_identical(
        self, repository, aligner, tmp_path, combined
    ):
        seq = make_pipeline(repository, aligner, tmp_path / "seq")
        seq.run_batch(ALL, BatchOptions())
        st = make_pipeline(repository, aligner, tmp_path / "st")
        st.run_batch(ALL, streamed_options(tmp_path, **combined))
        a, b = seq.build_count_matrix(), st.build_count_matrix()
        assert a.gene_ids == b.gene_ids
        assert a.sample_ids == b.sample_ids
        assert (a.counts == b.counts).all()

    def test_more_consumers_than_cores_under_fast_switching(
        self, repository, aligner, tmp_path
    ):
        """Five consumers sharing one downloader, its admission bound and
        the result map, with the interpreter switching threads often: one
        result per accession, outputs identical to the sequential run."""
        sequential = make_pipeline(
            repository, aligner, tmp_path / "seq"
        ).run_batch(ALL, BatchOptions())
        pipeline = make_pipeline(repository, aligner, tmp_path / "st")
        got = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(
                target=lambda: got.extend(
                    pipeline.run_batch(
                        ALL,
                        BatchOptions(
                            streaming=True,
                            max_parallel=len(ALL),
                            prefetch_depth=0,
                            chunk_reads=8,
                            buffer_chunks=1,
                        ),
                    )
                )
            )
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not thread.is_alive()
        assert [comparable(r) for r in got] == [
            comparable(r) for r in sequential
        ]
        assert pipeline.stage_health.accessions_streamed == len(ALL)

    def test_early_stop_cancels_download_and_saves_bytes(
        self, repository, aligner, tmp_path
    ):
        """With a throttled network, aborting mid-stream leaves real bytes
        un-downloaded — the paper's saving, now on the transfer too."""
        throttled = ThrottledRepository(repository, bandwidth_bytes_per_s=5e4)
        pipeline = make_pipeline(throttled, aligner, tmp_path)
        results = pipeline.run_batch(
            [SC],
            BatchOptions(
                streaming=True, download_chunk_bytes=1024, chunk_reads=25
            ),
        )
        (result,) = results
        assert result.status is RunStatus.REJECTED_EARLY
        assert result.download_bytes_saved > 0
        assert result.fastq_bytes < repository.archive_bytes(SC) * 10
        health = pipeline.stage_health
        assert health.accessions_streamed == 1
        assert health.downloads_cancelled == 1
        assert health.download_bytes_saved == result.download_bytes_saved

    def test_completed_stream_saves_nothing(
        self, repository, aligner, tmp_path
    ):
        pipeline = make_pipeline(repository, aligner, tmp_path)
        (result,) = pipeline.run_batch(
            [BULK[0]], BatchOptions(streaming=True)
        )
        assert result.status is RunStatus.ACCEPTED
        assert result.download_bytes_saved == 0
        assert result.download_bytes_total == repository.archive_bytes(BULK[0])
        assert pipeline.stage_health.downloads_cancelled == 0

    def test_stream_metrics_populated(self, repository, aligner, tmp_path):
        pipeline = make_pipeline(repository, aligner, tmp_path)
        pipeline.run_batch(BULK, BatchOptions(streaming=True))
        rows = {name: row for name, *row in pipeline.stage_health.to_rows()}
        assert rows["prefetch"][1] > 0  # bytes moved
        assert rows["align"][1] > 0  # reads aligned
        assert pipeline.stage_health.stage("align").items == len(BULK)

    def test_trim_is_rejected_up_front(self, repository, aligner, tmp_path):
        pipeline = make_pipeline(
            repository, aligner, tmp_path, trim=TrimConfig(min_length=20)
        )
        with pytest.raises(ValueError, match="trim"):
            pipeline.run_batch(BULK, BatchOptions(streaming=True))

    def test_engine_backend_streams_identically(
        self, repository, aligner, tmp_path
    ):
        sequential = make_pipeline(
            repository, aligner, tmp_path / "seq", workers=2
        )
        streamed = make_pipeline(
            repository, aligner, tmp_path / "st", workers=2
        )
        try:
            a = sequential.run_batch(BULK + [SC], BatchOptions())
            b = streamed.run_batch(
                BULK + [SC], BatchOptions(streaming=True, chunk_reads=32)
            )
        finally:
            sequential.close()
            streamed.close()
        assert [comparable(r) for r in b] == [comparable(r) for r in a]


class TestStreamedFailureSemantics:
    def test_permanent_prefetch_fault_fails_the_step(
        self, repository, aligner, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("prefetch", BULK[1], FaultKind.PERMANENT)]
        )
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        results = pipeline.run_batch(BULK, BatchOptions(streaming=True))
        by_acc = {r.accession: r for r in results}
        assert by_acc[BULK[1]].status is RunStatus.FAILED
        assert by_acc[BULK[1]].failure.step == "prefetch"
        assert by_acc[BULK[1]].failure.permanent
        assert by_acc[BULK[0]].status is RunStatus.ACCEPTED
        assert by_acc[BULK[2]].status is RunStatus.ACCEPTED

    def test_transient_faults_retry_like_sequential(
        self, repository, aligner, tmp_path
    ):
        def plan():
            return FaultPlan(
                [
                    FaultSpec("prefetch", BULK[0], FaultKind.TRANSIENT, times=1),
                    FaultSpec(
                        "fasterq_dump", BULK[1], FaultKind.TRANSIENT, times=1
                    ),
                    FaultSpec("align", BULK[2], FaultKind.TRANSIENT, times=1),
                ]
            )

        retry = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
        sequential = make_pipeline(
            repository, aligner, tmp_path / "a", fault_plan=plan(), retry=retry
        ).run_batch(BULK, BatchOptions())
        streamed = make_pipeline(
            repository, aligner, tmp_path / "b", fault_plan=plan(), retry=retry
        ).run_batch(BULK, BatchOptions(streaming=True))
        assert [comparable(r) for r in streamed] == [
            comparable(r) for r in sequential
        ]
        assert [r.retries for r in streamed] == [r.retries for r in sequential]

    def test_align_retry_after_consumption_fails_loudly(
        self, repository, aligner, tmp_path
    ):
        """FaaS gathers the whole stream, then crashes past its own
        retries: the pipeline's align retry must fail, not align the
        exhausted feed's zero reads."""
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        pipeline._get_faas_backend().function.fail_next(5)
        (result,) = pipeline.run_batch(
            [BULK[0]], BatchOptions(streaming=True, backend="faas")
        )
        assert result.status is RunStatus.FAILED
        assert result.failure.step == "align"
        assert "already consumed" in result.failure.error

    def test_missing_accession_fails_not_raises(
        self, repository, aligner, tmp_path
    ):
        pipeline = make_pipeline(
            repository,
            aligner,
            tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        results = pipeline.run_batch(
            ["SRRMISSING", BULK[0]], BatchOptions(streaming=True)
        )
        assert results[0].status is RunStatus.FAILED
        assert results[0].failure.step == "prefetch"
        assert results[1].status is RunStatus.ACCEPTED


class TestStreamedJournal:
    def test_streamed_journal_resumes_sequentially(
        self, repository, aligner, tmp_path
    ):
        """Execution shape is not fingerprinted: a streamed journal
        replays under the sequential path (and vice versa)."""
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner, tmp_path / "a")
        originals = first.run_batch(
            ALL, BatchOptions(streaming=True, journal=journal_path)
        )
        second = make_pipeline(repository, aligner, tmp_path / "b")
        resumed = second.run_batch(
            ALL, BatchOptions(journal=journal_path, resume=True)
        )
        assert all(r.resumed for r in resumed)
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in originals
        ]
        # the replayed results keep the stream accounting
        by_acc = {r.accession: r for r in resumed}
        assert all(by_acc[a].streamed for a in ALL)

    def test_sequential_journal_resumes_streamed(
        self, repository, aligner, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        first = make_pipeline(repository, aligner, tmp_path / "a")
        first.run_batch(ALL[:2], BatchOptions(journal=journal_path))
        second = make_pipeline(repository, aligner, tmp_path / "b")
        results = second.run_batch(
            ALL,
            BatchOptions(
                streaming=True, journal=journal_path, resume=True
            ),
        )
        by_acc = {r.accession: r for r in results}
        assert [r.accession for r in results] == ALL
        assert all(by_acc[a].resumed for a in ALL[:2])
        assert all(not by_acc[a].resumed for a in ALL[2:])
        reference = make_pipeline(repository, aligner, tmp_path / "ref")
        assert [comparable(r) for r in results] == [
            comparable(r) for r in reference.run_batch(ALL, BatchOptions())
        ]

    def test_shard_records_match_sequential(
        self, repository, aligner, tmp_path
    ):
        """Chunk boundaries never move the shard schedule: a streamed
        batch journals byte-identical shard checkpoints."""
        shards = {}
        for name, streaming in (("seq", False), ("st", True)):
            path = tmp_path / f"{name}.jsonl"
            make_pipeline(repository, aligner, tmp_path / name).run_batch(
                ALL,
                BatchOptions(
                    streaming=streaming,
                    chunk_reads=16,
                    journal=path,
                    shard_checkpoints=True,
                ),
            )
            shards[name] = [
                line
                for line in path.read_bytes().splitlines()
                if b'"align.shard"' in line
            ]
        assert len(shards["seq"]) > len(ALL)
        assert shards["st"] == shards["seq"]

    def test_sequential_shards_replay_in_streamed_resume(
        self, repository, aligner, tmp_path
    ):
        """A sequential journal cut before any accession committed: the
        streamed resume re-runs every accession from its shards."""
        full = tmp_path / "full.jsonl"
        make_pipeline(repository, aligner, tmp_path / "a").run_batch(
            ALL, BatchOptions(journal=full, shard_checkpoints=True)
        )
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(
            b"".join(
                line
                for line in full.read_bytes().splitlines(keepends=True)
                if b'"completed"' not in line
            )
        )
        second = make_pipeline(repository, aligner, tmp_path / "b")
        resumed = second.run_batch(
            ALL,
            BatchOptions(
                streaming=True,
                journal=cut,
                resume=True,
                shard_checkpoints=True,
            ),
        )
        assert not any(r.resumed for r in resumed)
        assert second.shard_checkpoint_summary()["hits"] > 0
        reference = make_pipeline(repository, aligner, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(ALL, BatchOptions())
        ]

    def test_kill_mid_stream_then_resume(
        self, repository, aligner, tmp_path
    ):
        """Drain (the spot-kill stand-in) lands mid-stream: the in-flight
        download is cancelled, only finished accessions are terminal in
        the journal, and a resume re-runs exactly the unfinished tail to
        a result set matching an uninterrupted reference."""
        journal_path = tmp_path / "run.jsonl"
        throttled = ThrottledRepository(repository, bandwidth_bytes_per_s=5e4)
        pipeline = make_pipeline(throttled, aligner, tmp_path / "w")
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
        results = pipeline.run_batch(
            ALL,
            BatchOptions(
                streaming=True, journal=journal, download_chunk_bytes=1024
            ),
        )
        thread.join()
        journal.close()  # the caller's journal: run_batch leaves it open

        assert 1 <= len(results) < len(ALL)
        finished = [r for r in results if r.status is not RunStatus.DRAINED]
        assert finished
        replay = RunJournal(journal_path).replay()
        assert set(replay.terminal) == {r.accession for r in finished}

        second = make_pipeline(repository, aligner, tmp_path / "b")
        resumed = second.run_batch(
            ALL, BatchOptions(streaming=True, journal=journal_path, resume=True)
        )
        reference = make_pipeline(repository, aligner, tmp_path / "ref")
        assert [comparable(r) for r in resumed] == [
            comparable(r) for r in reference.run_batch(ALL, BatchOptions())
        ]
