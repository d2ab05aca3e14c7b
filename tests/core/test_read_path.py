"""The columnar read path, end to end.

Reads travel from the archive to the batch core as columns: the
``fasterq-dump`` stage and the streamed download decode the payload once,
and nothing between there and the alignment builds a per-read object.
Outcomes travel on as columns too: a single-end batch without SAM output
builds no per-read alignment object and counts genes without the
per-read GeneCounts call.
Sequential and streamed runs cut read ids by one rule, so their outcomes
and shard checkpoints cannot drift apart.
"""

import numpy as np
import pytest

from repro.align.backend import FaasAlignerBackend, ReadChunkStream
from repro.align.counts import GeneCounts
from repro.align.star import ReadAlignment, StarAligner, StarParameters
from repro.cloud.faas import FaasLimits, FaasService
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import ShardCheckpointer
from repro.reads.fastq import FastqRecord, ReadColumns
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository, prefetch, run_fasterq_dump
from repro.reads.stream import SraStream

ACCS = ["SRRRP0001", "SRRRP0002"]
SPACED = "SRRRP0003"  # headers carry whitespace-separated descriptions


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    for i, acc in enumerate(ACCS + [SPACED]):
        sample = simulator.simulate(
            SampleProfile(LibraryType.BULK_POLYA, n_reads=150, read_length=80),
            rng=700 + i,
            read_id_prefix=acc,
        )
        records = sample.records
        if acc == SPACED:
            records = [
                FastqRecord(f"{r.read_id} length=80\tlane=3", r.sequence, r.qualities)
                for r in records
            ]
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, records))
    return repo


@pytest.fixture(scope="module")
def aligner(index_r111):
    return StarAligner(
        index_r111, StarParameters(progress_every=25, align_batch_size=32)
    )


def pipeline(repository, aligner, workspace):
    return TranscriptomicsAtlasPipeline(
        repository, aligner, workspace, config=PipelineConfig(write_outputs=False)
    )


class TestNoRecordsOnTheAlignPath:
    @pytest.mark.parametrize("streaming", [False, True])
    def test_run_batch_builds_no_fastq_records(
        self, repository, aligner, tmp_path, monkeypatch, streaming
    ):
        built = []
        post_init = FastqRecord.__post_init__

        def counting(record):
            built.append(record.read_id)
            post_init(record)

        monkeypatch.setattr(FastqRecord, "__post_init__", counting)
        results = pipeline(repository, aligner, tmp_path).run_batch(
            ACCS, BatchOptions(streaming=streaming)
        )
        assert [r.status for r in results] == [RunStatus.ACCEPTED] * len(ACCS)
        assert all(len(r.star_result.outcomes) == 150 for r in results)
        assert built == []


class TestNoOutcomeObjectsOnTheAlignPath:
    @pytest.mark.parametrize(
        "options",
        [{}, {"streaming": True}, {"shard_checkpoints": True}],
        ids=["dumped", "streamed", "shard_checkpoints"],
    )
    def test_run_batch_builds_no_read_alignments(
        self, repository, aligner, tmp_path, monkeypatch, options
    ):
        built = []
        record_unique_calls = []
        init = ReadAlignment.__init__
        record_unique = GeneCounts.record_unique

        def counting_init(self, *args, **kwargs):
            built.append(args[:1])
            init(self, *args, **kwargs)

        def counting_record_unique(self, *args, **kwargs):
            record_unique_calls.append(args)
            record_unique(self, *args, **kwargs)

        monkeypatch.setattr(ReadAlignment, "__init__", counting_init)
        monkeypatch.setattr(GeneCounts, "record_unique", counting_record_unique)
        journal = {"journal": tmp_path / "run.jsonl"} if options else {}
        results = pipeline(repository, aligner, tmp_path / "w").run_batch(
            ACCS, BatchOptions(**options, **journal)
        )
        assert [r.status for r in results] == [RunStatus.ACCEPTED] * len(ACCS)
        assert all(r.counts and sum(r.counts.values()) for r in results)
        assert built == []
        assert record_unique_calls == []
        # the outcomes are all there, built on demand
        assert len(results[0].star_result.outcomes) == 150
        assert results[0].star_result.outcomes[0].read_id == f"{ACCS[0]}.0"
        assert len(built) == 1


class TestOneReadIdRule:
    def test_sequential_and_streamed_outcomes_match(
        self, repository, aligner, tmp_path
    ):
        runs = [
            pipeline(repository, aligner, tmp_path / name).run_batch(
                [SPACED], BatchOptions(streaming=streaming)
            )[0]
            for name, streaming in (("seq", False), ("stream", True))
        ]
        sequential, streamed = (r.star_result.outcomes for r in runs)
        assert sequential == streamed
        assert [o.read_id for o in sequential] == [
            f"{SPACED}.{i}" for i in range(150)
        ]

    def test_shard_checkpoints_are_byte_identical(
        self, repository, aligner, tmp_path
    ):
        dump = run_fasterq_dump(prefetch(repository, SPACED, tmp_path), tmp_path)
        stream = SraStream(repository, SPACED, chunk_bytes=333, chunk_reads=20)
        stream.open()
        journals = []
        outcomes = []
        for name, reads, total in (
            ("seq", dump.reads, None),
            ("stream", stream.chunks(), stream.n_reads),
        ):
            journal = RunJournal(tmp_path / f"{name}.jsonl", fsync=False)
            ckpt = ShardCheckpointer(journal, SPACED, "fp")
            result = aligner.run(reads, reads_total=total, checkpoint=ckpt)
            assert ckpt.recorded == 5  # 150 reads in 32-read shards
            journals.append(journal.path.read_bytes())
            outcomes.append(result.outcomes)
        assert outcomes[0] == outcomes[1]
        assert journals[0] == journals[1]
        assert b"lane=3" not in journals[0]


class TestFaasSizingUnchanged:
    @pytest.mark.parametrize("max_request_bytes", [6 * 1024 * 1024, 20_000, 3_000])
    def test_columns_size_like_records(self, aligner, bulk_sample, max_request_bytes):
        records = bulk_sample.records
        columns = ReadColumns.from_records(records)
        # the estimate FaaS requests were always sized by
        assert columns.wire_bytes() == sum(
            2 * r.length + len(r.read_id) + 8 for r in records
        )
        faas = FaasAlignerBackend(
            aligner,
            service=FaasService(limits=FaasLimits(max_request_bytes=max_request_bytes)),
        )
        assert faas.shard_size(columns) == faas.shard_size(records)
        assert faas.shard_size(columns, columns) == faas.shard_size(records, records)

    def test_record_and_column_batches_align_alike(self, aligner, bulk_sample):
        records = bulk_sample.records[:100]
        faas = FaasAlignerBackend(
            aligner, service=FaasService(limits=FaasLimits(max_request_bytes=6_000))
        )
        by_records = faas.align(ReadChunkStream.whole(records))
        invocations = faas.function.invocations
        by_columns = faas.align(
            ReadChunkStream.whole(ReadColumns.from_records(records))
        )
        assert by_columns.outcomes == by_records.outcomes
        assert faas.function.invocations == 2 * invocations
        assert np.isclose(by_columns.final.mapped_fraction, by_records.final.mapped_fraction)
