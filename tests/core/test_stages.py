"""Stage API: uniform step objects, stable step keys, metrics layer."""

import pytest

from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.pipeline import (
    BatchOptions,
    BatchRunner,
    PipelineConfig,
    TranscriptomicsAtlasPipeline,
)
from repro.core.stages import (
    AlignStage,
    Deseq2Stage,
    FasterqDumpStage,
    PipelineHealth,
    PrefetchStage,
    Stage,
    StageContext,
    StageMetrics,
    default_stages,
)
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.sra import SraArchive, SraRepository

ACC = "SRRSTAGE01"


@pytest.fixture(scope="module")
def repository(simulator):
    repo = SraRepository()
    sample = simulator.simulate(
        SampleProfile(LibraryType.BULK_POLYA, n_reads=150, read_length=80),
        rng=21,
        read_id_prefix=ACC,
    )
    repo.deposit(SraArchive(ACC, LibraryType.BULK_POLYA, sample.records))
    return repo


@pytest.fixture
def pipeline(repository, aligner_r111, tmp_path):
    return TranscriptomicsAtlasPipeline(
        repository,
        aligner_r111,
        tmp_path,
        config=PipelineConfig(early_stopping=EarlyStoppingPolicy(min_reads=20)),
    )


class TestStageProtocol:
    def test_default_stages_order_and_protocol(self):
        stages = default_stages()
        assert [s.name for s in stages] == ["prefetch", "fasterq-dump", "align"]
        assert all(isinstance(s, Stage) for s in stages)

    def test_step_keys_are_the_fault_plan_vocabulary(self):
        """Back-compat: FaultPlan specs (step:key:kind), journal step-done
        records, and retry ledgers key on these exact names."""
        assert PrefetchStage.step_key == "prefetch"
        assert FasterqDumpStage.step_key == "fasterq_dump"
        assert AlignStage.step_key == "align"
        assert Deseq2Stage.step_key == "deseq2"

    def test_timing_keys_map_to_step_timing(self):
        assert PrefetchStage.timing_key == "prefetch"
        assert FasterqDumpStage.timing_key == "fasterq_dump"
        assert AlignStage.timing_key == "star"
        assert Deseq2Stage.timing_key is None  # batch-scoped


class TestStageExecution:
    def run_stages_manually(self, pipeline, tmp_path):
        work = tmp_path / ACC
        work.mkdir(parents=True, exist_ok=True)
        ctx = StageContext(
            pipeline=pipeline,
            accession=ACC,
            work=work,
            state={"paired": False, "fastq_bytes": 0},
            batch=BatchRunner(pipeline, BatchOptions()),
        )
        for stage in default_stages():
            stage.prepare(ctx)
            stage.run(ctx)
        return ctx

    def test_products_populate_the_context(self, pipeline, tmp_path):
        ctx = self.run_stages_manually(pipeline, tmp_path)
        assert ctx.sra_path is not None and ctx.sra_path.exists()
        assert not ctx.paired
        assert ctx.fastq_path is not None and ctx.fastq_path.exists()
        assert ctx.state["fastq_bytes"] == ctx.fastq_path.stat().st_size
        assert ctx.state["download_bytes_total"] == ctx.sra_path.stat().st_size
        assert ctx.star_result is not None
        assert ctx.star_result.final.reads_processed > 0

    def test_deseq2_stage_matches_normalize(self, pipeline):
        pipeline.run_batch([ACC])
        matrix_a, factors_a, normalized_a = pipeline.normalize()
        matrix_b, factors_b, normalized_b = Deseq2Stage().run(pipeline)
        assert matrix_a.gene_ids == matrix_b.gene_ids
        assert (factors_a == factors_b).all()
        assert (normalized_a == normalized_b).all()


class TestStageMetrics:
    def test_record_accumulates(self):
        m = StageMetrics("align")
        m.record(items=2, units=100, busy=2.0, stall=0.5)
        m.record(items=1, units=50, busy=1.0)
        assert m.items == 3
        assert m.units == 150
        assert m.busy_seconds == pytest.approx(3.0)
        assert m.stall_seconds == pytest.approx(0.5)
        assert m.throughput == pytest.approx(50.0)

    def test_zero_busy_throughput(self):
        assert StageMetrics("x").throughput == 0.0

    def test_queue_sampling(self):
        m = StageMetrics("prefetch")
        assert m.mean_queue_depth == 0.0
        for depth in (0, 2, 4):
            m.sample_queue(depth)
        assert m.queue_peak == 4
        assert m.mean_queue_depth == pytest.approx(2.0)


class TestPipelineHealth:
    def test_stage_get_or_create(self):
        health = PipelineHealth()
        first = health.stage("align")
        assert health.stage("align") is first
        assert first.name == "align"

    def test_record_stream_accounting(self):
        health = PipelineHealth()
        health.record_stream(bytes_total=100, bytes_saved=0, cancelled=False)
        health.record_stream(bytes_total=200, bytes_saved=150, cancelled=True)
        assert health.accessions_streamed == 2
        assert health.download_bytes_total == 300
        assert health.download_bytes_saved == 150
        assert health.downloads_cancelled == 1

    def test_to_rows(self):
        health = PipelineHealth()
        health.stage("prefetch").record(items=1, units=10, busy=1.0)
        rows = health.to_rows()
        assert rows == [("prefetch", 1, 10, 1.0, 0.0, 0.0)]

    def test_pipeline_feeds_busy_seconds(
        self, repository, aligner_r111, tmp_path
    ):
        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner_r111, tmp_path
        )
        pipeline.run_batch([ACC])
        stages = {name for name, *_ in pipeline.stage_health.to_rows()}
        assert {"prefetch", "fasterq_dump", "align"} <= stages
        align = pipeline.stage_health.stage("align")
        assert align.items == 1
        assert align.busy_seconds > 0
