"""Every metric the benchmark prints, with its unit and direction.

``BENCHMARK.json`` declares the same names and units; the smoke test
checks the two agree.  NOTES.md says what each measures and which
end-to-end metric it should move on which workload.  ``claimable`` is
False for a counter whose value depends on thread timing rather than on
the inputs: it may be reported, but no performance claim may rest on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: end-to-end metrics only: the share of the parent's median by which
    #: the metric may worsen before a change counts as a regression
    bound: float | None = None
    claimable: bool = True


END_TO_END = (
    Metric("reads_per_s", "1/s", "higher", 0.25),
    Metric("core_s_per_mread", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("ok_fraction", "fraction", "higher", 0.01),
)

PER_LAYER = (
    # repro.reads
    Metric("reads.prefetch_s", "s", "lower"),
    Metric("reads.decode_s", "s", "lower"),
    Metric("reads.fastq_write_s", "s", "lower"),
    Metric("reads.fastq_parse_s", "s", "lower"),
    Metric("reads.download_bytes_saved", "bytes", "higher", claimable=False),
    # repro.align batch core
    Metric("align.index_build_s", "s", "lower"),
    Metric("align.pack_s", "s", "lower"),
    Metric("align.seed_s", "s", "lower"),
    Metric("align.extend_s", "s", "lower"),
    Metric("align.batch_other_s", "s", "lower"),
    Metric("align.run_other_s", "s", "lower"),
    Metric("align.seed_queries", "count", "lower"),
    Metric("align.seed_table_hits", "count", "higher"),
    Metric("align.seed_extend_steps", "count", "lower"),
    Metric("align.seed_lce_skips", "count", "higher"),
    # repro.align.counts
    Metric("align.genecounts_s", "s", "lower"),
    Metric("align.genecounts_reads", "count", "higher"),
    # repro.align.engine
    Metric("engine.start_s", "s", "lower"),
    Metric("engine.run_s", "s", "lower"),
    Metric("engine.shards", "count", "higher"),
    Metric("engine.redispatched", "count", "lower"),
    Metric("engine.engine_reads_per_s", "1/s", "higher"),
    Metric("engine.serial_reads_per_s", "1/s", "higher"),
    Metric("engine.speedup", "ratio", "higher"),
    # repro.core
    Metric("core.journal_s", "s", "lower"),
    Metric("core.journal_records", "count", "lower"),
    Metric("core.journal_bytes", "bytes", "lower"),
    Metric("core.stream_stall_s", "s", "lower", claimable=False),
    Metric("core.stream_wait_s", "s", "lower", claimable=False),
    Metric("core.queue_depth_mean", "chunks", "lower", claimable=False),
    Metric("core.early_stop_read_fraction", "fraction", "lower"),
    Metric("core.unattributed_s", "s", "lower"),
    Metric("core.unattributed_share", "fraction", "lower"),
    Metric("core.traced_wall_s", "s", "lower"),
    Metric("core.untraced_wall_s", "s", "lower"),
    Metric("core.tracing_overhead", "fraction", "lower"),
    # repro.quant
    Metric("quant.deseq2_s", "s", "lower"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
