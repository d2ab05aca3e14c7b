"""Command-line interface: regenerate any of the paper's artifacts.

Usage::

    python -m repro fig3 [--seed N] [--rows K]
    python -m repro fig4 [--seed N] [--threshold 0.3] [--check 0.1]
    python -m repro mini-fig3 [--reads N] [--workers N] [--cache-dir DIR]
    python -m repro index [--build] [--cache-dir DIR] [--release 111]
    python -m repro config-table
    python -m repro calibrate
    python -m repro architecture [--jobs N]
    python -m repro ablation [--corpus N]
    python -m repro pseudo [--seed N]
    python -m repro hpc [--jobs N] [--nodes N]
    python -m repro atlas [--jobs N] [--spot] [--release 111] [--fleet 8]
                          [--retries 3] [--fault-plan SPEC] [--no-drain]
                          [--replicate] [--architecture asg|faas|hybrid|all]
    python -m repro faas-crossover [--jobs N] [--seed N]
    python -m repro chaos [--accessions N] [--workers N] [--fault-plan SPEC]
                          [--crash local|stream|s3|faas]
    python -m repro pipeline [--accessions N] [--journal PATH] [--resume]
                             [--journal-s3 DIR] [--shard-checkpoints]
                             [--adopt]

Every command prints the same rows/series the paper reports and exits 0
(``pipeline --resume`` exits 2 when the journal's config hash does not
match the current configuration).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import run_fig3

    result = run_fig3(rng=args.seed)
    print(result.to_table(max_rows=args.rows))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.core.early_stopping import EarlyStoppingPolicy
    from repro.experiments.fig4 import run_fig4

    policy = EarlyStoppingPolicy(
        mapping_threshold=args.threshold, check_fraction=args.check
    )
    result = run_fig4(policy=policy, rng=args.seed)
    print(result.to_table())
    return 0


def _cmd_mini_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.mini_fig3 import run_mini_fig3

    result = run_mini_fig3(
        n_reads=args.reads,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(result.to_table())
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    import time

    from repro.align.cache import IndexCache, index_fingerprint
    from repro.genome.ensembl import EnsemblRelease, build_release_assembly
    from repro.genome.synth import GenomeUniverseSpec, make_universe
    from repro.util.rng import derive_rng, ensure_rng
    from repro.util.tables import Table

    cache = IndexCache(args.cache_dir)
    if args.build:
        rng = ensure_rng(args.seed)
        universe = make_universe(GenomeUniverseSpec(), rng)
        assembly = build_release_assembly(
            universe, EnsemblRelease(args.release), rng=derive_rng(rng, "assembly")
        )
        fingerprint = index_fingerprint(assembly, universe.annotation)
        was_cached = fingerprint in cache
        started = time.perf_counter()
        index = cache.get_or_build(assembly, universe.annotation)
        elapsed = time.perf_counter() - started
        table = Table(
            ["metric", "value"],
            title=f"Index build — release {args.release}, seed {args.seed}",
        )
        table.add_row(["fingerprint", fingerprint[:16]])
        table.add_row(["outcome", "cache hit (mmap)" if was_cached else "built"])
        table.add_row(["elapsed (s)", f"{elapsed:.3f}"])
        table.add_row(["genome bases", index.n_bases])
        table.add_row(["index bytes", index.size_bytes()])
        table.add_row(["jump-table L", index.jump_table.length])
        table.add_row(["jump-table bytes", index.jump_table.nbytes])
        table.add_row(["entry bytes on disk", cache.entry_bytes(fingerprint)])
        print(table.render())
        print()

    table = Table(
        ["fingerprint", "assembly", "bases", "bytes"],
        title=f"Index cache — {cache.root}",
    )
    import json

    for fp in cache.entries():
        meta = json.loads((cache.path_for(fp) / "meta.json").read_text())
        table.add_row(
            [fp[:16], meta["assembly_name"], meta["n_bases"], cache.entry_bytes(fp)]
        )
    print(table.render())
    print(
        f"entries: {len(cache.entries())}  "
        f"hits: {cache.hits}  misses: {cache.misses} (this invocation)"
    )
    return 0


def _cmd_config_table(args: argparse.Namespace) -> int:
    from repro.experiments.config_table import memory_fit_matrix, run_config_table

    print(run_config_table().to_table())
    print()
    print(memory_fit_matrix())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.perf.calibration import calibrate
    from repro.perf.targets import summarize

    print(summarize())
    print()
    print(calibrate().to_text())
    return 0


def _cmd_architecture(args: argparse.Namespace) -> int:
    from repro.experiments.architecture import run_architecture_sweep

    result = run_architecture_sweep(n_jobs=args.jobs, seed=args.seed)
    print(result.to_table())
    return 0


def _cmd_faas_crossover(args: argparse.Namespace) -> int:
    from repro.experiments.faas_crossover import run_faas_crossover

    result = run_faas_crossover(n_jobs=args.jobs, seed=args.seed)
    print(result.to_table())
    crossover = result.crossover_scale
    if crossover is None:
        print("serverless never wins on this sweep")
    else:
        print(
            f"serverless is cheaper up to scale {crossover:g} "
            f"(mean {result.point(crossover).mean_fastq_mb:.0f} MB FASTQ)"
        )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import run_ablation

    print(run_ablation(corpus_size=args.corpus, seed=args.seed).to_table())
    return 0


def _cmd_pseudo(args: argparse.Namespace) -> int:
    from repro.experiments.pseudo_comparison import (
        run_pseudo_comparison,
        run_transferability,
    )

    print(run_pseudo_comparison(rng=args.seed).to_table())
    print()
    print(run_transferability(seed=args.seed or 11).to_table())
    return 0


def _cmd_hpc(args: argparse.Namespace) -> int:
    from repro.core.hpc import HpcConfig, run_hpc
    from repro.experiments.corpus import CorpusSpec, generate_corpus
    from repro.util.tables import Table

    jobs = generate_corpus(CorpusSpec(n_runs=args.jobs), rng=args.seed)
    report = run_hpc(jobs, HpcConfig(n_nodes=args.nodes, seed=args.seed))
    table = Table(["metric", "value"], title=f"HPC campaign — {args.nodes} nodes")
    table.add_row(["jobs", report.n_jobs])
    table.add_row(["terminated early", report.n_terminated])
    table.add_row(["makespan (h)", f"{report.makespan_seconds / 3600:.2f}"])
    table.add_row(["node-hours", f"{report.node_hours:.1f}"])
    table.add_row(["STAR hours", f"{report.star_hours_actual:.1f}"])
    table.add_row(["jobs/hour", f"{report.throughput_jobs_per_hour:.1f}"])
    print(table.render())
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from repro.cloud.autoscaling import ScalingPolicy
    from repro.cloud.ec2 import InstanceMarket
    from repro.core.atlas import AtlasConfig, run_atlas
    from repro.core.resilience import FaultPlan, RetryPolicy
    from repro.experiments.corpus import CorpusSpec, generate_corpus
    from repro.genome.ensembl import EnsemblRelease
    from repro.util.tables import Table

    jobs = generate_corpus(CorpusSpec(n_runs=args.jobs), rng=args.seed)
    config = AtlasConfig(
        release=EnsemblRelease(args.release),
        market=InstanceMarket.SPOT if args.spot else InstanceMarket.ON_DEMAND,
        scaling=ScalingPolicy(max_size=args.fleet, messages_per_instance=4),
        retry=RetryPolicy(
            max_attempts=args.retries, base_delay=30.0, max_delay=600.0
        ),
        fault_plan=(
            FaultPlan.parse(args.fault_plan)
            if args.fault_plan is not None
            else None
        ),
        drain_on_warning=not args.no_drain,
        streaming=args.streaming,
        replicate_journal=args.replicate,
        seed=args.seed,
    )
    if args.architecture is not None:
        from repro.core.faas_atlas import ARCHITECTURES, compare_architectures

        architectures = (
            ARCHITECTURES
            if args.architecture == "all"
            else (args.architecture,)
        )
        comparison = compare_architectures(
            jobs, config, architectures=architectures
        )
        print(comparison.to_table())
        print(
            f"hybrid routing: jobs <= {comparison.hybrid_read_threshold} "
            "reads go to functions"
        )
        return 0
    report = run_atlas(jobs, config)
    table = Table(
        ["metric", "value"],
        title=f"Atlas campaign — release {args.release}, "
        f"{'spot' if args.spot else 'on-demand'}, fleet<={args.fleet}"
        f"{', streamed' if args.streaming else ''}",
    )
    table.add_row(["instance type", report.instance.name])
    table.add_row(["jobs completed", report.n_jobs])
    table.add_row(["terminated early", report.n_terminated])
    table.add_row(["makespan (h)", f"{report.makespan_seconds / 3600:.2f}"])
    table.add_row(["throughput (jobs/h)", f"{report.throughput_jobs_per_hour:.1f}"])
    table.add_row(["STAR hours", f"{report.star_hours_actual:.1f}"])
    table.add_row(["STAR hours saved", f"{report.star_hours_saved:.1f}"])
    table.add_row(
        ["download GB saved", f"{report.download_bytes_saved / 1e9:.1f}"]
    )
    for stage, seconds in sorted(report.stage_seconds.items()):
        table.add_row([f"stage {stage} (h)", f"{seconds / 3600:.1f}"])
    table.add_row(["init overhead (s)", f"{report.init_overhead_seconds:.0f}"])
    table.add_row(["peak fleet", report.peak_fleet])
    table.add_row(["mean utilization", f"{report.mean_utilization:.2f}"])
    table.add_row(["spot interruptions", report.cost.n_interrupted])
    table.add_row(["jobs drained", report.jobs_drained])
    table.add_row(["work lost (h)", f"{report.work_lost_seconds / 3600:.1f}"])
    table.add_row(
        ["work saved by drain (h)", f"{report.work_saved_seconds / 3600:.1f}"]
    )
    table.add_row(["queue redeliveries", report.queue_redeliveries])
    if args.replicate:
        table.add_row(["jobs adopted", report.jobs_adopted])
        table.add_row(
            ["work recovered (h)", f"{report.work_recovered_seconds / 3600:.1f}"]
        )
    table.add_row(["job retries", report.total_retries])
    table.add_row(["jobs failed", report.n_failed])
    table.add_row(["total cost", f"${report.cost.total_usd:.2f}"])
    print(table.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.resilience import RetryPolicy
    from repro.experiments.chaos import ChaosSpec, CrashSpec, run_chaos, run_crash

    if args.crash is not None:
        result = run_crash(CrashSpec(mode=args.crash, seed=args.seed))
        print(result.to_table())
        return 0 if result.passed else 1
    result = run_chaos(
        ChaosSpec(
            n_accessions=args.accessions,
            workers=args.workers,
            max_parallel=args.max_parallel,
            seed=args.seed,
            fault_plan_text=args.fault_plan,
            retry=RetryPolicy(
                max_attempts=args.retries, base_delay=0.01, max_delay=0.05
            ),
        )
    )
    print(result.to_table())
    return 0 if result.passed else 1


def _batch_options(args: argparse.Namespace, journal=None):
    """Map CLI flags onto :class:`BatchOptions` — the one place where
    command-line spellings meet run_batch's vocabulary."""
    from repro.core.pipeline import BatchOptions

    return BatchOptions(
        max_parallel=args.max_parallel,
        journal=journal if journal is not None else args.journal,
        resume=args.resume,
        streaming=args.stream,
        prefetch_depth=args.prefetch_depth,
        chunk_reads=args.chunk_reads,
        shard_checkpoints=getattr(args, "shard_checkpoints", False),
    )


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from pathlib import Path
    from tempfile import TemporaryDirectory

    from repro.core.early_stopping import EarlyStoppingPolicy
    from repro.core.journal import JournalIncompatible, RunJournal
    from repro.core.pipeline import (
        PipelineConfig,
        RunStatus,
        TranscriptomicsAtlasPipeline,
        drain_on_signals,
    )
    from repro.util.tables import Table

    if args.resume and args.journal is None:
        print("error: --resume requires --journal PATH", file=sys.stderr)
        return 2
    if args.journal_s3 is not None and args.journal is None:
        print(
            "error: --journal-s3 replicates a local journal; add "
            "--journal PATH",
            file=sys.stderr,
        )
        return 2
    if args.shard_checkpoints and args.journal is None:
        print(
            "error: --shard-checkpoints requires --journal PATH",
            file=sys.stderr,
        )
        return 2
    if args.adopt and (args.journal_s3 is None or not args.resume):
        print(
            "error: --adopt reconstructs the journal from S3; it needs "
            "--journal-s3 DIR and --resume",
            file=sys.stderr,
        )
        return 2

    from repro.experiments.chaos import build_demo_inputs

    aligner, repo, accessions = build_demo_inputs(
        args.accessions,
        n_reads=args.reads,
        seed=args.seed,
    )
    config = PipelineConfig(
        early_stopping=EarlyStoppingPolicy(min_reads=20),
        write_outputs=False,
        workers=args.workers,
        drain_deadline=args.drain_deadline,
    )
    journal = None
    if args.journal_s3 is not None:
        from repro.cloud.s3 import S3Service
        from repro.core.replication import (
            ReplicatedJournal,
            reconstruct_journal,
        )

        bucket = S3Service(root=Path(args.journal_s3)).create_bucket(
            "pipeline-journal"
        )
        if args.adopt:
            # a different instance is taking over: rebuild the local
            # journal from the replicated segments before replaying it
            reconstruct_journal(bucket, "batch", Path(args.journal))
        journal = ReplicatedJournal(Path(args.journal), bucket, "batch")
    with TemporaryDirectory(prefix="repro-pipeline-") as tmp:
        with TranscriptomicsAtlasPipeline(
            repo, aligner, Path(tmp), config=config
        ) as pipeline:
            try:
                # SIGTERM/SIGINT gracefully drain the batch: no new
                # accessions are admitted, in-flight work is bounded by
                # --drain-deadline, and the journal stays resumable
                with drain_on_signals(pipeline, deadline=args.drain_deadline):
                    results = pipeline.run_batch(
                        accessions, _batch_options(args, journal=journal)
                    )
            except JournalIncompatible as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            finally:
                if journal is not None:
                    journal.close()
            health = pipeline.stage_health
            ckpt_summary = (
                pipeline.shard_checkpoint_summary()
                if args.shard_checkpoints
                else None
            )

    table = Table(
        ["accession", "status", "source", "retries", "mapped %"],
        title=f"Pipeline batch — {len(results)}/{len(accessions)} accessions",
    )
    for r in results:
        table.add_row(
            [
                r.accession,
                r.status.value,
                "journal" if r.resumed else "run",
                r.retries,
                f"{100 * r.mapped_fraction:.1f}"
                if r.status is not RunStatus.FAILED
                else "-",
            ]
        )
    print(table.render())
    if args.stream:
        stages = Table(
            ["stage", "items", "units", "busy s", "stall s", "mean queue"],
            title="Stream stages",
        )
        for name, items, units, busy, stall, mean_q in health.to_rows():
            stages.add_row(
                [name, items, units, f"{busy:.2f}", f"{stall:.2f}",
                 f"{mean_q:.1f}"]
            )
        print(stages.render())
        print(
            f"streamed {health.accessions_streamed} accessions — "
            f"{health.download_bytes_total} bytes total, "
            f"{health.download_bytes_saved} saved "
            f"({health.downloads_cancelled} downloads cancelled)"
        )
    if ckpt_summary is not None:
        print(
            f"shard checkpoints: {ckpt_summary['hits']} replayed, "
            f"{ckpt_summary['recorded']} recorded"
        )
    if args.journal is not None:
        replay = RunJournal(args.journal).replay()
        pending = replay.pending(accessions)
        print(
            f"journal: {args.journal} — {len(replay.terminal)} terminal, "
            f"{len(pending)} pending"
        )
        if pending:
            print(
                f"resume with: python -m repro pipeline --accessions "
                f"{args.accessions} --reads {args.reads} --seed {args.seed} "
                f"--journal {args.journal} --resume"
            )
    drained = sum(1 for r in results if r.status is RunStatus.DRAINED)
    incomplete = len(accessions) - len(results) + drained
    return 3 if incomplete else 0


def _cmd_full_atlas(args: argparse.Namespace) -> int:
    from repro.experiments.full_atlas import run_full_atlas

    result = run_full_atlas(n_files=args.files, fleet=args.fleet, seed=args.seed)
    print(result.to_table())
    return 0


def _cmd_diagrams(args: argparse.Namespace) -> int:
    from repro.experiments.diagrams import diagrams_report

    print(diagrams_report())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import ReportScale, generate_report

    scale = ReportScale.quick() if args.quick else None
    text = generate_report(seed=args.seed, scale=scale)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(text)} bytes)")
    else:
        print(text)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.atlas import AtlasConfig
    from repro.core.planner import PlannerConstraints, plan_campaign
    from repro.experiments.corpus import CorpusSpec, generate_corpus

    jobs = generate_corpus(CorpusSpec(n_runs=args.jobs), rng=args.seed)
    plan = plan_campaign(
        jobs,
        PlannerConstraints(deadline_hours=args.deadline),
        base_config=AtlasConfig(instance_name="r6a.2xlarge", seed=args.seed),
    )
    print(plan.to_table())
    return 0 if plan.feasible else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Optimizing STAR Aligner for High Throughput "
        "Computing in the Cloud' (CLUSTER 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3", help="release 108 vs 111 STAR times (Fig. 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=None, help="limit printed rows")
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("fig4", help="early-stopping savings replay (Fig. 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.30)
    p.add_argument("--check", type=float, default=0.10)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("mini-fig3", help="Fig. 3 mechanisms with the real aligner")
    p.add_argument("--reads", type=int, default=400)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="alignment worker processes (>1 uses the shared-memory engine)",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="content-addressed index cache directory (repeat runs mmap-load)",
    )
    p.set_defaults(fn=_cmd_mini_fig3)

    p = sub.add_parser(
        "index", help="content-addressed genome index cache (build + report)"
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=".repro-index-cache",
        help="cache root directory",
    )
    p.add_argument(
        "--build",
        action="store_true",
        help="build (or mmap-load, on a hit) the release index into the cache",
    )
    p.add_argument("--release", type=int, default=111, choices=range(106, 113))
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("config-table", help="index sizes per Ensembl release")
    p.set_defaults(fn=_cmd_config_table)

    p = sub.add_parser("calibrate", help="show derived model constants")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("architecture", help="fleet-size scaling sweep")
    p.add_argument("--jobs", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_architecture)

    p = sub.add_parser(
        "faas-crossover",
        help="serverless vs instance-fleet cost crossover sweep",
    )
    p.add_argument("--jobs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_faas_crossover)

    p = sub.add_parser("ablation", help="early-stopping operating-point sweep")
    p.add_argument("--corpus", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser("pseudo", help="applicability to pseudo-aligners")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_pseudo)

    p = sub.add_parser("hpc", help="fixed-cluster (SLURM-like) campaign")
    p.add_argument("--jobs", type=int, default=120)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_hpc)

    p = sub.add_parser(
        "full-atlas", help="the full 7216-file / 17TB campaign, 4 variants"
    )
    p.add_argument("--files", type=int, default=7216)
    p.add_argument("--fleet", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_full_atlas)

    p = sub.add_parser("diagrams", help="Figs. 1-2 as structure-derived text")
    p.set_defaults(fn=_cmd_diagrams)

    p = sub.add_parser("report", help="regenerate every experiment in one document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="reduced workload sizes")
    p.add_argument("--output", type=str, default=None, help="write to a file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("plan", help="cheapest config meeting a deadline")
    p.add_argument("--jobs", type=int, default=120)
    p.add_argument("--deadline", type=float, default=6.0, help="hours")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("atlas", help="cloud atlas campaign")
    p.add_argument("--jobs", type=int, default=120)
    p.add_argument("--spot", action="store_true")
    p.add_argument(
        "--streaming",
        action="store_true",
        help="overlap download/decode with STAR per job; early stops "
        "cancel the in-flight download",
    )
    p.add_argument("--release", type=int, default=111, choices=range(106, 113))
    p.add_argument("--fleet", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max attempts per job (RetryPolicy.max_attempts)",
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="scripted faults, e.g. 'prefetch:SRR9000001:transient*2'",
    )
    p.add_argument(
        "--no-drain",
        action="store_true",
        help="ignore the 120 s spot notice (rely on the visibility "
        "timeout alone, the pre-drain behaviour)",
    )
    p.add_argument(
        "--replicate",
        action="store_true",
        help="replicate per-job progress to S3 under a fencing-token "
        "lease so surviving instances adopt interrupted jobs mid-STAR",
    )
    p.add_argument(
        "--architecture",
        choices=["asg", "faas", "hybrid", "all"],
        default=None,
        help="compare architectures on the same accession set: the ASG "
        "instance fleet, serverless scatter-gather functions, or the "
        "size-routed hybrid ('all' runs every variant)",
    )
    p.set_defaults(fn=_cmd_atlas)

    p = sub.add_parser(
        "chaos", help="fault-injected pipeline run vs fault-free reference"
    )
    p.add_argument("--accessions", type=int, default=12)
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="alignment worker processes (>1 also kills an engine worker)",
    )
    p.add_argument("--max-parallel", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="override the default scripted fault plan",
    )
    p.add_argument(
        "--crash",
        choices=["local", "stream", "s3", "faas"],
        default=None,
        help="run the crash-and-recover scenario instead: SIGKILL a "
        "journaled batch after one exact journal append, then recover by "
        "resume (local), streamed resume (stream), S3 adoption under a "
        "fenced lease (s3) or FaaS scatter adoption (faas); outcomes and "
        "count matrix must match an uninterrupted run",
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "pipeline",
        help="journaled pipeline batch with checkpoint/resume and "
        "graceful SIGTERM/SIGINT drain",
    )
    p.add_argument("--accessions", type=int, default=6)
    p.add_argument("--reads", type=int, default=100, help="reads per accession")
    p.add_argument(
        "--workers", type=int, default=1, help="alignment worker processes"
    )
    p.add_argument("--max-parallel", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--journal",
        type=str,
        default=None,
        help="crash-consistent run journal (append-only JSONL)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay the journal first; exit 2 if its config hash differs",
    )
    p.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        help="seconds granted to in-flight work after SIGTERM/SIGINT",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="stream each download into the aligner instead of writing "
        ".sra/FASTQ files first (overlaps download, decode, and alignment)",
    )
    p.add_argument(
        "--prefetch-depth",
        type=int,
        default=1,
        help="accessions downloaded ahead of the one aligning",
    )
    p.add_argument(
        "--chunk-reads",
        type=int,
        default=256,
        help="reads per streamed chunk handed to the aligner",
    )
    p.add_argument(
        "--journal-s3",
        type=str,
        default=None,
        help="replicate the journal to a simulated S3 bucket rooted at "
        "this directory (segments + manifest + tail; requires --journal)",
    )
    p.add_argument(
        "--shard-checkpoints",
        action="store_true",
        help="journal completed align shards so a resume re-dispatches "
        "only unfinished shards (requires --journal)",
    )
    p.add_argument(
        "--adopt",
        action="store_true",
        help="with --journal-s3 and --resume: reconstruct the journal "
        "from S3 first, adopting a dead instance's batch",
    )
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away — not an error; park
        # stdout on /dev/null so the interpreter-exit flush stays quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
