"""Run one benchmark workload end to end and print its metrics.

    python3 perfbench/run.py --workload bulk_seq --seed 0 --seconds 30 --trace 0

One run: generate the workload's inputs from ``--seed``; set up (index
build + pipeline start) several times and keep the last; run one serial
sequential reference batch (untimed, it also warms lazy state); then run
``TranscriptomicsAtlasPipeline.run_batch`` + ``normalize()`` trials for
``--seconds``.  Every trial's outputs are checked against the reference
— and, for the default seed, against the digests recorded in
``expected.json``.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced trials and prints the per-layer metrics
from the traced ones, with the tracing overhead between the two.

Every run writes its raw record (all metrics, every trial, seed,
cpu_count, git sha, Python and numpy versions) under
``perfbench/results/raw/``; ``summarize.py`` turns those into medians and
quartiles.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"

#: the seed whose outputs are recorded in expected.json
DEFAULT_SEED = 0
#: set-ups per run; setup_s is their median
SETUP_REPS = 3
#: trials of each kind a run makes even when --seconds runs out first
MIN_TRIALS = 2


def _put_program_on_path() -> None:
    """Import the program from this checkout's ``src/``, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; nothing to run")
    sys.path.insert(0, str(src))


# --------------------------------------------------------------------------
# process accounting
# --------------------------------------------------------------------------


def _proc_fields(pid: int) -> list[str]:
    stat = Path(f"/proc/{pid}/stat").read_text()
    return stat[stat.rindex(")") + 2 :].split()


def cpu_seconds() -> float:
    """User+sys CPU of this process, reaped children, and live children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError, ValueError, IndexError):
            fields = _proc_fields(child.pid)
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each worker child's peak."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError, ValueError):
            for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kb += int(line.split()[1])
    return kb / 1024.0


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper.

    The engine's shared-memory blocks start it on first use; it would
    otherwise exit on its own only after this process has, so the run
    would leave a process behind for a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------------
# output digests
# --------------------------------------------------------------------------


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def digests(results, matrix, factors) -> dict:
    """Per-accession digests (status, count column, size factor) plus one
    over the whole normalized count matrix."""
    size_factor = {
        s: format(float(f), ".9g") for s, f in zip(matrix.sample_ids, factors)
    }
    per_accession = {
        r.accession: _sha(
            [
                r.status.value,
                sorted(r.counts.items()) if r.counts is not None else None,
                size_factor.get(r.accession),
            ]
        )
        for r in results
    }
    whole = _sha(
        [
            matrix.gene_ids,
            matrix.sample_ids,
            matrix.counts.astype("int64").ravel().tolist(),
            [size_factor[s] for s in matrix.sample_ids],
        ]
    )
    return {"accessions": per_accession, "matrix": whole}


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


#: spans whose self time is reported as ``<name>_s``
SPAN_TIMES = (
    "reads.prefetch",
    "reads.decode",
    "reads.fastq_write",
    "reads.fastq_parse",
    "align.pack",
    "align.seed",
    "align.extend",
    "align.batch_other",
    "align.run_other",
    "align.genecounts",
    "engine.run",
    "core.journal",
    "core.stream_wait",
    "quant.deseq2",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _trial(pipeline, accessions, options_for, reads, tracer=None):
    """One ``run_batch`` + ``normalize`` trial; returns its raw record.

    With a ``tracer`` the layer wrappers are installed for exactly this
    trial and the record gains the per-layer figures.
    """
    from repro.core.stages import PipelineHealth
    from spans import traced

    pipeline.results.clear()
    pipeline.stage_health = PipelineHealth()
    options, journal_path = options_for()
    engine = pipeline._engine
    health = engine.health if engine is not None else None
    # the engine merges its workers' seed counters into its health
    stats = (
        health.seed_search
        if health is not None
        else pipeline.aligner.index.search_context.stats
    )
    seed_before = stats.snapshot()
    shards_before = health.batch_core_batches if health is not None else 0
    redispatched_before = (
        health.redispatched_batches if health is not None else 0
    )
    nothing = contextlib.nullcontext()
    with traced(tracer) if tracer is not None else nothing:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with tracer.span("iteration") if tracer is not None else nothing:
            results = pipeline.run_batch(accessions, options)
            matrix, factors, _normalized = pipeline.normalize()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "reads": reads,
        "reads_per_s": reads / wall,
        "core_s_per_mread": cpu / (reads / 1e6),
        "statuses": {r.accession: r.status.value for r in results},
        "digests": digests(results, matrix, factors),
    }
    journal_bytes = journal_path.stat().st_size
    journal_path.unlink()
    if tracer is None:
        return record

    seed_delta = stats.since(seed_before)
    rejected = [
        r.star_result.final
        for r in results
        if r.status.value == "rejected_early" and r.star_result is not None
    ]
    align_stage = pipeline.stage_health.stages.get("align")
    unattributed = tracer.self_main.get("iteration", 0.0)
    layer = {f"{name}_s": tracer.self_seconds(name) for name in SPAN_TIMES}
    layer.update(
        {
            "reads.download_bytes_saved": sum(
                r.download_bytes_saved for r in results
            ),
            "align.seed_queries": seed_delta["queries"],
            "align.seed_table_hits": seed_delta["table_hits"],
            "align.seed_extend_steps": seed_delta["extend_steps"],
            "align.seed_lce_skips": seed_delta["lce_skips"],
            "align.genecounts_reads": tracer.calls.get("align.genecounts", 0),
            "engine.shards": (
                health.batch_core_batches - shards_before if health else 0
            ),
            "engine.redispatched": (
                health.redispatched_batches - redispatched_before
                if health
                else 0
            ),
            "core.journal_records": tracer.calls.get("core.journal", 0),
            "core.journal_bytes": journal_bytes,
            "core.stream_stall_s": (
                align_stage.stall_seconds if align_stage is not None else 0.0
            ),
            "core.queue_depth_mean": (
                align_stage.mean_queue_depth
                if align_stage is not None
                else 0.0
            ),
            "core.early_stop_read_fraction": (
                sum(f.reads_processed for f in rejected)
                / sum(f.reads_total for f in rejected)
                if rejected
                else 0.0
            ),
            "core.unattributed_s": unattributed,
            "core.unattributed_share": unattributed / wall,
        }
    )
    record["layer"] = layer
    record["self_main_s"] = dict(tracer.self_main)
    record["self_other_s"] = dict(tracer.self_other)
    return record


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    *,
    recorded: dict | None = None,
    spans_out=None,
) -> dict:
    """Run one workload; returns the raw record (metrics and trials).

    ``recorded`` holds the expected digests (the default seed's); without
    it the serial sequential reference run is the oracle.  ``spans_out``
    (an open text file) receives every traced trial's spans.
    """
    from repro.align.index import genome_generate
    from repro.align.star import StarAligner, StarParameters
    from repro.core.early_stopping import EarlyStoppingPolicy
    from repro.core.pipeline import (
        BatchOptions,
        PipelineConfig,
        TranscriptomicsAtlasPipeline,
    )
    from repro.reads.sra import SraRepository
    from repro.reads.stream import ThrottledRepository
    from spans import Tracer
    from workloads import (
        ENGINE_WORKERS,
        MIXED_BANDWIDTH_BYTES_PER_S,
        make_inputs,
    )

    inputs = make_inputs(workload, seed, work / "sra")
    rss_after_inputs = peak_rss_mb()
    store = SraRepository(root=inputs.archive_root)
    repository = (
        ThrottledRepository(
            store, bandwidth_bytes_per_s=MIXED_BANDWIDTH_BYTES_PER_S
        )
        if workload.streaming
        else store
    )

    def config(workers: int) -> PipelineConfig:
        # as `python -m repro pipeline` configures it
        return PipelineConfig(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
            workers=workers,
        )

    journals = itertools.count()

    def options_for():
        path = work / f"journal-{next(journals)}.jsonl"
        if workload.streaming:
            return (
                BatchOptions(
                    journal=path, streaming=True, download_chunk_bytes=8192
                ),
                path,
            )
        return BatchOptions(journal=path), path

    def set_up():
        t0 = time.perf_counter()
        index = genome_generate(inputs.assembly, inputs.annotation)
        index.search_context  # noqa: B018 (built lazily on first use otherwise)
        t1 = time.perf_counter()
        aligner = StarAligner(index, StarParameters(progress_every=50))
        pipeline = TranscriptomicsAtlasPipeline(
            repository, aligner, work / "pipeline", config=config(1)
        )
        t2 = time.perf_counter()
        return pipeline, {"setup_s": t2 - t0, "index_build_s": t1 - t0}

    pipeline = reference = engine_pipeline = None
    setups = []
    try:
        for _ in range(SETUP_REPS):
            pipeline = None  # drop the previous set-up before the next
            pipeline, times = set_up()
            setups.append(times)
        aligner = pipeline.aligner

        # the oracle: serial, sequential, unthrottled, unjournaled
        reference = TranscriptomicsAtlasPipeline(
            store, aligner, work / "reference", config=config(1)
        )
        ref_results = reference.run_batch(inputs.accessions, BatchOptions())
        matrix, factors, _ = reference.normalize()
        ref_digests = digests(ref_results, matrix, factors)
        expected = recorded if recorded is not None else ref_digests

        engine_start_s = 0.0
        warmups = []
        plan = [("main", pipeline, False)]
        if trace:
            plan.append(("traced", pipeline, True))
        if workload.engine_trials:
            engine_pipeline = TranscriptomicsAtlasPipeline(
                repository, aligner, work / "engine",
                config=config(ENGINE_WORKERS),
            )
            t0 = time.perf_counter()
            engine_pipeline._get_engine()  # pool + shared-memory publish
            engine_start_s = time.perf_counter() - t0
            # untimed: the workers build their search contexts lazily
            warmups.append(
                _trial(engine_pipeline, inputs.accessions, options_for,
                       inputs.archived_reads)
            )
            plan.append(("engine", engine_pipeline, False))
            if trace:
                plan.append(("engine_traced", engine_pipeline, True))

        trials: dict[str, list] = {kind: [] for kind, _, _ in plan}
        started = time.perf_counter()
        while not (
            time.perf_counter() - started >= seconds
            and min(len(v) for v in trials.values()) >= MIN_TRIALS
        ):
            for kind, target, traced_trial in plan:
                tracer = Tracer() if traced_trial else None
                record = _trial(
                    target,
                    inputs.accessions,
                    options_for,
                    inputs.archived_reads,
                    tracer,
                )
                if tracer is not None and spans_out is not None:
                    tracer.write_jsonl(
                        spans_out, kind=kind, trial=len(trials[kind])
                    )
                trials[kind].append(record)
        peak = peak_rss_mb()
    finally:
        for p in (pipeline, reference, engine_pipeline):
            if p is not None:
                p.close()

    attempted = failed = 0
    matrices_ok = True
    for record in warmups + [r for v in trials.values() for r in v]:
        got = record["digests"]
        attempted += len(inputs.accessions)
        failed += sum(
            got["accessions"].get(acc) != digest
            for acc, digest in expected["accessions"].items()
        )
        matrices_ok &= got["matrix"] == expected["matrix"]
    reference_ok = recorded is None or ref_digests == recorded

    main = trials["main"]
    main_rps = _median([r["reads_per_s"] for r in main])
    engine_rps = _median([r["reads_per_s"] for r in trials.get("engine", [])])
    end_to_end = {
        "reads_per_s": main_rps,
        "core_s_per_mread": _median([r["core_s_per_mread"] for r in main]),
        "setup_s": _median([s["setup_s"] for s in setups]),
        "peak_rss_mb": peak,
        "ok_fraction": 1.0 - failed / attempted,
    }
    engine = {
        "engine.start_s": engine_start_s,
        "engine.engine_reads_per_s": engine_rps,
        "engine.serial_reads_per_s": main_rps if engine_rps else 0.0,
        "engine.speedup": engine_rps / main_rps,
    }
    raw = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "archived_reads": inputs.archived_reads,
        "accessions": inputs.accessions,
        "correct": reference_ok and matrices_ok and failed == 0,
        "reference_matches_recorded": reference_ok,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "engine_vs_serial": engine,
        "rss_after_inputs_mb": rss_after_inputs,
        "setups": setups,
        "warmups": warmups,
        "reference_digests": ref_digests,
        "trials": trials,
    }
    if trace:
        traced = trials["traced"]
        layer = {
            name: _median([r["layer"][name] for r in traced])
            for name in traced[0]["layer"]
        }
        # the engine's parent-side figures come from its own traced trials
        for name in ("engine.run_s", "engine.shards", "engine.redispatched"):
            layer[name] = _median(
                [r["layer"][name] for r in trials.get("engine_traced", [])]
            )
        traced_wall = _median([r["wall_s"] for r in traced])
        untraced_wall = _median([r["wall_s"] for r in main])
        layer.update(engine)
        layer.update(
            {
                "align.index_build_s": _median(
                    [s["index_build_s"] for s in setups]
                ),
                "core.traced_wall_s": traced_wall,
                "core.untraced_wall_s": untraced_wall,
                # each traced trial against the untraced one just before
                # it, so drift in machine speed mostly cancels
                "core.tracing_overhead": _median(
                    [t["wall_s"] / u["wall_s"] for u, t in zip(main, traced)]
                )
                - 1.0,
            }
        )
        raw["per_layer"] = layer
    return raw


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def result_line(raw: dict) -> dict:
    """The result object printed as stdout's last line: every declared
    metric of the chosen kind, with its unit."""
    from metrics import END_TO_END, PER_LAYER

    declared = PER_LAYER if raw["trace"] else END_TO_END
    values = raw["per_layer"] if raw["trace"] else raw["end_to_end"]
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    _put_program_on_path()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="store this seed's reference digests in expected.json "
        "(only meaningful for the default seed)",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    recorded = (
        expected.get(workload.name)
        if args.seed == DEFAULT_SEED and not args.record_expected
        else None
    )
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{stamp}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    raw_dir = RESULTS / "raw" / workload.name
    raw_dir.mkdir(parents=True, exist_ok=True)
    work = RESULTS / "work" / stem
    spans_file = (
        open(raw_dir / f"{stem}.spans.jsonl", "w")
        if args.trace
        else contextlib.nullcontext()
    )
    try:
        with spans_file as spans_out:
            raw = measure(
                workload,
                args.seed,
                args.seconds,
                bool(args.trace),
                work,
                recorded=recorded,
                spans_out=spans_out,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _stop_resource_tracker()
    raw["environment"] = environment()
    raw["argv"] = sys.argv[1:] if argv is None else argv
    (raw_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")

    if args.record_expected:
        expected[workload.name] = raw["reference_digests"]
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")

    line = result_line(raw)
    for name, metric in line["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    ratio = raw["engine_vs_serial"]
    if ratio["engine.speedup"]:
        print(
            "engine/serial reads_per_s = "
            f"{ratio['engine.engine_reads_per_s']:.1f} / "
            f"{ratio['engine.serial_reads_per_s']:.1f} = "
            f"{ratio['engine.speedup']:.3f}"
        )
    print(json.dumps(line))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
