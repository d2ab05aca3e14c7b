"""Chaos harnesses: the resilience layer under faults and crashes.

:func:`run_chaos` runs a laptop-scale batch through the *real* four-step
pipeline while a :class:`~repro.core.resilience.FaultPlan` injects
failures — transient prefetch/dump faults that retries absorb, one
permanent failure that becomes a ``FAILED`` result, and (with
``workers > 1``) an engine-worker SIGKILL mid-campaign — then verifies
the central guarantee: every accession that survived produced output
identical to a fault-free serial run, and the batch returned one result
per accession in submission order.  This is the executable form of the
acceptance scenario in the README's "Failure semantics & fault
injection" section; ``python -m repro chaos`` prints its table.

:func:`run_crash` proves crash recovery instead: a forked victim is
SIGKILLed right after its k-th durable journal append, and recovery —
resume, streamed resume, S3 adoption under a fenced lease, or FaaS
scatter adoption (see :data:`CRASH_MODES`) — must reproduce the
uninterrupted run's outcomes and count matrix byte for byte.  Every
append index is a crash point, so tests can enumerate them all
(``python -m repro chaos --crash MODE`` runs one).
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.align.cache import cached_genome_generate
from repro.align.star import StarAligner, StarParameters
from repro.cloud.s3 import S3Bucket, S3Service
from repro.core.early_stopping import EarlyStoppingPolicy
from repro.core.journal import RunJournal
from repro.core.pipeline import (
    BatchOptions,
    PipelineConfig,
    PipelineResult,
    RunStatus,
    TranscriptomicsAtlasPipeline,
)
from repro.core.replication import (
    BatchLease,
    FencedOut,
    LeaseHeld,
    ReplicatedJournal,
    reconstruct_journal,
)
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.genome.ensembl import EnsemblRelease, build_release_assembly
from repro.genome.synth import GenomeUniverseSpec, make_universe
from repro.quant.matrix import CountMatrix
from repro.reads.library import LibraryType, SampleProfile
from repro.reads.simulator import ReadSimulator
from repro.reads.sra import SraArchive, SraRepository
from repro.util.rng import derive_rng, ensure_rng
from repro.util.tables import Table


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of one chaos run."""

    n_accessions: int = 12
    n_reads: int = 120
    read_length: int = 80
    #: alignment worker processes (>1 also exercises engine recovery)
    workers: int = 2
    #: accessions run concurrently through ``run_batch``
    max_parallel: int = 4
    seed: int = 0
    #: fault plan text (``step:key:kind[*times]``, comma-separated);
    #: None → the default scripted scenario built by :func:`default_plan`
    fault_plan_text: str | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.05
        )
    )
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")

    @property
    def accessions(self) -> list[str]:
        return [f"SRR9100{i:03d}" for i in range(1, self.n_accessions + 1)]


def default_plan(accessions: list[str], *, workers: int) -> FaultPlan:
    """The canonical scripted scenario over a batch of accessions.

    Two transient prefetch faults on one accession (recovered by the
    third attempt), one transient fasterq-dump fault on another, one
    *permanent* prefetch failure (the batch's single FAILED result), and
    — when the engine is on — a worker SIGKILL right before a
    mid-campaign alignment.
    """
    text = (
        f"prefetch:{accessions[1]}:transient*2,"
        f"fasterq_dump:{accessions[3]}:transient*1,"
        f"prefetch:{accessions[-2]}:permanent"
    )
    if workers > 1:
        text += f",engine_worker:{accessions[5]}:transient*1"
    return FaultPlan.parse(text)


@dataclass
class ChaosResult:
    """Everything the chaos run observed."""

    results: list[PipelineResult]
    reference: list[PipelineResult]
    summary: dict[str, int]
    retries_by_step: dict[str, int]
    plan_description: str
    faults_injected: dict[str, int]
    #: submission order preserved in the returned result list
    order_preserved: bool
    #: every non-FAILED result identical to the fault-free serial run
    outputs_identical: bool

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if r.status is RunStatus.FAILED)

    @property
    def passed(self) -> bool:
        return self.order_preserved and self.outputs_identical

    def to_table(self) -> str:
        table = Table(
            ["accession", "status", "retries", "failed step", "mapped %"],
            title="Chaos run — scripted faults vs fault-free reference",
        )
        for r in self.results:
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    r.retries,
                    r.failure.step if r.failure is not None else "-",
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"plan: {self.plan_description}",
            f"faults injected: {self.faults_injected}",
            f"retries by step: {self.retries_by_step}",
            f"summary: {self.summary}",
            f"order preserved: {self.order_preserved}  "
            f"outputs identical to fault-free serial run: "
            f"{self.outputs_identical}",
        ]
        return "\n".join(lines)


def _comparable(result: PipelineResult) -> tuple:
    """The output surface that must be identical across execution modes,
    live or replayed from a journal: everything but wall-clock timings
    and what the journal does not keep (per-read outcomes and the full
    ``GeneCounts`` object — the count column is ``result.counts``)."""
    final = result.star_result.final if result.star_result else None
    return (
        result.accession,
        result.status,
        result.counts,
        result.paired,
        None
        if final is None
        else (
            final.reads_processed,
            final.mapped_unique,
            final.mapped_multi,
            final.unmapped,
            final.aborted,
        ),
    )


def run_chaos(spec: ChaosSpec | None = None) -> ChaosResult:
    """Execute the chaos scenario and validate the resilience guarantees."""
    spec = spec or ChaosSpec()
    rng = ensure_rng(spec.seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    index = cached_genome_generate(
        assembly, universe.annotation, cache_dir=spec.cache_dir
    )
    aligner = StarAligner(index, StarParameters(progress_every=50))
    simulator = ReadSimulator(assembly, universe.annotation)

    accessions = spec.accessions
    repo = SraRepository()
    for i, acc in enumerate(accessions):
        # one single-cell library in the mix so the early-stopping path
        # (REJECTED_EARLY) is exercised alongside the fault paths
        library = (
            LibraryType.SINGLE_CELL_3P if i == 0 else LibraryType.BULK_POLYA
        )
        sample = simulator.simulate(
            SampleProfile(
                library=library,
                n_reads=spec.n_reads,
                read_length=spec.read_length,
            ),
            rng=900 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, library, sample.records))

    plan = (
        FaultPlan.parse(spec.fault_plan_text)
        if spec.fault_plan_text is not None
        else default_plan(accessions, workers=spec.workers)
    )

    def make_config(**overrides) -> PipelineConfig:
        base = dict(
            early_stopping=EarlyStoppingPolicy(min_reads=20),
            write_outputs=False,
            retry=spec.retry,
        )
        base.update(overrides)
        return PipelineConfig(**base)

    with TemporaryDirectory(prefix="chaos-") as tmp:
        tmp_path = Path(tmp)
        with TranscriptomicsAtlasPipeline(
            repo,
            aligner,
            tmp_path / "faulted",
            config=make_config(workers=spec.workers, fault_plan=plan),
        ) as pipeline:
            results = pipeline.run_batch(
                accessions, BatchOptions(max_parallel=spec.max_parallel)
            )
            # the engine pool must stay usable after worker kills: run one
            # more accession through the same pipeline before closing
            post = pipeline.run_accession(accessions[0])
            summary = pipeline.summary()
            retries_by_step = pipeline.retries_by_step()

        reference_pipeline = TranscriptomicsAtlasPipeline(
            repo, aligner, tmp_path / "reference", config=make_config()
        )
        reference = reference_pipeline.run_batch(accessions)

    order_preserved = [r.accession for r in results] == accessions
    outputs_identical = all(
        _comparable(r) == _comparable(ref)
        for r, ref in zip(results, reference)
        if r.status is not RunStatus.FAILED
    ) and _comparable(post) == _comparable(reference[0])

    return ChaosResult(
        results=results,
        reference=reference,
        summary=summary,
        retries_by_step=retries_by_step,
        plan_description=plan.describe(),
        faults_injected=plan.injected,
        order_preserved=order_preserved,
        outputs_identical=outputs_identical,
    )


def build_demo_inputs(
    n_accessions: int,
    *,
    n_reads: int = 100,
    read_length: int = 80,
    seed: int = 0,
    prefix: str = "SRR9300",
    cache_dir: Path | None = None,
) -> tuple[StarAligner, SraRepository, list[str]]:
    """Deterministic laptop-scale aligner + SRA repository.

    Shared by ``python -m repro pipeline`` and tests that need a real
    four-step pipeline without inventing their own synthetic corpus.
    ``cache_dir`` makes repeated builds (e.g. one crash reference per
    mode) mmap-load one cached index.
    """
    rng = ensure_rng(seed)
    universe = make_universe(GenomeUniverseSpec(), rng)
    assembly = build_release_assembly(
        universe, EnsemblRelease.R111, rng=derive_rng(rng, "assembly")
    )
    index = cached_genome_generate(
        assembly, universe.annotation, cache_dir=cache_dir
    )
    aligner = StarAligner(index, StarParameters(progress_every=50))
    simulator = ReadSimulator(assembly, universe.annotation)
    accessions = [f"{prefix}{i:03d}" for i in range(1, n_accessions + 1)]
    repo = SraRepository()
    for i, acc in enumerate(accessions):
        sample = simulator.simulate(
            SampleProfile(
                library=LibraryType.BULK_POLYA,
                n_reads=n_reads,
                read_length=read_length,
            ),
            rng=2400 + i,
            read_id_prefix=acc,
        )
        repo.deposit(SraArchive(acc, LibraryType.BULK_POLYA, sample.records))
    return aligner, repo, accessions


# --------------------------------------------------------------------------
# crash at the k-th journal append → recover
# --------------------------------------------------------------------------

#: reads per alignment shard in every crash mode (the shard-checkpoint
#: granularity of ``s3`` and ``faas``)
_ALIGN_BATCH_SIZE = 64
#: the victim's lease TTL in ``s3`` mode: the adopter must wait it out
_LEASE_TTL = 0.1
#: function crashes armed on the ``faas`` adopter; its retries absorb them
_FUNCTION_FAILURES = 2
_S3_BUCKET = "atlas-journal"
_S3_PREFIX = "batch"
_LEASE_KEY = f"{_S3_PREFIX}/lease"


@dataclass(frozen=True)
class _Mode:
    """The execution shape one crash mode runs victim and recovery in."""

    workers: int = 1
    streaming: bool = False
    backend: str | None = None
    shard_checkpoints: bool = False
    #: journal mirrored to S3; recovery adopts it on a fresh "instance"
    replicated: bool = False


_MODES = {
    "local": _Mode(),
    "stream": _Mode(streaming=True, shard_checkpoints=True),
    "s3": _Mode(workers=2, shard_checkpoints=True, replicated=True),
    "faas": _Mode(backend="faas", shard_checkpoints=True),
}

#: the recovery paths :func:`run_crash` exercises
CRASH_MODES = tuple(_MODES)


@dataclass(frozen=True)
class CrashSpec:
    """One crash point: which recovery path, and after which append."""

    #: one of :data:`CRASH_MODES`
    mode: str = "local"
    #: SIGKILL the victim right after this many durable journal appends;
    #: None → the middle record of the second accession in the reference
    #: journal (the first accession has committed, the second is mid-way)
    crash_after: int | None = None
    n_accessions: int = 3
    n_reads: int = 300
    seed: int = 0
    #: route index construction through an IndexCache rooted here
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"mode must be one of {CRASH_MODES}, got {self.mode!r}"
            )
        if self.n_accessions < 2:
            raise ValueError("n_accessions must be >= 2")
        if self.crash_after is not None and self.crash_after < 1:
            raise ValueError("crash_after must be >= 1")


@dataclass
class CrashReference:
    """The uninterrupted, journaled run every crash point is compared to.

    Built once per spec by :func:`crash_reference`; passing it to
    :func:`run_crash` for each crash point means enumerating points
    re-runs only the victim and the recovery.
    """

    #: the spec it was built for, with ``crash_after=None``
    spec: CrashSpec
    aligner: StarAligner
    repo: SraRepository
    accessions: list[str]
    results: list[PipelineResult]
    matrix: CountMatrix
    #: the accession of each journal append, in order (None: batch-start)
    appended: list[str | None]

    @property
    def appends(self) -> int:
        """Journal appends of the whole batch: the crash points."""
        return len(self.appended)

    @property
    def default_crash_after(self) -> int:
        """The middle append among the second accession's records."""
        second = [
            i
            for i, acc in enumerate(self.appended, start=1)
            if acc == self.accessions[1]
        ]
        return second[len(second) // 2]


@dataclass
class CrashResult:
    """Everything one crash-and-recover run observed."""

    mode: str
    #: the victim died right after this journal append (1-based)
    crash_after: int
    #: appends the uninterrupted reference journal made
    appends: int
    accessions: list[str]
    results: list[PipelineResult]
    reference: list[PipelineResult]
    #: accessions with a terminal record in the post-crash journal
    completed_before_crash: list[str]
    #: accessions started but not terminal in the post-crash journal
    in_flight: list[str]
    #: accessions recovery replayed from the journal / re-executed
    replayed: list[str]
    reexecuted: list[str]
    #: ``align.shard`` records of non-terminal accessions in the
    #: post-crash journal
    shards_journaled: int
    #: shards recovery merged from those checkpoints / re-aligned
    shards_replayed: int
    shards_realigned: int
    #: per-accession outcomes identical to the uninterrupted reference
    outputs_identical: bool
    #: count matrix identical to the uninterrupted reference
    matrix_identical: bool
    #: ``s3`` only: the adopter's fencing token (the victim held 1)
    adopter_token: int | None = None
    #: ``s3`` only: the dead victim's late publish raised FencedOut
    stale_publish_rejected: bool | None = None
    #: ``faas`` only: armed function crashes the adopter's retries absorbed
    function_kills_absorbed: int | None = None

    @property
    def replay_exact(self) -> bool:
        """Recovery replayed exactly the accessions committed before the
        crash (and so re-executed exactly the rest)."""
        return sorted(self.replayed) == self.completed_before_crash

    @property
    def passed(self) -> bool:
        return (
            self.outputs_identical
            and self.matrix_identical
            and self.replay_exact
            and self.shards_replayed == self.shards_journaled
            and (self.adopter_token is None or self.adopter_token > 1)
            and self.stale_publish_rejected is not False
        )

    def to_table(self) -> str:
        table = Table(
            ["accession", "status", "source", "mapped %"],
            title=f"Crash chaos ({self.mode}) — SIGKILL after journal "
            f"append {self.crash_after} of {self.appends}, then recovery",
        )
        for r in self.results:
            table.add_row(
                [
                    r.accession,
                    r.status.value,
                    "journal" if r.resumed else "re-run",
                    f"{100 * r.mapped_fraction:.1f}"
                    if r.status is not RunStatus.FAILED
                    else "-",
                ]
            )
        lines = [
            table.render(),
            f"completed before crash: {self.completed_before_crash}  "
            f"in flight: {self.in_flight}",
            f"shards: {self.shards_replayed} replayed of "
            f"{self.shards_journaled} journaled, {self.shards_realigned} "
            "re-aligned",
        ]
        if self.adopter_token is not None:
            lines.append(
                f"adopter fencing token: {self.adopter_token}; stale "
                f"holder's publish rejected: {self.stale_publish_rejected}"
            )
        if self.function_kills_absorbed is not None:
            lines.append(
                "function crashes absorbed on adoption: "
                f"{self.function_kills_absorbed}"
            )
        lines.append(
            f"replay exact: {self.replay_exact}  outputs identical: "
            f"{self.outputs_identical}  count matrix identical: "
            f"{self.matrix_identical}"
        )
        return "\n".join(lines)


def _pipeline(
    mode: _Mode, aligner: StarAligner, repo: SraRepository, work: Path
) -> TranscriptomicsAtlasPipeline:
    return TranscriptomicsAtlasPipeline(
        repo,
        aligner,
        work,
        config=PipelineConfig(
            workers=mode.workers,
            align_batch_size=_ALIGN_BATCH_SIZE,
            write_outputs=False,
        ),
    )


def _options(
    mode: _Mode,
    journal: RunJournal,
    *,
    resume: bool = False,
    streaming: bool = False,
) -> BatchOptions:
    return BatchOptions(
        journal=journal,
        resume=resume,
        streaming=streaming,
        backend=mode.backend,
        shard_checkpoints=mode.shard_checkpoints,
    )


def _same_matrix(a: CountMatrix, b: CountMatrix) -> bool:
    return (
        a.gene_ids == b.gene_ids
        and a.sample_ids == b.sample_ids
        and bool((a.counts == b.counts).all())
    )


def crash_reference(spec: CrashSpec) -> CrashReference:
    """Build the inputs and run the batch once, uninterrupted and
    journaled, in the mode's execution shape — sequential even for
    ``stream``, so the streamed recovery is checked against it."""
    spec = replace(spec, crash_after=None)
    mode = _MODES[spec.mode]
    aligner, repo, accessions = build_demo_inputs(
        spec.n_accessions,
        n_reads=spec.n_reads,
        seed=spec.seed,
        prefix="SRR9200",
        cache_dir=spec.cache_dir,
    )
    with TemporaryDirectory(prefix="crash-reference-") as tmp:
        tmp_path = Path(tmp)
        with RunJournal(tmp_path / "journal.jsonl") as journal:
            with _pipeline(mode, aligner, repo, tmp_path) as pipeline:
                results = pipeline.run_batch(accessions, _options(mode, journal))
                matrix = pipeline.build_count_matrix()
        appended = [
            json.loads(line).get("acc")
            for line in journal.path.read_text(encoding="utf-8").splitlines()
        ]
    return CrashReference(
        spec, aligner, repo, accessions, results, matrix, appended
    )


def _crash_victim(
    pipeline: TranscriptomicsAtlasPipeline,
    accessions: list[str],
    options: BatchOptions,
    crash_after: int,
) -> None:
    """Run the batch in a forked victim that dies by SIGKILL — engine
    pool first, then itself — right after its ``crash_after``-th durable
    (and, for a replicated journal, replicated) journal append."""
    journal = options.journal
    pid = os.fork()
    if pid == 0:
        # os._exit keeps the parent's atexit/pytest machinery from running
        # twice
        code = 1
        try:
            after_append = journal._after_append

            def crash_at_k(line: str, record: dict) -> None:
                after_append(line, record)
                if journal.appends == crash_after:
                    engine = pipeline._engine
                    if engine is not None:
                        for worker in engine.worker_pids():
                            os.kill(worker, signal.SIGKILL)
                    os.kill(os.getpid(), signal.SIGKILL)

            journal._after_append = crash_at_k
            pipeline.run_batch(accessions, options)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if not (os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL):
        made = RunJournal(journal.path).replay().n_records
        raise RuntimeError(
            f"victim exited (wait status {status}) after {made} journal "
            f"appends without reaching append {crash_after}"
        )


def _adopt_lease(bucket: S3Bucket) -> BatchLease:
    """Take the dead victim's lease by succession once it has expired —
    the harness's one wait."""
    while True:
        try:
            return BatchLease.acquire(
                bucket, _LEASE_KEY, "adopter", now=time.time(), ttl=60.0
            )
        except LeaseHeld as held:
            time.sleep(max(0.0, held.expires_at - time.time()))


def _stale_publish_rejected(
    bucket: S3Bucket, results_bucket: S3Bucket
) -> bool:
    """The victim wakes up holding fencing token 1 and tries to publish."""
    stale = BatchLease(bucket, _LEASE_KEY, "victim", 1, 0.0)
    try:
        stale.publish(results_bucket, "late/result", 1.0, now=time.time())
    except FencedOut:
        return True
    return False


def run_crash(
    spec: CrashSpec, reference: CrashReference | None = None
) -> CrashResult:
    """Crash a journaled batch at an exact journal append, recover it,
    and compare with the uninterrupted reference.

    A forked victim runs the batch in the mode's execution shape and is
    SIGKILLed right after its ``crash_after``-th journal append (see
    :func:`_crash_victim`), so the crash point is a deterministic append
    index.  Recovery then differs by mode:

    * ``local`` — resume from the victim's journal;
    * ``stream`` — the same, with victim and recovery streaming and
      shard checkpoints (the reference runs sequentially, so every
      streamed shard append is checked against a sequential one);
    * ``s3`` — the victim is an instance with a 2-worker engine, shard
      checkpoints, a journal replicated to S3 and a batch lease.  A fresh
      instance waits for the lease to expire, adopts with a bumped
      fencing token, rebuilds the journal from S3 and resumes; the
      victim's late publish must raise :class:`FencedOut`;
    * ``faas`` — serverless scatter-gather with shard checkpoints; the
      adopter resumes with function crashes armed that its retries must
      absorb.

    ``reference`` (from :func:`crash_reference`, built when None) must
    match ``spec`` up to ``crash_after``.
    """
    if reference is None:
        reference = crash_reference(spec)
    elif reference.spec != replace(spec, crash_after=None):
        raise ValueError("reference was built for a different spec")
    mode = _MODES[spec.mode]
    crash_after = (
        spec.crash_after
        if spec.crash_after is not None
        else reference.default_crash_after
    )
    accessions = reference.accessions
    adopter_token = stale_rejected = function_kills = None
    with TemporaryDirectory(prefix=f"crash-{spec.mode}-") as tmp:
        tmp_path = Path(tmp)
        journal_path = tmp_path / "victim" / "journal.jsonl"
        if mode.replicated:
            bucket = S3Service(root=tmp_path / "s3").create_bucket(_S3_BUCKET)
            BatchLease.acquire(
                bucket, _LEASE_KEY, "victim", now=time.time(), ttl=_LEASE_TTL
            )
            victim_journal = ReplicatedJournal(journal_path, bucket, _S3_PREFIX)
        else:
            victim_journal = RunJournal(journal_path)
        _crash_victim(
            _pipeline(mode, reference.aligner, reference.repo, tmp_path / "victim"),
            accessions,
            _options(mode, victim_journal, streaming=mode.streaming),
            crash_after,
        )

        journal = RunJournal(journal_path)
        if mode.replicated:
            # a fresh instance: a new handle on the durable S3 root and
            # none of the victim's local files
            bucket = S3Service(root=tmp_path / "s3").create_bucket(_S3_BUCKET)
            lease = _adopt_lease(bucket)
            journal_path = tmp_path / "adopter" / "journal.jsonl"
            reconstruct_journal(bucket, _S3_PREFIX, journal_path)
            journal = ReplicatedJournal(journal_path, bucket, _S3_PREFIX)
        post_crash = journal.replay()
        if post_crash.n_records != crash_after:
            raise RuntimeError(
                f"post-crash journal holds {post_crash.n_records} records, "
                f"not the {crash_after} appended before the SIGKILL"
            )

        adopter = _pipeline(
            mode, reference.aligner, reference.repo, tmp_path / "adopter"
        )
        with journal, adopter:
            if mode.backend == "faas":
                faas = adopter._get_faas_backend()
                faas.function.fail_next(_FUNCTION_FAILURES)
            results = adopter.run_batch(
                accessions,
                _options(mode, journal, resume=True, streaming=mode.streaming),
            )
            matrix = adopter.build_count_matrix()
            shards = adopter.shard_checkpoint_summary()
            if mode.backend == "faas":
                function_kills = faas.crash_retries

        if mode.replicated:
            results_bucket = S3Service(root=tmp_path / "s3").create_bucket(
                "atlas-results"
            )
            stale_rejected = _stale_publish_rejected(bucket, results_bucket)
            # ... while the adopter's live token still publishes
            lease.publish(results_bucket, "adopted/result", 1.0, now=time.time())
            lease.release(now=time.time())
            adopter_token = lease.token

    return CrashResult(
        mode=spec.mode,
        crash_after=crash_after,
        appends=reference.appends,
        accessions=accessions,
        results=results,
        reference=reference.results,
        completed_before_crash=sorted(post_crash.terminal),
        in_flight=post_crash.in_flight,
        replayed=[r.accession for r in results if r.resumed],
        reexecuted=[r.accession for r in results if not r.resumed],
        shards_journaled=sum(
            len(shards_of)
            for acc, shards_of in post_crash.align_shards.items()
            if acc not in post_crash.terminal
        ),
        shards_replayed=shards["hits"],
        shards_realigned=shards["recorded"],
        outputs_identical=len(results) == len(reference.results)
        and all(
            _comparable(r) == _comparable(ref)
            for r, ref in zip(results, reference.results)
        ),
        matrix_identical=_same_matrix(matrix, reference.matrix),
        adopter_token=adopter_token,
        stale_publish_rejected=stale_rejected,
        function_kills_absorbed=function_kills,
    )
