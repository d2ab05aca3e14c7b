"""Distributed durability: S3-replicated journal, leases, shard checkpoints.

The journal (:mod:`repro.core.journal`) makes a batch survive *process*
death, but it lives on the instance's own disk — lose the instance and
the journal goes with it.  The paper's HTC setting runs fleets of spot
instances where the unit of failure is the instance, so this module
lifts durability one level up, onto the simulated S3 service
(:mod:`repro.cloud.s3`):

* :class:`SegmentReplicator` / :class:`ReplicatedJournal` — every
  fsync'd journal line is mirrored to S3 *before the append returns*
  (fsync-ordered).  Lines accumulate in a mutable ``tail`` object and
  are periodically sealed into immutable, content-addressed segment
  objects (``seg/NNNNNN-<sha256[:16]>``) tracked by a ``manifest``;
  critical records (terminals, shard checkpoints) seal eagerly so the
  cheap-to-list segment set always covers the important history.

* :func:`reconstruct_journal` — a *different* instance rebuilds the
  byte-exact journal from segments + tail and resumes the batch.
  Segment hashes are verified against their keys on the way down
  (:class:`ReplicaCorrupt` on mismatch).

* :class:`BatchLease` — adoption guard.  A lease object in S3 carries a
  monotonically increasing **fencing token**; creation uses a
  conditional put (``if_none_match="*"``) so two would-be adopters
  cannot both win, and every publish re-checks the token so a stale
  holder that wakes up after its lease expired gets :class:`FencedOut`
  instead of clobbering the adopter's results.  Tokens never reset:
  release marks the lease expired but keeps the counter.

* :class:`ShardCheckpointer` + the ``align.shard`` record — partial-
  batch recovery inside the align step.  Completed read shards are
  journaled with their serialized outcomes, keyed by accession + shard
  bounds + config fingerprint; on resume the shard runner
  (:func:`repro.align.runner.run_shards`) executes only unfinished shards
  and merges checkpointed outcomes byte-identically, so rework after
  instance loss is bounded by the shards in flight rather than a whole
  accession — on every backend.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.align.counts import GeneCountsPartial
from repro.align.outcome import AlignmentColumns
from repro.align.paired import PairedOutcome, PairStatus
from repro.align.star import AlignmentStatus, ReadAlignment
from repro.cloud.s3 import PreconditionFailed, S3Bucket
from repro.core.journal import RunJournal
from repro.genome.annotation import Strand
from repro.genome.model import SequenceRegion

__all__ = [
    "BatchLease",
    "FencedOut",
    "LeaseHeld",
    "ReplicaCorrupt",
    "ReplicatedJournal",
    "SegmentReplicator",
    "ShardCheckpointer",
    "decode_shard_payload",
    "encode_shard_payload",
    "reconstruct_journal",
]

#: record types sealed into a segment immediately (see module docstring)
CRITICAL_RECORD_TYPES = frozenset({"completed", "failed", "align.shard"})

#: default number of buffered lines that forces a segment seal
DEFAULT_SEGMENT_RECORDS = 64


class ReplicaCorrupt(RuntimeError):
    """A replicated segment's content does not match its content address."""


class LeaseHeld(RuntimeError):
    """The batch lease is held by a live holder; adoption must wait."""

    def __init__(self, holder: str, token: int, expires_at: float) -> None:
        self.holder = holder
        self.token = token
        self.expires_at = expires_at
        super().__init__(
            f"lease held by {holder!r} (token {token}) until {expires_at:.3f}"
        )


class FencedOut(RuntimeError):
    """This holder's fencing token is stale: another instance adopted.

    Raised on publish/renew by a holder whose lease expired and was
    taken over — its late writes must not reach the results bucket.
    """

    def __init__(self, holder: str, token: int, current_token: int) -> None:
        self.holder = holder
        self.token = token
        self.current_token = current_token
        super().__init__(
            f"holder {holder!r} token {token} fenced out by token "
            f"{current_token}"
        )


# --------------------------------------------------------------------------
# segment replication
# --------------------------------------------------------------------------


def _segment_key(prefix: str, seq: int, data: bytes) -> str:
    digest = hashlib.sha256(data).hexdigest()[:16]
    return f"{prefix}/seg/{seq:06d}-{digest}"


class SegmentReplicator:
    """Mirrors journal lines to S3 with per-append durability.

    Every observed line lands in S3 before :meth:`observe` returns:
    either inside a freshly sealed immutable segment, or in the mutable
    ``tail`` object that is overwritten on each non-sealing append.
    Attaching to a prefix with an existing tail seals it first, so a
    resuming instance never overwrites lines it did not buffer itself.
    """

    def __init__(
        self,
        bucket: S3Bucket,
        prefix: str,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.bucket = bucket
        self.prefix = prefix.rstrip("/")
        self.segment_records = segment_records
        self.clock = clock
        self._buffer: list[str] = []
        self.segments_sealed = 0
        self.tail_writes = 0
        existing = bucket.keys(f"{self.prefix}/seg/")
        self._next_seq = len(existing)
        tail = bucket.head(self.tail_key)
        if tail is not None and tail.payload:
            # lines a previous holder buffered but never sealed; they are
            # part of the durable history, so promote them to a segment
            # before this holder starts overwriting the tail
            self._seal(str(tail.payload))

    @property
    def tail_key(self) -> str:
        return f"{self.prefix}/tail"

    @property
    def manifest_key(self) -> str:
        return f"{self.prefix}/manifest"

    def observe(self, line: str, record: dict[str, Any]) -> None:
        """Replicate one just-fsync'd journal line (called under the
        journal's append lock, so ordering matches the file)."""
        self._buffer.append(line)
        if (
            record.get("t") in CRITICAL_RECORD_TYPES
            or len(self._buffer) >= self.segment_records
        ):
            self._seal("".join(self._buffer))
            self._buffer.clear()
        else:
            self._put_tail("".join(self._buffer))

    def flush(self) -> None:
        """Seal any buffered lines (e.g. before releasing the lease)."""
        if self._buffer:
            self._seal("".join(self._buffer))
            self._buffer.clear()

    def _seal(self, text: str) -> None:
        data = text.encode("utf-8")
        now = self.clock()
        key = _segment_key(self.prefix, self._next_seq, data)
        self.bucket.put(key, len(data), now=now, payload=text)
        self._next_seq += 1
        self.segments_sealed += 1
        manifest = {
            "segments": self.bucket.keys(f"{self.prefix}/seg/"),
            "sealed": self._next_seq,
        }
        blob = json.dumps(manifest)
        self.bucket.put(self.manifest_key, len(blob), now=now, payload=manifest)
        self._put_tail("")

    def _put_tail(self, text: str) -> None:
        # the tail is overwritten on every non-sealing append; a torn
        # durable write just means the successor loses unsealed lines it
        # could not rely on anyway, so skip the atomic-rename cost
        self.bucket.put(
            self.tail_key,
            len(text.encode("utf-8")),
            now=self.clock(),
            payload=text,
            atomic=False,
        )
        self.tail_writes += 1

    def drop_prefix(self) -> int:
        """Delete every replica object under this prefix; returns the count.

        The garbage-collection path for a batch that reached terminal
        state: segments accumulate per batch prefix forever otherwise.
        The tail and manifest go too — a later :func:`reconstruct_journal`
        of the dropped prefix yields an empty journal, which is correct
        (there is nothing left to adopt).  Unsealed buffered lines are
        discarded, so only call this once the batch outcome is durable
        elsewhere (the local journal and the results store).
        """
        self._buffer.clear()
        dropped = 0
        for key in self.bucket.keys(f"{self.prefix}/seg/"):
            dropped += int(self.bucket.delete(key))
        dropped += int(self.bucket.delete(self.tail_key))
        dropped += int(self.bucket.delete(self.manifest_key))
        self._next_seq = 0
        return dropped


class ReplicatedJournal(RunJournal):
    """A :class:`RunJournal` whose appends are mirrored to S3.

    The local file stays the fast path (replay reads it directly); the
    S3 copy exists so a *different* instance can reconstruct it after
    this one dies.  Replication happens in :meth:`_after_append`, i.e.
    after the local fsync and before the append returns.
    """

    def __init__(
        self,
        path: Path | str,
        bucket: S3Bucket,
        prefix: str,
        *,
        fsync: bool = True,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(path, fsync=fsync)
        self.replicator = SegmentReplicator(
            bucket, prefix, segment_records=segment_records, clock=clock
        )

    def _after_append(self, line: str, record: dict[str, Any]) -> None:
        self.replicator.observe(line, record)

    def close(self) -> None:
        self.replicator.flush()
        super().close()

    def collect_garbage(self) -> int:
        """Drop this batch's S3 replica (segments, tail, manifest).

        Called by the pipeline once every accession in the batch has a
        terminal record: nothing is left for another instance to adopt,
        and the local journal file (which is *not* touched) remains the
        durable record of what happened.  Returns the number of replica
        objects deleted.
        """
        return self.replicator.drop_prefix()


def reconstruct_journal(
    bucket: S3Bucket, prefix: str, dest: Path | str
) -> RunJournal:
    """Rebuild a journal file from its S3 replica, on a fresh instance.

    Concatenates the manifest's segments (plus any sealed after the
    manifest's last write — the crash window between a segment put and
    its manifest update) and the tail, verifying each segment against
    its content address.  The result replays identically to the dead
    instance's local file.
    """
    prefix = prefix.rstrip("/")
    manifest_obj = bucket.head(f"{prefix}/manifest")
    listed = bucket.keys(f"{prefix}/seg/")
    if manifest_obj is not None and manifest_obj.payload:
        keys = list(manifest_obj.payload["segments"])
        keys.extend(k for k in listed if k not in set(keys))
    else:
        keys = listed
    parts: list[str] = []
    for key in keys:
        text = bucket.get(key).payload or ""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        if not key.endswith(digest):
            raise ReplicaCorrupt(
                f"segment {key} content hashes to {digest}; replica is "
                "damaged"
            )
        parts.append(text)
    tail = bucket.head(f"{prefix}/tail")
    if tail is not None and tail.payload:
        parts.append(str(tail.payload))
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("".join(parts), encoding="utf-8")
    return RunJournal(dest)


# --------------------------------------------------------------------------
# lease + fencing
# --------------------------------------------------------------------------


@dataclass
class BatchLease:
    """A held (or once-held) lease on a batch's journal prefix.

    ``token`` is this holder's fencing token.  All mutations re-read the
    lease object and compare tokens first, so operations by a holder
    that lost the lease raise :class:`FencedOut` instead of going
    through.
    """

    bucket: S3Bucket
    key: str
    holder: str
    token: int
    expires_at: float

    # -- acquisition -------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        bucket: S3Bucket,
        key: str,
        holder: str,
        *,
        now: float,
        ttl: float,
    ) -> "BatchLease":
        """Take the lease, by creation or by succession.

        Creation uses a conditional put so concurrent first-comers
        serialize on S3; succession (the previous lease expired or was
        released) bumps the fencing token.  A live foreign holder means
        :class:`LeaseHeld`.
        """
        payload = {
            "holder": holder,
            "token": 1,
            "acquired_at": now,
            "expires_at": now + ttl,
        }
        blob = json.dumps(payload)
        try:
            bucket.put(
                key, len(blob), now=now, payload=payload, if_none_match="*"
            )
            return cls(bucket, key, holder, 1, now + ttl)
        except PreconditionFailed:
            pass
        current = bucket.get(key).payload
        if current["expires_at"] > now and current["holder"] != holder:
            raise LeaseHeld(
                current["holder"], current["token"], current["expires_at"]
            )
        token = current["token"] + 1
        payload = {
            "holder": holder,
            "token": token,
            "acquired_at": now,
            "expires_at": now + ttl,
        }
        bucket.put(key, len(json.dumps(payload)), now=now, payload=payload)
        return cls(bucket, key, holder, token, now + ttl)

    # -- token checks ------------------------------------------------------

    def verify(self) -> None:
        """Raise :class:`FencedOut` unless this token is still current."""
        current = self.bucket.get(self.key).payload
        if current["token"] != self.token:
            raise FencedOut(self.holder, self.token, current["token"])

    def renew(self, *, now: float, ttl: float) -> None:
        """Extend the lease (heartbeat); fenced holders cannot renew."""
        self.verify()
        self.expires_at = now + ttl
        payload = {
            "holder": self.holder,
            "token": self.token,
            "acquired_at": now,
            "expires_at": self.expires_at,
        }
        self.bucket.put(
            self.key, len(json.dumps(payload)), now=now, payload=payload
        )

    def release(self, *, now: float) -> None:
        """Give the lease up cleanly.

        The object is overwritten as expired rather than deleted so the
        fencing token survives for the next holder — deleting would let
        tokens restart at 1 and un-fence a stale writer.
        """
        self.verify()
        payload = {
            "holder": self.holder,
            "token": self.token,
            "acquired_at": now,
            "expires_at": now,
        }
        self.bucket.put(
            self.key, len(json.dumps(payload)), now=now, payload=payload
        )

    def publish(
        self,
        results_bucket: S3Bucket,
        key: str,
        size_bytes: float,
        *,
        now: float,
        payload: Any = None,
    ) -> None:
        """Token-checked result publish: the write path fencing guards.

        A stale holder (its lease adopted by another instance) raises
        :class:`FencedOut` here and its result never lands.
        """
        self.verify()
        results_bucket.put(key, size_bytes, now=now, payload=payload)


# --------------------------------------------------------------------------
# shard payload codecs
# --------------------------------------------------------------------------


def _encode_outcome(o: ReadAlignment) -> list:
    return [
        o.read_id,
        o.status.value,
        o.strand.value if o.strand is not None else None,
        o.score,
        o.n_loci,
        o.mismatches,
        [[b.contig, b.start, b.end] for b in o.blocks],
        o.spliced,
    ]


def _decode_outcome(v: list) -> ReadAlignment:
    read_id, status, strand, score, n_loci, mismatches, blocks, spliced = v
    return ReadAlignment(
        read_id=read_id,
        status=AlignmentStatus(status),
        strand=Strand(strand) if strand is not None else None,
        score=score,
        n_loci=n_loci,
        mismatches=mismatches,
        blocks=tuple(SequenceRegion(c, s, e) for c, s, e in blocks),
        spliced=spliced,
    )


def _encode_columns(c: AlignmentColumns) -> dict:
    """Every field of the columns by name, as JSON lists."""
    encoded = {}
    for f in fields(c):
        value = getattr(c, f.name)
        encoded[f.name] = (
            value.tolist() if isinstance(value, np.ndarray) else list(value)
        )
    return encoded


def _encode_partial(p: GeneCountsPartial | None) -> dict | None:
    if p is None:
        return None
    return {
        "nu": p.n_unmapped,
        "nm": p.n_multimapping,
        "nf": dict(p.n_no_feature),
        "na": dict(p.n_ambiguous),
        "gc": {g: dict(cols) for g, cols in p.gene_counts.items()},
    }


def _decode_partial(v: dict | None) -> GeneCountsPartial | None:
    if v is None:
        return None
    return GeneCountsPartial(
        n_unmapped=v["nu"],
        n_multimapping=v["nm"],
        n_no_feature=dict(v["nf"]),
        n_ambiguous=dict(v["na"]),
        gene_counts={g: dict(cols) for g, cols in v["gc"].items()},
    )


def _encode_pair(o: PairedOutcome) -> list:
    return [
        o.pair_id,
        o.status.value,
        _encode_outcome(o.mate1),
        _encode_outcome(o.mate2),
        o.template_length,
    ]


def _decode_pair(v: list) -> PairedOutcome:
    pair_id, status, mate1, mate2, template_length = v
    return PairedOutcome(
        pair_id=pair_id,
        status=PairStatus(status),
        mate1=_decode_outcome(mate1),
        mate2=_decode_outcome(mate2),
        template_length=template_length,
    )


def encode_shard_payload(
    outcomes: AlignmentColumns | list,
    partial: GeneCountsPartial | None,
    seed_stats: dict,
) -> dict:
    """JSON-safe form of one worker batch result (the ``shard`` field of
    an ``align.shard`` record).

    Accepts both library layouts: single-end outcomes
    (:class:`AlignmentColumns`, or a :class:`ReadAlignment` list) land
    as version-2 columns under ``"c"``, paired :class:`PairedOutcome`
    lists under ``"po"`` — so a paired checkpoint can never be mistaken
    for a single-end one on replay.
    """
    stats = dict(seed_stats)
    # JSON stringifies int dict keys; keep them explicit so decode is exact
    stats["fallback_depths"] = {
        str(d): c for d, c in seed_stats["fallback_depths"].items()
    }
    payload: dict[str, Any] = {
        "gc": _encode_partial(partial),
        "ss": stats,
    }
    if not isinstance(outcomes, AlignmentColumns):
        if outcomes and isinstance(outcomes[0], PairedOutcome):
            payload["po"] = [_encode_pair(o) for o in outcomes]
            return payload
        outcomes = AlignmentColumns.from_records(outcomes)
    payload["v"] = 2
    payload["c"] = _encode_columns(outcomes)
    return payload


def decode_shard_payload(
    payload: dict,
) -> tuple[AlignmentColumns | list, GeneCountsPartial | None, dict]:
    """Inverse of :func:`encode_shard_payload`: yields the exact tuple the
    pure per-shard function would have returned.

    Single-end payloads decode to :class:`AlignmentColumns` whatever
    their version: version 2 carries columns, version 1 (no ``"v"``)
    one encoded :class:`ReadAlignment` list per read under ``"o"``.
    """
    stats = dict(payload["ss"])
    stats["fallback_depths"] = {
        int(d): c for d, c in stats["fallback_depths"].items()
    }
    if "po" in payload:
        outcomes = [_decode_pair(v) for v in payload["po"]]
    elif payload.get("v") == 2:
        outcomes = AlignmentColumns(**payload["c"])
    else:
        outcomes = AlignmentColumns.from_records(
            _decode_outcome(v) for v in payload["o"]
        )
    return (
        outcomes,
        _decode_partial(payload["gc"]),
        stats,
    )


# --------------------------------------------------------------------------
# shard checkpointing
# --------------------------------------------------------------------------


class ShardCheckpointer:
    """The shard runner's window onto journal shard checkpoints for one
    accession.

    ``cached`` holds the ``align.shard`` records a resume replayed
    (``JournalReplay.align_shards[accession]``); :meth:`load` serves a
    shard from it only when the bounds match exactly *and* the config
    fingerprint agrees — anything else is a miss and the shard re-runs,
    which is always safe (checkpoints are an optimization, never a
    correctness dependency).
    """

    def __init__(
        self,
        journal: RunJournal,
        accession: str,
        fingerprint: str,
        cached: dict[tuple[int, int], dict[str, Any]] | None = None,
    ) -> None:
        self.journal = journal
        self.accession = accession
        self.fingerprint = fingerprint
        # kept by reference: the pipeline shares one dict across retry
        # attempts, so shards a failed attempt journaled are replayed by
        # the next attempt without re-reading the file
        self._cached = cached if cached is not None else {}
        #: shards served from the journal instead of re-aligned
        self.hits = 0
        #: shards checkpointed by this run
        self.recorded = 0

    def load(
        self, start: int, end: int
    ) -> tuple[AlignmentColumns | list, GeneCountsPartial | None, dict] | None:
        record = self._cached.get((start, end))
        if record is None or record.get("fp") != self.fingerprint:
            return None
        self.hits += 1
        return decode_shard_payload(record["shard"])

    def record(
        self,
        start: int,
        end: int,
        outcomes: AlignmentColumns | list,
        partial: GeneCountsPartial | None,
        seed_stats: dict,
    ) -> None:
        if (start, end) in self._cached:
            return  # already durable; re-journaling it would only bloat
        payload = encode_shard_payload(outcomes, partial, seed_stats)
        self.journal.record_align_shard(
            self.accession, start, end, self.fingerprint, payload
        )
        self._cached[(start, end)] = {"fp": self.fingerprint, "shard": payload}
        self.recorded += 1
