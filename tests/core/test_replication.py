"""Distributed-durability unit tests: segment replication, journal
reconstruction on a fresh instance, lease/fencing semantics, and the
shard-checkpoint payload codecs."""

import json

import pytest

from repro.align.counts import GeneCountsPartial
from repro.align.star import AlignmentStatus, ReadAlignment
from repro.cloud.s3 import S3Bucket
from repro.core.journal import RunJournal
from repro.core.replication import (
    BatchLease,
    FencedOut,
    LeaseHeld,
    ReplicaCorrupt,
    ReplicatedJournal,
    SegmentReplicator,
    ShardCheckpointer,
    _encode_outcome,
    decode_shard_payload,
    encode_shard_payload,
    reconstruct_journal,
)
from repro.genome.annotation import Strand
from repro.genome.model import SequenceRegion


@pytest.fixture
def bucket():
    return S3Bucket("journal")


def replicated(tmp_path, bucket, **kwargs):
    return ReplicatedJournal(
        tmp_path / "run.jsonl", bucket, "batch", **kwargs
    )


class TestSegmentReplicator:
    def test_plain_appends_land_in_tail(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket)
        j.record_started("a")
        j.record_step_done("a", "prefetch")
        tail = bucket.get("batch/tail").payload
        assert tail == j.path.read_text()
        assert bucket.keys("batch/seg/") == []

    def test_critical_record_seals_a_segment(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket)
        j.record_started("a")
        j.record_completed("a", {"status": "accepted"})
        segs = bucket.keys("batch/seg/")
        assert len(segs) == 1
        assert bucket.get(segs[0]).payload == j.path.read_text()
        assert bucket.get("batch/tail").payload == ""
        manifest = bucket.get("batch/manifest").payload
        assert manifest["segments"] == segs

    def test_buffer_threshold_seals(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket, segment_records=3)
        for step in ("s1", "s2", "s3", "s4"):
            j.record_step_done("a", step)
        assert len(bucket.keys("batch/seg/")) == 1
        # the fourth line is back in the tail
        assert "s4" in bucket.get("batch/tail").payload

    def test_attach_promotes_an_inherited_tail(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket)
        j.record_started("a")  # dies with this line only in the tail
        successor = SegmentReplicator(bucket, "batch")
        assert bucket.get("batch/tail").payload == ""
        segs = bucket.keys("batch/seg/")
        assert len(segs) == 1
        assert "started" in bucket.get(segs[0]).payload
        assert successor.segments_sealed == 1

    def test_segment_keys_are_content_addressed(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket)
        j.record_completed("a", {"status": "accepted"})
        (key,) = bucket.keys("batch/seg/")
        import hashlib

        text = bucket.get(key).payload
        assert key.endswith(
            hashlib.sha256(text.encode()).hexdigest()[:16]
        )


class TestReconstruct:
    def test_byte_identical_including_pending_tail(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket, segment_records=2)
        j.record_batch_start(["a", "b"], "f" * 16)
        j.record_started("a")
        j.record_completed("a", {"status": "accepted"})
        j.record_started("b")  # stays in the tail
        dest = tmp_path / "fresh" / "run.jsonl"
        reconstruct_journal(bucket, "batch", dest)
        assert dest.read_text() == j.path.read_text()

    def test_replays_identically_to_local_with_torn_tail(
        self, tmp_path, bucket
    ):
        j = replicated(tmp_path, bucket)
        j.record_batch_start(["a"], "f" * 16)
        j.record_completed("a", {"status": "accepted"})
        # the crash tore the local file's last line mid-write; the S3
        # replica only ever sees whole fsync'd lines
        with open(j.path, "a") as fh:
            fh.write('{"t": "started", "acc"')
        local = RunJournal(j.path).replay()
        assert local.torn_tail
        remote = reconstruct_journal(
            bucket, "batch", tmp_path / "b" / "run.jsonl"
        ).replay()
        assert not remote.torn_tail
        assert remote.terminal.keys() == local.terminal.keys()
        assert remote.n_records == local.n_records

    def test_segment_missing_from_manifest_still_included(
        self, tmp_path, bucket
    ):
        j = replicated(tmp_path, bucket)
        j.record_completed("a", {"status": "accepted"})
        j.record_completed("b", {"status": "accepted"})
        # simulate the crash window between a segment put and its
        # manifest update: roll the manifest back to one segment
        segs = bucket.keys("batch/seg/")
        bucket.put(
            "batch/manifest",
            1,
            now=0.0,
            payload={"segments": segs[:1], "sealed": 1},
        )
        dest = tmp_path / "b" / "run.jsonl"
        reconstruct_journal(bucket, "batch", dest)
        assert dest.read_text() == j.path.read_text()

    def test_tampered_segment_raises(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket)
        j.record_completed("a", {"status": "accepted"})
        (key,) = bucket.keys("batch/seg/")
        bucket.put(key, 1, now=0.0, payload='{"t":"forged"}\n')
        with pytest.raises(ReplicaCorrupt):
            reconstruct_journal(bucket, "batch", tmp_path / "b.jsonl")

    def test_empty_prefix_yields_empty_journal(self, tmp_path, bucket):
        dest = tmp_path / "run.jsonl"
        replay = reconstruct_journal(bucket, "batch", dest).replay()
        assert replay.n_records == 0


class TestBatchLease:
    def test_create_then_held(self, bucket):
        BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=10.0)
        with pytest.raises(LeaseHeld):
            BatchLease.acquire(bucket, "lease", "b", now=5.0, ttl=10.0)

    def test_succession_bumps_the_fencing_token(self, bucket):
        first = BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=10.0)
        second = BatchLease.acquire(bucket, "lease", "b", now=11.0, ttl=10.0)
        assert (first.token, second.token) == (1, 2)

    def test_stale_holder_publish_is_fenced(self, bucket):
        stale = BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=10.0)
        BatchLease.acquire(bucket, "lease", "b", now=11.0, ttl=10.0)
        results = S3Bucket("results")
        with pytest.raises(FencedOut):
            stale.publish(results, "a/result", 1.0, now=12.0)
        assert "a/result" not in results

    def test_stale_holder_cannot_renew(self, bucket):
        stale = BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=10.0)
        BatchLease.acquire(bucket, "lease", "b", now=11.0, ttl=10.0)
        with pytest.raises(FencedOut):
            stale.renew(now=12.0, ttl=10.0)

    def test_live_holder_publishes_and_renews(self, bucket):
        lease = BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=10.0)
        lease.renew(now=5.0, ttl=10.0)
        results = S3Bucket("results")
        lease.publish(results, "a/result", 1.0, now=6.0, payload="ok")
        assert results.get("a/result").payload == "ok"

    def test_release_keeps_the_token_monotonic(self, bucket):
        lease = BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=100.0)
        lease.release(now=1.0)
        # no TTL wait needed after a clean release, and the token moved on
        successor = BatchLease.acquire(bucket, "lease", "b", now=2.0, ttl=10.0)
        assert successor.token == 2
        assert "lease" in bucket  # released, not deleted

    def test_same_holder_reacquires_its_own_live_lease(self, bucket):
        BatchLease.acquire(bucket, "lease", "a", now=0.0, ttl=100.0)
        again = BatchLease.acquire(bucket, "lease", "a", now=1.0, ttl=100.0)
        assert again.token == 2  # restart of the same instance re-fences


def make_outcomes():
    return [
        ReadAlignment(
            read_id="r1",
            status=AlignmentStatus.UNIQUE,
            strand=Strand.FORWARD,
            score=57,
            n_loci=1,
            mismatches=1,
            blocks=(
                SequenceRegion("chr1", 100, 140),
                SequenceRegion("chr1", 500, 540),
            ),
            spliced=True,
        ),
        ReadAlignment(
            read_id="r2",
            status=AlignmentStatus.UNMAPPED,
            strand=None,
            score=0,
            n_loci=0,
            mismatches=0,
            blocks=(),
            spliced=False,
        ),
    ]


def make_seed_stats():
    return {
        "queries": 10,
        "batch_queries": 2,
        "table_hits": 7,
        "table_fallbacks": 3,
        "binary_steps_saved": 21,
        "extend_steps": 40,
        "lce_skips": 5,
        "fallback_depths": {2: 1, 5: 2},
    }


class TestShardCodecs:
    def test_round_trip_is_exact(self):
        outcomes = make_outcomes()
        partial = GeneCountsPartial(
            n_unmapped=1,
            n_multimapping=0,
            n_no_feature={"unstranded": 2},
            n_ambiguous={"unstranded": 0},
            gene_counts={"g1": {"unstranded": 3}},
        )
        stats = make_seed_stats()
        payload = encode_shard_payload(outcomes, partial, stats)
        out2, partial2, stats2 = decode_shard_payload(payload)
        assert out2 == outcomes
        assert partial2 == partial
        assert stats2 == stats

    def test_round_trip_survives_json(self):
        """The payload rides inside a journal line, so it must survive an
        actual JSON encode/decode — including int dict keys."""
        payload = encode_shard_payload(make_outcomes(), None, make_seed_stats())
        revived = json.loads(json.dumps(payload))
        out2, partial2, stats2 = decode_shard_payload(revived)
        assert out2 == make_outcomes()
        assert partial2 is None
        assert stats2["fallback_depths"] == {2: 1, 5: 2}
        assert all(
            isinstance(k, int) for k in stats2["fallback_depths"]
        )


    def test_single_end_payload_is_version_2_columns(self):
        payload = encode_shard_payload(make_outcomes(), None, make_seed_stats())
        assert payload["v"] == 2 and "o" not in payload
        assert payload["c"]["ids"] == ["r1", "r2"]

    def test_version_1_payload_still_decodes(self):
        """Journals written before the columns hold one encoded list per
        read under ``"o"``; they decode to the same outcomes."""
        payload = encode_shard_payload([], None, make_seed_stats())
        del payload["v"], payload["c"]
        payload["o"] = [_encode_outcome(o) for o in make_outcomes()]
        outcomes, _, stats = decode_shard_payload(json.loads(json.dumps(payload)))
        assert outcomes == make_outcomes()
        assert stats == make_seed_stats()


class TestShardCheckpointer:
    def test_record_then_replay_then_load(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        ckpt = ShardCheckpointer(journal, "SRR1", "fp1")
        outcomes, stats = make_outcomes(), make_seed_stats()
        ckpt.record(0, 64, outcomes, None, stats)
        assert ckpt.recorded == 1

        replay = journal.replay()
        cached = replay.align_shards["SRR1"]
        fresh = ShardCheckpointer(journal, "SRR1", "fp1", cached)
        loaded = fresh.load(0, 64)
        assert loaded is not None
        assert loaded[0] == outcomes
        assert loaded[2] == stats
        assert fresh.hits == 1

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        ShardCheckpointer(journal, "SRR1", "fp1").record(
            0, 64, make_outcomes(), None, make_seed_stats()
        )
        cached = journal.replay().align_shards["SRR1"]
        other = ShardCheckpointer(journal, "SRR1", "DIFFERENT", cached)
        assert other.load(0, 64) is None
        assert other.hits == 0

    def test_bounds_mismatch_is_a_miss(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        ckpt = ShardCheckpointer(journal, "SRR1", "fp1")
        ckpt.record(0, 64, make_outcomes(), None, make_seed_stats())
        assert ckpt.load(0, 32) is None

    def test_duplicate_record_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        ckpt = ShardCheckpointer(journal, "SRR1", "fp1")
        ckpt.record(0, 64, make_outcomes(), None, make_seed_stats())
        ckpt.record(0, 64, make_outcomes(), None, make_seed_stats())
        assert ckpt.recorded == 1
        assert journal.appends == 1


class TestJournalInterchange:
    """The interchange guarantee end to end: a journal written with
    replication on, reconstructed on a "fresh instance" from S3 alone,
    replays identically to the local file — align.shard records and all."""

    def test_full_interchange(self, tmp_path, bucket):
        j = replicated(tmp_path, bucket, segment_records=4)
        j.record_batch_start(["SRR1", "SRR2"], "f" * 16)
        j.record_started("SRR1")
        j.record_step_done("SRR1", "prefetch")
        ckpt = ShardCheckpointer(j, "SRR1", "f" * 16)
        ckpt.record(0, 64, make_outcomes(), None, make_seed_stats())
        j.record_completed("SRR1", {"status": "accepted"})
        j.record_started("SRR2")

        dest = tmp_path / "fresh" / "run.jsonl"
        fresh = reconstruct_journal(bucket, "batch", dest)
        assert dest.read_text() == j.path.read_text()

        local, remote = j.replay(), fresh.replay()
        assert remote.terminal.keys() == local.terminal.keys()
        assert remote.align_shards.keys() == local.align_shards.keys()
        assert (
            remote.align_shards["SRR1"][(0, 64)]
            == local.align_shards["SRR1"][(0, 64)]
        )
        # and the reconstructed journal's checkpoints decode to the same
        # engine tuples the dead instance produced
        cached = remote.align_shards["SRR1"]
        loaded = ShardCheckpointer(fresh, "SRR1", "f" * 16, cached).load(0, 64)
        assert loaded is not None and loaded[0] == make_outcomes()
