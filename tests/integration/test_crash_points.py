"""Crash-point enumeration, executable: a journaled batch SIGKILLed right
after its k-th durable journal append must recover to the uninterrupted
run's per-accession outcomes and count matrix, byte for byte, on every
recovery path — resume, streamed resume from shard checkpoints, S3
adoption under a fenced lease, and FaaS scatter adoption.  Every append index is a crash point;
the engine-backed ``s3`` and the ``faas`` paths run a seeded sample.

The default point (mid-way through the second accession) carries the
per-mode guarantees: whole-accession replay, bounded shard rework,
fencing, and absorbed function crashes."""

import random
from dataclasses import replace

import pytest

from repro.core.pipeline import RunStatus
from repro.experiments import chaos
from repro.experiments.chaos import (
    CRASH_MODES,
    CrashSpec,
    crash_reference,
    run_crash,
)

#: crash points run on the paths where one point costs an engine start
#: or a FaaS adoption
SAMPLED_POINTS = 5
#: reads per accession: three 64-read shards, so shard checkpoints give
#: crash points inside the align step while every point stays cheap
N_READS = 150


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("crash-index")


@pytest.fixture(scope="module")
def reference(cache_dir):
    """One uninterrupted reference run per mode, built on first use."""
    built = {}

    def get(mode):
        if mode not in built:
            built[mode] = crash_reference(
                CrashSpec(mode=mode, n_reads=N_READS, cache_dir=cache_dir)
            )
        return built[mode]

    return get


@pytest.fixture(scope="module")
def default_crash(reference):
    """The default crash point per mode, run on first use."""
    ran = {}

    def get(mode):
        if mode not in ran:
            ref = reference(mode)
            ran[mode] = run_crash(ref.spec, ref)
        return ran[mode]

    return get


@pytest.fixture(params=CRASH_MODES)
def crash(request, default_crash):
    return default_crash(request.param)


def assert_recovers(ref, points):
    """Crash at each point; every recovery must pass (byte-identical
    outcomes and count matrix, exact replay, shard bound, fencing)."""
    failed = [
        k
        for k in points
        if not run_crash(replace(ref.spec, crash_after=k), ref).passed
    ]
    assert failed == [], f"{ref.spec.mode}: no exact recovery at {failed}"


class TestDefaultCrashPoint:
    def test_guarantees_hold(self, crash):
        assert crash.passed
        assert crash.outputs_identical
        assert crash.matrix_identical

    def test_crashed_mid_second_accession(self, crash):
        victim = crash.accessions[1]
        assert len(crash.completed_before_crash) >= 1
        assert victim not in crash.completed_before_crash
        assert crash.in_flight == [victim]

    def test_reruns_only_non_completed(self, crash):
        assert crash.replay_exact
        assert sorted(crash.replayed) == crash.completed_before_crash
        assert set(crash.reexecuted).isdisjoint(crash.completed_before_crash)
        assert sorted(crash.replayed + crash.reexecuted) == sorted(
            crash.accessions
        )

    def test_one_result_per_accession_in_order(self, crash):
        assert [r.accession for r in crash.results] == crash.accessions
        assert all(r.status is not RunStatus.FAILED for r in crash.results)

    def test_replayed_results_flagged(self, crash):
        for r in crash.results:
            assert r.resumed == (r.accession in crash.completed_before_crash)

    def test_mode_only_fields(self, crash):
        assert (crash.adopter_token is None) == (crash.mode != "s3")
        assert (crash.stale_publish_rejected is None) == (crash.mode != "s3")
        assert (crash.function_kills_absorbed is None) == (
            crash.mode != "faas"
        )


class TestShardAdoption:
    @pytest.fixture(params=["stream", "s3", "faas"])
    def adopted(self, request, default_crash):
        return default_crash(request.param)

    def test_rework_bounded_to_unfinished_shards(self, adopted):
        assert adopted.shards_replayed >= 1
        assert adopted.shards_replayed == adopted.shards_journaled
        total = adopted.shards_replayed + adopted.shards_realigned
        assert adopted.shards_realigned < total

    def test_adoption_used_a_bumped_fencing_token(self, default_crash):
        assert default_crash("s3").adopter_token > 1

    def test_stale_holder_fenced_out(self, default_crash):
        assert default_crash("s3").stale_publish_rejected is True

    def test_function_kills_absorbed_by_retries(self, default_crash):
        assert default_crash("faas").function_kills_absorbed == 2


class TestEveryCrashPoint:
    @pytest.mark.parametrize("mode", ["local", "stream"])
    def test_every_append_recovers(self, mode, reference):
        ref = reference(mode)
        assert_recovers(ref, range(1, ref.appends + 1))

    def test_every_append_recovers_serial_s3(self, monkeypatch, cache_dir):
        monkeypatch.setitem(
            chaos._MODES, "s3", replace(chaos._MODES["s3"], workers=1)
        )
        ref = crash_reference(
            CrashSpec(mode="s3", n_reads=N_READS, cache_dir=cache_dir)
        )
        assert_recovers(ref, range(1, ref.appends + 1))

    @pytest.mark.parametrize("mode", ["s3", "faas"])
    def test_sampled_appends_recover(self, mode, reference):
        ref = reference(mode)
        points = random.Random(0).sample(
            range(1, ref.appends + 1), SAMPLED_POINTS
        )
        assert_recovers(ref, sorted(points))

    def test_victim_outliving_the_crash_point_is_an_error(self, reference):
        ref = reference("local")
        k = ref.appends + 1
        with pytest.raises(
            RuntimeError,
            match=rf"after {ref.appends} journal appends without reaching "
            rf"append {k}",
        ):
            run_crash(replace(ref.spec, crash_after=k), ref)
