"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench -q

Runs every workload at toy size through the same ``measure`` code the
benchmark uses, traced and untraced, and checks that: every metric
printed is declared in ``BENCHMARK.json`` (and every declared one is
printed); the traced trials' wrappers are gone before any untraced trial
starts; a digest mismatch counts against the run; and the benchmark
refuses to run where the program's source is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import summarize  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from repro.genome.synth import GenomeUniverseSpec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_UNIVERSE = GenomeUniverseSpec(
    n_chromosomes=2, chromosome_length=20_000, genes_per_chromosome=12
)


def toy(name: str):
    """The named workload, shrunk to a few hundred reads."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        name=f"toy_{name}",
        universe=(
            TOY_UNIVERSE if name == "genes_600" else workload.universe
        ),
        accessions=tuple(
            dataclasses.replace(a, n_reads=120 if a.paired else 240)
            for a in workload.accessions
        ),
    )


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metric_registry():
    spec = declared()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_run_prints_declared_metrics_and_unwraps(name, tmp_path, monkeypatch):
    pristine = spans.entry_points()
    real_trial = run._trial
    order = []

    def checked_trial(*args, **kwargs):
        tracer = args[4] if len(args) > 4 else kwargs.get("tracer")
        if tracer is None:
            now = spans.entry_points()
            leaked = [k for k in pristine if now[k] is not pristine[k]]
            assert not leaked, f"wrappers still installed: {leaked}"
        order.append(tracer is not None)
        return real_trial(*args, **kwargs)

    monkeypatch.setattr(run, "_trial", checked_trial)
    raw = run.measure(toy(name), 3, 0.0, True, tmp_path)

    assert raw["correct"], raw
    assert raw["failed"] == 0 and raw["attempted"] > 0
    # an untraced trial ran after a traced one, so the check above bit
    assert True in order and False in order[order.index(True):]

    spec = declared()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line({**raw, "trace": trace})
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert set(line["metrics"]) == set(units)
        for metric_name, metric in line["metrics"].items():
            assert metric["unit"] == units[metric_name]
            assert isinstance(metric["value"], (int, float))
    assert line["metrics"]["core.traced_wall_s"]["value"] > 0
    assert raw["end_to_end"]["reads_per_s"] > 0
    if WORKLOADS[name].engine_trials:
        assert line["metrics"]["engine.speedup"]["value"] > 0
        assert line["metrics"]["engine.shards"]["value"] > 0

    summary = summarize.summarize([{**raw, "trace": False}, raw])
    rows = summary["workloads"][raw["workload"]]
    assert set(rows) == {m.name for m in END_TO_END + PER_LAYER}
    assert (summary["engine_over_serial"] is not None) == (
        WORKLOADS[name].engine_trials
    )


def test_digest_mismatch_counts_as_failed(tmp_path):
    workload = toy("bulk_seq")
    good = run.measure(workload, 5, 0.0, False, tmp_path / "good")
    recorded = json.loads(json.dumps(good["reference_digests"]))
    victim = sorted(recorded["accessions"])[0]
    recorded["accessions"][victim] = "0" * 16
    bad = run.measure(
        workload, 5, 0.0, False, tmp_path / "bad", recorded=recorded
    )
    assert not bad["correct"]
    assert not bad["reference_matches_recorded"]
    # one wrong accession per checked trial
    assert bad["failed"] == bad["attempted"] // len(recorded["accessions"])
    assert bad["end_to_end"]["ok_fraction"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_seq",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
