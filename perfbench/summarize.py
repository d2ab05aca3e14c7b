"""Summarize raw benchmark records into medians and quartiles.

    python3 perfbench/summarize.py [--raw perfbench/results/raw] [--out DIR]

Step two of three: ``run.py`` writes one raw JSON record per run; this
script reads every record under ``--raw`` and writes ``summary.json`` and
``summary.csv`` (one row per workload and metric: runs, median, first and
third quartile, IQR as a share of the median, min, max).  Numbers quoted
in docs should be regenerated from these files, never retyped.

End-to-end metrics come from ``--trace 0`` runs only; per-layer metrics
from ``--trace 1`` runs.  The summary also carries the engine's
pay-or-delete ratio — engine over serial ``reads_per_s`` from the
interleaved trials of every run that made them — with both bases, and
marks metrics no claim may rest on.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import BY_NAME  # noqa: E402


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR share as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else None,
        "min": min(values),
        "max": max(values),
    }


def load(raw_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(raw_dir.rglob("*.json"))]


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict] = {}
    for rec in records:
        key = "per_layer" if rec["trace"] else "end_to_end"
        metrics = by_workload.setdefault(rec["workload"], {})
        for name, value in rec.get(key, {}).items():
            metrics.setdefault(name, []).append(value)
    workloads = {
        workload: {
            name: {
                **spread(values),
                "unit": BY_NAME[name].unit,
                "claimable": BY_NAME[name].claimable,
            }
            for name, values in sorted(metrics.items())
        }
        for workload, metrics in sorted(by_workload.items())
    }
    engine_runs = [
        rec["engine_vs_serial"]
        for rec in records
        if rec["engine_vs_serial"]["engine.speedup"]
    ]
    engine = None
    if engine_runs:
        engine = {
            name: spread([run[name] for run in engine_runs])
            for name in engine_runs[0]
        }
    envs = {json.dumps(rec.get("environment"), sort_keys=True) for rec in records}
    return {
        "workloads": workloads,
        "engine_over_serial": engine,
        "correct_runs": sum(rec["correct"] for rec in records),
        "runs": len(records),
        "environments": [json.loads(e) for e in sorted(envs)],
    }


def write_csv(summary: dict, path: Path) -> None:
    fields = ["workload", "metric", "unit", "runs", "median", "q1", "q3",
              "iqr_share", "min", "max", "claimable"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for workload, metrics in summary["workloads"].items():
            for name, row in metrics.items():
                writer.writerow(
                    {"workload": workload, "metric": name,
                     **{k: row[k] for k in fields[2:]}}
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--raw", type=Path, default=HERE / "results" / "raw")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    records = load(args.raw)
    if not records:
        print(f"no raw records under {args.raw}", file=sys.stderr)
        return 1
    summary = summarize(records)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    write_csv(summary, args.out / "summary.csv")
    for workload, metrics in summary["workloads"].items():
        print(workload)
        for name, row in metrics.items():
            iqr = row["iqr_share"]
            print(
                f"  {name:32s} {row['median']:>14.6g} {row['unit']:9s} "
                f"n={row['runs']:<3d} iqr/median="
                + ("-" if iqr is None else f"{iqr:.3f}")
                + ("" if row["claimable"] else "  (not claimable)")
            )
    engine = summary["engine_over_serial"]
    if engine is not None:
        print(
            "engine / serial reads_per_s (medians over runs) = "
            f"{engine['engine.engine_reads_per_s']['median']:.1f} / "
            f"{engine['engine.serial_reads_per_s']['median']:.1f}; "
            f"median ratio {engine['engine.speedup']['median']:.3f} "
            f"over {engine['engine.speedup']['runs']} runs"
        )
    print(f"wrote {args.out / 'summary.json'} and summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
