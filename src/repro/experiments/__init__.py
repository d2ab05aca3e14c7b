"""Experiment harnesses: one module per paper figure/table plus ablations.

Each harness produces a result object with a ``to_table()``/``to_text()``
rendering of the same rows/series the paper reports; the benches in
``benchmarks/`` call these and assert the shape claims from DESIGN.md §6.
"""

from repro.experiments.ablation import AblationResult, run_ablation
from repro.experiments.architecture import ArchitectureResult, run_architecture_sweep
from repro.experiments.chaos import (
    ChaosResult,
    ChaosSpec,
    CrashResult,
    CrashSpec,
    run_chaos,
    run_crash,
)
from repro.experiments.config_table import ConfigTableResult, run_config_table
from repro.experiments.corpus import CorpusSpec, generate_corpus
from repro.experiments.diagrams import architecture_diagram, pipeline_diagram
from repro.experiments.export import (
    atlas_report_to_dict,
    fig3_to_dict,
    fig4_to_dict,
    write_json,
)
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.full_atlas import FullAtlasResult, run_full_atlas
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.mini_fig3 import MiniFig3Result, run_mini_fig3
from repro.experiments.pseudo_comparison import (
    PseudoComparisonResult,
    run_pseudo_comparison,
    run_transferability,
)
from repro.experiments.reporting import ReportScale, generate_report
from repro.experiments.scaling_study import ScalingStudyResult, run_scaling_study

__all__ = [
    "AblationResult",
    "ArchitectureResult",
    "ChaosResult",
    "ChaosSpec",
    "ConfigTableResult",
    "CorpusSpec",
    "CrashResult",
    "CrashSpec",
    "Fig3Result",
    "Fig4Result",
    "FullAtlasResult",
    "MiniFig3Result",
    "PseudoComparisonResult",
    "ReportScale",
    "ScalingStudyResult",
    "architecture_diagram",
    "atlas_report_to_dict",
    "fig3_to_dict",
    "fig4_to_dict",
    "generate_corpus",
    "generate_report",
    "pipeline_diagram",
    "run_ablation",
    "run_architecture_sweep",
    "run_chaos",
    "run_config_table",
    "run_crash",
    "run_fig3",
    "run_fig4",
    "run_full_atlas",
    "run_mini_fig3",
    "run_pseudo_comparison",
    "run_scaling_study",
    "run_transferability",
    "write_json",
]
