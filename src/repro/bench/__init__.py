"""Benchmark harness and the paper's experiments (Section 4)."""

from .experiments import (
    BenchConfig,
    ablation_count_bound,
    ablation_filter_stage,
    ablation_traversal_variants,
    fig3a_tac_methods,
    fig3b_bufferpool,
    fig4_dimensionality,
    fig5_aknn_tac,
    fig6_aknn_fc,
)
from .harness import MethodRun, format_series, format_table, run_method, run_registered
from .kernels import format_kernel_report, kernel_bench
from .parallel import format_parallel_report, parallel_scaling
from .service import format_service_report, run_service_bench
from .updates import format_update_report, run_update_bench

__all__ = [
    "BenchConfig",
    "MethodRun",
    "run_method",
    "run_registered",
    "format_table",
    "format_series",
    "kernel_bench",
    "format_kernel_report",
    "parallel_scaling",
    "format_parallel_report",
    "run_service_bench",
    "format_service_report",
    "run_update_bench",
    "format_update_report",
    "fig3a_tac_methods",
    "fig3b_bufferpool",
    "fig4_dimensionality",
    "fig5_aknn_tac",
    "fig6_aknn_fc",
    "ablation_traversal_variants",
    "ablation_filter_stage",
    "ablation_count_bound",
]
