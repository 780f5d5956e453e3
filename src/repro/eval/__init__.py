"""Evaluation harness reproducing Section VI: the variant Kendall tau,
the simulated user study, and one experiment function per table/figure."""

from .experiments import (
    ExperimentContext,
    GEOHASH_LENGTHS,
    LARGE_RADII,
    MULTI_RADII,
    SMALL_RADII,
    fig5_index_construction_time,
    fig6_index_size,
    fig7_geohash_length,
    fig8_single_keyword,
    fig9_kendall_single,
    fig10_multi_keyword,
    fig11_kendall_multi,
    fig12_specific_bounds,
    fig13_user_study,
    table2_keyword_frequencies,
    table4_geohash_lengths,
)
from .kendall import average_tau, kendall_tau, kendall_tau_classic, padded_ranks
from .plots import bar_chart, line_chart, series_from_rows
from .report import format_table, print_table
from .userstudy import SimulatedUserStudy, StudyConfig

__all__ = [
    "ExperimentContext",
    "GEOHASH_LENGTHS",
    "LARGE_RADII",
    "MULTI_RADII",
    "SMALL_RADII",
    "SimulatedUserStudy",
    "StudyConfig",
    "average_tau",
    "bar_chart",
    "fig5_index_construction_time",
    "fig6_index_size",
    "fig7_geohash_length",
    "fig8_single_keyword",
    "fig9_kendall_single",
    "fig10_multi_keyword",
    "fig11_kendall_multi",
    "fig12_specific_bounds",
    "fig13_user_study",
    "format_table",
    "kendall_tau",
    "line_chart",
    "kendall_tau_classic",
    "padded_ranks",
    "print_table",
    "series_from_rows",
    "table2_keyword_frequencies",
    "table4_geohash_lengths",
]
