"""Experiment drivers: one per paper table/figure."""

from .ablations import (FIG7_VARIANTS, FIG8_VARIANTS, FIG9_VARIANTS,
                        fig7_table, fig8_tables, fig9_tables)
from .comparison import (FIG4_VARIANTS, AlgorithmRun, ComparisonResult,
                         compare_algorithms)
from .harness import DatasetBundle, measure_design, tuned_hybrid_baseline
from .motivating import MotivatingResult, run_motivating_example
from .reporting import format_series, format_table
from .split_count import (SplitCountPoint, SplitCountSweep,
                          run_split_count_sweep)
from .table1 import (HEADERS as TABLE1_HEADERS, DatasetCharacteristics,
                     characterize)

__all__ = [
    "DatasetBundle",
    "measure_design",
    "tuned_hybrid_baseline",
    "run_motivating_example",
    "MotivatingResult",
    "format_table",
    "format_series",
    "characterize",
    "TABLE1_HEADERS",
    "DatasetCharacteristics",
    "compare_algorithms",
    "ComparisonResult",
    "AlgorithmRun",
    "FIG4_VARIANTS",
    "FIG7_VARIANTS",
    "FIG8_VARIANTS",
    "FIG9_VARIANTS",
    "fig7_table",
    "fig8_tables",
    "fig9_tables",
    "run_split_count_sweep",
    "SplitCountSweep",
    "SplitCountPoint",
]
