"""Experiment drivers: one per paper table/figure."""

from .ablations import (Fig7Row, Fig8Row, Fig9Row, fig7_table, fig8_tables,
                        fig9_tables, run_fig7, run_fig8, run_fig9)
from .comparison import (ALGORITHMS, AlgorithmRun, ComparisonResult,
                         compare_algorithms)
from .harness import (DatasetBundle, measure_design, measure_workload,
                      realize, tuned_hybrid_baseline)
from .motivating import MotivatingResult, run_motivating_example
from .reporting import format_series, format_table
from .split_count import (SplitCountPoint, SplitCountSweep,
                          run_split_count_sweep)
from .table1 import (HEADERS as TABLE1_HEADERS, DatasetCharacteristics,
                     characterize, run_table1)

__all__ = [
    "DatasetBundle",
    "realize",
    "measure_workload",
    "measure_design",
    "tuned_hybrid_baseline",
    "run_motivating_example",
    "MotivatingResult",
    "format_table",
    "format_series",
    "characterize",
    "run_table1",
    "TABLE1_HEADERS",
    "DatasetCharacteristics",
    "compare_algorithms",
    "ComparisonResult",
    "AlgorithmRun",
    "ALGORITHMS",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "fig7_table",
    "fig8_tables",
    "fig9_tables",
    "Fig7Row",
    "Fig8Row",
    "Fig9Row",
    "run_split_count_sweep",
    "SplitCountSweep",
    "SplitCountPoint",
]
