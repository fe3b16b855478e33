"""XML-to-relational mapping layer: mappings, transformations, shredding,
schema derivation, and statistics derivation."""

from .mapper import derive_schema
from .model import Mapping, UnionDistribution
from .presets import (PRESETS, fully_inlined, fully_split, hybrid_inlining,
                      shared_inlining)
from .relschema import (BranchCondition, ColumnSpec, LeafStorage,
                        MappedSchema, PartitionSpec, PresenceCondition,
                        TableGroup)
from .shredder import (DEFAULT_BATCH_SIZE, Shredder, load_documents,
                       shred_typed_batches, shred_typed_rows)
from .stats import (CollectedStats, StatsDeriver, collect_statistics,
                    derive_table_stats)
from .transforms import (Associativity, Commutativity, Inline, Outline,
                         RepetitionMerge, RepetitionSplit, Transformation,
                         TypeMerge, TypeSplit, UnionDistribute,
                         UnionFactorize, count_transformations,
                         enumerate_transformations)

__all__ = [
    "Mapping",
    "UnionDistribution",
    "derive_schema",
    "MappedSchema",
    "TableGroup",
    "PartitionSpec",
    "ColumnSpec",
    "LeafStorage",
    "BranchCondition",
    "PresenceCondition",
    "PRESETS",
    "hybrid_inlining",
    "fully_inlined",
    "shared_inlining",
    "fully_split",
    "Shredder",
    "DEFAULT_BATCH_SIZE",
    "load_documents",
    "shred_typed_batches",
    "shred_typed_rows",
    "collect_statistics",
    "CollectedStats",
    "StatsDeriver",
    "derive_table_stats",
    "Transformation",
    "Outline",
    "Inline",
    "TypeSplit",
    "TypeMerge",
    "UnionDistribute",
    "UnionFactorize",
    "RepetitionSplit",
    "RepetitionMerge",
    "Associativity",
    "Commutativity",
    "enumerate_transformations",
    "count_transformations",
]
