"""Table 1 — characteristics of the data sets.

Reports, per data set: element counts, shredded data size, the number of
applicable transformations (total and non-subsumed), and the counts of
unions (explicit choices + optional elements), repetitions, and shared
types — the schema features the non-subsumed transformations exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import Database
from ..mapping import (count_transformations, derive_schema, hybrid_inlining,
                       load_documents)
from ..xsd import NodeKind
from .harness import DatasetBundle


@dataclass
class DatasetCharacteristics:
    name: str
    elements: int
    data_bytes: int
    transformations: int
    non_subsumed: int
    unions: int
    repetitions: int
    shared_types: int

    def row(self) -> list:
        return [self.name, self.elements, f"{self.data_bytes / 1024:.0f} KB",
                self.transformations, self.non_subsumed, self.unions,
                self.repetitions, self.shared_types]


HEADERS = ["data set", "elements", "shredded size", "#transformations",
           "#non-subsumed", "#unions", "#repetitions", "#shared types"]


def characterize(bundle: DatasetBundle) -> DatasetCharacteristics:
    tree = bundle.tree
    mapping = hybrid_inlining(tree)
    total, non_subsumed = count_transformations(mapping)
    unions = len(tree.nodes_of_kind(NodeKind.CHOICE)) + \
        len(tree.nodes_of_kind(NodeKind.OPTION))
    repetitions = len(tree.nodes_of_kind(NodeKind.REPETITION))
    signatures: dict[tuple, int] = {}
    for node in tree.iter_nodes():
        if node.kind == NodeKind.TAG:
            signature = tree.structural_signature(node)
            signatures[signature] = signatures.get(signature, 0) + 1
    shared_types = sum(1 for count in signatures.values() if count > 1)
    db = Database()
    load_documents(db, derive_schema(mapping), bundle.docs, analyze=False)
    return DatasetCharacteristics(
        name=bundle.name,
        elements=bundle.stats.total_elements,
        data_bytes=db.catalog.total_data_bytes(),
        transformations=total,
        non_subsumed=non_subsumed,
        unions=unions,
        repetitions=repetitions,
        shared_types=shared_types,
    )

