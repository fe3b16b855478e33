"""Synthetic data sets: DBLP (Fig. 1a) and Movie (Fig. 1b).

Both generators take scale knobs (10^4-10^6+ records) and a
``stream=True`` form that yields records lazily with bounded memory —
see docs/scaling.md.

:class:`DatasetBundle` carries one design problem's inputs — schema
tree, documents, statistics, storage bound — whether they came from a
bundled generator or from files (``repro.cli``).
"""

from functools import cached_property

from ..mapping import CollectedStats, collect_statistics
from ..workload import WorkloadGenerator
from .dblp import (CONFERENCES, author_count, dblp_schema, generate_dblp,
                   iter_dblp_publications)
from .movie import generate_movies, iter_movie_elements, movie_schema

# name → (display title, schema builder, document generator)
DATASETS = {
    "dblp": ("DBLP", dblp_schema, generate_dblp),
    "movie": ("Movie", movie_schema, generate_movies),
}


def named_dataset(name: str, scale: int, seed: int, stream: bool = False):
    """``(schema tree, documents)`` of the bundled dataset ``name``."""
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r} "
                         f"(known: {', '.join(DATASETS)})")
    _, schema, generate = DATASETS[name]
    return schema(), generate(scale, seed=seed, stream=stream)


DEFAULT_STORAGE_BOUND = 512 * 1024 * 1024


class DatasetBundle:
    """A schema tree, its documents, their statistics, a storage bound.

    ``stats`` is collected from the documents on first use unless the
    caller already has it, so consumers that only shred never pay for
    the statistics pass.
    """

    def __init__(self, name: str, tree, docs,
                 stats: CollectedStats | None = None,
                 storage_bound: int | None = DEFAULT_STORAGE_BOUND):
        self.name = name
        self.tree = tree
        self.docs = docs
        if stats is not None:
            self.stats = stats
        self.storage_bound = storage_bound

    @cached_property
    def stats(self) -> CollectedStats:
        return collect_statistics(self.tree, self.docs)

    @classmethod
    def named(cls, name: str, scale: int = 1500, seed: int = 7,
              storage_bound: int | None = DEFAULT_STORAGE_BOUND,
              stream: bool = False) -> "DatasetBundle":
        """The bundled dataset ``name`` (``"dblp"`` or ``"movie"``)."""
        tree, docs = named_dataset(name, scale, seed, stream)
        return cls(DATASETS[name][0], tree, docs,
                   storage_bound=storage_bound)

    @classmethod
    def dblp(cls, **kwargs) -> "DatasetBundle":
        return cls.named("dblp", **kwargs)

    @classmethod
    def movie(cls, **kwargs) -> "DatasetBundle":
        return cls.named("movie", **kwargs)

    def workload_generator(self, seed: int = 0) -> WorkloadGenerator:
        return WorkloadGenerator(self.tree, self.stats, seed=seed)


__all__ = [
    "DATASETS",
    "named_dataset",
    "DatasetBundle",
    "DEFAULT_STORAGE_BOUND",
    "dblp_schema",
    "generate_dblp",
    "iter_dblp_publications",
    "author_count",
    "CONFERENCES",
    "movie_schema",
    "generate_movies",
    "iter_movie_elements",
]
