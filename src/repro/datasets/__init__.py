"""Synthetic data sets: DBLP (Fig. 1a) and Movie (Fig. 1b).

Both generators take scale knobs (10^4-10^6+ records) and a
``stream=True`` form that yields records lazily with bounded memory —
see docs/scaling.md.
"""

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


__all__ = [
    "DATASETS",
    "named_dataset",
    "dblp_schema",
    "generate_dblp",
    "iter_dblp_publications",
    "author_count",
    "CONFERENCES",
    "movie_schema",
    "generate_movies",
    "iter_movie_elements",
]
