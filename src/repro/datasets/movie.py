"""Synthetic Movie data set (paper Fig. 1b).

A movie site: ``movie`` elements with title, optional year (the paper's
Section 4.7 example assumes year is optional), repeated ``aka_title``,
optional ``avg_rating``, and the choice ``(box_office | seasons)``
separating theatrical movies from TV shows. Values are uniform, as in
the paper's synthetic Movie data.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..xmlkit import Document, Element, LazyElement
from ..xsd import BaseType, SchemaTree, TreeBuilder

_ADJECTIVES = ["Lost", "Dark", "Silent", "Golden", "Broken", "Hidden",
               "Final", "Eternal", "Burning", "Frozen"]
_NOUNS = ["Empire", "River", "Garden", "Station", "Horizon", "Signal",
          "Harbor", "Crown", "Mirror", "Island"]
#: The share of movies that are TV shows (``seasons``, not ``box_office``).
TV_FRACTION = 0.35


def movie_schema() -> SchemaTree:
    """The Movie schema tree of Fig. 1b (with optional year)."""
    b = TreeBuilder("movie")
    movies = b.tag("movies", annotation="movies")
    movie_rep = b.rep(movies)
    movie = b.tag("movie", movie_rep, annotation="movie")
    b.leaf("title", movie)
    b.optional_leaf("year", movie, BaseType.INTEGER)
    b.repeated_leaf("aka_title", movie, annotation="aka_title")
    b.optional_leaf("avg_rating", movie, BaseType.DECIMAL)
    choice = b.choice(movie)
    b.leaf("box_office", choice, BaseType.INTEGER)
    b.leaf("seasons", choice, BaseType.INTEGER)
    return b.build(movies)


def iter_movie_elements(n_movies: int = 2000, seed: int = 11
                        ) -> Iterator[Element]:
    """Yield movie elements one at a time (the streaming core).

    The RNG lives inside the generator, so a fresh iterator over the
    same parameters replays an identical element sequence — what makes
    the lazy document form re-iterable.
    """
    rng = random.Random(seed)
    for i in range(n_movies):
        movie = Element("movie")
        title = (f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {i}")
        movie.make_child("title", title)
        if rng.random() < 0.85:
            movie.make_child("year", str(rng.randint(1950, 2004)))
        # aka_title cardinality skewed low: most movies have 0-2.
        for _ in range(rng.choices([0, 1, 2, 3, 6],
                                   weights=[45, 30, 15, 8, 2], k=1)[0]):
            movie.make_child("aka_title", f"AKA {title} #{rng.randint(1, 9)}")
        if rng.random() < 0.60:
            movie.make_child("avg_rating", f"{rng.uniform(1.0, 10.0):.1f}")
        if rng.random() < TV_FRACTION:
            movie.make_child("seasons", str(rng.randint(1, 12)))
        else:
            movie.make_child("box_office", str(rng.randint(10_000,
                                                           500_000_000)))
        yield movie


def generate_movies(n_movies: int = 2000, seed: int = 11,
                    stream: bool = False) -> Document:
    """Generate a synthetic movie document with uniform distributions.

    ``stream=True`` returns a lazily generated document (see
    :func:`repro.datasets.generate_dblp`) with identical content.
    """
    if stream:
        return Document(LazyElement(
            "movies",
            lambda: iter_movie_elements(n_movies, seed)))
    root = Element("movies")
    for movie in iter_movie_elements(n_movies, seed):
        root.append(movie)
    return Document(root)
