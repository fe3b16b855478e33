"""Synthetic DBLP data set (paper Fig. 1a).

The real DBLP XML file is not redistributable here, so this generator
produces data with the distributional properties the paper exploits:

* ``inproceedings`` records with title, booktitle, year, authors, pages,
  optional ``ee``/``cdrom``/``editor`` and repeated ``cite``;
* ``book`` records whose ``title`` is a *shared type* with the
  inproceedings title (the book title carries the ``title1`` annotation,
  exactly as in the paper's Fig. 1a);
* ``author`` as a shared annotation between books and inproceedings;
* skewed author cardinality: ~99% of publications have at most five
  authors, with a maximum of 20 (Section 4.6 uses exactly this skew to
  pick the repetition-split count k = 5);
* booktitle values with a skewed conference distribution so that
  equality selections span the paper's selectivity ranges.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..xmlkit import Document, Element, LazyElement
from ..xsd import BaseType, SchemaTree, TreeBuilder

# ~50 venues with a mildly skewed distribution: equality selections on
# booktitle land in the paper's "low selectivity" band (~0.01-0.1).
CONFERENCES = [
    "VLDB", "ICDE", "KDD", "WWW", "CIKM", "EDBT", "ICDT", "PODS",
    "SIGIR", "SODA", "STOC", "FOCS", "NIPS", "ICML", "AAAI", "IJCAI",
    "ACL", "OSDI", "SOSP", "SIGMOD CONFERENCE", "USENIX", "EUROSYS",
    "MIDDLEWARE", "ICDM", "PAKDD", "PKDD", "DASFAA", "DEXA", "SSDBM",
    "WEBDB", "XSYM", "WISE", "ER", "CAISE", "ICSE", "FSE", "PLDI",
    "POPL", "OOPSLA", "CAV", "LICS", "CONCUR", "ISCA", "MICRO", "HPCA",
    "SC", "PPOPP", "SPAA", "PODC", "DISC",
]

PUBLISHERS = ["Springer", "ACM Press", "Morgan Kaufmann", "IEEE CS",
              "Addison-Wesley", "MIT Press", "Prentice Hall"]
#: The share of publications that are books; the rest are inproceedings.
BOOK_FRACTION = 0.12

_WORDS = [
    "efficient", "scalable", "adaptive", "parallel", "distributed",
    "incremental", "robust", "optimal", "approximate", "secure",
    "query", "index", "join", "storage", "stream", "cache", "graph",
    "transaction", "schema", "workload", "view", "partition",
    "processing", "optimization", "evaluation", "management", "mining",
    "integration", "compression", "replication",
]


def dblp_schema() -> SchemaTree:
    """The DBLP schema tree of Fig. 1a."""
    b = TreeBuilder("dblp")
    dblp = b.tag("dblp", annotation="dblp")

    inproc_rep = b.rep(dblp)
    inproc = b.tag("inproceedings", inproc_rep, annotation="inproc")
    b.leaf("title", inproc)
    b.leaf("booktitle", inproc)
    b.leaf("year", inproc, BaseType.INTEGER)
    b.repeated_leaf("author", inproc, annotation="author")
    b.leaf("pages", inproc)
    b.optional_leaf("ee", inproc)
    b.optional_leaf("cdrom", inproc)
    b.repeated_leaf("cite", inproc, annotation="cite")
    b.optional_leaf("editor", inproc)

    book_rep = b.rep(dblp)
    book = b.tag("book", book_rep, annotation="book")
    b.leaf("title", book, annotation="title1")
    b.leaf("year", book, BaseType.INTEGER)
    b.leaf("publisher", book)
    b.optional_leaf("isbn", book)
    b.repeated_leaf("author", book, annotation="author")
    b.leaf("pages", book)
    return b.build(dblp)


def author_count(rng: random.Random, max_authors: int = 20) -> int:
    """Skewed author cardinality: 99% have <= 5, tail up to the max."""
    roll = rng.random()
    if roll < 0.30:
        return 1
    if roll < 0.60:
        return 2
    if roll < 0.82:
        return 3
    if roll < 0.94:
        return 4
    if roll < 0.99:
        return 5
    return rng.randint(6, max_authors)


def _title(rng: random.Random, serial: int) -> str:
    words = rng.sample(_WORDS, 3)
    return f"{words[0].capitalize()} {words[1]} {words[2]} {serial}"


def _conference(rng: random.Random) -> str:
    # Mild Zipf skew: the most common venue holds ~5-6% of publications,
    # the tail ~1% (SIGMOD CONFERENCE sits around 2%).
    weights = [1.0 / (rank + 10) for rank in range(len(CONFERENCES))]
    return rng.choices(CONFERENCES, weights=weights, k=1)[0]


_FIRST_NAMES = ["Alice", "Bogdan", "Chandra", "Dmitri", "Elena", "Farid",
                "Giulia", "Hannah", "Ichiro", "Jennifer", "Katerina",
                "Leonard", "Margaret", "Nikolai", "Oliver", "Priyanka"]
_LAST_NAMES = ["Abiteboul", "Bernstein", "Chaudhuri", "DeWitt", "Eswaran",
               "Florescu", "Gray", "Haritsa", "Ioannidis", "Jagadish",
               "Kossmann", "Lindsay", "Mohan", "Naughton", "Ozsu",
               "Papadimitriou", "Quass", "Ramakrishnan", "Stonebraker",
               "Tufte", "Ullman", "Valduriez", "Widom", "Yannakakis"]


def _author_pool(rng: random.Random, size: int) -> list[str]:
    """Realistic 'First Last NNN' author names (~20 characters)."""
    return [f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)} {i}"
            for i in range(size)]


def iter_dblp_publications(n_publications: int = 2000, seed: int = 7
                           ) -> Iterator[Element]:
    """Yield DBLP publication elements one at a time.

    This is the streaming core shared by the eager and lazy document
    forms: the RNG is created inside the generator, so every fresh
    iterator over the same ``(n_publications, seed)`` produces an
    identical element sequence, and only one publication subtree is
    alive at a time.
    """
    rng = random.Random(seed)
    n_books = int(n_publications * BOOK_FRACTION)
    n_inproc = n_publications - n_books
    author_pool = _author_pool(rng, max(200, n_publications // 3))
    for i in range(n_inproc):
        pub = Element("inproceedings")
        pub.make_child("title", _title(rng, i))
        pub.make_child("booktitle", _conference(rng))
        pub.make_child("year", str(rng.randint(1970, 2004)))
        for _ in range(author_count(rng)):
            pub.make_child("author", rng.choice(author_pool))
        first = rng.randint(1, 500)
        pub.make_child("pages", f"{first}-{first + rng.randint(2, 25)}")
        if rng.random() < 0.45:
            pub.make_child("ee", f"db/conf/x/{i}.html")
        if rng.random() < 0.20:
            pub.make_child("cdrom", f"CD/{i}")
        if rng.random() < 0.25:
            for _ in range(rng.randint(1, 5)):
                pub.make_child("cite", f"ref{rng.randrange(n_publications)}")
        if rng.random() < 0.10:
            pub.make_child("editor", f"Editor {rng.randrange(50)}")
        yield pub
    for i in range(n_books):
        book = Element("book")
        book.make_child("title", _title(rng, n_inproc + i))
        book.make_child("year", str(rng.randint(1970, 2004)))
        book.make_child("publisher", rng.choice(PUBLISHERS))
        if rng.random() < 0.7:
            book.make_child("isbn", f"0-{rng.randint(10000, 99999)}-{i:04d}")
        for _ in range(author_count(rng, max_authors=8)):
            book.make_child("author", rng.choice(author_pool))
        book.make_child("pages", str(rng.randint(80, 900)))
        yield book


def generate_dblp(n_publications: int = 2000, seed: int = 7,
                  stream: bool = False) -> Document:
    """Generate a synthetic DBLP document.

    ``n_publications`` counts inproceedings + books together.
    ``stream=True`` returns a document whose root generates its
    publications lazily (a re-iterable :class:`~repro.xmlkit.LazyElement`)
    instead of materializing one giant element tree — the form the
    streaming shred path consumes at 10^5-10^7 publications. Both forms
    contain element-for-element identical content.
    """
    if stream:
        return Document(LazyElement(
            "dblp",
            lambda: iter_dblp_publications(n_publications, seed)))
    root = Element("dblp")
    for pub in iter_dblp_publications(n_publications, seed):
        root.append(pub)
    return Document(root)
