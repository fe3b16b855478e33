"""The engine's index structure: entries sorted by key.

What a DBMS keeps in a B+-tree is kept here as two parallel lists,
encoded keys and payloads, sorted once when the index is built and
searched with ``bisect``. The cost model never reads the structure's
shape (``Index.height`` is arithmetic on the statistics), so a seek
returns the same rows at the same charged cost as a tree would.

* multi-column (tuple) keys with NULLs ordered first,
* duplicate keys allowed, in build order: the sort is stable on the key
  alone, so an index over a table returns equal keys in row order,
* lazy range scan with prefix bounds, and full ordered scan.

Payloads are opaque; indexes store row positions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator

#: Sorts after every encoded value, so ``prefix + _AFTER`` sorts after
#: every key that starts with ``prefix`` and before every greater key.
_AFTER = ((3,),)


def encode_key(values: tuple) -> tuple:
    """Map a raw key tuple to a totally ordered form (NULLs first)."""
    out = []
    for v in values:
        if v is None:
            out.append((0, ""))
        elif isinstance(v, bool):
            out.append((1, int(v)))
        elif isinstance(v, (int, float)):
            out.append((1, v))
        else:
            out.append((2, str(v)))
    return tuple(out)


class SortedEntries:
    """(encoded key, payload) entries in key order, equal keys in build order."""

    def __init__(self, entries: list[tuple[tuple, Any]]):
        """Sort (raw_key, payload) pairs, which need not be sorted."""
        keys = [encode_key(key) for key, _ in entries]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.keys = [keys[i] for i in order]
        self.payloads = [entries[i][1] for i in order]

    def range_scan(self, lo: tuple | None, hi: tuple | None,
                   lo_inclusive: bool = True,
                   hi_inclusive: bool = True) -> Iterator[tuple[tuple, Any]]:
        """Yield (encoded_key, payload) for keys in [lo, hi].

        ``lo``/``hi`` are raw key tuples; ``None`` means unbounded. A
        bound tuple may be a *prefix* of the full key: prefix semantics
        are applied (all keys starting with the prefix are inside).
        """
        keys = self.keys
        start, stop = 0, len(keys)
        if lo is not None:
            lo_enc = encode_key(lo)
            start = bisect_left(keys, lo_enc if lo_inclusive
                                else lo_enc + _AFTER)
        if hi is not None:
            hi_enc = encode_key(hi)
            stop = bisect_left(keys, hi_enc + _AFTER if hi_inclusive
                               else hi_enc)
        for index in range(start, stop):
            yield keys[index], self.payloads[index]

    def scan_all(self) -> Iterator[tuple[tuple, Any]]:
        """All entries in key order."""
        return zip(self.keys, self.payloads)

    def __len__(self) -> int:
        return len(self.keys)
