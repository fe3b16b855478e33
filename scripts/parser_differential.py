"""Differential check of ``repro.xmlkit.parse`` against an older parser.

The reference is the ``parser.py`` and ``doc.py`` of another commit,
loaded beside the current ones, so the reference parser builds its
trees with its own node and a change to the node itself is checked::

    git show <commit>:src/repro/xmlkit/parser.py > /tmp/reference.py
    git show <commit>:src/repro/xmlkit/doc.py > /tmp/reference_doc.py
    PYTHONPATH=src python scripts/parser_differential.py \
        --reference /tmp/reference.py --reference-doc /tmp/reference_doc.py \
        --cases 300000 --seed 0

Every case is one string given to both parsers. They must accept the
same strings and build identical trees — compared through the public
API: tag, attributes, text segments, children — and refuse the rest at
the same line; a differing message or column is listed, not
fatal. A reference that dies of ``RecursionError`` or ``OverflowError``
is counted as a crash and listed with what the current parser does.
Cases are random runs of markup fragments (mostly malformed), serialized
random trees, those trees with a few characters damaged, the bundled
data sets serialized flat and indented, and one 3 000-deep nest. Exit
status 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys

from repro.datasets import generate_dblp, generate_movies
from repro.errors import XMLParseError
from repro.xmlkit import Element, parse, serialize

FRAGMENTS = [
    "<a", "<b", "<a>", "<b>", "</a>", "</b>", "</a", "</", "<", ">", "/>",
    "/", "<a/>", "<b x='1'/>", "<c>t</c>", "<c>t</c >", "<c>&lt;</c>",
    " ", "\n", "\t", "\r\n", "\xa0", "\x0c", "=", "'", '"', "x", "y", "x=",
    "x='1'", 'y="2"', "x = '1'", "x='<'", "x='&amp;'", "x='&bad;'", ":n",
    "_n", "-n", ".n", "1n", "é", "text", "&", ";", "&amp;", "&lt;", "&gt;",
    "&apos;", "&quot;", "&#65;", "&#x42;", "&#xZZ;", "&#;", "&nosuch;",
    "&#1114112;", "&#6_5;", "&# 65;", "&#x0x41;", "&#99999999999;",
    "<!--", "-->", "--", "<!-- c -->", "<!--->", "<![CDATA[", "]]>",
    "<![CDATA[<&]]>", "<?", "?>", "<?pi d?>", "<?xml", "<?xml version='1.1'?>",
    " encoding='latin-1'", "<!DOCTYPE", "<!DOCTYPE a>", "<!DOCTYPE a [<!x>]>",
    "[", "]", "!", "?",
]
TAGS = ["a", "b", "c", "ns:d", "_e", "f.g-h"]
TEXTS = ["", "t", " two words ", "1 & 2", "a<b", 'q"q', "q'q", "é\xa0",
         "]]>", "\n  "]


def fragment_run(rng: random.Random) -> str:
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 14)))


def random_tree(rng: random.Random, depth: int = 3) -> Element:
    el = Element(rng.choice(TAGS), {rng.choice("xyz"): rng.choice(TEXTS)
                                    for _ in range(rng.randint(0, 2))})
    if depth:
        for _ in range(rng.randint(0, 3)):
            el.add_text(rng.choice(TEXTS))
            el.append(random_tree(rng, depth - 1))
    el.add_text(rng.choice(TEXTS))
    return el


def damaged(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text))
        cut = rng.choice(FRAGMENTS) if rng.random() < 0.5 else ""
        text = text[:at] + cut + text[at + rng.randint(0, 2):]
    return text


def cases(rng: random.Random, count: int):
    for i in range(count):
        if i % 4 < 2:
            yield fragment_run(rng)
        else:
            text = serialize(random_tree(rng), declaration=rng.random() < 0.3,
                             indent=rng.choice((None, None, 2)))
            yield text if i % 4 == 2 else damaged(rng, text)


def outcome(parser, text: str):
    try:
        doc = parser(text)
    except XMLParseError as exc:
        return "refused", (str(exc), exc.line, exc.column)
    except (RecursionError, OverflowError) as exc:
        return "crashed", type(exc).__name__
    return "accepted", doc


def same_tree(a: Element, b: Element) -> bool:
    """``b`` is ``a`` node for node, and a tree: no node of ``b`` is
    reached twice."""
    pairs = [(a, b)]
    seen: set[int] = set()
    while pairs:
        a, b = pairs.pop()
        if (a.tag, list(a.attributes.items()), a.text_segments) != (
                b.tag, list(b.attributes.items()), b.text_segments):
            return False
        if len(a.children) != len(b.children) or id(b) in seen:
            return False
        seen.add(id(b))
        pairs.extend(zip(a.children, b.children))
    return True


def load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", required=True,
                    help="an older src/repro/xmlkit/parser.py")
    ap.add_argument("--reference-doc", required=True,
                    help="the src/repro/xmlkit/doc.py of the same commit")
    ap.add_argument("--cases", type=int, default=300_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    current_doc = sys.modules["repro.xmlkit.doc"]
    # the reference's ``from .doc import ...`` finds this module
    sys.modules["repro.xmlkit.doc"] = load(
        "repro.xmlkit._reference_doc", args.reference_doc)
    try:
        reference = load("repro.xmlkit._reference_parser", args.reference)
    finally:
        sys.modules["repro.xmlkit.doc"] = current_doc

    rng = random.Random(args.seed)
    bundled = [serialize(generate(300, seed=args.seed), indent=indent)
               for generate in (generate_dblp, generate_movies)
               for indent in (None, 2)]
    bundled.append("\ufeff" + bundled[0])    # parse() itself takes no BOM
    bundled.append("<a>" * 3000 + "</a>" * 3000)
    counts = {"accepted": 0, "refused": 0, "crashed": 0}
    disagreements, wording = [], {}
    total = 0
    for text in [*bundled, *cases(rng, args.cases)]:
        total += 1
        old_kind, old = outcome(reference.parse, text)
        new_kind, new = outcome(parse, text)
        counts[old_kind] += 1
        if old_kind == "crashed":
            now = (new[0].partition(" &#")[0] if new_kind == "refused"
                   else new_kind)
            wording.setdefault(f"reference {old} -> {now}", text[:60])
        elif old_kind != new_kind:
            disagreements.append((text, old_kind, new_kind))
        elif old_kind == "accepted":
            if (old.version, old.encoding) != (new.version, new.encoding) \
                    or not same_tree(old.root, new.root):
                disagreements.append((text, "tree", "differs"))
        elif old[1] != new[1]:
            disagreements.append((text, old, new))
        elif old != new:
            wording.setdefault(f"{old} -> {new}", text)
    print(f"{total} cases: reference accepted {counts['accepted']}, "
          f"refused {counts['refused']}, crashed {counts['crashed']}")
    print(f"disagreements (accept set, tree, error line): "
          f"{len(disagreements)}")
    for text, old, new in disagreements[:20]:
        print(f"  {text!r}: {old} | {new}")
    print(f"differing message or column, or reference crash: {len(wording)}")
    for change, text in wording.items():
        print(f"  {change}   e.g. {text!r}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
