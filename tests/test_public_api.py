"""Tests exercising the documented public API (README / quickstart)."""

import pytest

import repro
from repro import (Database, GreedySearch, Workload, collect_statistics,
                   derive_schema, hybrid_inlining, load_documents, parse_dtd,
                   parse_xml, translate_xpath)

DTD = """
<!ELEMENT catalog (product*)>
<!ELEMENT product (name, category, price, tag*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT category (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
"""

XML = """
<catalog>
  <product><name>Espresso machine</name><category>kitchen</category>
           <price>229</price><tag>coffee</tag><tag>steel</tag></product>
  <product><name>Chef knife</name><category>kitchen</category>
           <price>89</price><tag>steel</tag></product>
  <product><name>Desk lamp</name><category>office</category>
           <price>39</price></product>
</catalog>
"""


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_quickstart_flow():
    tree = parse_dtd(DTD, root="catalog")
    doc = parse_xml(XML)
    schema = derive_schema(hybrid_inlining(tree))
    db = Database()
    load_documents(db, schema, doc)

    sql = translate_xpath(
        schema, '/catalog/product[category = "kitchen"]/(name | price | tag)')
    result = db.execute(sql)
    names = {row[1] for row in result.rows if row[1] is not None}
    assert names == {"Espresso machine", "Chef knife"}
    tags = [row[3] for row in result.rows if row[3] is not None]
    assert sorted(tags) == ["coffee", "steel", "steel"]


def test_greedy_search_on_custom_schema():
    tree = parse_dtd(DTD, root="catalog")
    doc = parse_xml(XML)
    stats = collect_statistics(tree, doc)
    workload = Workload.from_strings("w", [
        '/catalog/product[category = "kitchen"]/(name | tag)'])
    result = GreedySearch(tree, workload, stats).run()
    assert result.estimated_cost >= 0
    assert "greedy" in result.describe()


def test_version_is_set():
    assert repro.__version__


@pytest.mark.parametrize("script", [
    "examples/quickstart.py",
    "examples/movie_union_distribution.py",
])
def test_examples_are_importable_and_run(script, monkeypatch, capsys):
    """Examples must run to completion (fast ones only)."""
    import runpy
    import sys
    monkeypatch.setattr(sys, "argv", [script])
    # Shrink the movie example's data for test speed.
    import repro.datasets.movie as movie_module
    original = movie_module.generate_movies

    def small(n_movies=2000, seed=11, stream=False):
        return original(min(n_movies, 200), seed, stream)

    monkeypatch.setattr("repro.datasets.movie.generate_movies", small)
    monkeypatch.setattr("repro.datasets.generate_movies", small)
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
