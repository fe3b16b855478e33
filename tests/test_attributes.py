"""XML attribute support across the whole pipeline (extension).

Attributes (``xs:attribute``) map to inline columns of the owning table
and are addressable in XPath with ``@name`` steps — in predicates and in
projections.
"""

import pytest

from repro.backends import EngineBackend, SQLiteBackend
from repro.backends.compare import OK, compare_loaded
from repro.engine import Database
from repro.errors import ValidationError
from repro.mapping import (Shredder, collect_statistics, derive_schema,
                           derive_table_stats, hybrid_inlining,
                           load_documents)
from repro.translate import translate_xpath
from repro.xmlkit import parse
from repro.xpath import evaluate_values, parse_xpath
from repro.xsd import parse_xsd, validate

ORDERS_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
           xmlns:sdb="urn:repro:storage">
  <xs:element name="orders" sdb:table="orders">
    <xs:complexType><xs:sequence>
      <xs:element name="order" minOccurs="0" maxOccurs="unbounded"
                  sdb:table="ord">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="customer" type="xs:string"/>
            <xs:element name="line" minOccurs="0" maxOccurs="unbounded"
                        sdb:table="line">
              <xs:complexType>
                <xs:sequence/>
                <xs:attribute name="sku" type="xs:string" use="required"/>
                <xs:attribute name="qty" type="xs:integer"/>
              </xs:complexType>
            </xs:element>
          </xs:sequence>
          <xs:attribute name="id" type="xs:integer" use="required"/>
          <xs:attribute name="priority" type="xs:string"/>
        </xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>
"""

XML = """
<orders>
  <order id="1" priority="high">
    <customer>alice</customer>
    <line sku="A-1" qty="2"/>
    <line sku="B-7"/>
  </order>
  <order id="2">
    <customer>bob</customer>
    <line sku="A-1" qty="5"/>
  </order>
  <order id="3" priority="low">
    <customer>carol</customer>
  </order>
</orders>
"""


@pytest.fixture(scope="module")
def tree():
    return parse_xsd(ORDERS_XSD, name="orders")


@pytest.fixture(scope="module")
def doc():
    return parse(XML)


class TestSchemaAndValidation:
    def test_attributes_parsed(self, tree):
        order = tree.find_tag_by_path(("orders", "order"))
        names = [a.name for a in tree.attributes_of(order)]
        assert names == ["id", "priority"]
        assert tree.attributes_of(order)[0].min_occurs == 1  # required

    def test_valid_document(self, tree, doc):
        validate(doc, tree)

    def test_missing_required_attribute_rejected(self, tree):
        bad = parse("<orders><order priority='x'>"
                    "<customer>z</customer></order></orders>")
        with pytest.raises(ValidationError):
            validate(bad, tree)

    def test_unknown_attribute_rejected(self, tree):
        bad = parse("<orders><order id='1' bogus='x'>"
                    "<customer>z</customer></order></orders>")
        with pytest.raises(ValidationError):
            validate(bad, tree)

    def test_bad_attribute_type_rejected(self, tree):
        bad = parse("<orders><order id='abc'>"
                    "<customer>z</customer></order></orders>")
        with pytest.raises(ValidationError):
            validate(bad, tree)


class TestMappingAndShredding:
    def test_attribute_columns_in_schema(self, tree):
        schema = derive_schema(hybrid_inlining(tree))
        ord_cols = [c.name for c in schema.group("ord").columns]
        # attribute ``id`` cannot be a column beside the key ``ID``: SQL
        # names are case-insensitive
        assert "id_2" in ord_cols and "priority" in ord_cols
        line_cols = [c.name for c in schema.group("line").columns]
        assert "sku" in line_cols and "qty" in line_cols

    def test_required_attribute_not_nullable(self, tree):
        schema = derive_schema(hybrid_inlining(tree))
        assert not schema.group("ord").column("id_2").nullable
        assert schema.group("ord").column("priority").nullable

    def test_shredded_values(self, tree, doc):
        schema = derive_schema(hybrid_inlining(tree))
        rows = Shredder(schema).shred(doc)
        ord_partition = schema.group("ord").partitions[0]
        by_id = {dict(zip(ord_partition.column_names, row))["id_2"]: row
                 for row in rows["ord"]}
        first = dict(zip(ord_partition.column_names, by_id["1"]))
        assert first["priority"] == "high"
        second = dict(zip(ord_partition.column_names, by_id["2"]))
        assert second["priority"] is None

    def test_derived_stats_count_attribute_presence(self, tree, doc):
        schema = derive_schema(hybrid_inlining(tree))
        stats = collect_statistics(tree, doc)
        derived = derive_table_stats(schema, stats)
        priority = derived["ord"].column("priority")
        assert priority.row_count - priority.null_count == 2
        qty = derived["line"].column("qty")
        assert qty.row_count - qty.null_count == 2


class TestXPathAndTranslation:
    QUERIES = [
        "//order/@id",
        "//order/@priority",
        '//order[@priority = "high"]/customer',
        '//order[@id >= "2"]/(customer | @priority)',
        "//line/@sku",
        '//order[customer = "bob"]/line/@qty',
    ]

    def test_evaluator_reads_attributes(self, doc):
        assert evaluate_values(parse_xpath("//order/@id"), doc) == \
            ["1", "2", "3"]
        assert evaluate_values(
            parse_xpath('//order[@priority = "high"]/customer'), doc) == \
            ["alice"]

    def test_descendant_attribute_step(self, doc):
        assert sorted(evaluate_values(parse_xpath("//@sku"), doc)) == \
            ["A-1", "A-1", "B-7"]

    @pytest.mark.parametrize("xpath", QUERIES)
    def test_pipeline_equivalence(self, tree, doc, xpath):
        schema = derive_schema(hybrid_inlining(tree))
        db = Database()
        load_documents(db, schema, doc)
        expected = sorted(evaluate_values(parse_xpath(xpath), doc))
        rows = db.execute(translate_xpath(schema, xpath)).rows
        got = sorted(str(v) for row in rows for v in row[1:]
                     if v is not None)
        assert got == expected

    def test_attribute_predicate_becomes_column_test(self, tree):
        schema = derive_schema(hybrid_inlining(tree))
        sql = translate_xpath(schema, '//order[@priority = "high"]/customer')
        assert "priority = 'high'" in str(sql)

    def test_sqlite_loads_what_the_engine_loads(self, tree, doc):
        # the attribute column ``id_2`` and the key ``ID`` coexist in SQL
        schema = derive_schema(hybrid_inlining(tree))
        queries = [translate_xpath(schema, xpath) for xpath in self.QUERIES]
        engine = EngineBackend()
        engine.load(schema, doc)
        with SQLiteBackend() as sqlite:
            sqlite.load(schema, doc)
            assert len(sqlite.table_rows("ord")) == 3
            report = compare_loaded(engine, sqlite, queries, schema=schema)
        assert report.status == OK, report.describe()
