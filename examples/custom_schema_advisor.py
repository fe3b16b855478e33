"""Bring-your-own-schema: tune storage for a custom XSD + workload.

Shows the advisor on a schema it has never seen — an order-management
feed with a choice group (payment method), optional elements, and a
repeated element with skewed cardinality — exactly the XSD features the
paper's non-subsumed transformations exploit.

Run with::

    python examples/custom_schema_advisor.py
"""

import random

from repro import (GreedySearch, Workload, collect_statistics,
                   hybrid_inlining, parse_xsd)
from repro.experiments import (DatasetBundle, measure_design,
                               tuned_hybrid_baseline)
from repro.xmlkit import Document, Element

ORDERS_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
           xmlns:sdb="urn:repro:storage">
  <xs:element name="orders" sdb:table="orders">
    <xs:complexType><xs:sequence>
      <xs:element name="order" minOccurs="0" maxOccurs="unbounded"
                  sdb:table="ord">
        <xs:complexType><xs:sequence>
          <xs:element name="customer" type="xs:string"/>
          <xs:element name="status" type="xs:string"/>
          <xs:element name="region" type="xs:string"/>
          <xs:element name="total" type="xs:decimal"/>
          <xs:element name="item" type="xs:string" minOccurs="0"
                      maxOccurs="unbounded" sdb:table="item"/>
          <xs:element name="coupon" type="xs:string" minOccurs="0"/>
          <xs:choice>
            <xs:element name="card_number" type="xs:string"/>
            <xs:element name="invoice_account" type="xs:string"/>
          </xs:choice>
        </xs:sequence>
        <xs:attribute name="channel" type="xs:string" use="required"/>
        </xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>
"""

REGIONS = ["EMEA", "AMER", "APAC", "LATAM"]


def generate_orders(n: int, seed: int = 5) -> Document:
    rng = random.Random(seed)
    root = Element("orders")
    for i in range(n):
        order = root.make_child(
            "order",
            attributes={"channel": rng.choice(["web", "store", "phone"])})
        order.make_child("customer", f"Customer {rng.randrange(n // 4 + 1)}")
        order.make_child("status", rng.choice(
            ["open", "shipped", "delivered", "returned"]))
        order.make_child("region", rng.choice(REGIONS))
        order.make_child("total", f"{rng.uniform(5, 2500):.2f}")
        # Skewed item cardinality: most orders have 1-3 items.
        for _ in range(rng.choices([1, 2, 3, 4, 9],
                                   weights=[40, 30, 20, 8, 2], k=1)[0]):
            order.make_child("item", f"SKU-{rng.randrange(500):04d}")
        if rng.random() < 0.25:
            order.make_child("coupon", f"SAVE{rng.randrange(90):02d}")
        if rng.random() < 0.7:
            order.make_child("card_number", f"4{rng.randrange(10**15):015d}")
        else:
            order.make_child("invoice_account", f"ACCT-{rng.randrange(9999)}")
    return Document(root)


WORKLOAD = [
    # Card-settlement report: only card orders (choice branch).
    '//order[region = "EMEA"]/(customer | total | card_number)',
    # Channel report: attribute predicate + attribute projection.
    '//order[@channel = "web"]/(customer | total | @channel)',
    # Items of large orders (repetition split + covering index).
    '//order[total >= "1000"]/(customer | item)',
    # Coupon redemptions (implicit union on the optional coupon).
    "//order/coupon",
    "//order[coupon]/(customer | total)",
    # Invoice aging: the other choice branch.
    "//order/invoice_account",
]


def main() -> None:
    tree = parse_xsd(ORDERS_XSD, name="orders")
    print("schema tree:")
    print(tree.pretty(), "\n")

    docs = generate_orders(3000)
    stats = collect_statistics(tree, docs)
    bundle = DatasetBundle("orders", tree, docs, stats)
    workload = Workload.from_strings("order-ops", WORKLOAD)

    baseline = tuned_hybrid_baseline(bundle, workload)
    print(f"hybrid-inlining baseline (tuned): {baseline:.1f}\n")

    result = GreedySearch(tree, workload, stats, bundle.storage_bound).run()
    print(result.describe())
    measured = measure_design(result, bundle)
    print(f"\nmeasured workload cost: {measured:.1f} "
          f"({measured / baseline:.2f}x the tuned hybrid "
          f"baseline)")


if __name__ == "__main__":
    main()
