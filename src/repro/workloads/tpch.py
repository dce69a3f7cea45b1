"""TPC-H-like benchmark workload (Section 7.2).

The paper runs its performance experiments over the TPC-H schema
(REGION, NATION, CUSTOMER, ORDER, LINEITEM) at database sizes from 1 MB
to 500 MB, nested into four views:

* ``Vsuccess`` / ``Vlinear`` — the five relations nested linearly along
  the key/foreign-key chain (every internal node ends up
  ``clean | safe``, so updates are unconditionally translatable);
* ``Vfail(R)`` — the linear nesting plus relation ``R`` republished
  under the root, which makes deleting an ``R`` element untranslatable;
* ``Vbush`` — the relations joined "evenly": customer pairs with its
  nation/region context at the top, orders/lineitems nest below.

We substitute dbgen with a deterministic seeded generator and express
"DB size" as a scale factor over row counts (see
:func:`scale_rows`); the FK fan-out (1 region : 5 nations : many
customers : more orders : most lineitems) matches TPC-H's shape, which
is all the experiments depend on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..rdb import Database, Schema, SQLEngine, parse_script
from ..xquery import ViewQuery, ViewUpdate, parse_view_query, parse_view_update

__all__ = [
    "TPCH_DDL",
    "ScaleRows",
    "scale_rows",
    "build_tpch_database",
    "v_success",
    "v_linear",
    "v_fail",
    "v_bush",
    "delete_update",
    "delete_by_key",
    "insert_lineitem_update",
    "RELATIONS",
]

RELATIONS = ("region", "nation", "customer", "orders", "lineitem")

TPCH_DDL = """
CREATE TABLE region(
    r_regionkey INTEGER,
    r_name VARCHAR2(25) NOT NULL,
    r_comment VARCHAR2(152),
    CONSTRAINT RegionPK PRIMARY KEY (r_regionkey));

CREATE TABLE nation(
    n_nationkey INTEGER,
    n_name VARCHAR2(25) NOT NULL,
    n_regionkey INTEGER,
    n_comment VARCHAR2(152),
    CONSTRAINT NationPK PRIMARY KEY (n_nationkey),
    FOREIGN KEY (n_regionkey) REFERENCES region (r_regionkey) ON DELETE CASCADE);

CREATE TABLE customer(
    c_custkey INTEGER,
    c_name VARCHAR2(25) NOT NULL,
    c_nationkey INTEGER,
    c_acctbal DOUBLE,
    CONSTRAINT CustomerPK PRIMARY KEY (c_custkey),
    FOREIGN KEY (c_nationkey) REFERENCES nation (n_nationkey) ON DELETE CASCADE);

CREATE TABLE orders(
    o_orderkey INTEGER,
    o_custkey INTEGER,
    o_totalprice DOUBLE,
    o_orderstatus VARCHAR2(1),
    CONSTRAINT OrdersPK PRIMARY KEY (o_orderkey),
    FOREIGN KEY (o_custkey) REFERENCES customer (c_custkey) ON DELETE CASCADE);

CREATE TABLE lineitem(
    l_orderkey INTEGER,
    l_linenumber INTEGER,
    l_quantity INTEGER,
    l_extendedprice DOUBLE,
    CONSTRAINT LineitemPK PRIMARY KEY (l_orderkey, l_linenumber),
    FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey) ON DELETE CASCADE);
"""


@dataclass(frozen=True)
class ScaleRows:
    """Row counts per relation for one nominal database size."""

    megabytes: float
    regions: int
    nations: int
    customers: int
    orders: int
    lineitems_per_order: int

    @property
    def total_rows(self) -> int:
        return (
            self.regions
            + self.nations
            + self.customers
            + self.orders
            + self.orders * self.lineitems_per_order
        )


def scale_rows(megabytes: float) -> ScaleRows:
    """Map a nominal "DB size in MB" onto TPC-H-shaped row counts.

    The constants keep the TPC-H fan-out (≈1:5:30:90:270 per MB here)
    while staying laptop-friendly; the experiments only rely on the
    *relative* growth of the five relations.
    """
    customers = max(3, int(30 * megabytes))
    orders = customers * 3
    return ScaleRows(
        megabytes=megabytes,
        regions=max(2, min(5, int(megabytes) + 2)),
        nations=max(4, min(25, 5 * max(1, int(megabytes)))),
        customers=customers,
        orders=orders,
        lineitems_per_order=3,
    )


_REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


def build_tpch_database(scale: ScaleRows, seed: int = 7) -> Database:
    """Generate a database at *scale* (deterministic per seed)."""
    rng = random.Random(seed)
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script(TPCH_DDL):
        engine.execute(statement)

    db.load("region", (
        {
            "r_regionkey": key,
            "r_name": _REGION_NAMES[key % len(_REGION_NAMES)],
            "r_comment": f"region comment {key}",
        }
        for key in range(scale.regions)
    ))
    db.load("nation", (
        {
            "n_nationkey": key,
            "n_name": f"NATION_{key:03d}",
            "n_regionkey": key % scale.regions,
            "n_comment": f"nation comment {key}",
        }
        for key in range(scale.nations)
    ))
    db.load("customer", (
        {
            "c_custkey": key,
            "c_name": f"Customer#{key:06d}",
            "c_nationkey": key % scale.nations,
            "c_acctbal": round(rng.uniform(-999.0, 9999.0), 2),
        }
        for key in range(scale.customers)
    ))
    # orders and their lineitems draw from the rng in turn: collect both
    # in that order, then load each relation with one statement
    orders: list[dict] = []
    lineitems: list[dict] = []
    order_key = 0
    for customer_key in range(scale.customers):
        for _ in range(scale.orders // scale.customers):
            orders.append({
                "o_orderkey": order_key,
                "o_custkey": customer_key,
                "o_totalprice": round(rng.uniform(100.0, 50000.0), 2),
                "o_orderstatus": rng.choice(["O", "F", "P"]),
            })
            for line in range(1, scale.lineitems_per_order + 1):
                lineitems.append({
                    "l_orderkey": order_key,
                    "l_linenumber": line,
                    "l_quantity": rng.randint(1, 50),
                    "l_extendedprice": round(rng.uniform(10.0, 9000.0), 2),
                })
            order_key += 1
    db.load("orders", orders)
    db.load("lineitem", lineitems)
    return db


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

_LINEAR_BODY = """
FOR $r IN document("default.xml")/region/row
RETURN {
    <region>
        $r/r_regionkey, $r/r_name,
        FOR $n IN document("default.xml")/nation/row
        WHERE $n/n_regionkey = $r/r_regionkey
        RETURN {
            <nation>
                $n/n_nationkey, $n/n_name,
                FOR $c IN document("default.xml")/customer/row
                WHERE $c/c_nationkey = $n/n_nationkey
                RETURN {
                    <customer>
                        $c/c_custkey, $c/c_name, $c/c_acctbal,
                        FOR $o IN document("default.xml")/orders/row
                        WHERE $o/o_custkey = $c/c_custkey
                        RETURN {
                            <order>
                                $o/o_orderkey, $o/o_totalprice,
                                FOR $l IN document("default.xml")/lineitem/row
                                WHERE $l/l_orderkey = $o/o_orderkey
                                RETURN {
                                    <lineitem>
                                        $l/l_orderkey, $l/l_linenumber,
                                        $l/l_quantity, $l/l_extendedprice
                                    </lineitem>}
                            </order>}
                    </customer>}
            </nation>}
    </region>}
"""

_REPUBLISH = {
    "region": """
FOR $r2 IN document("default.xml")/region/row
RETURN {
    <regionAgain>
        $r2/r_regionkey, $r2/r_name
    </regionAgain>}
""",
    "nation": """
FOR $n2 IN document("default.xml")/nation/row
RETURN {
    <nationAgain>
        $n2/n_nationkey, $n2/n_name
    </nationAgain>}
""",
    "customer": """
FOR $c2 IN document("default.xml")/customer/row
RETURN {
    <customerAgain>
        $c2/c_custkey, $c2/c_name
    </customerAgain>}
""",
    "orders": """
FOR $o2 IN document("default.xml")/orders/row
RETURN {
    <orderAgain>
        $o2/o_orderkey, $o2/o_totalprice
    </orderAgain>}
""",
    "lineitem": """
FOR $l2 IN document("default.xml")/lineitem/row
RETURN {
    <lineitemAgain>
        $l2/l_orderkey, $l2/l_linenumber, $l2/l_quantity
    </lineitemAgain>}
""",
}


def v_success() -> ViewQuery:
    """Five relations nested along the key/FK chain (Fig. 13)."""
    return parse_view_query(f"<TpchView>{_LINEAR_BODY}</TpchView>")


def v_linear() -> ViewQuery:
    """Alias of Vsuccess: the linear join used in Figs. 15 and 17."""
    return parse_view_query(f"<TpchView>{_LINEAR_BODY}</TpchView>")


def v_fail(republished: str = "region") -> ViewQuery:
    """Linear nesting plus *republished* published again (Fig. 14)."""
    if republished not in _REPUBLISH:
        raise ValueError(f"unknown relation {republished!r}")
    return parse_view_query(
        f"<TpchView>{_LINEAR_BODY},{_REPUBLISH[republished]}</TpchView>"
    )


def v_bush() -> ViewQuery:
    """The relations joined "evenly": flat context at the top, orders
    and lineitems nested below (Fig. 16)."""
    return parse_view_query(
        """
<TpchBush>
FOR $c IN document("default.xml")/customer/row,
    $n IN document("default.xml")/nation/row,
    $r IN document("default.xml")/region/row
WHERE $c/c_nationkey = $n/n_nationkey AND $n/n_regionkey = $r/r_regionkey
RETURN {
    <customer>
        $c/c_custkey, $c/c_name, $n/n_name, $r/r_name,
        FOR $o IN document("default.xml")/orders/row
        WHERE $o/o_custkey = $c/c_custkey
        RETURN {
            <order>
                $o/o_orderkey, $o/o_totalprice,
                FOR $l IN document("default.xml")/lineitem/row
                WHERE $l/l_orderkey = $o/o_orderkey
                RETURN {
                    <lineitem>
                        $l/l_orderkey, $l/l_linenumber, $l/l_quantity
                    </lineitem>}
            </order>}
    </customer>}
</TpchBush>
"""
    )


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------

#: path from the root to each relation's element in the linear views
_ELEMENT_PATHS = {
    "region": ("region",),
    "nation": ("region", "nation"),
    "customer": ("region", "nation", "customer"),
    "orders": ("region", "nation", "customer", "order"),
    "lineitem": ("region", "nation", "customer", "order", "lineitem"),
}

#: key element inside each relation's view element
_KEY_TAGS = {
    "region": "r_regionkey",
    "nation": "n_nationkey",
    "customer": "c_custkey",
    "orders": "o_orderkey",
    "lineitem": "l_orderkey",
}


def delete_by_key(relation: str, key: int) -> ViewUpdate:
    """Delete one element of *relation* (by key) from a linear view."""
    path = _ELEMENT_PATHS[relation]
    var = "$x"
    binding_path = "/".join(path)
    text = f"""
        FOR $root IN document("TpchView.xml"),
            {var} IN $root/{binding_path}
        WHERE {var}/{_KEY_TAGS[relation]}/text() = "{key}"
        UPDATE $root {{
            DELETE {var} }}
    """
    return parse_view_update(text, name=f"delete-{relation}-{key}")


def delete_update(relation: str, key: int = 0) -> ViewUpdate:
    """Fig. 13/14's per-relation delete (defaults to key 0)."""
    return delete_by_key(relation, key)


def insert_lineitem_update(
    order_key: int, line_number: int, quantity: int = 5, price: float = 100.0
) -> ViewUpdate:
    """Fig. 15's update: insert a new lineitem under an order."""
    text = f"""
        FOR $o IN document("TpchView.xml")/region/nation/customer/order
        WHERE $o/o_orderkey/text() = "{order_key}"
        UPDATE $o {{
        INSERT
            <lineitem>
                <l_orderkey>{order_key}</l_orderkey>
                <l_linenumber>{line_number}</l_linenumber>
                <l_quantity>{quantity}</l_quantity>
                <l_extendedprice>{price:.2f}</l_extendedprice>
            </lineitem>}}
    """
    return parse_view_update(text, name=f"insert-lineitem-{order_key}-{line_number}")
