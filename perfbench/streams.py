"""The benchmark's workloads: seeded streams of update texts plus an oracle.

Each workload builds its database and checkers (:meth:`Workload.build`)
and yields an endless, seeded stream of :class:`Request` objects.  A
request carries the update **text** a user would submit, the public call
that sends it, and what the generator expects: the outcome class and the
rows-affected count.  The generator keeps its own image of the base
tables (:class:`Model`) and applies each accepted request's effect as it
yields it, so after any prefix of the stream the model's digest must
equal the database's.

The program under test only ever sees the generated texts.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core import UFilter, UpdateSession
from repro.core.ufilter import Outcome
from repro.workloads import chains, tpch

ACCEPTED = "accepted"
INVALID = "invalid"
UNTRANSLATABLE = "untranslatable"
CONFLICT = "data-conflict"

_OUTCOME_CLASS = {
    Outcome.TRANSLATED: ACCEPTED,
    Outcome.INVALID: INVALID,
    Outcome.UNTRANSLATABLE: UNTRANSLATABLE,
    Outcome.DATA_CONFLICT: CONFLICT,
}


@dataclass(frozen=True)
class Request:
    """One update as submitted, with the generator's expectation."""

    kind: str
    text: str
    #: checker name in :attr:`Env.checkers`, or ``"session"``
    target: str
    expect: str
    rows: int
    #: ``UFilter.check`` keyword arguments (strategy, qa, ...)
    options: tuple[tuple[str, Any], ...] = ()
    #: roll the database back (untimed) after the request
    restore: bool = False


@dataclass
class Env:
    """What one workload set-up built: the database and its checkers."""

    db: Any
    checkers: dict[str, UFilter] = field(default_factory=dict)
    session: Optional[UpdateSession] = None

    def send(self, request: Request) -> tuple[str, int]:
        """Submit *request* through the public API; returns the outcome
        class and the rows affected."""
        if request.target == "session":
            assert self.session is not None
            result = self.session.execute(
                [request.text], mode="interleaved", atomic=False
            )
            entry = result.entries[0]
            if entry.status == "applied":
                return ACCEPTED, result.rows_affected
            if entry.status == "rejected" and entry.outcome in _OUTCOME_CLASS:
                return _OUTCOME_CLASS[entry.outcome], result.rows_affected
            return f"{entry.status}: {entry.reason}", result.rows_affected
        report = self.checkers[request.target].check(
            request.text, execute=True, **dict(request.options)
        )
        rows = report.data.rows_affected if report.data is not None else 0
        return _OUTCOME_CLASS.get(report.outcome, report.outcome.value), rows

    def restore(self) -> None:
        self.db.rollback()
        self.db.begin()

    @property
    def probe_cache(self):
        if self.session is not None:
            return self.session.cache
        return None

    @property
    def marking_seconds(self) -> float:
        ufilters = list(self.checkers.values())
        if self.session is not None:
            ufilters.append(self.session.ufilter)
        return sum(ufilter.marking_seconds for ufilter in ufilters)


# ---------------------------------------------------------------------------
# the oracle's table image
# ---------------------------------------------------------------------------

def table_digest(tables: dict[str, Any]) -> str:
    """Order-free digest of relation → iterable of row tuples."""
    digest = hashlib.sha256()
    for relation in sorted(tables):
        digest.update(relation.encode() + b"\0")
        for line in sorted(repr(row) for row in tables[relation]):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def db_digest(db: Any, relations: tuple[str, ...]) -> str:
    """The database's table content, digested like :meth:`Model.digest`."""
    tables = {}
    for relation in relations:
        columns = db.relation(relation).attribute_names
        tables[relation] = [
            tuple(row[column] for column in columns) for row in db.rows(relation)
        ]
    return table_digest(tables)


class Model:
    """The generator's image of the base tables: relation → key → row."""

    def __init__(self, db: Any, relations: tuple[str, ...]) -> None:
        self.columns: dict[str, tuple[str, ...]] = {}
        self.keys: dict[str, tuple[int, ...]] = {}
        self.rows: dict[str, dict[tuple, tuple]] = {}
        for relation in relations:
            schema = db.relation(relation)
            columns = tuple(schema.attribute_names)
            key_positions = tuple(
                columns.index(column) for column in schema.primary_key.columns
            )
            self.columns[relation] = columns
            self.keys[relation] = key_positions
            self.rows[relation] = {}
            for row in db.rows(relation):
                image = tuple(row[column] for column in columns)
                self.rows[relation][self._key(relation, image)] = image

    def _key(self, relation: str, image: tuple) -> tuple:
        return tuple(image[position] for position in self.keys[relation])

    def insert(self, relation: str, **values: Any) -> None:
        image = tuple(values.get(column) for column in self.columns[relation])
        key = self._key(relation, image)
        assert key not in self.rows[relation], (relation, key)
        self.rows[relation][key] = image

    def delete(self, relation: str, *key: Any) -> None:
        del self.rows[relation][key]

    def dicts(self, relation: str) -> list[dict[str, Any]]:
        columns = self.columns[relation]
        return [dict(zip(columns, image)) for image in self.rows[relation].values()]

    def digest(self) -> str:
        return table_digest({r: rows.values() for r, rows in self.rows.items()})


# ---------------------------------------------------------------------------
# update texts
# ---------------------------------------------------------------------------

_LINEITEM_INSERT = """
FOR $o IN document("TpchView.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "{order}"
UPDATE $o {{
INSERT
    <lineitem>
        <l_orderkey>{order}</l_orderkey>
        <l_linenumber>{line}</l_linenumber>
        <l_quantity>{quantity}</l_quantity>
        <l_extendedprice>{price}</l_extendedprice>
    </lineitem>}}
"""

#: validation rejects it: the lineitem key child is missing
_LINEITEM_INSERT_NO_KEY = """
FOR $o IN document("TpchView.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "{order}"
UPDATE $o {{
INSERT
    <lineitem>
        <l_linenumber>{line}</l_linenumber>
        <l_quantity>{quantity}</l_quantity>
    </lineitem>}}
"""

_LINEITEM_DELETE = """
FOR $root IN document("TpchView.xml"),
    $x IN $root/region/nation/customer/order/lineitem
WHERE $x/l_orderkey/text() = "{order}" AND $x/l_linenumber/text() = "{line}"
UPDATE $root {{ DELETE $x }}
"""

_SUBTREE_INSERT = """
FOR $n IN document("TpchView.xml")/region/nation
WHERE $n/n_nationkey/text() = "{nation}"
UPDATE $n {{
INSERT
    <customer>
        <c_custkey>{custkey}</c_custkey>
        <c_name>{name}</c_name>
        <c_acctbal>{balance}</c_acctbal>
        <order>
            <o_orderkey>{orderkey}</o_orderkey>
            <o_totalprice>{price}</o_totalprice>
{lineitems}
        </order>
    </customer>}}
"""

_SUBTREE_LINEITEM = (
    "            <lineitem><l_orderkey>{order}</l_orderkey>"
    "<l_linenumber>{line}</l_linenumber><l_quantity>{quantity}</l_quantity>"
    "<l_extendedprice>{price}</l_extendedprice></lineitem>"
)

#: validation rejects it: the customer key child is missing
_CUSTOMER_INSERT_NO_KEY = """
FOR $n IN document("TpchView.xml")/region/nation
WHERE $n/n_nationkey/text() = "{nation}"
UPDATE $n {{
INSERT
    <customer>
        <c_name>{name}</c_name>
        <c_acctbal>{balance}</c_acctbal>
    </customer>}}
"""

_CUSTOMER_DELETE_BY_NAME = """
FOR $root IN document("TpchView.xml"),
    $c IN $root/region/nation/customer
WHERE $c/c_name/text() = "{name}"
UPDATE $root {{ DELETE $c }}
"""

#: path and key element of each relation's element in the linear views
_LINEAR_PATHS = {
    "region": ("region", "r_regionkey"),
    "nation": ("region/nation", "n_nationkey"),
    "customer": ("region/nation/customer", "c_custkey"),
    "orders": ("region/nation/customer/order", "o_orderkey"),
    "lineitem": ("region/nation/customer/order/lineitem", "l_orderkey"),
}

_DELETE_BY_KEY = """
FOR $root IN document("TpchView.xml"),
    $x IN $root/{path}
WHERE $x/{tag}/text() = "{key}"
UPDATE $root {{ DELETE $x }}
"""

_BUSH_REGION_DELETE = """
FOR $c IN document("TpchBush.xml")/customer
WHERE $c/r_name/text() = "{region}"
UPDATE $c {{ DELETE $c }}
"""

_CHAIN_INSERT_CHILD = """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pname/text() = "{pname}"
UPDATE $p {{
INSERT
    <child>
        <cid>{cid}</cid>
        <cname>streamed</cname>
        <cnum>{num}</cnum>
    </child> }}
"""

_CHAIN_INSERT_PARENT = """
FOR $root IN document("GenView.xml")
UPDATE $root {{
INSERT
    <parent>
        <pid>{pid}</pid>
        <pname>{pname}</pname>
    </parent> }}
"""

_CHAIN_DELETE_CHILD = """
FOR $root IN document("GenView.xml"),
    $c IN $root/parent/child
WHERE $c/cid/text() = "{cid}"
UPDATE $root {{ DELETE $c }}
"""

_CHAIN_DELETE_PARENT = """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "{pid}"
UPDATE $root {{ DELETE $p }}
"""


def delete_by_key(relation: str, key: Any) -> str:
    path, tag = _LINEAR_PATHS[relation]
    return _DELETE_BY_KEY.format(path=path, tag=tag, key=key)


def _money(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.2f}"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One benchmark workload: how to build it and what to send."""

    #: why each workload is in the benchmark, the layers it loads and
    #: bypasses, and its reference breakdown: ``REFERENCE.json``
    name = ""
    #: requests per pass of the stream
    pass_length = 0
    #: nominal run length the tail percentile is sized at: the highest
    #: percentile with at least ten samples beyond it (p90 at 100)
    fixed_length = 100
    #: base relations the oracle digests
    relations: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @property
    def warmup_length(self) -> int:
        """Requests set-up sends before timing: one pass."""
        return self.pass_length

    def build(self) -> Env:
        """Database build and checker construction (timed as set-up)."""
        raise NotImplementedError

    def requests(self, model: Model) -> Iterator[Request]:
        """The endless stream, one pass after another; applies each
        yielded request's expected effect to *model*."""
        for number in itertools.count():
            rng = random.Random(f"{self.name}:{self.seed}:{number}")
            yield from self.one_pass(rng, number, model)

    def one_pass(
        self, rng: random.Random, number: int, model: Model
    ) -> Iterator[Request]:
        raise NotImplementedError


class TpchPoint(Workload):
    """Small updates over Vlinear plus the Fig. 14 Vfail views.

    One pass (132 requests, shuffled within two halves so every insert
    precedes its delete): 36 lineitem inserts under random orders (12
    each internal, hybrid, outside; 6 with ``qa=True``), 12
    customer→order→lineitem subtree inserts under random nations (2 with
    ``qa=True``), the 48 deletes of exactly those rows (16 hybrid, 32
    outside), 12 Fig. 17 Fail1 deletes (3 hybrid, 9 outside), 18 Vfail
    deletes STAR rejects and 6 inserts validation rejects.  The class
    sizes put the median of all requests inside the outside lineitem
    inserts, the accepted median inside the internal ones and the 90th
    percentile inside the hybrid lineitem deletes, away from the latency
    gaps between classes where a quantile would jump.
    """

    name = "tpch-point"
    pass_length = 132
    relations = tpch.RELATIONS
    scale_mb = 50
    #: strategies of the Fig. 15 lineitem inserts
    insert_strategies = ("internal", "hybrid", "outside")
    #: relations republished by the Fig. 14 Vfail views
    fail_relations = ("region", "nation", "customer", "orders", "lineitem")

    def build(self) -> Env:
        db = tpch.build_tpch_database(tpch.scale_rows(self.scale_mb), seed=self.seed)
        checkers = {"linear": UFilter(db, tpch.v_linear())}
        for relation in self.fail_relations:
            checkers[f"fail-{relation}"] = UFilter(db, tpch.v_fail(relation))
        return Env(db, checkers)

    def requests(self, model: Model) -> Iterator[Request]:
        # the stream only anchors at (and rejects deletes of) rows the
        # database starts with, and never deletes those
        self._keys = {
            relation: sorted(key[0] for key in model.rows[relation])
            for relation in self.relations
        }
        yield from super().requests(model)

    def one_pass(
        self, rng: random.Random, number: int, model: Model
    ) -> Iterator[Request]:
        order_keys = self._keys["orders"]
        nation_keys = self._keys["nation"]
        first: list[tuple[Request, Any]] = []
        second: list[tuple[Request, Any]] = []

        # Fig. 15: lineitem inserts under random orders, later deleted
        for i, order in enumerate(rng.sample(order_keys, 36)):
            line = 100 + i
            quantity = rng.randint(1, 50)
            price = _money(rng, 10.0, 9000.0)
            text = _LINEITEM_INSERT.format(
                order=order, line=line, quantity=quantity, price=price
            )
            strategy = self.insert_strategies[i % 3]
            options = (("strategy", strategy), ("qa", i % 6 == 0))
            insert = Request(
                f"lineitem-insert/{strategy}", text, "linear", ACCEPTED, 1, options
            )
            first.append((insert, ("+lineitem", dict(
                l_orderkey=order, l_linenumber=line, l_quantity=quantity,
                l_extendedprice=float(price),
            ))))
            strategy = "hybrid" if i % 3 == 1 else "outside"
            delete = Request(
                f"lineitem-delete/{strategy}",
                _LINEITEM_DELETE.format(order=order, line=line),
                "linear", ACCEPTED, 1,
                (("strategy", strategy), ("expand_cascades", True)),
            )
            second.append((delete, ("-lineitem", (order, line))))

        # customer -> order -> lineitem subtrees under random nations
        for i in range(12):
            nation = rng.choice(nation_keys)
            custkey = orderkey = 10**6 + number * 100 + i
            lines = []
            for line in range(1, rng.randint(1, 3) + 1):
                lines.append(dict(
                    l_orderkey=orderkey, l_linenumber=line,
                    l_quantity=rng.randint(1, 50),
                    l_extendedprice=float(_money(rng, 10.0, 9000.0)),
                ))
            balance = _money(rng, -999.0, 9999.0)
            price = _money(rng, 100.0, 50000.0)
            text = _SUBTREE_INSERT.format(
                nation=nation, custkey=custkey, name=f"Customer#{custkey}",
                balance=balance, orderkey=orderkey, price=price,
                lineitems="\n".join(
                    _SUBTREE_LINEITEM.format(
                        order=row["l_orderkey"], line=row["l_linenumber"],
                        quantity=row["l_quantity"],
                        price=f"{row['l_extendedprice']:.2f}",
                    )
                    for row in lines
                ),
            )
            strategy = ("hybrid", "outside")[i % 2]
            subtree = {
                "customer": dict(
                    c_custkey=custkey, c_name=f"Customer#{custkey}",
                    c_nationkey=nation, c_acctbal=float(balance),
                ),
                "orders": dict(
                    o_orderkey=orderkey, o_custkey=custkey,
                    o_totalprice=float(price),
                ),
                "lineitem": lines,
            }
            first.append((
                Request(
                    f"subtree-insert/{strategy}", text, "linear", ACCEPTED,
                    2 + len(lines),
                    (("strategy", strategy), ("qa", i % 6 == 0)),
                ),
                ("+subtree", subtree),
            ))
            strategy = "hybrid" if i % 3 == 2 else "outside"
            second.append((
                Request(
                    f"customer-delete/{strategy}",
                    delete_by_key("customer", custkey), "linear", ACCEPTED,
                    2 + len(lines),
                    (("strategy", strategy), ("expand_cascades", True)),
                ),
                ("-subtree", subtree),
            ))

        for i in range(12):
            # Fig. 17 Fail1: the customer does not exist
            strategy = "hybrid" if i % 4 == 3 else "outside"
            (first if i % 2 == 0 else second).append((
                Request(
                    f"fail1-delete/{strategy}",
                    _CUSTOMER_DELETE_BY_NAME.format(
                        name=f"No Such Customer {number}-{i}"
                    ),
                    "linear", ACCEPTED, 0,
                    (("strategy", strategy), ("expand_cascades", True)),
                ),
                None,
            ))
        for i in range(18):
            # Fig. 14: deletes over Vfail, rejected by STAR
            relation = self.fail_relations[i % len(self.fail_relations)]
            key = rng.choice(self._keys[relation])
            strategy = ("hybrid", "outside")[i % 2]
            (first if i % 2 == 0 else second).append((
                Request(
                    f"vfail-delete/{relation}", delete_by_key(relation, key),
                    f"fail-{relation}", UNTRANSLATABLE, 0,
                    (("strategy", strategy),),
                ),
                None,
            ))
        for i in range(6):
            # inserts missing a key child, rejected by validation
            half = first if i % 2 == 0 else second
            strategy = ("hybrid", "outside")[i % 2]
            if i % 3 < 2:
                text = _LINEITEM_INSERT_NO_KEY.format(
                    order=rng.choice(order_keys), line=99, quantity=1
                )
            else:
                text = _CUSTOMER_INSERT_NO_KEY.format(
                    nation=rng.choice(nation_keys), name="Nobody",
                    balance=_money(rng, 0.0, 10.0),
                )
            half.append((
                Request("invalid-insert", text, "linear", INVALID, 0,
                        (("strategy", strategy),)),
                None,
            ))

        rng.shuffle(first)
        rng.shuffle(second)
        for request, effect in first + second:
            if effect is not None:
                self._apply(model, *effect)
            yield request

    @staticmethod
    def _apply(model: Model, change: str, what: Any) -> None:
        if change == "+lineitem":
            model.insert("lineitem", **what)
        elif change == "-lineitem":
            model.delete("lineitem", *what)
        elif change == "+subtree":
            model.insert("customer", **what["customer"])
            model.insert("orders", **what["orders"])
            for row in what["lineitem"]:
                model.insert("lineitem", **row)
        else:
            for row in what["lineitem"]:
                model.delete("lineitem", row["l_orderkey"], row["l_linenumber"])
            model.delete("orders", what["orders"]["o_orderkey"])
            model.delete("customer", what["customer"]["c_custkey"])


class TpchBulk(Workload):
    """Region- and nation-wide cascading deletes, each rolled back.

    One pass (42 requests): 20 cascading deletes of random nations over
    Vlinear (outside strategy) and 16 of the pass's deletes sent against
    ``v_fail(region)`` / ``v_fail(nation)``, which STAR rejects, in
    random order; then a burst of Fig. 16 deletes of every customer of
    3 random regions over Vbush via hybrid and outside.  An untimed
    ``db.rollback()`` follows each accepted delete.  The class sizes put
    the median of all requests in the fast quarter of the nation
    deletes, the accepted median in their middle and the 90th percentile
    inside the region deletes; one strategy for the nation deletes keeps
    them one latency class, so no median sits on a gap between classes.
    """

    name = "tpch-bulk"
    pass_length = 42
    relations = tpch.RELATIONS
    scale_mb = 10

    def build(self) -> Env:
        db = tpch.build_tpch_database(tpch.scale_rows(self.scale_mb), seed=self.seed)
        checkers = {
            "bush": UFilter(db, tpch.v_bush()),
            "linear": UFilter(db, tpch.v_linear()),
            "fail-region": UFilter(db, tpch.v_fail("region")),
            "fail-nation": UFilter(db, tpch.v_fail("nation")),
        }
        db.begin()
        return Env(db, checkers)

    @staticmethod
    def _subtree_rows(model: Model) -> tuple[dict[int, int], dict[int, int]]:
        """Rows a cascading delete removes, per region and per nation."""
        lines: dict[int, int] = {}
        for order_key, _line in model.rows["lineitem"]:
            lines[order_key] = lines.get(order_key, 0) + 1
        per_customer: dict[int, int] = {}
        for row in model.dicts("orders"):
            customer = row["o_custkey"]
            per_customer[customer] = (
                per_customer.get(customer, 1) + 1 + lines.get(row["o_orderkey"], 0)
            )
        per_nation = {key[0]: 1 for key in model.rows["nation"]}
        for row in model.dicts("customer"):
            per_nation[row["c_nationkey"]] += per_customer.get(row["c_custkey"], 1)
        per_region = {key[0]: 1 for key in model.rows["region"]}
        for row in model.dicts("nation"):
            per_region[row["n_regionkey"]] += per_nation[row["n_nationkey"]]
        return per_region, per_nation

    def requests(self, model: Model) -> Iterator[Request]:
        # every accepted delete is rolled back: the model never changes,
        # so the per-subtree row counts are computed once
        self._per_region, self._per_nation = self._subtree_rows(model)
        self._region_names = {
            row["r_regionkey"]: row["r_name"] for row in model.dicts("region")
        }
        yield from super().requests(model)

    def one_pass(
        self, rng: random.Random, number: int, model: Model
    ) -> Iterator[Request]:
        regional, rest = [], []
        for region in rng.sample(sorted(self._region_names), 3):
            for strategy in ("hybrid", "outside"):
                # Fig. 16: delete every customer of a region over Vbush
                regional.append(Request(
                    f"bush-region-delete/{strategy}",
                    _BUSH_REGION_DELETE.format(region=self._region_names[region]),
                    "bush", ACCEPTED, self._per_region[region],
                    (("strategy", strategy), ("expand_cascades", True)),
                    restore=True,
                ))
                rest.append(Request(
                    "vfail-delete/region", delete_by_key("region", region),
                    "fail-region", UNTRANSLATABLE, 0, (("strategy", strategy),),
                ))
        for i, nation in enumerate(rng.sample(sorted(self._per_nation), 20)):
            rest.append(Request(
                "nation-delete", delete_by_key("nation", nation),
                "linear", ACCEPTED, self._per_nation[nation],
                (("strategy", "outside"), ("expand_cascades", True)),
                restore=True,
            ))
            if i % 2 == 0:
                rest.append(Request(
                    "vfail-delete/nation", delete_by_key("nation", nation),
                    "fail-nation", UNTRANSLATABLE, 0, (("strategy", "outside"),),
                ))
        # the region deletes come last, as one burst: each leaves the
        # planner statistics stale after its rollback, so only the
        # request after the burst pays the rebuild, not a random share
        # of the nation deletes
        rng.shuffle(rest)
        rng.shuffle(regional)
        yield from rest + regional


class ChainStream(Workload):
    """A write stream through one long-lived ``UpdateSession``.

    The chain database gets ``named_parents`` parents named ``n0000``..
    at set-up and an in-memory WAL.  Each round (7 requests, one
    ``execute`` each): two child inserts under parents picked by
    ``pname`` from a Zipf distribution (hot context probes repeat, and
    ``pname`` has no index), one fresh parent insert, the deletes of the
    two children and the parent inserted ``window`` rounds earlier (so
    table sizes stay constant and the delta log carries retractions),
    and one rejected insert: a duplicate ``cid`` (point-check conflict)
    on two rounds of three, an unknown ``pname`` (context-check
    conflict) on the third.  The class sizes put the medians inside the
    child deletes and the 90th percentile inside the child inserts.
    """

    name = "chain-stream"
    relations = ("parent", "child", "grand", "offview")
    named_parents = 100
    #: long-lived children the duplicate-key rejections collide with
    resident_children = 20
    window = 20
    rounds_per_pass = 50
    pass_length = 7 * rounds_per_pass
    zipf_exponent = 1.1

    def build(self) -> Env:
        db = chains.build_chain_db()
        for i in range(self.named_parents):
            db.insert("parent", {"pid": f"K{i:04d}", "pname": f"n{i:04d}"})
        for i in range(self.resident_children):
            db.insert("child", {"cid": f"d{i:03d}", "pid": f"K{i:04d}",
                                "cname": "resident", "cnum": i})
        db.attach_wal()
        return Env(db, session=UpdateSession(db, chains.CHAIN_VIEW))

    @property
    def warmup_length(self) -> int:
        return 4 * self.named_parents + self.pass_length

    def requests(self, model: Model) -> Iterator[Request]:
        weights = [1.0 / (rank + 1) ** self.zipf_exponent
                   for rank in range(self.named_parents)]
        self._cumulative = list(itertools.accumulate(weights))
        yield from self._priming(model)
        yield from super().requests(model)

    def _priming(self, model: Model) -> Iterator[Request]:
        """Two child inserts under every named parent, then their
        deletes: every context probe the stream can repeat is cached
        (and maintained) before timing starts, so the probe cache is
        as full at the first timed request as at the last."""
        for parent in range(self.named_parents):
            for suffix in "ab":
                model.insert("child", cid=f"p{parent:03d}{suffix}",
                             pid=f"K{parent:04d}", cname="streamed", cnum=0)
                yield Request(
                    "child-insert",
                    _CHAIN_INSERT_CHILD.format(
                        pname=f"n{parent:04d}", cid=f"p{parent:03d}{suffix}", num=0
                    ),
                    "session", ACCEPTED, 1,
                )
        for parent in range(self.named_parents):
            for suffix in "ab":
                model.delete("child", f"p{parent:03d}{suffix}")
                yield Request(
                    "child-delete",
                    _CHAIN_DELETE_CHILD.format(cid=f"p{parent:03d}{suffix}"),
                    "session", ACCEPTED, 1,
                )

    def one_pass(
        self, rng: random.Random, number: int, model: Model
    ) -> Iterator[Request]:
        for k in range(number * self.rounds_per_pass,
                       (number + 1) * self.rounds_per_pass):
            for suffix in "ab":
                parent = rng.choices(
                    range(self.named_parents), cum_weights=self._cumulative
                )[0]
                model.insert("child", cid=f"c{k}{suffix}", pid=f"K{parent:04d}",
                             cname="streamed", cnum=k)
                yield Request(
                    "child-insert",
                    _CHAIN_INSERT_CHILD.format(
                        pname=f"n{parent:04d}", cid=f"c{k}{suffix}", num=k
                    ),
                    "session", ACCEPTED, 1,
                )
            model.insert("parent", pid=f"q{k}", pname=f"f{k}")
            yield Request(
                "parent-insert",
                _CHAIN_INSERT_PARENT.format(pid=f"q{k}", pname=f"f{k}"),
                "session", ACCEPTED, 1,
            )
            if k >= self.window:
                old = k - self.window
                for suffix in "ab":
                    model.delete("child", f"c{old}{suffix}")
                    yield Request(
                        "child-delete",
                        _CHAIN_DELETE_CHILD.format(cid=f"c{old}{suffix}"),
                        "session", ACCEPTED, 1,
                    )
                model.delete("parent", f"q{old}")
                yield Request(
                    "parent-delete", _CHAIN_DELETE_PARENT.format(pid=f"q{old}"),
                    "session", ACCEPTED, 1,
                )
            if k % 3 < 2:
                # point-check conflict: a resident child has that key
                yield Request(
                    "duplicate-child",
                    _CHAIN_INSERT_CHILD.format(
                        pname=f"n{rng.randrange(self.named_parents):04d}",
                        cid=f"d{rng.randrange(self.resident_children):03d}", num=k,
                    ),
                    "session", CONFLICT, 0,
                )
            else:
                # context-check conflict: no parent carries this name
                yield Request(
                    "unknown-parent",
                    _CHAIN_INSERT_CHILD.format(pname=f"u{k}", cid=f"x{k}", num=k),
                    "session", CONFLICT, 0,
                )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (TpchPoint, TpchBulk, ChainStream)
}
