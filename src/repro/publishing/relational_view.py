"""The mapping relational view (Fig. 11) behind the *internal* strategy.

Section 6.2.1: the XML view is mapped onto a single flat relational view
built from nested LEFT JOINs; an XML view update becomes an update over
that relational view, which the relational engine decomposes onto base
tables.  The paper criticizes this approach because constructing the
full view tuple forces the system to retrieve **all** attributes of
**all** joined relations — u13 only specifies (title, reviewid, comment)
yet the internal translation must also find pubid, pubname and price.
Fig. 15 measures exactly that overhead; this module reproduces the
mechanism so the benchmark can measure ours.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import UFilterError, UniqueViolation
from ..rdb.database import Database
from ..rdb.types import sql_literal
from ..core.asg import JoinCondition, NodeKind, ViewASG, ViewNode

__all__ = ["MappingRelationalView"]

Row = dict[str, Any]


class MappingRelationalView:
    """Flat LEFT-JOIN image of (the main subtree of) an XML view."""

    def __init__(self, db: Database, asg: ViewASG) -> None:
        self.db = db
        self.asg = asg
        #: relations in nesting order (outermost parent first)
        self.chain: list[str] = []
        #: join condition linking chain[i] to some earlier relation
        self.joins: dict[str, JoinCondition] = {}
        self._derive_chain()

    # ------------------------------------------------------------------

    def _derive_chain(self) -> None:
        """Order the view's relations parent-first along FK joins."""
        main = None
        for child in self.asg.root.children:
            if child.kind is NodeKind.INTERNAL:
                main = child
                break
        if main is None:
            raise UFilterError("view has no complex element to map")
        ordered: list[str] = []
        conditions: list[JoinCondition] = []

        def visit(node: ViewNode) -> None:
            edge = self.asg.incoming_edge(node)
            if edge is not None:
                conditions.extend(edge.conditions)
            for relation in sorted(self.asg.current_relations(node)):
                if relation not in ordered:
                    ordered.append(relation)
            for child in node.children:
                if child.kind is NodeKind.INTERNAL:
                    visit(child)

        visit(main)
        if not ordered:
            raise UFilterError("view maps no relations")
        # parent-first: a relation whose unique side appears in a join is
        # the parent; re-order by chasing conditions from the first
        self.chain = self._parent_first(ordered, conditions)
        for condition in conditions:
            for relation in (condition.rel_a, condition.rel_b):
                other = (
                    condition.rel_b
                    if relation == condition.rel_a
                    else condition.rel_a
                )
                if relation in self.chain and other in self.chain:
                    if self.chain.index(relation) > self.chain.index(other):
                        self.joins.setdefault(relation, condition)

    def _parent_first(
        self, relations: list[str], conditions: list[JoinCondition]
    ) -> list[str]:
        schema = self.db.schema
        parents: dict[str, set[str]] = {rel: set() for rel in relations}
        for condition in conditions:
            a, b = condition.rel_a, condition.rel_b
            if a not in parents or b not in parents:
                continue
            # the side with the unique attribute is the parent
            if schema.is_unique(a, condition.attr_a):
                parents[b].add(a)
            elif schema.is_unique(b, condition.attr_b):
                parents[a].add(b)
        ordered: list[str] = []

        def place(relation: str, trail: frozenset[str]) -> None:
            if relation in ordered or relation in trail:
                return
            for parent in sorted(parents[relation]):
                place(parent, trail | {relation})
            ordered.append(relation)

        for relation in relations:
            place(relation, frozenset())
        return ordered

    # ------------------------------------------------------------------

    @property
    def columns(self) -> list[tuple[str, str]]:
        """(relation, attribute) for every column of every chained relation."""
        out = []
        for relation in self.chain:
            for attribute in self.db.relation(relation).attribute_names:
                out.append((relation, attribute))
        return out

    def create_view_sql(self) -> str:
        """The CREATE VIEW statement of Fig. 11 (display only)."""
        select_list = ", ".join(
            f"{relation}.{attribute}" for relation, attribute in self.columns
        )
        from_clause = self.chain[0]
        for relation in self.chain[1:]:
            condition = self.joins.get(relation)
            on = str(condition) if condition else "1 = 1"
            from_clause = f"({from_clause} LEFT JOIN {relation} ON {on})"
        return (
            f"CREATE VIEW MappingView AS SELECT {select_list} "
            f"FROM {from_clause}"
        )

    def rows(self) -> list[Row]:
        """Evaluate the LEFT-JOIN view: one wide row per match."""
        results: list[Row] = []

        def extend(index: int, partial: Row) -> None:
            if index == len(self.chain):
                results.append(dict(partial))
                return
            relation = self.chain[index]
            condition = self.joins.get(relation)
            matches: list[Row] = []
            if condition is None:
                matches = self.db.rows(relation)
            else:
                # equality join against an earlier relation's value
                if condition.rel_a == relation:
                    own_attr, other = condition.attr_a, (
                        condition.rel_b, condition.attr_b
                    )
                else:
                    own_attr, other = condition.attr_b, (
                        condition.rel_a, condition.attr_a
                    )
                value = partial.get(f"{other[0]}.{other[1]}")
                if value is not None:
                    rowids = self.db.find_rowids(relation, {own_attr: value})
                    matches = [self.db.row(relation, rowid) for rowid in sorted(rowids)]
            if not matches:  # LEFT JOIN: keep the row, NULL-extend
                nulls = {
                    f"{relation}.{attribute}": None
                    for attribute in self.db.relation(relation).attribute_names
                }
                extend(index + 1, {**partial, **nulls})
                return
            for row in matches:
                extended = dict(partial)
                for attribute, value in row.items():
                    extended[f"{relation}.{attribute}"] = value
                extend(index + 1, extended)

        extend(0, {})
        return results

    # ------------------------------------------------------------------

    def plan_insert(self, view_row: Mapping[str, Any]) -> list[tuple[str, Row, str]]:
        """Decompose a full view tuple into base-table inserts, without
        touching the database: ``(relation, values, SQL)`` per insert,
        parent first.

        Standard LEFT-JOIN view-insert decomposition: walk the chain
        parent-first; per relation, skip when the keyed tuple already
        exists with consistent values, insert otherwise (an existing
        tuple with conflicting values raises :class:`UniqueViolation`).
        Keys use the ``relation.attribute`` naming of :attr:`columns`.
        """
        planned: list[tuple[str, Row, str]] = []
        for relation in self.chain:
            relation_schema = self.db.relation(relation)
            values = {
                attribute: view_row.get(f"{relation}.{attribute}")
                for attribute in relation_schema.attribute_names
            }
            if all(value is None for value in values.values()):
                continue
            key = relation_schema.primary_key
            if key is not None and all(
                values.get(column) is not None for column in key.columns
            ):
                existing = self.db.find_rowids(
                    relation, {column: values[column] for column in key.columns}
                )
                if existing:
                    current = self.db.row(relation, next(iter(existing)))
                    for attribute, value in values.items():
                        if value is not None and current.get(attribute) != value:
                            raise UniqueViolation(
                                f"internal strategy: {relation} key "
                                f"{tuple(values[c] for c in key.columns)!r} "
                                f"exists with conflicting {attribute!r}"
                            )
                    continue
            columns = ", ".join(relation_schema.attribute_names)
            rendered = ", ".join(
                sql_literal(values[attribute])
                for attribute in relation_schema.attribute_names
            )
            planned.append((
                relation, values,
                f"INSERT INTO {relation} ({columns}) VALUES ({rendered})",
            ))
        return planned

    def apply_insert(self, planned: list[tuple[str, Row, str]]) -> list[str]:
        """Run a :meth:`plan_insert` plan; returns the SQL issued."""
        for relation, values, _sql in planned:
            self.db.insert(relation, values)
        return [sql for _relation, _values, sql in planned]

    def insert(self, view_row: Mapping[str, Any]) -> list[str]:
        """Insert a full view tuple; returns the SQL issued on base tables."""
        return self.apply_insert(self.plan_insert(view_row))

    def delete(self, relation: str, equalities: Mapping[str, Any]) -> list[str]:
        """Delete base tuples of *relation* matching the view predicate."""
        if relation not in self.chain:
            raise UFilterError(f"{relation!r} is not part of the mapping view")
        rowids = self.db.find_rowids(relation, dict(equalities))
        rendered = " AND ".join(
            f"{column} = {sql_literal(value)}" for column, value in equalities.items()
        )
        self.db.delete(relation, rowids)
        return [f"DELETE FROM {relation} WHERE {rendered}"]
