"""Relational schema model: attributes, relations, and whole schemas.

Besides holding DDL metadata, :class:`Schema` provides the schema-level
queries the U-Filter core needs:

* uniqueness of an attribute (Rule 1's *proper join* test),
* the ``extend(R)`` set — relations that (transitively) reference ``R``
  through foreign keys (Rule 2),
* per-attribute local constraints (Step 1 validation),
* foreign-key edges for the base ASG.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..errors import SchemaError
from .constraints import (
    Check,
    Constraint,
    DeletePolicy,
    ForeignKey,
    NotNull,
    PrimaryKey,
    Unique,
)
from .expr import Expr
from .types import SQLType, type_from_name

__all__ = ["Attribute", "Relation", "Schema"]


class Attribute:
    """A named, typed column of a relation."""

    def __init__(self, name: str, sql_type: SQLType | str) -> None:
        if isinstance(sql_type, str):
            sql_type = type_from_name(sql_type)
        self.name = name
        self.sql_type = sql_type

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Attribute({self.name}: {self.sql_type.name})"


class Relation:
    """A relation schema: ordered attributes plus its constraints."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        constraints: Iterable[Constraint] = (),
    ) -> None:
        self.name = name
        #: True for session-materialized temp tables, whose declared
        #: VARCHAR columns hold raw untyped values (type-dependent
        #: static checks must skip them)
        self.temp = False
        self.attributes: dict[str, Attribute] = {}
        for attribute in attributes:
            if attribute.name in self.attributes:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in relation {name!r}"
                )
            self.attributes[attribute.name] = attribute
        self.constraints: list[Constraint] = []
        #: not_null_columns memo, cleared whenever a constraint is added
        self._not_null: Optional[tuple[str, ...]] = None
        for constraint in constraints:
            self.add_constraint(constraint)

    # -- construction -------------------------------------------------------

    def add_constraint(self, constraint: Constraint) -> None:
        for column in self._constraint_columns(constraint):
            if column not in self.attributes:
                raise SchemaError(
                    f"constraint on unknown column {column!r} of {self.name!r}"
                )
        constraint.relation_name = self.name
        self.constraints.append(constraint)
        self._not_null = None

    @staticmethod
    def _constraint_columns(constraint: Constraint) -> tuple[str, ...]:
        if isinstance(constraint, NotNull):
            return (constraint.column,)
        if isinstance(constraint, (Unique, ForeignKey)):
            return tuple(constraint.columns)
        if isinstance(constraint, Check):
            return tuple(column for _, column in constraint.expression.columns())
        return ()

    # -- lookups -------------------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.attributes)

    def attribute(self, name: str) -> Attribute:
        try:
            return self.attributes[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {name!r}"
            ) from None

    @property
    def primary_key(self) -> Optional[PrimaryKey]:
        for constraint in self.constraints:
            if isinstance(constraint, PrimaryKey):
                return constraint
        return None

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        return [c for c in self.constraints if isinstance(c, ForeignKey)]

    @property
    def unique_constraints(self) -> list[Unique]:
        """All uniqueness constraints (PRIMARY KEY included)."""
        return [c for c in self.constraints if isinstance(c, Unique)]

    @property
    def check_constraints(self) -> list[Check]:
        return [c for c in self.constraints if isinstance(c, Check)]

    def not_null_columns(self) -> tuple[str, ...]:
        """Columns that may not be NULL (explicit NOT NULL or key member),
        in declared attribute order."""
        if self._not_null is None:
            columns = {c.column for c in self.constraints if isinstance(c, NotNull)}
            key = self.primary_key
            if key is not None:
                columns.update(key.columns)
            self._not_null = tuple(
                name for name in self.attributes if name in columns
            )
        return self._not_null

    def is_unique_column(self, column: str) -> bool:
        """True iff *column* alone is a unique identifier of this relation.

        This is the test Rule 1 of the STAR marking procedure applies to
        the attribute on the "one" side of a join condition.
        """
        self.attribute(column)
        return any(
            len(constraint.columns) == 1 and constraint.columns[0] == column
            for constraint in self.unique_constraints
        )

    def checks_for_column(self, column: str) -> list[Expr]:
        """CHECK expressions that mention *column*."""
        out = []
        for constraint in self.check_constraints:
            mentioned = {name for _, name in constraint.expression.columns()}
            if column in mentioned:
                out.append(constraint.expression)
        return out

    def ddl(self) -> str:
        """Render CREATE TABLE text (documentation / debugging)."""
        parts = [
            f"  {attr.name} {attr.sql_type.name}" for attr in self.attributes.values()
        ]
        parts.extend(f"  {constraint.describe()}" for constraint in self.constraints)
        body = ",\n".join(parts)
        return f"CREATE TABLE {self.name} (\n{body}\n)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}: {', '.join(self.attribute_names)})"


class Schema:
    """A set of relations with cross-relation foreign keys."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self.relations: dict[str, Relation] = {}
        #: foreign_keys_into memo, cleared whenever a relation comes or goes
        self._fks_into: dict[str, tuple[ForeignKey, ...]] = {}
        for relation in relations:
            self.add_relation(relation)
        self._validate_foreign_keys()

    def add_relation(self, relation: Relation) -> None:
        if relation.name in self.relations:
            raise SchemaError(f"duplicate relation {relation.name!r}")
        self.relations[relation.name] = relation
        self._fks_into.clear()

    def drop_relation(self, name: str) -> None:
        """Forget relation *name* (a no-op when it is unknown)."""
        self.relations.pop(name, None)
        self._fks_into.clear()

    def _validate_foreign_keys(self) -> None:
        for relation in self.relations.values():
            for fk in relation.foreign_keys:
                if fk.ref_relation not in self.relations:
                    raise SchemaError(
                        f"foreign key of {relation.name!r} references unknown "
                        f"relation {fk.ref_relation!r}"
                    )
                target = self.relations[fk.ref_relation]
                for column in fk.ref_columns:
                    target.attribute(column)

    # -- lookups -------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def foreign_keys_into(self, name: str) -> tuple[ForeignKey, ...]:
        """Foreign keys (of any relation) that reference relation *name*."""
        fks = self._fks_into.get(name)
        if fks is None:
            self.relation(name)
            fks = self._fks_into[name] = tuple(
                fk
                for relation in self.relations.values()
                for fk in relation.foreign_keys
                if fk.ref_relation == name
            )
        return fks

    def referencing_relations(self, name: str) -> set[str]:
        """Names of relations with a direct FK into *name*."""
        return {fk.relation_name for fk in self.foreign_keys_into(name)}

    def extend(self, name: str, within: Optional[set[str]] = None) -> set[str]:
        """The paper's ``extend(R)``: R plus its transitive referrers.

        When *within* is given (``rel(DEF_V)`` in Rule 2), the result is
        intersected with it, but the FK chase itself still walks the full
        schema so indirect referrers routed through out-of-view relations
        are found.
        """
        closure = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for referrer in self.referencing_relations(current):
                if referrer not in closure:
                    closure.add(referrer)
                    frontier.append(referrer)
        if within is not None:
            closure &= set(within) | {name}
        return closure

    def delete_policy(self, referrer: str, referenced: str) -> Optional[DeletePolicy]:
        """Delete policy of the FK from *referrer* into *referenced*."""
        for fk in self.relation(referrer).foreign_keys:
            if fk.ref_relation == referenced:
                return fk.on_delete
        return None

    def is_unique(self, relation_name: str, column: str) -> bool:
        return self.relation(relation_name).is_unique_column(column)

    def ddl(self) -> str:
        return ";\n\n".join(relation.ddl() for relation in self.relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({', '.join(self.relations)})"
