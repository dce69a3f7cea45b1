"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy mirrors the layers of the system:

* :class:`ReproError` — root of everything raised on purpose.
* :class:`DatabaseError` and its children — raised by the relational
  engine substrate (``repro.rdb``) when DDL/DML violates the schema or
  its constraints.  The *hybrid* data-checking strategy of the paper
  relies on catching these, exactly as the paper relies on the error
  codes of a commercial RDBMS.
* :class:`XMLError` / :class:`XQueryError` — raised by the XML and view
  language substrates on malformed input.
* :class:`UFilterError` — raised by the checker itself for internal
  misuse (e.g. checking an update against the wrong view).

Orthogonally to the layer hierarchy, every error is classified as
*transient* or *fatal* (:attr:`ReproError.transient`): transient errors
describe conditions a bounded retry can clear (another session's
conflicting commit, an injected fault, a stale probe cache), fatal
errors describe conditions a retry would only reproduce (constraint
violations, malformed input).  The session retry policy of
:class:`repro.core.session.UpdateSession` dispatches on this flag —
see :class:`TransientError` / :class:`FatalError`.
"""

from __future__ import annotations

from typing import Any, Iterable


class ReproError(Exception):
    """Base class for all errors raised by this package.

    :attr:`transient` is the retry-policy classification: ``True`` means
    a bounded retry may succeed (the failure came from interference or
    injected faults rather than from the data itself).  Errors default
    to non-transient — retrying a constraint violation or a syntax
    error only reproduces it.
    """

    #: retry-policy classification; see :class:`TransientError`
    transient = False


class TransientError(ReproError):
    """A failure a bounded retry can clear.

    Raised for conditions caused by *interference* rather than by the
    update itself: another committer won the race
    (:class:`ConflictError`), a deterministic fault was injected
    (:class:`repro.rdb.faults.FaultInjectedError`), a cached probe
    result went stale.  :class:`repro.core.session.UpdateSession`
    retries these with exponential backoff up to its ``retries``
    budget before the failure sticks.
    """

    transient = True


class FatalError(ReproError):
    """A failure retrying cannot clear (explicit non-retryable base).

    The complement of :class:`TransientError` for errors that want to
    state their classification explicitly rather than inherit the
    default.
    """

    transient = False


class ConflictError(TransientError):
    """Another actor's changes conflict with this update.

    The first-committer-wins signal: the tuples this update checked
    against were mutated (or will be) by a concurrent session between
    check and apply.  Transient by definition — re-checking against the
    new state may well succeed, which is exactly what the session retry
    loop does.
    """


# ---------------------------------------------------------------------------
# Relational engine errors
# ---------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for relational-engine failures."""


class SchemaError(DatabaseError):
    """DDL-level problem: unknown relation/attribute, duplicate names."""


class TypeMismatchError(DatabaseError):
    """A value does not belong to the declared domain of its attribute."""


class ConstraintViolation(DatabaseError):
    """Base class for integrity-constraint violations raised by DML."""

    #: short machine-readable code, akin to a SQLSTATE class
    code = "23000"


class NotNullViolation(ConstraintViolation):
    code = "23502"


class UniqueViolation(ConstraintViolation):
    code = "23505"


class PrimaryKeyViolation(UniqueViolation):
    code = "23505"


class ForeignKeyViolation(ConstraintViolation):
    code = "23503"


class CheckViolation(ConstraintViolation):
    code = "23514"


class TransactionError(DatabaseError):
    """Misuse of the transaction API (commit without begin, ...)."""


class SQLSyntaxError(DatabaseError):
    """Raised by the SQL lexer/parser on malformed statements."""


# ---------------------------------------------------------------------------
# XML / XQuery substrate errors
# ---------------------------------------------------------------------------

class XMLError(ReproError):
    """Malformed XML input or an invalid tree operation."""


class XPathError(XMLError):
    """Malformed or unsupported XPath expression."""


class XQueryError(ReproError):
    """Malformed view query, or a query outside the supported subset."""


class UnsupportedFeatureError(XQueryError):
    """The query uses a feature the view ASG cannot express.

    The Fig. 12 expressiveness audit is driven by this exception: the
    ASG generator raises it with :attr:`feature` naming the offending
    construct (``count()``, ``distinct()``, ...).
    """

    def __init__(self, feature: str, message: str | None = None) -> None:
        self.feature = feature
        super().__init__(message or f"feature not expressible in a view ASG: {feature}")


class UpdateSyntaxError(XQueryError):
    """Malformed view-update statement."""


# ---------------------------------------------------------------------------
# U-Filter core errors
# ---------------------------------------------------------------------------

class UFilterError(ReproError):
    """Internal misuse of the U-Filter pipeline."""


class QAError(UFilterError):
    """A post-translation QA audit surfaced ERROR-severity findings.

    Raised by :func:`repro.core.qa.raise_on_error` when a translated
    plan fails a semantic audit (duplication consistency, insert
    ordering, minimized-delete safety, relation scope); carries the
    structured findings on :attr:`findings`.

    Transiency is *accurate*, not blanket: the error is transient iff
    every finding is a ``stale-rowid`` signature — a plan built from a
    stale probe cache, which clearing the cache and re-checking fixes.
    Any other ERROR finding describes the plan itself and retrying the
    same translation would only reproduce it.
    """

    def __init__(self, findings: Iterable[Any]) -> None:
        self.findings = list(findings)
        lines = "; ".join(f.describe() for f in self.findings[:3])
        extra = len(self.findings) - 3
        if extra > 0:
            lines += f" (+{extra} more)"
        super().__init__(f"QA audit failed: {lines}")

    @property
    def transient(self) -> bool:  # type: ignore[override]
        # keep the string in sync with repro.core.qa.CHECK_STALE_ROWID
        # (imported lazily to avoid an errors -> core cycle)
        return bool(self.findings) and all(
            getattr(finding, "check", None) == "stale-rowid"
            for finding in self.findings
        )


class PlanVerificationError(FatalError):
    """The plan-IR verifier rejected a lowered physical tree.

    Raised by :func:`repro.analysis.planlint.verify_or_raise` when the
    ``db.verify_plans`` debug hook is armed and a lowered operator
    tree violates a structural invariant (unbound column, double-used
    leaf, join-key type mismatch, estimate above its input bound, ...).

    Fatal, never transient: the tree is a deterministic function of
    the logical plan and the schema, so re-lowering reproduces the
    same violation.  Carries the finding descriptions on
    :attr:`findings` and the offending tree's ``explain()`` text on
    :attr:`plan_text`.
    """

    def __init__(self, findings: Iterable[str], plan_text: str = "") -> None:
        self.findings = list(findings)
        self.plan_text = plan_text
        lines = "; ".join(self.findings[:3])
        extra = len(self.findings) - 3
        if extra > 0:
            lines += f" (+{extra} more)"
        super().__init__(f"plan verification failed: {lines}")


class UpdateTimeoutError(FatalError):
    """A session update exceeded its per-update time budget.

    Fatal, not transient: retrying work that already blew its budget
    would blow it again.  The session's graceful-degradation policy
    (abort-batch / skip-update / commit-prefix) decides what happens to
    the rest of the batch.
    """
