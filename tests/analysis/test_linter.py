"""Tests for the repo invariant linter (``repro lint``).

Each fixture under ``fixtures/`` seeds exactly one violation of one
rule; linting the fixture alone must yield exactly that finding.  The
meta-test at the bottom runs the full rule set over the live source
tree and requires zero findings — the linter is only trustworthy if
the repo it guards stays clean under it.
"""

import json
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.analysis import lint_paths, lint_source
from repro.analysis.findings import SEVERITY_ERROR

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LIVE_SOURCE_ROOT = Path(repro.__file__).resolve().parent


# ---------------------------------------------------------------------------
# one seeded violation per rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture, rule_id",
    [
        ("rep001_journal_order.py", "REP001"),
        ("rep002_missing_site.py", "REP002"),
        ("rep002_batch_index_site.py", "REP002"),
        ("rep003_bare_except.py", "REP003"),
        ("session.py", "REP003"),
        ("rep004_version_bump.py", "REP004"),
        ("rep005_retry_taxonomy.py", "REP005"),
    ],
)
def test_fixture_fires_exactly_once(fixture, rule_id):
    report = lint_paths([FIXTURES / fixture])
    assert len(report.findings) == 1, report.describe()
    finding = report.findings[0]
    assert finding.rule == rule_id
    assert finding.severity == SEVERITY_ERROR
    assert finding.path.endswith(fixture)
    assert not report.ok
    assert report.exit_code == 1


def test_clean_fixture_has_no_findings():
    report = lint_paths([FIXTURES / "clean.py"])
    assert report.findings == []
    assert report.suppressed == []
    assert report.ok
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# suppression tags
# ---------------------------------------------------------------------------

def test_allow_tag_suppresses_but_is_counted():
    report = lint_paths([FIXTURES / "suppressed.py"])
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "REP003"
    assert report.ok


def test_allow_tag_on_finding_line_itself():
    source = (
        "try:\n"
        "    pass\n"
        "except:  # repro: allow[REP003]\n"
        "    pass\n"
    )
    report = lint_source(source, rule_ids=["REP003"])
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_allow_tag_accepts_comma_separated_rule_ids():
    source = (
        "try:\n"
        "    pass\n"
        "# repro: allow[REP001, REP003]\n"
        "except:\n"
        "    pass\n"
    )
    report = lint_source(source, rule_ids=["REP003"])
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_allow_tag_for_other_rule_does_not_suppress():
    source = (
        "try:\n"
        "    pass\n"
        "# repro: allow[REP001]\n"
        "except:\n"
        "    pass\n"
    )
    report = lint_source(source, rule_ids=["REP003"])
    assert len(report.findings) == 1
    assert report.suppressed == []


def test_allow_tag_two_lines_above_does_not_suppress():
    # the tag must sit on the finding line or directly above it
    source = (
        "try:\n"
        "    pass\n"
        "# repro: allow[REP003]\n"
        "# an intervening comment breaks the association\n"
        "except:\n"
        "    pass\n"
    )
    report = lint_source(source, rule_ids=["REP003"])
    assert len(report.findings) == 1


# ---------------------------------------------------------------------------
# rule-specific details
# ---------------------------------------------------------------------------

def test_rep001_missing_journal_entirely():
    source = (
        "class Storage:\n"
        "    def _physical_delete(self, table, rowid):\n"
        "        table.delete_row(rowid)\n"
    )
    report = lint_source(source, rule_ids=["REP001"])
    assert len(report.findings) == 1
    assert "journal" in report.findings[0].detail


def test_rep002_duplicate_site_names_across_methods():
    source = (
        "class Table:\n"
        "    def insert_row(self, row):\n"
        '        self.faults.hit("dup.site", self.relation_name)\n'
        "        self.rows.append(row)\n"
        "\n"
        "    def delete_row(self, rowid):\n"
        '        self.faults.hit("dup.site", self.relation_name)\n'
        "        self.rows.pop(rowid)\n"
    )
    report = lint_source(source, rule_ids=["REP002"])
    assert len(report.findings) == 1
    assert "dup.site" in report.findings[0].detail


def test_rep002_covers_the_batch_index_primitives():
    """``HashIndex.add_rows`` / ``remove_rows`` must each open with a
    fault site of their own, like the single-row primitives."""
    source = (
        "class HashIndex:\n"
        "    def add_rows(self, rows):\n"
        '        self.faults.hit("index.add", self.relation_name)\n'
        "\n"
        "    def add(self, rowid, row):\n"
        '        self.faults.hit("index.add", self.relation_name)\n'
        "\n"
        "    def remove_rows(self, rows):\n"
        "        self.entries.clear()\n"
    )
    report = lint_source(source, rule_ids=["REP002"])
    details = sorted(finding.detail for finding in report.findings)
    assert len(details) == 2, report.describe()
    assert "HashIndex.remove_rows must open" in details[1]
    assert "'index.add'" in details[0] and "already used" in details[0]


def test_rep003_reraising_handler_is_fine_on_apply_path():
    source = (
        "def apply(op):\n"
        "    try:\n"
        "        op()\n"
        "    except Exception:\n"
        "        raise\n"
    )
    report = lint_source(source, path="session.py", rule_ids=["REP003"])
    assert report.findings == []


def test_rep003_swallowing_handler_ok_off_apply_path():
    source = (
        "def probe(op):\n"
        "    try:\n"
        "        op()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    report = lint_source(source, path="diagnostics.py", rule_ids=["REP003"])
    assert report.findings == []


def test_rep004_unbumped_schema_drop_relation():
    source = (
        "class Database:\n"
        "    def drop_table(self, name):\n"
        "        self.schema.drop_relation(name)\n"
    )
    report = lint_source(source, rule_ids=["REP004"])
    assert len(report.findings) == 1
    assert "schema_versions" in report.findings[0].detail


def test_rep005_transient_names_are_accepted():
    source = (
        "def run(check, result, attempt):\n"
        "    try:\n"
        "        return check()\n"
        "    except (TransientError, ConflictError):\n"
        "        result.retries_used += 1\n"
    )
    report = lint_source(source, rule_ids=["REP005"])
    assert report.findings == []


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError):
        lint_source("x = 1\n", rule_ids=["REP999"])


# ---------------------------------------------------------------------------
# the live tree must be clean under its own linter
# ---------------------------------------------------------------------------

def test_live_tree_is_clean():
    report = lint_paths([LIVE_SOURCE_ROOT])
    assert report.findings == [], report.describe()
    assert report.files_checked > 50
    # every suppression in the tree is deliberate and annotated
    assert all(f.rule in ("REP003", "REP004") for f in report.suppressed)
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_lint_exits_zero_on_live_tree(capsys):
    rc = cli.main(["lint"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 finding(s)" in out


def test_cli_lint_json_output(tmp_path, capsys):
    target = tmp_path / "findings.json"
    rc = cli.main(["lint", str(FIXTURES / "rep003_bare_except.py"),
                   "--json", str(target)])
    capsys.readouterr()
    assert rc == 1
    payload = json.loads(target.read_text())
    assert payload["findings"][0]["rule"] == "REP003"
    assert payload["files_checked"] == 1
    assert payload["ok"] is False


def test_cli_lint_unknown_rule_is_usage_error(capsys):
    rc = cli.main(["lint", "--rules", "REP999"])
    assert rc == 2
    assert "REP999" in capsys.readouterr().err
