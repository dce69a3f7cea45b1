"""A Protein Sequence Database (PSD) scenario (Section 7.3).

The paper studied PIR's Protein Sequence Database with a biologist and
observed two things that break the assumptions of earlier view-update
work:

1. views are often **not well-nested** — nesting does not follow the
   key/foreign-key direction (here: each ``<reference>`` element embeds
   its *entry*, the reverse of the FK);
2. the **delete SET NULL policy** is typical, not CASCADE.

U-Filter handles both: the ASG builder accepts arbitrary nesting, and
the base-ASG closure honours the per-FK policy (a SET NULL child does
not join its parent's deletion closure).  This module builds a
synthetic PSD-like database and view exercising exactly those paths.
"""

from __future__ import annotations

import random

from ..rdb import Database, Schema, SQLEngine, parse_script
from ..xquery import ViewQuery, ViewUpdate, parse_view_query, parse_view_update

__all__ = [
    "PSD_DDL",
    "build_psd_database",
    "psd_view",
    "delete_feature_update",
    "delete_entry_of_reference",
    "insert_feature_update",
]

PSD_DDL = """
CREATE TABLE entry(
    eid VARCHAR2(12),
    protein_name VARCHAR2(120) NOT NULL,
    organism VARCHAR2(80),
    seq_length INTEGER CHECK (seq_length > 0),
    CONSTRAINT EntryPK PRIMARY KEY (eid));

CREATE TABLE reference(
    rid VARCHAR2(12),
    eid VARCHAR2(12),
    title VARCHAR2(200) NOT NULL,
    journal VARCHAR2(80),
    CONSTRAINT ReferencePK PRIMARY KEY (rid),
    FOREIGN KEY (eid) REFERENCES entry (eid) ON DELETE SET NULL);

CREATE TABLE feature(
    fid VARCHAR2(12),
    eid VARCHAR2(12),
    ftype VARCHAR2(40) NOT NULL,
    location VARCHAR2(40),
    CONSTRAINT FeaturePK PRIMARY KEY (fid),
    FOREIGN KEY (eid) REFERENCES entry (eid) ON DELETE CASCADE);
"""

_ORGANISMS = ["H. sapiens", "M. musculus", "E. coli", "S. cerevisiae"]
_FEATURE_TYPES = ["DOMAIN", "BINDING", "ACT_SITE", "MOD_RES"]
_JOURNALS = ["J Biol Chem", "Nature", "Science", "NAR"]


def build_psd_database(entries: int = 20, seed: int = 11) -> Database:
    """A synthetic PSD-like database (deterministic per seed)."""
    rng = random.Random(seed)
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script(PSD_DDL):
        engine.execute(statement)
    # an entry, its references and its features draw from the rng in
    # turn: collect the three relations in that order, then load each
    # with one statement
    entry_rows: list[dict] = []
    references: list[dict] = []
    features: list[dict] = []
    for index in range(entries):
        eid = f"P{index:05d}"
        entry_rows.append({
            "eid": eid,
            "protein_name": f"Protein {index}",
            "organism": _ORGANISMS[index % len(_ORGANISMS)],
            "seq_length": rng.randint(80, 2000),
        })
        for _ in range(rng.randint(1, 3)):
            references.append({
                "rid": f"R{len(references):05d}",
                "eid": eid,
                "title": f"Characterization of protein {index}",
                "journal": rng.choice(_JOURNALS),
            })
        for _ in range(rng.randint(0, 4)):
            features.append({
                "fid": f"F{len(features):05d}",
                "eid": eid,
                "ftype": rng.choice(_FEATURE_TYPES),
                "location": f"{rng.randint(1, 500)}..{rng.randint(501, 999)}",
            })
    db.load("entry", entry_rows)
    db.load("reference", references)
    db.load("feature", features)
    return db


def psd_view() -> ViewQuery:
    """A non-well-nested PSD view.

    ``<citation>`` elements nest their *entry* inside — the reverse of
    the FK direction (reference → entry), which the well-nested views
    of prior work cannot express.  ``<protein>`` elements nest features
    along the FK as usual.
    """
    return parse_view_query(
        """
<PSDView>
FOR $e IN document("default.xml")/entry/row
RETURN {
    <protein>
        $e/eid, $e/protein_name, $e/organism,
        FOR $f IN document("default.xml")/feature/row
        WHERE $f/eid = $e/eid
        RETURN {
            <feature>
                $f/ftype, $f/location
            </feature>}
    </protein>},
FOR $r IN document("default.xml")/reference/row,
    $e2 IN document("default.xml")/entry/row
WHERE $r/eid = $e2/eid
RETURN {
    <citation>
        $r/rid, $r/title, $r/journal,
        <about>
            $e2/eid, $e2/protein_name
        </about>
    </citation>}
</PSDView>
"""
    )


def delete_feature_update(ftype: str = "DOMAIN") -> ViewUpdate:
    """Delete every feature of a protein entry (safe, translatable)."""
    return parse_view_update(
        f"""
        FOR $p IN document("PSDView.xml")/protein,
            $f IN $p/feature
        WHERE $f/ftype/text() = "{ftype}"
        UPDATE $p {{
            DELETE $f }}
        """,
        name=f"psd-delete-feature-{ftype}",
    )


def delete_entry_of_reference(rid: str) -> ViewUpdate:
    """Delete the embedded entry of a citation — untranslatable: the
    entry is republished under <protein>."""
    return parse_view_update(
        f"""
        FOR $c IN document("PSDView.xml")/citation
        WHERE $c/rid/text() = "{rid}"
        UPDATE $c {{
            DELETE $c/about }}
        """,
        name=f"psd-delete-about-{rid}",
    )


def insert_feature_update(eid: str, ftype: str = "DOMAIN") -> ViewUpdate:
    """Insert a feature under one protein (translatable)."""
    return parse_view_update(
        f"""
        FOR $p IN document("PSDView.xml")/protein
        WHERE $p/eid/text() = "{eid}"
        UPDATE $p {{
        INSERT
            <feature>
                <ftype>{ftype}</ftype>
                <location>1..99</location>
            </feature>}}
        """,
        name=f"psd-insert-feature-{eid}",
    )
