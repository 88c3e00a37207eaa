"""The documented oracle list is the battery, row for row.

``docs/fuzzing.md`` ("The oracle list") and ``docs/ARCHITECTURE.md``
§9 each describe the conformance battery as a table with one row per
oracle.  Rows get added and deleted as layers change; this keeps both
tables naming every oracle of :data:`repro.fuzz.conform.BATTERY` (the
opt-in ``batch_chaos`` row included) in the order the battery runs
them.
"""

import os
import re

import pytest

from repro.fuzz.conform import CHAOS_ORACLE, ORACLES

DOCS = os.path.join(os.path.dirname(__file__), "..", "..", "docs")

#: A table row whose first cell is one backticked name.
_ROW = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)


def _section(document, heading):
    with open(os.path.join(DOCS, document), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("\n## %s\n" % heading)
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


@pytest.mark.parametrize("document, heading", [
    ("fuzzing.md", "The oracle list"),
    ("ARCHITECTURE.md", "9. Verification layers"),
])
def test_doc_names_every_oracle_in_battery_order(document, heading):
    section = _section(document, heading)
    assert ORACLES[0] == "interpreter"
    assert "`interpreter`" in section
    assert _ROW.findall(section) == list(ORACLES[1:]) + [CHAOS_ORACLE]
