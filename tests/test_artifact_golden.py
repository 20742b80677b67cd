"""The paper's exhibits, pinned byte for byte.

``tests/golden/artifacts/`` holds what ``python -m repro artifact all``
writes at seed 0: the 18 rendered tables and figures plus
``manifest.json``.  This test re-renders the exhibits that cost about a
second or less, each in a fresh ``AfSysBench.small(seed=0)``, and
compares every file with ``==``.  The other nine run the functional MSA
search and take 3-17 s each; the CI ``artifact-golden`` job pins all 18
with ``artifact all`` and ``diff -r``.

Regenerate (only on a deliberate change to an exhibit) with
``PYTHONPATH=src python -m repro artifact all --out tests/golden/artifacts``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.campaign import ARTIFACT_ORDER
from repro.core.suite import AfSysBench

GOLDEN = pathlib.Path(__file__).parent / "golden" / "artifacts"

#: Exhibits that never reach the MSA search (each under 1.1 s alone).
CHEAP = ("table1", "table2", "fig2", "fig9", "table5", "table6",
         "roofline", "section6", "whatif")


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_exhibit_matches_golden(name):
    rendered = AfSysBench.small(seed=0)._experiments()[name]()
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert rendered + "\n" == golden


def test_golden_covers_every_exhibit():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert manifest["artifacts"] == list(ARTIFACT_ORDER)
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        f"{name}.txt" for name in ARTIFACT_ORDER
    )
