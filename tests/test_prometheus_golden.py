"""The Prometheus expositions are pinned byte for byte.

Five seeded runs (serving via the CLI with and without ``--chaos``,
serving with every optional section, cluster, campaign) are rendered fresh and compared with ``==``
against the committed text under ``tests/golden/prometheus/``.  A
refactor of the exporters must leave every byte where it was.
"""

import pytest

from .prometheus_runs import EXPOSITIONS, GOLDEN_DIR, exposition


@pytest.mark.parametrize("name", sorted(EXPOSITIONS))
def test_exposition_matches_golden(name):
    assert exposition(name) == (GOLDEN_DIR / name).read_text()

