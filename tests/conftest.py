"""Shared pytest fixtures.

The ``src`` directory is added to ``sys.path`` so the suite also runs in
environments where the editable install could not be performed (the package
is pure Python, so importing straight from the source tree is equivalent).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datastore import Catalog, DataSource  # noqa: E402
from repro.datasets import build_gbco, build_interpro_go  # noqa: E402
from repro.graph import SearchGraph  # noqa: E402


@pytest.fixture(scope="session")
def upgrade_session():
    """``scripts/upgrade_session.py``, the offline converter of older session formats."""
    spec = importlib.util.spec_from_file_location(
        "upgrade_session", _SRC.parent / "scripts" / "upgrade_session.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "memory_engine_internals: asserts Python-join-engine internals "
        "(scan/join-index counters) "
        "that SQL pushdown legitimately bypasses; skipped when "
        "REPRO_BACKEND selects a pushdown-capable backend",
    )
    config.addinivalue_line(
        "markers",
        "fault_injection: deterministic fault-injection tests (scripted "
        "tests/faults_harness.py FaultPlan schedules, injected clocks — no "
        "timing dependence), the QServer state machine and chaos scenario "
        "included; they run in the tier-1 matrix on every backend",
    )


def pytest_runtest_setup(item):
    env_backend = os.environ.get("REPRO_BACKEND", "").strip()
    if env_backend not in ("", "memory") and item.get_closest_marker(
        "memory_engine_internals"
    ):
        pytest.skip(f"asserts memory-engine internals (REPRO_BACKEND={env_backend})")


@pytest.fixture()
def mini_catalog() -> Catalog:
    """A tiny two-source catalog used by most unit tests.

    ``go.term`` and ``interpro.interpro2go`` share GO accession values;
    ``interpro.entry`` joins to ``interpro.interpro2go`` by foreign key.
    """
    go = DataSource.build(
        "go",
        {"term": ["acc", "name"]},
        data={
            "term": [
                {"acc": "GO:0001", "name": "plasma membrane"},
                {"acc": "GO:0002", "name": "nucleus"},
                {"acc": "GO:0003", "name": "kinase activity"},
            ]
        },
    )
    interpro = DataSource.build(
        "interpro",
        {
            "interpro2go": ["go_id", "entry_ac"],
            "entry": ["entry_ac", "name"],
            "pub": ["pub_id", "title"],
            "entry2pub": ["entry_ac", "pub_id"],
        },
        data={
            "interpro2go": [
                {"go_id": "GO:0001", "entry_ac": "IPR001"},
                {"go_id": "GO:0002", "entry_ac": "IPR002"},
            ],
            "entry": [
                {"entry_ac": "IPR001", "name": "Kinase domain"},
                {"entry_ac": "IPR002", "name": "Zinc finger"},
            ],
            "pub": [
                {"pub_id": "P1", "title": "Kinase domain structure"},
                {"pub_id": "P2", "title": "Zinc finger review"},
            ],
            "entry2pub": [
                {"entry_ac": "IPR001", "pub_id": "P1"},
                {"entry_ac": "IPR002", "pub_id": "P2"},
            ],
        },
        foreign_keys=[
            ("interpro2go", "entry_ac", "entry", "entry_ac"),
            ("entry2pub", "entry_ac", "entry", "entry_ac"),
            ("entry2pub", "pub_id", "pub", "pub_id"),
        ],
    )
    return Catalog([go, interpro])


@pytest.fixture()
def mini_graph(mini_catalog: Catalog) -> SearchGraph:
    """Search graph over :func:`mini_catalog` with one cross-source association."""
    graph = SearchGraph()
    graph.add_catalog(mini_catalog)
    graph.add_association(
        "go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9}
    )
    return graph


@pytest.fixture(scope="session")
def interpro_go_dataset():
    """The full InterPro–GO-like dataset (session-scoped; generation is deterministic)."""
    return build_interpro_go()


@pytest.fixture(scope="session")
def gbco_dataset():
    """The GBCO-like dataset (session-scoped)."""
    return build_gbco(rows_per_relation=30)
