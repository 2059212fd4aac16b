"""Session fixtures for the SQL battery: one engine DB, its sqlite mirror."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.bench.harness import oracle_for
from repro.bench.tpch_tiny import build_tpch_tiny


@pytest.fixture(scope="session")
def battery_db():
    return build_tpch_tiny()


@pytest.fixture(scope="session")
def oracle(battery_db):
    with closing(oracle_for(battery_db)) as conn:
        yield conn
