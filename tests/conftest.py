from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def absolute_fixture(data_dir) -> Path:
    return data_dir / "top_absolute_2017.csv"


@pytest.fixture(scope="session")
def relative_fixture(data_dir) -> Path:
    return data_dir / "top_relative_2017.csv"


@pytest.fixture(scope="session")
def papers_sample(data_dir) -> Path:
    return data_dir / "papers_sample.csv"


@pytest.fixture(scope="session", autouse=True)
def unicode_tables_built():
    """Draw ``st.text()`` once, before any test draws.

    The first text draw under a Unicode version that Hypothesis has no
    tables for in ``.hypothesis/`` (any fresh checkout) builds them, which
    takes seconds, and the test that draws first would fail its too_slow
    health check.  This throwaway draw pays that cost under settings of its
    own.
    """

    @settings(max_examples=1, deadline=None, database=None, suppress_health_check=list(HealthCheck))
    @given(st.text())
    def draw(text):
        pass

    draw()
