import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import program  # noqa: E402


@pytest.fixture(scope="session")
def loaded():
    return program.load(BENCH_DIR.parent)
