"""Pinned ``simulate`` and ``compare`` reports.

``tests/data/trip_reports.json`` holds, for every case below, the exit
code, the stdout report without its ``wall_time`` line and the stderr of
``vanetsim simulate`` or ``vanetsim compare``, recorded from the
implementation that selected crossers through boolean masks. Running
``python tests/test_trip_reports.py`` records them again from the
``vanetsim`` on the import path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pinned_reports import fixture_docs, record, run_case, write_scenarios

DATA = Path(__file__).resolve().parent / "data" / "trip_reports.json"


def _scenario_docs() -> dict[str, dict]:
    docs = fixture_docs("twoclass", "uniform2040")
    # discrete traffic in both directions: the lookback sampler's v e - d shift
    classes = [{"v": 20.0, "p": 0.4}, {"v": 25.0, "p": 0.4}, {"v": -30.0, "p": 0.2}]
    docs["twoclass-reverse"] = dict(docs["twoclass"], velocity={"type": "discrete", "classes": classes})
    return docs


def _cases() -> dict[str, list[str]]:
    argvs = []
    for seed in (1, 2, 3):
        # the cli benchmark's near-stationary observer: trips of ~50,000 crossers, chunks of one
        argvs.append(["simulate", "uniform2040", "--observer-v", "0.02", "--trials", "50", "--seed", str(seed)])
        # the default observer, 30, inside the band: both pieces are tails
        argvs.append(["simulate", "uniform2040", "--trials", "2000", "--seed", str(seed)])
        argvs.append(["simulate", "twoclass-reverse", "--trials", "2000", "--seed", str(seed)])
        argvs.append(["simulate", "twoclass-reverse", "--observer-v", "25", "--trials", "500", "--seed", str(seed)])
        argvs.append(["compare", "twoclass-reverse", "--trials", "1000", "--seed", str(seed)])
        argvs.append(["compare", "twoclass", "--trials", "1000", "--seed", str(seed)])
    argvs.append(["compare", "uniform2040", "--trials", "1000"])  # the cli benchmark's compare
    for seed in (1, 2):
        argvs.append(["compare", "uniform2040", "--trials", "1000", "--seed", str(seed)])
    argvs.append(["simulate", "uniform2040", "--observer-v", "30", "--trials", "2"])  # one trip a chunk
    return {" ".join(argv): argv for argv in argvs}


CASES = _cases()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return write_scenarios(_scenario_docs(), tmp_path_factory.mktemp("scenarios"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_pinned_cases_cover_the_data(pinned):
    assert sorted(pinned) == sorted(CASES)
    assert all(entry["code"] == 0 and entry["stderr"] == "" for entry in pinned.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trip_report_is_pinned(case, scenario_dir, pinned):
    assert run_case(CASES[case], scenario_dir) == pinned[case]


if __name__ == "__main__":
    record(DATA, _scenario_docs(), CASES)
