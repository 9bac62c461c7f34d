"""Pinned ``download-time`` reports.

``tests/data/download_time_reports.json`` holds, for every case below, the
exit code, the stdout report without its ``wall_time`` line and the stderr
of ``vanetsim download-time``, recorded from the implementation that ran one
trial at a time. Running ``python tests/test_download_time_reports.py``
records them again from the ``vanetsim`` on the import path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from vanetsim import encounters
from vanetsim.fountain import FileSpec

from pinned_reports import fixture_docs, record, run_case, write_scenarios

DATA = Path(__file__).resolve().parent / "data" / "download_time_reports.json"

# fixed --observer-v per fixture
FIXED_OBSERVER = {"twoclass": "20", "uniform2040": "30"}


def _scenario_docs() -> dict[str, dict]:
    docs = fixture_docs(*FIXED_OBSERVER)
    # slower packet rates: decodes that span segments and need crossings
    docs["twoclass-500"] = dict(docs["twoclass"], bit_rate=500.0)
    docs["uniform2040-5000"] = dict(docs["uniform2040"], bit_rate=5000.0)
    # no traffic; a v=20 observer gets 2 station packets a segment, v=25 gets 1
    docs["starved"] = dict(docs["twoclass"], **{"lambda": 0.0, "r": 0.9})
    return docs


def _case(scenario: str, k: int, seed: int, trials: int, observer=None, scheme="uniform"):
    argv = ["download-time", scenario, "--K", str(k), "--seed", str(seed), "--trials", str(trials)]
    if scheme != "uniform":
        argv += ["--scheme", scheme]
    if observer is not None:
        argv += ["--observer-v", observer]
    return " ".join(argv[1:]), argv


def _cases() -> dict[str, list[str]]:
    cases = []
    for fixture, fixed in FIXED_OBSERVER.items():
        for scheme in ("uniform", "lt"):
            for k in (1, 40, 100, 256):
                cases.append(_case(fixture, k, 1, 10, None, scheme))
                cases.append(_case(fixture, k, 2, 1, fixed, scheme))
                cases.append(_case(fixture, k, 3, 100 if k < 256 else 30, None, scheme))
                cases.append(_case(fixture, k, 1, 10, fixed, scheme))
    for scheme in ("uniform", "lt"):
        for seed in (1, 2, 3):
            cases.append(_case("twoclass-500", 40, seed, 10, None, scheme))
            cases.append(_case("uniform2040-5000", 100, seed, 10, None, scheme))
    cases.append(_case("twoclass", 100, 5, 1000))  # several chunks
    cases.append(_case("uniform2040", 40, 6, 600, None, "lt"))
    for seed in (1, 2, 3):  # exit 3: NoProgressError of the first trial
        cases.append(_case("starved", 2500, seed, 3))
    cases.append(_case("starved", 1500, 2, 3))  # trial 0 decodes, a later one fails
    return dict(cases)


CASES = _cases()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return write_scenarios(_scenario_docs(), tmp_path_factory.mktemp("scenarios"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_pinned_cases_cover_the_data(pinned):
    assert sorted(pinned) == sorted(CASES)
    codes = [entry["code"] for entry in pinned.values()]
    assert codes.count(3) == 4 and codes.count(2) == 8  # the starved runs; LT at K=1
    messages = {pinned[case]["stderr"] for case in CASES if case.startswith("starved --K 2500")}
    assert len(messages) == 2  # which class the first trial drew decides the rank


@pytest.mark.parametrize("case", sorted(CASES))
def test_download_time_report_is_pinned(case, scenario_dir, pinned):
    assert run_case(CASES[case], scenario_dir) == pinned[case]


def test_a_pinned_run_spans_several_chunks():
    assert "twoclass --K 100 --seed 5 --trials 1000" in CASES
    assert 1000 >= 4 * encounters.download_chunk_trials(FileSpec(100, 64))


@pytest.mark.parametrize(
    "case",
    [
        "twoclass --K 100 --seed 3 --trials 100",
        "twoclass-500 --K 40 --seed 2 --trials 10 --scheme lt",
        "uniform2040-5000 --K 100 --seed 1 --trials 10",
        "uniform2040 --K 256 --seed 3 --trials 30",
    ],
)
def test_small_chunks_give_the_pinned_report(case, scenario_dir, pinned, monkeypatch):
    # chunks of one trial run the same trials as the default chunks
    monkeypatch.setattr(encounters, "DOWNLOAD_CHUNK_BYTES", 1)
    assert run_case(CASES[case], scenario_dir) == pinned[case]


if __name__ == "__main__":
    record(DATA, _scenario_docs(), CASES)
