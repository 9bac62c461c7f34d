"""Load the vanetsim under test from a source checkout.

Set-up is what every run of the program pays before useful work: import
vanetsim (with its NumPy and SciPy dependencies) and its CLI, then load and
validate the shipped fixtures.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

FIXTURES = ("twoclass", "uniform2040")


class LayoutError(RuntimeError):
    """The checkout does not hold the vanetsim sources or fixtures."""


@dataclass(frozen=True)
class Program:
    vs: ModuleType  # the vanetsim package
    docs: dict  # fixture name -> scenario document
    scenarios: dict  # fixture name -> validated Scenario
    fixture_paths: dict  # fixture name -> path of the fixture file


def check_layout(root: Path):
    missing = [
        rel
        for rel in ["src/vanetsim/__init__.py"] + [f"fixtures/{f}.json" for f in FIXTURES]
        if not (root / rel).is_file()
    ]
    if missing:
        raise LayoutError(f"not a vanetsim checkout at {root}: missing {', '.join(missing)}")


def load(root: Path) -> Program:
    """Import vanetsim from ``root/src`` and validate the fixtures."""
    check_layout(root)
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import vanetsim
    import vanetsim.cli  # noqa: F401  (the cli workload's entry point)

    if not Path(vanetsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise LayoutError(f"imported vanetsim from {vanetsim.__file__}, not from {src}")
    docs, scenarios, paths = {}, {}, {}
    for name in FIXTURES:
        path = root / "fixtures" / f"{name}.json"
        docs[name] = json.loads(path.read_text(encoding="utf-8"))
        scenarios[name] = vanetsim.scenario_from_dict(docs[name])
        paths[name] = str(path)
    return Program(vanetsim, docs, scenarios, paths)


if __name__ == "__main__":
    # One set-up, timed in a fresh interpreter: python3 program.py <checkout>
    start = time.perf_counter()
    load(Path(sys.argv[1]))
    print(repr(time.perf_counter() - start))
