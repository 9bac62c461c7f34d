"""Record and compare pinned ``vanetsim`` reports.

A case is an argv ``[command, scenario, *options]``. Its report is the exit
code, the stdout without its ``wall_time`` line and the stderr of
``vanetsim`` run with ``<scenario>.json`` from a directory of scenario
documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from vanetsim.cli import main

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


def fixture_docs(*names: str) -> dict[str, dict]:
    return {name: json.loads((FIXTURE_DIR / f"{name}.json").read_text()) for name in names}


def run_case(argv: list[str], scenario_dir: Path) -> dict:
    command, scenario, *rest = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(scenario_dir / f"{scenario}.json"), *rest])
    text = "".join(line for line in out.getvalue().splitlines(True) if '"wall_time"' not in line)
    return {"code": code, "stdout": text, "stderr": err.getvalue()}


def write_scenarios(docs: dict[str, dict], scenario_dir: Path) -> Path:
    for name, doc in docs.items():
        (scenario_dir / f"{name}.json").write_text(json.dumps(doc))
    return scenario_dir


def record(data: Path, docs: dict[str, dict], cases: dict[str, list[str]]) -> None:
    """Write the reports of ``cases`` from the ``vanetsim`` on the import path to ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario_dir = write_scenarios(docs, Path(tmp))
        reports = {case: run_case(argv, scenario_dir) for case, argv in cases.items()}
    data.parent.mkdir(exist_ok=True)
    data.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
