"""Run every workload untraced and traced, one after another, and print a table.

    python3 perfbench/suite.py --seed 1 --seconds 30 [--save perfbench/baseline]

Each run is its own process (perfbench/run.py). With --save, the result
files, provenance included, are copied into the given directory.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace {traced}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            summary, _ = proc.stdout.rstrip("\n").rsplit("\n", 1)  # drop the JSON line
            print(summary)
            if args.save:
                path = run.results_path(workload, traced, args.seed)
                args.save.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, args.save / path.name)
    return status


if __name__ == "__main__":
    sys.exit(main())
