#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced, each in its own
process, and fails unless every run is correct and prints exactly the
metric names and units that BENCHMARK.json declares for that mode.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    status = 0
    for trace in ("0", "1"):
        cmd = [sys.executable, str(RUN), "--workload", "all", "--seed", "1",
               "--seconds", "1", "--trace", trace, "--tiny"]
        status |= subprocess.run(cmd, timeout=900).returncode
    print("selftest ok" if status == 0 else "selftest FAILED")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
