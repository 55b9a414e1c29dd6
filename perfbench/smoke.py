#!/usr/bin/env python3
"""Smoke check: every workload emits every declared metric, at tiny size.

    python3 perfbench/smoke.py

Runs run.py with --tiny --seconds 1 on each workload, untraced and
traced, and checks that the last stdout line names exactly the metrics of
BENCHMARK.json with their units, that every output check passed, and that
every end-to-end value is positive.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units {want == got}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: checks failed ({result['failed']} of {result['attempted']})")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{tag}: non-positive end-to-end values {zero}")
            print(f"ok  {tag}: {len(got)} metrics, {result['attempted']} jobs", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
