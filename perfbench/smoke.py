"""Smoke check of the benchmark: a seconds-long run of every workload.

    python3 perfbench/smoke.py

For each workload of ``BENCHMARK.json`` this runs the cheapest cells
(``--smoke``) once untraced for one second and once traced. It fails unless
every run exits 0 with ``failed_frac == 0``, and unless the traced run's
spans close on each op's wall time: the self times of an op's spans sum to
its root span, which sits inside the op's measured wall time within the
measured tracing overhead (``spans.accounting_errors``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def run(name: str, trace: int) -> tuple[dict | None, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return None, [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    failed_frac = result["failed"] / result["attempted"]
    if failed_frac != 0 or not result["correct"]:
        problems.append(f"failed_frac {failed_frac}, correct {result['correct']}")
    return result, problems


def accounting(name: str, result: dict) -> list[str]:
    record = json.loads((BENCH / "out" / f"{name}-seed0-trace1-smoke.json").read_text())
    traced = [spans.Span(**s) for s in record["spans"]]
    walls = {int(op): wall for op, wall in record["op_walls"].items()}
    overhead = result["metrics"]["trace_overhead"]["value"]
    return spans.accounting_errors(traced, walls, max(overhead, 0.0))


def main() -> int:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    bad = 0
    for name in names:
        for trace in (0, 1):
            result, problems = run(name, trace)
            if result is not None and trace:
                problems += accounting(name, result)
            status = "ok" if not problems else "FAIL"
            attempted = result["attempted"] if result else 0
            print(f"{name:10s} trace={trace} {status}: {attempted} ops")
            for p in problems:
                print(f"    {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
