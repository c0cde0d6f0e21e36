"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that each
end-to-end and per-layer metric is printed by name with its unit, that the
JSON line carries exactly the metrics it should, and that error_rate reads 0.
Then it breaks ``Nthfa.eval`` on purpose and checks that the wrong results
raise error_rate, and that ``BENCHMARK.json`` at the root of the checkout
names the metrics ``run.py`` prints.  Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr

import run

WORKLOADS = ["eval-words", "decide-weighted", "cli-crisp"]


def printed(stdout: str, name: str, unit: str) -> float | None:
    match = re.search(rf"^\s+{re.escape(name)}\s+(-?[0-9.]+) {re.escape(unit)}\b", stdout, re.M)
    return float(match.group(1)) if match else None


def check_workload(workload: str, trace: int) -> list[str]:
    command = [sys.executable, run.__file__, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "2"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr}"]
    problems = []
    rows = run.END_TO_END + (run.PER_LAYER if trace else [])
    for name, unit in rows:
        if printed(done.stdout, name, unit) is None:
            problems.append(f"{where}: {name} is not printed with unit {unit}")
    if printed(done.stdout, "error_rate", "ratio") != 0:
        problems.append(f"{where}: error_rate is not 0")
    result = json.loads(done.stdout.splitlines()[-1])
    expected = run.PER_LAYER if trace else run.REPORTED_END_TO_END
    if {k: v["unit"] for k, v in result["metrics"].items()} != dict(expected):
        problems.append(f"{where}: the JSON line has other metrics than expected")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"{where}: {result['failed']} operations failed")
    return problems


def check_fault_is_counted() -> list[str]:
    """A wrong result from the code under test must show in error_rate."""
    run.import_package()
    sys.path.insert(0, run.HERE)
    import hfa.hesitant
    from workloads import EvalWords

    workload = EvalWords(seed=1, workdir=None, size=2)
    original = hfa.hesitant.Nthfa.eval
    hfa.hesitant.Nthfa.eval = lambda self, word: hfa.ONE
    try:
        with redirect_stderr(io.StringIO()):
            p = run.timed_pass(workload, 0.2, run.HostSpeed())
    finally:
        hfa.hesitant.Nthfa.eval = original
    values, _ = run.end_to_end(p, 50, 0.0, 0.0)
    if values["error_rate"] > 0:
        return []
    return ["a broken Nthfa.eval left error_rate at 0"]


def check_declared_metrics() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = []
    for key, rows in (("end_to_end", run.REPORTED_END_TO_END), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in declared[key]] != rows:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    return problems


def main() -> int:
    problems = check_declared_metrics() + check_fault_is_counted()
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_workload(workload, trace)
    for problem in problems:
        print(problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
