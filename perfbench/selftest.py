"""Fast self-test of the perfbench harness, at ``small`` scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it makes one short pass per trace mode and checks
the output against ``BENCHMARK.json``: exactly the declared metrics
with their units, whole-number counts, every check passing. A pass with
a tampered expected digest must count failed operations and report
``correct: false``. Across the workloads ``BENCHMARK.json`` runs, every
declared per-layer metric must be exercised somewhere. Last, a
directory holding only the
benchmark must make ``run.py`` fail without printing a result. Exits 0
when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from harness import ROOT, WorkDir, load_declared
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def invoke(run_py: Path, cwd: Path, workload: str, trace: int,
           tamper: bool = False) -> subprocess.CompletedProcess:
    args = [sys.executable, str(run_py), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--scale", "small"]
    if tamper:
        args.append("--tamper-digest")
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def parse(out: subprocess.CompletedProcess):
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_details"]


def check_schema(result, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        sorted(result)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int), (key, result[key])
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared), \
        set(result["metrics"]) ^ set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert metric["unit"] == declared[name]["unit"], (name, metric)


def main() -> int:
    declared = load_declared()
    benchmarked = {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    exercised = set()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            try:
                result, details = parse(invoke(HERE / "run.py", ROOT,
                                               workload, trace))
                check_schema(result, declared[kind])
                assert result["correct"] and result["failed"] == 0, \
                    details["problems"]
                if trace:
                    if workload in benchmarked:
                        exercised |= set(declared[kind]) - set(
                            details["not_exercised"])
                else:
                    assert all(m["value"] > 0 for m in
                               result["metrics"].values()), result
            except AssertionError as exc:
                failures.append(f"{workload} trace={trace}: {exc}")
        try:
            result, __ = parse(invoke(HERE / "run.py", ROOT, workload, 0,
                                      tamper=True))
            assert result["failed"] > 0 and not result["correct"], result
        except AssertionError as exc:
            failures.append(f"{workload} tampered digest passed: {exc}")
    unexercised = set(declared["per_layer"]) - exercised
    if unexercised:
        failures.append(f"per-layer metrics no workload exercises: "
                        f"{sorted(unexercised)}")
    failures.extend(bare_directory_check())
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


def bare_directory_check():
    """``run.py`` next to nothing but ``BENCHMARK.json`` must fail."""
    with WorkDir() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = invoke(bare / HERE.name / "run.py", bare, WORKLOADS[0], 0)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, "
                f"stdout {out.stdout[-200:]!r}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
