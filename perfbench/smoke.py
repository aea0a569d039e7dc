"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (one operation, or one pass of the
screen) with and without tracing, and checks that every metric of
BENCHMARK.json and every headline metric of README.md is printed with its
unit, that the last line is the result object, and that no operation
failed. It also checks that a directory holding only BENCHMARK.json and
perfbench/ is refused with a non-zero exit and no result. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import common

# Headline metrics printed besides the BENCHMARK.json ones, per workload kind.
HEADLINE = {
    "run": ("run_s", "artifact_bytes", "failed_ratio"),
    "screen": ("screen_pairs_per_s", "failed_ratio"),
}
LINE = re.compile(r"^(\S+) = (\S+) (\S+) \(n=\d+")


def run_bench(root: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )


def check_output(proc, spec: dict, workload: str, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {got} != {wanted}")
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    for name, unit in wanted.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{name} not printed with unit {unit}")
    if not trace:
        kind = "screen" if workload.endswith("-screen") else "run"
        for name in HEADLINE[kind]:
            if name not in printed:
                problems.append(f"{name} not printed")
    if printed.get("failed_ratio", (None,))[0] != 0.0:
        problems.append(f"failed_ratio {printed.get('failed_ratio')}")
    return problems


def check_refused() -> list[str]:
    """The benchmark must refuse a directory without the package."""
    bare = os.path.join(common.WORK, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(common.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        proc = run_bench(bare, "n14-d3-run", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory accepted: exit {proc.returncode}, {proc.stdout[-200:]}"]
    return []


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_output(run_bench(common.ROOT, workload, trace), spec, workload, trace)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    problems = check_refused()
    print(f"{'FAIL' if problems else 'ok  '} bare directory refused")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
