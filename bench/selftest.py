"""Quick self-test of the benchmark: every workload at a tiny size, both
modes, checked against the output schema that BENCHMARK.json declares.

Run from the repository root::

    python3 bench/selftest.py

It also checks that the benchmark refuses to run, with a non-zero exit and
no result line, in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names) or any(set(n) - NAME_CHARS for n in names):
        fail("names must be unique and use letters, digits, '_', '.', '-'")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m}")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        fail("setup_s is missing")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result}\n{done.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} trace {trace}: metrics differ by "
             f"{sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if m["unit"] != declared[name] or not isinstance(m["value"], (int, float)):
            fail(f"{workload} trace {trace}: {name} = {m}")
        if not trace and not m["value"] > 0:
            fail(f"{workload}: end-to-end metric {name} is not positive")
    print(f"ok  {workload:14} trace {trace}  attempted {result['attempted']}")


def check_refuses_without_engine(spec: dict) -> None:
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".out", "__pycache__"))
        done = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            fail("the benchmark ran without the engine sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the engine sources")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_refuses_without_engine(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
