"""The benchmark's own test, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs `run.py --smoke` untraced and traced and asserts
that the result line has exactly the contract's keys, that every metric named
in BENCHMARK.json is emitted with its unit, and that no op failed. It runs the
traced smoke twice on one seed and asserts that the exact work counts repeat
and that no tracer observer raised (an op whose observer raised also counts
as failed).
It also asserts that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0, proc.stdout
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


def _check_metrics(doc: dict, declared: list[dict]) -> None:
    emitted = doc["metrics"]
    assert set(emitted) == {m["name"] for m in declared}, set(emitted) ^ {m["name"] for m in declared}
    for m in declared:
        value = emitted[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value["unit"])
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), m["name"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        _check_metrics(_result(_run(workload, 3, 0)), bench["end_to_end"])
        traced = _run(workload, 3, 1)
        assert "observer_errors 0 count" in traced.stdout.splitlines(), traced.stdout
        first = _result(traced)
        _check_metrics(first, bench["per_layer"])
        second = _result(_run(workload, 3, 1))
        for name in layers.EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between traced runs: {a} != {b}"
        print(f"ok {workload}")

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench-out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("certify-small", 3, 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
