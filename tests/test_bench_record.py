"""tools/bench_record.py on the benchmark's smoke sizes (a few seconds)."""

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, assert_refuses_rerun

sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_bench_record_writes_every_declared_metric(tmp_path, trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    command = [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--workload",
               "certify-small", "--seed", "777", "--seconds", "1", "--smoke", "--trace",
               str(trace), "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"BENCH_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
    assert record["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", record["git_sha"])
    assert record["dirty"] in (None, True, False)
    assert (record["python"], record["numpy"]) == (platform.python_version(), np.__version__)
    assert record["cpu_count"] == os.cpu_count()
    assert (record["workload"], record["seed"], record["trace"]) == ("certify-small", 777, trace)
    assert record["calibration_ms"] > 0
    assert re.fullmatch(r"[0-9a-f]{64}", record["artifacts_sha256"])
    assert record["correct"] is True and record["failed"] == 0
    metrics = record["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    # the raw values of the notes: every end-to-end metric's but peak_rss_mb's; none traced
    assert set(record["raw"]) == (set(metrics) - {"peak_rss_mb"} if trace == 0 else set())
    assert all(value > 0 for value in record["raw"].values())
    assert_refuses_rerun(command, path)  # a second run of the same day, workload and seed


def test_dirty_counts_tracked_files_only(tmp_path):
    # an untracked file, such as an A/B batch under bench/, leaves a point clean; an edited
    # tracked file makes it dirty; outside a git checkout the answer is None
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    repo.mkdir()
    plain.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("no usable git")
    (repo / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    assert bench_record._dirty(repo) is False
    (repo / "bench").mkdir()
    (repo / "bench" / "AB_batch.json").write_text("{}\n")
    assert bench_record._dirty(repo) is False
    (repo / "a.txt").write_text("b\n")
    assert bench_record._dirty(repo) is True
    assert bench_record._dirty(plain) is None
