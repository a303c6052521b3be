"""tools/bench_ops.py on the benchmark's smoke sizes, HEAD against itself (several seconds)."""

import json
import re
import subprocess
import sys

import pytest

from conftest import ROOT, assert_refuses_rerun, head_sha

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_bench_ops_times_every_op(tmp_path):
    sha = head_sha("bench_ops")
    command = [sys.executable, str(ROOT / "tools" / "bench_ops.py"), "--base", "HEAD",
               "--workload", "certify-small", "--seed", "777", "--pairs", "2", "--seconds", "1",
               "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"OPS_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
    assert record["base"] == {"ref": "HEAD", "git_sha": sha} and record["head"] == {"git_sha": sha}
    assert (record["workload"], record["seed"], record["pairs"]) == ("certify-small", 777, 2)
    assert record["artifacts_equal"] is True and record["failed"] == {"base": 0, "head": 0}
    assert [run["first"] for run in record["runs"]] == ["base", "head"]  # alternating
    plan = [op for group in workloads.make_plan("certify-small", 777, True) for op in group]
    assert len(record["ops"]) == len(plan)
    for i, (got, op) in enumerate(zip(record["ops"], plan)):
        assert got["op"] == i and got["command"] == op.command
        assert [got[k] for k in ("extents", "alpha", "steps")] == [
            op.config[k] for k in ("extents", "alpha", "steps")]
        for side in ("base", "head"):
            values, raw = got[side]["values"], got["raw"][side]["values"]
            assert len(values) == len(raw) == 2 and all(t > 0 for t in values + raw)
            assert got[side]["q1"] <= got[side]["median"] <= got[side]["q3"]
        assert type(got["raw"]["gain_rule"]) is bool and got["raw"]["within_bound"] is None
        assert got["raw_sign_differs"] in (None, True, False)
        assert got["change"] == pytest.approx(got["head"]["median"] / got["base"]["median"] - 1)
        assert got["head_wins"] in (0, 1, 2)
    assert_refuses_rerun(command, path)


def test_bench_ops_rejects_an_unknown_base(tmp_path):
    command = [sys.executable, str(ROOT / "tools" / "bench_ops.py"), "--base", "no-such-ref",
               "--seed", "777", "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "no-such-ref" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_bench_ops_control_times_the_base_against_itself(tmp_path):
    sha = head_sha("bench_ops")
    command = [sys.executable, str(ROOT / "tools" / "bench_ops.py"), "--base", "HEAD",
               "--control", "--workload", "certify-small", "--seed", "777", "--pairs", "1",
               "--seconds", "1", "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = (tmp_path / "aa").iterdir()
    assert list(tmp_path.iterdir()) == [tmp_path / "aa"] and proc.stdout.split() == [str(path)]
    assert re.fullmatch(r"OPS_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    record = json.loads(path.read_text())
    assert record["control"] is True
    assert record["base"] == {"ref": "HEAD", "git_sha": sha} and record["head"] == {"git_sha": sha}
    assert record["artifacts_equal"] is True and record["failed"] == {"base": 0, "head": 0}
    plan = [op for group in workloads.make_plan("certify-small", 777, True) for op in group]
    assert len(record["ops"]) == len(plan)
    assert_refuses_rerun(command, path)
