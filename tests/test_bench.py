"""tools/bench.py: its three subcommands on the benchmark's smoke sizes, HEAD against itself
(several seconds), its option checks, and its comparisons on synthetic runs."""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench.py"
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import workloads  # noqa: E402

# the keys each record kind holds: a key joins or leaves a record only by an edit here
BENCH_KEYS = {"workload", "seed", "seconds", "trace", "smoke", "date", "git_sha", "dirty",
              "python", "numpy", "cpu_count", "command", "calibration_ms", "artifacts_sha256",
              "raw", "metrics", "correct", "attempted", "failed"}
AB_KEYS = {"workload", "seed", "seconds", "smoke", "control", "pairs", "date", "base", "head",
           "python", "numpy", "cpu_count", "artifacts_equal", "failed", "metrics", "runs"}
OPS_KEYS = {"workload", "seed", "seconds", "smoke", "control", "pairs", "date", "base", "head",
            "python", "numpy", "cpu_count", "artifacts_equal", "failed", "passes", "unit", "ops",
            "runs"}
COMPARE_KEYS = {"base", "head", "change", "head_wins", "beyond_base_iqr", "gain_rule",
                "within_bound"}
SIDE_KEYS = {"values", "median", "q1", "q3", "iqr"}
METRIC_KEYS = {"unit", "better", "base", "head", "change", "head_wins", "beyond_base_iqr",
               "gain_rule", "within_bound", "raw", "raw_sign_differs"}
OP_KEYS = {"op", "command", "extents", "alpha", "steps", "base", "head", "change", "head_wins",
           "beyond_base_iqr", "gain_rule", "within_bound", "raw", "raw_sign_differs"}
AB_RUN_KEYS = {"calibration_ms", "artifacts_sha256", "correct", "attempted", "failed"}
OPS_RUN_KEYS = {"calibration_ms", "artifacts_sha256", "attempted", "failed", "failures"}


def head_sha():
    """HEAD's commit, which `ab` and `ops` clone; outside a git checkout the test is skipped."""
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    if head.returncode != 0:
        pytest.skip("bench.py clones commits, and this tree is not a git checkout")
    return head.stdout.strip()


def assert_refuses_rerun(command, path):
    """A second batch of `command` stops before it runs: it names the batch file `path`, prints
    nothing, and leaves `path`, alone in its directory, byte for byte."""
    written = path.read_bytes()
    again = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert again.returncode != 0 and "refusing to overwrite" in again.stderr
    assert str(path) in again.stderr and again.stdout == ""
    assert list(path.parent.iterdir()) == [path] and path.read_bytes() == written


def assert_compared(got, keys):
    """`got` holds `keys`, and a comparison of two sides for its scaled and raw values."""
    assert set(got) == keys and set(got["raw"]) == COMPARE_KEYS
    assert all(set(block[side]) == SIDE_KEYS for block in (got, got["raw"])
               for side in ("base", "head"))


def assert_runs(record, keys):
    assert all(set(run) == {"first", "base", "head"} and set(run["base"]) == set(run["head"])
               == keys for run in record["runs"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_bench_record_writes_every_declared_metric(tmp_path, trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    command = [sys.executable, str(TOOL), "record", "--workload", "certify-small", "--seed",
               "777", "--seconds", "1", "--smoke", "--trace", str(trace), "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"BENCH_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
    assert set(record) == BENCH_KEYS
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
    assert all(set(metric) == {"value", "unit"} for metric in metrics.values())
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
    assert bench._dirty(repo) is False
    (repo / "bench").mkdir()
    (repo / "bench" / "AB_batch.json").write_text("{}\n")
    assert bench._dirty(repo) is False
    (repo / "a.txt").write_text("b\n")
    assert bench._dirty(repo) is True
    assert bench._dirty(plain) is None


def test_a_repeated_workload_runs_once(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(bench, "_run", lambda checkout, workload, args, trace: runs.append(
        workload) or {})
    assert bench.main(["record", "--seed", "777", "--workload", "certify-small", "--workload",
                       "certify-small", "--out", str(tmp_path)]) == 0
    [path] = tmp_path.iterdir()
    assert runs == ["certify-small"] and capsys.readouterr().out.split() == [str(path)]


def test_bench_ab_writes_every_declared_metric(tmp_path):
    sha = head_sha()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    command = [sys.executable, str(TOOL), "ab", "--base", "HEAD", "--workload", "certify-small",
               "--seed", "777", "--pairs", "1", "--seconds", "1", "--smoke", "--out",
               str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"AB_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
    assert set(record) == AB_KEYS
    assert_runs(record, AB_RUN_KEYS)
    assert record["base"] == {"ref": "HEAD", "git_sha": sha} and record["head"] == {"git_sha": sha}
    assert (record["workload"], record["seed"], record["pairs"]) == ("certify-small", 777, 1)
    assert record["artifacts_equal"] is True and record["failed"] == {"base": 0, "head": 0}
    [run] = record["runs"]
    assert run["first"] == "base"
    assert run["base"]["artifacts_sha256"] == run["head"]["artifacts_sha256"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = record["metrics"][m["name"]]
        assert (got["unit"], got["better"]) == (m["unit"], m["better"]), m["name"]
        for side in ("base", "head"):
            [value] = got[side]["values"]
            assert got[side]["median"] == got[side]["q1"] == got[side]["q3"] == value
            assert got[side]["iqr"] == 0
        assert got["head_wins"] in (0, 1)
        assert type(got["gain_rule"]) is bool and type(got["within_bound"]) is bool
        if m["name"] == "peak_rss_mb":  # run.py prints no raw value for it
            assert set(got) == METRIC_KEYS and set(got["base"]) == set(got["head"]) == SIDE_KEYS
            assert got["raw"] is None and got["raw_sign_differs"] is None
            continue
        assert_compared(got, METRIC_KEYS)
        for side in ("base", "head"):
            [value] = got["raw"][side]["values"]
            assert value > 0 and got["raw"][side]["median"] == value
        assert type(got["raw"]["gain_rule"]) is bool and type(got["raw_sign_differs"]) is bool
    assert_refuses_rerun(command, path)


@pytest.mark.parametrize("command", ["ab", "ops"])
def test_bench_rejects_an_unknown_base(tmp_path, command):
    command = [sys.executable, str(TOOL), command, "--base", "no-such-ref", "--seed", "777",
               "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "no-such-ref" in proc.stderr
    assert proc.stderr.splitlines() == ["error: argument --base: 'no-such-ref' names no commit"]
    assert list(tmp_path.iterdir()) == []


_BAD = ["--workload=nope", "--seconds=nan", "--seconds=-5", "--seconds=inf"]


@pytest.mark.parametrize("command, bad", [
    *((command, bad) for command in ("record", "ab", "ops") for bad in _BAD),
    *((command, "--pairs=0") for command in ("ab", "ops"))])
def test_bench_refuses_a_bad_option_before_any_clone_or_directory(tmp_path, command, bad):
    # the clones would go to a temporary directory under TMPDIR, so `tmp` stays empty
    out, tmp = tmp_path / "out", tmp_path / "tmp"
    tmp.mkdir()
    base = [] if command == "record" else ["--base", "HEAD"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(TOOL), command, *base, "--seed", "777", bad,
                           "--out", str(out)], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "TMPDIR": str(tmp)})
    elapsed = time.perf_counter() - start
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode != 0 and proc.stdout == ""
    assert len(errors) == 1 and f"argument {bad.split('=')[0]}: " in errors[0], proc.stderr
    assert not out.exists() and list(tmp.iterdir()) == []
    assert elapsed < 1, elapsed


def test_bench_ab_control_runs_the_base_against_itself_plus_a_comment(tmp_path):
    # the head's clone differs from the base's by the 600-byte comment alone; the --control
    # batch that runs them goes through `_batches`, which the ops control test runs
    sha = head_sha()
    clones = bench._clones(argparse.Namespace(control=True), (sha, sha), str(tmp_path))
    base, changed = ((clones[side] / bench.CONTROL_FILE).read_bytes() for side in bench.SIDES)
    assert len(bench.CONTROL_COMMENT.encode()) == 600
    assert changed == base + bench.CONTROL_COMMENT.encode()
    assert all(line.startswith("#") for line in bench.CONTROL_COMMENT.splitlines())


def test_compare_applies_the_gain_rule_and_the_bound():
    # base 10..19: median 14.5, quartiles 12.25 and 16.75, so an IQR of 4.5
    base = [10.0 + i for i in range(10)]
    lower = bench._compare(base, [x - 5 for x in base], 1, 0.25)
    assert lower["base"]["iqr"] == 4.5 and lower["head_wins"] == 10 and lower["gain_rule"]
    assert lower["within_bound"] is True
    assert not bench._compare(base, [x - 4 for x in base], 1)["gain_rule"]  # inside the IQR
    nine = [x - 5 for x in base[:9]] + [base[9] + 1]
    eight = [x - 5 for x in base[:8]] + [x + 1 for x in base[8:]]
    assert bench._compare(base, nine, 1)["gain_rule"]  # 9 of 10 pairs won
    assert not bench._compare(base, eight, 1)["gain_rule"]  # 8 of 10
    # a bound of 25 % of the base's median, 3.625: worse by 3.6 is within it, by 3.7 is not
    assert bench._compare(base, [x + 3.6 for x in base], 1, 0.25)["within_bound"] is True
    assert bench._compare(base, [x + 3.7 for x in base], 1, 0.25)["within_bound"] is False
    assert bench._compare(base, [x + 3.7 for x in base], 1)["within_bound"] is None
    # higher is better: a lower median is the worse one
    higher = bench._compare(base, [x + 5 for x in base], -1, 0.25)
    assert higher["gain_rule"] and higher["within_bound"] is True
    assert bench._compare(base, [x * 0.8 for x in base], -1, 0.25)["within_bound"] is True
    assert bench._compare(base, [x * 0.7 for x in base], -1, 0.25)["within_bound"] is False
    assert not bench._compare(base, [x * 0.7 for x in base], -1, 0.25)["gain_rule"]


def test_summary_compares_raw_values_beside_scaled_ones():
    # the scaled values gain 5 on a base IQR of 4.5 in all 10 pairs, while the raw ones do not
    # move: gain_rule holds on the scaled values only. On ops_per_s the raw values get worse
    # as the scaled ones get better, which raw_sign_differs flags; peak_rss_mb has no raw value
    benchmark = {"end_to_end": [{"name": "simulate_ms_p50", "better": "lower", "bound": 0.25},
                                {"name": "ops_per_s", "better": "higher", "bound": 0.25},
                                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}

    def run(i, shift):
        return {"metrics": {"simulate_ms_p50": {"value": 10.0 + i - shift, "unit": "ms"},
                            "ops_per_s": {"value": 100.0 + i + shift, "unit": "ops/s"},
                            "peak_rss_mb": {"value": 40.0, "unit": "MiB"}},
                "raw": {"simulate_ms_p50": 12.0 + i, "ops_per_s": 90.0 + i - shift / 5}}

    runs = [{"first": "base", "base": run(i, 0), "head": run(i, 5)} for i in range(10)]
    metrics = bench._summary(benchmark, "certify-small", runs)["metrics"]
    simulate, ops = metrics["simulate_ms_p50"], metrics["ops_per_s"]
    assert simulate["gain_rule"] and simulate["head_wins"] == 10
    assert simulate["raw"]["base"]["values"] == simulate["raw"]["head"]["values"]
    assert not simulate["raw"]["gain_rule"] and simulate["raw"]["change"] == 0.0
    assert simulate["raw_sign_differs"] is False
    assert ops["gain_rule"] and not ops["raw"]["gain_rule"] and ops["raw"]["change"] < 0
    assert ops["raw_sign_differs"] is True
    rss = metrics["peak_rss_mb"]
    assert rss["raw"] is None and rss["raw_sign_differs"] is None


def test_ops_compares_each_ops_scaled_and_raw_times():
    # op 0 gains 5 ms on a base IQR of 4.5 in all 10 pairs, scaled and raw; op 1 gains as much
    # scaled while its raw times get 5 ms worse, which raw_sign_differs flags. An op has no
    # bound, so within_bound is null on both
    plan = [{"command": "simulate", "extents": [4], "alpha": 1.0, "steps": 100},
            {"command": "verify", "extents": [3, 3], "alpha": 2.0, "steps": 50}]

    def run(i, shift):
        return {"ops": plan, "passes": 3, "scaled_ms": [10.0 + i - shift, 20.0 + i - shift],
                "raw_ms": [12.0 + i - shift, 25.0 + i + shift]}

    runs = [{"first": "base", "base": run(i, 0), "head": run(i, 5)} for i in range(10)]
    got = bench._ops({}, "certify-small", runs)
    assert (got["passes"], got["unit"]) == (3, "ms")
    for i, op in enumerate(got["ops"]):
        assert_compared(op, OP_KEYS)
        assert op["op"] == i and {key: op[key] for key in plan[i]} == plan[i]
        assert op["within_bound"] is None and op["raw"]["within_bound"] is None
        assert op["base"]["values"] == [run["base"]["scaled_ms"][i] for run in runs]
        assert op["raw"]["head"]["values"] == [run["head"]["raw_ms"][i] for run in runs]
        assert op["gain_rule"] and op["head_wins"] == 10
    first, second = got["ops"]
    assert first["raw"]["gain_rule"] and first["raw_sign_differs"] is False
    assert not second["raw"]["gain_rule"] and second["raw"]["change"] > 0
    assert second["raw_sign_differs"] is True
    # a head that ran another plan in one pair stops the batch, naming the workload
    runs[3]["head"] = {**runs[3]["head"], "ops": plan[:1]}
    with pytest.raises(SystemExit, match="certify-small: the two sides ran different op plans"):
        bench._ops({}, "certify-small", runs)


def test_bench_ops_times_every_op(tmp_path):
    sha = head_sha()
    command = [sys.executable, str(TOOL), "ops", "--base", "HEAD", "--workload",
               "certify-small", "--seed", "777", "--pairs", "2", "--seconds", "1", "--smoke",
               "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"OPS_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
    assert set(record) == OPS_KEYS
    assert_runs(record, OPS_RUN_KEYS)
    assert record["base"] == {"ref": "HEAD", "git_sha": sha} and record["head"] == {"git_sha": sha}
    assert (record["workload"], record["seed"], record["pairs"]) == ("certify-small", 777, 2)
    assert record["artifacts_equal"] is True and record["failed"] == {"base": 0, "head": 0}
    assert [run["first"] for run in record["runs"]] == ["base", "head"]  # alternating
    plan = [op for group in workloads.make_plan("certify-small", 777, True) for op in group]
    assert len(record["ops"]) == len(plan)
    for i, (got, op) in enumerate(zip(record["ops"], plan)):
        assert_compared(got, OP_KEYS)
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


def test_bench_ops_control_times_the_base_against_itself(tmp_path):
    sha = head_sha()
    command = [sys.executable, str(TOOL), "ops", "--base", "HEAD", "--control", "--workload",
               "certify-small", "--seed", "777", "--pairs", "1", "--seconds", "1", "--smoke",
               "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = (tmp_path / "aa").iterdir()
    assert list(tmp_path.iterdir()) == [tmp_path / "aa"] and proc.stdout.split() == [str(path)]
    assert re.fullmatch(r"OPS_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    record = json.loads(path.read_text())
    assert set(record) == OPS_KEYS and record["control"] is True
    assert record["base"] == {"ref": "HEAD", "git_sha": sha} and record["head"] == {"git_sha": sha}
    assert record["artifacts_equal"] is True and record["failed"] == {"base": 0, "head": 0}
    plan = [op for group in workloads.make_plan("certify-small", 777, True) for op in group]
    assert len(record["ops"]) == len(plan)
    assert_refuses_rerun(command, path)
