"""tools/bench_ab.py on the benchmark's smoke sizes, HEAD against itself (several seconds)."""

import argparse
import json
import re
import subprocess
import sys

from conftest import ROOT, assert_refuses_rerun, head_sha

sys.path.insert(0, str(ROOT / "tools"))

import bench_ab  # noqa: E402


def test_bench_ab_writes_every_declared_metric(tmp_path):
    sha = head_sha("bench_ab")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    command = [sys.executable, str(ROOT / "tools" / "bench_ab.py"), "--base", "HEAD",
               "--workload", "certify-small", "--seed", "777", "--pairs", "1", "--seconds", "1",
               "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.iterdir()
    assert re.fullmatch(r"AB_\d{4}-\d\d-\d\d_certify-small_s777\.json", path.name)
    assert proc.stdout.split() == [str(path)]
    record = json.loads(path.read_text())
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
            assert got["raw"] is None and got["raw_sign_differs"] is None
            continue
        for side in ("base", "head"):
            [value] = got["raw"][side]["values"]
            assert value > 0 and got["raw"][side]["median"] == value
        assert type(got["raw"]["gain_rule"]) is bool and type(got["raw_sign_differs"]) is bool
    assert_refuses_rerun(command, path)


def test_bench_ab_rejects_an_unknown_base(tmp_path):
    command = [sys.executable, str(ROOT / "tools" / "bench_ab.py"), "--base", "no-such-ref",
               "--seed", "777", "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "no-such-ref" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_bench_ab_control_runs_the_base_against_itself_plus_a_comment(tmp_path):
    # the head's clone differs from the base's by the 600-byte comment alone; the --control
    # batch that runs them goes through `_batches`, which bench_ops.py's control test runs
    sha = head_sha("bench_ab")
    clones = bench_ab._clones(argparse.Namespace(control=True), (sha, sha), str(tmp_path))
    base, changed = ((clones[side] / bench_ab.CONTROL_FILE).read_bytes() for side in bench_ab.SIDES)
    assert len(bench_ab.CONTROL_COMMENT.encode()) == 600
    assert changed == base + bench_ab.CONTROL_COMMENT.encode()
    assert all(line.startswith("#") for line in bench_ab.CONTROL_COMMENT.splitlines())


def test_compare_applies_the_gain_rule_and_the_bound():
    # base 10..19: median 14.5, quartiles 12.25 and 16.75, so an IQR of 4.5
    base = [10.0 + i for i in range(10)]
    lower = bench_ab._compare(base, [x - 5 for x in base], 1, 0.25)
    assert lower["base"]["iqr"] == 4.5 and lower["head_wins"] == 10 and lower["gain_rule"]
    assert lower["within_bound"] is True
    assert not bench_ab._compare(base, [x - 4 for x in base], 1)["gain_rule"]  # inside the IQR
    nine = [x - 5 for x in base[:9]] + [base[9] + 1]
    eight = [x - 5 for x in base[:8]] + [x + 1 for x in base[8:]]
    assert bench_ab._compare(base, nine, 1)["gain_rule"]  # 9 of 10 pairs won
    assert not bench_ab._compare(base, eight, 1)["gain_rule"]  # 8 of 10
    # a bound of 25 % of the base's median, 3.625: worse by 3.6 is within it, by 3.7 is not
    assert bench_ab._compare(base, [x + 3.6 for x in base], 1, 0.25)["within_bound"] is True
    assert bench_ab._compare(base, [x + 3.7 for x in base], 1, 0.25)["within_bound"] is False
    assert bench_ab._compare(base, [x + 3.7 for x in base], 1)["within_bound"] is None
    # higher is better: a lower median is the worse one
    higher = bench_ab._compare(base, [x + 5 for x in base], -1, 0.25)
    assert higher["gain_rule"] and higher["within_bound"] is True
    assert bench_ab._compare(base, [x * 0.8 for x in base], -1, 0.25)["within_bound"] is True
    assert bench_ab._compare(base, [x * 0.7 for x in base], -1, 0.25)["within_bound"] is False
    assert not bench_ab._compare(base, [x * 0.7 for x in base], -1, 0.25)["gain_rule"]


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
    metrics = bench_ab._summary(benchmark, "certify-small", runs)["metrics"]
    simulate, ops = metrics["simulate_ms_p50"], metrics["ops_per_s"]
    assert simulate["gain_rule"] and simulate["head_wins"] == 10
    assert simulate["raw"]["base"]["values"] == simulate["raw"]["head"]["values"]
    assert not simulate["raw"]["gain_rule"] and simulate["raw"]["change"] == 0.0
    assert simulate["raw_sign_differs"] is False
    assert ops["gain_rule"] and not ops["raw"]["gain_rule"] and ops["raw"]["change"] < 0
    assert ops["raw_sign_differs"] is True
    rss = metrics["peak_rss_mb"]
    assert rss["raw"] is None and rss["raw_sign_differs"] is None
