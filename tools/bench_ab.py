"""A/B comparison of perfbench runs: a base commit against HEAD, in alternating pairs.

    python3 tools/bench_ab.py --base REF --seed N [--pairs N] [--workload NAME ...]
                              [--seconds S] [--smoke] [--control] [--out DIR]

It makes fresh local clones of REF and of HEAD of the repository that holds
this script, so both sides run committed code from a new directory (a working
checkout can read slower than a fresh clone of the same code). For each
workload (default: every one that BENCHMARK.json lists) it runs each clone's
`perfbench/run.py` `--pairs` times through `bench_record._run`, untraced, the
base first in even pairs and the head first in odd ones. It writes
OUT/AB_<yyyy-mm-dd>_<workload>_s<seed>.json (the batch's start date in UTC; OUT
defaults to bench/<first 12 digits of HEAD's SHA>), and stops before any run if
one of those files exists: an earlier batch is evidence, never overwritten. Per
end-to-end metric that file holds both sides' values, medians and quartiles, the
relative change of the medians, the pairs the head won, whether the medians
differ by more than the base's IQR, whether the head meets the gain rule (better
in at least 9/10 of the pairs, and its median better by more than the base's
IQR) and whether its median is within the metric's BENCHMARK.json `bound` of the
base's. run.py scales each time by a calibration loop that runs in its own
process; the same comparison of the raw values, which run.py prints beside the
scaled ones, is the metric's `raw` block (null for peak_rss_mb, which has no raw
value), and `raw_sign_differs` flags a metric whose raw and scaled medians moved
in opposite directions. A gain is claimed only where `gain_rule` holds on both.
The clones are removed afterwards. It edits nothing under perfbench/.

--control makes the batch an A/A control: both clones are of REF, and the head's
gets CONTROL_COMMENT appended to CONTROL_FILE, which moves source bytes and no
code. Its files go under OUT/aa/. A claimed gain is read against the control's
change, as an end-to-end metric can move that far with the bytes alone.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_ops import _checked, _parse_args
from bench_record import ROOT, _batch, _git, _run, _write

SIDES = ("base", "head")
CONTROL_FILE = "src/latticeheat/majorant.py"
CONTROL_COMMENT = ("#" * 59 + "\n") * 10  # 600 bytes
_RUN_KEYS = ("calibration_ms", "artifacts_sha256", "correct", "attempted", "failed")


def _clone(sha: str, path: Path) -> Path:
    """A fresh clone of this repository at `sha`, detached."""
    _checked(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(path)])
    _checked(["git", "-C", str(path), "checkout", "--quiet", "--detach", sha])
    return path


def _clones(args, shas: tuple[str, str], tmp: str) -> dict:
    """Each side's fresh clone; with --control, the head's gets CONTROL_COMMENT."""
    clones = {side: _clone(sha, Path(tmp) / side) for side, sha in zip(SIDES, shas)}
    if args.control:
        with (clones["head"] / CONTROL_FILE).open("a") as file:
            file.write(CONTROL_COMMENT)
    return clones


def _shas(args) -> tuple[str, str]:
    """The commits the two sides run, and HEAD's, which names the batch's directory."""
    base, head = _sha(args.base), _sha("HEAD")
    return ((base, base) if args.control else (base, head)), head


def _sha(ref: str) -> str:
    sha = (_git(ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}") or "").strip()
    if not sha:
        raise SystemExit(f"error: {ref!r} names no commit")
    return sha


def _side(values: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _compare(base: list[float], head: list[float], sign: int, bound: float | None = None) -> dict:
    """Both sides' values and quartiles, the relative change of the medians, the pairs the head
    won (sign 1 if lower is better, else -1), whether the medians differ by more than the
    base's IQR, `gain_rule`: the head won at least 9/10 of the pairs and its median is better
    by more than the base's IQR, and `within_bound`: the head's median is worse than the
    base's by at most `bound` times the base's (None without a bound)."""
    b, h = _side(base), _side(head)
    worse = sign * (h["median"] - b["median"])  # > 0: the head's median is the worse one
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
    return {"base": b, "head": h,
            "change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "head_wins": wins,
            "beyond_base_iqr": abs(h["median"] - b["median"]) > b["iqr"],
            "gain_rule": wins >= 0.9 * len(base) and -worse > b["iqr"],
            "within_bound": None if bound is None else worse <= bound * abs(b["median"])}


def _with_raw(scaled: dict, raw: dict | None) -> dict:
    """A `_compare` of scaled values, with that of the raw ones as `raw` (None without them)
    and `raw_sign_differs`: whether the two changes of the medians have opposite signs."""
    differs = None
    if raw is not None and None not in (scaled["change"], raw["change"]):
        differs = scaled["change"] * raw["change"] < 0
    return {**scaled, "raw": raw, "raw_sign_differs": differs}


def _summary(benchmark: dict, workload: str, runs: list[dict]) -> dict:
    """Per end-to-end metric: its unit, which way is better, and the two sides' scaled and raw
    values `_compare`d against its bound."""
    metrics = {}
    for m in benchmark["end_to_end"]:
        name, better, sign = m["name"], m["better"], 1 if m["better"] == "lower" else -1
        base = [run["base"]["metrics"][name]["value"] for run in runs]
        head = [run["head"]["metrics"][name]["value"] for run in runs]
        raw = None
        if name in runs[0]["base"]["raw"]:
            raw = _compare([run["base"]["raw"][name] for run in runs],
                           [run["head"]["raw"][name] for run in runs], sign, m["bound"])
        metrics[name] = {"unit": runs[0]["base"]["metrics"][name]["unit"], "better": better,
                         **_with_raw(_compare(base, head, sign, m["bound"]), raw)}
    return {"metrics": metrics}


def _pairs(clones: dict, workload: str, args, time) -> list[dict]:
    """`time(clone, workload, args)` for each side, in pairs that alternate the first side."""
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        runs.append({"first": order[0], **{side: time(clones[side], workload, args)
                                           for side in order}})
    return runs


def _record(args, workload: str, date: str, shas: tuple[str, str], runs: list[dict]) -> dict:
    """What every batch file holds: the settings, the two commits, the host, the digests."""
    digests = {run[side]["artifacts_sha256"] for run in runs for side in SIDES}
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "control": args.control, "pairs": args.pairs, "date": date,
        "base": {"ref": args.base, "git_sha": shas[0]}, "head": {"git_sha": shas[1]},
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "artifacts_equal": len(digests) == 1,
        "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
    }


def _batches(args, kind: str, time, summary, run_keys: tuple[str, ...]) -> int:
    """Per workload, `time`'s pairs on fresh clones into one `_batch` file (under OUT/aa/ for a
    control): the `_record`, then `summary(benchmark, workload, runs)`, then each run's
    `run_keys`."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    shas, head = _shas(args)
    out = (args.out or ROOT / "bench" / head[:12]) / ("aa" if args.control else "")
    date, paths = _batch(out, kind, workloads, args.seed)
    with tempfile.TemporaryDirectory(prefix=f"bench_{kind.lower()}_") as tmp:
        clones = _clones(args, shas, tmp)
        for workload in workloads:
            runs = _pairs(clones, workload, args, time)
            _write(paths[workload], {
                **_record(args, workload, date, shas, runs), **summary(benchmark, workload, runs),
                "runs": [{"first": run["first"], **{
                    side: {key: run[side][key] for key in run_keys} for side in SIDES}}
                    for run in runs],
            })
    return 0


def main(argv=None) -> int:
    return _batches(_parse_args(argv, __doc__), "AB", _run, _summary, _RUN_KEYS)


if __name__ == "__main__":
    sys.exit(main())
