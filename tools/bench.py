"""Benchmark batches of perfbench runs: one checkout's record, or a base commit against HEAD.

    python3 tools/bench.py record --seed N [--workload NAME ...] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out DIR]
    python3 tools/bench.py ab|ops --base REF --seed N [--pairs N] [--workload NAME ...]
                                  [--seconds S] [--smoke] [--control] [--out DIR]

Each subcommand covers each workload (default: every one that BENCHMARK.json
lists) and writes OUT/<KIND>_<yyyy-mm-dd>_<workload>_s<seed>.json, dated when the
batch starts, in UTC. It stops before any run if one of those files exists: an
earlier batch is evidence, never overwritten. OUT defaults to bench/<first 12
digits of HEAD's SHA>. Nothing under perfbench/ is edited.

record (BENCH_*) runs this checkout's `perfbench/run.py` from its root and keeps
the final JSON line, the `calibration_ms` and `artifacts_sha256` lines, and as
`raw` each metric's value before the calibration's scaling, which run.py prints
in the metric line's note ("raw <value> <unit>"; untraced runs only, none for
peak_rss_mb). The file adds the git SHA and whether a tracked file differs from
it (`dirty`; untracked files such as the batches under bench/ do not count).

ab (AB_*) and ops (OPS_*) run fresh local clones of REF and of HEAD, since a
working checkout can read slower than a fresh clone of the same code, `--pairs`
times, the base first in even pairs and the head first in odd ones, untraced.
ab runs each clone's run.py as record does. Per end-to-end metric its file holds
both sides' values with their medians and quartiles, the relative change of the
medians, the pairs the head won, whether the medians differ by more than the
base's IQR, `gain_rule` (the head won at least 9/10 of the pairs and its median
is better by more than the base's IQR) and `within_bound` (its median is worse
by at most the metric's BENCHMARK.json `bound`). run.py scales each time by a
calibration loop in its own process; the same comparison of the raw values is
the metric's `raw` block, and `raw_sign_differs` flags a metric whose raw and
scaled medians moved in opposite directions. A gain is claimed only where
`gain_rule` holds on both.

An end-to-end metric is a median over ops that share a process, so an effect
smaller than the spread between processes does not show there. ops times each
op instead: each side's child process imports its clone's run.py and runs the
workload's plan through perfbench's `Runner` for as many passes as `run.py
--seconds S` makes, with a calibration loop before every op. Per op its file
holds the command, extents, alpha and steps, and the same comparison of the
median scaled and raw times over the passes, in ms, without a bound.

--control makes the batch an A/A control, into OUT/aa/: both clones are of REF,
and the head's gets CONTROL_COMMENT appended to CONTROL_FILE, which moves source
bytes and no code. A claimed gain is read against the control's change.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
CONTROL_FILE = "src/latticeheat/majorant.py"
CONTROL_COMMENT = ("#" * 59 + "\n") * 10  # 600 bytes
_RAW = re.compile(r"(\S+) .*; raw (\S+) \S+\)")  # a metric line; its note ends "raw <value> <unit>"
_OP_KEYS = ("extents", "alpha", "steps")
_RUN_KEYS = {"ab": ("calibration_ms", "artifacts_sha256", "correct", "attempted", "failed"),
             "ops": ("calibration_ms", "artifacts_sha256", "attempted", "failed", "failures")}


def _positive(kind):
    """An argparse type: `kind(text)`, refused unless finite and > 0."""
    def positive(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > 0, not {text!r}")
        return value

    return positive


def _parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """Every subcommand's options, checked before any clone or directory is made."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, required=True)
    common.add_argument("--workload", action="append", choices=workloads,
                        help="repeat for several; default all")
    common.add_argument("--seconds", type=_positive(float), default=24.0)
    common.add_argument("--smoke", action="store_true")
    common.add_argument("--out", type=Path)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record = commands.add_parser("record", parents=[common], help="this checkout's runs")
    record.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name, what in (("ab", "end-to-end metrics"), ("ops", "per-op times")):
        sub = commands.add_parser(name, parents=[common], help=f"REF against HEAD: {what}")
        sub.add_argument("--base", required=True, help="the git ref to compare HEAD against")
        sub.add_argument("--pairs", type=_positive(int), default=10)
        sub.add_argument("--control", action="store_true", help="REF against REF plus a comment")
    sub.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # ops: a clone to time here
    return parser.parse_args(argv)


def _checked(command: list[str], cwd: Path | None = None) -> list[str]:
    """The lines `command` prints, run in `cwd`; a nonzero exit stops with its stderr."""
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def _git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def _dirty(checkout: Path) -> bool | None:
    """Whether a tracked file of the checkout differs from its commit; None if git cannot say."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def _header(args, workload: str, date: str) -> dict:
    """What every batch file starts with: the settings and the host."""
    import numpy as np  # here, as an ops child must not load numpy before its clone's run.py

    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "date": date, "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count()}


def _batch(out: Path, kind: str, workloads: list[str], seed: int) -> tuple[str, dict]:
    """The batch's start date in UTC and OUT/<kind>_<date>_<workload>_s<seed>.json per
    workload; stops before any run if one of them exists, and makes OUT otherwise."""
    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    paths = {w: out / f"{kind}_{date}_{w}_s{seed}.json" for w in workloads}
    taken = [str(path) for path in paths.values() if path.exists()]
    if taken:
        raise SystemExit(f"error: refusing to overwrite an earlier batch: {', '.join(taken)}")
    out.mkdir(parents=True, exist_ok=True)
    return date, paths


def _write(path: Path, record: dict) -> None:
    with path.open("x") as file:  # a batch started in the meantime fails here
        file.write(json.dumps(record, indent=1) + "\n")
    print(path)


def _run(checkout: Path, workload: str, args, trace: int = 0) -> dict:
    """One perfbench run: its result line, plus the calibration and artifact digest lines and
    the raw values in the metric lines' notes."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    command += ["--smoke"] if args.smoke else []
    lines = _checked(command, checkout)
    fields = {line.split()[0]: line.split()[1] for line in lines[:-1] if len(line.split()) > 1}
    raw = {m[1]: float(m[2]) for m in map(_RAW.fullmatch, lines[:-1]) if m}
    return {"command": command[1:], "calibration_ms": float(fields["calibration_ms"]),
            "artifacts_sha256": fields["artifacts_sha256"], "raw": raw, **json.loads(lines[-1])}


def _record(args, workloads: list[str]) -> int:
    """record: one BENCH file per workload, of this checkout."""
    sha = (_git(ROOT, "rev-parse", "HEAD") or "").strip() or None
    dirty = _dirty(ROOT)
    date, paths = _batch(args.out or ROOT / "bench" / (sha or "unknown")[:12], "BENCH",
                         workloads, args.seed)
    for workload in workloads:
        _write(paths[workload], {**_header(args, workload, date), "trace": args.trace,
                                 "git_sha": sha, "dirty": dirty,
                                 **_run(ROOT, workload, args, args.trace)})
    return 0


def _child(args) -> dict:
    """One ops process: the clone's op plan through its perfbench `Runner`, each op's median."""
    sys.path.insert(0, str(args.child / "perfbench"))
    import run  # perfbench/run.py of the clone; it pins BLAS to one thread before numpy loads

    [workload] = args.workload
    cli = run._load_library()
    plan, config_texts = run._generate(argparse.Namespace(
        workload=workload, seed=args.seed, smoke=args.smoke))
    calib = run.Calibration()
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ops-", dir=run.OUT_ROOT,
                                     ignore_cleanup_errors=True) as work:
        runner = run.Runner(cli, plan, config_texts, Path(work), calib)
        passes = max(1, round(args.seconds / run.workloads.PASS_SECONDS[workload]))
        for index in range(passes):
            runner.run_pass(index)
    return {
        "ops": [{"command": op.command, **{key: op.config[key] for key in _OP_KEYS}}
                for op in runner.ops],
        "scaled_ms": [t * 1e3 for t in run._per_op(runner.scaled_times)],
        "raw_ms": [t * 1e3 for t in run._per_op(runner.raw_times)],
        "passes": passes, "calibration_ms": statistics.median(calib.samples),
        "artifacts_sha256": runner.workload_sha256, "attempted": runner.attempted,
        "failed": runner.failed, "failures": runner.failures,
    }


def _time(clone: Path, workload: str, args) -> dict:
    """One ops child process on `clone`: its `_child` result."""
    command = [sys.executable, str(Path(__file__).resolve()), "ops", "--child", str(clone),
               "--base", args.base, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    command += ["--smoke"] if args.smoke else []
    return json.loads(_checked(command, clone)[-1])


def _side(values: list[float]) -> dict:
    import numpy as np  # here, as an ops child must not load numpy before its clone's run.py

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
    """ab, per end-to-end metric: its unit, which way is better, and the two sides' scaled and
    raw values `_compare`d against its bound."""
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


def _ops(benchmark: dict, workload: str, runs: list[dict]) -> dict:
    """ops, per op: what it runs and both sides' scaled and raw times `_compare`d; both sides
    must have run one plan."""
    if any(run[side]["ops"] != runs[0]["base"]["ops"] for run in runs for side in SIDES):
        raise SystemExit(f"error: {workload}: the two sides ran different op plans")

    def compared(key, i):
        return _compare(*([run[side][key][i] for run in runs] for side in SIDES), 1)

    return {"passes": runs[0]["base"]["passes"], "unit": "ms", "ops": [
        {"op": i, **op, **_with_raw(compared("scaled_ms", i), compared("raw_ms", i))}
        for i, op in enumerate(runs[0]["base"]["ops"])]}


def _clones(args, shas: tuple[str, str], tmp: str) -> dict:
    """Each side's fresh clone of this repository, detached at its commit in `shas`; with
    --control, the head's gets CONTROL_COMMENT."""
    clones = {side: Path(tmp) / side for side in SIDES}
    for side, sha in zip(SIDES, shas):
        _checked(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(clones[side])])
        _checked(["git", "-C", str(clones[side]), "checkout", "--quiet", "--detach", sha])
    if args.control:
        with (clones["head"] / CONTROL_FILE).open("a") as file:
            file.write(CONTROL_COMMENT)
    return clones


def _batches(args, benchmark: dict, workloads: list[str]) -> int:
    """ab or ops: per workload, each side's `_run` or `_time`, in pairs that alternate the
    first side, into one file (under OUT/aa/ for a control): the header, the two commits, the
    `_summary` or `_ops` of the runs, then each run's `_RUN_KEYS`."""
    time, summary = (_run, _summary) if args.command == "ab" else (_time, _ops)
    base, head = ((_git(ROOT, "rev-parse", "--verify", "--quiet", ref + "^{commit}") or "").strip()
                  for ref in (args.base, "HEAD"))
    if not base:
        raise SystemExit(f"error: argument --base: {args.base!r} names no commit")
    shas = (base, base) if args.control else (base, head)
    out = (args.out or ROOT / "bench" / head[:12]) / ("aa" if args.control else "")
    date, paths = _batch(out, args.command.upper(), workloads, args.seed)
    with tempfile.TemporaryDirectory(prefix=f"bench_{args.command}_") as tmp:
        clones = _clones(args, shas, tmp)
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                runs.append({"first": order[0], **{side: time(clones[side], workload, args)
                                                   for side in order}})
            digests = {run[side]["artifacts_sha256"] for run in runs for side in SIDES}
            _write(paths[workload], {
                **_header(args, workload, date), "control": args.control, "pairs": args.pairs,
                "base": {"ref": args.base, "git_sha": shas[0]}, "head": {"git_sha": shas[1]},
                "artifacts_equal": len(digests) == 1,
                "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
                **summary(benchmark, workload, runs),
                "runs": [{"first": run["first"], **{side: {
                    key: run[side][key] for key in _RUN_KEYS[args.command]} for side in SIDES}}
                    for run in runs],
            })
    return 0


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    args = _parse_args(argv, names)
    workloads = list(dict.fromkeys(args.workload or names))  # a repeated name runs once
    if args.command == "record":
        return _record(args, workloads)
    if args.command == "ops" and args.child is not None:
        print(json.dumps(_child(args)))
        return 0
    return _batches(args, benchmark, workloads)


if __name__ == "__main__":
    sys.exit(main())
