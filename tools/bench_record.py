"""Record perfbench runs as BENCH_*.json files, one per workload.

    python3 tools/bench_record.py --seed N [--workload NAME ...] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out DIR]

For each workload (default: every one that BENCHMARK.json lists) it runs the
`perfbench/run.py` of the checkout that holds this script as a child process,
from the checkout's root, and keeps the final JSON line, the `calibration_ms`
and `artifacts_sha256` lines, and as `raw` each metric's value before the
calibration's scaling, which run.py prints in the metric line's note
("raw <value> <unit>", to 4 significant digits; untraced runs only, and none
for peak_rss_mb). It writes OUT/BENCH_<yyyy-mm-dd>_<workload>_s<seed>.json
(the start date in UTC) with the checkout's git SHA and whether its tree is
dirty (a tracked file differs from the commit; untracked files, such as the
A/B batches under bench/, do not count), the Python and numpy versions, the
CPU count and every metric, and stops before any run if one of those files
exists: an earlier record is never overwritten.
OUT defaults to bench/<first 12 digits of the SHA> in the checkout, so a base
and a head run of one day do not overwrite each other; a clone records itself
by running its own copy of this script. It edits nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_ops import _checked

ROOT = Path(__file__).resolve().parent.parent
_RAW = re.compile(r"(\S+) .*; raw (\S+) \S+\)")  # a metric line; its note ends "raw <value> <unit>"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", help="repeat for several; default all")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def _git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def _dirty(checkout: Path) -> bool | None:
    """Whether a tracked file of the checkout differs from its commit; None if git cannot say."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def _run(checkout: Path, workload: str, args) -> dict:
    """One perfbench run: its result line, plus the calibration and artifact digest lines and
    the raw values in the metric lines' notes."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    command += ["--smoke"] if args.smoke else []
    lines = _checked(command, checkout)
    fields = {line.split()[0]: line.split()[1] for line in lines[:-1] if len(line.split()) > 1}
    raw = {m[1]: float(m[2]) for m in map(_RAW.fullmatch, lines[:-1]) if m}
    return {"command": command[1:], "calibration_ms": float(fields["calibration_ms"]),
            "artifacts_sha256": fields["artifacts_sha256"], "raw": raw, **json.loads(lines[-1])}


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


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    sha = (_git(ROOT, "rev-parse", "HEAD") or "").strip() or None
    dirty = _dirty(ROOT)
    out = args.out or ROOT / "bench" / (sha or "unknown")[:12]
    date, paths = _batch(out, "BENCH", workloads, args.seed)
    for workload in workloads:
        _write(paths[workload], {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "date": date,
            "git_sha": sha, "dirty": dirty,
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), **_run(ROOT, workload, args),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
