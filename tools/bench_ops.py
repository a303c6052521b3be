"""Per-op A/B timing: a base commit against HEAD, one op at a time, in alternating processes.

    python3 tools/bench_ops.py --base REF --seed N [--pairs N] [--workload NAME ...]
                               [--seconds S] [--smoke] [--control] [--out DIR]

An end-to-end metric is a median over ops that each run in one process among
other ops, so an effect smaller than the spread between processes does not
show there. This script times each op instead. It makes fresh local clones of
REF and of HEAD, as `bench_ab.py` does, and for each workload (default: every
one that BENCHMARK.json lists) runs `--pairs` pairs of child processes, the
base first in even pairs and the head first in odd ones. Each child imports its
clone's `perfbench/run.py` and runs that workload's op plan through perfbench's
`Runner`, untraced, for as many passes as `run.py --seconds S` makes, with a
calibration loop before every op, and reports each op's median scaled and raw
times over its passes. It writes OUT/OPS_<yyyy-mm-dd>_<workload>_s<seed>.json (the batch's
start date in UTC; OUT defaults to bench/<first 12 digits of HEAD's SHA>) and
stops before any run if one of those files exists: an earlier batch is
evidence, never overwritten. Per op that file holds its command, extents, alpha
and steps, both sides' scaled times in ms with their medians and quartiles, the
relative change of the medians, the pairs the head won, whether the medians
differ by more than the base's IQR and whether the head meets the gain rule
(`bench_ab._compare`; an op has no bound, so its `within_bound` is null), and
the same for its raw times as `raw`, with `raw_sign_differs`
(`bench_ab._with_raw`). It edits nothing under perfbench/.
--control times REF against REF with `bench_ab.py`'s control comment, into OUT/aa/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_OP_KEYS = ("extents", "alpha", "steps")


def _parse_args(argv, doc=__doc__):
    """This script's options, or with bench_ab.py's `doc` that script's: the same but --child.
    They live here, as a child must not load numpy before its clone's run.py does."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    child = doc is __doc__  # only this script times ops in child processes
    parser.add_argument("--base", required=not child, help="the git ref to compare HEAD against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="repeat for several; default all")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--control", action="store_true", help="REF against REF plus a comment")
    parser.add_argument("--out", type=Path)
    if child:
        parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # a clone to time
    args = parser.parse_args(argv)
    if child and args.child is None and args.base is None:
        parser.error("--base is required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    args.trace = 0  # bench_record._run's option; the end-to-end metrics are read untraced
    return args


def _checked(command: list[str], cwd: Path | None = None) -> list[str]:
    """The lines `command` prints, run in `cwd`; a nonzero exit stops with its stderr."""
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def _child(args) -> dict:
    """One process: the clone's op plan through its perfbench `Runner`, each op's median."""
    sys.path.insert(0, str(args.child / "perfbench"))
    import run  # perfbench/run.py of the clone; it pins BLAS to one thread before numpy loads

    [workload] = args.workload
    cli = run._load_library()
    plan, config_texts = run._generate(argparse.Namespace(
        workload=workload, seed=args.seed, smoke=args.smoke))
    calib = run.Calibration()
    run.OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ops-", dir=run.OUT_ROOT))
    try:
        runner = run.Runner(cli, plan, config_texts, work, calib)
        passes = max(1, round(args.seconds / run.workloads.PASS_SECONDS[workload]))
        for index in range(passes):
            runner.run_pass(index)
    finally:
        shutil.rmtree(work, ignore_errors=True)
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
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(clone),
               "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--smoke"] if args.smoke else []
    return json.loads(_checked(command, clone)[-1])


def _ops(benchmark: dict, workload: str, runs: list[dict]) -> dict:
    """Per op: what it runs and both sides' scaled and raw times, `bench_ab._compare`d; both
    ran one plan."""
    from bench_ab import SIDES, _compare, _with_raw

    if any(run[side]["ops"] != runs[0]["base"]["ops"] for run in runs for side in SIDES):
        raise SystemExit(f"error: {workload}: the two sides ran different op plans")

    def compared(key, i):
        return _compare(*([run[side][key][i] for run in runs] for side in SIDES), 1)

    return {"passes": runs[0]["base"]["passes"], "unit": "ms", "ops": [
        {"op": i, **op, **_with_raw(compared("scaled_ms", i), compared("raw_ms", i))}
        for i, op in enumerate(runs[0]["base"]["ops"])]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.child is not None:
        print(json.dumps(_child(args)))
        return 0
    from bench_ab import _batches  # it loads numpy, which a child must not load before run.py

    return _batches(args, "OPS", _time, _ops,
                    ("calibration_ms", "artifacts_sha256", "attempted", "failed", "failures"))


if __name__ == "__main__":
    sys.exit(main())
