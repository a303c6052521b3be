"""Benchmark of the latticeheat CLI: five commands on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the library is imported from its `src/`.
Each op is one CLI command on one generated config, run in this process
through `latticeheat.cli.main`, one at a time (closed loop, one client), with
cold library caches and a fresh output directory. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs an untraced, a traced and another
untraced pass and reports the per-layer metrics. A calibration loop runs
before every op, and op times are scaled to the host's nominal speed by it.
Every op's artifacts are checked outside the timed region. The last line of
stdout is the JSON result.
README.md has the design and the reasons behind it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: on a shared 2-vCPU host the OpenBLAS
# pool made the dense sine transforms bimodal (bound on 96^2: 9-11 ms with one
# thread, 26-40 ms with the default pool). The benchmark is single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_PROBES = 9
CALIB_REPEATS = 3
CALIB_WINDOW = 2  # an op is scaled by the median calibration of the ops within 2 of it
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_library():
    """Import latticeheat.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "latticeheat" / "cli.py").is_file():
        raise SystemExit(f"error: no latticeheat sources under {src}")
    sys.path.insert(0, str(src))
    import latticeheat.cli

    if Path(latticeheat.cli.__file__).resolve().parent != src / "latticeheat":
        raise SystemExit(f"error: latticeheat imported from {latticeheat.cli.__file__}, not {src}")
    return latticeheat.cli


def _generate(args):
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    plan = workloads.make_plan(args.workload, args.seed, args.smoke)
    return plan, [json.dumps(op.config) for group in plan for op in group]


def _measure_setup(args, calib) -> tuple[float, float]:
    """Median wall time of a fresh process that imports the CLI and builds the inputs.

    Returns (scaled, raw): each probe is scaled to the nominal host speed by
    the calibration loops run just before and after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    before = calib.measure()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = calib.measure()
        raw.append(elapsed)
        scaled.append(elapsed * calib.nominal_ms / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class Calibration:
    """Samples of the calibration loop, and scaling by them to the nominal host speed."""

    nominal_ms = reference.CALIBRATION_NOMINAL_MS

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        ms = reference.calib_ms()
        self.samples.append(ms)
        return ms

    def scale(self, times, calibs):
        """Each op time times nominal / the median calibration of its neighbours."""
        out = []
        for i, t in enumerate(times):
            near = calibs[max(0, i - CALIB_WINDOW) : i + CALIB_WINDOW + 1]
            out.append(t * self.nominal_ms / statistics.median(near))
        return out


def _library_caches():
    """Every cached callable in the library, found by duck typing."""
    caches = []
    for name, module in sys.modules.items():
        if name == "latticeheat" or name.startswith("latticeheat."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and clear not in caches:
                    caches.append(clear)
    return caches


class Runner:
    """Runs passes over the flattened op list and checks their artifacts."""

    def __init__(self, cli, plan, config_texts, work: Path, calib: Calibration):
        import checks  # imports latticeheat, so only after _load_library

        self.cli = cli
        self.calib = calib
        self.checks = checks
        self.plan = plan
        self.ops = [op for group in plan for op in group]
        self.work = work
        self.config_paths = []
        for i, text in enumerate(config_texts):
            path = work / "configs" / f"{i}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            self.config_paths.append(path)
        self.caches = _library_caches()
        mode_table = getattr(sys.modules["latticeheat.spectral"], "mode_table", None)
        self.mode_table_info = getattr(mode_table, "cache_info", None)
        self.reference = None  # (digest, rc, failed) per op, from the first pass
        self.raw_times: list[list[float]] = []  # per untraced pass, per op
        self.scaled_times: list[list[float]] = []  # the same, at the nominal host speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.workload_sha256 = None

    def run_pass(self, index: int, tracer=None):
        """One pass; returns the op times at the nominal host speed and the bytes written."""
        results, times, calibs = [], [], []
        for i, op in enumerate(self.ops):
            for clear in self.caches:
                clear()
            calibs.append(self.calib.measure())
            # The fresh output directory is made, and the pass's files are
            # removed at the end of the run, outside the timed region: file
            # creation and deletion on the shared disk varied by up to 1 ms
            # per op, half of a `bound` op on `certify-small`.
            out = self.work / f"pass{index}" / str(i)
            out.mkdir(parents=True)
            argv = [op.command, "--config", str(self.config_paths[i]), "--out", str(out)]
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as e:  # one crashing op is a failed op, not a dead run
                rc = f"raised {e!r}"
            times.append(time.perf_counter() - start)
            if tracer is not None and self.mode_table_info is not None:
                info = self.mode_table_info()
                tracer.count("mode_table_hits", info.hits)
                tracer.count("mode_table_misses", info.misses)
            results.append((rc, out))
        scaled = self.calib.scale(times, calibs)
        if tracer is None:
            self.raw_times.append(times)
            self.scaled_times.append(scaled)
        return scaled, self._check_pass(index, results)

    def fail(self, op_id: int, why: str) -> None:
        self.failures.append(f"op {op_id} ({self.ops[op_id].command}): {why}")
        self.failed += 1

    def _check_pass(self, index: int, results) -> int:
        digests, nbytes = [], 0
        for _rc, out in results:
            digests.append(self.checks.artifact_digest(out))
            nbytes += sum(p.stat().st_size for p in out.iterdir())
        if self.reference is None:
            errors = []
            pos = 0
            for group in self.plan:
                group_results = results[pos : pos + len(group)]
                errors += self.checks.check_group(group, group_results)
                pos += len(group)
            for i, ((rc, _), errs) in enumerate(zip(results, errors)):
                if not isinstance(rc, int):
                    errs.append(str(rc))
                for e in errs:
                    self.failures.append(f"op {i} ({self.ops[i].command}): {e}")
            self.reference = [(d, rc, bool(e)) for d, (rc, _), e in zip(digests, results, errors)]
            self.workload_sha256 = hashlib.sha256(b"".join(digests)).hexdigest()
        for i, (digest, (rc, _)) in enumerate(zip(digests, results)):
            ref_digest, ref_rc, ref_failed = self.reference[i]
            mismatch = digest != ref_digest or rc != ref_rc
            if mismatch:
                self.failures.append(f"pass {index} op {i}: artifacts differ from the first pass")
            self.failed += int(mismatch or ref_failed)
        self.attempted += len(results)
        return nbytes


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(xs) - 1)
    idx = len(xs) - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / len(xs), beyond


def _per_op(passes):
    """Each op's median over the passes."""
    return [statistics.median(ts) for ts in zip(*passes)]


def _end_to_end(runner, setup):
    """Per-op latency is the median of its repeats, one per pass, at the nominal host speed.

    The shared host switches between speed levels that last from seconds to
    minutes. The calibration loop run before each op scales its time to the
    nominal level; the raw figures are printed beside the scaled ones.
    """
    n = len(runner.scaled_times)
    latency, raw = _per_op(runner.scaled_times), _per_op(runner.raw_times)
    ops = n * len(latency)
    metrics = {
        "setup_s": (setup[0], "s", f"median of {SETUP_PROBES} fresh processes; raw {setup[1]:.4g} s"),
        "ops_per_s": (ops / sum(map(sum, runner.scaled_times)), "ops/s",
                      f"{ops} ops in {n} passes; raw {ops / sum(map(sum, runner.raw_times)):.4g} ops/s"),
    }
    for command in workloads.COMMANDS:
        pick = [i for i, op in enumerate(runner.ops) if op.command == command]
        value = statistics.median(latency[i] for i in pick) * 1e3
        raw_value = statistics.median(raw[i] for i in pick) * 1e3
        metrics[f"{command}_ms_p50"] = (value, "ms", f"n={len(pick)} ops, median of {n} passes each; "
                                        f"raw {raw_value:.4g} ms")
    value, pct, beyond = _tail(latency)
    metrics["op_ms_tail"] = (value * 1e3, "ms", f"p{pct:.1f}, {beyond} ops beyond; raw {_tail(raw)[0] * 1e3:.4g} ms")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MiB", "")
    return metrics


def _per_layer(runner, tracer, untraced_s, traced_s, traced_bytes, calib):
    commands = [op.command for op in runner.ops]
    steps = [op.config["steps"] for op in runner.ops]
    extra = {
        "artifact_bytes": traced_bytes,
        "reference_s": layers.reference_seconds(tracer),
        "calib_ms": statistics.median(calib),
        "overhead_ratio": traced_s / untraced_s,
    }
    return {name: (value, unit, "") for name, (value, unit)
            in layers.per_layer_metrics(tracer, commands, steps, extra).items()}


def run(args) -> dict:
    cli = _load_library()
    plan, config_texts = _generate(args)
    calib = Calibration()
    setup = None if args.trace else _measure_setup(args, calib)
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_ROOT))
    try:
        runner = Runner(cli, plan, config_texts, work, calib)
        if args.trace:
            # Untraced passes before and after the traced one; the overhead
            # ratio compares the traced pass with each op's untraced median.
            host = [reference.host_calib_ms() for _ in range(CALIB_REPEATS)]
            runner.run_pass(0)
            tracer = Tracer(layers.OBSERVERS)
            tracer.install()
            try:
                traced, traced_bytes = runner.run_pass(1, tracer)
            finally:
                tracer.uninstall()
            runner.run_pass(2)
            tracer.write(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json",
                         [[op.command, op.config] for op in runner.ops])
            host += [reference.host_calib_ms() for _ in range(CALIB_REPEATS)]
            observer_errors = {op: n for (op, key), n in tracer.counts.items() if key == "observer_errors"}
            print(f"observer_errors {sum(observer_errors.values())} count")
            for op_id in sorted(observer_errors):
                runner.fail(op_id, "a tracer observer raised, so its exact counts are missing")
            untraced_s = sum(_per_op(runner.scaled_times))
            metrics = _per_layer(runner, tracer, untraced_s, sum(traced), traced_bytes, host)
        else:
            # A fixed number of whole passes for a given --seconds, so that
            # every run takes each op's median over the same number of repeats.
            passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            for index in range(passes):
                runner.run_pass(index)
            metrics = _end_to_end(runner, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"calibration_ms {statistics.median(calib.samples)!r} ms "
          f"(median of {len(calib.samples)} loops; {calib.nominal_ms} ms at the nominal host speed)")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} ops, {runner.failed} failed")
    print(f"failed_op_ratio {runner.failed / runner.attempted!r} ratio")
    print(f"artifacts_sha256 {runner.workload_sha256}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        _load_library()
        _generate(args)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
