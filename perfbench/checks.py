"""Output checks on the artifacts of one group of ops.

They run outside the timed region and hold for any seed: each is a property
of the CLI contract or a theorem the acceptance suite also checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from latticeheat import Field, simulate
from latticeheat.cli import build_profile, parse_config
from workloads import Op, same_instance

BOUND_SLACK = 1e-12


def artifact_digest(out: Path) -> bytes:
    """SHA-256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.digest()


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_simulate(op: Op, rc: int, out: Path) -> list[str]:
    outcome = json.loads((out / "report.json").read_text())["outcome"]
    blew = outcome["kind"] == "blew_up"
    errors = []
    if rc != (2 if blew else 0):
        errors.append(f"simulate exit {rc} disagrees with outcome {outcome['kind']}")
    rows = _rows(out / "trajectory.csv")
    expected = outcome["s0"] + 1 if blew else op.config["steps"] + 1
    if len(rows) != expected:
        errors.append(f"trajectory has {len(rows)} rows, expected {expected}")
    elif rows[-1][3] != str(int(blew)):
        errors.append("last trajectory row has the wrong blowup_flag")
    return errors


def _check_verify(rc: int, out: Path) -> list[str]:
    doc = json.loads((out / "verify.json").read_text())
    if rc != 0 or doc["holds"] is not True:
        return [f"verify does not hold (exit {rc})"]
    return []


def _check_threshold(op: Op, rc: int, out: Path) -> list[str]:
    if rc != 0:
        return [f"threshold exit {rc}"]
    doc = json.loads((out / "threshold.json").read_text())
    errors = []
    if len(_rows(out / "bisection.csv")) != doc["probes"]:
        errors.append("bisection.csv rows disagree with threshold.json probes")
    if not doc["hit_ceiling"]:
        cfg = parse_config(op.config)
        profile = build_profile(cfg)
        tol = cfg.threshold_tol
        for scale, must_blow in ((1 + tol), True), ((1 - tol), False):
            a = Field(profile.domain, profile.values * doc["amplitude"] * scale)
            if simulate(a, cfg.params, cfg.steps).blew_up != must_blow:
                errors.append(f"amplitude x{scale:g} does not {'blow up' if must_blow else 'survive'}")
    return errors


def _check_sweep(op: Op, rc: int, out: Path) -> list[str]:
    if rc != 0:
        return [f"sweep exit {rc}"]
    rows = _rows(out / "sweep.csv")
    grid = op.config["sweep"]
    if len(rows) != len(grid["alphas"]) * len(grid["amplitudes"]):
        return [f"sweep.csv has {len(rows)} rows"]
    errors = []
    per_alpha = len(grid["amplitudes"])
    for start in range(0, len(rows), per_alpha):
        seen_blowup_at = None
        for alpha, _amp, outcome, s_col, bound in rows[start : start + per_alpha]:
            if outcome == "blew_up":
                if seen_blowup_at is not None and int(s_col) > seen_blowup_at:
                    errors.append(f"alpha {alpha}: blow-up step grows with amplitude")
                seen_blowup_at = int(s_col)
                if float(bound) < 1.0:
                    errors.append(f"alpha {alpha}: certified row blew up")
            elif seen_blowup_at is not None:
                errors.append(f"alpha {alpha}: survival after a smaller blow-up")
    return errors


def check_group(ops: list[Op], results: list[tuple[int, Path]]) -> list[list[str]]:
    """Failures per op of one group; `results` holds (exit code, out dir) per op."""
    errors: list[list[str]] = [[] for _ in ops]
    for i, (op, (rc, out)) in enumerate(zip(ops, results)):
        try:
            if op.command == "simulate":
                errors[i] += _check_simulate(op, rc, out)
            elif op.command == "verify":
                errors[i] += _check_verify(rc, out)
            elif op.command == "threshold":
                errors[i] += _check_threshold(op, rc, out)
            elif op.command == "sweep":
                errors[i] += _check_sweep(op, rc, out)
            elif op.command == "bound":
                errors[i] += _check_bound(op, rc, out, ops, results)
        except (OSError, ValueError, KeyError, IndexError) as e:
            errors[i].append(f"unreadable artifacts: {e!r}")
    return errors


def _check_bound(op: Op, rc: int, out: Path, ops, results) -> list[str]:
    if rc != 0:
        return [f"bound exit {rc}"]
    doc = json.loads((out / "bound.json").read_text())
    bound = doc["bound_value"]
    errors = []
    for other, (other_rc, other_out) in zip(ops, results):
        if other is op or not same_instance(op, other):
            continue
        if other.command == "verify" and other_rc == 0:
            last = json.loads((other_out / "verify.json").read_text())["partial_sums"][-1]
            if last > bound + BOUND_SLACK:
                errors.append(f"verify partial sum {last!r} exceeds bound {bound!r}")
        if other.command == "simulate" and doc["certifies_global_existence"] and other_rc == 2:
            errors.append("certified instance blew up in simulate")
    return errors
