"""Command-line front end: config parsing, workflows, CSV/JSON artifacts.

Subcommands: simulate | verify | bound | threshold | sweep. Configs are a
single JSON document; outputs are deterministic (same config and seed give
byte-identical files).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import BoxDomain, Field
from .evolution import BlewUpAt, Params, normalize_scaling, simulate
from .majorant import (
    bound_alpha_gt_1,
    bound_alpha_le_1,
    compute_trace,
    find_threshold,
    tail_start,
    verify_comparison,
)
from .spectral import analyze, mode_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2


class ConfigError(ValueError):
    """Config rejection carrying the offending field path."""


# ---------------------------------------------------------------------------
# deterministic RNG for random initial data (splitmix64, reproducible across
# implementations)

_MASK = (1 << 64) - 1


def splitmix64_stream(seed: int):
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def splitmix64_uniform(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1), one per draw, in draw order."""
    gen = splitmix64_stream(seed)
    return np.array([next(gen) / 2.0**64 for _ in range(count)])


# ---------------------------------------------------------------------------
# field file format: extents plus flat values over all sites, lexicographic


def write_field_json(path: Path, f: Field) -> None:
    doc = {
        "extents": list(f.domain.extents),
        "values": [format(v, ".17g") for v in f.values.ravel()],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def read_field_json(path: Path) -> Field:
    doc = json.loads(path.read_text())
    domain = BoxDomain(tuple(doc["extents"]))
    values = np.array([float(v) for v in doc["values"]]).reshape(domain.shape)
    return Field(domain, values)


# ---------------------------------------------------------------------------
# config


@dataclass
class ExperimentConfig:
    extents: tuple[int, ...]
    alpha: float
    delta: float
    steps: int
    init: dict
    amplitude: float = 1.0
    eps_blow: float = 0.0
    comparison_slack: float = 1e-12
    threshold_tol: float = 1e-3
    sweep: dict | None = None

    @property
    def domain(self) -> BoxDomain:
        return BoxDomain(self.extents)

    @property
    def params(self) -> Params:
        return Params(alpha=self.alpha, delta=self.delta)


def _require(doc: dict, key: str, kind, path: str = ""):
    where = f"{path}{key}"
    if key not in doc:
        raise ConfigError(f"{where}: missing required field")
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, kind):  # bool is an int subclass
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _optional_float(doc: dict, key: str, default: float) -> float:
    return _require(doc, key, float) if key in doc else default


def parse_config(doc: dict) -> ExperimentConfig:
    extents = _require(doc, "extents", list)
    if not extents or not all(isinstance(n, int) and not isinstance(n, bool) for n in extents):
        raise ConfigError("extents: must be a nonempty list of integers")
    if any(n < 2 for n in extents):
        raise ConfigError("extents: every extent must be >= 2")
    alpha = _require(doc, "alpha", float)
    if not alpha > 0:
        raise ConfigError("alpha: must be > 0")
    delta = _require(doc, "delta", float)
    if not delta > 0:
        raise ConfigError("delta: must be > 0")
    steps = _require(doc, "steps", int)
    if steps < 0:
        raise ConfigError("steps: must be >= 0")
    init = _require(doc, "init", dict)
    kind = _require(init, "kind", str, path="init.")
    if kind not in {"delta_center", "constant_interior", "sine_mode", "file", "random"}:
        raise ConfigError(f"init.kind: unknown profile kind {kind!r}")
    if kind == "sine_mode":
        mode = _require(init, "mode", list, path="init.")
        if len(mode) != len(extents):
            raise ConfigError("init.mode: length must match extents")
    if kind == "file":
        _require(init, "path", str, path="init.")
    if kind == "random":
        seed = _require(init, "seed", int, path="init.")
        if seed < 0:
            raise ConfigError("init.seed: must be >= 0")
        amp = _require(init, "max_amplitude", float, path="init.")
        if not amp > 0:
            raise ConfigError("init.max_amplitude: must be > 0")
    cfg = ExperimentConfig(
        extents=tuple(extents),
        alpha=alpha,
        delta=delta,
        steps=steps,
        init=init,
        amplitude=_optional_float(doc, "amplitude", 1.0),
        eps_blow=_optional_float(doc, "eps_blow", 0.0),
        comparison_slack=_optional_float(doc, "comparison_slack", 1e-12),
        threshold_tol=_optional_float(doc, "threshold_tol", 1e-3),
        sweep=doc.get("sweep"),
    )
    if not cfg.amplitude >= 0:
        raise ConfigError("amplitude: must be >= 0")
    if not cfg.eps_blow >= 0:
        raise ConfigError("eps_blow: must be >= 0")
    if not cfg.threshold_tol > 0:
        raise ConfigError("threshold_tol: must be > 0")
    if cfg.sweep is not None:
        if not isinstance(cfg.sweep, dict):
            raise ConfigError("sweep: expected an object")
        for k in ("alphas", "amplitudes"):
            vals = _require(cfg.sweep, k, list, path="sweep.")
            if not vals or not all(isinstance(v, (int, float)) and v > 0 for v in vals):
                raise ConfigError(f"sweep.{k}: must be a nonempty list of positives")
    return cfg


def load_config(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return parse_config(doc)


def build_profile(cfg: ExperimentConfig) -> Field:
    """Unit-scale initial profile; callers apply cfg.amplitude."""
    domain = cfg.domain
    kind = cfg.init["kind"]
    if kind == "delta_center":
        f = Field.zeros(domain)
        center = tuple(n // 2 for n in domain.extents)
        f.values[center] = 1.0
        return f
    if kind == "constant_interior":
        return Field.from_interior(domain, np.ones(domain.interior_shape))
    if kind == "sine_mode":
        mode = tuple(int(m) for m in cfg.init["mode"])
        if not domain.is_interior(mode):
            raise ConfigError("init.mode: must be an interior multi-index")
        return mode_table(domain).mode_field(mode)
    if kind == "file":
        f = read_field_json(Path(cfg.init["path"]))
        if f.domain.extents != domain.extents:
            raise ConfigError("init.path: field extents do not match config extents")
        return f
    if kind == "random":
        flat = splitmix64_uniform(cfg.init["seed"], domain.n_interior)
        interior = cfg.init["max_amplitude"] * flat.reshape(domain.interior_shape)
        return Field.from_interior(domain, interior)
    raise ConfigError(f"init.kind: unknown profile kind {kind!r}")


def initial_field(cfg: ExperimentConfig) -> Field:
    profile = build_profile(cfg)
    return Field(profile.domain, profile.values * cfg.amplitude)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _echo_params(cfg: ExperimentConfig) -> dict:
    return {
        "extents": list(cfg.extents),
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "threshold": cfg.params.threshold,
        "steps": cfg.steps,
        "amplitude": cfg.amplitude,
        "init": cfg.init,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    a = initial_field(cfg)
    report = simulate(a, cfg.params, cfg.steps, eps_blow=cfg.eps_blow)
    with (out / "trajectory.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "max_f", "max_g", "blowup_flag"])
        last = len(report.trace) - 1
        for s, rec in enumerate(report.trace):
            flag = int(report.blew_up and s == last)
            w.writerow([s, _fmt(rec.max_f), _fmt(rec.max_g), flag])
    doc = {"parameters": _echo_params(cfg)}
    if report.blew_up:
        assert isinstance(report.outcome, BlewUpAt)
        doc["outcome"] = {
            "kind": "blew_up",
            "s0": report.outcome.step,
            "n0": list(report.outcome.site),
            "g_value": report.outcome.g_value,
        }
    else:
        doc["outcome"] = {"kind": "survived", "steps": cfg.steps}
    _write_json(out / "report.json", doc)
    return EXIT_BLOWUP if report.blew_up else EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    a, p_scaled = normalize_scaling(initial_field(cfg), cfg.params)
    verdict = verify_comparison(a, p_scaled.alpha, cfg.steps, slack=cfg.comparison_slack)
    doc = {
        "parameters": _echo_params(cfg),
        "holds": verdict.holds,
        "checked_steps": verdict.checked_steps,
        "defined_up_to": verdict.defined_up_to,
        "truncated": verdict.defined_up_to < cfg.steps,
        "margins": [float(m) for m in verdict.margins],
        "partial_sums": [float(x) for x in verdict.trace.partial_sums],
    }
    if verdict.failure is not None:
        doc["failure"] = {
            "step": verdict.failure.step,
            "site": list(verdict.failure.site),
            "majorant_value": verdict.failure.majorant_value,
            "solution_value": verdict.failure.solution_value,
        }
    _write_json(out / "verify.json", doc)
    return EXIT_OK if verdict.holds else EXIT_BLOWUP


def _regime_bound(cfg: ExperimentConfig, a_scaled: Field):
    table = mode_table(a_scaled.domain)
    B_max = analyze(a_scaled).max_abs
    if cfg.alpha <= 1:
        return bound_alpha_le_1(B_max, table, cfg.alpha)
    s0 = tail_start(table)
    trace = compute_trace(a_scaled, cfg.alpha, s0)
    return bound_alpha_gt_1(B_max, table, cfg.alpha, trace.m[:s0])


def cmd_bound(cfg: ExperimentConfig, out: Path) -> int:
    a, _ = normalize_scaling(initial_field(cfg), cfg.params)
    report = _regime_bound(cfg, a)
    doc = {
        "parameters": _echo_params(cfg),
        "regime": report.regime,
        "bound_value": report.bound_value,
        "B_max": report.B_max,
        "s0_tail": report.s0_tail,
        "certifies_global_existence": report.bound_value < 1.0,
    }
    _write_json(out / "bound.json", doc)
    return EXIT_OK


def cmd_threshold(cfg: ExperimentConfig, out: Path) -> int:
    profile = build_profile(cfg)
    result = find_threshold(profile, cfg.params, cfg.steps, cfg.threshold_tol)
    with (out / "bisection.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "amplitude", "blew_up"])
        for i, (lam, blew) in enumerate(result.evaluations):
            w.writerow([i, _fmt(lam), int(blew)])
    _write_json(
        out / "threshold.json",
        {
            "parameters": _echo_params(cfg),
            "amplitude": result.amplitude,
            "hit_ceiling": result.hit_ceiling,
            "tolerance": cfg.threshold_tol,
            "probes": len(result.evaluations),
        },
    )
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: required for the sweep command")
    profile = build_profile(cfg)
    rows = []
    for alpha in cfg.sweep["alphas"]:
        for amplitude in cfg.sweep["amplitudes"]:
            p = Params(alpha=float(alpha), delta=cfg.delta)
            a = Field(profile.domain, profile.values * float(amplitude))
            report = simulate(a, p, cfg.steps, eps_blow=cfg.eps_blow)
            a_scaled, _ = normalize_scaling(a, p)
            sub = ExperimentConfig(**{**cfg.__dict__, "alpha": float(alpha)})
            bound = _regime_bound(sub, a_scaled)
            if report.blew_up:
                outcome, s_col = "blew_up", report.outcome.step
            else:
                outcome, s_col = "survived", cfg.steps
            rows.append(
                [_fmt(alpha), _fmt(amplitude), outcome, s_col, _fmt(bound.bound_value)]
            )
    with (out / "sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "amplitude", "outcome", "s0_or_steps", "bound_value"])
        w.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeheat",
        description="Lattice heat dynamics: blow-up detection, majorant "
        "verification, and global-existence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "verify", "bound", "threshold", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, required=True)
        cmd.add_argument("--out", type=Path, default=Path("."))
        cmd.add_argument("--seed", type=int, default=None, help="override init.seed")
        cmd.add_argument("--steps", type=int, default=None, help="override steps")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "threshold": cmd_threshold,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if cfg.init.get("kind") != "random":
                raise ConfigError("--seed: only valid with init.kind == 'random'")
            cfg.init["seed"] = args.seed
        if args.steps is not None:
            if args.steps < 0:
                raise ConfigError("--steps: must be >= 0")
            cfg.steps = args.steps
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
