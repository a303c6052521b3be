"""Command-line front end: config parsing, workflows, CSV/JSON artifacts.

The command positional is one of simulate | verify | bound | threshold | sweep.
Configs are a single JSON document; outputs are deterministic (same config and seed give
byte-identical files). `main` checks every input before it creates `--out`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .domain import BoxDomain, Field
from .evolution import Params, _check_solution_field, simulate
from .majorant import (COMPARISON_SLACK, _bracket_top, _Probe, find_threshold, regime_bound,
                       verify_comparison)
from .spectral import mode_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2


class ConfigError(ValueError):
    """Config rejection carrying the offending field path."""


# ---------------------------------------------------------------------------
# deterministic RNG for random initial data (splitmix64, reproducible anywhere)


def splitmix64_uniform(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1), one per splitmix64 draw, in draw order."""
    steps = np.arange(1, count + 1, dtype=np.uint64)  # uint64 arithmetic wraps mod 2^64
    z = np.uint64(seed % 2**64) + steps * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> 31)) / 2.0**64


# ---------------------------------------------------------------------------
# field file format: extents plus flat values over all sites, lexicographic


def _read_json(path: Path, key: str) -> dict:
    """The JSON object in the file at `path`; any fault is a ConfigError naming `key`."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
        why = f"invalid JSON ({e})" if isinstance(e, json.JSONDecodeError) else e
        raise ConfigError(f"{key}: {why}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{key}: top level must be an object")
    return doc


def read_field_json(path: Path) -> Field:
    """The field file named by init.path; a malformed one is a ConfigError naming it."""
    doc = _read_json(path, "init.path")
    field = _read(doc, _FIELD, "init.path: ")
    domain = BoxDomain(tuple(field["extents"]))
    values = field["values"]
    if len(values) != domain.n_sites:
        raise ConfigError(f"init.path: values: {domain.n_sites} sites, got {len(values)}")
    # numbers, or ".17g" decimal strings: float() also reads bools, spaces, _ and other digits
    bad = [v for v in values if type(v) is bool or type(v) is str and not _LITERAL.fullmatch(v)]
    if bad:
        raise ConfigError(f"init.path: values: not a number: {bad[0]!r}")
    flat = _keyed("init.path: values: ", lambda: np.array([float(v) for v in values]))
    return Field(domain, flat.reshape(domain.shape))


# ---------------------------------------------------------------------------
# config


def _keyed(prefix: str, rule, *args):
    """rule(*args); an error it raises on bad input becomes a ConfigError that starts prefix."""
    try:
        return rule(*args)
    except (TypeError, ValueError, ArithmeticError, OSError) as e:
        raise ConfigError(f"{prefix}{e}") from e


_REQUIRED = object()  # the default of a key that must be present


def _read(doc: dict, table: tuple, prefix: str = "", cfg: dict | None = None) -> dict:
    """The value in `doc` of each key in `table`; a fault is a ConfigError naming prefix + key.

    A row is (key, type, default, checks), read in order. An absent key takes the default.
    A value must be of the type (None: any; an int is read as a float where one is due),
    finite if a float, and pass each check (test, message): test(value, cfg) is true, where
    cfg holds the values read so far unless the caller passes its own. A test that reads a
    sub-table or builds Params raises its own ConfigError and is true otherwise. Once every row
    has passed, a key of `doc` that no row names is a fault too, the first in sorted order.
    """
    vals = {}
    cfg = vals if cfg is None else cfg
    for key, kind, default, checks in table:
        if key not in doc:
            if default is _REQUIRED:
                raise ConfigError(f"{prefix}{key}: missing required field")
            vals[key] = default
            continue
        val = doc[key]
        if kind is float and type(val) is int:  # not bool
            val = float(val) if abs(val) <= sys.float_info.max else math.inf
        exact = type(val) is kind  # as json.loads gives them; bool is an int subclass
        if not exact and kind and (isinstance(val, bool) or not isinstance(val, kind)):
            raise ConfigError(f"{prefix}{key}: expected {kind.__name__}, got {type(val).__name__}")
        if kind is float and not math.isfinite(val):
            raise ConfigError(f"{prefix}{key}: must be finite")
        for test, why in checks:
            if not test(val, cfg):
                raise ConfigError(f"{prefix}{key}: {why.format(val)}")
        vals[key] = val
    unknown = sorted(set(doc) - {row[0] for row in table})
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")
    return vals


def _init(init: dict, cfg: dict) -> bool:
    """True once init.kind and the keys that kind reads have passed their rows, as one table."""
    _read(init, _KIND + _INIT.get(str(init.get("kind")), ()), "init.", cfg)
    return True


_AT_LEAST_0 = ((lambda v, cfg: v >= 0, "must be >= 0"),)
_ABOVE_0 = ((lambda v, cfg: v > 0, "must be > 0"),)
_EXTENTS = (  # bools are rejected
    (lambda v, cfg: v and all(type(n) is int for n in v), "must be a nonempty list of integers"),
    (lambda v, cfg: min(v) >= 2, "every extent must be >= 2"),
)
_POSITIVES = (  # sweep.alphas, sweep.amplitudes
    (lambda v, cfg: v and all(type(x) in (int, float) and 0 < x <= sys.float_info.max for x in v),
     "must be a nonempty list of positives"),
)
_KIND = (("kind", str, _REQUIRED, ((lambda v, cfg: v in _INIT, "unknown profile kind {!r}"),)),)
_INIT = {  # the keys each init.kind reads
    "delta_center": (),
    "constant_interior": (),
    "sine_mode": (("mode", list, _REQUIRED, (
        (lambda v, cfg: len(v) == len(cfg["extents"]), "length must match extents"),
        (lambda v, cfg: all(type(m) is int for m in v), "must be a list of integers"),
        (lambda v, cfg: BoxDomain(tuple(cfg["extents"])).is_interior(tuple(v)),
         "must be an interior multi-index"),
    )),),
    "file": (("path", str, _REQUIRED, ()),),
    "random": (
        ("seed", int, _REQUIRED, _AT_LEAST_0),
        ("max_amplitude", float, _REQUIRED, _ABOVE_0),
    ),
}
_SWEEP = (("alphas", list, _REQUIRED, _POSITIVES), ("amplitudes", list, _REQUIRED, _POSITIVES))
_CONFIG = (  # the keys of a config, each an attribute of parse_config's namespace
    ("extents", list, _REQUIRED, _EXTENTS),
    ("alpha", float, _REQUIRED, ()),
    # Params' messages start with the key
    ("delta", float, _REQUIRED, ((lambda v, cfg: _keyed("", Params, cfg["alpha"], v), ""),)),
    ("steps", int, _REQUIRED, _AT_LEAST_0),
    ("init", dict, _REQUIRED, ((_init, ""),)),
    ("amplitude", float, 1.0, _AT_LEAST_0),
    ("eps_blow", float, 0.0, _AT_LEAST_0),
    ("comparison_slack", float, COMPARISON_SLACK, _AT_LEAST_0),
    ("threshold_tol", float, 1e-3, _ABOVE_0),
    ("sweep", None, None, (  # null is no sweep
        (lambda v, cfg: v is None or isinstance(v, dict), "expected an object"),
        (lambda v, cfg: v is None or _read(v, _SWEEP, "sweep."), ""),
    )),
)
_FIELD = (("extents", list, _REQUIRED, _EXTENTS), ("values", list, _REQUIRED, ()))
_LITERAL = re.compile(r"[+-]?(inf|nan|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)")  # ASCII


def parse_config(doc: dict) -> SimpleNamespace:
    """The checked config: an attribute per `_CONFIG` key, and `params`, built once."""
    cfg = _read(doc, _CONFIG)
    cfg["extents"] = tuple(cfg["extents"])
    return SimpleNamespace(**cfg, params=Params(cfg["alpha"], cfg["delta"]))


def load_config(args: argparse.Namespace) -> SimpleNamespace:
    """The config `--config` names, with `--steps` and `--seed` written in before parsing."""
    doc = _read_json(args.config, "config")
    if args.steps is not None:
        doc["steps"] = args.steps
    if args.seed is not None:
        if not (isinstance(doc.get("init"), dict) and doc["init"].get("kind") == "random"):
            raise ConfigError("--seed: only valid with init.kind == 'random'")
        doc["init"]["seed"] = args.seed
    return parse_config(doc)


def build_profile(cfg: SimpleNamespace) -> Field:
    """Unit-scale initial profile; callers apply cfg.amplitude."""
    domain = BoxDomain(cfg.extents)
    kind = cfg.init["kind"]
    if kind == "delta_center":
        f = Field(domain, np.zeros(domain.shape))
        center = tuple(n // 2 for n in domain.extents)
        f.values[center] = 1.0
        return f
    if kind == "constant_interior":
        return Field.from_interior(domain, np.ones(domain.interior_shape))
    if kind == "sine_mode":
        return mode_table(domain).mode_field(tuple(cfg.init["mode"]))
    if kind == "file":
        f = read_field_json(Path(cfg.init["path"]))
        if f.domain.extents != domain.extents:
            raise ConfigError("init.path: field extents do not match config extents")
        return f
    flat = splitmix64_uniform(cfg.init["seed"], domain.n_interior)  # kind == "random"
    interior = cfg.init["max_amplitude"] * flat.reshape(domain.interior_shape)
    return Field.from_interior(domain, interior)


def _check_data(command: str, cfg: SimpleNamespace, profile: Field) -> float:
    """The checked maximum of the profile (of |profile| for bound); a fault is a ConfigError naming
    the key it came from. Rounding is monotone, so c * profile has the maximum c * peak for c >= 0,
    and can fault only by overflowing: the largest amplitude's data, then each alpha's scaled data
    but simulate's, are tested as these scalars."""
    if command == "bound":  # the certificate also reads signed data
        profile = Field(profile.domain, np.abs(profile.values))
    key = {"file": "init.path: values: ", "sine_mode": "init.mode: "}.get(cfg.init["kind"], "")
    peak = _keyed(key, _check_solution_field, profile)
    if command == "threshold":
        _keyed(key, _bracket_top, peak, cfg.params)
        return peak
    if command == "sweep" and cfg.sweep is None:
        raise ConfigError("sweep: required for the sweep command")
    key, prefix, sweep = "amplitude: ", "", {"alphas": [cfg.alpha], "amplitudes": [cfg.amplitude]}
    if command == "sweep":
        key, prefix, sweep = "sweep.amplitudes: ", "sweep.alphas: ", cfg.sweep
    top = peak * float(max(sweep["amplitudes"]))
    alphas = sweep["alphas"] if command != "simulate" else ()  # each scales to threshold 1
    scaled = (top * _keyed(prefix, lambda a: Params(a, cfg.delta).scale, float(a)) for a in alphas)
    if not top < math.inf or any(not x < math.inf for x in scaled):  # lazily: faults in order
        raise ConfigError(f"{key}field has non-finite values")
    return peak


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _numbered_rows(lo: int, hi: int, sep: str) -> str:
    """sep.join(map(str, range(lo, hi))) + sep; from max(lo, 100), rounded up to a hundred, to
    the last whole hundred, each hundred is its number joined with a template of rows 00..99."""
    a = min(hi, max(100, -(-lo // 100) * 100))
    b = max(a, hi // 100 * 100)
    block = ["", *(f"{s:02d}{sep}" for s in range(100 if b > a else 0))]
    return "".join([*(f"{s}{sep}" for s in range(lo, a)),
                    *(str(h).join(block) for h in range(a // 100, b // 100)),
                    *(f"{s}{sep}" for s in range(b, hi))])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = (",".join(map(str, row)) + "\r\n" for row in [header, *rows])
    path.write_text("".join(lines), newline="")


def _echo_params(cfg: SimpleNamespace) -> dict:
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


def _scaled(profile: Field, amplitude: float, p: Params) -> Field:
    return Field(profile.domain, profile.values * amplitude * p.scale)


def cmd_simulate(cfg: SimpleNamespace, profile: Field, peak: float, out: Path) -> int:
    a = Field(profile.domain, profile.values * cfg.amplitude)
    report = simulate(a, cfg.params, cfg.steps, eps_blow=cfg.eps_blow)
    # trajectory.csv as csv.writer writes it: rows one by one up to the tail, where the trace
    # repeats its last record, then the tail as one `_numbered_rows` string. A copy step's max_f
    # is the last max_g's float object, whose string it reuses. A blow-up flags the last row.
    trace = report.trace
    tail = bisect.bisect_left(trace, True, key=lambda rec: rec is trace[-1])
    text, last_g, cell = ["step,max_f,max_g,blowup_flag\r\n"], None, ""
    for s, (max_f, max_g) in enumerate(trace[:tail + 1]):
        f_cell = cell if max_f is last_g else format(max_f, ".17g")
        last_g, cell = max_g, format(max_g, ".17g")
        sep = f",{f_cell},{cell},0\r\n"
        text.append(f"{s}{sep}")
    text[-1] = _numbered_rows(tail, len(trace), sep)
    doc = {"parameters": _echo_params(cfg), "outcome": {"kind": "survived", "steps": cfg.steps}}
    if report.blew_up:
        text[-1] = text[-1][:-3] + "1\r\n"
        doc["outcome"] = {
            "kind": "blew_up",
            "s0": report.outcome.step,
            "n0": list(report.outcome.site),
            "g_value": report.outcome.g_value,
        }
    (out / "trajectory.csv").write_text("".join(text), newline="")
    _write_json(out / "report.json", doc)
    return EXIT_BLOWUP if report.blew_up else EXIT_OK


def cmd_verify(cfg: SimpleNamespace, profile: Field, peak: float, out: Path) -> int:
    verdict = verify_comparison(_scaled(profile, cfg.amplitude, cfg.params), cfg.alpha,
                                cfg.steps, slack=cfg.comparison_slack)
    doc = {
        "parameters": _echo_params(cfg),
        "holds": verdict.holds,
        "checked_steps": len(verdict.margins),
        "defined_up_to": verdict.trace.defined_up_to,
        "truncated": verdict.trace.defined_up_to < cfg.steps,
        "margins": verdict.margins.tolist(),
        "partial_sums": verdict.trace.partial_sums.tolist(),
    }
    if verdict.failure is not None:
        doc["failure"] = asdict(verdict.failure)
    _write_json(out / "verify.json", doc)
    return EXIT_OK if verdict.holds else EXIT_BLOWUP


def cmd_bound(cfg: SimpleNamespace, profile: Field, peak: float, out: Path) -> int:
    report = regime_bound(_scaled(profile, cfg.amplitude, cfg.params), cfg.alpha)
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


def cmd_threshold(cfg: SimpleNamespace, profile: Field, peak: float, out: Path) -> int:
    result = find_threshold(profile, cfg.params, cfg.steps, cfg.threshold_tol, cfg.eps_blow)
    rows = ([i, _fmt(lam), int(blew)] for i, (lam, blew) in enumerate(result.evaluations))
    _write_csv(out / "bisection.csv", ["probe", "amplitude", "blew_up"], rows)
    doc = {
        "parameters": _echo_params(cfg),
        "amplitude": result.amplitude,
        "hit_ceiling": result.hit_ceiling,
        "tolerance": cfg.threshold_tol,
        "probes": len(result.evaluations),
    }
    _write_json(out / "threshold.json", doc)
    return EXIT_OK


def cmd_sweep(cfg: SimpleNamespace, profile: Field, peak: float, out: Path) -> int:
    rows = []
    for alpha in cfg.sweep["alphas"]:
        p = Params(alpha=float(alpha), delta=cfg.delta)
        probe = None  # the last alpha's stepper goes before this one's is built
        probe = _Probe(profile, peak, p, cfg.steps, cfg.eps_blow, blowup_exit=False)
        for amplitude in cfg.sweep["amplitudes"]:
            s0 = probe(float(amplitude))  # simulate's blow-up step, or None
            bound = regime_bound(_scaled(profile, float(amplitude), p), p.alpha)
            outcome = ("survived", cfg.steps) if s0 is None else ("blew_up", s0)
            rows.append([_fmt(alpha), _fmt(amplitude), *outcome, _fmt(bound.bound_value)])
    header = ["alpha", "amplitude", "outcome", "s0_or_steps", "bound_value"]
    _write_csv(out / "sweep.csv", header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "threshold": cmd_threshold,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its argv faults as ConfigError, for exit 1."""

    def error(self, message: str):
        # argparse quotes no token in some messages; a line break in one would split the line
        raise ConfigError(" ".join(message.splitlines()))


def _integer(text: str) -> int:
    """An argv integer. int() alone would also read spaces, _ separators and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):  # ASCII, so not \d
        raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits(); argparse would name this function
        raise argparse.ArgumentTypeError(f"more than {sys.get_int_max_str_digits()} digits") from None


def build_parser() -> argparse.ArgumentParser:
    """The argv parser. `main` parses with `_PARSER`, built once per process, at import."""
    parser = _Parser(
        prog="latticeheat",
        description="Lattice heat dynamics: blow-up detection, majorant "
        "verification, and global-existence certificates.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--seed", type=_integer, default=None, help="override init.seed")
    parser.add_argument("--steps", type=_integer, default=None, help="override steps")
    return parser


_PARSER = build_parser()  # parse_args writes nothing into it, and every default is immutable


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)  # -h prints the help and exits 0
        cfg = load_config(args)
        try:
            profile = build_profile(cfg)
        except ConfigError:
            raise
        except (MemoryError, ValueError) as e:  # numpy cannot allocate that many sites or axes
            raise ConfigError(f"extents: {e}") from e
        peak = _check_data(args.command, cfg, profile)
        # only once every input has passed; a path with a NUL byte is a ValueError
        _keyed("--out: ", lambda: args.out.mkdir(parents=True, exist_ok=True))
        return _COMMANDS[args.command](cfg, profile, peak, args.out)
    except (ConfigError, OSError, MemoryError) as e:  # OSError: writing the artifacts
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
