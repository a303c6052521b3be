"""The CLI's input boundary: malformed configs, field files and argv end in exit 1.

A fuzzer mutates valid configs and field files and asserts that `main` only
ever returns 0, 1 or 2 and raises nothing, that exit 1 leaves no `--out`
behind, and that exit 0 or 2 leaves the command's artifacts. Sizes stay small
(extents <= 6, steps <= 20) so every command finishes quickly. A second
fuzzer drops, duplicates or garbles one argv token of a valid run.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeheat import BoxDomain, Field, Params
from latticeheat.cli import (EXIT_ERROR, EXIT_OK, ConfigError, _check_data, _keyed, main,
                             parse_config)
from latticeheat.evolution import _check_solution_field
from latticeheat.majorant import _bracket_top

from conftest import write_field_json

COMMANDS = ("simulate", "verify", "bound", "threshold", "sweep")
ARTIFACTS = {
    "simulate": ("trajectory.csv", "report.json"),
    "verify": ("verify.json",),
    "bound": ("bound.json",),
    "threshold": ("threshold.json", "bisection.csv"),
    "sweep": ("sweep.csv",),
}


def _run(tmp: Path, command: str, config, field=None, *flags) -> tuple[int, str]:
    """Write the config (and a field file as text or JSON), run `main`, return (exit, stderr)."""
    if field is not None:
        (tmp / "field.json").write_text(field if isinstance(field, str) else json.dumps(field))
    (tmp / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    argv = [command, "--config", str(tmp / "config.json"), "--out", str(tmp / "out"), *flags]
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _field_doc(extents) -> dict:
    """A valid field file, as write_field_json writes it (values as strings)."""
    domain = BoxDomain(tuple(extents))
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "field.json"
        write_field_json(path, Field.from_interior(domain, np.full(domain.interior_shape, 0.3)))
        return json.loads(path.read_text())


def _config(extents, kind, steps, tmp: Path) -> dict:
    init = {
        "delta_center": {"kind": "delta_center"},
        "constant_interior": {"kind": "constant_interior"},
        "sine_mode": {"kind": "sine_mode", "mode": [1] * len(extents)},
        "file": {"kind": "file", "path": str(tmp / "field.json")},
        "random": {"kind": "random", "seed": 7, "max_amplitude": 0.5},
    }[kind]
    return {
        "extents": list(extents),
        "alpha": 1.5,
        "delta": 0.5,
        "steps": steps,
        "init": init,
        "amplitude": 0.8,
        "eps_blow": 0.0,
        "comparison_slack": 1e-12,
        "threshold_tol": 1e-2,
        "sweep": {"alphas": [0.5, 2.0], "amplitudes": [0.1, 0.9]},
    }


def _paths(doc, prefix=()):
    """Every key path and list-element path in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


def _mutate(doc, path, op, value):
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    if op == "drop":
        del parent[last]
    else:
        parent[last] = value


# null, bool, str, list, float (any, inf and nan included) and negative values;
# ints stay small so that a mutated size cannot make a run long
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 6), max_size=3),
    st.floats(),
    st.integers(-3, -1),
)
MUTATION = st.tuples(st.floats(0, 1), st.sampled_from(["drop", "swap"]), VALUES)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    kind=st.sampled_from(["delta_center", "constant_interior", "sine_mode", "file", "random"]),
    steps=st.integers(0, 20),
    config_mutations=st.lists(MUTATION, max_size=3),
    field_mutations=st.lists(MUTATION, max_size=2),
    field_top=st.sampled_from(["object", "list", "not json"]),
)
def test_main_never_raises(
    command, extents, kind, steps, config_mutations, field_mutations, field_top
):
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        config = _config(extents, kind, steps, tmp)
        field = _field_doc(extents)
        for doc, mutations in ((config, config_mutations), (field, field_mutations)):
            for where, op, value in mutations:
                paths = list(_paths(doc))
                if paths:
                    _mutate(doc, paths[min(int(where * len(paths)), len(paths) - 1)], op, value)
        field = {"object": field, "list": list(field.values()), "not json": "{"}[field_top]
        code, err = _run(tmp, command, config, field)
        assert code in (0, 1, 2)
        assert (code == EXIT_ERROR) == ("error: " in err)
        if code == EXIT_ERROR:
            assert not (tmp / "out").exists()
        else:
            assert all((tmp / "out" / name).is_file() for name in ARTIFACTS[command])


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    flags=st.sampled_from([(), ("--seed", "7"), ("--steps", "10"), ("--steps", "10", "--seed", "7")]),
    op=st.sampled_from(["drop", "duplicate", "insert", "delete", "replace"]),
    where=st.floats(0, 1),
    at=st.floats(0, 1),
    char=st.characters(blacklist_characters="/"),  # a garbled path stays in the run's directory
)
def test_garbled_argv_never_exits_2(command, flags, op, where, at, char):
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        # data far below the threshold: no command of a valid run exits 2
        config = {**_config([4], "random", 10, tmp), "amplitude": 0.1}
        (tmp / "config.json").write_text(json.dumps(config))
        argv = [command, "--config", "config.json", "--out", "out", *flags]
        i = min(int(where * len(argv)), len(argv) - 1)
        token = argv[i]
        j = min(int(at * (len(token) + 1)), len(token))
        if op == "drop":
            del argv[i]
        elif op == "duplicate":
            argv.insert(i, token)
        elif op == "insert":
            argv[i] = token[:j] + char + token[j:]
        elif op == "delete":
            argv[i] = token[:j] + token[j + 1:]
        else:
            argv[i] = token[:j] + char + token[j + 1:]
        err, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as e:  # argparse exits 2 on an argv fault; main must return 1
            code = f"SystemExit({e.code})"
        finally:
            os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_ERROR), argv
        assert (code == EXIT_ERROR) == err.getvalue().startswith("error: ")
        if code == EXIT_ERROR:
            assert len(err.getvalue().splitlines()) == 1
            assert [p.name for p in tmp.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "field, named",
    [
        ({"extents": [4]}, "init.path: values"),
        ([0, 0.5, 0.5, 0.5, 0], "init.path"),
        ({"extents": None, "values": [0, 0.5, 0.5, 0.5, 0]}, "init.path: extents"),
        ({"values": [0, 0.5, 0.5, 0.5, 0]}, "init.path: extents"),
        ({"extents": [4], "values": [0, 0.5, 0.5, 0]}, "init.path: values"),
        ({"extents": [4], "values": [0, None, 0.5, 0.5, 0]}, "init.path: values"),
        ({"extents": [4], "values": [0, "x", 0.5, 0.5, 0]}, "init.path: values"),
        ({"extents": [4], "values": [0, True, 0.5, 0.5, 0]}, "init.path: values"),
        ({"extents": [4.5], "values": [0, 0.5, 0.5, 0.5, 0]}, "init.path: extents"),
        ("{", "init.path"),
    ],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_bad_field_file_names_the_field(tmp_path, command, field, named):
    config = _config([4], "file", 10, tmp_path)
    code, err = _run(tmp_path, command, config, field)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {named}")


@pytest.mark.parametrize(
    "mutation, named",
    [
        ({"init": {"kind": "sine_mode", "mode": [1.7]}}, "init.mode"),
        ({"init": {"kind": "sine_mode", "mode": [None]}}, "init.mode"),
        ({"init": {"kind": "sine_mode", "mode": [True]}}, "init.mode"),
        ({"sweep": {"alphas": [True], "amplitudes": [0.5]}}, "sweep.alphas"),
        ({"sweep": {"alphas": [1.0], "amplitudes": [True]}}, "sweep.amplitudes"),
        ({"sweep": {"alphas": [float("inf")], "amplitudes": [0.5]}}, "sweep.alphas"),
        ({"delta": float("inf")}, "delta"),
        ({"comparison_slack": float("nan")}, "comparison_slack"),
    ],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_coerced_config_values_are_rejected(tmp_path, command, mutation, named):
    config = {**_config([4], "constant_interior", 10, tmp_path), **mutation}
    code, err = _run(tmp_path, command, config)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {named}")


@pytest.mark.parametrize(
    "extents, kind, values",
    [
        ([4], "constant_interior", {"alpha": 1e-300}),  # threshold overflows
        ([4], "constant_interior", {"alpha": 1e-200, "delta": 1e-200}),  # alpha*delta underflows
        ([6, 6], "delta_center", {"delta": 1.7e308}),  # alpha*delta overflows
    ],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_extreme_finite_parameters_do_not_raise(tmp_path, command, extents, kind, values):
    config = {**_config(extents, kind, 10, tmp_path), **values}
    code, _ = _run(tmp_path, command, config)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("command", ["simulate", "verify", "bound", "threshold"])
def test_overflowing_coupling_is_rejected(tmp_path, command):
    # alpha*delta = inf would turn 0 * inf into NaN denominators at sites with g = 0;
    # sweep's alphas give other products, and the extreme test above covers it
    config = {**_config([6, 6], "delta_center", 10, tmp_path), "delta": 1.7e308}
    code, err = _run(tmp_path, command, config)
    assert code == EXIT_ERROR
    assert "error: alpha*delta must be finite" in err


def _file(*values) -> dict:
    return {"extents": [len(values) - 1], "values": list(values)}


# (case, commands, init kind, config changes, field file, flags, the key the message starts with)
SIGNED = {"init": {"kind": "sine_mode", "mode": [2]}}  # sin(pi n/2) on 0..4: 0, 1, 0, -1, 0
HUGE = {"amplitude": 1e308, "init": {"kind": "random", "seed": 7, "max_amplitude": 10.0}}
REJECTED = [
    ("nan-value", COMMANDS, "file", {}, _file(0, "nan", 0.5, 0.5, 0), (), "init.path: values"),
    ("inf-value", COMMANDS, "file", {}, _file(0, 0.5, "inf", 0.5, 0), (), "init.path: values"),
    # strings float() reads but write_field_json never writes: 0.1, 0.1 and 15.0
    ("spaced-value", COMMANDS, "file", {}, _file(0, " 1_0e-2 ", 0.5, 0.5, 0), (),
     "init.path: values"),
    ("tab-newline-value", COMMANDS, "file", {}, _file(0, "\t0.1\n", 0.5, 0.5, 0), (),
     "init.path: values"),
    ("arabic-indic-digits", COMMANDS, "file", {}, _file(0, "\u0661\u0665", 0.5, 0.5, 0), (),
     "init.path: values"),
    ("signed-data", ("simulate", "verify", "threshold", "sweep"), "sine_mode", SIGNED, None, (),
     "init.mode"),
    ("nonzero-boundary", COMMANDS, "file", {"alpha": 0.5}, _file(0.1, 0.5, 0.5, 0.5, 0), (),
     "init.path: values"),
    ("negative-slack", ("verify",), "constant_interior", {"comparison_slack": -0.5}, None, (),
     "comparison_slack"),
    ("huge-amplitude", ("simulate", "verify", "bound"), "random", HUGE, None, (), "amplitude"),
    ("huge-sweep-amplitude", ("sweep",), "random",
     {"sweep": {"alphas": [1.5], "amplitudes": [1e308]}, "init": HUGE["init"]}, None, (),
     "sweep.amplitudes"),
    ("tiny-alpha", COMMANDS, "constant_interior", {"alpha": 1e-300}, None, (), "alpha"),
    ("underflowing-coupling", COMMANDS, "constant_interior", {"alpha": 1e-200, "delta": 1e-200},
     None, (), "alpha"),
    ("tiny-sweep-alpha", ("sweep",), "constant_interior",
     {"sweep": {"alphas": [1e-300], "amplitudes": [0.5]}}, None, (), "sweep.alphas"),
    ("huge-integer-sweep-alpha", ("sweep",), "constant_interior",
     {"sweep": {"alphas": [10**400], "amplitudes": [0.5]}}, None, (), "sweep.alphas"),
    ("negative-seed-flag", ("simulate",), "random", {}, None, ("--seed", "-5"),
     "init.seed: must be >= 0"),
    ("negative-steps-flag", ("simulate",), "constant_interior", {}, None, ("--steps", "-1"),
     "steps: must be >= 0"),
    ("seed-flag-without-random", ("simulate",), "constant_interior", {}, None, ("--seed", "3"),
     "--seed"),
    ("missing-field-file", COMMANDS, "file", {}, None, (), "init.path"),
    ("field-of-other-extents", COMMANDS, "file", {}, _file(0, 0.5, 0.5, 0), (),
     "init.path: field extents do not match config extents"),
    ("zero-profile", ("threshold",), "file", {}, _file(0, 0, 0, 0, 0), (), "init.path: values"),
    ("tiny-peak", ("threshold",), "file", {}, _file(0, 5e-324, 0, 0, 0), (), "init.path: values"),
    ("mode-out-of-range", COMMANDS, "sine_mode", {"init": {"kind": "sine_mode", "mode": [4]}},
     None, (), "init.mode"),
    ("missing-sweep", ("sweep",), "constant_interior", {"sweep": None}, None, (), "sweep"),
    # profiles numpy cannot allocate: 10^17 doubles exceed any address space, so
    # the allocation fails without committing memory even on a host that overcommits
    ("unallocatable-sites", COMMANDS, "delta_center", {"extents": [10**17]}, None, (), "extents"),
    ("too-many-sites", COMMANDS, "constant_interior", {"extents": [2] * 42}, None, (), "extents"),
    ("too-many-axes", COMMANDS, "constant_interior", {"extents": [2] * 65}, None, (), "extents"),
    # (2^32 + 1)^2 sites, past int64, where a product in int64 wraps to 8589934593
    ("sites-past-int64", COMMANDS, "file", {"extents": [2**32, 2**32]},
     {"extents": [2**32, 2**32], "values": [0, 0, 0]}, (),
     "init.path: values: 18446744082299486209 sites, got 3"),
]


@pytest.mark.parametrize(
    "command, kind, changes, field, flags, named",
    [
        pytest.param(command, *case, id=f"{name}-{command}")
        for name, commands, *case in REJECTED
        for command in commands
    ],
)
def test_rejected_before_out_is_made(tmp_path, command, kind, changes, field, flags, named):
    config = {**_config([4], kind, 10, tmp_path), **changes}
    if config["sweep"] is None:
        del config["sweep"]
    code, err = _run(tmp_path, command, config, field, *flags)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {named}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_rejected_run_writes_nothing_into_an_existing_out(tmp_path, command):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept.txt").write_text("kept")
    config = _config([4], "file", 10, tmp_path)
    code, err = _run(tmp_path, command, config, _file(0, "nan", 0.5, 0.5, 0))
    assert code == EXIT_ERROR
    assert err.startswith("error: init.path: values")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["kept.txt"]


def test_bound_accepts_signed_data(tmp_path):
    config = {**_config([4], "sine_mode", 10, tmp_path), **SIGNED}
    code, err = _run(tmp_path, "bound", config)
    assert (code, err) == (0, "")
    assert (tmp_path / "out" / "bound.json").is_file()


def _array_check(command, cfg, profile):
    """The CLI's data check as it first stood, the reference for its scalar tests: the profile,
    amplitude times it and, per alpha, that scaled to threshold 1, each formed and checked whole."""
    if command == "bound":
        profile = Field(profile.domain, np.abs(profile.values))
    key = {"file": "init.path: values: ", "sine_mode": "init.mode: "}.get(cfg.init["kind"], "")
    peak = _keyed(key, _check_solution_field, profile)
    if command == "threshold":
        _keyed(key, _bracket_top, peak, cfg.params)
        return
    if command == "sweep" and cfg.sweep is None:
        raise ConfigError("sweep: required for the sweep command")
    key, prefix, sweep = "amplitude: ", "", {"alphas": [cfg.alpha], "amplitudes": [cfg.amplitude]}
    if command == "sweep":
        key, prefix, sweep = "sweep.amplitudes: ", "sweep.alphas: ", cfg.sweep
    with np.errstate(over="ignore"):
        a = Field(profile.domain, profile.values * float(max(sweep["amplitudes"])))
        _keyed(key, _check_solution_field, a)
        for alpha in sweep["alphas"] if command != "simulate" else ():
            p = _keyed(prefix, Params, float(alpha), cfg.delta)
            _keyed(key, _check_solution_field, Field(a.domain, a.values * p.scale))


def _verdict(check, *args):
    """The ConfigError text `check(*args)` raises, or None."""
    try:
        check(*args)
    except ConfigError as e:
        return str(e)
    return None


TOP = np.finfo(float).max
# amplitudes and alphas whose products with a peak near the top of the double range, and with
# (alpha*delta)^(1/alpha), land on both sides of overflow; tiny alphas make invalid Params
SCALARS = st.one_of(st.floats(0.5, 4.0), st.floats(1e-3, 1e3), st.just(1.0))
ALPHAS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 4.0), st.floats(1e-4, 0.01))
SWEEP = st.fixed_dictionaries({"alphas": st.lists(ALPHAS, min_size=1, max_size=3),
                               "amplitudes": st.lists(SCALARS, min_size=1, max_size=3)})


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    kind=st.sampled_from(["constant_interior", "sine_mode", "file"]),
    extents=st.lists(st.integers(2, 4), min_size=1, max_size=2),
    peak=st.one_of(st.floats(TOP / 4, TOP), st.floats(1e300, TOP), st.floats(0.0, 4.0),
                   st.just(0.0)),
    fault=st.sampled_from([None, None, "nan", "inf", "negative", "boundary"]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    delta=st.one_of(st.floats(0.1, 10.0), st.just(1.0)),
    amplitude=st.one_of(SCALARS, st.just(0.0)),
    sweep=st.one_of(st.none(), SWEEP, SWEEP, SWEEP),
    seed=st.integers(0, 2**32 - 1),
)
# faults in order: an amplitude that overflows before an invalid alpha, and an alpha whose data
# overflows before a later invalid one (the scale (1e-3 * 2)^1000 underflows to 0)
@example(command="sweep", kind="file", extents=[3], peak=TOP, fault=None, alpha=1.0, delta=2.0,
         amplitude=1.0, sweep={"alphas": [1e-3], "amplitudes": [2.0]}, seed=0)
@example(command="sweep", kind="file", extents=[3], peak=TOP, fault=None, alpha=1.0, delta=2.0,
         amplitude=1.0, sweep={"alphas": [1.0, 1e-3], "amplitudes": [1.0]}, seed=0)
def test_scalar_checks_match_the_array_path(command, kind, extents, peak, fault, alpha, delta,
                                            amplitude, sweep, seed):
    # each amplitude and each alpha's scaling is tested as a scalar on the profile's checked
    # maximum, with the message, key and order of faults of the data the array path formed
    rng = np.random.default_rng(seed)
    d = BoxDomain(tuple(extents))
    values = Field.from_interior(d, peak * rng.uniform(0.0, 1.0, d.interior_shape)).values
    values[(1,) * d.dims] = peak
    site = tuple(int(rng.integers(1, n)) for n in d.extents)
    if fault == "boundary":
        site = (0,) + site[1:]
    values[site] = {None: values[site], "nan": np.nan, "inf": np.inf, "negative": -peak / 2,
                    "boundary": peak / 3}[fault]
    init = {"kind": kind, **{"sine_mode": {"mode": [1] * d.dims},
                             "file": {"path": "field.json"}}.get(kind, {})}
    cfg = parse_config({"extents": list(extents), "alpha": alpha, "delta": delta, "steps": 5,
                        "init": init, "amplitude": amplitude, "sweep": sweep})
    profile = Field(d, values)
    want = _verdict(_array_check, command, cfg, profile)
    assert _verdict(_check_data, command, cfg, profile) == want
    if want is None:
        top = np.abs(values).max() if command == "bound" else values.max()
        assert _check_data(command, cfg, profile) == top
