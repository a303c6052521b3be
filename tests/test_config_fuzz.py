"""The CLI's input boundary: malformed configs and field files end in exit 1.

A fuzzer mutates valid configs and field files and asserts that `main` only
ever returns 0, 1 or 2 and raises nothing. Sizes stay small (extents <= 6,
steps <= 20) so every command finishes quickly.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import BoxDomain, Field
from latticeheat.cli import EXIT_ERROR, main, write_field_json

COMMANDS = ("simulate", "verify", "bound", "threshold", "sweep")


def _run(tmp: Path, command: str, config, field=None) -> tuple[int, str]:
    """Write the config (and a field file as text or JSON), run `main`, return (exit, stderr)."""
    if field is not None:
        (tmp / "field.json").write_text(field if isinstance(field, str) else json.dumps(field))
    (tmp / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(tmp / "config.json"), "--out", str(tmp / "out")])
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
