import argparse
import csv
import dataclasses
import io
import pkgutil
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticeheat
from latticeheat import BoxDomain, Field, Params, cli, simulate
from latticeheat.cli import (
    _COMMANDS,
    EXIT_BLOWUP,
    EXIT_ERROR,
    EXIT_OK,
    ConfigError,
    _numbered_rows,
    build_parser,
    build_profile,
    main,
    parse_config,
    read_field_json,
    splitmix64_uniform,
)
from latticeheat.majorant import ComparisonFailure

from conftest import reference_simulate, with_boundary, write_field_json
from test_pins import CONFIGS

ROOT = Path(__file__).parents[1]


def readme_block(label):
    """The text of the fenced block that follows the line `label` in README.md."""
    text = (ROOT / "README.md").read_text()
    block = re.search(rf"^{re.escape(label)}\n\n```\w*\n(.*?)^```$", text, re.M | re.S)
    assert block, f"README.md has no fenced block after {label!r}"
    return block[1]


def base_config(**overrides):
    doc = {
        "extents": [4],
        "alpha": 1.0,
        "delta": 1.0,
        "steps": 10,
        "init": {"kind": "constant_interior"},
        "amplitude": 0.9,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _rowwise_trajectory(report):
    """trajectory.csv for `report` as csv.writer writes it, row by row."""
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["step", "max_f", "max_g", "blowup_flag"])
    last = len(report.trace) - 1
    for s, rec in enumerate(report.trace):
        flag = int(report.blew_up and s == last)
        w.writerow([s, format(rec.max_f, ".17g"), format(rec.max_g, ".17g"), flag])
    return want.getvalue().encode()


def main_quiet(capsys, argv):
    """main(argv), asserting it warns of nothing and writes nothing to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    return code


class TestArgv:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize(
        "flags, parsed",
        [
            ([], {"out": Path("."), "seed": None, "steps": None}),
            (["--out", "o", "--seed", "7", "--steps", "3"], {"out": Path("o"), "seed": 7, "steps": 3}),
        ],
    )
    def test_namespace(self, command, flags, parsed):
        # the Namespace the subparser of each command gave
        args = build_parser().parse_args([command, "--config", "c.json", *flags])
        assert vars(args) == {"command": command, "config": Path("c.json"), **parsed}

    def test_command_choices(self):
        (action,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert action.choices == tuple(_COMMANDS)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--config", "{cfg}", "--out", "{out}"], "command"),
            (["simulat", "--config", "{cfg}", "--out", "{out}"], "invalid choice: 'simulat'"),
            (["simulate", "--out", "{out}"], "--config"),
            (["simulate", "--config", "{cfg}", "--out", "{out}", "--steps", "abc"], "--steps"),
            (["verify", "--config", "{cfg}", "--out", "{out}", "--seed", "1.5"], "--seed"),
            (["bound", "--config", "{cfg}", "--out", "{out}", "--bogus"], "--bogus"),
            (["sweep", "--config", "{cfg}", "--out", "{out}", "a\nb"], "unrecognized arguments: a b"),
            # int() reads each of these, as 10, 7 and 7
            (["simulate", "--config", "{cfg}", "--out", "{out}", "--steps", "1_0"], "--steps"),
            (["verify", "--config", "{cfg}", "--out", "{out}", "--steps", " 7 "], "--steps"),
            (["bound", "--config", "{cfg}", "--out", "{out}", "--seed", "\u0667"], "--seed"),
            # int() raises ValueError past its digit limit, which argparse reports as "invalid
            # <type function's name> value"
            (["bound", "--config", "{cfg}", "--out", "{out}", "--seed", "1" * 5000],
             f"argument --seed: more than {sys.get_int_max_str_digits()} digits"),
        ],
        ids=["no-command", "unknown-command", "no-config", "steps-abc", "seed-1.5", "unknown-flag",
             "stray-line-break", "steps-underscore", "steps-spaces", "seed-arabic-indic-digit",
             "seed-past-digit-limit"],
    )
    def test_argv_fault_exits_1(self, tmp_path, capsys, argv, named):
        # random data, which --seed may override
        doc = base_config(init={"kind": "random", "seed": 1, "max_amplitude": 0.1})
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        code = main([a.format(cfg=cfg, out=out) for a in argv])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, why",
        [
            ("file", "File exists"),
            ("file/run", "Not a directory"),
            ("run\0", "embedded null byte"),
        ],
        ids=["existing-file", "under-a-file", "nul-byte"],
    )
    def test_unmakeable_out_names_out(self, tmp_path, capsys, out, why):
        cfg = write_config(tmp_path, base_config())
        (tmp_path / "file").write_text("kept")
        code = main(["simulate", "--config", str(cfg), "--out", f"{tmp_path}/{out}"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: --out: ") and err.count("\n") == 1 and why in err
        assert (tmp_path / "file").read_text() == "kept"

    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        # one process runs every command through cli._PARSER, which was built at import, on
        # README's example config with a sweep of three alphas and two amplitudes
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        sweep = {"alphas": [0.5, 1.0, 2.0], "amplitudes": [0.1, 0.9]}
        readme = json.loads(readme_block("Example config:"))
        cfg = write_config(tmp_path, {**readme, "sweep": sweep})
        codes = [main_quiet(capsys, [command, "--config", str(cfg), "--out", str(tmp_path / command)])
                 for command in _COMMANDS]
        assert codes == [EXIT_BLOWUP, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert len(built) == 0
        reports = ("report.json", "verify.json", "bound.json", "threshold.json", "sweep.csv")
        assert all((tmp_path / c / r).stat().st_size for c, r in zip(_COMMANDS, reports))
        assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_shared_parser_has_only_immutable_defaults(self):
        # main parses every argv with cli._PARSER, so a mutable default (a list, say) that one
        # run changed in place would carry into the next
        args = cli._PARSER.parse_args(["bound", "--config", "c.json"])
        assert all(v is None or isinstance(v, (str, Path)) for v in vars(args).values()), args

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: latticeheat")

    def test_process_exit_codes(self, tmp_path):
        # the `raise SystemExit(main())` path that a console script also takes
        src = str(Path(latticeheat.__file__).parents[1])
        run = [sys.executable, "-m", "latticeheat.cli"]
        env = {**os.environ, "PYTHONPATH": src}
        fault = subprocess.run([*run, "simulate"], capture_output=True, text=True, env=env)
        assert (fault.returncode, fault.stderr.count("\n")) == (EXIT_ERROR, 1)
        assert fault.stderr.startswith("error: ")
        cfg = tmp_path / "config.json"
        cfg.write_text(readme_block("Example config:"))  # README's block itself: it blows up
        argv = [*run, "simulate", "--config", str(cfg), "--out", str(tmp_path)]
        assert subprocess.run(argv, capture_output=True, env=env).returncode == EXIT_BLOWUP
        assert subprocess.run([*run, "--help"], capture_output=True, env=env).returncode == EXIT_OK

    def test_readme_usage_is_the_parsers(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal's width
        assert readme_block("## CLI") == build_parser().format_usage()

    def test_readme_example_config_has_one_source(self):
        # README's example config is the pinned config.json, the config the workflow's installed
        # script runs, and base_config at 100 steps; the tests above run README's block itself
        readme = json.loads(readme_block("Example config:"))
        workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
        echoed = re.search(r"echo '(\{.*\})' > \"\$RUNNER_TEMP/config\.json\"", workflow)
        assert echoed, "the workflow echoes no config.json"
        assert readme == json.loads(CONFIGS["config.json"]) == json.loads(echoed[1])
        assert readme == base_config(steps=100)

    def test_console_script_is_main(self):
        # the `latticeheat` script that pip installs is the entry point test_process_exit_codes
        # runs; read with a regex, as Python 3.10 has no tomllib
        text = (ROOT / "pyproject.toml").read_text()
        table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        assert table, "pyproject.toml has no [project.scripts] table"
        scripts = re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"', table[1], re.M)
        assert scripts == [("latticeheat", "latticeheat.cli:main")]


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_config(base_config())
        assert cfg.extents == (4,)
        assert cfg.params.threshold == 1.0

    def test_params_built_once(self):
        cfg = parse_config(base_config(alpha=2.0, delta=0.5))
        assert cfg.params is cfg.params and cfg.params == Params(2.0, 0.5)

    @pytest.mark.parametrize("optional", [{}, {
        "amplitude": 0.5, "eps_blow": 0.1, "comparison_slack": 0.0, "threshold_tol": 0.01,
        "sweep": {"alphas": [1.0], "amplitudes": [0.5]}}], ids=["minimal", "every-key"])
    def test_attributes_are_the_table_keys(self, optional):
        # the key table is the config's only schema: one attribute per key, plus params
        required = {"extents": [4], "alpha": 1.0, "delta": 1.0, "steps": 10,
                    "init": {"kind": "constant_interior"}}
        cfg = vars(parse_config({**required, **optional}))
        assert cfg.keys() == {key for key, *_ in cli._CONFIG} | {"params"}
        for key, _, default, _ in cli._CONFIG:
            if key not in required:
                assert cfg[key] == optional.get(key, default), key

    def test_rejects_zero_delta_naming_field(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config(base_config(delta=0))

    def test_rejects_bad_extents(self):
        with pytest.raises(ConfigError, match="extents"):
            parse_config(base_config(extents=[4, 1]))

    def test_rejects_unknown_init_kind(self):
        with pytest.raises(ConfigError, match="init.kind"):
            parse_config(base_config(init={"kind": "gaussian"}))

    def test_rejects_missing_random_seed(self):
        with pytest.raises(ConfigError, match="init.seed"):
            parse_config(base_config(init={"kind": "random", "max_amplitude": 0.1}))

    @pytest.mark.parametrize("value", [-1e-9, -1, float("nan"), "0.1", None, True])
    def test_rejects_bad_eps_blow(self, value):
        with pytest.raises(ConfigError, match="eps_blow"):
            parse_config(base_config(eps_blow=value))

    def test_accepts_eps_blow(self):
        assert parse_config(base_config(eps_blow=0)).eps_blow == 0.0
        assert parse_config(base_config(eps_blow=0.5)).eps_blow == 0.5

    def test_rejects_bool_steps(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(base_config(steps=True))

    def test_rejects_bool_random_seed(self):
        init = {"kind": "random", "seed": False, "max_amplitude": 0.1}
        with pytest.raises(ConfigError, match="init.seed"):
            parse_config(base_config(init=init))

    @pytest.mark.parametrize("key", ["amplitude", "comparison_slack", "threshold_tol"])
    @pytest.mark.parametrize("value", ["x", "1.0", [1.0], None, True])
    def test_rejects_wrongly_typed_float_naming_field(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(base_config(**{key: value}))

    @pytest.mark.parametrize(
        "command, keys, named",
        [
            # two at one level: the first in sorted order is named
            ("simulate", {"eps_blwo": 0.5, "threshhold_tol": 0.1}, "eps_blwo"),
            ("simulate", {"init": {"kind": "constant_interior", "seed": 1}}, "init.seed"),
            ("sweep", {"sweep": {"alphas": [1.0], "amplitudes": [0.5], "amplitude": [0.1]}},
             "sweep.amplitude"),
            ("simulate", {"init": {"kind": "file", "path": "field.json"}}, "init.path: extent"),
        ],
        ids=["top-level", "init", "sweep", "field-file"],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, monkeypatch, command, keys, named):
        # README's example config with a key that its level's table does not list; the field
        # file, read from the working directory, carries "extent" beside "extents"
        monkeypatch.chdir(tmp_path)
        field = {"extents": [4], "values": [0, 0.5, 0.5, 0.5, 0], "extent": [4]}
        (tmp_path / "field.json").write_text(json.dumps(field))
        cfg = write_config(tmp_path, {**json.loads(readme_block("Example config:")), **keys})
        code = main([command, "--config", str(cfg), "--out", "out"])
        assert (code, capsys.readouterr().err) == (EXIT_ERROR, f"error: {named}: unknown key\n")
        assert not (tmp_path / "out").exists()


class TestFieldFile:
    def test_round_trip_exact(self, tmp_path, rng):
        d = BoxDomain((3, 4))
        f = Field(d, rng.uniform(0, 1, size=d.shape))
        path = tmp_path / "field.json"
        write_field_json(path, f)
        back = read_field_json(path)
        assert back.domain.extents == d.extents
        np.testing.assert_array_equal(back.values, f.values)


class TestSplitmix:
    def test_known_first_output(self):
        # splitmix64(seed=0) first output is 0xE220A8397B1DCDAF
        assert splitmix64_uniform(0, 1)[0] == 0xE220A8397B1DCDAF / 2.0**64

    def test_deterministic(self):
        np.testing.assert_array_equal(
            splitmix64_uniform(42, 10), splitmix64_uniform(42, 10)
        )

    def test_range(self):
        u = splitmix64_uniform(7, 1000)
        assert np.all((u >= 0) & (u < 1))


def _tail_his(lo):
    """lo + 1, lo + 2, and each multiple of 100 past lo, +-1, among the next ten hundreds and
    the powers of ten up to 10^5, then 100,001."""
    hundreds = [*range(lo // 100 * 100 + 100, lo // 100 * 100 + 1100, 100), 1000, 10**4, 10**5]
    return sorted({lo + 1, lo + 2, 100_001} | {m + d for m in hundreds for d in (-1, 0, 1)
                                               if m + d > lo})


@pytest.mark.parametrize("lo", [0, 1, 2, 9, 10, 99, 100, 101, 537, 999, 1000, 1066, 9999, 10000])
def test_numbered_rows_equal_the_naive_join(lo):
    # at lo = 0 a block of the hundred 0 would print 000; separators as cmd_simulate writes them
    seps = [",inf,nan,0\r\n", ",-0,4.9406564584124654e-324,0\r\n",
            ",2.2250738585072014e-308,-0,1\r\n"]
    for k, hi in enumerate(_tail_his(lo)):
        sep = seps[k % len(seps)]
        assert _numbered_rows(lo, hi, sep) == sep.join(map(str, range(lo, hi))) + sep, (lo, hi)


@pytest.mark.parametrize("count", [0, 13])
def test_write_csv_gives_csv_writers_bytes(tmp_path, count):
    # every kind of cell bisection.csv and sweep.csv hold: ints, `_fmt` of finite values, of
    # +-inf (bound_value can be inf), nan, -0.0 and a subnormal, and both outcome words
    values = [0.1, 2.5e-5, 1e300, math.inf, -math.inf, math.nan, -0.0, 5e-324]
    cells = [0, 7, 10**4, *map(cli._fmt, values), "survived", "blew_up"]
    header = ["alpha", "amplitude", "outcome", "s0_or_steps", "bound_value"]
    rows = [cells[i:i + 5] for i in range(count)]  # every cell, and short rows
    cli._write_csv(tmp_path / "got.csv", header, iter(rows))  # commands pass generators
    want = io.StringIO(newline="")
    csv.writer(want).writerows([header, *rows])
    assert (tmp_path / "got.csv").read_bytes() == want.getvalue().encode()


class TestSimulateCommand:
    @pytest.mark.parametrize("steps", [250, 10_000])
    def test_zero_data_rests_at_step_0(self, tmp_path, capsys, steps):
        # the run rests after step 0, so its tail repeats from step 1: the rows below 100 go one
        # by one, then the hundreds, then, at S = 250, the rows from 200
        doc = base_config(steps=steps, amplitude=0.0)
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        d = BoxDomain(tuple(doc["extents"]))
        report = simulate(Field(d, np.zeros(d.shape)), Params(1.0, 1.0), steps)
        assert len(report.trace) == steps + 1 and report.trace[1] is report.trace[-1]
        assert (tmp_path / "trajectory.csv").read_bytes() == _rowwise_trajectory(report)

    def test_golden_blowup_instance(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_BLOWUP
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"]["kind"] == "blew_up"
        assert report["outcome"]["s0"] == 1
        assert report["outcome"]["n0"] == [1]
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert [r["blowup_flag"] for r in rows] == ["0", "1"]

    def test_zero_amplitude_survives(self, tmp_path):
        cfg = write_config(tmp_path, base_config(amplitude=0.0))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert len(rows) == 11
        assert all(float(r["max_f"]) == 0 for r in rows)

    def test_parse_error_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(delta=0))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "delta" in capsys.readouterr().err

    def test_underflowing_update_is_blowup(self, tmp_path):
        # 1 - g^0.01 is a few ulp above 0 at the middle site, and
        # denom^100 underflows to 0: the update overflows to inf there
        v = 1.0
        for _ in range(41):
            v = np.nextafter(v, 0.0)
        field = tmp_path / "field.json"
        write_field_json(field, Field(BoxDomain((4,)), [0, v, v, v, 0]))
        cfg = write_config(
            tmp_path,
            base_config(alpha=0.01, delta=100, amplitude=1.0, init={"kind": "file", "path": str(field)}),
        )
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_BLOWUP
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"] == {"kind": "blew_up", "s0": 0, "n0": [2], "g_value": float(v)}
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert [r["blowup_flag"] for r in rows] == ["1"]

    def test_resting_trajectory_matches_rowwise_formatting(self, tmp_path):
        # trajectory.csv is built as text, one string per run of one record;
        # it must be the bytes csv.writer writes row by row
        v = 1.0
        for _ in range(41):
            v = np.nextafter(v, 0.0)
        rest = np.random.default_rng(2026).uniform(0, 0.05, 5)
        runs = [  # (interior values, alpha, delta, steps, outcome)
            (rest, 1.0, 1.0, 10_000, "rest"),  # a subnormal fixed point repeats to step 10^4
            (rest, 1.0, 1.0, 0, "survived"),
            ([2.0] * 5, 1.0, 1.0, 100, "blew_up"),  # at step 0
            ([0.3] * 5, 1.0, 1.0, 100, "blew_up"),  # at step 3
            ([v] * 3, 0.01, 100.0, 10, "blew_up"),  # the update overflows at step 0
        ]
        for i, (interior, alpha, delta, steps, outcome) in enumerate(runs):
            a = Field.from_interior(BoxDomain((len(interior) + 1,)), interior)
            field, out = tmp_path / f"field{i}.json", tmp_path / f"out{i}"
            write_field_json(field, a)
            cfg = write_config(tmp_path, base_config(
                extents=list(a.domain.extents), alpha=alpha, delta=delta, steps=steps,
                amplitude=1.0, init={"kind": "file", "path": str(field)}))
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            report = simulate(a, Params(alpha, delta), steps)
            blew_up = outcome == "blew_up"
            assert code == (EXIT_BLOWUP if blew_up else EXIT_OK) and report.blew_up == blew_up
            if outcome == "rest":
                assert report.trace[-1] is report.trace[6000]
                assert 0 < report.trace[-1].max_f < 2.0**-1022
            assert (out / "trajectory.csv").read_bytes() == _rowwise_trajectory(report), i

    @settings(max_examples=60, deadline=None)
    @given(
        extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 0.01]), st.floats(0.25, 3.0)),
        delta=st.one_of(st.none(), st.floats(0.25, 4.0)),  # None: 1/alpha
        level=st.floats(0.0, 1.5),
        constant=st.booleans(),
        shrink=st.one_of(st.just(0), st.integers(0, 1080)),
        minus_zero=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
        minus_boundary=st.booleans(),
        steps=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    # blow-up at step 0 and at step 3
    @example(extents=[5], alpha=1.0, delta=None, level=2.0, constant=True, shrink=0,
             minus_zero=0.0, minus_boundary=False, steps=100, seed=0)
    @example(extents=[6], alpha=1.0, delta=None, level=0.3, constant=True, shrink=0,
             minus_zero=0.0, minus_boundary=False, steps=100, seed=0)
    # the update overflows at step 0: 1 - g^0.01 is a few doubles above 0, and its 100th power 0
    @example(extents=[4], alpha=0.01, delta=None, level=1 - 41 * 2.0**-53, constant=True,
             shrink=0, minus_zero=0.0, minus_boundary=False, steps=10, seed=0)
    # full steps, then copy steps to rest at step 1065, and the rest repeated to the horizon
    @example(extents=[3, 3], alpha=1.0, delta=None, level=1e-3, constant=True, shrink=0,
             minus_zero=0.0, minus_boundary=False, steps=3000, seed=0)
    # copy steps from subnormal random data to a subnormal fixed point
    @example(extents=[6, 5], alpha=2.0, delta=0.7, level=0.8, constant=False, shrink=1050,
             minus_zero=0.3, minus_boundary=True, steps=3000, seed=1)
    def test_trajectory_matches_rowwise_writer(self, extents, alpha, delta, level, constant,
                                               shrink, minus_zero, minus_boundary, steps, seed):
        # `level` is in units of the blow-up threshold; data shrunk by 2^-shrink
        # reaches the copy steps and, within the horizon, the fixed point. A share
        # minus_zero of the interior sites and, with minus_boundary, the boundary
        # hold -0.0, which a field file carries.
        d = BoxDomain(tuple(extents))
        p = Params(alpha, 1.0 / alpha if delta is None else delta)
        rng = np.random.default_rng(seed)
        scale = np.ones(d.interior_shape) if constant else rng.uniform(0.0, 1.0, d.interior_shape)
        interior = np.ldexp(level * p.threshold * scale, -shrink)
        interior[rng.random(d.interior_shape) < minus_zero] = -0.0
        a = with_boundary(d, interior, -0.0 if minus_boundary else 0.0)
        report = simulate(a, p, steps)
        with tempfile.TemporaryDirectory() as td:
            field, out = Path(td) / "field.json", Path(td) / "out"
            write_field_json(field, a)
            cfg = write_config(Path(td), base_config(
                extents=extents, alpha=p.alpha, delta=p.delta, steps=steps, amplitude=1.0,
                init={"kind": "file", "path": str(field)}))
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            assert code == (EXIT_BLOWUP if report.blew_up else EXIT_OK)
            assert (out / "trajectory.csv").read_bytes() == _rowwise_trajectory(report)

    def test_minus_zero_data_rests(self, tmp_path):
        # -0.0 * the profile puts -0.0 on every site; the kernel's boundary is +0.0, so the
        # zero state rests after step 1 instead of reading -0.0 as every other maximum
        doc = base_config(extents=[5], steps=5, amplitude=-0.0)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        d = BoxDomain((5,))
        profile = Field.from_interior(d, np.ones(d.interior_shape))
        report, _ = reference_simulate(Field(d, profile.values * -0.0), Params(1.0, 1.0), 5)
        want = _rowwise_trajectory(report)
        assert (tmp_path / "trajectory.csv").read_bytes() == want
        assert want.decode().splitlines()[1:3] == ["0,-0,0,0", "1,0,0,0"]

    def test_steps_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config(amplitude=0.1))
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--steps", "3"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert len(rows) == 4

    def test_trace_past_memory_names_steps(self, tmp_path, capsys):
        # the run rests at step 1065; its 2^62 + 1 records would need 2^65 bytes of pointers, more
        # than a size_t holds, so the list repeat refuses them before it allocates anything
        doc = base_config(extents=[3, 3], steps=2**62, amplitude=0.001)
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: steps: no memory for a trace of {2**62 + 1} records\n"


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("why, line", [((), "error: out of memory\n"),
                                       (("no room",), "error: no room\n")])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, command, why, line):
    # any command's MemoryError, with a message or with none, exits 1 with one line and no
    # traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError(*why)

    if command == "simulate":  # the library function the command calls
        monkeypatch.setattr(cli, "simulate", out_of_memory)
    else:
        monkeypatch.setitem(cli._COMMANDS, command, out_of_memory)
    sweep = {"alphas": [1.0], "amplitudes": [0.1]}
    cfg = write_config(tmp_path, base_config(amplitude=0.1, sweep=sweep))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == line


class TestVerifyCommand:
    def test_zero_data_margins(self, tmp_path):
        cfg = write_config(tmp_path, base_config(amplitude=0.0, steps=20))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["holds"]
        assert all(m == 0 for m in report["margins"])

    def test_margins_are_over_interior_sites(self, tmp_path):
        # fbar and f are both 0 on the boundary, so a minimum over all sites
        # would read 0 for every run that holds
        cfg = write_config(tmp_path, base_config(amplitude=0.1, steps=10))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["margins"][0] > 0

    @pytest.mark.parametrize("extents", [[6], [4, 5], [4, 4, 4]])
    def test_minus_zero_data_margin_is_plus_zero(self, tmp_path, extents):
        # delta-like data from a field file: 0.5 at the centre and -0.0 on every other site.
        # Step 0 compares the flow's and the stepper's +0.0 copies of the data, so those sites
        # give +0.0/root - +0.0, which is +0.0: margins[0] is 0, not -0.0, as with the data
        # itself, where (-0.0)/root - (-0.0) is +0.0 too
        d = BoxDomain(tuple(extents))
        values = np.full(d.shape, -0.0)
        values[tuple(n // 2 for n in extents)] = 0.5
        field = tmp_path / "field.json"
        write_field_json(field, Field(d, values))
        doc = base_config(extents=extents, steps=20, amplitude=1.0,
                          init={"kind": "file", "path": str(field)})
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "verify.json").read_text()
        margins = json.loads(text)["margins"]
        assert margins[0] == 0.0 and math.copysign(1.0, margins[0]) == 1.0
        assert '"margins": [\n    0.0,' in text

    def test_failing_verdict_is_written_and_exits_2(self, tmp_path, monkeypatch):
        # no sound run fails, so the verdict is made to: verify.json then says so and holds
        # the failure's step, site, majorant value and solution value
        real = cli.verify_comparison
        failure = ComparisonFailure(step=1, site=(2,), majorant_value=0.25, solution_value=0.5)

        def failing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), holds=False, failure=failure)

        monkeypatch.setattr(cli, "verify_comparison", failing)
        cfg = write_config(tmp_path, base_config(amplitude=0.1, steps=10))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_BLOWUP
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["holds"] is False
        assert report["failure"] == {"step": 1, "site": [2], "majorant_value": 0.25,
                                     "solution_value": 0.5}

    def test_random_suite_config(self, tmp_path):
        # verify's margin is a minimum over a span whose face sites are refilled with +inf, so on
        # 3x3x3, where most of the span is faces, a face read would give a margin of 0.0
        for extents in ([5, 5], [3, 3, 3]):
            doc = base_config(extents=extents, steps=50, amplitude=1.0,
                              init={"kind": "random", "seed": 1, "max_amplitude": 0.05})
            out = tmp_path / "x".join(map(str, extents))
            code = main(["verify", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
            assert code == EXIT_OK
            report = json.loads((out / "verify.json").read_text())
            assert report["holds"]
            assert len(report["margins"]) == 51 and min(report["margins"]) > 0, extents

    def test_overflowing_partial_sums_are_quiet(self, tmp_path, capsys):
        # |m_k|^10 overflows for data of 1e100: the majorant is undefined from step 0
        doc = base_config(
            extents=[5, 5], alpha=10.0, delta=0.1, amplitude=1e100,
            init={"kind": "random", "seed": 3, "max_amplitude": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert (report["holds"], report["checked_steps"], report["defined_up_to"]) == (True, 0, -1)
        assert report["partial_sums"] == [math.inf] * 11

    def test_truncation_reported(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                steps=100, amplitude=1.0, init={"kind": "sine_mode", "mode": [1]}
            ),
        )
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["truncated"]
        assert report["checked_steps"] == report["defined_up_to"] + 1

    def test_underflowing_majorant_root_is_quiet(self, tmp_path, capsys):
        # (1 - P_0)^100 underflows to 0: the majorant is +inf inside and 0 on the boundary
        doc = base_config(alpha=0.01, delta=100, amplitude=0.9598)
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["holds"] and report["margins"][0] == math.inf
        doc["comparison_slack"] = 0.0  # 0 * inf would be NaN
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK


class TestBoundCommand:
    def test_single_zero_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, base_config(extents=[2], amplitude=0.3, steps=10)
        )
        code = main(["bound", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bound.json").read_text())
        assert report["regime"] == "alpha_le_1"
        assert report["bound_value"] == pytest.approx(report["B_max"])

    def test_three_mode_bound(self, tmp_path):
        # constant interior of 0.4 yields B_max from analysis; compare formula
        cfg = write_config(tmp_path, base_config(amplitude=0.4, steps=10))
        main(["bound", "--config", str(cfg), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "bound.json").read_text())
        expected = report["B_max"] * (2 / (1 - np.sqrt(2) / 2) + 1)
        assert report["bound_value"] == pytest.approx(expected, rel=1e-12)

    def test_gt1_regime(self, tmp_path):
        cfg = write_config(tmp_path, base_config(alpha=2.0, amplitude=0.1, steps=10))
        code = main(["bound", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bound.json").read_text())
        assert report["regime"] == "alpha_gt_1"
        assert report["s0_tail"] == 3

    def test_overflowing_transform_gives_infinite_bound(self, tmp_path, capsys):
        # the dense sine transform of data near the double range overflows
        doc = base_config(extents=[4, 3], alpha=1e300, delta=1e-300, amplitude=1.7e308)
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["bound", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "bound.json").read_text())
        assert (report["B_max"], report["bound_value"]) == (math.inf, math.inf)
        doc["sweep"] = {"alphas": [1e300], "amplitudes": [1.7e308]}
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [r["bound_value"] for r in rows] == ["inf"]

    @pytest.mark.parametrize("amplitude, bound_value", [(0.5, math.inf), (0.0, 0.0)])
    def test_tiny_alpha_bound_is_never_nan(self, tmp_path, capsys, amplitude, bound_value):
        # |c|^alpha rounds to 1 for alpha = 1e-100, so the series is inf; zero data still gives 0
        doc = base_config(alpha=1e-100, delta=1e100, amplitude=amplitude)
        cfg = write_config(tmp_path, doc)
        assert main_quiet(capsys, ["bound", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "bound.json").read_text())
        assert report["bound_value"] == bound_value
        assert report["certifies_global_existence"] == (bound_value < 1.0)


class TestThresholdCommand:
    def test_sine_profile(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                steps=200,
                amplitude=1.0,
                init={"kind": "sine_mode", "mode": [1]},
                threshold_tol=1e-3,
            ),
        )
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "threshold.json").read_text())
        assert 0 < report["amplitude"] < 1.0
        assert not report["hit_ceiling"]
        rows = list(csv.DictReader((tmp_path / "bisection.csv").open()))
        assert len(rows) == report["probes"]

    def test_eps_blow_lowers_threshold(self, tmp_path):
        # over 10 steps the threshold moves from 0.1696 to 0.1634 (over 50 and
        # more, by less than the tolerance)
        amplitudes = []
        for eps_blow in (0.0, 0.5):
            doc = base_config(extents=[6], eps_blow=eps_blow)
            cfg = write_config(tmp_path, doc)
            out = tmp_path / str(eps_blow)
            assert main(["threshold", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            amplitudes.append(json.loads((out / "threshold.json").read_text())["amplitude"])
            profile = Field.from_interior(BoxDomain((6,)), np.ones(5))
            for scale, blows in ((1 + 1e-3, True), (1 - 1e-3, False)):
                a = Field(profile.domain, profile.values * amplitudes[-1] * scale)
                assert simulate(a, Params(1.0, 1.0), 10, eps_blow).blew_up == blows
        assert amplitudes[1] < amplitudes[0]


class TestSweepCommand:
    def sweep_config(self, tmp_path, seed=1):
        return write_config(
            tmp_path,
            base_config(
                steps=100,
                amplitude=1.0,
                init={"kind": "random", "seed": seed, "max_amplitude": 1.0},
                sweep={
                    "alphas": [0.5, 1.0, 2.0],
                    "amplitudes": [0.05, 0.2, 0.5, 0.8, 1.1],
                },
            ),
        )

    def test_outcome_monotone_in_amplitude(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(r["alpha"], []).append(r["outcome"])
        for outcomes in by_alpha.values():
            # amplitudes ascend within each alpha: no survival after blow-up
            seen_blowup = False
            for o in outcomes:
                if o == "blew_up":
                    seen_blowup = True
                else:
                    assert not seen_blowup

    def test_one_stepper_per_alpha(self, tmp_path, monkeypatch):
        # each alpha's probe builds one stepper and runs every amplitude on it, and each row
        # is simulate's outcome and blow-up step
        from latticeheat import majorant

        built = []

        class Counting(majorant._Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(majorant, "_Stepper", Counting)
        cfg = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert len(built) == 3
        profile = build_profile(parse_config(json.loads(cfg.read_text())))
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert {r["outcome"] for r in rows} == {"blew_up", "survived"}
        for r in rows:
            a = Field(profile.domain, profile.values * float(r["amplitude"]))
            report = simulate(a, Params(float(r["alpha"]), 1.0), 100)
            step = report.outcome.step if report.blew_up else 100
            assert (r["outcome"] == "blew_up", int(r["s0_or_steps"])) == (report.blew_up, step)

    def test_rows_far_above_threshold(self, tmp_path):
        # at alpha 2000 on a 2-site line the sine mode at amplitude 3 blows up at step 0,
        # though (C*lam/M)^alpha = 0.5^2000 underflows; every row is simulate's outcome
        doc = base_config(extents=[3], alpha=2000.0, delta=5e-4, steps=20,
                          init={"kind": "sine_mode", "mode": [1]},
                          sweep={"alphas": [2000.0], "amplitudes": [0.5, 1.5, 3.0]})
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        profile = build_profile(parse_config(doc))
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [r["outcome"] for r in rows] == ["survived", "survived", "blew_up"]
        for r in rows:
            a = Field(profile.domain, profile.values * float(r["amplitude"]))
            report = simulate(a, Params(2000.0, 5e-4), 20)
            step = report.outcome.step if report.blew_up else 20
            assert (r["outcome"] == "blew_up", int(r["s0_or_steps"])) == (report.blew_up, step)

    def test_certified_rows_never_blow_up(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        for r in csv.DictReader((tmp_path / "sweep.csv").open()):
            if float(r["bound_value"]) < 1.0:
                assert r["outcome"] == "survived"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()


class TestFileInit:
    def test_simulate_from_file(self, tmp_path):
        d = BoxDomain((4,))
        f = Field(d, [0, 0.9, 0.9, 0.9, 0])
        field_path = tmp_path / "field.json"
        write_field_json(field_path, f)
        cfg = write_config(
            tmp_path,
            base_config(amplitude=1.0, init={"kind": "file", "path": str(field_path)}),
        )
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_BLOWUP
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"]["s0"] == 1


def test_public_names_are_pinned():
    # a name leaves or joins the package's public API only by an edit of this set; the paper's
    # objects (the linear flow, the majorant, the two regime bounds, the certificate and the
    # threshold search, and simulate) are among them
    assert set(latticeheat.__all__) == {
        "BlewUpAt", "BlowupReport", "BoundReport", "BoxDomain", "ComparisonVerdict", "Field",
        "MajorantTrace", "ModeTable", "Params", "SpectralCoeffs", "Survived", "ThresholdResult",
        "analyze", "bound_alpha_gt_1", "bound_alpha_le_1", "compute_trace", "eigenvalue",
        "find_threshold", "majorant_field", "mode_table", "regime_bound", "simulate",
        "step_linear_direct", "synthesize", "tail_start", "verify_comparison",
    }


def test_readme_design_map_names_the_code():
    # README's design map gives one line per decision, each naming as `module.name` the code
    # whose docstring explains it; every such name resolves on the package, so a rename or a
    # deletion fails here, and the map stays within the 40 lines ROADMAP allows. A `np.` name
    # is numpy's and `name.csv` or `name.json` an artifact; any other dotted name in backticks
    # must be the package's
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Design map\n\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert section, "README.md has no design map"
    lines = section[1].rstrip("\n").splitlines()
    intro, bullets = lines[:lines.index("") + 1], lines[lines.index("") + 1:]
    assert len(lines) <= 40 and bullets and all(line.startswith("- ") for line in bullets)
    assert all("`" not in line for line in intro)
    modules = {m.name for m in pkgutil.iter_modules(latticeheat.__path__)}
    for line in bullets:
        names = [name for name in re.findall(r"`(\w+(?:\.\w+)+)`", line)
                 if not re.fullmatch(r"np\..*|\w+\.(csv|json)", name)]
        assert names, f"names no module.name: {line}"
        for name in names:
            module, *path = name.split(".")
            assert module in modules, name
            obj = getattr(latticeheat, module)
            for attr in path:
                assert hasattr(obj, attr), name
                obj = getattr(obj, attr)
