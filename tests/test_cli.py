import csv
import json
import math
import warnings

import numpy as np
import pytest

from latticeheat import BoxDomain, Field
from latticeheat.cli import (
    EXIT_BLOWUP,
    EXIT_ERROR,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    read_field_json,
    splitmix64_uniform,
    write_field_json,
)


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


def main_quiet(capsys, argv):
    """main(argv), asserting it warns of nothing and writes nothing to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    return code


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_config(base_config())
        assert cfg.extents == (4,)
        assert cfg.params.threshold == 1.0

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


class TestSimulateCommand:
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

    def test_steps_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config(amplitude=0.1))
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--steps", "3"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert len(rows) == 4


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

    def test_random_suite_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                extents=[5, 5],
                steps=50,
                amplitude=1.0,
                init={"kind": "random", "seed": 1, "max_amplitude": 0.05},
            ),
        )
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["holds"]
        assert all(m >= -1e-12 for m in report["margins"])

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
