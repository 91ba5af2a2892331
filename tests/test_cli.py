import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optobath import SystemParams, compute_rates
from optobath.cli import build_parser, main, make_grid
from optobath.validate import fig1_cooled

SQRT3 = math.sqrt(3.0)


def run_cli(*argv):
    return main(list(argv))


def run_cli_text(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_cooled_preset_writes_400_rows(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--preset", "fig1-cooled", "-o", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["omega", "j_eff", "beta_eff", "t_eff", "flags"]
        assert len(rows) == 400

    def test_cooling_off_gives_flat_temperature(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--preset", "fig1-cooled", "--gc", "0", "-o", str(out)) == 0
        _, rows = read_csv(out)
        beta = np.array([float(r[2]) for r in rows])
        assert np.all(np.abs(beta - 1e-4) < 1e-12)

    def test_fig3_family(self, tmp_path):
        out = tmp_path / "fam.csv"
        assert run_cli("spectrum", "--preset", "fig3", "--grid-count", "50",
                       "-o", str(out)) == 0
        header, rows = read_csv(out)
        assert header[0] == "g_c"
        gs = sorted({float(r[0]) for r in rows})
        assert len(gs) == 5
        assert gs[0] == 0.0
        # family is expressed as fractions of the threshold kappa_c/2
        gmax = (2.0 / SQRT3) / 2.0
        assert gs[1] == pytest.approx(0.24 * gmax, rel=1e-12)
        assert len(rows) == 5 * 50

    def test_fig3_family_json_carries_csv_values(self):
        argv = ("spectrum", "--preset", "fig3", "--grid-count", "6")
        _, text, _ = run_cli_text(*argv)
        code, doc, _ = run_cli_text(*argv, "--format", "json")
        assert code == 0
        data = json.loads(doc)
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert list(data) == header
        assert len(data["g_c"]) == len(rows) == 5 * 6
        for i, name in enumerate(header[:-1]):
            assert [f"{x:.12e}" for x in data[name]] == [row[i] for row in rows]
        assert data["flags"] == [row[-1] for row in rows]

    @pytest.mark.parametrize("extra", [("--gc", "0.3"), ("--kappa-a", "0.1"),
                                       ("--config", "params.json")])
    def test_fig3_rejects_parameter_inputs(self, extra, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps({"g_c": 0.3}))
        code, out, err = run_cli_text("spectrum", "--preset", "fig3", "--grid-count", "5",
                                      *extra)
        assert code == 2
        assert out == ""
        assert "fig3" in err and extra[0] in err

    def test_json_output(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("spectrum", "--preset", "fig1-cooled", "--grid-count", "10",
                       "--format", "json", "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["omega"]) == 10

    def test_threads_give_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("spectrum", "--preset", "fig1-cooled", "--grid-count", "60", "-o", str(a))
        run_cli("spectrum", "--preset", "fig1-cooled", "--grid-count", "60",
                "--threads", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli("spectrum", "--preset", "fig1-bare", "--grid-count", "80",
                    "-o", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestRatesCommand:
    def test_decoupled_probe_zero_table(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("rates", "--preset", "fig1-cooled", "--ga", "0",
                       "--grid-count", "20", "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) == 0 and float(r[2]) == 0 for r in rows)

    def test_lossy_column_below_lossless(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("rates", "--preset", "fig1-cooled", "--kappa-a", "0.05",
                       "--grid-count", "30", "-o", str(out)) == 0
        _, rows = read_csv(out)
        n = np.array([float(r[3]) for r in rows])
        n_lossy = np.array([float(r[4]) for r in rows])
        assert np.all(n_lossy < n)

    def test_lab_frame_conversion(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("rates", "--preset", "fig1-cooled", "--omega-a", "100.3",
                       "--nu-b", "100.0", "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(0.3, rel=1e-12)

    def test_lab_frame_requires_both_flags(self, capsys):
        assert run_cli("rates", "--preset", "fig1-cooled", "--omega-a", "1.0") == 2
        assert "omega-a" in capsys.readouterr().err


    @settings(max_examples=30, deadline=None)
    @given(sign=st.sampled_from([-1.0, 1.0]), detuning=st.floats(0.5, 1.5),
           kappa_a=st.floats(0.0, 1.0))
    @example(sign=1.0, detuning=1.0, kappa_a=0.5)
    def test_rows_match_library(self, sign, detuning, kappa_a):
        p = replace(fig1_cooled(), delta_c=sign * detuning, kappa_a=kappa_a)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli("rates", "--preset", "fig1-cooled", "--delta-c", repr(p.delta_c),
                           "--kappa-a", repr(kappa_a), "--grid-count", "40") == 0
        table = compute_rates(p, make_grid(1e-4, 4.0, 40, "log"))
        assert out.getvalue().splitlines() == table.to_csv().splitlines()


class TestStabilityCommand:
    def test_boundary_raster(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run_cli("stability", "--preset", "fig1-cooled", "--gamma-m", "0",
                       "--var1", "g_c", "--min1", "0", "--max1", "0.7", "--count1", "30",
                       "--var2", "g_a", "--min2", "0", "--max2", "0.0001", "--count2", "2",
                       "-o", str(out)) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["g_c", "g_a"]
        ga0 = [r for r in rows if float(r[1]) == 0.0]
        stable = [float(r[0]) for r in ga0 if r[7] == "stable"]
        unstable = [float(r[0]) for r in ga0 if r[7] == "unstable"]
        gmax = 1.0 / SQRT3
        assert max(stable) < gmax < min(unstable)
        assert all(r[8] == "false" for r in rows)


class TestValidateCommand:
    def test_default_params_all_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("validate", "--preset", "fig1-cooled", "-o", str(out))
        report = json.loads(out.read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert set(statuses.values()) == {"pass"}
        assert report["passed"] is True
        assert code == 0

    def test_validation_failure_gives_exit_code_1(self, tmp_path, monkeypatch):
        import optobath.validate as validate

        def failing(p, seed):
            return {
                "passed": False,
                "seed": seed,
                "params": {},
                "checks": [{"name": "synthetic", "status": "fail",
                            "measured": 1.0, "tolerance": 0.0, "detail": ""}],
            }

        monkeypatch.setattr(validate, "run_checks", lambda p, seed: failing(p, seed))
        assert run_cli("validate", "-o", str(tmp_path / "r.json")) == 1

    def test_blue_detuned_params_do_not_crash(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("validate", "--preset", "fig1-cooled", "--delta-c", "1.0",
                       "-o", str(out))
        assert code in (0, 1)
        report = json.loads(out.read_text())
        assert all(c["status"] in ("pass", "skip") for c in report["checks"])

    def test_unstable_params_skip_with_reason(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("validate", "--preset", "fig1-cooled", "--gc", "0.6",
                       "-o", str(out))
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["representation-equivalence"]["status"] == "skip"
        assert "stable" in by_name["representation-equivalence"]["detail"]
        assert by_name["variance-consistency"]["status"] == "skip"
        assert code in (0, 1)


class TestExitCodes:
    def test_bad_kappa_c_is_config_error(self, capsys):
        assert run_cli("spectrum", "--preset", "fig1-cooled", "--kappa-c", "0") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_sweep_count(self):
        assert run_cli("spectrum", "--preset", "fig1-cooled", "--grid-count", "1") == 2

    def test_bad_sweep_order(self):
        assert run_cli("spectrum", "--preset", "fig1-cooled", "--grid-min", "2",
                       "--grid-max", "1") == 2

    @pytest.mark.parametrize("flags", [("--beta", "inf"), ("--kappa-c", "nan"),
                                       ("--delta-a=-inf",)])
    def test_non_finite_parameter_is_config_error(self, flags, capsys):
        assert run_cli("spectrum", "--preset", "fig1-cooled", *flags) == 2
        assert "finite" in capsys.readouterr().err

    def test_invalid_swept_value_is_config_error(self, capsys):
        assert run_cli("stability", "--preset", "fig1-cooled", "--var2", "kappa_c",
                       "--min2", "0", "--count1", "3", "--count2", "3") == 2
        assert "kappa_c" in capsys.readouterr().err

    def test_same_swept_variable_twice_is_config_error(self, capsys):
        assert run_cli("stability", "--preset", "fig1-cooled", "--var1", "g_c",
                       "--var2", "g_c", "--count1", "3", "--count2", "3") == 2
        assert "g_c" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("rates", "--preset", "fig1-cooled", "--grid-max", "inf", "--grid-count", "3"),
        ("spectrum", "--preset", "fig1-cooled", "--grid-max", "inf"),
        ("rates", "--omega-a", "nan", "--nu-b", "0"),
        ("stability", "--preset", "fig1-cooled", "--max1", "inf"),
    ])
    def test_non_finite_grid_is_config_error(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_nonpositive_lin_grid_is_config_error(self):
        assert run_cli("rates", "--preset", "fig1-cooled", "--grid-scale", "lin",
                       "--grid-min", "0", "--grid-max", "1") == 2

    def test_pole_is_config_error(self, capsys):
        # gamma_m = 0 and delta_c = 0 put a pole of the dressed response at
        # omega = omega_m: rates refuses it, spectrum flags its row
        point = ("--gamma-m", "0", "--gc", "0.3", "--kappa-c", "1", "--delta-c", "0",
                 "--ga", "0.3", "--grid-min", "0.5", "--grid-max", "1.5",
                 "--grid-count", "3", "--grid-scale", "lin")
        code, out, err = run_cli_text("rates", *point)
        assert (code, out) == (2, "") and "pole" in err
        code, out, _ = run_cli_text("spectrum", *point)
        assert code == 0
        assert out.splitlines()[2] == "1.000000000000e+00,nan,nan,nan,pole"

    def test_no_bath_is_config_error(self):
        assert run_cli("spectrum", "--gc", "0") == 2

    def test_no_bath_message_is_shared(self):
        results = [run_cli_text(command, "--gamma-m", "0", "--gc", "0")
                   for command in ("spectrum", "rates")]
        assert [code for code, _, _ in results] == [2, 2]
        assert results[0][2] == results[1][2] != ""

    @pytest.mark.parametrize("command", ["rates", "stability", "validate"])
    def test_fig3_preset_only_for_spectrum(self, command):
        # only spectrum honours the family; elsewhere it would run on defaults
        with pytest.raises(SystemExit) as exc:
            run_cli_text(command, "--preset", "fig3")
        assert exc.value.code == 2

    def test_unknown_format_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("spectrum", "--format", "xml")
        assert exc.value.code == 2

    def test_missing_config_file(self):
        assert run_cli("spectrum", "--config", "/nonexistent/x.json") == 2

    def test_config_file_with_hardware_block(self, tmp_path):
        config = {
            "gamma_m": 1e-6, "kappa_c": 2 / SQRT3, "delta_c": -1.0,
            "g_c": 0.45, "beta": 1e-4,
            "hardware": {
                "r_m": 0.2, "omega_0": 1.216e15, "d": 0.01, "L": 0.04, "l": 0.015,
                "b_s": 2.4e4, "mass": 8.0e-11, "omega_m_si": 2 * math.pi * 3.0e5,
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "rates.csv"
        assert run_cli("rates", "--config", str(path), "--grid-count", "5",
                       "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) > 0 for r in rows)

    def test_config_giving_g_a_twice_is_config_error(self, tmp_path, capsys):
        # an explicit "g_a" and a hardware block would each set g_a; neither
        # may silently win
        hardware = {"r_m": 0.2, "omega_0": 1.216e15, "d": 0.01, "L": 0.04, "l": 0.015,
                    "b_s": 2.4e4, "mass": 8.0e-11, "omega_m_si": 2 * math.pi * 3.0e5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"g_c": 0.45, "g_a": 0.3, "hardware": hardware}))
        assert run_cli("rates", "--config", str(path), "--grid-count", "5") == 2
        err = capsys.readouterr().err
        assert "g_a twice" in err and '"g_a"' in err and '"hardware"' in err

    @pytest.mark.parametrize("key", ["kappa_b", "delta_b"])
    def test_config_with_removed_parameter_is_config_error(self, tmp_path, key, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"g_c": 0.45, key: 1.0}))
        assert run_cli("spectrum", "--config", str(path), "--grid-count", "5") == 2
        assert "unknown parameter(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("d", "inf"), ("mass", True), ("r_m", "0.5")])
    def test_hardware_block_requires_finite_numbers(self, tmp_path, key, value, capsys):
        hardware = {"r_m": 0.2, "omega_0": 1.216e15, "d": 0.01, "L": 0.04, "l": 0.015,
                    "b_s": 2.4e4, "mass": 8.0e-11, "omega_m_si": 2 * math.pi * 3.0e5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"hardware": {**hardware, key: value}}))
        assert run_cli("rates", "--config", str(path), "--grid-count", "5") == 2
        assert f"hardware {key} must be a finite real number" in capsys.readouterr().err

    def test_subprocess_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "optobath.cli", "spectrum", "--preset",
             "fig1-cooled", "--grid-count", "5"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("omega,")


def test_presets_live_in_params_and_cli_loads_validate_only_to_validate():
    import optobath.params
    import optobath.validate

    assert optobath.validate.fig1_cooled is optobath.params.fig1_cooled
    code = "import sys, optobath.cli; assert 'optobath.validate' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize("command", ["spectrum", "rates", "stability", "validate"])
def test_parameter_flags_follow_system_params(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    names = [f.name for f in fields(SystemParams)]
    flags = [a.option_strings for a in sub.choices[command]._actions if a.dest in names]
    assert flags == [["--omega-m"], ["--gamma-m"], ["--kappa-c"], ["--kappa-a"],
                     ["--delta-a"], ["--delta-c"], ["--ga"], ["--gc"], ["--beta"], ["--cutoff"]]
    assert [a.dest for a in sub.choices[command]._actions if a.dest in names] == names
