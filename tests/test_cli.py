import errno
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavmag import config, optimize, sweep
from cavmag.cli import main
from cavmag.dynamics import STABILITY_EPS_FACTOR, drift_matrix, spectral_abscissa, steady_state


def run_cli(*argv):
    return main(list(argv))


class TestPoint:
    def test_default_point_is_stable_and_entangled(self, tmp_path, capsys):
        code = run_cli("point", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "stability: stable" in out
        record = json.loads((tmp_path / "point.json").read_text())
        assert record["stable"] is True
        assert record["bipartite"]["EN_de"] > 0
        assert record["bipartite"]["EN_ne"] > 0
        assert record["warnings"] == []
        sidecar = json.loads((tmp_path / "point.meta.json").read_text())
        # the sidecar is a full re-run recipe: config echo + constants + version
        assert sidecar["config"]["system"]["omega_d_hz2pi"] == "1.0e7"
        assert sidecar["constants"]["hbar_J_s"] == pytest.approx(1.054571817e-34)
        assert sidecar["version"]

    def test_hopping_off_prints_zero_cross_cavity_measures(self, tmp_path):
        code = run_cli("point", "--set", "J=0", "--out", str(tmp_path))
        assert code == 0
        record = json.loads((tmp_path / "point.json").read_text())
        for mid in ("EN_a1a2", "EN_a1n", "EN_a1d", "EN_a2e", "EN_ne", "EN_de"):
            assert record["bipartite"][mid] < 1e-12

    def test_config_file_with_a_byte_order_mark(self, tmp_path, capsys):
        # as editors on Windows save UTF-8: the mark is not part of the text
        ini = b"[system]\nT_K = 0.05\n"
        for name, data in (("plain", ini), ("marked", b"\xef\xbb\xbf" + ini)):
            (tmp_path / f"{name}.ini").write_bytes(data)
            assert run_cli("point", "--config", str(tmp_path / f"{name}.ini"),
                           "--out", str(tmp_path / name)) == 0
        assert run_cli("point", "--out", str(tmp_path / "default")) == 0
        capsys.readouterr()
        marked, plain, default = (
            (tmp_path / name / "point.json").read_bytes()
            for name in ("marked", "plain", "default"))
        assert marked == plain != default

    def test_unstable_point_exits_2(self, tmp_path):
        code = run_cli("point", "--preset", "table2_a1n", "--out", str(tmp_path))
        assert code == 2
        record = json.loads((tmp_path / "point.json").read_text())
        assert record["stable"] is False
        assert record["bipartite"]["EN_a1n"] is None

    @pytest.mark.parametrize("sets, code", [([], 0), (["delta_n_tilde=-0.65"], 2)],
                             ids=["stable", "unstable"])
    def test_verdict_is_the_drifts_own_eigen_solve(self, tmp_path, sets, code):
        cfg = config.load_layers()
        for assignment in sets:
            config.apply_set(cfg, assignment)
        p = config.build_system(cfg)
        abscissa = spectral_abscissa(drift_matrix(p, steady_state(p)))
        args = [a for assignment in sets for a in ("--set", assignment)]
        assert run_cli("point", *args, "--out", str(tmp_path)) == code
        record = json.loads((tmp_path / "point.json").read_text())
        assert record["spectral_abscissa_radps"] == abscissa
        assert record["margin_radps"] == -STABILITY_EPS_FACTOR * p.omega_d - abscissa
        assert record["stable"] is (code == 0)

    def test_subnormal_temperature_is_the_zero_temperature_point(self, tmp_path, capsys):
        # kB * T underflows to 0 at T = 5e-324: the T -> 0 limit, no traceback
        for T in ("0", "5e-324"):
            assert run_cli("point", "--set", f"T={T}", "--out", str(tmp_path / T)) == 0
        assert ((tmp_path / "0" / "point.json").read_bytes()
                == (tmp_path / "5e-324" / "point.json").read_bytes())

    def test_malformed_unit_suffix_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[system]\nkappa_a_mhz = 1.0\n")
        code = run_cli("point", "--config", str(bad), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "kappa_a_mhz" in err

    def test_unparseable_value_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[system]\nkappa_a_hz2pi = fast\n")
        code = run_cli("point", "--config", str(bad), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "kappa_a_hz2pi" in err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = run_cli("point", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path))
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        code = run_cli("point", "--preset", "fig99", "--out", str(tmp_path))
        assert code == 1
        assert "fig99" in capsys.readouterr().err

    def test_singular_steady_state_exits_2(self, tmp_path, capsys):
        sets = [f"{name}=0" for name in
                ("kappa_a", "kappa_n", "gamma_e", "delta_1", "delta_2",
                 "delta_e", "delta_n_tilde", "g_na", "G_ae", "J")]
        args = ["point", "--out", str(tmp_path)]
        for s in sets:
            args += ["--set", s]
        code = run_cli(*args)
        assert code == 2
        assert "singular" in capsys.readouterr().err


class TestEvaluationErrorsAreOneLine:
    """A parameter set that passes its checks but has no usable steady state
    (here a negative cavity-2 carrier, whose thermal occupation is undefined)
    ends in one line and exit 2, not a traceback."""

    @pytest.mark.parametrize("command", ["point", "tc"])
    def test_negative_carrier(self, tmp_path, capsys, command):
        code = run_cli(command, "--preset", "table2_de", "--set", "delta_2=-2000000",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("no steady state: omega must be positive, got -")
        assert err.count("\n") == 1

    def test_optimize_scores_such_points_zero(self, tmp_path, capsys):
        code = run_cli("optimize", "--preset", "table2_ne",
                       "--set", "system.omega_l_hz2pi=-1e12",
                       "--set", "optimize.max_evaluations=40", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err == "optimization failed: no stable point found in the box\n"

    @pytest.mark.parametrize("assignment, field", [
        ("T=inf", "T"), ("J=nan", "J"), ("g_na=inf", "g_na")])
    def test_non_finite_parameter_is_a_configuration_error(self, tmp_path, capsys,
                                                           assignment, field):
        code = run_cli("point", "--set", assignment, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: [system]: {field} must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key, field", config._COUPLING_FIELDS.items())
    def test_non_finite_coupling_field_is_a_configuration_error(self, tmp_path, capsys,
                                                                key, field, value):
        # a NaN passed the sign checks and dropped the regime warning it feeds
        code = run_cli("point", "--set", f"coupling.{key}={value}", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == \
            f"config error: [coupling]: {field} must be finite, got {value}\n"

    def test_overflowing_mean_field_is_no_steady_state(self, tmp_path, capsys):
        code = run_cli("point", "--set", "Omega_n=1e190", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("no steady state: overflow in steady-state solve: ")
        assert err.count("\n") == 1

    def test_overflowing_diffusion_is_no_steady_state(self, tmp_path, capsys):
        # at T = 1e300 K trsyl scales the covariance down by 4.7e-301 and
        # the norm of the diffusion overflows
        code = run_cli("point", "--set", "T=1e300", "--out", str(tmp_path))
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("no steady state: solver breakdown: ")
        assert err.count("\n") == 1
        assert "EN_ne" not in out

    def test_infinite_axis_bound_is_a_configuration_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "hot.ini"
        cfgfile.write_text("[sweep]\naxis1 = T\naxis1_min_K = 0\n"
                           "axis1_max_K = inf\naxis1_points = 3\n")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == \
            "config error: [sweep]: axis 'T' needs a finite range, got [0.0, inf]\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_failing_sweep_override_is_a_configuration_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cold.ini"
        cfgfile.write_text("[sweep:cold]\naxis1 = J\naxis1_min_wd = 0.2\n"
                           "axis1_max_wd = 1.0\naxis1_points = 3\nset_T_K = -1\n")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == "config error: [sweep:cold]: T must be non-negative\n"


_TINY_SWEEP = "axis1 = J\naxis1_min_wd = 0.2\naxis1_max_wd = 1.0\naxis1_points = 3\n"


class TestInputsEndInOneConfigErrorLine:
    """Inputs that used to be ignored, to overwrite an output or to end in a
    traceback: each exits 1 with one ``config error:`` line."""

    @staticmethod
    def run(tmp_path, capsys, *argv, ini=None):
        if ini is not None:
            (tmp_path / "in.ini").write_text(ini)
            argv += ("--config", str(tmp_path / "in.ini"))
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("argv, ini", [
        pytest.param(("--set", "sytem.T_K=5"), None, id="set"),
        pytest.param((), "[sytem]\nT_K = 5\n", id="config-file"),
    ])
    def test_unknown_section(self, tmp_path, capsys, argv, ini):
        assert self.run(tmp_path, capsys, "point", *argv, ini=ini) == (
            1, "config error: unknown section [sytem]; use [system], [coupling], "
               "[sweep], [sweep:<name>], [optimize] or [tc]\n")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("point", "--set", "J"), "--set expects name=value, got 'J'",
                     id="set-without-equals"),
        pytest.param(("optimize",), "no [optimize] section in the configuration",
                     id="no-optimize-section"),
        pytest.param(("tc",), "no [tc] section in the configuration", id="no-tc-section"),
    ])
    def test_missing_part(self, tmp_path, capsys, argv, message):
        assert self.run(tmp_path, capsys, *argv) == (1, f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ini, message", [
        pytest.param("[sweep]\n" + _TINY_SWEEP + "axis1_pionts = 9\n",
                     "unrecognized key 'axis1_pionts' in [sweep]", id="typo"),
        pytest.param("[sweep]\n" + _TINY_SWEEP
                      + "axis2_min_wd = 0\naxis2_max_wd = 1\naxis2_points = 3\n",
                      "unrecognized key 'axis2_min_wd' in [sweep]", id="axis2-without-axis2"),
        pytest.param("[sweep]\n" + _TINY_SWEEP + "[sweep:sweep]\n" + _TINY_SWEEP,
                     "[sweep:sweep]: another section already writes sweep.csv",
                     id="same-name"),
        pytest.param("[sweep:a/b]\n" + _TINY_SWEEP,
                     "[sweep:a/b]: sweep name 'a/b' is not a file name", id="slash"),
        pytest.param("[sweep:a\\b]\n" + _TINY_SWEEP,
                     "[sweep:a\\b]: sweep name 'a\\\\b' is not a file name", id="backslash"),
        pytest.param("[sweep:..]\n" + _TINY_SWEEP,
                     "[sweep:..]: sweep name '..' is not a file name", id="dotdot"),
        pytest.param("[sweep:.]\n" + _TINY_SWEEP,
                     "[sweep:.]: sweep name '.' is not a file name", id="dot"),
        pytest.param("[sweep]\nmeasures = EN_de\n", "[sweep] defines no axes",
                     id="no-axes"),
    ])
    def test_sweep_keys_and_names(self, tmp_path, capsys, ini, message):
        assert self.run(tmp_path, capsys, "sweep", ini=ini) == (1, f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ini, message", [
        pytest.param("[sweep:a]\n" + _TINY_SWEEP.replace("= 3", "= 100000000000"),
                     "[sweep:a]: the grid has 100000000000 rows, over the bound of "
                     "10000000 rows per grid", id="one-axis"),
        pytest.param("[sweep:a]\n" + _TINY_SWEEP.replace("= 3", "= 4000")
                     + "axis2 = T\naxis2_min_K = 0\naxis2_max_K = 0.1\naxis2_points = 2501\n",
                     "[sweep:a]: the grid has 10004000 rows, over the bound of "
                     "10000000 rows per grid", id="two-axes"),
    ])
    def test_grid_too_large_to_hold(self, tmp_path, capsys, monkeypatch, ini, message):
        # the bound is checked on the spec, before any axis makes its values
        monkeypatch.setattr(sweep.Axis, "values", lambda axis: pytest.fail("values made"))
        assert self.run(tmp_path, capsys, "sweep", ini=ini) == (1, f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("assignment, key", [
        ("J=none", "J_hz2pi"), ("T=none", "T_K"), ("kappa_a=none", "kappa_a_hz2pi"),
        ("system.omega_d_hz2pi=none", "omega_d_hz2pi"),
    ])
    def test_none_for_a_required_system_key(self, tmp_path, capsys, assignment, key):
        assert self.run(tmp_path, capsys, "point", "--set", assignment) == (
            1, f"config error: key {key!r} in [system] cannot be none; only the "
               "carriers, the detunings and delta_n_tilde_hz2pi may be left unset\n")

    @pytest.mark.parametrize("argv, section, measure", [
        (("optimize", "--preset", "table2_ne", "--set", "optimize.measure=EN_xx"),
         "[optimize]", "EN_xx"),
        (("tc", "--preset", "table2_de", "--set", "tc.measure=EN_xx"), "[tc]", "EN_xx"),
        (("tc", "--preset", "table2_de", "--set", "tc.measure="), "[tc]", ""),
    ], ids=["optimize", "tc", "tc-empty"])
    def test_unknown_measure(self, tmp_path, capsys, argv, section, measure):
        # exit 2 is for "no steady state", not for a typo in the configuration
        assert self.run(tmp_path, capsys, *argv) == (
            1, f"config error: {section}: unknown measure id {measure!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, seed", [
        (("--seed", "-1"), -1),
        (("--set", "optimize.seed=-3"), -3),
    ])
    def test_negative_seed(self, tmp_path, capsys, argv, seed):
        assert self.run(tmp_path, capsys, "optimize", "--preset", "table2_ne", *argv) == (
            1, f"config error: [optimize]: seed must be >= 0, got {seed}\n")

    @pytest.mark.parametrize("argv, section, key", [
        (("optimize", "--preset", "table2_ne"), "optimize", "restarts"),
        (("optimize", "--preset", "table2_ne"), "optimize", "max_evaluations"),
        (("optimize", "--preset", "table2_ne"), "optimize", "seed"),
        (("sweep", "--preset", "fig8"), "sweep:nde", "axis1_points"),
        (("sweep", "--preset", "fig10a"), "sweep", "axis2_points"),
    ], ids=["restarts", "max_evaluations", "seed", "axis1_points", "axis2_points"])
    def test_integer_key_names_itself(self, tmp_path, capsys, argv, section, key):
        assert self.run(tmp_path, capsys, *argv, "--set", f"{section}.{key}=1e3") == (
            1, f"config error: key {key!r} in [{section}]: cannot parse '1e3' as an "
               "integer\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["directory", "not-utf-8"])
    def test_config_file_that_cannot_be_read(self, tmp_path, capsys, how):
        # read before anything is evaluated; an unreadable file (EACCES) takes
        # the same path, but cannot be made here when the tests run as root
        path = tmp_path / "in.ini"
        if how == "directory":
            path.mkdir()
            reason = os.strerror(errno.EISDIR)
        else:
            path.write_bytes(b"[system]\nT_K = 5 \xb0K\n")
            reason = "'utf-8' codec can't decode byte 0xb0 in position 17: invalid start byte"
        assert self.run(tmp_path, capsys, "point", "--config", str(path)) == (
            1, f"config error: config file {path}: {reason}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ini, text", [
        pytest.param("T_K = 5\n", "File contains no section headers.", id="no-section"),
        pytest.param("[system]\nT_K 5\n", "Source contains parsing errors:",
                     id="no-separator"),
    ])
    def test_unparseable_config_file(self, tmp_path, capsys, ini, text):
        # configparser's text for these runs over several lines
        code, err = self.run(tmp_path, capsys, "point", ini=ini)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"config error: {tmp_path / 'in.ini'}: {text} ")

    def test_box_wider_than_the_largest_float(self, tmp_path, capsys):
        # no scan point can be drawn where hi - lo overflows
        assert self.run(tmp_path, capsys, "optimize", "--preset", "table2_ne",
                        "--set", "optimize.box_delta_1_min_wd=-1e308",
                        "--set", "optimize.box_delta_1_max_wd=1e308") == (
            1, "config error: [optimize]: box for 'delta_1' is wider than the largest "
               "float: (-1e+308, 1e+308)\n")
        assert not (tmp_path / "out").exists()


def out_in_the_way(tmp_path, under):
    """An --out that names a file, or a path under one, and the reason
    mkdir gives for it."""
    taken = tmp_path / "taken"
    taken.write_text("")
    if under:
        return taken / "out", os.strerror(errno.ENOTDIR)
    return taken, os.strerror(errno.EEXIST)


# every file each subcommand below writes under --out
OUTPUTS = {
    "point": ("point.json", "point.meta.json"),
    "sweep": ("a1nd.csv", "a1nd.csv.meta.json", "nde.csv", "nde.csv.meta.json",
              "sweep.meta.json"),
    "stability-map": ("a1nd.csv", "a1nd.csv.meta.json", "nde.csv", "nde.csv.meta.json",
                      "stability-map.meta.json"),
    "optimize": ("optimize_report.json", "optimize_trace.csv", "optimize.meta.json"),
    "tc": ("tc.json", "tc.meta.json"),
}


@pytest.mark.parametrize("how", ["file", "under-a-file", "output-is-a-directory"])
@pytest.mark.parametrize("argv", [
    ("point",), ("sweep", "--preset", "fig8"), ("stability-map", "--preset", "fig8"),
    ("optimize", "--preset", "table2_ne"), ("tc", "--preset", "table2_ne"),
], ids=lambda argv: argv[0])
def test_out_in_the_way_is_a_config_error(tmp_path, capsys, argv, how):
    if how == "output-is-a-directory":
        # a directory where an output goes: named before anything is
        # evaluated, so nothing else is written
        cases = []
        for name in OUTPUTS[argv[0]]:
            (tmp_path / name / name).mkdir(parents=True)
            cases.append((tmp_path / name, f"{name} is a directory", [name]))
    else:
        out, reason = out_in_the_way(tmp_path, how == "under-a-file")
        cases = [(out, reason, None)]
    for out, reason, left in cases:
        assert run_cli(*argv, "--out", str(out)) == 1
        assert tuple(capsys.readouterr()) == ("", f"config error: --out {out}: {reason}\n")
        if left is not None:
            assert [path.name for path in out.iterdir()] == left


class TestSweep:
    def test_user_config_sweep(self, tmp_path, capsys):
        cfgfile = tmp_path / "sweep.ini"
        cfgfile.write_text("""
[sweep:tiny]
axis1 = delta_a
axis1_min_wd = -1.5
axis1_max_wd = 0.5
axis1_points = 3
linkage = antisymmetric
measures = EN_de
""")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path))
        assert code == 0
        csv = (tmp_path / "tiny.csv").read_text().splitlines()
        assert csv[0] == "delta_a,stable,EN_de"
        assert len(csv) == 4
        assert (tmp_path / "tiny.csv.meta.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_zero_point_grid_rejected_at_parse_time(self, tmp_path, capsys):
        cfgfile = tmp_path / "zero.ini"
        cfgfile.write_text("""
[sweep]
axis1 = delta_a
axis1_min_wd = -1
axis1_max_wd = 1
axis1_points = 0
linkage = antisymmetric
measures = EN_de
""")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path))
        assert code == 1
        assert "at least 2" in capsys.readouterr().err

    def test_no_sweep_section_exits_1(self, tmp_path, capsys):
        code = run_cli("sweep", "--out", str(tmp_path))
        assert code == 1
        assert "no [sweep]" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_1(self, tmp_path, capsys, workers):
        code = run_cli("sweep", "--preset", "fig9", "--out", str(tmp_path),
                       "--workers", workers)
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_fig9_preset_emits_four_temperature_curves(self, tmp_path):
        args = ["sweep", "--preset", "fig9", "--out", str(tmp_path)]
        for section in ("a1n", "a1d", "ne", "de"):
            args += ["--set", f"sweep:{section}.axis1_points=5"]
        assert run_cli(*args) == 0
        for section, measure in (("a1n", "EN_a1n"), ("a1d", "EN_a1d"),
                                 ("ne", "EN_ne"), ("de", "EN_de")):
            lines = (tmp_path / f"{section}.csv").read_text().splitlines()
            assert lines[0] == f"T,stable,{measure}"
            assert len(lines) == 6
            # entanglement at the cold end of every curve
            assert float(lines[1].split(",")[2]) > 0.05

    def test_serial_and_parallel_bytes_identical(self, tmp_path, monkeypatch):
        # 441 points in chunks of 200: three chunks, so the parallel run
        # builds a pool of three processes even on a machine with fewer CPUs
        monkeypatch.setattr(sweep, "CHUNK", 200)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 8)
        cfgfile = tmp_path / "sweep.ini"
        cfgfile.write_text("""
[sweep:par]
axis1 = delta_a
axis1_min_wd = -1.5
axis1_max_wd = 0.5
axis1_points = 21
axis2 = J
axis2_min_wd = 0.2
axis2_max_wd = 1.6
axis2_points = 21
linkage = antisymmetric
measures = EN_de, EN_ne
""")
        out1, out2 = tmp_path / "serial", tmp_path / "pool"
        assert run_cli("sweep", "--config", str(cfgfile), "--out", str(out1)) == 0
        assert run_cli("sweep", "--config", str(cfgfile), "--out", str(out2),
                       "--workers", "8") == 0
        serial = (out1 / "par.csv").read_bytes()
        assert len(serial.splitlines()) == 1 + 21 * 21
        assert serial == (out2 / "par.csv").read_bytes()

    def test_verbose_progress_is_the_same_for_any_worker_count(self, tmp_path, capsys,
                                                               monkeypatch):
        # three chunks, so two workers run a pool even on a single-CPU machine
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        rows = 2 * sweep.CHUNK + 1
        ini = tmp_path / "in.ini"
        ini.write_text("[sweep:tiny]\n" + _TINY_SWEEP.replace("= 3", f"= {rows}")
                       + "measures = EN_de\n")
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert run_cli("sweep", "-v", "--config", str(ini), "--out", str(out),
                           "--workers", workers) == 0
            runs.append((capsys.readouterr().err, (out / "tiny.csv").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == "".join(f"[tiny] {done}/{rows} rows\n"
                                     for done in (sweep.CHUNK, 2 * sweep.CHUNK, rows))

    def test_repeated_measure_is_a_configuration_error(self, tmp_path, capsys):
        # the CSV carried the EN_ne column twice
        code = run_cli("sweep", "--preset", "fig8", "--set", "sweep:nde.measures=EN_ne,EN_ne",
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == \
            "config error: [sweep:nde]: measures must be distinct\n"
        assert not list(tmp_path.glob("*.csv"))


class TestStabilityMap:
    def test_measures_are_stripped(self, tmp_path):
        cfgfile = tmp_path / "map.ini"
        cfgfile.write_text("""
[sweep]
axis1 = delta_n_tilde
axis1_min_wd = 0.2
axis1_max_wd = 2.2
axis1_points = 5
measures = EN_de
""")
        code = run_cli("stability-map", "--config", str(cfgfile),
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delta_n_tilde,stable"


class TestOptimize:
    def test_single_point_box_echoes_evaluation(self, tmp_path, capsys):
        cfgfile = tmp_path / "opt.ini"
        cfgfile.write_text("""
[optimize]
measure = EN_ne
restarts = 1
max_evaluations = 5
seed = 9
box_delta_1_min_wd = 0.76
box_delta_1_max_wd = 0.76
box_delta_2_min_wd = -0.52
box_delta_2_max_wd = -0.52
box_delta_n_tilde_min_wd = 0.77
box_delta_n_tilde_max_wd = 0.77
box_delta_e_min_wd = -0.63
box_delta_e_max_wd = -0.63
box_J_min_wd = 0.8
box_J_max_wd = 0.8
""")
        code = run_cli("optimize", "--config", str(cfgfile), "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "best EN_ne" in out
        record = json.loads((tmp_path / "optimize_report.json").read_text())
        assert record["best_value"] > 0.1
        assert (tmp_path / "optimize_trace.csv").read_text().startswith(
            "restart,best_value,nfev")

    def test_infeasible_box_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "opt.ini"
        cfgfile.write_text("""
[system]
delta_1_hz2pi = -1.41e7
delta_2_hz2pi = -6.8e6
delta_e_hz2pi = -1.63e7
J_hz2pi = 3.5e6

[optimize]
measure = EN_a1n
restarts = 1
max_evaluations = 20
seed = 9
box_delta_n_tilde_min_wd = -0.66
box_delta_n_tilde_max_wd = -0.64
""")
        code = run_cli("optimize", "--config", str(cfgfile), "--out", str(tmp_path))
        assert code == 2
        assert "no stable point" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["box_J_max_wd=nan", "box_J_max_wd=inf",
                                          "box_J_min_wd=nan"])
    def test_non_finite_box_bound_exits_1(self, tmp_path, capsys, override):
        code = run_cli("optimize", "--preset", "table2_ne",
                       "--set", "optimize.max_evaluations=200",
                       "--set", f"optimize.{override}", "--out", str(tmp_path))
        assert code == 1
        assert "box for 'J' must have finite bounds" in capsys.readouterr().err
        assert not (tmp_path / "optimize_report.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        code = run_cli("optimize", "--preset", "table2_ne", "--seed", "123",
                       "--set", "optimize.max_evaluations=40",
                       "--set", "optimize.restarts=1",
                       "--out", str(tmp_path))
        assert code == 0
        record = json.loads((tmp_path / "optimize_report.json").read_text())
        assert record["seed"] == 123


    def test_serial_and_parallel_bytes_identical(self, tmp_path):
        # the first restart ends by itself, the budget cuts the second and
        # leaves none for the third
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert run_cli("optimize", "--preset", "table2_ne",
                           "--set", "optimize.max_evaluations=400",
                           "--set", "optimize.restarts=3",
                           "--workers", workers, "--out", str(out)) == 0
            outs.append(out)
        for name in ("optimize_report.json", "optimize_trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        record = json.loads((outs[0] / "optimize_report.json").read_text())
        assert len(record["restarts"]) == 2 and record["evaluations"] == 400


class TestTc:
    def test_tc_at_ne_operating_point(self, tmp_path, capsys):
        code = run_cli("tc", "--preset", "table2_ne",
                       "--set", "tc.tol_K=2e-3", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "critical temperature for EN_ne" in out
        record = json.loads((tmp_path / "tc.json").read_text())
        assert 0.140 <= record["T_c_K"] <= 0.260

    def test_tolerance_below_the_float_spacing_ends(self, tmp_path, monkeypatch):
        # the bisection stops once no float lies between its ends, some 50
        # halvings in, instead of halving the same interval forever
        temperatures = []
        real = optimize.evaluate_measure

        def counted(p, measure):
            temperatures.append(p.T)
            assert len(temperatures) <= 100, "the bisection does not end"
            return real(p, measure)

        monkeypatch.setattr(optimize, "evaluate_measure", counted)
        code = run_cli("tc", "--preset", "table2_ne", "--set", "tc.tol_K=1e-20",
                       "--out", str(tmp_path))
        assert code == 0
        T_c = json.loads((tmp_path / "tc.json").read_text())["T_c_K"]
        assert 0.140 <= T_c <= 0.260
        assert abs(temperatures[-1] - T_c) <= 2 * math.ulp(T_c)

    @pytest.mark.parametrize("tol, printed", [
        ("1e-3", "1.0"), ("2e-3", "2.0"), ("5e-5", "0.1"), ("4.9e-5", "0.049"),
        ("1.234e-6", "0.0012"), ("1e-20", "1e-17")])
    def test_tolerance_prints_a_non_zero_value(self, tmp_path, capsys, tol, printed):
        # one decimal of mK printed every tol_K below 5e-5 K as 0.0
        code = run_cli("tc", "--preset", "table2_ne", "--set", f"tc.tol_K={tol}",
                       "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().out.endswith(
            f"(threshold 1e-4, tolerance {printed} mK)\n")

    def test_zero_tolerance_is_a_configuration_error(self, tmp_path, capsys):
        code = run_cli("tc", "--preset", "table2_de", "--set", "tc.tol_K=0",
                       "--out", str(tmp_path))
        assert code == 1
        assert "tol_K" in capsys.readouterr().err
        assert not (tmp_path / "tc.json").exists()

    @pytest.mark.parametrize("t_max", ["nan", "inf", "0"])
    def test_t_max_outside_its_range_is_a_configuration_error(self, tmp_path, capsys, t_max):
        code = run_cli("tc", "--preset", "table2_ne", "--set", f"tc.T_max_K={t_max}",
                       "--out", str(tmp_path))
        assert code == 1
        assert "T_max_K" in capsys.readouterr().err
        assert not (tmp_path / "tc.json").exists()

    def test_non_monotone_profile_lists_its_samples(self, tmp_path, capsys, monkeypatch):
        temperatures = []

        def rising(p, measure):
            temperatures.append(p.T)
            return 0.01 + p.T

        monkeypatch.setattr(optimize, "evaluate_measure", rising)
        code = run_cli("tc", "--preset", "table2_de", "--out", str(tmp_path))
        assert code == 2
        assert len(temperatures) == 9
        assert capsys.readouterr().err == (
            "tc failed: non-monotone profile for EN_de; sampled curve attached\n"
            + "".join(f"  T={T:.4f} K  EN_de={0.01 + T:.6e}\n" for T in temperatures))
        assert not (tmp_path / "tc.json").exists()

    def test_not_entangled_exits_2(self, tmp_path, capsys):
        code = run_cli("tc", "--set", "J=0", "--set", "g_na=0",
                       "--set", "G_nd=0", "--set", "G_ae=0",
                       "--set", "tc.measure=EN_ne", "--set", "tc.T_max_K=0.4",
                       "--out", str(tmp_path))
        assert code == 2
        assert "not entangled at floor" in capsys.readouterr().err


class TestPresets:
    def test_all_presets_parse_and_resolve(self):
        from cavmag.config import (available_presets, build_coupling,
                                   build_grid_specs, build_system, load_layers)
        names = available_presets()
        assert {"default", "fig2a", "fig7", "fig8", "fig9", "fig10d",
                "table2_a1n", "table2_ne"} <= set(names)
        for name in names:
            cfg = load_layers(preset=name)
            params = build_system(cfg)
            build_coupling(cfg)
            build_grid_specs(cfg, params)

    def test_list_presets_flag(self, capsys):
        assert run_cli("--list-presets") == 0
        assert "fig2a" in capsys.readouterr().out

    def test_preset_composes_with_set_overrides(self, tmp_path):
        code = run_cli("point", "--preset", "table2_ne",
                       "--set", "delta_n_tilde=0.9", "--out", str(tmp_path))
        assert code == 0
        record = json.loads((tmp_path / "point.json").read_text())
        wd = 2 * 3.141592653589793 * 1e7
        assert record["steady_state"]["delta_n_tilde_radps"] == pytest.approx(
            0.9 * wd, rel=1e-12)


# sha256 of the standard output and the output files of the one-point
# commands, recorded before the covariance became a plain array: the
# measures, the verdict, the optimizer and the tc search in every bit.  The
# <command>.meta.json sidecars were recorded before the configuration front
# end was cut down, and pin the config echo and the sidecar head.  The
# table2_a1n, table2_a1d and table2_de optima were recorded while maximize
# still called scipy's Nelder-Mead.
ONE_POINT_DIGESTS = {
    "point --preset default": {
        "stdout": "488cc5fa44667c6f3c330c6447f1d626086f75b33aa0e470efb7065ea69dc39f",
        "point.json": "144680d6a45d79c47b8203596bc57fa6a99c595be8fcc97879d7ae8a75923843",
        "point.meta.json": "6ee4e6e0266a9ee3a9d17ca83496fe48a2af6b6e382211ad6dedcd5e61083933",
    },
    "point --preset table2_a1n": {
        "stdout": "999ba36ba865a46ef09c005ce7b884dcee1f11bfd34d0bcf4f141ff90e1ae2a8",
        "point.json": "e2daf22da0f644ab712ced983dbd17ecdbe38e5f53b3f1406d8ae1ccf31cd9af",
        "point.meta.json": "e26aa6ac4e6904ecddbf1c9733d4a365f13a88576815bf78ec336de9ff8ceb54",
    },
    "point --preset table2_a1d": {
        "stdout": "57ed1f028f00efd5ce42d41b6ee231add2007e0bfb7aae363fd07ba0e9a62fc5",
        "point.json": "f79cd848cffaa9fe59277aaa1d902872cae3703b6fb1bbfbde0be3e29e63dc17",
        "point.meta.json": "b4b3b30a33fc498306490c1e557deada955ef5c1ba716cbf09e9e3afb6997749",
    },
    "point --preset table2_ne": {
        "stdout": "337a3d7905fa0abb1665c835a40a8abd23b7ef5148513f429bd590fb8efdc855",
        "point.json": "da794acdabb5a54e09c419cc094a45ff996f0e4dcbb1786862b82f1a776204ec",
        "point.meta.json": "9ff9f68ca287d364ce1ee6266db0780cf8723eeedd4bd6c1af6169775ac458d0",
    },
    "point --preset table2_de": {
        "stdout": "c7ead8eea9943cf6e50e507d6e1a1e13853e88ce32cdd1374e371d37cd0e4f4f",
        "point.json": "b96e04b2d7c3525af8ea6f05fba8c83bc0ba829db9b125b9459b71cc233818e4",
        "point.meta.json": "5f906de5945bffd8f157f5f1724883baf2d47a1dc32780290930bf5ffefe5381",
    },
    "optimize --preset table2_a1n": {
        "stdout": "a4c2b91b1910d887a43ebba622e04c75d20aa7168b50b25bb6d6e5c4e9861f05",
        "optimize_report.json": "5807aa9355c557567da4d5c25b938c43029af46f3e88b995f0e8122718ecdc42",
        "optimize_trace.csv": "a131fe37766e702d06964bb1b8d810c1e65db83010fb6999b3ed7dcea8b1090e",
        "optimize.meta.json": "99ac225c6d4e088b30213bb14d2ebd7dea64c400ee9cd77879ecf19ac9d37e3a",
    },
    "optimize --preset table2_a1d": {
        "stdout": "0c83705aab6a2d9e275738223e84531d46095cb12368e875113643782bf73552",
        "optimize_report.json": "b7d75faf8a58debe32762e2fb7ed09593105d6799ba9c786d7cf79c4629b2f66",
        "optimize_trace.csv": "ef8fc9cf099b1d1269adb401710afc3070417c3df10e78743c1444c3b031e3a3",
        "optimize.meta.json": "7fbde6bb58a5193289103b66ad74930d6d5e548e077cd7d67f5d366188b84f57",
    },
    "optimize --preset table2_ne": {
        "stdout": "16318292a5e91466a4cc0d244d619a58280aa5bb8e006fc664cc15fd861e76dd",
        "optimize_report.json": "6de3077ce10c3c90b6f12a8d16533566488f56f85a1abf7a245aa4a5b3dbbae0",
        "optimize_trace.csv": "34a773bc569757389dd1b3aad685548b00ca6f716179c1193b8d8637407ed7b4",
        "optimize.meta.json": "f5c3866680822012f9a21fb3b8b4f42759071441293f48b332bebbff28bda854",
    },
    "optimize --preset table2_de": {
        "stdout": "52ab944b0ac61e5014b5f36f66e06f34d986eabaf653fd45c56f75bf5f8e92c5",
        "optimize_report.json": "486e605706b92fbd35534335dffc7d93d728c6f454bb4224e68c3d4e868e7615",
        "optimize_trace.csv": "cafde632b15a15595c9f61923c094b562a79ec4e56e7b78405fa091a604d14b9",
        "optimize.meta.json": "3f4f2806fe90eb94ba017825fe6b342c0c227761ff9be8f8783418c87c17fe8a",
    },
    "tc --preset table2_de": {
        "stdout": "8222f546c2dbd48cd8355169440cb3cc3d71b6fb754df15956b95c8d8f33bba2",
        "tc.json": "f39eb68c7f4568b3945d6afe71f2a9f819ac0cf4821027fd19344a7814c6ac90",
        "tc.meta.json": "61c7c019364fae561e77060c8427b3f1031e056bbaeb2d5ec8c13d83676a3b66",
    },
}


def test_one_point_outputs_are_pinned(tmp_path, capsys):
    for i, (command, digests) in enumerate(ONE_POINT_DIGESTS.items()):
        out = tmp_path / str(i)
        run_cli(*command.split(), "--out", str(out))
        outputs = {"stdout": capsys.readouterr().out.encode()}
        outputs.update((name, (out / name).read_bytes()) for name in digests
                       if name != "stdout")
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs.items()} == digests, command


# sha256 of the metadata sidecars of the sweep commands (their standard
# output names the output directory), recorded with the one-point sidecars
SWEEP_SIDECAR_DIGESTS = {
    "sweep --preset fig8": {
        "sweep.meta.json": "40dfdc3d9b0dad7f22378c55e2fd65d9ec58dd23c357951119207bbf4305f34e",
        "a1nd.csv.meta.json": "823a61aba718cfde8bdddc7cb748270580cf9174a8fc62663c305a785020242b",
        "nde.csv.meta.json": "99df169280fa54fea4433c5b7ff00a304fb70d3a96703673a0ca063c28a6b3fc",
    },
    "stability-map --preset fig8": {
        "stability-map.meta.json": "ea578df247395caa3134c9567af5e168dc7e91f4bf58e3b25ccca8b7c05c7209",
        "a1nd.csv.meta.json": "0878015ce66ec0e72f917c66589d9e829af999028bd0d4f00002e4670b801358",
        "nde.csv.meta.json": "e23e483f6d387063ebca83635490686424fbdccbabdff13a99ff85ebc21c3862",
    },
}


def test_sweep_sidecars_are_pinned(tmp_path):
    for i, (command, digests) in enumerate(SWEEP_SIDECAR_DIGESTS.items()):
        out = tmp_path / str(i)
        assert run_cli(*command.split(), "--out", str(out)) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests, command


class TestReproduceSweepsDigests:
    @pytest.fixture
    def reproduce(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_sweeps.py"
        spec = importlib.util.spec_from_file_location("reproduce_sweeps", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def run(*argv):
            monkeypatch.setattr(sys, "argv", ["reproduce_sweeps.py", *argv])
            return script.main()

        return run

    def test_digest_then_compare(self, reproduce, tmp_path, capsys):
        manifest = tmp_path / "serial.json"
        assert reproduce("--out", str(tmp_path / "serial"), "--only", "fig8",
                         "--digest", str(manifest)) == 0
        digests = json.loads(manifest.read_text())
        assert sorted(digests) == ["fig8/a1nd.csv", "fig8/a1nd.csv.meta.json",
                                   "fig8/nde.csv", "fig8/nde.csv.meta.json"]
        assert reproduce("--out", str(tmp_path / "again"), "--only", "fig8",
                         "--workers", "2", "--compare", str(manifest)) == 0
        assert "4 files identical" in capsys.readouterr().out

        digests["fig8/nde.csv"] = "0" * 64
        del digests["fig8/a1nd.csv.meta.json"]
        digests["fig8/extra.csv"] = "0" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(digests))
        assert reproduce("--out", str(tmp_path / "again"), "--only", "fig8",
                         "--compare", str(tampered)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "new      fig8/a1nd.csv.meta.json",
            "missing  fig8/extra.csv",
            "differs  fig8/nde.csv",
        ]

    def test_compare_reads_only_the_presets_run(self, reproduce, tmp_path, capsys):
        manifest = Path(__file__).resolve().parents[1] / "scripts" / "fig_digests.json"
        assert reproduce("--out", str(tmp_path), "--only", "fig8",
                         "--compare", str(manifest)) == 0
        assert "4 files identical" in capsys.readouterr().out

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_in_the_way_is_one_config_error_line(self, reproduce, tmp_path, capsys,
                                                      under):
        out, reason = out_in_the_way(tmp_path, under)
        assert reproduce("--out", str(out), "--only", "fig8", "fig9") == 1
        assert tuple(capsys.readouterr()) == ("", f"config error: --out {out}: {reason}\n")

    @pytest.mark.parametrize("content, reason", [
        (None, os.strerror(errno.ENOENT)),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[]", "not a JSON object"),
    ], ids=["missing", "not-json", "not-an-object"])
    def test_bad_manifest_is_one_config_error_line(self, reproduce, tmp_path, capsys,
                                                   content, reason):
        manifest = tmp_path / "manifest.json"
        if content is not None:
            manifest.write_text(content)
        assert reproduce("--out", str(tmp_path / "out"), "--only", "fig8",
                         "--compare", str(manifest)) == 1
        assert tuple(capsys.readouterr()) == (
            "", f"config error: --compare {manifest}: {reason}\n")
        assert not (tmp_path / "out").exists()


def test_operating_points_config_error_is_one_line():
    # every preset's configuration is built before the table header, so a
    # bad seed prints nothing on stdout and runs no maximize
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(root / "scripts" / "operating_points.py"),
                           "--seed", "-1"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "config error: [optimize]: seed must be >= 0, got -1\n")
