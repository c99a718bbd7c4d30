import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cavmag import sweep
from cavmag.cli import main


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

    def test_unstable_point_exits_2(self, tmp_path):
        code = run_cli("point", "--preset", "table2_a1n", "--out", str(tmp_path))
        assert code == 2
        record = json.loads((tmp_path / "point.json").read_text())
        assert record["stable"] is False
        assert record["bipartite"]["EN_a1n"] is None

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
        # 441 points: three chunks, so the parallel run builds a pool of
        # three processes even on a machine with fewer CPUs
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
# measures, the verdict, the optimizer and the tc search in every bit
ONE_POINT_DIGESTS = {
    "point --preset default": {
        "stdout": "488cc5fa44667c6f3c330c6447f1d626086f75b33aa0e470efb7065ea69dc39f",
        "point.json": "144680d6a45d79c47b8203596bc57fa6a99c595be8fcc97879d7ae8a75923843",
    },
    "point --preset table2_a1n": {
        "stdout": "999ba36ba865a46ef09c005ce7b884dcee1f11bfd34d0bcf4f141ff90e1ae2a8",
        "point.json": "e2daf22da0f644ab712ced983dbd17ecdbe38e5f53b3f1406d8ae1ccf31cd9af",
    },
    "point --preset table2_a1d": {
        "stdout": "57ed1f028f00efd5ce42d41b6ee231add2007e0bfb7aae363fd07ba0e9a62fc5",
        "point.json": "f79cd848cffaa9fe59277aaa1d902872cae3703b6fb1bbfbde0be3e29e63dc17",
    },
    "point --preset table2_ne": {
        "stdout": "337a3d7905fa0abb1665c835a40a8abd23b7ef5148513f429bd590fb8efdc855",
        "point.json": "da794acdabb5a54e09c419cc094a45ff996f0e4dcbb1786862b82f1a776204ec",
    },
    "point --preset table2_de": {
        "stdout": "c7ead8eea9943cf6e50e507d6e1a1e13853e88ce32cdd1374e371d37cd0e4f4f",
        "point.json": "b96e04b2d7c3525af8ea6f05fba8c83bc0ba829db9b125b9459b71cc233818e4",
    },
    "optimize --preset table2_ne": {
        "stdout": "16318292a5e91466a4cc0d244d619a58280aa5bb8e006fc664cc15fd861e76dd",
        "optimize_report.json": "6de3077ce10c3c90b6f12a8d16533566488f56f85a1abf7a245aa4a5b3dbbae0",
        "optimize_trace.csv": "34a773bc569757389dd1b3aad685548b00ca6f716179c1193b8d8637407ed7b4",
    },
    "tc --preset table2_de": {
        "stdout": "8222f546c2dbd48cd8355169440cb3cc3d71b6fb754df15956b95c8d8f33bba2",
        "tc.json": "f39eb68c7f4568b3945d6afe71f2a9f819ac0cf4821027fd19344a7814c6ac90",
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
