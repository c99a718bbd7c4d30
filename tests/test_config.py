import dataclasses
import inspect
import math

import pytest

from cavmag.config import (
    ConfigError,
    apply_set,
    build_coupling,
    build_grid_specs,
    build_optimize_spec,
    build_system,
    build_tc,
    load_layers,
)
from cavmag.model import TWO_PI, SystemParams
from cavmag.optimize import OptimizeSpec, critical_temperature


def test_default_layer_matches_dataclass_defaults():
    # the preset is read in hz2pi units, so J and the pinned detuning, each a
    # multiple of omega_d, round differently in their last bit
    p, ref = build_system(load_layers()), SystemParams()
    for field in dataclasses.fields(SystemParams):
        value, expected = getattr(p, field.name), getattr(ref, field.name)
        if field.name in ("J", "delta_n_tilde_override"):
            assert value == pytest.approx(expected, rel=1e-15, abs=0.0), field.name
        else:
            assert value == expected, field.name


def test_hz2pi_conversion():
    cfg = load_layers()
    cfg["system"]["kappa_a_hz2pi"] = "2.5e6"
    assert build_system(cfg).kappa_a == pytest.approx(TWO_PI * 2.5e6)


def test_none_unsets_an_optional_key():
    cfg = load_layers()
    cfg["system"]["delta_n_tilde_hz2pi"] = "none"
    cfg["system"]["delta_n_hz2pi"] = "9.0e6"
    p = build_system(cfg)
    assert p.delta_n_tilde_override is None
    assert p.delta_n == pytest.approx(TWO_PI * 9e6)


def test_none_unsets_a_carrier_but_no_required_key():
    cfg = load_layers()
    cfg["system"]["omega_c1_hz2pi"] = "none"
    assert build_system(cfg).omega_c1 == pytest.approx(TWO_PI * (1e10 + 1e7))
    cfg["system"]["gamma_d_hz2pi"] = "None"
    with pytest.raises(ConfigError, match="key 'gamma_d_hz2pi' in \\[system\\] cannot be none"):
        build_system(cfg)


def test_shorthand_set_uses_omega_d_units():
    cfg = load_layers()
    apply_set(cfg, "delta_1=-1.25")
    p = build_system(cfg)
    assert p.delta_1 == pytest.approx(-1.25 * p.omega_d)


def test_shorthand_set_temperature_kelvin():
    cfg = load_layers()
    apply_set(cfg, "T=0.123")
    assert build_system(cfg).T == 0.123


def test_raw_section_key_set():
    cfg = load_layers()
    apply_set(cfg, "system.kappa_a_hz2pi=3e6")
    assert build_system(cfg).kappa_a == pytest.approx(TWO_PI * 3e6)


def test_unknown_shorthand_rejected():
    cfg = load_layers()
    with pytest.raises(ConfigError, match="shorthand"):
        apply_set(cfg, "omega_d=2")


def test_sets_compose_left_to_right():
    cfg = load_layers()
    apply_set(cfg, "J=0.4")
    apply_set(cfg, "J=1.2")
    assert build_system(cfg).J == pytest.approx(1.2 * build_system(cfg).omega_d)


def _sweep_with(**overrides):
    cfg = load_layers()
    cfg["sweep"] = {"axis1": "J", "axis1_min_wd": "0.2", "axis1_max_wd": "1.0",
                    "axis1_points": "3", **overrides}
    return build_grid_specs(cfg, build_system(cfg))


def test_sweep_point_overrides_use_omega_d_units():
    [(_, spec)] = _sweep_with(set_delta_n_tilde_wd="1.1", set_kappa_a_wd="0.2",
                              set_T_K="0.05")
    wd = spec.base.omega_d
    assert spec.base.delta_n_tilde_override == 1.1 * wd
    assert spec.base.kappa_a == 0.2 * wd
    assert spec.base.T == 0.05


def test_sweep_point_override_names_validated():
    with pytest.raises(ConfigError, match="unknown parameter 'omega_d'"):
        _sweep_with(set_omega_d_wd="2")
    with pytest.raises(ConfigError, match="must end in '_wd'"):
        _sweep_with(set_J="0.5")


def test_sweep_axis_keys_follow_the_axis_unit():
    # the axis's own keys are read before unknown keys are reported, so a
    # T axis given omega_d bounds names the kelvin key it lacks
    with pytest.raises(ConfigError, match="missing required key 'axis1_min_K' in \\[sweep\\]"):
        _sweep_with(axis1="T")


def test_missing_axis_points_names_the_key():
    cfg = load_layers()
    cfg["sweep"] = {"axis1": "J", "axis1_min_wd": "0.2", "axis1_max_wd": "1.0"}
    with pytest.raises(ConfigError,
                       match="^missing required key 'axis1_points' in \\[sweep\\]$"):
        build_grid_specs(cfg, build_system(cfg))


def test_sphere_diameter_alternative():
    cfg = load_layers()
    del cfg["coupling"]["V_sphere_m3"]
    cfg["coupling"]["sphere_diameter_m"] = "2.5e-4"
    cd = build_coupling(cfg)
    assert cd.V_sphere == pytest.approx(math.pi / 6.0 * (2.5e-4) ** 3, rel=1e-12)


def test_diameter_and_volume_conflict():
    cfg = load_layers()
    cfg["coupling"]["sphere_diameter_m"] = "2.5e-4"
    with pytest.raises(ConfigError, match="use one"):
        build_coupling(cfg)


def test_unrecognized_coupling_key_named():
    cfg = load_layers()
    cfg["coupling"]["radius_m"] = "1e-4"
    with pytest.raises(ConfigError, match="radius_m"):
        build_coupling(cfg)


@pytest.mark.parametrize("key, value", [
    *(("tol_K", v) for v in ["0", "-1e-3", "nan", "inf"]),
    *(("T_max_K", v) for v in ["nan", "inf", "-inf", "0", "-1", "1e-3"]),
])
def test_tc_tolerance_and_t_max_checked(key, value):
    cfg = load_layers(preset="table2_de")  # no tol_K: critical_temperature's default
    tol = inspect.signature(critical_temperature).parameters["tol"].default
    assert build_tc(cfg)[1:] == (0.5, tol)
    cfg["tc"][key] = value
    message = {"tol_K": "'tol_K' in \\[tc\\] must be a positive finite",
               "T_max_K": "'T_max_K' in \\[tc\\] must be finite and above"}[key]
    with pytest.raises(ConfigError, match=message):
        build_tc(cfg)


def test_optimize_counts_left_out_take_the_spec_defaults():
    cfg = load_layers(preset="table2_ne")
    given = build_optimize_spec(cfg)
    assert (given.restarts, given.max_evaluations, given.seed) == (10, 4000, 2030)
    for key in ("restarts", "max_evaluations", "seed"):
        del cfg["optimize"][key]
    spec = build_optimize_spec(cfg)
    defaults = {f.name: f.default for f in dataclasses.fields(OptimizeSpec)
                if f.name in ("restarts", "max_evaluations", "seed")}
    assert defaults == {"restarts": 6, "max_evaluations": 2000, "seed": 0}
    assert {key: getattr(spec, key) for key in defaults} == defaults
    assert (spec.measure, spec.box) == (given.measure, given.box)


@pytest.mark.parametrize("seed_override", [0, 7])
def test_seed_override_replaces_a_malformed_file_seed(seed_override):
    # the file's seed is not parsed when --seed replaces it
    cfg = load_layers(preset="table2_ne")
    cfg["optimize"]["seed"] = "1e3"
    assert build_optimize_spec(cfg, seed_override=seed_override).seed == seed_override
