import math

import pytest

from cavmag.config import (
    ConfigError,
    apply_set,
    build_coupling,
    build_grid_specs,
    build_system,
    build_tc,
    load_layers,
)
from cavmag.model import TWO_PI


def test_default_layer_matches_dataclass_defaults():
    cfg = load_layers()
    p = build_system(cfg)
    assert p.omega_d == pytest.approx(TWO_PI * 1e7)
    assert p.J == pytest.approx(0.8 * p.omega_d)
    assert p.delta_n_tilde_override == pytest.approx(0.9 * p.omega_d)
    assert p.T == 0.010


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
    cfg = load_layers(preset="table2_de")
    assert build_tc(cfg)[1:] == (0.5, 1e-3)
    cfg["tc"][key] = value
    message = {"tol_K": "'tol_K' in \\[tc\\] must be a positive finite",
               "T_max_K": "'T_max_K' in \\[tc\\] must be finite and above"}[key]
    with pytest.raises(ConfigError, match=message):
        build_tc(cfg)
