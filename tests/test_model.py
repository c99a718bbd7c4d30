import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmag import config
from cavmag.model import (
    _FREQ_PAIRS,
    TWO_PI,
    CouplingDerivation,
    ParameterError,
    SystemParams,
    collective_coupling,
    rabi_from_field,
    rabi_from_power,
    thermal_occupation,
    updated_in_omega_d_units,
    validate_regime,
)
from cavmag.dynamics import steady_state
from cavmag.sweep import _point_values, grid_points

# frozen golden values, evaluated directly from the defining formulas
Z_10GHZ_10MK = 1.4359925012e-21
Z_10MHZ_10MK = 20.340618352
RABI_10MW = 1.3771362727e14  # sqrt(2 * 10 mW * 2pi MHz / (hbar * 2pi * 10 GHz))
RABI_FIELD_DEFAULT = 9.6851049186e14  # default CouplingDerivation, B0 = 53 uT
G_COLLECTIVE_DEFAULT = 3.8124518238e7  # nu=3.6e-27, V=3e-6 m^3, N=1e7, 2pi*10 GHz


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        for omega in (TWO_PI * 1e3, TWO_PI * 1e7, TWO_PI * 1e10):
            assert thermal_occupation(omega, 0.0) == 0.0

    def test_golden_values(self):
        assert thermal_occupation(TWO_PI * 10e9, 0.010) == pytest.approx(
            Z_10GHZ_10MK, rel=1e-9)
        assert thermal_occupation(TWO_PI * 10e6, 0.010) == pytest.approx(
            Z_10MHZ_10MK, rel=1e-9)

    def test_huge_exponent_underflows_to_zero(self):
        assert thermal_occupation(TWO_PI * 10e9, 1e-6) == 0.0

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 0.01)
        with pytest.raises(ParameterError):
            thermal_occupation(-1.0, 0.01)

    def test_rejects_negative_and_nan_temperature(self):
        with pytest.raises(ParameterError, match="T must be non-negative, got -1e-300"):
            thermal_occupation(TWO_PI * 1e7, -1e-300)
        with pytest.raises(ParameterError, match="T must be non-negative, got nan"):
            thermal_occupation(TWO_PI * 1e7, math.nan)

    # domain kept where the smaller occupation is still representable,
    # so strict inequalities survive floating-point underflow
    @given(st.floats(min_value=1e3, max_value=1e10),
           st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_temperature(self, omega, T, factor):
        assert thermal_occupation(omega, factor * T) > thermal_occupation(omega, T)

    @given(st.floats(min_value=1e3, max_value=1e10),
           st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_frequency(self, omega, T, factor):
        assert thermal_occupation(factor * omega, T) < thermal_occupation(omega, T)


class TestDriveConverters:
    def test_power_square_root_scaling(self):
        base = rabi_from_power(0.01, TWO_PI * 1e6, TWO_PI * 10e9)
        assert rabi_from_power(0.04, TWO_PI * 1e6, TWO_PI * 10e9) == pytest.approx(
            2.0 * base, rel=1e-12)

    def test_zero_power_means_no_drive(self):
        assert rabi_from_power(0.0, TWO_PI * 1e6, TWO_PI * 10e9) == 0.0

    def test_power_golden(self):
        assert rabi_from_power(0.010, TWO_PI * 1e6, TWO_PI * 10e9) == pytest.approx(
            RABI_10MW, rel=1e-9)

    def test_power_rejections(self):
        with pytest.raises(ParameterError):
            rabi_from_power(-1e-3, TWO_PI * 1e6, TWO_PI * 10e9)
        with pytest.raises(ParameterError):
            rabi_from_power(1e-3, 0.0, TWO_PI * 10e9)
        with pytest.raises(ParameterError):
            rabi_from_power(1e-3, TWO_PI * 1e6, -1.0)

    def test_field_zero_amplitude(self):
        cd = CouplingDerivation(B0=0.0)
        assert rabi_from_field(cd) == 0.0

    def test_field_sqrt_spin_number_scaling(self):
        cd = CouplingDerivation()
        quadrupled = CouplingDerivation(V_sphere=4.0 * cd.V_sphere)
        assert rabi_from_field(quadrupled) == pytest.approx(
            2.0 * rabi_from_field(cd), rel=1e-12)

    def test_field_golden(self):
        assert rabi_from_field(CouplingDerivation()) == pytest.approx(
            RABI_FIELD_DEFAULT, rel=1e-9)

    def test_field_rejections(self):
        with pytest.raises(ParameterError):
            CouplingDerivation(rho_spin=-1.0)
        with pytest.raises(ParameterError):
            CouplingDerivation(V_sphere=0.0)

    def test_collective_linear_in_sqrt_atom_number(self):
        cd = CouplingDerivation()
        quadrupled = CouplingDerivation(N_atoms=4.0 * cd.N_atoms)
        w1 = TWO_PI * 10e9
        assert collective_coupling(quadrupled, w1) == pytest.approx(
            2.0 * collective_coupling(cd, w1), rel=1e-12)

    def test_collective_zero_dipole(self):
        assert collective_coupling(CouplingDerivation(nu=0.0), TWO_PI * 10e9) == 0.0

    def test_collective_golden(self):
        assert collective_coupling(CouplingDerivation(), TWO_PI * 10e9) == pytest.approx(
            G_COLLECTIVE_DEFAULT, rel=1e-9)


class TestSystemParams:
    def test_defaults_resolve(self):
        p = SystemParams()
        assert p.omega_c1 == pytest.approx(p.omega_l + p.delta_1)
        assert p.omega_e == pytest.approx(p.omega_l + p.delta_e)

    def test_frequency_detuning_consistency_enforced(self):
        with pytest.raises(ParameterError):
            SystemParams(delta_1=TWO_PI * 1e7, omega_c1=TWO_PI * 10e9)

    def test_consistent_pair_accepted(self):
        p = SystemParams(delta_1=TWO_PI * 1e7,
                         omega_c1=TWO_PI * 10e9 + TWO_PI * 1e7)
        assert p.delta_1 == TWO_PI * 1e7

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            SystemParams(kappa_a=-1.0)

    @pytest.mark.parametrize("name", ["kappa_a", "kappa_n", "gamma_e", "gamma_d", "T"])
    def test_nan_rate_or_temperature_rejected(self, name):
        # NaN used to pass the `< 0` test and only failed later, at the
        # drift or diffusion matrix; negative values keep their message
        with pytest.raises(ParameterError) as nan:
            SystemParams(**{name: math.nan})
        with pytest.raises(ParameterError) as negative:
            SystemParams(**{name: -1e-300})
        assert str(nan.value) == str(negative.value) == f"{name} must be non-negative"
        for value in (0.0, 1e-300, 1e300):
            assert getattr(SystemParams(**{name: value}), name) == value

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_by_name(self, name, bad):
        with pytest.raises(ParameterError) as exc:
            SystemParams(**{name: bad})
        # the rates and T keep the message that a negative value gets
        if name in ("kappa_a", "kappa_n", "gamma_e", "gamma_d", "T") and not bad > 0:
            assert str(exc.value) == f"{name} must be non-negative"
        elif name == "omega_d" and not bad > 0:
            assert str(exc.value) == "omega_d must be positive"
        else:
            assert str(exc.value) == f"{name} must be finite, got {bad!r}"

    def test_derived_carrier_must_be_finite(self):
        with pytest.raises(ParameterError, match="omega_c1 must be finite, got inf"):
            SystemParams(omega_l=1.7e308, delta_1=1.7e308)

    def test_infinite_temperature_has_no_occupation(self):
        with pytest.raises(ParameterError, match="T must be finite, got inf"):
            SystemParams().updated(T=math.inf)
        with pytest.raises(ParameterError, match="diverges"):
            thermal_occupation(TWO_PI * 1e7, math.inf)

    def test_detuning_required(self):
        with pytest.raises(ParameterError):
            SystemParams(delta_1=None)

    def test_magnon_detuning_or_override_required(self):
        with pytest.raises(ParameterError):
            SystemParams(delta_n=None, delta_n_tilde_override=None)

    def test_updated_redrives_derived_fields(self):
        p = SystemParams()
        q = p.updated(delta_1=-p.omega_d)
        assert q.delta_1 == -p.omega_d
        assert q.omega_c1 == pytest.approx(q.omega_l - p.omega_d)

    def test_updated_drive_frequency_keeps_detunings(self):
        p = SystemParams()
        q = p.updated(omega_l=TWO_PI * 12e9)
        assert q.delta_1 == p.delta_1
        assert q.omega_c1 == pytest.approx(TWO_PI * 12e9 + p.delta_1)

    def test_occupations_match_formula(self):
        p = SystemParams()
        assert thermal_occupation(p.omega_d, p.T) == pytest.approx(Z_10MHZ_10MK, rel=1e-6)
        assert thermal_occupation(p.omega_c1, p.T) == pytest.approx(Z_10GHZ_10MK, rel=1e-3)


def replace_reference(p: SystemParams, **changes) -> SystemParams:
    """``SystemParams.updated`` as it was before its copy stopped going
    through ``dataclasses.replace``."""
    for freq_name, det_name in _FREQ_PAIRS:
        if det_name in changes and freq_name not in changes:
            changes[freq_name] = None
        elif freq_name in changes and det_name not in changes:
            changes[det_name] = None
        elif "omega_l" in changes and freq_name not in changes:
            changes[freq_name] = None
    if "delta_n_tilde_override" in changes and "omega_n" not in changes:
        if p.delta_n is None and "delta_n" not in changes:
            changes["omega_n"] = None
    return dataclasses.replace(p, **changes)


def sampled_grid_changes(step: int = 61):
    """(base, omega_d-unit values) at every ``step``-th point of every
    bundled figure grid and of the benchmark's stability map."""
    layers = [config.load_layers(preset=name) for name in config.available_presets()
              if name.startswith("fig")]
    layers.append(config.load_layers(config_path=Path(__file__).resolve().parents[1]
                                     / "perfbench" / "scmap.ini"))
    for cfg in layers:
        for _, spec in config.build_grid_specs(cfg, config.build_system(cfg)):
            for pt in grid_points(spec)[::step]:
                yield spec.base, _point_values(spec, pt)


class TestUpdatedMatchesDataclassesReplace:
    def test_sampled_grid_points(self):
        checked = 0
        for base, values in sampled_grid_changes():
            changes = {("delta_n_tilde_override" if k == "delta_n_tilde" else k):
                       (v if k == "T" else v * base.omega_d) for k, v in values.items()}
            try:
                want = replace_reference(base, **changes)
            except ParameterError as exc:
                with pytest.raises(ParameterError) as got:
                    base.updated(**changes)
                assert str(got.value) == str(exc)
                continue
            got = base.updated(**changes)
            assert got == want
            assert repr(got.as_dict()) == repr(want.as_dict())
            checked += 1
        assert checked > 2500

    def test_negative_temperature_same_error(self):
        p = SystemParams()
        with pytest.raises(ParameterError) as want:
            replace_reference(p, T=-0.01)
        with pytest.raises(ParameterError) as got:
            p.updated(T=-0.01)
        assert str(got.value) == str(want.value) == "T must be non-negative"

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="delta_q"):
            SystemParams().updated(delta_q=1.0)


class TestOmegaDUnits:
    def test_optimizer_names(self):
        base = SystemParams()
        wd = base.omega_d
        p = updated_in_omega_d_units(base, {"delta_1": 0.76, "delta_2": -0.52,
                                            "delta_n_tilde": 0.77,
                                            "delta_e": -0.63, "J": 0.35})
        assert p.delta_1 == 0.76 * wd and p.delta_2 == -0.52 * wd
        assert p.delta_e == -0.63 * wd and p.J == 0.35 * wd
        assert p.delta_n_tilde_override == 0.77 * wd
        assert p.omega_c1 == p.omega_l + p.delta_1  # carrier re-derived

    def test_config_override_names(self):
        base = SystemParams()
        wd = base.omega_d
        p = updated_in_omega_d_units(base, {"kappa_a": 0.2, "G_ae": 0.5,
                                            "T": 0.05})
        assert p.kappa_a == 0.2 * wd and p.G_ae == 0.5 * wd
        assert p.T == 0.05  # kelvin, not scaled

    def test_bad_value_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="kappa_a"):
            updated_in_omega_d_units(SystemParams(), {"kappa_a": -0.1})


class TestValidateRegime:
    def test_reference_point_is_clean(self):
        p = SystemParams()
        warnings = validate_regime(p, steady_state(p), CouplingDerivation())
        assert warnings == []

    def test_low_quality_factor_warns(self):
        p = SystemParams(gamma_d=SystemParams().omega_d)
        warnings = validate_regime(p, steady_state(p))
        assert any("mechanical-q" in w for w in warnings)

    def test_undriven_system_warns_small_amplitude(self):
        p = SystemParams(Omega_l=0.0, Omega_n=0.0)
        warnings = validate_regime(p, steady_state(p))
        assert any("small-amplitude" in w for w in warnings)

    def test_overdriven_ensemble_chain_warns(self):
        p = SystemParams(Omega_n=1e15)
        warnings = validate_regime(p, steady_state(p), CouplingDerivation())
        assert any("atom-cavity-coupling" in w for w in warnings)

    def test_slow_carrier_triggers_rwa_warning(self):
        p = SystemParams(omega_l=TWO_PI * 2e8, delta_n=0.9 * SystemParams().omega_d,
                         delta_n_tilde_override=None)
        warnings = validate_regime(p, steady_state(p))
        assert any(w.startswith("rwa") for w in warnings)


class TestScalingProperties:
    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_rabi_power_homogeneity(self, scale):
        base = rabi_from_power(2e-3, TWO_PI * 1e6, TWO_PI * 10e9)
        scaled = rabi_from_power(scale * 2e-3, TWO_PI * 1e6, TWO_PI * 10e9)
        assert scaled == pytest.approx(math.sqrt(scale) * base, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_rabi_field_linear_in_amplitude(self, scale):
        cd = CouplingDerivation()
        scaled = CouplingDerivation(B0=scale * cd.B0)
        assert rabi_from_field(scaled) == pytest.approx(
            scale * rabi_from_field(cd), rel=1e-12)
