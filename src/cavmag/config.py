"""Configuration files: key/value sections with explicit unit suffixes.

``*_hz2pi`` keys are ordinary frequencies (omega / 2pi) in Hz and are
converted to angular rad/s internally; ``*_K`` kelvin, ``*_W`` watt, ``*_T``
tesla, ``*_m3`` cubic metre.  Resolution order is: built-in defaults, then
the named preset, then the user file, then ``--set`` overrides, left to
right.  Sweep/optimize boxes and ``--set`` rate values are in omega_d units.
"""
from __future__ import annotations

import configparser
import math
from importlib import resources
from pathlib import Path

from .model import (TWO_PI, CouplingDerivation, ParameterError, SystemParams,
                    updated_in_omega_d_units)
from .optimize import OPT_PARAMS, T_FLOOR, OptimizeSpec
from .sweep import Axis, GridSpec

DEFAULT_PRESET = "default"


class ConfigError(ValueError):
    pass


# [system]: logical parameter -> file key carrying the unit suffix
_SYSTEM_KEYS = {
    "omega_d": "omega_d_hz2pi",
    "omega_l": "omega_l_hz2pi",
    "omega_c1": "omega_c1_hz2pi",
    "omega_c2": "omega_c2_hz2pi",
    "omega_e": "omega_e_hz2pi",
    "omega_n": "omega_n_hz2pi",
    "delta_1": "delta_1_hz2pi",
    "delta_2": "delta_2_hz2pi",
    "delta_e": "delta_e_hz2pi",
    "delta_n": "delta_n_hz2pi",
    "delta_n_tilde_override": "delta_n_tilde_hz2pi",
    "kappa_a": "kappa_a_hz2pi",
    "kappa_n": "kappa_n_hz2pi",
    "gamma_e": "gamma_e_hz2pi",
    "gamma_d": "gamma_d_hz2pi",
    "g_na": "g_na_hz2pi",
    "g_nd": "g_nd_hz2pi",
    "G_nd": "G_nd_hz2pi",
    "G_ae": "G_ae_hz2pi",
    "J": "J_hz2pi",
    "Omega_l": "Omega_l_hz2pi",
    "Omega_n": "Omega_n_hz2pi",
    "T": "T_K",
}
_SYSTEM_BY_FILE_KEY = {v: k for k, v in _SYSTEM_KEYS.items()}

_COUPLING_KEYS = {
    "nu": "nu_Cm",
    "V_cav": "V_cav_m3",
    "N_atoms": "N_atoms",
    "Gamma_gyro": "Gamma_gyro_hz2pi_per_T",
    "rho_spin": "rho_spin_perm3",
    "V_sphere": "V_sphere_m3",
    "B0": "B0_T",
    "P_drive": "P_drive_W",
    "spin_number": "spin_number",
}
_COUPLING_BY_FILE_KEY = {v: k for k, v in _COUPLING_KEYS.items()}
_ANGULAR = {k for k in set(_SYSTEM_BY_FILE_KEY) if k.endswith("_hz2pi")}
_ANGULAR.add("Gamma_gyro_hz2pi_per_T")

# parameters settable in omega_d units via --set or sweep set_* keys
RATE_SHORTHAND = (
    "delta_1", "delta_2", "delta_e", "delta_n", "delta_n_tilde", "J",
    "kappa_a", "kappa_n", "gamma_e", "gamma_d",
    "g_na", "g_nd", "G_nd", "G_ae", "Omega_l", "Omega_n",
)


def presets_dir():
    return resources.files("cavmag") / "presets"


def available_presets() -> list[str]:
    return sorted(p.name[:-4] for p in presets_dir().iterdir()
                  if p.name.endswith(".ini"))


def _read_ini(text: str, origin: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (Omega_l vs omega_l)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def load_layers(preset: str | None = None,
                config_path: str | Path | None = None) -> dict[str, dict[str, str]]:
    """Merge default preset, optional named preset and optional user file."""
    merged: dict[str, dict[str, str]] = {}

    def merge(layer):
        for sec, items in layer.items():
            merged.setdefault(sec, {}).update(items)

    merge(_read_ini((presets_dir() / f"{DEFAULT_PRESET}.ini").read_text(),
                    "default preset"))
    if preset is not None and preset != DEFAULT_PRESET:
        path = presets_dir() / f"{preset}.ini"
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {available_presets()}"
            ) from None
        merge(_read_ini(text, f"preset {preset}"))
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        merge(_read_ini(path.read_text(), str(path)))
    return merged


def apply_set(cfg: dict[str, dict[str, str]], assignment: str) -> None:
    """Apply one ``--set name=value`` override onto the merged config.

    Bare rate names are omega_d units (converted in hz2pi space), ``T`` is
    kelvin; ``section.key`` sets a raw file key verbatim.
    """
    if "=" not in assignment:
        raise ConfigError(f"--set expects name=value, got {assignment!r}")
    name, _, value = assignment.partition("=")
    name, value = name.strip(), value.strip()
    if "." in name:
        section, _, key = name.partition(".")
        cfg.setdefault(section, {})[key] = value
        return
    if name == "T":
        cfg.setdefault("system", {})["T_K"] = value
        return
    if name not in RATE_SHORTHAND:
        raise ConfigError(
            f"--set key {name!r} is not a known shorthand; use one of "
            f"{RATE_SHORTHAND + ('T',)} or a section.key form"
        )
    file_key = _SYSTEM_KEYS["delta_n_tilde_override" if name == "delta_n_tilde"
                            else name]
    if value.lower() == "none":
        cfg.setdefault("system", {})[file_key] = "none"
        return
    omega_d_hz2pi = _float(cfg.get("system", {}).get("omega_d_hz2pi"),
                           "system", "omega_d_hz2pi")
    cfg.setdefault("system", {})[file_key] = repr(
        _float(value, "--set", name) * omega_d_hz2pi
    )


def _float(raw: str | None, section: str, key: str) -> float:
    if raw is None:
        raise ConfigError(f"missing required key {key!r} in [{section}]")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"key {key!r} in [{section}]: cannot parse {raw!r} as a number"
        ) from None


def build_system(cfg) -> SystemParams:
    section = cfg.get("system", {})
    kwargs = {}
    for file_key, raw in section.items():
        if file_key not in _SYSTEM_BY_FILE_KEY:
            raise ConfigError(
                f"unrecognized key {file_key!r} in [system]; every key needs "
                "a unit suffix (e.g. kappa_a_hz2pi, T_K)"
            )
        logical = _SYSTEM_BY_FILE_KEY[file_key]
        if raw.strip().lower() == "none":
            kwargs[logical] = None
            continue
        value = _float(raw, "system", file_key)
        kwargs[logical] = value * TWO_PI if file_key in _ANGULAR else value
    try:
        return SystemParams(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[system]: {exc}") from exc


def build_coupling(cfg) -> CouplingDerivation | None:
    section = cfg.get("coupling")
    if not section:
        return None
    kwargs = {}
    for file_key, raw in section.items():
        if file_key == "sphere_diameter_m":
            if "V_sphere_m3" in section:
                raise ConfigError(
                    "[coupling] gives both sphere_diameter_m and V_sphere_m3; "
                    "use one"
                )
            d = _float(raw, "coupling", file_key)
            kwargs["V_sphere"] = math.pi / 6.0 * d**3
            continue
        if file_key not in _COUPLING_BY_FILE_KEY:
            raise ConfigError(f"unrecognized key {file_key!r} in [coupling]")
        value = _float(raw, "coupling", file_key)
        if file_key in _ANGULAR:
            value *= TWO_PI
        kwargs[_COUPLING_BY_FILE_KEY[file_key]] = value
    try:
        return CouplingDerivation(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[coupling]: {exc}") from exc


def _axis(section_name: str, items: dict[str, str], k: int) -> Axis | None:
    param = items.get(f"axis{k}")
    if param is None:
        return None
    unit = "K" if param == "T" else "wd"
    lo = _float(items.get(f"axis{k}_min_{unit}"), section_name, f"axis{k}_min_{unit}")
    hi = _float(items.get(f"axis{k}_max_{unit}"), section_name, f"axis{k}_max_{unit}")
    raw_pts = items.get(f"axis{k}_points")
    if raw_pts is None:
        raise ConfigError(f"missing key 'axis{k}_points' in [{section_name}]")
    try:
        points = int(raw_pts)
    except ValueError:
        raise ConfigError(
            f"key 'axis{k}_points' in [{section_name}]: not an integer"
        ) from None
    try:
        return Axis(param=param, lo=lo, hi=hi, points=points)
    except ValueError as exc:
        raise ConfigError(f"[{section_name}]: {exc}") from exc


def _apply_point_overrides(base: SystemParams, section_name: str,
                           items: dict[str, str]) -> SystemParams:
    changes = {}
    for key, raw in items.items():
        if not key.startswith("set_"):
            continue
        if key == "set_T_K":
            changes["T"] = _float(raw, section_name, key)
            continue
        if not key.endswith("_wd"):
            raise ConfigError(
                f"override key {key!r} in [{section_name}] must end in "
                "'_wd' (omega_d units) or be 'set_T_K'"
            )
        name = key[len("set_"):-len("_wd")]
        if name not in RATE_SHORTHAND:
            raise ConfigError(
                f"override key {key!r} in [{section_name}] names an unknown "
                f"parameter {name!r}"
            )
        changes[name] = _float(raw, section_name, key)
    return updated_in_omega_d_units(base, changes) if changes else base


_SWEEP_KEY_OK = ("axis1", "axis2", "linkage", "measures")


def build_grid_specs(cfg, base: SystemParams) -> list[tuple[str, GridSpec]]:
    """GridSpecs for every [sweep] / [sweep:name] section, in file order."""
    specs = []
    for section_name, items in cfg.items():
        if section_name != "sweep" and not section_name.startswith("sweep:"):
            continue
        name = section_name.partition(":")[2] or "sweep"
        for key in items:
            known = (key in _SWEEP_KEY_OK or key.startswith("set_")
                     or any(key.startswith(f"axis{k}_") for k in (1, 2)))
            if not known:
                raise ConfigError(f"unrecognized key {key!r} in [{section_name}]")
        axes = [a for a in (_axis(section_name, items, 1),
                            _axis(section_name, items, 2)) if a is not None]
        if not axes:
            raise ConfigError(f"[{section_name}] defines no axes")
        measures_raw = items.get("measures", "")
        measures = tuple(m.strip() for m in measures_raw.split(",") if m.strip())
        try:
            point_base = _apply_point_overrides(base, section_name, items)
        except ParameterError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
        try:
            spec = GridSpec(
                axes=tuple(axes),
                base=point_base,
                linkage=items.get("linkage", "independent"),
                measures=measures,
            )
        except ValueError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
        specs.append((name, spec))
    return specs


def build_optimize_spec(cfg, seed_override: int | None = None) -> OptimizeSpec:
    items = cfg.get("optimize")
    if not items:
        raise ConfigError("no [optimize] section in the configuration")
    box: dict[str, tuple[float, float]] = {}
    for param in OPT_PARAMS:
        lo_key, hi_key = f"box_{param}_min_wd", f"box_{param}_max_wd"
        if lo_key in items or hi_key in items:
            box[param] = (_float(items.get(lo_key), "optimize", lo_key),
                          _float(items.get(hi_key), "optimize", hi_key))
    known = {"measure", "restarts", "max_evaluations", "seed"}
    known |= {f"box_{p}_{side}_wd" for p in OPT_PARAMS for side in ("min", "max")}
    for key in items:
        if key not in known:
            raise ConfigError(f"unrecognized key {key!r} in [optimize]")
    try:
        return OptimizeSpec(
            measure=items.get("measure", ""),
            box=box,
            restarts=int(items.get("restarts", 6)),
            max_evaluations=int(items.get("max_evaluations", 2000)),
            seed=seed_override if seed_override is not None
            else int(items.get("seed", 0)),
        )
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"[optimize]: {exc}") from exc


def build_tc(cfg) -> tuple[str, float, float]:
    items = cfg.get("tc")
    if not items:
        raise ConfigError("no [tc] section in the configuration")
    for key in items:
        if key not in ("measure", "T_max_K", "tol_K"):
            raise ConfigError(f"unrecognized key {key!r} in [tc]")
    measure = items.get("measure", "")
    t_max = _float(items.get("T_max_K"), "tc", "T_max_K")
    if not T_FLOOR < t_max < math.inf:
        raise ConfigError(
            f"key 'T_max_K' in [tc] must be finite and above {T_FLOOR} K, got {t_max!r}")
    tol = _float(items.get("tol_K", "1e-3"), "tc", "tol_K")
    if not 0.0 < tol < math.inf:
        raise ConfigError(
            f"key 'tol_K' in [tc] must be a positive finite temperature, got {tol!r}")
    return measure, t_max, tol
