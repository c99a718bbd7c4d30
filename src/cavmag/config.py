"""Configuration files: key/value sections with explicit unit suffixes.

``*_hz2pi`` keys are ordinary frequencies (omega / 2pi) in Hz and are
converted to angular rad/s internally; ``*_K`` kelvin, ``*_W`` watt, ``*_T``
tesla, ``*_m3`` cubic metre.  Resolution order is: built-in defaults, then
the named preset, then the user file, then ``--set`` overrides, left to
right.  Sweep/optimize boxes and ``--set`` rate values are in omega_d units.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from importlib import resources
from pathlib import Path

from .gaussian import MEASURE_IDS
from .model import (FIELDS, TWO_PI, CouplingDerivation, ParameterError, SystemParams,
                    updated_in_omega_d_units)
from .optimize import OPT_PARAMS, T_FLOOR, TC_TOL, OptimizeSpec
from .sweep import Axis, GridSpec

DEFAULT_PRESET = "default"


class ConfigError(ValueError):
    pass


# [system]: file key carrying the unit suffix -> SystemParams field
_SYSTEM_FIELDS = {{"delta_n_tilde_override": "delta_n_tilde_hz2pi",
                   "T": "T_K"}.get(name, f"{name}_hz2pi"): name for name in FIELDS}
# the fields that `none` may leave unset: the carriers and detunings (each
# derived from the other) and the pinned effective magnon detuning
_OPTIONAL = {f.name for f in dataclasses.fields(SystemParams) if "None" in str(f.type)}

# [coupling]: file key -> CouplingDerivation field
_COUPLING_FIELDS = {
    "nu_Cm": "nu",
    "V_cav_m3": "V_cav",
    "N_atoms": "N_atoms",
    "Gamma_gyro_hz2pi_per_T": "Gamma_gyro",
    "rho_spin_perm3": "rho_spin",
    "V_sphere_m3": "V_sphere",
    "B0_T": "B0",
    "P_drive_W": "P_drive",
    "spin_number": "spin_number",
}

# besides these, any number of [sweep:<name>] sections
_SECTIONS = ("system", "coupling", "sweep", "optimize", "tc")

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
    except configparser.Error as exc:  # its text may run over several lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"{origin}: {message}") from exc
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
        try:
            text = path.read_text(encoding="utf-8-sig")  # drops a byte-order mark
        except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
            raise ConfigError(
                f"config file {path}: {getattr(exc, 'strerror', None) or exc}") from None
        merge(_read_ini(text, str(path)))
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
    file_key = f"{name}_hz2pi"
    if value.lower() == "none":
        cfg.setdefault("system", {})[file_key] = "none"
        return
    omega_d_hz2pi = _number(cfg.get("system", {}).get("omega_d_hz2pi"),
                            "system", "omega_d_hz2pi")
    cfg.setdefault("system", {})[file_key] = repr(
        _number(value, "--set", name) * omega_d_hz2pi
    )


def _number(raw: str | None, section: str, key: str, kind: type = float):
    """``raw`` read as ``kind`` (float or int); a missing or bad value names its key."""
    if raw is None:
        raise ConfigError(f"missing required key {key!r} in [{section}]")
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"key {key!r} in [{section}]: cannot parse {raw!r} as {noun}"
        ) from None


def _items(cfg, section: str, known, hint: str = "") -> dict[str, str]:
    """The keys of ``[section]`` (none if it is absent), each one in ``known``."""
    items = cfg.get(section) or {}
    for key in items:
        if key not in known:
            raise ConfigError(f"unrecognized key {key!r} in [{section}]{hint}")
    return items


def build_system(cfg) -> SystemParams:
    # every command starts here, once the layers and --set overrides are merged
    for section in cfg:
        if section not in _SECTIONS and not section.startswith("sweep:"):
            raise ConfigError(
                f"unknown section [{section}]; use [system], [coupling], [sweep], "
                "[sweep:<name>], [optimize] or [tc]")
    kwargs = {}
    items = _items(cfg, "system", _SYSTEM_FIELDS,
                   "; every key needs a unit suffix (e.g. kappa_a_hz2pi, T_K)")
    for file_key, raw in items.items():
        name = _SYSTEM_FIELDS[file_key]
        if raw.strip().lower() == "none":
            if name not in _OPTIONAL:
                raise ConfigError(
                    f"key {file_key!r} in [system] cannot be none; only the carriers, "
                    "the detunings and delta_n_tilde_hz2pi may be left unset")
            kwargs[name] = None
            continue
        value = _number(raw, "system", file_key)
        kwargs[name] = value * TWO_PI if "_hz2pi" in file_key else value
    try:
        return SystemParams(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[system]: {exc}") from exc


def build_coupling(cfg) -> CouplingDerivation | None:
    section = _items(cfg, "coupling", {*_COUPLING_FIELDS, "sphere_diameter_m"})
    if not section:
        return None
    if "sphere_diameter_m" in section and "V_sphere_m3" in section:
        raise ConfigError(
            "[coupling] gives both sphere_diameter_m and V_sphere_m3; use one")
    kwargs = {}
    for file_key, raw in section.items():
        value = _number(raw, "coupling", file_key)
        if file_key == "sphere_diameter_m":
            kwargs["V_sphere"] = math.pi / 6.0 * value**3
        else:
            kwargs[_COUPLING_FIELDS[file_key]] = (
                value * TWO_PI if "_hz2pi" in file_key else value)
    try:
        return CouplingDerivation(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[coupling]: {exc}") from exc


def _axis_keys(items: dict[str, str], k: int) -> tuple[str, ...]:
    """The keys of axis ``k`` (bounds in K for a T axis, in omega_d units
    otherwise), or none when the section does not name the axis."""
    param = items.get(f"axis{k}")
    if param is None:
        return ()
    unit = "K" if param == "T" else "wd"
    return f"axis{k}", f"axis{k}_min_{unit}", f"axis{k}_max_{unit}", f"axis{k}_points"


def _axis(section_name: str, items: dict[str, str], keys) -> Axis:
    param_key, lo_key, hi_key, points_key = keys
    lo = _number(items.get(lo_key), section_name, lo_key)
    hi = _number(items.get(hi_key), section_name, hi_key)
    points = _number(items.get(points_key), section_name, points_key, int)
    try:
        return Axis(param=items[param_key], lo=lo, hi=hi, points=points)
    except ValueError as exc:
        raise ConfigError(f"[{section_name}]: {exc}") from exc


def _apply_point_overrides(base: SystemParams, section_name: str,
                           items: dict[str, str]) -> SystemParams:
    changes = {}
    for key, raw in items.items():
        if not key.startswith("set_"):
            continue
        if key == "set_T_K":
            changes["T"] = _number(raw, section_name, key)
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
        changes[name] = _number(raw, section_name, key)
    return updated_in_omega_d_units(base, changes) if changes else base


def build_grid_specs(cfg, base: SystemParams) -> list[tuple[str, GridSpec]]:
    """GridSpecs for every [sweep] / [sweep:name] section, in file order."""
    specs: dict[str, GridSpec] = {}
    for section_name, items in cfg.items():
        if section_name != "sweep" and not section_name.startswith("sweep:"):
            continue
        # the sweep writes <name>.csv into the output directory
        name = section_name.partition(":")[2] or "sweep"
        if name in (".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"[{section_name}]: sweep name {name!r} is not a file name")
        if name in specs:
            raise ConfigError(
                f"[{section_name}]: another section already writes {name}.csv")
        axis_keys = [keys for keys in (_axis_keys(items, 1), _axis_keys(items, 2)) if keys]
        axes = [_axis(section_name, items, keys) for keys in axis_keys]
        if not axes:
            raise ConfigError(f"[{section_name}] defines no axes")
        _items(cfg, section_name, {"linkage", "measures", *sum(axis_keys, ()),
                                   *(key for key in items if key.startswith("set_"))})
        measures_raw = items.get("measures", "")
        measures = tuple(m.strip() for m in measures_raw.split(",") if m.strip())
        try:
            point_base = _apply_point_overrides(base, section_name, items)
        except ParameterError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
        try:
            specs[name] = GridSpec(
                axes=tuple(axes),
                base=point_base,
                linkage=items.get("linkage", "independent"),
                measures=measures,
            )
        except ValueError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
    return list(specs.items())


def build_optimize_spec(cfg, seed_override: int | None = None) -> OptimizeSpec:
    box_keys = {param: (f"box_{param}_min_wd", f"box_{param}_max_wd")
                for param in OPT_PARAMS}
    items = _items(cfg, "optimize", {"measure", "restarts", "max_evaluations", "seed",
                                     *sum(box_keys.values(), ())})
    if not items:
        raise ConfigError("no [optimize] section in the configuration")
    box = {param: (_number(items.get(lo_key), "optimize", lo_key),
                   _number(items.get(hi_key), "optimize", hi_key))
           for param, (lo_key, hi_key) in box_keys.items()
           if lo_key in items or hi_key in items}
    # the keys the file gives; OptimizeSpec's defaults fill the others
    raw = {key: items[key] for key in ("restarts", "max_evaluations", "seed") if key in items}
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    counts = {key: _number(value, "optimize", key, int) for key, value in raw.items()}
    try:
        return OptimizeSpec(measure=items.get("measure", ""), box=box, **counts)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"[optimize]: {exc}") from exc


def build_tc(cfg) -> tuple[str, float, float]:
    items = _items(cfg, "tc", ("measure", "T_max_K", "tol_K"))
    if not items:
        raise ConfigError("no [tc] section in the configuration")
    measure = items.get("measure", "")
    if measure not in MEASURE_IDS:
        raise ConfigError(f"[tc]: unknown measure id {measure!r}")
    t_max = _number(items.get("T_max_K"), "tc", "T_max_K")
    if not T_FLOOR < t_max < math.inf:
        raise ConfigError(
            f"key 'T_max_K' in [tc] must be finite and above {T_FLOOR} K, got {t_max!r}")
    tol = _number(items["tol_K"], "tc", "tol_K") if "tol_K" in items else TC_TOL
    if not 0.0 < tol < math.inf:
        raise ConfigError(
            f"key 'tol_K' in [tc] must be a positive finite temperature, got {tol!r}")
    return measure, t_max, tol
