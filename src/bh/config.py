"""Run configuration: flat INI sections parsed into one frozen dataclass.

Every output file records the sha256 hash of the canonicalized config so
downstream commands can refuse artifacts produced under different settings.
bh reads no environment variable: the output directory is [output] dir,
or the --out option when it is given.

Before anything is built, a config is checked by the geometry module's
rules: the kind's parameters, every eps's tiling (tiles_per_axis) and, on
a Disk2D cell, every eta's membrane band.  Either time grid may have at
most MAX_STEPS steps (t_end / dt, rounded), and every eps may tile the
domain with at most MAX_TILES cells, (1/eps)^dim.  No eps_list tiling and
no eta_list value may repeat: each gives one micro file or one study row.
The connected k = 1 regime needs initial data (macro.require_initial_data).
"""

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cell import CellCoefficients
from .errors import (ConfigInvalid, InvalidGeometry, NonIntegerTiling,
                     NonpositiveCoefficient)
from .geometry import KINDS, GeometrySpec, tiles_per_axis
from .macro import require_initial_data
from .timegrid import TimeGrid

PRESETS = ("zero", "sin-product", "gaussian-bump")

# largest step count of the kernel or macro grid; the cell archive holds
# 2N (MAX_STEPS + 1) fields, the macro march an O(MAX_STEPS^2) history
MAX_STEPS = 10_000

# largest tile count (1/eps)^dim of a micro domain, 64^2 in 2D or 16^3 in
# 3D; every tile is a full copy of the cell mesh
MAX_TILES = 4096


def preset_function(name: str, dim: int):
    """Analytic nodal data by name; every preset vanishes on the boundary."""
    if name == "zero":
        return lambda pts: np.zeros(len(pts))
    if name == "sin-product":
        def f(pts):
            out = np.ones(len(pts))
            for i in range(dim):
                out *= np.sin(np.pi * pts[:, i])
            return out
        return f
    if name == "gaussian-bump":
        sigma = 0.15

        def f(pts):
            r2 = np.sum((pts[:, :dim] - 0.5) ** 2, axis=1)
            out = np.exp(-r2 / (2.0 * sigma ** 2))
            for i in range(dim):
                out *= np.sin(np.pi * pts[:, i])
            return out
        return f
    raise ConfigInvalid(f"unknown preset {name!r}, choose from {PRESETS}")


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometrySpec
    coeffs: CellCoefficients
    k: float
    kernel_grid: TimeGrid
    macro_grid: TimeGrid
    macro_n: int
    u0_name: str
    f_name: str
    eps_list: tuple
    eta_list: tuple
    out_dir: str
    config_hash: str
    geometry_hash: str

    @property
    def dim(self) -> int:
        return self.geometry.dim

    @property
    def topology(self) -> str:
        return self.geometry.topology

    @property
    def regime(self) -> str:
        if self.k == 1.0:
            tail = "connected" if self.topology == "cc" else "disconnected"
            return f"k1_connected_{tail}"
        return "klt1" if self.k < 1.0 else "kgt1"

    def u0_function(self):
        return self._preset(self.u0_name)

    def source_function(self):
        """The source f(points), or None: position alone, no time."""
        return self._preset(self.f_name)

    def _preset(self, name):
        return None if name == "zero" else preset_function(name, self.dim)


def _canonical_text(cp: configparser.ConfigParser) -> str:
    lines = []
    for section in sorted(cp.sections()):
        lines.append(f"[{section}]")
        for key in sorted(cp[section]):
            lines.append(f"{key}={cp[section][key].strip()}")
    return "\n".join(lines) + "\n"


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _get_float(cp, section, key, default=None, positive=False):
    try:
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            if default is None:
                raise ConfigInvalid(f"missing [{section}] {key}")
            return default
        val = float(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"[{section}] {key} is not a number") from exc
    if not math.isfinite(val):
        raise ConfigInvalid(f"[{section}] {key} must be finite, got {val}")
    if positive and val <= 0.0:
        raise ConfigInvalid(f"[{section}] {key} must be positive, got {val}")
    return val


def _get_int(cp, section, key, default):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        val = int(raw.strip())
    except ValueError as exc:
        raise ConfigInvalid(f"[{section}] {key} is not an integer") from exc
    if val <= 0:
        raise ConfigInvalid(f"[{section}] {key} must be positive, got {val}")
    return val


def _get_list(cp, section, key, default):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigInvalid(f"[{section}] {key} is not a number list") from exc
    if not vals or any(not (0.0 < v < math.inf) for v in vals):
        raise ConfigInvalid(f"[{section}] {key} must list positive finite values")
    return vals


def _get_grid(cp, section, t_end, dt):
    grid = TimeGrid(_get_float(cp, section, "t_end", t_end, positive=True),
                    _get_float(cp, section, "dt", dt, positive=True))
    steps = grid.t_end / grid.dt
    if not math.isfinite(steps) or round(steps) > MAX_STEPS:
        raise ConfigInvalid(f"[{section}] t_end / dt = {steps:.3g} steps, "
                            f"more than the {MAX_STEPS} allowed")
    return grid


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigInvalid(f"config file {path!r} not found or unreadable")

    kind = cp.get("geometry", "kind", fallback="Disk2D").strip()
    if kind not in KINDS:
        raise ConfigInvalid(f"unknown geometry kind {kind!r}")
    params = {p: _get_float(cp, "geometry", p, positive=True)
              for p in KINDS[kind]}
    h = _get_float(cp, "geometry", "h", positive=True)
    spec = GeometrySpec(kind, params, h)

    try:
        coeffs = CellCoefficients(
            _get_float(cp, "coefficients", "lambda_int", 1.0),
            _get_float(cp, "coefficients", "lambda_out", 1.0),
            _get_float(cp, "coefficients", "alpha", 1.0))
    except NonpositiveCoefficient as exc:
        raise ConfigInvalid(str(exc)) from exc
    k = _get_float(cp, "coefficients", "k", 1.0)

    kernel_grid = _get_grid(cp, "kernel", 2.0, 0.01)
    macro_grid = _get_grid(cp, "macro", 1.0, 0.05)
    macro_n = _get_int(cp, "macro", "n", 32)
    if macro_grid.t_end > kernel_grid.t_end + 1e-12:
        raise ConfigInvalid("macro horizon exceeds kernel horizon")

    u0_name = cp.get("data", "u0", fallback="zero").strip()
    f_name = cp.get("data", "f", fallback="zero").strip()
    for name in (u0_name, f_name):
        if name not in PRESETS:
            raise ConfigInvalid(f"unknown preset {name!r}, choose from {PRESETS}")

    eps_list = _get_list(cp, "study", "eps_list", (0.5, 0.25, 0.125))
    eta_list = _get_list(cp, "study", "eta_list", (0.2, 0.1, 0.05))
    try:
        spec.validate()
        tilings = [tiles_per_axis(eps) for eps in eps_list]
        if kind == "Disk2D":   # bh converge and verify build these bands
            for eta in eta_list:
                spec.membrane_band(eta)
    except (InvalidGeometry, NonIntegerTiling) as exc:
        raise ConfigInvalid(f"geometry: {exc}") from exc
    for i, (eps, m) in enumerate(zip(eps_list, tilings)):
        if m ** spec.dim > MAX_TILES:
            raise ConfigInvalid(f"eps={eps} tiles the domain with (1/eps)^"
                                f"{spec.dim} cells, more than the "
                                f"{MAX_TILES} allowed")
        if m in tilings[:i]:
            raise ConfigInvalid(f"[study] eps_list repeats eps={eps} "
                                f"(1/eps = {m})")
    for i, eta in enumerate(eta_list):
        if eta in eta_list[:i]:
            raise ConfigInvalid(f"[study] eta_list repeats eta={eta}")

    out_dir = cp.get("output", "dir", fallback="out").strip()

    text = _canonical_text(cp)
    geom_text = "\n".join(
        f"{key}={cp['geometry'][key].strip()}" for key in sorted(cp["geometry"]))
    cfg = RunConfig(geometry=spec, coeffs=coeffs, k=k,
                    kernel_grid=kernel_grid, macro_grid=macro_grid,
                    macro_n=macro_n, u0_name=u0_name, f_name=f_name,
                    eps_list=eps_list, eta_list=eta_list, out_dir=out_dir,
                    config_hash=_hash(text), geometry_hash=_hash(geom_text))
    require_initial_data(cfg.regime, cfg.u0_function())
    return cfg
