"""Plain key = value configuration files for the command-line front end.

Format: one `key = value` per line, `#` starts a comment, keys are dotted and
case-insensitive, duplicate or unknown keys are errors.  Angles accept plain
floats plus the forms `pi`, `pi/N`, and `X*pi` so contact angles stay exact
in the source text.

    n = 2
    k = 1
    p = 1.5
    theta = pi/3
    grid.nbeta = 64
    grid.nphi = 128
    phi.kind = cap_manufactured
    phi.r = 1.3

Each phi kind reads one key, and any other `phi.*` key is an error:
`constant` (phi.value), `cap_manufactured` (phi.r; data whose exact solution
is r times the model function), `rotsym_expr` (phi.coeffs c0,c1,... meaning
sum_i c_i (1 - cos beta)^i), and `file` (phi.path, a stored field; 2-D solves
only).  The parsed spec is `RunConfig.phi = {"kind": kind, name: value}`, the
record report.json writes under "phi".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .fields import CapField, CapGrid, load_field
from .geometry import CapParams, ell
from .solver import Schedule

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed configuration: parse failure, bad value, or range violation."""


def _float_list(text: str) -> tuple:
    return tuple(float(c) for c in text.split(","))


# phi kind -> (name, parser, default) of the one key phi.<name> it reads
_PHI_KINDS = {
    "constant": ("value", float, 1.0),
    "cap_manufactured": ("r", float, 1.0),
    "rotsym_expr": ("coeffs", _float_list, (1.0,)),
    "file": ("path", str, None),
}

_KNOWN_KEYS = {
    "n", "k", "p", "theta",
    "grid.nbeta", "grid.nphi",
    "phi.kind", *(f"phi.{name}" for name, _, _ in _PHI_KINDS.values()),
    "oracle.cells",
    "sweep.p_list", "sweep.theta_list",
} | {f"schedule.{f.name}" for f in fields(Schedule)}


def _parse_angle(text: str, key: str) -> float:
    t = text.strip().lower()
    if t == "pi":
        return math.pi
    m = re.fullmatch(r"pi\s*/\s*(\d+)", t)
    if m and int(m.group(1)) > 0:
        return math.pi / int(m.group(1))
    m = re.fullmatch(r"([0-9.eE+-]+)\s*\*\s*pi", t)
    if m:
        return float(m.group(1)) * math.pi
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse angle {text!r}") from None


def parse_kv_text(text: str) -> dict:
    """Raw key -> value-string table; comments stripped, duplicates rejected."""
    table = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in table:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        table[key] = value.strip()
    unknown = sorted(set(table) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    return table


def _take(table, key, conv, default=None, required=False):
    if key not in table:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    text = table[key]
    try:
        value = conv(text)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: bad value {text!r} ({exc})") from None
    # nan passes range tests written as `x <= 0`, so non-finite values stop here
    numbers = value if isinstance(value, tuple) else (value,)
    if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
        raise ConfigError(f"{key}: must be finite, got {text!r}")
    return value


@dataclass
class RunConfig:
    """Typed configuration: problem, grid sizes, data specification, controls."""

    params: CapParams
    nbeta: int
    nphi: int
    phi: dict
    schedule: Schedule
    oracle_cells: int
    sweep_p: tuple
    sweep_theta: tuple

    def grid(self) -> CapGrid:
        return CapGrid(self.nbeta, self.nphi, self.params.theta)

    def sweep_points(self) -> list:
        """The sweep lattice as (name, p, theta), p-major; the name is also
        the member's output directory."""
        return [(f"p{p:g}_theta{theta:.6g}", p, theta)
                for p in self.sweep_p for theta in self.sweep_theta]

    def _profile_values(self, beta):
        beta = np.asarray(beta, dtype=float)
        if self.phi["kind"] == "constant":
            return np.full(beta.shape, self.phi["value"])
        if self.phi["kind"] == "cap_manufactured":
            pw = self.params.k + 1.0 - self.params.p
            return (
                self.params.cnk
                * self.phi["r"]**pw
                * ell(self.params.theta, beta) ** (1.0 - self.params.p)
            )
        x = 1.0 - np.cos(beta)
        out = np.zeros(beta.shape)
        for i, c in enumerate(self.phi["coeffs"]):
            out = out + c * x**i
        return out

    def phi_profile(self):
        """phi as a callable of beta; rejects the `file` kind."""
        if self.phi["kind"] == "file":
            raise ConfigError(
                "the 1-D reduction needs a rotationally symmetric phi kind, got 'file'"
            )
        return self._profile_values

    def phi_field(self, grid: CapGrid) -> CapField:
        """phi on grid; it must be finite and strictly positive."""
        if self.phi["kind"] == "file":
            f = load_field(self.phi["path"])
            if f.grid != grid:
                raise ConfigError(
                    f"phi.path grid {f.grid!r} does not match the grid {grid!r} it is needed on"
                )
        else:
            values = np.broadcast_to(
                self._profile_values(grid.beta_all)[:, None], (grid.nbeta + 1, grid.nphi)
            ).copy()
            f = CapField(grid, values, even=True)
        if not (np.all(np.isfinite(f.values)) and np.min(f.values) > 0.0):
            raise ConfigError("phi must be finite and strictly positive")
        return f

    def manufactured_reference(self, grid: CapGrid) -> CapField | None:
        """Exact solution r ell when phi.kind is cap_manufactured, else None."""
        if self.phi["kind"] != "cap_manufactured":
            return None
        values = self.phi["r"] * np.broadcast_to(
            ell(self.params.theta, grid.beta_all)[:, None], (grid.nbeta + 1, grid.nphi)
        ).copy()
        return CapField(grid, values, even=True)


def load_config(path) -> RunConfig:
    """Parse and validate a config file; any defect raises ConfigError."""
    with open(path) as fh:
        table = parse_kv_text(fh.read())

    n = _take(table, "n", int, required=True)
    k = _take(table, "k", int, required=True)
    p = _take(table, "p", float, required=True)
    theta = _take(table, "theta", lambda t: _parse_angle(t, "theta"), required=True)
    try:
        params = CapParams(n=n, k=k, p=p, theta=theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    kind = _take(table, "phi.kind", str, default="constant")
    if kind not in _PHI_KINDS:
        raise ConfigError(f"phi.kind must be one of {tuple(_PHI_KINDS)}, got {kind!r}")
    name, conv, default = _PHI_KINDS[kind]
    unread = sorted(key for key in table
                    if key.startswith("phi.") and key not in ("phi.kind", f"phi.{name}"))
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by phi.kind = {kind}, "
                          f"which reads phi.{name} only")
    value = _take(table, f"phi.{name}", conv, default=default, required=default is None)
    # a scalar phi parameter is a value or a scale
    if isinstance(value, float) and value <= 0.0:
        raise ConfigError(f"phi.{name} must be > 0, got {value}")
    phi = {"kind": kind, name: value}

    sched = Schedule(**{
        f.name: _take(table, f"schedule.{f.name}", type(f.default), default=f.default)
        for f in fields(Schedule)
    })
    for name in ("dt_min", "tol_solve"):
        if getattr(sched, name) <= 0.0:
            raise ConfigError(f"schedule.{name} must be > 0")
    if sched.newton_max < 0:
        raise ConfigError(f"schedule.newton_max must be >= 0, got {sched.newton_max}")

    def angle_list(text):
        return tuple(_parse_angle(t, "sweep.theta_list") for t in text.split(","))

    cfg = RunConfig(
        params=params,
        nbeta=_take(table, "grid.nbeta", int, default=64),
        nphi=_take(table, "grid.nphi", int, default=128),
        phi=phi,
        schedule=sched,
        oracle_cells=_take(table, "oracle.cells", int, default=512),
        sweep_p=_take(table, "sweep.p_list", _float_list, default=(1.2, 1.5, 1.8)),
        sweep_theta=_take(table, "sweep.theta_list", angle_list,
                          default=(math.pi / 6, math.pi / 4, math.pi / 3)),
    )
    try:
        cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # sweep members run concurrently, each writing its own directory
    named = {}
    for name, *point in cfg.sweep_points():
        if name in named:
            raise ConfigError(
                f"sweep.p_list/sweep.theta_list: lattice points (p, theta) = "
                f"({named[name][0]!r}, {named[name][1]!r}) and ({point[0]!r}, {point[1]!r}) "
                f"share the member name {name!r}")
        named[name] = point
    if cfg.oracle_cells < 8:
        raise ConfigError(f"oracle.cells must be >= 8, got {cfg.oracle_cells}")
    return cfg
