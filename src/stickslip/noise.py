"""Ornstein-Uhlenbeck noise paths and temperature-series ingestion.

The noise model is dv = -v dt + dw with unit mean reversion and unit
diffusion, discretized by Euler-Maruyama on a uniform grid:

    v_0 = 0,   v_{k+1} = v_k - v_k*dt + sqrt(dt)*xi_k,   xi_k ~ N(0,1).

Paths are reproducible: the same (n, dt, seed) always yields the same values.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .model import Drive, TemperatureSeries

__all__ = [
    "OuPath",
    "ou_path",
    "perturbed_temperature",
    "load_temperature_series",
    "SeriesParseError",
]


@dataclass(frozen=True)
class OuPath:
    """Uniformly sampled noise path v_k at spacing dt, tagged with its seed."""

    dt: float
    values: np.ndarray
    seed: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))


def ou_path(n: int, dt: float, seed: int) -> OuPath:
    """Generate an n-sample Ornstein-Uhlenbeck path from a seeded generator."""
    if n < 1:
        raise ValueError("need at least one sample")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n - 1)
    decay, gain = 1.0 - dt, math.sqrt(dt)
    values = [0.0]
    v = 0.0
    for xi_k in xi.tolist():
        v = decay * v + gain * xi_k
        values.append(v)
    return OuPath(dt=dt, values=np.array(values), seed=seed)


def perturbed_temperature(Omega: float, rho: float, path: OuPath) -> Drive:
    """The drive T(t) = cos(Omega*t) + rho * v(t), v the path interpolated.

    With rho = 0 the drive is cos(Omega*t) alone, defined for all t;
    otherwise it is defined on the path's time range.
    """
    wave = ((1.0, Omega, 0.0),)
    if rho == 0.0:
        return Drive(terms=wave)
    return Drive(terms=wave, knots=path.times(), values=path.values, scale=rho)


class SeriesParseError(ValueError):
    """Malformed series input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _parse_columns(stream: TextIO, n_cols: int) -> list[np.ndarray]:
    """Parse delimited numeric columns whose first column (time) is strictly
    increasing.

    Fields are separated by commas or whitespace, '#' starts a comment, and a
    single non-numeric first row is accepted as a header.  Every field must
    be a finite number.  Violations raise :class:`SeriesParseError` naming
    the offending line.
    """
    rows: list[list[float]] = []
    header_allowed = True
    prev_line = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            values = [float(part) for part in parts]
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise SeriesParseError(line_no, f"non-numeric field in {line!r}")
        header_allowed = False
        if len(values) != n_cols:
            raise SeriesParseError(
                line_no, f"expected {n_cols} columns, got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            raise SeriesParseError(line_no, f"non-finite field in {line!r}")
        if rows and values[0] <= rows[-1][0]:
            raise SeriesParseError(
                line_no,
                f"time {values[0]} not increasing (previous {rows[-1][0]} "
                f"on line {prev_line})",
            )
        rows.append(values)
        prev_line = line_no
    if not rows:
        raise SeriesParseError(0, "no data rows")
    return [np.array(col) for col in zip(*rows)]


def load_temperature_series(source: TextIO | str) -> TemperatureSeries:
    """Read a (time, temperature) series from a character stream or string
    (see :func:`_parse_columns`)."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    return TemperatureSeries(*_parse_columns(stream, 2))
