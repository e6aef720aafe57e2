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
from typing import Callable, TextIO

import numpy as np

from .model import PerturbedTemperature, TemperatureSeries

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

    @property
    def t_max(self) -> float:
        return (len(self.values) - 1) * self.dt

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


def perturbed_temperature(Omega: float, rho: float, path: OuPath) -> PerturbedTemperature:
    """Temperature source T(t) = cos(Omega*t) + rho * v(t).

    With rho = 0 the result evaluates to cos(Omega*t) exactly and is defined
    for all t; otherwise evaluation is restricted to the path's time range.
    """
    base: Callable = lambda t: np.cos(Omega * t) if not np.isscalar(t) \
        else math.cos(Omega * t)
    return PerturbedTemperature(base=base, noise_values=path.values,
                                dt=path.dt, rho=rho)


class SeriesParseError(ValueError):
    """Malformed series input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _numeric_rows(stream: TextIO, n_cols: int):
    """Yield (line number, values) for each data row of a column file.

    Fields are separated by commas or whitespace, '#' starts a comment, and a
    single non-numeric first row is accepted as a header.  Every field must
    be a finite number.
    """
    header_allowed = True
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
        yield line_no, values


def _parse_columns(stream: TextIO, n_cols: int) -> list[np.ndarray]:
    """Parse delimited numeric columns (see :func:`_numeric_rows`)."""
    rows = [values for _, values in _numeric_rows(stream, n_cols)]
    if not rows:
        raise SeriesParseError(0, "no data rows")
    return [np.array(col) for col in zip(*rows)]


def load_temperature_series(source: TextIO | str) -> TemperatureSeries:
    """Read a (time, temperature) series from a character stream or string.

    Times must be strictly increasing and every field finite; violations
    raise :class:`SeriesParseError` naming the offending line.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    times: list[float] = []
    temps: list[float] = []
    prev_line = 0
    for line_no, (t, temp) in _numeric_rows(stream, 2):
        if times and t <= times[-1]:
            raise SeriesParseError(
                line_no,
                f"time {t} not increasing (previous {times[-1]} "
                f"on line {prev_line})",
            )
        times.append(t)
        temps.append(temp)
        prev_line = line_no
    if not times:
        raise SeriesParseError(0, "no data rows")
    return TemperatureSeries(np.array(times), np.array(temps))
