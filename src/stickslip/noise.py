"""Ornstein-Uhlenbeck noise paths and sampled-record parsing.

The noise model is dv = -v dt + dw with unit mean reversion and unit
diffusion, discretized by Euler-Maruyama on a uniform grid:

    v_0 = 0,   v_{k+1} = v_k - v_k*dt + sqrt(dt)*xi_k,   xi_k ~ N(0,1).

Paths are reproducible: the same (n, dt, seed) always yields the same values.
A sampled temperature record is read into the table of a :class:`Drive`, the
one sampled-record type; a noise path becomes a drive's table as well.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TextIO

import numpy as np

from .model import Drive

__all__ = [
    "ou_path",
    "perturbed_temperature",
    "load_temperature_series",
    "SeriesParseError",
]

_BLOCK = 8192  # draws per block of the recursion


def ou_path(n: int, dt: float, seed: int) -> Drive:
    """Generate an n-sample Ornstein-Uhlenbeck path from a seeded generator,
    as the table of a drive: the values v_k at the knots k*dt.  A table needs
    two knots, so n >= 2, and the recursion is stable only for 0 < dt < 2."""
    if n < 2:
        raise ValueError(f"need at least two samples, got {n}")
    if not 0 < dt < 2:
        raise ValueError(f"the step must satisfy 0 < dt < 2, got {dt}")
    rng = np.random.default_rng(seed)
    decay, gain = 1.0 - dt, math.sqrt(dt)
    values = np.empty(n)
    values[0] = v = 0.0
    # the draws in blocks are the draws of one call, and only one block is
    # held as Python floats at a time
    for lo in range(1, n, _BLOCK):
        block = []
        for xi_k in rng.standard_normal(min(_BLOCK, n - lo)).tolist():
            v = decay * v + gain * xi_k
            block.append(v)
        values[lo:lo + len(block)] = block
    return Drive(knots=dt * np.arange(n), values=values)


def perturbed_temperature(Omega: float, rho: float, path: Drive | None) -> Drive:
    """The drive T(t) = cos(Omega*t) + rho * v(t), v the path interpolated.

    With rho = 0 the drive is cos(Omega*t) alone, defined for all t, and the
    path is not read (it may be None); otherwise it is defined on the path's
    time range.
    """
    wave = ((1.0, Omega, 0.0),)
    if rho == 0.0:
        return Drive(terms=wave)
    return dataclasses.replace(path, terms=wave, scale=rho)


class SeriesParseError(ValueError):
    """Malformed series input; carries the 1-based offending line number, or
    None for a fault of the whole file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


def _parse_columns(stream: TextIO, n_cols: int) -> list[np.ndarray]:
    """Parse delimited numeric columns whose first column (time) is strictly
    increasing.

    Fields are separated by commas or whitespace, '#' starts a comment, and a
    single non-numeric first row is accepted as a header.  Every field must
    be a finite number, and a record needs at least two rows.  Violations
    raise :class:`SeriesParseError`, naming the offending line where there is
    one.
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
            raise SeriesParseError(f"non-numeric field in {line!r}", line_no)
        header_allowed = False
        if len(values) != n_cols:
            raise SeriesParseError(
                f"expected {n_cols} columns, got {len(values)}", line_no)
        if not all(map(math.isfinite, values)):
            raise SeriesParseError(f"non-finite field in {line!r}", line_no)
        if rows and values[0] <= rows[-1][0]:
            raise SeriesParseError(
                f"time {values[0]} not increasing (previous {rows[-1][0]} "
                f"on line {prev_line})", line_no)
        rows.append(values)
        prev_line = line_no
    if not rows:
        raise SeriesParseError("no data rows")
    if len(rows) < 2:
        raise SeriesParseError("fewer than two data rows")
    return [np.array(col) for col in zip(*rows)]


def load_temperature_series(stream: TextIO) -> Drive:
    """Read a (time, temperature) record from a character stream (see
    :func:`_parse_columns`) into the table of a drive."""
    knots, values = _parse_columns(stream, 2)
    return Drive(knots=knots, values=values)
