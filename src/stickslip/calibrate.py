"""Parameter identification from displacement/temperature records.

Fits (z0, K, beta, f_d, f_s) by least squares: the quasistatic model is run
on the measured temperature record, the modeled displacement is corrected
for elastic bearing shear (z = x + F/K_BP with known bearing stiffness
K_BP; a rigid bearing is K_BP = inf), and the squared mismatch against the
measured displacement is integrated over the record,

    err = sum_i (z0 + z_model(t_i) - z_obs(t_i))^2 * dt_i.

The mismatch is quadratic in the offset z0, so for given (K, beta, f_d,
f_s) the best z0 has a closed form: the weighted mean of z_obs - z_model,
clipped into its box (separable least squares, Golub & Pereyra 1973).  The
minimizer is a seeded rand/1/bin differential evolution over the other four
parameters, population 60, with z0 profiled out of every evaluation: the
(f_d, f_s) pair is reparameterized so the search space stays rectangular
while f_d <= f_s always holds.  Mass is fixed to 1: the quasistatic output
depends on it only through the slip duration pi*sqrt(m/K), far below any
realistic acquisition cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Drive
from .quasistatic import monotone_runs, stick_levels_on_grid

__all__ = [
    "FitParams",
    "CalibrationProblem",
    "CalibrationResult",
    "corrected_displacement",
    "model_displacement",
    "objective",
    "calibrate",
    "PARAM_NAMES",
]

PARAM_NAMES = ("z0", "K", "beta", "f_d", "f_s")

_DE_POP_PER_DIM = 15
_DE_CR = 0.9
_DE_F = 0.7
_DOT_CHUNK = 8192  # OpenBLAS splits a dot of over 10 000 elements across threads


class FitParams(NamedTuple):
    z0: float
    K: float
    beta: float
    f_d: float
    f_s: float


@dataclass
class CalibrationProblem:
    """Observed record, parameter box and optimizer budget.

    ``temps`` is the temperature record as the table of a drive with no
    other part; ``displs`` holds the displacement at each of its knots.
    ``bounds`` maps each of ``PARAM_NAMES`` to (lo, hi).  ``K_BP`` is the
    bearing's shear stiffness, which the transmitted friction force deforms;
    ``math.inf`` models a rigid bearing, whose shear is zero.
    """

    temps: Drive
    displs: np.ndarray
    bounds: dict[str, tuple[float, float]]
    K_BP: float = 2.0e6
    budget: int = 20_000
    seed: int = 0
    _weights: np.ndarray = field(init=False, repr=False)
    _runs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    # sum w_i and sum w_i z_obs_i, the record's part of the profiled z0
    _w_sum: float = field(init=False, repr=False)
    _wz_sum: float = field(init=False, repr=False)

    def __post_init__(self):
        T = self.temps
        if T.knots is None or T.terms or T.scale != 1.0:
            raise ValueError("the temperature record must be a drive with a "
                             "table and no other part")
        self.displs = np.asarray(self.displs, dtype=float)
        if len(self.displs) != len(T.knots):
            raise ValueError(
                f"displacement series length {len(self.displs)} does not match "
                f"temperature series length {len(T.knots)}"
            )
        if not np.all(np.isfinite(self.displs)):
            raise ValueError("displacements must be finite")
        if self.K_BP <= 0:
            raise ValueError("K_BP must be positive")
        missing = [k for k in PARAM_NAMES if k not in self.bounds]
        if missing:
            raise ValueError(f"missing bounds for {missing}")
        for name in PARAM_NAMES:
            lo, hi = self.bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name} must be finite with lo < hi")
        if self.bounds["K"][0] <= 0:
            raise ValueError("K bounds must be positive")
        if self.bounds["f_d"][0] < 0:
            raise ValueError("f_d bounds must be nonnegative")
        lo_fd = self.bounds["f_d"][0]
        hi_fs = self.bounds["f_s"][1]
        if lo_fd > hi_fs:
            raise ValueError("f_d <= f_s is infeasible for these bounds")
        dts = np.diff(T.knots)
        self._weights = np.concatenate((dts, dts[-1:]))
        self._runs = monotone_runs(T.values)
        self._w_sum = float(np.sum(self._weights))
        self._wz_sum = _dot(self._weights, self.displs)

    def dt_weights(self) -> np.ndarray:
        """Sample weights of the integrated mismatch: dt_i = t_{i+1} - t_i,
        with the last sample reusing the last interval."""
        return self._weights


@dataclass
class CalibrationResult:
    params: FitParams
    residual: float
    evaluations: int
    history: np.ndarray = field(repr=False)


def corrected_displacement(x, friction_force, K_BP: float):
    """Observed displacement including the elastic bearing shear x + F/K_BP."""
    if K_BP <= 0:
        raise ValueError("K_BP must be positive")
    return x + friction_force / K_BP


def model_displacement(params: FitParams, prob: CalibrationProblem) -> np.ndarray:
    """Quasistatic model displacement (shear-corrected, without z0 offset)
    at the problem's sample times: the stick levels plus the stick force over
    ``prob.K_BP``.  At K_BP = inf that term is zero and the displacement is
    the bare staircase of levels.

    The model starts at the zero-spring-force level x(0) = beta*T(0), so the
    run begins stuck; the z0 offset absorbs the resulting anchor.
    """
    _, K, beta, f_d, f_s = params
    temps = prob.temps.values
    x0 = beta * temps[0]
    levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s, prob._runs)
    stick_force = K * (beta * temps - levels)
    return corrected_displacement(levels, stick_force, prob.K_BP)


def objective(params, prob: CalibrationProblem) -> float:
    """Integrated squared mismatch of the candidate against the record.

    Infeasible or degenerate candidates (non-finite model output) yield +inf
    so derivative-free optimizers treat them as infeasible.
    """
    params = FitParams(*params)
    if not _feasible(params):
        return math.inf
    return _mismatch(params.z0, model_displacement(params, prob), prob)


def _feasible(params: FitParams) -> bool:
    return params.K > 0 and 0 <= params.f_d <= params.f_s


def _mismatch(z0: float, z_model: np.ndarray, prob: CalibrationProblem) -> float:
    """The objective of the offset z0 and the model displacement."""
    r = z0 + z_model - prob.displs
    # every weight is positive, so a non-finite z makes the sum non-finite
    total = float(np.sum(r * r * prob.dt_weights()))
    return total if math.isfinite(total) else math.inf


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot in chunks of at most _DOT_CHUNK elements, summed in order: each
    on one BLAS thread, so the bits do not depend on the thread count."""
    return sum(float(np.dot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK]))
               for i in range(0, len(a), _DOT_CHUNK))


def _profiled(u, prob: CalibrationProblem) -> tuple[float, float]:
    """(z0, objective) at the best z0 for the point ``u`` of the unit cube.

    The objective is quadratic in z0 with its minimum at sum w (z_obs -
    z_model) / sum w; clipped into the z0 box, that is the box's minimum too.
    """
    lo, hi = prob.bounds["z0"]
    params = FitParams(lo, *_from_unit(u, prob.bounds))
    if not _feasible(params):
        return lo, math.inf
    z_model = model_displacement(params, prob)
    z0 = (prob._wz_sum - _dot(prob._weights, z_model)) / prob._w_sum
    if not math.isfinite(z0):  # a non-finite model, whose mismatch is inf
        return lo, math.inf
    z0 = min(max(z0, lo), hi)
    return z0, _mismatch(z0, z_model, prob)


# --------------------------------------------------------------------------
# Box reparameterization: f_d <= f_s inside a rectangle
# --------------------------------------------------------------------------

def _from_unit(u, bounds: dict[str, tuple[float, float]]
               ) -> tuple[float, float, float, float]:
    """Map the 4-D unit cube onto the feasible (K, beta, f_d, f_s)
    (bijective for fixed bounds).

    K, beta scale affinely; f_d spans its box clipped to stay below hi(f_s);
    f_s spans [max(lo_fs, f_d), hi_fs], which keeps f_d <= f_s while filling
    both boxes.
    """
    lo_K, hi_K = bounds["K"]
    lo_b, hi_b = bounds["beta"]
    lo_fd, hi_fd = bounds["f_d"]
    lo_fs, hi_fs = bounds["f_s"]
    K = lo_K + u[0] * (hi_K - lo_K)
    beta = lo_b + u[1] * (hi_b - lo_b)
    fd_hi = min(hi_fd, hi_fs)
    f_d = lo_fd + u[2] * (fd_hi - lo_fd)
    fs_lo = max(lo_fs, f_d)
    f_s = fs_lo + u[3] * (hi_fs - fs_lo)
    return K, beta, f_d, f_s


# --------------------------------------------------------------------------
# Differential evolution (rand/1/bin)
# --------------------------------------------------------------------------

def calibrate(prob: CalibrationProblem) -> CalibrationResult:
    """Minimize the record mismatch with seeded differential evolution.

    rand/1/bin over (K, beta, f_d, f_s), population 15 per dimension (60),
    CR = 0.9, F = 0.7; each evaluation profiles z0 out at its clipped
    closed-form best, so the result's residual is ``objective`` at its
    parameters.  The budget caps evaluations exactly.  Deterministic under
    the problem's seed.
    """
    dim = len(PARAM_NAMES) - 1  # z0 is profiled, not searched
    pop_size = _DE_POP_PER_DIM * dim
    if prob.budget < pop_size:
        raise ValueError(
            f"budget {prob.budget} below the population minimum {pop_size}"
        )
    rng = np.random.default_rng(prob.seed)
    # the bookkeeping runs on Python floats, which beat numpy on 4 coordinates
    pop = rng.random((pop_size, dim)).tolist()
    z0s, fitness = map(list, zip(*[_profiled(x, prob) for x in pop]))
    history = np.empty(prob.budget)
    history[:pop_size] = np.minimum.accumulate(fitness)
    best, evals = float(history[pop_size - 1]), pop_size

    others = [np.delete(np.arange(pop_size), i) for i in range(pop_size)]
    while evals < prob.budget:
        for i in range(pop_size):
            if evals >= prob.budget:
                break
            a, b, c = (pop[r] for r in rng.choice(others[i], size=3, replace=False))
            cross = [r < _DE_CR for r in rng.random(dim).tolist()]
            cross[rng.integers(dim)] = True
            trial = [min(max(a[j] + _DE_F * (b[j] - c[j]), 0.0), 1.0) if cross[j]
                     else pop[i][j] for j in range(dim)]
            z0, f_trial = _profiled(trial, prob)
            if f_trial <= fitness[i]:
                pop[i] = trial
                z0s[i] = z0
                fitness[i] = f_trial
            best = min(best, f_trial)
            history[evals] = best
            evals += 1

    winner = int(np.argmin(fitness))
    return CalibrationResult(
        params=FitParams(float(z0s[winner]), *_from_unit(pop[winner], prob.bounds)),
        residual=float(fitness[winner]),
        evaluations=evals,
        history=history[:evals],
    )
