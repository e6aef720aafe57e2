import hashlib
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stickslip import (
    CalibrationProblem,
    FitParams,
    Drive,
    calibrate,
    corrected_displacement,
    model_displacement,
    objective,
    ou_path,
    stick_levels_on_grid,
)
from stickslip.calibrate import PARAM_NAMES, _DE_POP_PER_DIM, _from_unit
from stickslip.cli import EXIT_CONFIG, main as cli_main

# the submodules, not the functions the package re-exports under their names
calibrate_module = importlib.import_module("stickslip.calibrate")
quasistatic_module = importlib.import_module("stickslip.quasistatic")

DEMO_RECORD = Path(__file__).resolve().parent.parent / "data" / "demo_record.csv"


def _to_unit(params: FitParams, bounds: dict[str, tuple[float, float]]) -> np.ndarray:
    """Inverse of :func:`stickslip.calibrate._from_unit` on (K, beta, f_d,
    f_s); z0 is profiled, not searched."""
    lo_K, hi_K = bounds["K"]
    lo_b, hi_b = bounds["beta"]
    lo_fd, hi_fd = bounds["f_d"]
    lo_fs, hi_fs = bounds["f_s"]
    fd_hi = min(hi_fd, hi_fs)
    fs_lo = max(lo_fs, params.f_d)
    span = lambda v, lo, hi: 0.0 if hi == lo else (v - lo) / (hi - lo)
    return np.array([
        span(params.K, lo_K, hi_K),
        span(params.beta, lo_b, hi_b),
        span(params.f_d, lo_fd, fd_hi),
        span(params.f_s, fs_lo, hi_fs),
    ])


BOUNDS = dict(z0=(-0.05, 0.05), K=(2e5, 8e6), beta=(2e-5, 5e-4),
              f_d=(1e3, 2e4), f_s=(2e3, 3e4))
TRUTH = FitParams(z0=0.001, K=2e6, beta=1e-4, f_d=5000.0, f_s=8000.0)
K_BP = 5e6


def make_record(n=4000, seed=11, noise=0.0, noise_seed=99,
                truth=TRUTH, k_bp=K_BP):
    """Synthetic displacement/temperature record from the staircase model:
    the stick levels at the samples, shear-corrected by the stick force."""
    times = 600.0 * np.arange(n)
    days = times / 86400.0
    temps = 60 * np.sin(2 * np.pi * days / 18) + 8 * np.sin(2 * np.pi * days) \
        + 1.5 * np.asarray(ou_path(n, 600 / 86400.0, seed).values)
    series = Drive(knots=times, values=temps)
    x0 = truth.beta * temps[0]
    levels = stick_levels_on_grid(temps, x0, truth.K, truth.beta, truth.f_d,
                                  truth.f_s)
    friction = truth.K * (truth.beta * temps - levels)
    z = truth.z0 + corrected_displacement(levels, friction, k_bp)
    if noise:
        rng = np.random.default_rng(noise_seed)
        z = z * (1.0 + noise * rng.standard_normal(n))
    return series, z


class TestCorrectedDisplacement:
    def test_zero_force(self):
        assert corrected_displacement(0.003, 0.0, 2e6) == 0.003

    def test_direct_substitution(self):
        assert corrected_displacement(0.001, 2000.0, 2e6) == 0.002

    def test_stick_offset_is_force_over_stiffness(self):
        b = 1234.0
        assert corrected_displacement(0.0, b, 2e6) == b / 2e6

    def test_rejects_nonpositive_stiffness(self):
        with pytest.raises(ValueError):
            corrected_displacement(0.0, 0.0, 0.0)


class TestObjective:
    def test_self_consistency_noise_free(self):
        series, z = make_record(noise=0.0)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=100, seed=0)
        scale = float(np.sum(z * z * prob.dt_weights()))
        assert objective(TRUTH, prob) <= 1e-12 * scale

    def test_perturbed_stiffness_increases_residual(self):
        series, z = make_record(noise=0.0)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=100, seed=0)
        bumped = TRUTH._replace(K=TRUTH.K * 1.1)
        assert objective(bumped, prob) > objective(TRUTH, prob)

    def test_noise_floor_bound(self):
        noise = 0.01
        series, z_clean = make_record(noise=0.0)
        _, z_noisy = make_record(noise=noise)
        prob = CalibrationProblem(temps=series, displs=z_noisy, bounds=BOUNDS,
                                  K_BP=K_BP, budget=100, seed=0)
        w = prob.dt_weights()
        injected = float(np.sum((z_noisy - z_clean) ** 2 * w))
        assert objective(TRUTH, prob) <= injected + 1e-10

    def test_constant_temperature_fit_by_offset(self):
        times = 600.0 * np.arange(100)
        series = Drive(knots=times, values=np.full(100, 12.0))
        c = 0.0042
        prob = CalibrationProblem(temps=series, displs=np.full(100, c),
                                  bounds=BOUNDS, K_BP=K_BP, budget=100, seed=0)
        # static-forever model output is constant: z0 = c - z(0) is exact
        for params in (TRUTH, TRUTH._replace(f_d=2000.0, f_s=9000.0)):
            z_model = model_displacement(params, prob)
            assert np.all(z_model == z_model[0])
            ideal = params._replace(z0=c - float(z_model[0]))
            assert objective(ideal, prob) <= 1e-20
            assert objective(ideal._replace(z0=ideal.z0 + 1e-3), prob) > 1e-8

    def test_invariant_under_time_preserving_reindex(self):
        series, z = make_record(n=500)
        prob1 = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                   K_BP=K_BP, budget=100, seed=0)
        series2 = Drive(knots=series.knots.copy(), values=series.values.copy())
        prob2 = CalibrationProblem(temps=series2, displs=z.copy(), bounds=BOUNDS,
                                   K_BP=K_BP, budget=100, seed=5)
        assert objective(TRUTH, prob1) == objective(TRUTH, prob2)

    def test_infeasible_candidates_are_infinite(self):
        series, z = make_record(n=200)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=100, seed=0)
        assert objective(TRUTH._replace(K=-1.0), prob) == math.inf
        assert objective(TRUTH._replace(f_d=9000.0), prob) == math.inf

    def test_shear_force_zero_mode(self):
        # a rigid bearing, K_BP = inf, shears by F/inf = 0
        series, z = make_record(n=500)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=math.inf, budget=100, seed=0)
        z_model = model_displacement(TRUTH, prob)
        # without the correction the model is the bare staircase
        assert np.all(np.isin(np.round(np.diff(np.unique(z_model)), 12),
                              np.round(2 * (TRUTH.f_s - TRUTH.f_d) / TRUTH.K, 12)))


class TestReparameterization:
    @given(u=st.lists(st.floats(0, 1), min_size=4, max_size=4))
    def test_maps_into_feasible_box(self, u):
        params = FitParams(0.0, *_from_unit(np.array(u), BOUNDS))
        for name, value in zip(PARAM_NAMES[1:], params[1:]):
            lo, hi = BOUNDS[name]
            assert lo - 1e-12 <= value <= hi + 1e-12
        assert params.f_d <= params.f_s

    @given(u=st.lists(st.floats(0.001, 0.999), min_size=4, max_size=4))
    def test_bijective(self, u):
        u = np.array(u)
        params = FitParams(0.0, *_from_unit(u, BOUNDS))
        back = _to_unit(params, BOUNDS)
        assert np.allclose(back, u, rtol=0, atol=1e-9)


class TestCalibrate:
    def test_budget_minimum_returns_result(self):
        series, z = make_record(n=300)
        minimum = _DE_POP_PER_DIM * 4  # the population over K, beta, f_d, f_s
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=minimum, seed=1)
        res = calibrate(prob)
        assert res.evaluations == minimum
        assert math.isfinite(res.residual)
        assert len(res.history) == minimum

    def test_budget_below_minimum_rejected(self):
        series, z = make_record(n=300)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=_DE_POP_PER_DIM * 4 - 1,
                                  seed=1)
        with pytest.raises(ValueError):
            calibrate(prob)

    def test_history_is_monotone_and_budget_respected(self):
        series, z = make_record(n=300)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=400, seed=1)
        res = calibrate(prob)
        assert res.evaluations == 400
        assert np.all(np.diff(res.history) <= 0)

    def test_deterministic_under_seed(self):
        series, z = make_record(n=300)
        results = [calibrate(CalibrationProblem(temps=series, displs=z,
                                                bounds=BOUNDS, K_BP=K_BP,
                                                budget=300, seed=7))
                   for _ in range(2)]
        assert results[0].params == results[1].params
        assert results[0].residual == results[1].residual

    def test_result_within_bounds(self):
        series, z = make_record(n=300, noise=0.01)
        res = calibrate(CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                           K_BP=K_BP, budget=300, seed=3))
        for name, value in zip(PARAM_NAMES, res.params):
            lo, hi = BOUNDS[name]
            assert lo <= value <= hi
        assert res.params.f_d <= res.params.f_s

    def test_two_seeds_comparable_residuals(self):
        series, z = make_record(n=1000, noise=0.01)
        res = [calibrate(CalibrationProblem(temps=series, displs=z,
                                            bounds=BOUNDS, K_BP=K_BP,
                                            budget=3000, seed=s))
               for s in (0, 1)]
        lo, hi = sorted(r.residual for r in res)
        assert hi <= 2.0 * lo

    def test_short_roundtrip_recovers_parameters(self):
        series, z = make_record(n=4000, noise=0.01)
        res = calibrate(CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                           K_BP=K_BP, budget=8000, seed=0))
        for name in ("K", "beta", "f_d", "f_s"):
            got = getattr(res.params, name)
            want = getattr(TRUTH, name)
            assert abs(got - want) / want < 0.10


class TestProfiledOffset:
    """The DE searches (K, beta, f_d, f_s) and takes z0 at the clipped
    closed-form minimum of the objective."""

    def test_profiled_offset_minimizes_the_objective(self):
        series, z = make_record(n=500, noise=0.01)
        # uneven sample spacing, so the weighted and the plain mean differ
        rng = np.random.default_rng(4)
        uneven = Drive(knots=series.knots + 500.0 * rng.random(500),
                       values=series.values)
        prob = CalibrationProblem(temps=uneven, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=100, seed=0)
        step = 1e-6 * float(np.ptp(z))
        lo, hi = BOUNDS["z0"]
        for u in rng.random((20, 4)):
            z0, value = calibrate_module._profiled(u, prob)
            params = FitParams(z0, *_from_unit(u, BOUNDS))
            assert value == objective(params, prob)
            for other in (z0 - step, z0 + step, lo, hi):
                assert value <= objective(params._replace(z0=other), prob)

    @pytest.mark.parametrize("shift, edge", [(1.0, 1), (-1.0, 0)])
    def test_optimum_outside_the_box_takes_the_edge(self, shift, edge):
        # every candidate's unconstrained z0 is near the shift, far outside
        series, z = make_record(n=300)
        prob = CalibrationProblem(temps=series, displs=z + shift, bounds=BOUNDS,
                                  K_BP=K_BP, budget=120, seed=2)
        res = calibrate(prob)
        assert res.params.z0 == BOUNDS["z0"][edge]

    def test_constant_temperature_recovers_the_offset(self):
        times = 600.0 * np.arange(100)
        series = Drive(knots=times, values=np.full(100, 12.0))
        c = 0.0042
        prob = CalibrationProblem(temps=series, displs=np.full(100, c),
                                  bounds=BOUNDS, K_BP=K_BP, budget=120, seed=0)
        res = calibrate(prob)
        z_model = model_displacement(res.params, prob)
        assert abs(res.params.z0 - (c - float(z_model[0]))) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_is_the_objective_at_the_result(self, seed):
        series, z = make_record(n=300, noise=0.01)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP, budget=300, seed=seed)
        res = calibrate(prob)
        assert res.residual == objective(res.params, prob)


class TestProblemValidation:
    def test_length_mismatch(self):
        series = Drive(knots=np.arange(5.0), values=np.zeros(5))
        with pytest.raises(ValueError):
            CalibrationProblem(temps=series, displs=np.zeros(4), bounds=BOUNDS)

    def test_missing_bound(self):
        series = Drive(knots=np.arange(5.0), values=np.zeros(5))
        bad = {k: v for k, v in BOUNDS.items() if k != "K"}
        with pytest.raises(ValueError):
            CalibrationProblem(temps=series, displs=np.zeros(5), bounds=bad)

    def test_infeasible_friction_boxes(self):
        series = Drive(knots=np.arange(5.0), values=np.zeros(5))
        bad = dict(BOUNDS, f_d=(5e4, 6e4), f_s=(1e3, 2e3))
        with pytest.raises(ValueError):
            CalibrationProblem(temps=series, displs=np.zeros(5), bounds=bad)

    def test_bad_shear_mode(self, tmp_path, capsys):
        # the bearing is K_BP, a rigid one inf: the command line names the
        # two, and any other mode is a config error before any work
        rc = cli_main(["calibrate", "--data", str(DEMO_RECORD), "--bounds",
                       str(DEMO_RECORD.with_name("demo_bounds.txt")),
                       "--shear-force", "both", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record(self, bad):
        temps = np.zeros(5)
        temps[2] = bad
        with pytest.raises(ValueError, match="finite"):
            CalibrationProblem(temps=Drive(knots=np.arange(5.0), values=temps),
                               displs=np.zeros(5), bounds=BOUNDS)
        series = Drive(knots=np.arange(5.0), values=np.zeros(5))
        displs = np.zeros(5)
        displs[3] = bad
        with pytest.raises(ValueError, match="finite"):
            CalibrationProblem(temps=series, displs=displs, bounds=BOUNDS)

    @pytest.mark.parametrize("extra", [
        dict(terms=((1.0, 0.0, 0.0),)), dict(scale=-1.0),
        dict(terms=((1.0, 0.25, 0.0),)), dict(scale=2.0), None])
    def test_record_is_a_bare_table(self, extra):
        # the objective reads only the table's values: any other part of the
        # drive, or no table at all, would be silently ignored
        T = Drive(**extra, knots=np.arange(5.0), values=np.zeros(5)) \
            if extra is not None else Drive(terms=((1.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match="table"):
            CalibrationProblem(temps=T, displs=np.zeros(5), bounds=BOUNDS)

    def test_weights_are_computed_once(self):
        series = Drive(knots=np.array([0.0, 1.0, 3.0, 6.0]), values=np.zeros(4))
        prob = CalibrationProblem(temps=series, displs=np.zeros(4), bounds=BOUNDS)
        assert np.array_equal(prob.dt_weights(), [1.0, 2.0, 3.0, 3.0])
        assert prob.dt_weights() is prob.dt_weights()

    def test_monotone_runs_are_computed_once(self, monkeypatch):
        series, z = make_record(n=300)
        built = []
        original = quasistatic_module.monotone_runs

        def counting(temps):
            built.append(len(temps))
            return original(temps)

        monkeypatch.setattr(quasistatic_module, "monotone_runs", counting)
        monkeypatch.setattr(calibrate_module, "monotone_runs", counting)
        prob = CalibrationProblem(temps=series, displs=z, bounds=BOUNDS,
                                  K_BP=K_BP)
        assert built == [300]
        for scale in (0.5, 1.0, 2.0):
            objective(TRUTH._replace(K=scale * TRUTH.K), prob)
        assert built == [300]


class TestDemoRecordFit:
    """The DE's history and result on the shipped record, at a short budget,
    as sha256 and float reprs: any change in the floating-point order of the
    objective, or in the DE's use of its random stream, changes them."""

    def test_history_and_params_are_bit_identical(self):
        times, temps, z = np.loadtxt(DEMO_RECORD, delimiter=",", comments="#",
                                     unpack=True)
        # BOUNDS and K_BP are those of data/demo_bounds.txt and the benchmark
        prob = CalibrationProblem(temps=Drive(knots=times, values=temps),
                                  displs=z, bounds=BOUNDS, K_BP=K_BP,
                                  budget=2000, seed=0)
        res = calibrate(prob)
        assert hashlib.sha256(res.history.tobytes()).hexdigest() == \
            "36017cf92f37a15ddea7ffb294969d37ec813c8914fb1ccf95315194b029cf63"
        assert [repr(float(v)) for v in res.params] == [
            "0.0009442484051987764", "2984230.0873354366", "8.70589439605081e-05",
            "7366.856295952741", "12285.484954867648"]
        assert repr(res.residual) == "0.55289683511776"


# a calibration on a record of 12 000 samples, above the 10 000 at which
# OpenBLAS splits a dot across its threads; prints the history's sha256 and
# the fitted parameters, whose z0 a split dot moves in its last bits
_THREADS_SCRIPT = """
import hashlib
import numpy as np
from stickslip import CalibrationProblem, Drive, calibrate
times = 600.0 * np.arange(12_000)
temps = 60 * np.sin(times / 1.3e5) + 8 * np.sin(times / 1.4e4)
z = 1e-4 * temps + 1e-5 * np.random.default_rng(5).standard_normal(12_000)
prob = CalibrationProblem(temps=Drive(knots=times, values=temps), displs=z,
                          bounds={bounds!r}, K_BP=5e6, budget=300, seed=0)
res = calibrate(prob)
print(hashlib.sha256(res.history.tobytes()).hexdigest(),
      [repr(float(v)) for v in res.params])
"""


class TestBlasThreads:
    def test_fit_does_not_depend_on_the_thread_count(self):
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", _THREADS_SCRIPT.format(bounds=BOUNDS)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
