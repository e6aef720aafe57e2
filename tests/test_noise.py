import io
import math

import numpy as np
import pytest

from stickslip import (
    Drive,
    FrictionParams,
    SeriesParseError,
    TemperatureSpringForcing,
    load_temperature_series,
    ou_path,
    perturbed_temperature,
    simulate_events,
)
from stickslip.model import TemperatureDomainError
from stickslip.noise import _parse_columns


class TestOuPath:
    def test_deterministic_under_seed(self):
        a = ou_path(1000, 0.01, 42)
        b = ou_path(1000, 0.01, 42)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        assert not np.array_equal(ou_path(100, 0.01, 1).values,
                                  ou_path(100, 0.01, 2).values)

    def test_starts_at_zero(self):
        assert ou_path(10, 0.1, 0).values[0] == 0.0

    def test_matches_naive_recursion(self):
        n, dt, seed = 500, 0.02, 9
        path = ou_path(n, dt, seed)
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(n - 1)
        v = np.zeros(n)
        for k in range(n - 1):
            v[k + 1] = v[k] - v[k] * dt + math.sqrt(dt) * xi[k]
        assert np.allclose(path.values, v, rtol=0, atol=1e-12)

    def test_stationary_variance(self):
        path = ou_path(200_000, 0.01, 3)
        late = path.values[100_000:]
        assert 0.42 <= late.var() <= 0.58

    def test_autocorrelation_time(self):
        path = ou_path(1_000_000, 0.01, 5)
        late = path.values[500_000:]
        lag = 100  # lag time 1.0
        c0 = np.mean(late * late)
        c1 = np.mean(late[:-lag] * late[lag:])
        assert c1 / c0 == pytest.approx(math.exp(-1.0), rel=0.2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ou_path(0, 0.01, 0)
        with pytest.raises(ValueError):
            ou_path(1, 0.01, 0)
        with pytest.raises(ValueError):
            ou_path(10, -1.0, 0)


class TestPerturbedTemperature:
    def test_zero_amplitude_is_pure_cosine(self):
        path = ou_path(100, 0.01, 7)
        T = perturbed_temperature(0.25, 0.0, path)
        ts = np.linspace(0, 100.0, 57)  # far beyond the path range
        assert np.array_equal(T.at(ts), np.cos(0.25 * ts))

    def test_noise_enters_linearly(self):
        path = ou_path(101, 0.01, 7)
        T1 = perturbed_temperature(0.25, 0.1, path)
        T2 = perturbed_temperature(0.25, 0.2, path)
        t = 0.5
        base = math.cos(0.25 * t)
        assert (T2.at(t) - base) == pytest.approx(2 * (T1.at(t) - base), rel=1e-12)

    def test_at_matches_the_grid_formula(self):
        # the interpolation on the cached breakpoints against the formula it
        # replaced, which rounds t/dt: that quotient's error grows with t
        # times the segment's change, so the scale carries that term
        path = ou_path(3001, 0.01, 5)
        T = perturbed_temperature(0.25, 0.25, path)
        t = np.random.default_rng(1).uniform(0.0, T.t_max, 10_000)
        dt = path.knots[1]
        t = np.concatenate((t, dt * np.arange(len(path.values)), [T.t_max]))
        grid = t / dt
        i = np.clip(grid.astype(int), 0, len(path.values) - 2)
        frac = grid - i
        v0, v1 = path.values[i], path.values[i + 1]
        old = np.cos(0.25 * t) + 0.25 * (v0 * (1 - frac) + v1 * frac)
        scale = 1.0 + 0.25 * (np.abs(v0) + np.abs(v1) + np.abs(v1 - v0) * grid)
        assert np.max(np.abs(T.at(t) - old) / scale) <= 1e-15
        assert isinstance(T.at(1.234), float)
        assert T.at(np.array([])).shape == (0,)

    def test_domain_error_beyond_path(self):
        path = ou_path(101, 0.01, 7)  # covers [0, 1]
        T = perturbed_temperature(0.25, 0.1, path)
        with pytest.raises(TemperatureDomainError):
            T.at(1.5)

    def test_different_seeds_change_events(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        logs = []
        for seed in (0, 1):
            T = perturbed_temperature(0.25, 0.25, ou_path(2001, 0.01, seed))
            f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
            traj = simulate_events(6.0, f, p, 20.0)
            logs.append(tuple(round(e.time, 6) for e in traj.events))
        assert logs[0] != logs[1]


def _load(text: str) -> Drive:
    """load_temperature_series on a record given as text."""
    return load_temperature_series(io.StringIO(text))


class TestLoadTemperatureSeries:
    def test_basic_csv(self):
        s = _load("0,10.0\n600,10.5\n")
        assert len(s.knots) == 2
        assert s.at(300.0) == 10.25

    def test_whitespace_and_comments(self):
        s = _load("# header comment\n0 10.0\n600 10.5  # eol\n")
        assert len(s.knots) == 2

    def test_header_row_skipped(self):
        s = _load("time,temp\n0,10.0\n600,10.5\n")
        assert len(s.knots) == 2

    def test_unsorted_times_name_line(self):
        with pytest.raises(SeriesParseError) as err:
            _load("0,10.0\n600,10.5\n300,10.2\n")
        assert err.value.line_no == 3

    def test_non_numeric_field_names_line(self):
        with pytest.raises(SeriesParseError) as err:
            _load("0,10.0\n600,oops\n")
        assert err.value.line_no == 2

    def test_wrong_column_count(self):
        with pytest.raises(SeriesParseError) as err:
            _load("0,10.0\n600\n")
        assert err.value.line_no == 2

    def test_empty_input(self):
        with pytest.raises(SeriesParseError) as err:
            _load("# nothing\n")
        assert err.value.line_no is None  # a fault of the whole file
        assert str(err.value) == "no data rows"

    @pytest.mark.parametrize("text", ["0,10.0\n", "t,T\n0,10.0\n"])
    def test_one_row_is_too_few(self, text):
        with pytest.raises(SeriesParseError) as err:
            _load(text)
        assert err.value.line_no is None
        assert str(err.value) == "fewer than two data rows"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_field_names_line(self, bad):
        with pytest.raises(SeriesParseError) as err:
            _load(f"0,10.0\n600,{bad}\n1200,10.2\n")
        assert err.value.line_no == 2
        with pytest.raises(SeriesParseError) as err:
            _load(f"0,10.0\n{bad},10.5\n")
        assert err.value.line_no == 2

    def test_non_finite_column_names_line(self):
        with pytest.raises(SeriesParseError) as err:
            _parse_columns(io.StringIO("t,T,z\n0,1,2\n600,1,nan\n"), 3)
        assert err.value.line_no == 3

    def test_stream_input(self):
        s = load_temperature_series(io.StringIO("0 1.0\n1 2.0\n"))
        assert s.at(0.5) == 1.5
