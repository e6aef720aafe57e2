import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_checks import validate_events, validate_trajectory
from stickslip import (
    Drive,
    Event,
    EventKind,
    FrictionParams,
    HarmonicForcing,
    PhaseLabel,
    TemperatureSpringForcing,
    Trajectory,
    eval_forcing,
    friction_force,
)
from stickslip.model import TemperatureDomainError


class TestFrictionParams:
    def test_valid(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert (p.m, p.f_d, p.f_s) == (1.0, 1.0, 1.2)
        FrictionParams(m=2.0, f_d=0.5, f_s=0.5)  # the unified model is valid

    @pytest.mark.parametrize("m,fd,fs", [(0.0, 1, 1), (-1, 1, 1), (1, -0.1, 1),
                                         (1, 1.3, 1.2)])
    def test_invalid(self, m, fd, fs):
        with pytest.raises(ValueError):
            FrictionParams(m=m, f_d=fd, f_s=fs)


class TestEvalForcing:
    def test_temperature_spring_direct(self):
        f = TemperatureSpringForcing(K=1.0, beta=6.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        assert eval_forcing(f, 0.0, 0.0, 0.0) == 6.0

    def test_harmonic_at_start(self):
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.0)
        assert eval_forcing(f, 6.0, 0.0, 0.0) == 0.0

    def test_harmonic_reference_marker(self):
        # published force-plane marker of the h=0.01 benchmark run
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.0)
        b = eval_forcing(f, -6.24223, 0.0, 13.38)
        assert b == pytest.approx(0.365928, abs=1e-5)

    def test_damping_term(self):
        f = HarmonicForcing(beta=0.0, Omega=1.0, alpha=0.5)
        assert eval_forcing(f, 0.0, 2.0, 0.0) == -2.0

    def test_array_evaluation(self):
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.0)
        ts = np.array([0.0, 1.0, 2.0])
        out = eval_forcing(f, 6.0, 0.0, ts)
        assert out.shape == (3,)
        assert out[0] == 0.0

    @given(x=st.integers(-8, 8), k=st.integers(-4, 4), kk=st.integers(1, 5))
    def test_affine_in_x_exact(self, x, k, kk):
        # dyadic inputs make the affine identity b(x+d) - b(x) = -K d exact
        f = TemperatureSpringForcing(K=float(kk), beta=2.0,
                                     T=Drive(terms=((3.0, 0.0, 0.0),)))
        delta = math.ldexp(1.0, k)
        lhs = eval_forcing(f, x + delta, 0.0, 0.0) - eval_forcing(f, x, 0.0, 0.0)
        assert lhs == -kk * delta

    @given(x=st.floats(-1e3, 1e3), delta=st.floats(-10, 10),
           K=st.floats(0.01, 1e3))
    def test_affine_in_x(self, x, delta, K):
        f = TemperatureSpringForcing(K=K, beta=1.0,
                                     T=Drive(terms=((0.5, 0.0, 0.0),)))
        lhs = eval_forcing(f, x + delta, 0.0, 1.0) - eval_forcing(f, x, 0.0, 1.0)
        assert lhs == pytest.approx(-K * delta, rel=1e-9, abs=1e-9)


S, D = PhaseLabel.STATIC.value, PhaseLabel.DYNAMIC.value


def _friction(p, v, b, phase):
    """friction_force at the samples (v, b) of one phase label, as arrays."""
    v = np.array(v, dtype=float)
    return friction_force(p, v, np.array(b, dtype=float),
                          np.full(v.shape, phase, dtype=np.int8))


class TestFrictionForce:
    def setup_method(self):
        self.p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)

    def test_static_equilibrium(self):
        assert _friction(self.p, [0.0], [0.9], S).tolist() == [0.9]

    def test_static_requires_rest(self):
        with pytest.raises(ValueError):
            _friction(self.p, [0.1], [0.9], S)

    def test_dynamic_sign_law(self):
        assert _friction(self.p, [-2.0, 3.0], [0.0, -5.0], D).tolist() == [-1.0, 1.0]

    def test_isolated_zero_clamps(self):
        assert _friction(self.p, [0.0, 0.0, 0.0], [3.0, -3.0, 0.4],
                         D).tolist() == [1.0, -1.0, 0.4]

    def test_isolated_zero_value_outside_vi(self):
        # at a stuck step (v'=0) the discrete VI residual involves only
        # (v, v', b, f); the reported friction value never enters, so any
        # bounded convention is admissible -- the clamp keeps |F| <= f_d
        from conftest import vi_residual
        phis = np.linspace(-3, 3, 601)
        res = vi_residual(v_old=0.0, v_new=0.0, b=0.9, f=1.2, h=0.01, m=1.0,
                          phis=phis)
        assert np.all(res <= 1e-15)
        for reported in (-1.0, 0.0, 0.9, 1.0):
            assert abs(reported) <= self.p.f_s
            assert np.all(res <= 1e-15)  # residual independent of the report

    def test_arrays_match_the_scalar_cases(self):
        # the cases above, as one mixed call and one call per phase
        cases = [(0.0, 0.9, S, 0.9), (-2.0, 0.0, D, -1.0), (3.0, -5.0, D, 1.0),
                 (0.0, 3.0, D, 1.0), (0.0, -3.0, D, -1.0), (0.0, 0.4, D, 0.4)]
        v, b, phase, expect = (np.array(col) for col in zip(*cases))
        out = friction_force(self.p, v, b, phase.astype(np.int8))
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, expect)
        dyn = phase == D
        assert np.array_equal(_friction(self.p, v[dyn], b[dyn], D), expect[dyn])
        assert np.array_equal(_friction(self.p, np.zeros(2), [0.9, -1.1], S),
                              [0.9, -1.1])

    def test_arrays_reject_any_moving_static_sample(self):
        phase = np.array([S, D, S], dtype=np.int8)
        with pytest.raises(ValueError, match="static phase requires v = 0"):
            friction_force(self.p, np.array([0.0, 1.0, 0.1]),
                           np.array([0.9, 0.9, 0.9]), phase)
        with pytest.raises(ValueError, match="static phase requires v = 0"):
            _friction(self.p, [0.0, 0.1], [0.9, 0.9], S)

    @given(v=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6,
                       max_value=1e6),
           b=st.floats(-1e3, 1e3))
    def test_magnitude_bounds(self, v, b):
        p = FrictionParams(m=1.0, f_d=0.7, f_s=1.1)
        [out] = _friction(p, [v], [b], D).tolist()
        if v != 0:
            assert out == math.copysign(0.7, v)
        else:
            assert abs(out) <= 0.7


def _series_drive(times, temps):
    """The drive built from a sampled series, as the CLI builds it."""
    return Drive(knots=np.array(times), values=np.array(temps))


class TestTemperatureSources:
    def test_series_interpolation_midpoint(self):
        T = _series_drive([0.0, 600.0], [10.0, 10.5])
        assert T.at(300.0) == 10.25
        assert T.at(0.0) == 10.0
        assert T.at(600.0) == 10.5

    def test_series_domain_error(self):
        T = _series_drive([0.0, 600.0], [10.0, 10.5])
        with pytest.raises(TemperatureDomainError):
            T.at(601.0)
        with pytest.raises(TemperatureDomainError):
            T.at(-1.0)
        with pytest.raises(TemperatureDomainError):
            T.at(np.array([0.0, 601.0]))

    def test_series_validation(self):
        # the drive's table checks itself: it is the one sampled-record type
        for knots, values in [
            ([0.0, 0.0], [1.0, 2.0]),  # knots not strictly increasing
            ([1.0, 0.0], [1.0, 2.0]),
            ([0.0, 1.0], [1.0]),  # lengths differ
            ([0.0], [1.0]),  # one knot
            ([], []),
            ([[0.0, 1.0]], [[1.0, 2.0]]),  # not one-dimensional
        ]:
            with pytest.raises(ValueError):
                Drive(knots=np.array(knots), values=np.array(values))

    def test_sampled_source_vectorized(self):
        T = _series_drive([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        out = T.at(np.array([0.5, 1.5]))
        assert np.allclose(out, [1.0, 1.0])

    def test_analytic_source(self):
        T = Drive(terms=((1.0, 1.0, 0.0),))
        assert T.at(0.0) == 1.0
        assert math.isinf(T.t_max)


class TestDrive:
    KNOTS, VALUES = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, -2.0])

    def test_every_part(self):
        # a constant is the zero-frequency term
        T = Drive(terms=((0.5, 0.0, 0.0), (2.0, 1.5, 0.3), (0.5, 4.0, 0.0)),
                  knots=self.KNOTS, values=self.VALUES, scale=0.5)
        ts = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        expect = 0.5 + 2.0 * np.cos(1.5 * ts + 0.3) \
            + 0.5 * np.cos(4.0 * ts) + 0.5 * np.interp(ts, self.KNOTS, self.VALUES)
        np.testing.assert_allclose(T.at(ts), expect, rtol=0, atol=1e-14)
        for t, e in zip(ts.tolist(), expect.tolist()):
            assert T.at(t) == pytest.approx(e, abs=1e-14)
        assert T.t_max == 3.0
        assert T.at(np.array([])).shape == (0,)

    def test_one_part_keeps_its_bits(self):
        # absent parts add exact zeros: the forcings reproduce their formulas
        f = HarmonicForcing(beta=6.0, Omega=0.25)
        for t in np.linspace(0.0, 100.0, 101).tolist():
            assert eval_forcing(f, 1.3, 0.0, t) == 6.0 * math.cos(0.25 * t) - 1.3
        ts = np.linspace(0.0, 3.0, 31)
        T = Drive(knots=self.KNOTS, values=self.VALUES)
        assert np.array_equal(T.at(ts), np.interp(ts, self.KNOTS, self.VALUES))
        # the zero-frequency term is the constant, bit for bit
        for a in (0.5, -1.3, 1e-300, 6.02e23):
            T = Drive(terms=((a, 0.0, 0.0),))
            assert all(T.at(t) == a for t in ts.tolist())
            assert np.all(T.at(ts) == a)

    def test_harmonic_is_the_spring_law(self):
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.3)
        assert (f.K, f.beta, f.c) == (1.0, 6.0, 0.6)
        assert f.T == Drive(terms=((1.0, 0.25, 0.0),))
        assert eval_forcing(f, 2.0, 0.5, 0.0) == pytest.approx(6.0 - 0.3 - 2.0)

    @pytest.mark.parametrize("make", [
        lambda: Drive(terms=((math.nan, 0.0, 0.0),)),
        lambda: Drive(terms=((1.0, 1.0, math.inf),)),
        lambda: Drive(terms=((1.0, math.nan, 0.0),)),
        lambda: Drive(terms=((math.inf, 1.0, 0.0),)),
        lambda: Drive(knots=[0.0, math.inf], values=[0.0, 1.0]),
        lambda: Drive(knots=[0.0, 1.0], values=[0.0, math.nan]),
        lambda: Drive(knots=[0.0, 1.0], values=[0.0, 1.0], scale=math.nan),
        lambda: Drive(knots=[0.0, 1.0]),
        lambda: TemperatureSpringForcing(K=math.inf, beta=1.0, T=Drive()),
        lambda: TemperatureSpringForcing(K=1.0, beta=math.nan, T=Drive()),
        lambda: TemperatureSpringForcing(K=1.0, beta=1.0, T=Drive(), c=math.nan),
        lambda: HarmonicForcing(beta=6.0, Omega=math.nan),
        lambda: HarmonicForcing(beta=6.0, Omega=0.25, alpha=math.inf),
    ])
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises(ValueError):
            make()


class TestStateAndEvents:
    def test_event_log_validate(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.3, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.3)
        log = [
            Event(0.0, EventKind.ENTER_STATIC, 0.0),
            Event(1.0, EventKind.ENTER_DYNAMIC, 0.0, epsilon=1),
        ]
        validate_events(log, f, p, tol=1e-9)

    def test_event_log_rejects_unsorted(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0, T=Drive())
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        log = [
            Event(1.0, EventKind.ENTER_STATIC, 0.0),
            Event(0.5, EventKind.ENTER_DYNAMIC, 0.0, epsilon=1),
        ]
        with pytest.raises(AssertionError):
            validate_events(log, f, p, tol=1e-9)

    def test_event_log_rejects_nonalternating(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0, T=Drive())
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        log = [
            Event(0.0, EventKind.ENTER_STATIC, 0.0),
            Event(1.0, EventKind.ENTER_STATIC, 0.0),
        ]
        with pytest.raises(AssertionError):
            validate_events(log, f, p, tol=1e-9)


class TestTrajectory:
    def _make(self, phase, v, friction, b):
        n = len(phase)
        return Trajectory(t=np.arange(n, dtype=float), x=np.zeros(n),
                          v=np.asarray(v, dtype=float),
                          friction=np.asarray(friction, dtype=float),
                          b=np.asarray(b, dtype=float),
                          phase=np.asarray(phase, dtype=np.int8))

    def test_validate_accepts_consistent(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = self._make(phase=[0, 1, 1], v=[0.0, 2.0, -1.0],
                          friction=[0.5, 1.0, -1.0], b=[0.5, 3.0, 0.2])
        validate_trajectory(traj, p)

    def test_validate_rejects_static_motion(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = self._make(phase=[0], v=[0.5], friction=[0.1], b=[0.1])
        with pytest.raises(AssertionError):
            validate_trajectory(traj, p)

    def test_validate_rejects_overthreshold_static(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = self._make(phase=[0], v=[0.0], friction=[1.5], b=[1.5])
        with pytest.raises(AssertionError):
            validate_trajectory(traj, p)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([1.0, 0.0]), x=np.zeros(2), v=np.zeros(2),
                       friction=np.zeros(2), b=np.zeros(2),
                       phase=np.zeros(2, dtype=np.int8))
