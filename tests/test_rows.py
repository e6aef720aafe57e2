"""The numpy row writer against ``"%.9g" % x``, the byte contract of every
number the command line writes."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stickslip import PhaseLabel, Trajectory, _rows, cli
from stickslip.cli import EXIT_OK, main

SPACE = np.uint64(32 << 56)  # a separator byte as _text takes it


def reference(values) -> bytes:
    return "".join("%.9g " % v for v in values).encode()


def kernel(values) -> bytes:
    x = np.asarray(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel emits no numpy warning
        return _rows._text(x, np.full(len(x), SPACE))


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


def _special() -> list[float]:
    """Subnormals, zeros, infinities, nan, powers of ten and the fast path's
    edges, each a few ulps either side, and exact decimal ties."""
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 999999999.5, 99999999.95, 0.99999999995]
    for center in [10.0 ** k for k in range(-20, 35)] + [1e-5, 1e-4, 1e8, 1e9, 1e-14, 1e31]:
        values += [_ulps(sign * center, k) for sign in (1, -1) for k in range(-2, 3)]
    # integers * 10 + 5 are exact ties at the 9th digit, also scaled by 2**j;
    # the doubles nearest such decimals at other exponents are near ties
    rng = np.random.default_rng(7)
    ties = rng.integers(10**8, 10**9, 400) * 10 + 5
    values += [float(t) * 2.0 ** j for t in ties[:200] for j in (0, 1, -3, 5)]
    values += [_ulps(float(f"{t}e{k}"), u) for t, k in zip(
        ties[200:], rng.integers(-25, 25, 200)) for u in (-1, 0, 1)]
    return values


def test_special_values():
    values = _special()
    assert [v for v in values if kernel([v]) != reference([v])] == []
    assert kernel(values) == reference(values)


@settings(max_examples=3000, deadline=None)
@given(st.integers(0, 2**64 - 1))
@example(0x8000000000000000)  # -0
@example(0x0000000000000001)  # the least subnormal
@example(0x7FF0000000000000)  # inf
def test_equals_percent_on_bit_patterns(bits):
    value = float(np.array(bits, dtype=np.uint64).view(np.float64))
    assert kernel([value]) == reference([value])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                min_size=1, max_size=50))
def test_equals_percent_on_arrays(values):
    # fallbacks between fast numbers keep their places
    assert kernel(values) == reference(values)


def test_seeded_sweep_of_a_million_bit_patterns():
    rng = np.random.default_rng(20261022)
    x = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    for block in np.array_split(x, 50):
        assert kernel(block) == reference(block.tolist())


def test_finite_values_of_every_magnitude():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-16, 33, 200_000)
    assert kernel(x) == reference(x.tolist())


class _Refuse:
    def __mod__(self, value):
        raise AssertionError(f"{value!r} took the % fallback")


def test_euler_fine_columns_never_take_the_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(_rows, "_FMT", _Refuse())
    rc = main(["simulate", "--solver", "euler", "--h", "0.001", "--forcing", "shaw",
               "--m", "1.0", "--fd", "1.0", "--fs", "1.2", "--beta", "6.0",
               "--omega", "0.25", "--x0", "6.0", "--t-end", "65.0",
               "--out", str(tmp_path / "eu")])
    assert rc == EXIT_OK
    assert len((tmp_path / "eu.txt").read_bytes().splitlines()) == 65001


def _trajectory(n: int, seed: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-6, 7, (5, n))
    cols[2, rng.random(n) < 0.3] = 0.0
    phase = np.cumsum(rng.random(n) < 0.05) % 2  # runs of either phase
    return Trajectory(t=np.arange(n) * 0.5, x=cols[0], v=cols[2], friction=cols[3],
                      b=cols[4], phase=phase.astype(np.int8))


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("n", [1, 408, 409, 410, 818, 819, 820, 2000])
def test_split_files_are_slices_of_the_trajectory_text(tmp_path, n, header):
    """Rows 409 = _BLOCK // 5 and 818 end a block of numbers."""
    assert _rows._BLOCK // 5 == 409
    traj = _trajectory(n, seed=n)
    text = tmp_path / "run.txt"
    cli.write_trajectory(text, traj, header=header)
    head = b"# t x v friction b\n" if header else b""
    rows = [reference(row)[:-1] + b"\n" for row in zip(
        traj.t.tolist(), traj.x.tolist(), traj.v.tolist(),
        traj.friction.tolist(), traj.b.tolist())]
    assert text.read_bytes() == head + b"".join(rows)

    paths = cli.write_split_segments(tmp_path / "run", traj, text, header=header)
    cuts = [0, *(np.flatnonzero(np.diff(traj.phase)) + 1).tolist(), n]
    assert len(paths) == len(cuts) - 1
    count = {"s": 0, "d": 0}
    for path, start, end in zip(paths, cuts, cuts[1:]):
        tag = "s" if traj.phase[start] == PhaseLabel.STATIC.value else "d"
        count[tag] += 1
        assert path.name == f"run_{tag}{count[tag]}.txt"
        assert path.read_bytes() == head + b"".join(rows[start:end])


def test_rows_of_integer_and_list_columns(tmp_path):
    # the calibrate history writes an integer column next to a list
    with open(tmp_path / "h.txt", "wb") as fh:
        _rows.write_rows(fh, (np.arange(3), [0.5, 1e-20, 3.0]))
    assert (tmp_path / "h.txt").read_bytes() == b"0 0.5\n1 1e-20\n2 3\n"
