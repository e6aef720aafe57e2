"""Rows of numbers as text, byte for byte what ``"%.9g" % x`` writes.

Each number fills a 16-byte slot (its text, zero bytes, its separator) laid
out by the table row of its key (sign, exponent, significant digits).

Why the 9-digit mantissa m is right.  P[e] <= |x| < P[e+1] picks e, P[k] the
double nearest 10**k (-14 <= k <= 30); M = |x| * S[e], S[e] the double nearest
10**(8 - e).  Below 1e9 the computed M is within 3e-7 of the exact one (two
roundings of 2**-53), so where 1e8 <= M < 1e9 and |M - rint(M)| < 0.5 - 1e-6,
m = rint(M) is the integer nearest the exact mantissa and no tie: what ``%``
prints, from the correctly rounded dtoa.  An exact mantissa outside [1e8, 1e9)
is then within 3e-7 of an edge, where both exponents print the same text;
m = 1e9 carries into the exponent.  Zero is row 0, scaled by 0.  The rest (inf,
nan, |x| < 1e-14 or >= 1e31, near ties) is printed by ``_FMT %`` itself.
"""

from __future__ import annotations

import numpy as np

_FMT = "%.9g"
_BLOCK = 2048  # numbers formatted per write, to bound the temporaries
_XMIN, _XMAX = -15, 31  # the exponents of the layout rows; _XMIN is zero's
_U = np.uint64


def _tables():
    """P, S, the ASCII digits of 0..9999 (first in the low byte), the layouts."""
    c = np.arange(48, 58, dtype=_U)
    digits = (c[:, None, None, None] | c[:, None, None] << _U(8)
              | c[:, None] << _U(16) | c << _U(24)).ravel()
    k = np.arange(_XMIN + 1, _XMAX)  # the exponents of rows 1, 2, ...
    P, S = (np.where(k >= 0, 10.0 ** abs(k), 1 / 10.0 ** abs(k)) for k in (k, 8 - k))
    neg, X, d = (a.ravel() for a in np.meshgrid(
        (0, 1), np.arange(_XMIN, _XMAX + 1), np.arange(1, 10), indexing="ij"))
    X = np.where(X == _XMIN, 0, X)  # zero prints as "0"
    fixed, small = (X >= -4) & (X < 9), (X >= -4) & (X < 0)  # small: 0.000ddd
    p0 = neg + np.where(small, 1 - X, 0)  # the byte of the first digit
    ca = np.where(small, d - 1, np.where(fixed, X, 0))  # tail digits before '.'
    cb = np.where(small, ca, np.maximum(d - 1, ca))  # tail digits in all
    E = p0 + 1 + cb + (cb > ca)  # the byte of 'e'
    j = np.arange(16)[:, None]
    char = np.select(
        [j < neg, small & (j == neg + 1), small & (j >= neg) & (j < p0),
         (cb > ca) & (j == p0 + 1 + ca), ~fixed & (j == E),
         ~fixed & (j == E + 1), ~fixed & (j == E + 2), ~fixed & (j == E + 3)],
        [45, 46, 48, 46, 101, 43 + 2 * (X < 0), 48 + abs(X) // 10,
         48 + abs(X) % 10], 0).astype(_U) << _U(8) * (j % 8).astype(_U)
    ma, mb = ((_U(1) << _U(8) * n.astype(_U)) - _U(1) for n in (ca, cb))
    s0 = _U(8) * p0.astype(_U)  # shifts, masks and constant bytes of the slot
    return P, np.concatenate([[0.0], S]), digits, np.stack([
        s0, s0 + _U(8), s0 + _U(16), _U(56) - s0, _U(48) - s0, ma, mb & ~ma,
        char[:8].sum(0, dtype=_U), char[8:].sum(0, dtype=_U)])


_P, _S, _DIGITS4, _LAYOUT = _tables()
_BYTES, _ZEROS8 = 256.0 ** np.arange(8), _U(0x3030303030303030)  # 8 '0's


def _mantissa(x: np.ndarray):
    """m where it is proven right (else 0), the exponent row, and the proof."""
    a = np.abs(x)
    e = np.searchsorted(_P, a, side="right")
    with np.errstate(invalid="ignore"):  # inf - inf
        M = a * _S[e]
        m = np.rint(M)
        fast = (M >= 1e8) & (M < 1e9) & (np.abs(M - m) < 0.5 - 1e-6) | (a == 0)
    carry = m == 1e9
    return np.where(fast, np.where(carry, 1e8, m), 0.0), np.where(carry, e + 1, e), fast


def _text(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The numbers of x as _FMT, each followed by the top byte of its sep."""
    m, row, fast = _mantissa(x)
    q = np.floor(m / 1e4)  # correctly rounded, so the floor is exact
    lo = (m - q * 1e4).astype(np.intp)  # the last four digits
    m = np.floor(q / 1e4)  # the first digit
    q = (q - m * 1e4).astype(np.intp)  # the four after it
    tail = _DIGITS4[q] | _DIGITS4[lo] << _U(32)  # the 8 digits after the first
    key = np.searchsorted(_BYTES, (tail ^ _ZEROS8).view(np.int64).astype(float),
                          side="right")  # significant: up to the last not '0'
    key += np.where(np.signbit(x), row + _XMAX - _XMIN + 1, row) * 9
    s0, sA, sB, rA, rB, mA, mB, c_lo, c_hi = _LAYOUT
    A = tail & mA.take(key)  # the tail digits before the point
    tail &= mB.take(key)  # and after it
    out = np.empty((len(x), 2), "<u8")
    out[:, 0] = (m + 48).astype(_U) << s0.take(key) | A << sA.take(key) \
        | tail << sB.take(key) | c_lo.take(key)
    out[:, 1] = A >> rA.take(key) | tail >> rB.take(key) | c_hi.take(key) | sep
    bad = np.flatnonzero(~fast)
    out[bad] = 0
    text = out.tobytes().translate(None, b"\0")
    if not len(bad):
        return text
    cuts = [0, *np.count_nonzero(out.view("u1").reshape(-1, 16), 1).cumsum()[bad], None]
    fill = [(_FMT % float(x[i]) + chr(int(sep[i]) >> 56)).encode() for i in bad] + [b""]
    return b"".join(text[a:b] + f for a, b, f in zip(cuts, cuts[1:], fill))


def write_rows(fh, columns) -> None:
    """Write the rows of ``columns`` to binary ``fh``, _BLOCK numbers a time."""
    rows = max(1, _BLOCK // len(columns))
    sep = np.tile(np.array([32 << 56] * (len(columns) - 1) + [10 << 56], _U), rows)
    for i in range(0, len(columns[0]), rows):
        block = np.column_stack([column[i:i + rows] for column in columns]).ravel()
        fh.write(_text(block, sep[:len(block)]))
