"""Shortest round-trip text of float64 columns, as ``repr()`` writes it.

``repr_rows`` turns equal-length float64 columns into the bytes of
``"%r,%r,%r\\n" % row`` for every row, with numpy arithmetic over a whole
column at a time instead of one ``float.__repr__`` per value.  The digits
come from R. Giulietti's Schubfach ("The Schubfach way to render doubles",
2020; cf. U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018) in
uint64 arithmetic, and the text is laid out as CPython's ``repr`` does: the
shortest digits that round to the value, the nearest of those (a tie to the
even one), in fixed notation for 1e-4 <= |x| < 1e16 and as d.ddde±XX[X]
otherwise.

oqf.io imports this module at its first CSV write, so importing oqf.io
builds none of the tables below.  Every constant that meets a uint64 array
is an np.uint64: uint64 mixed with int64 promotes to float64 and loses bits.
Column-long temporaries are deleted as soon as they are spent, which keeps
a block's peak at a few of them.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of every finite double
_POW10 = np.array([10**i for i in range(18)], dtype=_U)
_POW2 = np.array([1 << i for i in range(6)], dtype=_U)
# A value's source bytes, one plane each: "000" and its 17 significant
# digits, left-aligned (so plane 0 is a "0"), "0" and the three digits of
# |decpt - 1|, then ".-e+" and the field separator.
_EXP, _DOT, _MINUS, _E, _PLUS, _SEP = 20, 24, 25, 26, 27, 28
_FORMS = 24  # 20 fixed-point forms, decpt -3..16, then 4 exponent forms
_WIDTH = 25  # the longest field, "-d.ddddddddddddddde-308,"


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1838394."""
    return (e * 913124641741) >> 38


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """For each k in [_K_MIN, _K_MAX], g = floor(10^-k / 2^r) + 1 with
    2^125 <= g < 2^126, split as g1 2^63 + g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // 10**k + 1
        else:
            g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=_U), np.array(g0, dtype=_U)


def _layout_table() -> tuple[np.ndarray, np.ndarray]:
    """For each shape (sign, significant digits, form) and output column,
    the source plane of the field's byte there, padded with its separator,
    and each shape's field length, its separator included."""
    layout, lengths = bytearray(), []
    for neg in (0, 1):
        for n in range(1, 18):
            sig = list(range(3, 3 + n))
            for form in range(_FORMS):
                field = [_MINUS] * neg
                point = form - 3
                if form >= 20:  # d[.ddd]e±XX[X]
                    field += sig[:1] + ([_DOT] + sig[1:]) * (n > 1)
                    field += [_E, _MINUS if form >= 22 else _PLUS]
                    field += range(_EXP + 2 - form % 2, _EXP + 4)
                elif point <= 0:  # 0.000ddd
                    field += [0, _DOT] + [0] * -point + sig
                elif point < n:  # ddd.ddd
                    field += sig[:point] + [_DOT] + sig[point:]
                else:  # ddd000.0
                    field += sig + [0] * (point - n) + [_DOT, 0]
                field.append(_SEP)
                lengths.append(len(field))
                layout += bytes(field + [_SEP] * (_WIDTH - len(field)))
    layout = np.frombuffer(layout, dtype=np.uint8).reshape(-1, _WIDTH).T.copy()
    return layout, np.array(lengths, dtype=np.intp)


_G1, _G0 = _g_table()
# The four characters of each of 0..9999, as four rows of bytes, and the
# trailing zeros of each as four digits.
_CHARS = np.arange(10000, dtype=np.int16) // np.array([[1000], [100], [10], [1]], dtype=np.int16)
_CHARS = (_CHARS % 10 + ord("0")).astype(np.uint8)
_ZEROS = np.cumprod(_CHARS[::-1] == ord("0"), axis=0, dtype=np.int8).sum(axis=0, dtype=np.int8)
# A value's form by decpt - _K_MIN: fixed for -4 < decpt <= 16, else the
# exponent form by the exponent's sign and digit count.
_DECPT = np.arange(_K_MIN, 310)
_FORM = np.where((_DECPT > -4) & (_DECPT <= 16), _DECPT + 3,
                 20 + 2 * (_DECPT < 1) + (np.abs(_DECPT - 1) >= 100))
_LAYOUT, _LENGTHS = _layout_table()


def repr_rows(columns) -> np.ndarray:
    """The bytes of ``"%r,...,%r\n" % row`` for each row of equal-length,
    non-empty, 1-d native float64 ``columns``, all finite, as a uint8 array.

    Each value's digits come from _shortest_decimal, and its shape (sign,
    significant digits, form) picks a layout, the source plane of each of
    its field's bytes.  A first pass over the columns finds each field's
    shape, and so its offset.  The second lays the fields out a column at a
    time, with one gather per output column: each value writes that
    column's byte at its field's offset, or past its field's end, its
    separator there once more.  So every index array is as long as a
    column, and none is as long as the output.
    """
    rows = len(columns[0])
    fields = [_field_shape(column.view(_U)) for column in columns]
    end = np.cumsum(_LENGTHS.take(np.column_stack([f[2] for f in fields]), mode="clip"))
    out = np.empty(int(end[-1]), dtype=np.uint8)
    end = end.reshape(rows, -1) - 1  # each field's last byte
    planes = np.empty((_SEP + 1, rows), dtype=np.uint8)
    for plane, char in ((0, "0"), (1, "0"), (2, "0"), (_EXP, "0"), (_DOT, "."),
                        (_MINUS, "-"), (_E, "e"), (_PLUS, "+")):
        planes[plane] = ord(char)
    flat = planes.ravel()
    layout = _LAYOUT.astype(np.intp) * rows
    value = np.arange(rows)
    for j, sep in enumerate(b"," * (len(columns) - 1) + b"\n"):
        f, decpt, kind = fields[j]
        fields[j] = None
        for plane in range(16, 0, -4):  # the digits, four at a time from the last
            rest = f // _U(10**4)
            f -= rest * _U(10**4)
            planes[plane : plane + 4] = _CHARS.take(f.view(np.int64), axis=1, mode="clip")
            f = rest
        planes[3] = f
        planes[3] += ord("0")
        planes[_EXP + 1 : _EXP + 4] = _CHARS[1:].take(np.abs(decpt - 1), axis=1, mode="clip")
        planes[_SEP] = sep
        del f, rest, decpt
        kind = kind.astype(np.intp)
        last = end[:, j].copy()
        first = last - _LENGTHS.take(kind, mode="clip")
        first += 1
        dest = np.empty_like(last)
        for p, index in enumerate(layout[: int((last - first).max()) + 1]):
            index = index.take(kind, mode="clip")
            index += value
            np.minimum(np.add(first, p, out=dest), last, out=dest)
            out[dest] = flat.take(index)
    return out


def _field_shape(bits):
    """(f, decpt, shape) of each finite double whose bits are ``bits``: f,
    its shortest digits, left-aligned to 17 (uint64), the decimal point's
    place before them (int16), and the shape of its field (int16)."""
    f, decpt = _shortest_decimal(bits)
    digits = 16 + (f >= _POW10[16])  # of f, for a normal value
    tiny = f < _POW10[15]
    if tiny.any():  # subnormals, and zero: no digits, decpt 1
        digits[tiny] = np.searchsorted(_POW10, f[tiny], side="right")
        decpt[f == 0] = 1
    decpt += digits
    f *= _POW10.take(17 - digits, mode="clip")
    # significant digits - 1: 16 less f's trailing zeros, counted in its
    # groups of four digits from the last
    shape = (bits >> _U(63)).view(np.int64) * 17 + 16
    rest, zero = f, True
    for _ in range(4):
        quotient = rest // _U(10**4)
        group = (rest - quotient * _U(10**4)).view(np.int64)
        shape -= _ZEROS.take(group, mode="clip") * zero
        zero = zero & (group == 0)
        rest = quotient
    shape *= _FORMS
    shape += _FORM.take(decpt - _K_MIN, mode="clip")
    return f, decpt.astype(np.int16), shape.astype(np.int16)


def _shortest_decimal(bits):
    """(f, k) such that f 10^k, for each finite double whose bits are
    ``bits`` (uint64), is the shortest decimal that rounds to it, and of
    those the nearest, a tie going to even f: the digits of repr(), maybe
    with trailing zeros.  Zero gives f = 0.

    With the value c 2^q and 10^k <= 2^q, its ulp, three products with
    g ~ 10^-k rounded to odd give it and its rounding interval in units of
    10^k / 4.  The multiple of 10^(k+1) in the interval, if it holds one,
    is the answer, else the nearer of the multiples of 10^k either side of
    the value that it holds.  Subnormals take the same path.
    """
    biased = (bits >> _U(52)) & _U(0x7FF)
    c = bits & _U((1 << 52) - 1)
    irregular = (c == 0) & (biased > _U(1))  # the gap below is half the gap above
    c |= np.minimum(biased, _U(1)) << _U(52)
    q = np.maximum(biased, _U(1)).view(np.int64) - 1075
    del biased
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for an irregular value
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    step = _POW2.take(q + _flog2pow10(-k) + 2, mode="clip")  # 2^h, h in 2..5
    del q
    g1 = _G1.take(k - _K_MIN, mode="clip")
    g0 = _G0.take(k - _K_MIN, mode="clip")
    # c becomes 4c 2^h; the interval's ends lie 2 2^h above it and 2 2^h
    # below, or 2^h below for an irregular value, and are open for an odd c
    odd = c & _U(1)
    c <<= _U(2)
    c *= step
    vb = _round_to_odd(g1, g0, c)
    s = vb >> _U(2)
    nearer = (vb & _U(3)) + (s & _U(1)) > _U(2)  # s + 1 over s, a tie to even
    del vb
    shorter = s // _U(10)
    shorter *= _U(10)  # the multiple of 10^(k+1) at or below s
    end = c + (step << _U(1))
    end = _round_to_odd(g1, g0, end)
    end -= odd
    up = (s + _U(1)) << _U(2) <= end
    above = (shorter + _U(10)) << _U(2) <= end
    step *= _U(2) - irregular
    np.subtract(c, step, out=end)
    del c, step, irregular
    end = _round_to_odd(g1, g0, end)
    end += odd
    down = end <= s << _U(2)
    below = end <= shorter << _U(2)
    del end, g1, g0, odd
    # s or s + 1, whichever the interval holds, or if both, the nearer; a
    # multiple of 10^(k+1), one digit shorter, if the interval holds one
    s += ~down | (up & nearer)
    s = np.where(below != above, shorter + _U(10) * above, s)
    s[(bits << _U(1)) == 0] = 0
    return s, k


def _round_to_odd(g1, g0, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0, its last bit set when bits
    64..126 of the product are not all zero: Schubfach's rop, over uint64
    arrays."""
    cp_lo = cp & _LOW32
    cp_hi = cp >> _U(32)
    z = g1 * cp
    z >>= _U(1)
    z += _mulhi(g0, cp_lo, cp_hi)
    vb = _mulhi(g1, cp_lo, cp_hi)
    vb += z >> _U(63)
    z &= _LOW63
    z += _LOW63
    z >>= _U(63)
    vb |= z
    return vb


def _mulhi(a, b_lo, b_hi):
    """High 64 bits of the 128-bit products of uint64 arrays a and
    b = b_hi 2^32 + b_lo, from the products of their 32-bit halves."""
    a_lo = a & _LOW32
    a_hi = a >> _U(32)
    mid = a_lo * b_lo
    mid >>= _U(32)
    a_lo *= b_hi
    mid += a_lo & _LOW32
    a_lo >>= _U(32)
    high = a_hi * b_hi
    high += a_lo
    a_hi *= b_lo
    mid += a_hi & _LOW32
    a_hi >>= _U(32)
    high += a_hi
    mid >>= _U(32)
    high += mid
    return high
