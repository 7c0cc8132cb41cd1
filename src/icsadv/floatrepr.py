"""``repr`` text of float64 values, a whole array at a time.

``repr_cells(x)`` lays out each value's ``repr`` bytes with no Python call
per value. The decimal is the one ``repr`` picks: the shortest inside the
value's rounding interval (half-way to each neighbour, the ends included
only when the significand is even), among those the closest to the value,
and the even one on an exact tie. Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020; Java's ``Double.toString``) finds it with
integer arithmetic alone: the significand times a 126-bit upper bound of
a power of ten (``_powers_of_ten``, built from Python ints), rounded to
odd, here from 32-bit limbs on np.uint64 lanes. Java asks for two digits
at least; ``repr`` does not, so Schubfach's two-digit steps are left out.
The text is ``repr``'s: fixed notation when the decimal point falls from
3 places before the first digit to 16 after it (``0.0001``,
``9999999999999998.0``), with ``.0`` on an integral value, and otherwise
``d.ddde±XX`` (``1e-05``, ``1e+16``).

Every integer array is np.uint64 and every constant a 0-d np.uint64 array
(``_U``), so no operand promotes to float64; decimal exponents carry a
bias of ``_BIAS`` to stay unsigned, and no shift reaches 64 bits. Values
go through ``_CHUNK`` at a time, so each temporary stays small.
"""
from __future__ import annotations

import numpy as np


class _Constants(dict):
    """np.uint64 constants, each a read-only 0-d array made on first use: a
    ufunc takes one at half the call cost of a Python int or a numpy
    scalar."""

    def __missing__(self, value):
        constant = np.array(value, dtype=np.uint64)
        constant.flags.writeable = False
        self[value] = constant
        return constant


_U = _Constants()

# the slots of one value's text (``repr_cells``), eight to a word:
#   [0:7] '-' and '0.000' as needed, ending at slot 6
#   [7:25] the 17 digits and the point among them
#   [25:30] 'e', the exponent's sign and three digits  [31] spare
WIDTH = 32
_TEMPLATE = [_U[w] for w in np.frombuffer(
    b"\0" * 7 + b"0" * 17 + b"\0e+000\0\0", dtype="<u8").tolist()]
_LEAD = int.from_bytes(b"0.000", "little")

_CHUNK = 8192  # values laid out at a time: each temporary is 64 KiB

_BIAS = 1024  # added to every decimal exponent, so that none is negative

_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)


def _powers_of_ten():
    """Per exponent index ``be + 2048 * irregular``: the biased decimal
    exponent k and the shift h as ``k << 3 | h``, and the two limbs of
    Schubfach's g, ``g1 * 2**63 + g0``, ``10**-k`` rounded up to 126 bits.

    ``be`` is the binary exponent field; ``irregular`` marks a power of two
    above the least normal, whose lower neighbour is half as far as the
    upper one.
    """
    be = np.arange(2048, dtype=np.int64)
    q = np.maximum(be, 1) - 1075  # the binary exponent of the significand
    k = np.concatenate([(q * 661971961083) >> 41,  # floor(log10(2**q))
                        (q * 661971961083 - 274743187321) >> 41])  # of 3/4 of it
    h = np.concatenate([q, q]) + ((-k * 913124641741) >> 38) + 2
    g1, g0 = [], []
    for kk in range(int(k.min()), int(k.max()) + 1):
        r = ((-kk * 913124641741) >> 38) - 125  # floor(log2(10**-kk)) - 125
        num, den = (10 ** -kk, 1) if kk <= 0 else (1, 10 ** kk)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    i = k - k.min()
    return (((k + _BIAS) << 3 | h).astype(np.uint64),
            np.array(g1, dtype=np.uint64)[i], np.array(g0, dtype=np.uint64)[i])


_KH, _G1, _G0 = _powers_of_ten()


def _product(a, b, bh, bl):
    """The high and low words of each 128-bit product ``a * b``, given the
    32-bit limbs of b, for ``a < 2**63`` and ``b < 2**60``: the middle sum
    then stays below 2**64."""
    ah, al = a >> _U[32], a & _U[0xFFFFFFFF]
    mid = al * bh + ah * bl + ((al * bl) >> _U[32])
    return ah * bh + (mid >> _U[32]), a * b


def _rop(x1, y1, y0):
    """Schubfach's ``rop`` of ``g * cp``: the product over 2**127 rounded
    down, its lowest bit set when the fraction dropped is not zero, from
    the high word ``x1`` of ``g0 * cp`` and the words of ``g1 * cp``."""
    z = (y0 >> _U[1]) + x1
    return (y1 + (z >> _U[63])) | (((z & _U[2 ** 63 - 1]) + _U[2 ** 63 - 1])
                                  >> _U[63])


def _moved_rop(x1, x0, y1, y0, g0, g1, s, sign):
    """``_rop`` of ``g * (cp + sign * 2**s)``, from the words of ``g0 * cp``
    and ``g1 * cp``: ``g0 << s`` and ``g1 << s`` added or taken away with
    their carries."""
    back = _U[64] - s
    if sign > 0:
        x = x0 + (g0 << s)
        y = y0 + (g1 << s)
        return _rop(x1 + (g0 >> back) + (x < x0), y1 + (g1 >> back) + (y < y0), y)
    x = x0 - (g0 << s)
    y = y0 - (g1 << s)
    return _rop(x1 - (g0 >> back) - (x > x0), y1 - (g1 >> back) - (y > y0), y)


def _shortest(bits):
    """The shortest decimal ``f * 10**(e - _BIAS)`` that reads back as the
    finite non-zero binary64 magnitude ``bits``; f has at most 17 digits.

    The significand c sits in its rounding interval from ``c - 1/2``
    (``c - 1/4`` at a power of two) to ``c + 1/2`` binary units; ``vbl``,
    ``vb`` and ``vbr`` are four times the interval's ends and c in units of
    ``10**k``, so ``s = vb // 4`` and ``s + 1`` are the two decimals of
    ``10**k`` around the value, and ``sp10`` the multiple of ten at or
    below s.
    """
    be = bits >> _U[52]
    t = bits & _U[2 ** 52 - 1]
    c = t | ((be != _U[0]) << _U[52])
    irregular = (t == _U[0]) & (be > _U[1])
    i = (be + (irregular << _U[11])).astype(np.intp)
    kh, g1, g0 = _KH[i], _G1[i], _G0[i]
    h = kh & _U[7]
    out = c & _U[1]  # an odd significand leaves out the interval's ends
    cp = c << (h + _U[2])
    cph, cpl = cp >> _U[32], cp & _U[0xFFFFFFFF]
    x1, x0 = _product(g0, cp, cph, cpl)
    y1, y0 = _product(g1, cp, cph, cpl)
    vb = _rop(x1, y1, y0)
    vbr = _moved_rop(x1, x0, y1, y0, g0, g1, h + _U[1], +1)
    vbl = _moved_rop(x1, x0, y1, y0, g0, g1, h + _U[1] - irregular, -1)
    low, high = vbl + out, vbr - out  # 4 * the decimals inside lie between
    s = vb >> _U[2]
    sp10 = s // _U[10] * _U[10]
    upin = low <= sp10 << _U[2]
    # one of sp10 and sp10 + 10 inside (two cannot be), or else s or s + 1:
    # the one inside, or the closer (vb against their midpoint 4s + 2), or
    # the even one
    use10 = upin != ((sp10 << _U[2]) + _U[40] <= high)
    up = ~(low <= s << _U[2]) | (((s << _U[2]) + _U[4] <= high)
                                 & ((vb & _U[3]) + (s & _U[1]) > _U[2]))
    return np.where(use10, sp10 + ~upin * _U[10], s + up), kh >> _U[3]


def _swar8(x):
    """The eight decimal digits of each ``x < 10**8``, one per byte, the
    first in the lowest."""
    hi = x // _U[10000]
    v = hi | ((x - hi * _U[10000]) << _U[32])
    q = ((v * _U[10486]) >> _U[20]) & _U[0x7F0000007F]  # / 100, per half
    v = q | ((v - q * _U[100]) << _U[16])
    q = ((v * _U[103]) >> _U[10]) & _U[0x000F000F000F000F]  # / 10, per quarter
    return q | ((v - q * _U[10]) << _U[8])


def _top_byte(w):
    """The index of the highest non-zero byte of each non-zero word whose
    bytes are all below 16, read from its float64 exponent."""
    return ((w.astype(np.float64).view(np.uint64) >> _U[52]) - _U[1023]) >> _U[3]


def repr_cells(x):
    """Each value's ``repr`` bytes, laid out in ``WIDTH`` slots.

    ``x`` is an array of finite float64 values. Returns ``(chars, keep)``,
    uint8 and bool arrays of shape ``x.shape + (WIDTH,)``:
    ``chars[i][keep[i]]`` are the ASCII bytes of ``repr(float(x[i]))``.
    The last slot is never kept, so a caller may put a separator there.
    """
    shape = np.shape(x)
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.uint64)
    words = np.empty((bits.size, WIDTH // 8), dtype=np.uint64)
    keep = np.empty(bits.size, dtype=np.uint64)
    for i in range(0, bits.size, _CHUNK):
        _text(bits[i:i + _CHUNK], words[i:i + _CHUNK], keep[i:i + _CHUNK])
    keep = np.unpackbits(keep.astype("<u8", copy=False).view(np.uint8)
                         .reshape(-1, 8), axis=1, count=WIDTH, bitorder="little")
    chars = words.astype("<u8", copy=False).view(np.uint8)
    return (chars.reshape(shape + (WIDTH,)),
            keep.view(bool).reshape(shape + (WIDTH,)))


def _text(bits, words, keep):
    """Lay out the text of the float64 values ``bits`` (viewed as words) in
    ``words``, ``WIDTH // 8`` to a value, and set bit j of each value's
    ``keep`` when slot j is part of its text."""
    mag = bits & _U[2 ** 63 - 1]
    zero = mag == _U[0]
    f, e = _shortest(mag)
    f[zero] = 0  # 0.0: the digit 0, the point after it
    # to 17 digits: f has the digits of 2**e2, or one more
    e2 = ((f | zero).astype(np.float64).view(np.uint64) >> _U[52]) - _U[1023]
    size = ((e2 * _U[1233]) >> _U[12]) + _U[1]
    f *= _POW10[(_U[17] - size).astype(np.intp)]
    more = f >= _U[10 ** 17]
    f = np.where(more, f // _U[10], f)
    # the value is 0.ddd * 10**(point - _BIAS)
    point = np.where(zero, _U[_BIAS + 1], e + size + more)
    first = f // _U[10 ** 16]
    f -= first * _U[10 ** 16]
    middle = f // _U[10 ** 8]
    middle, end = _swar8(middle), _swar8(f - middle * _U[10 ** 8])
    n = np.where(end != _U[0], _U[10] + _top_byte(end),  # significant digits
                 np.where(middle != _U[0], _U[2] + _top_byte(middle), _U[1]))

    fixed = (point > _U[_BIAS - 4]) & (point <= _U[_BIAS + 16])
    whole = fixed & (point > _U[_BIAS])  # a digit before the point
    # p digits before the point, and the run of slots from 7 that the
    # digits and the point fill: "ddd.ddd" or "ddd.0"; "ddd" after "0.00";
    # "d.ddd" or "d" before the exponent
    p = np.where(whole, point - _U[_BIAS], _U[17] - ~fixed * _U[16])
    run = np.where(whole, np.maximum(n, point - _U[_BIAS - 1]) + _U[1],
                   n + (~fixed & (n > _U[1])))
    lead = np.where(fixed & ~whole, _U[_BIAS + 2] - point, _U[0])  # "0.00"
    down = point <= _U[_BIAS]  # the exponent, point - 1, is below zero
    power = np.where(down, _U[_BIAS + 1] - point, point - _U[_BIAS + 1])
    hundreds = power // _U[100]
    tens = power // _U[10]

    # the point goes in before digit p: the digits from there move up a slot
    w1 = middle | _TEMPLATE[1]
    w2 = end | _TEMPLATE[2]
    s1 = np.minimum(p - _U[1], _U[8]) << _U[2]  # half the bits below it
    s2 = (np.maximum(p, _U[9]) - _U[9]) << _U[2]
    up1 = w1 & ((_U[2 ** 64 - 1] << s1) << s1)
    up2 = w2 & ((_U[2 ** 64 - 1] << s2) << s2)
    neg = bits >> _U[63]
    head = (((_U[_LEAD] & ((_U[1] << (lead << _U[3])) - _U[1])) << (neg << _U[3]))
            | (neg * _U[ord("-")]))  # "-0.00", right-aligned on the digits
    head_size = neg + lead
    words[:, 0] = (_TEMPLATE[0] | (first << _U[56])
                   | (head << ((_U[7] - head_size) << _U[3])))
    words[:, 1] = (w1 ^ up1) | (up1 << _U[8]) | ((_U[ord(".")] << s1) << s1)
    words[:, 2] = ((w2 ^ up2) | (up2 << _U[8]) | (up1 >> _U[56])
                   | ((_U[ord(".")] << s2) << s2) * (p > _U[8]))
    words[:, 3] = (_TEMPLATE[3] + (up2 >> _U[56]) + ((down * _U[2]) << _U[16])
                   + (hundreds << _U[24]) + ((tens - hundreds * _U[10]) << _U[32])
                   + ((power - tens * _U[10]) << _U[40]))
    keep[:] = ((((_U[1] << (head_size + run)) - _U[1]) << (_U[7] - head_size))
               | ((~fixed * (_U[0b11011] | ((hundreds != _U[0]) << _U[2])))
                  << _U[25]))
