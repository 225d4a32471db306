"""Exact decimal text of whole float64 and integer arrays.

``g17``, ``shortest`` and ``decimal`` give, for each element, the ASCII
bytes of ``'%.17g' % v``, ``repr(v)`` and ``'%d' % i`` as one 24-byte row of
a uint8 matrix padded with NUL bytes.  ``cut`` drops the byte columns no
row of such a matrix uses, and ``join`` lays matrices and literal
separators side by side and returns the rows as one string, decoded
straight from the compacted buffer.

The conversions use integers only, after Gay (1990, "Correctly rounded
binary-decimal and decimal-binary conversions") and Ryu (Adams 2018,
PLDI).  A double is M 2^E; at a decimal scale p its digits are
floor(u 5^p 2^(E + p)) for u in {2M - 1, 2M, 2M + 1}, formed exactly as two
uint64 limbs from 32-bit partial products, with a flag for a zero
remainder.  '%.17g' rounds 17 digits half-even; repr removes digits while
the rounding interval of the double still holds a shorter decimal, as in
Ryu's general case.  Every value outside that envelope -- zero,
subnormals, infinities and NaN, a scale p outside 0..27 (|v| beyond about
1e-11..1e16), a power of two for repr, an integer of magnitude 10^18 or
more -- takes Python's own conversion, in the same matrix.

A row's text is built as three little-endian uint64 words, so each step is
one whole-array operation on 64-bit integers, run over blocks of _BLOCK
values that stay in cache.  Operands are explicit uint64 throughout:
numpy promotes a uint64/int64 mix to float64.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 8192
_U64 = np.uint64
_POW5 = np.array([5**p for p in range(28)] + [0] * 4, dtype=_U64)  # index p & 31
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_POW10_F = np.array([float(f"1e{j}") for j in range(-331, 332)])  # 10^j at j + 331
_LOW = np.array([0] * 16 + [(1 << 8 * c) - 1 for c in range(8)] + [2**64 - 1] * 40, dtype=_U64)
_ZEROS = _U64(int.from_bytes(b"0" * 8, "little"))
_DOTS = _U64(int.from_bytes(b"." * 8, "little"))
_MINUSES = _U64(int.from_bytes(b"-" * 8, "little"))
_LEAD = _U64(int.from_bytes(b"0.000", "little"))  # before the digits of 1e-4 <= |v| < 1
_NOWHERE = 24  # a byte offset past any text


def _u(a):
    return a.astype(_U64)


def _low(c):
    """Mask of the c lowest bytes of a word (none for c <= 0, all for c >= 8)."""
    return _LOW.take(c + 16, mode="clip")


def _pick(c, a, b):
    """a where c, else b, by arithmetic: np.where is slow on a random mask."""
    return b + (a - b) * c.astype(b.dtype)


def _ascii8(v):
    """The 8 ASCII digits of each v < 10^8, the leading digit in the low byte."""
    a = v // _U64(10_000)
    x = a | ((v - a * _U64(10_000)) << _U64(32))  # two 4-digit lanes
    y = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # lane // 100
    x = y | ((x - y * _U64(100)) << _U64(16))  # four 2-digit lanes
    y = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # lane // 10
    return (y | ((x - y * _U64(10)) << _U64(8))) + _ZEROS


def _split(x):
    """Sign, M and E of x = +-M 2^E, an estimate of floor(log10 |x|), and
    the mask of normal values (not zero, subnormal or non-finite)."""
    bits = x.view(_U64)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    normal = biased - _U64(1) < _U64(0x7FE)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    e = biased.astype(np.int64) - 1075
    k = ((e + 52) * 78913) >> 18  # floor(log10 2^(E + 52)), Ryu's log10Pow2
    k += np.abs(x) >= _POW10_F.take(k + 332)
    return x < 0, m, e, k, normal


def _product(u, p):
    """u 5^p as (hi, lo) uint64 limbs, and 5^p, for u < 2^54, 0 <= p <= 27."""
    f = _POW5.take(p & 31)
    u1, u0 = u >> _U64(32), u & _U64(2**32 - 1)
    f1, f0 = f >> _U64(32), f & _U64(2**32 - 1)
    low = u0 * f0
    mid = u1 * f0 + u0 * f1  # < 2^54 + 2^63: no carry out
    lo = low + (mid << _U64(32))
    return u1 * f1 + (mid >> _U64(32)) + _u(lo < low), lo, f


def _shift(hi, lo, s):
    """floor((hi 2^64 + lo) / 2^s) and whether that is exact, for s < 64 and
    a quotient below 2^64; s < 0 shifts the low limb left."""
    t = _u(s) & _U64(63)
    q = (lo >> t) | ((hi << (_U64(63) - t)) << _U64(1))
    exact = (lo & ((_U64(1) << t) - _U64(1))) == 0
    left = s < 0
    if left.any():
        q = _pick(left, lo << (_u(-s) & _U64(63)), q)
        exact |= left
    return q, exact


def _moves(vals, lo, ok):
    """+1 or -1 where a row of the envelope has its scaled value below lo or
    at 10 lo or more: the estimate of floor(log10 |x|) is one off there,
    near a power of ten.  0 elsewhere."""
    return ((vals < lo).astype(np.int64) - (vals >= _U64(10) * lo)) * ok


def _last_digit(z):
    """Index of the highest non-zero byte of each word whose bytes are all
    below 16, or a negative number for 0: the exponent of float(z) lies in
    that byte, as no rounding can carry out of it."""
    return ((z.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3


def _float_text(neg, d, k, nsig, sci_from, dot_zero):
    """Words of the text of +-d 10^(k - 16), 10^16 <= d < 10^17, as '%g' lays
    it out with nsig significant digits (None: d less its trailing zeros).

    Fixed notation for -4 <= k < sci_from, otherwise d.ddde+XX; dot_zero
    keeps '.0' on fixed-notation integers, as repr does.
    """
    hi = d // _U64(10**9)
    lo = d - hi * _U64(10**9)
    mid = lo // _U64(10)
    digits = (_ascii8(hi), _ascii8(mid), lo - mid * _U64(10) + _U64(ord("0")))
    if nsig is None:
        nsig = 1 + _last_digit(digits[0] ^ _ZEROS)
        nsig = _pick(digits[1] != _ZEROS, 9 + _last_digit(digits[1] ^ _ZEROS), nsig)
        nsig = _pick(digits[2] != _U64(ord("0")), 17, nsig)
    sci = (k < -4) | (k >= sci_from)
    small = (k < 0) & ~sci
    fixed = ~(sci | small)
    size = nsig + fixed * np.maximum(k + 1 + dot_zero - nsig, 0)  # digits written
    point = sci + fixed * (k + 1)  # byte of the '.'
    point += (small | (size <= point)) * _NOWHERE  # no fraction, no point
    # Cut the digits to size and open the '.' at byte `point`.
    body, carry = [], _U64(0)
    for j, w in enumerate(digits):
        below = _low(point - 8 * j)
        w &= _low(size - 8 * j)
        above = w & ~below
        dot = _low(point + 1 - 8 * j) & ~below & _DOTS
        body.append((w ^ above) | (above << _U64(8)) | carry | dot)
        carry = above >> _U64(56)
    # Shift past the sign and the "0.000" of |v| < 1.
    n_lead = neg + small * (1 - k)
    up = _u(n_lead) << _U64(3)
    down = _U64(63) - up
    words = np.empty((d.size, 3), dtype=_U64)
    for j, w in enumerate(body):
        words[:, j] = (w << up) | ((body[j - 1] >> _U64(1)) >> down if j else _U64(0))
    words[:, 0] |= (_u(neg) * _U64(ord("-"))) | ((_LEAD & _low(small * (1 - k))) << (_u(neg) << _U64(3)))
    if sci.any():  # append "e+dd" (|k| < 100 in the envelope)
        ak = _u(np.abs(k))
        exp = (
            _U64(ord("e"))
            | ((_U64(ord("+")) + _U64(2) * _u(k < 0)) << _U64(8))
            | ((ak // _U64(10) % _U64(10) + _U64(ord("0"))) << _U64(16))
            | ((ak % _U64(10) + _U64(ord("0"))) << _U64(24))
        ) * _u(sci)
        end = n_lead + size + (point < _NOWHERE)
        for j in range(3):
            c = end - 8 * j
            ahead = (exp << (_u(np.clip(c, 0, 7)) << _U64(3))) & ~_low(c)
            words[:, j] |= _pick(c >= 0, ahead, exp >> (_u(np.clip(-c, 0, 7)) << _U64(3)))
    return words


def _g17_words(x):
    neg, m, e, k, ok = _split(x)
    p = 16 - k
    ok &= _u(p) <= _U64(27)
    # v = floor(2 |x| 10^p): 17 digits, the half bit below them, and whether
    # anything is left below the half bit.
    two = m << _U64(1)
    v, exact = _shift(*_product(two, p)[:2], -e - p)
    move = _moves(v >> _U64(1), _POW10[16], ok)
    if move.any():
        p += move
        moved = move != 0
        v2, exact2 = _shift(*_product(two, p)[:2], -e - p)
        v, exact = _pick(moved, v2, v), (exact & ~moved) | (exact2 & moved)
        ok &= _u(p) <= _U64(27)
    d = v >> _U64(1)
    d += v & (_u(~exact) | d) & _U64(1)  # half-even
    top = d == _POW10[17]  # seventeen nines rounded up
    d -= _U64(9 * 10**16) * _u(top)
    return _float_text(neg, d, 16 - p + top, None, 17, 0), ok


def _remove_digits(vr, vp, vm, last, vr_tz, vm_tz, removed, while_vm_tz=False):
    """Ryu's digit removal on whole arrays, in place.

    Drops a digit from vr, vp and vm while vp // 10 > vm // 10 (or, with
    while_vm_tz, while the exact lower bound vm ends in 0), tracking the last
    digit removed from vr, whether everything below it was zero, and whether
    everything removed from vm was zero.  Once few rows are left it goes on
    with those only.
    """
    ten = _U64(10)
    while True:
        go = (vm % ten == 0) & vm_tz if while_vm_tz else vp // ten > vm // ten
        count = np.count_nonzero(go)
        if count == 0:
            return
        if 4 * count < go.size and count >= 1024:  # a subset worth gathering
            rows = np.flatnonzero(go)
            state = [a[rows] for a in (vr, vp, vm, last, vr_tz, vm_tz, removed)]
            _remove_digits(*state, while_vm_tz=while_vm_tz)
            for a, b in zip((vr, vp, vm, last, vr_tz, vm_tz, removed), state):
                a[rows] = b
            return
        vr_d, vm_d = vr // ten, vm // ten
        vm_tz &= ~go | (vm == vm_d * ten)
        vr_tz &= ~go | (last == 0)
        last[:] = _pick(go, vr - vr_d * ten, last)
        vr[:] = _pick(go, vr_d, vr)
        vp[:] = _pick(go, vp // ten, vp)
        vm[:] = _pick(go, vm_d, vm)
        removed += go


def _shortest_words(x):
    neg, m, e, k, ok = _split(x)
    ok &= m != _U64(2**52)  # a power of two has a lopsided interval
    p = 17 - k
    ok &= _u(p) <= _U64(27)
    # vr = floor(|x| 10^p) has 18 digits; vp and vm are the bounds of the
    # interval that rounds to x, (2M +- 1) 2^(E-1) 10^p.
    two = m << _U64(1)
    hi, lo, f = _product(two, p)
    vr, vr_exact = _shift(hi, lo, 1 - e - p)
    move = _moves(vr, _POW10[17], ok)
    if move.any():
        p += move
        moved = move != 0
        hi2, lo2, f2 = _product(two, p)
        vr2, exact2 = _shift(hi2, lo2, 1 - e - p)
        hi, lo, f = _pick(moved, hi2, hi), _pick(moved, lo2, lo), _pick(moved, f2, f)
        vr, vr_exact = _pick(moved, vr2, vr), (vr_exact & ~moved) | (exact2 & moved)
        ok &= _u(p) <= _U64(27)
    s = 1 - e - p
    lo_p, lo_m = lo + f, lo - f
    vp, vp_exact = _shift(hi + _u(lo_p < lo), lo_p, s)
    vm, vm_exact = _shift(hi - _u(lo_m > lo), lo_m, s)
    even = (m & _U64(1)) == 0  # ties round to even M: the bounds belong
    vp -= _u(vp_exact & ~even)
    vp = _pick(ok, vp, vm)  # nothing to remove outside the envelope
    last = np.zeros(x.size, dtype=_U64)
    removed = np.zeros(x.size, dtype=np.int64)
    vr_tz, vm_tz = vr_exact, vm_exact & even & ok
    _remove_digits(vr, vp, vm, last, vr_tz, vm_tz, removed)
    _remove_digits(vr, vp, vm, last, vr_tz, vm_tz, removed, while_vm_tz=True)
    tie = vr_tz & (last == 5) & ((vr & _U64(1)) == 0)
    up = ((vr == vm) & ~vm_tz) | ((last >= 5) & ~tie)
    # vr + up has 18 - removed digits and no trailing zero, or is 1 when all
    # 18 went (9.9999999999999995e-08 is 1e-07); left-align it to 17 digits.
    d = (vr + _u(up)) * _POW10.take(removed - 1, mode="clip")
    top = d == _POW10[17]
    d -= _U64(9 * 10**16) * _u(top)
    return _float_text(neg, d, 17 - p + top, 18 - removed + top, 16, 1), ok


def _decimal_words(a):
    neg = a < 0
    flip = np.negative(_u(neg))
    v = (a.astype(_U64) ^ flip) - flip
    ok = v < _POW10[18]
    v *= _u(ok)
    # Right-aligned in 24 bytes, in as few words as the block needs (with a
    # byte to spare for the sign).
    top = int(v.max(initial=0))
    n_words = 1 + (top >= 10**7) + (top >= 10**15)
    first = 24 - 1 - sum(v >= _POW10[i] for i in range(1, min(8 * n_words, 19)))
    minus = _MINUSES * _u(neg)
    words = np.zeros((a.size, 3), dtype=_U64)
    for j in range(3 - n_words, 3):
        scale = _U64(10 ** (8 * (2 - j)))
        q = v // scale
        v = v - q * scale
        keep = ~_low(first - 8 * j)
        words[:, j] = (_ascii8(q) & keep) | (minus & _low(first - 8 * j) & ~_low(first - 1 - 8 * j))
    return words, ok


def _convert(words_of, values, python):
    """(n, 24) uint8 text of every value, block by block; rows outside the
    envelope hold python(value)."""
    out = np.empty((values.size, 3), dtype=_U64)
    for start in range(0, values.size, _BLOCK):
        block = values[start : start + _BLOCK]
        out[start : start + _BLOCK], ok = words_of(block)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            texts = b"".join(python(v).encode().ljust(24, b"\0") for v in block[bad].tolist())
            out[start + bad] = np.frombuffer(texts, dtype="<u8").reshape(bad.size, 3)
    return out.astype("<u8", copy=False).view(np.uint8)


def g17(x) -> np.ndarray:
    """'%.17g' % v for each v of a float64 array, as NUL-padded rows."""
    return _convert(_g17_words, np.ascontiguousarray(x, dtype=np.float64), lambda v: "%.17g" % v)


def shortest(x) -> np.ndarray:
    """repr(v) for each v of a float64 array, as NUL-padded rows."""
    return _convert(_shortest_words, np.ascontiguousarray(x, dtype=np.float64), repr)


def decimal(a) -> np.ndarray:
    """'%d' % i for each i of an integer array, as NUL-padded rows."""
    return _convert(_decimal_words, np.ascontiguousarray(a), lambda i: "%d" % i)


def cut(matrix) -> np.ndarray:
    """A NUL-padded matrix from the conversions above, cut to the byte
    columns some row uses.  Each word column is ORed on its own: numpy
    reduces a strided column several times faster than axis 0 of the (n, 3)
    word matrix."""
    words = matrix.view("<u8")
    used = np.array([np.bitwise_or.reduce(words[:, j]) for j in range(words.shape[1])], dtype="<u8")
    used = np.flatnonzero(used.view(np.uint8))
    return matrix[:, used[0] : used[-1] + 1] if used.size else matrix[:, :0]


def join(parts) -> str:
    """Row i of every part laid side by side, rows one after another.

    A part is bytes repeated on every row or a NUL-padded uint8 matrix,
    which callers ``cut`` first where its rows leave byte columns unused.
    The non-NUL bytes of every part are kept.
    """
    n = next(len(p) for p in parts if not isinstance(p, bytes))
    chars = np.concatenate(
        [np.broadcast_to(np.frombuffer(p, dtype=np.uint8), (n, len(p))) if isinstance(p, bytes) else p for p in parts],
        axis=1,
    )
    # Freed after the string is built: freeing the mask first raised the
    # sample_emit benchmark's peak RSS by 15 MiB through heap layout alone.
    keep = chars != 0
    return str(chars[keep].data, "utf-8")
