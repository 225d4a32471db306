"""The integer-only number formatter against Python's own conversions.

Every row of ``g17``, ``shortest`` and ``decimal`` must equal ``'%.17g' % v``,
``repr(v)`` and ``'%d' % i`` byte for byte, inside the exact envelope and in
the Python fallback alike, whatever the chunk and block boundaries.
"""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdlab import _textfmt, cli


def texts(chars):
    return [bytes(row[row != 0]).decode() for row in chars]


def assert_floats(values):
    x = np.asarray(values, dtype=np.float64)
    assert texts(_textfmt.g17(x)) == ["%.17g" % v for v in x.tolist()]
    assert texts(_textfmt.shortest(x)) == [repr(v) for v in x.tolist()]


def assert_ints(values):
    a = np.asarray(values)
    assert texts(_textfmt.decimal(a)) == ["%d" % i for i in a.tolist()]


def near(x, steps):
    """x and its neighbours up to `steps` ulps away on each side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    *(math.ldexp(1.0, e) for e in range(-60, 70)),
    *(-math.ldexp(1.0, e) for e in (-3, 0, 52, 53)),
    0.5, 1.5, 2.5, 0.125, 2.0**-25, 3 * 2.0**-26, 0.1, 0.2, 0.3, 1 / 3, 2 / 3,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 2.0**52 - 0.5,
    *near(1e-5, 3), *near(1e-4, 3), *near(-1e-4, 3), *near(1e16, 3), *near(1e17, 3),
    *near(1e-11, 3), *near(1e-12, 3), *near(1e15, 3),
    9.9999999999999995e-08, 123456789012345678.0, 1e22, 1e23, -1e-7,
]

INT_EDGES = [
    0, 1, -1, 9, 10, 99, 100, 10**8 - 1, 10**8, 10**16 - 1, 10**16, 10**18 - 1, 10**18,
    -(10**18) + 1, -(10**18), 2**63 - 1, -(2**63),
]


def test_fixed_edges():
    assert_floats(EDGES)
    assert_ints(np.array(INT_EDGES, dtype=np.int64))
    assert_ints(np.array([0, 7, 2**64 - 1, 10**18, 10**18 - 1], dtype=np.uint64))
    assert_ints(np.array([-3, 0, 250], dtype=np.int16))


def test_random_values_in_and_around_the_envelope():
    rng = np.random.default_rng(20261019)
    n = 40_000
    shorts = [round(v, int(d)) for v, d in zip(rng.standard_normal(n).tolist(), rng.integers(0, 17, n))]
    dyadic = np.ldexp(2.0 * rng.integers(1, 2**12, n) + 1, rng.integers(-60, 50, n))  # exact ties
    mantissas = np.ldexp(rng.integers(2**52, 2**53, n, dtype=np.uint64).astype(np.float64), rng.integers(-90, 60, n))
    assert_floats(np.concatenate([
        rng.standard_normal(n),
        (2 * rng.random(n) - 1) * 10.0 ** rng.integers(-13, 19, n),
        shorts,
        dyadic,
        mantissas,
        rng.integers(-(2**53), 2**53, n).astype(np.float64),
        [float(f"{a}5e{e}") for a, e in zip(rng.integers(10**16, 10**17, 2000).tolist(), rng.integers(-20, 5, 2000))],
    ]))
    assert_ints(rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64))
    assert_ints(rng.integers(-(10**9), 10**9, n))


float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    # sign, a biased exponent inside about 1e-13..1e19, and any mantissa
    st.tuples(st.integers(0, 1), st.integers(979, 1086), st.integers(0, 2**52 - 1)).map(
        lambda t: (t[0] << 63) | (t[1] << 52) | t[2]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(float_bits, min_size=1, max_size=40))
def test_raw_bit_patterns(bits):
    assert_floats(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_int64_values(values):
    assert_ints(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("block", [5, _textfmt._BLOCK])
@pytest.mark.parametrize("chunk", [1, 2, 3, 7, cli._CHUNK])
def test_fallbacks_inside_chunks(monkeypatch, capsys, chunk, block):
    # Values outside the exact envelope sit between ordinary ones, so that
    # every chunk and block mixes both kinds.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    monkeypatch.setattr(_textfmt, "_BLOCK", block)
    rng = np.random.default_rng(7)
    ordinary = rng.standard_normal(40)
    odd = [0.0, -0.0, 5e-324, 1e300, -1e-200, 0.5, 2.0**-30, 1e16, 123456.0, math.ldexp(1, 60)]
    values = np.array([v for pair in zip(ordinary, odd * 4) for v in pair])
    ints = np.array([i if i % 3 else (-1) ** i * (10**18 + i) for i in range(values.size)], dtype=np.int64)

    cli._emit(argparse.Namespace(format="csv", out=None), ("n", "value"), (ints, values))
    lines = ["%d,%.17g" % (i, v) for i, v in zip(ints.tolist(), values.tolist())]
    assert capsys.readouterr().out == "n,value\n" + "".join(line + "\n" for line in lines)

    cli._emit(argparse.Namespace(format="json", out=None), (), None, json_obj={"v": values, "i": ints})
    body = ",\n    ".join(repr(v) for v in values.tolist())
    ibody = ",\n    ".join("%d" % i for i in ints.tolist())
    assert capsys.readouterr().out == '{\n  "i": [\n    ' + ibody + '\n  ],\n  "v": [\n    ' + body + "\n  ]\n}\n"
