"""Ring laws and parsing round-trips for the exact parameter polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huaops.params import ParamRing, as_fraction, poly_from_string_ring

RING = ParamRing(("s", "t", "mu_1"))

_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
_exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(_exponents, _coeffs, max_size=5))
    return RING.poly(terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RING.zero() == a
    assert a * RING.one() == a
    assert a - a == RING.zero()
    assert a * RING.zero() == RING.zero()


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(a, b):
    point = {"s": Fraction(2, 3), "t": Fraction(-1, 2), "mu_1": Fraction(5)}
    assert (a + b).eval_rational(point) == a.eval_rational(point) + b.eval_rational(point)
    assert (a * b).eval_rational(point) == a.eval_rational(point) * b.eval_rational(point)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_string_round_trip(a):
    assert poly_from_string_ring(RING, str(a)) == a


def test_substitute_composes():
    s, t = RING.var("s"), RING.var("t")
    p = (s + t) * (s - t)
    assert p.substitute({"s": t}) == RING.zero()
    assert p.substitute({"s": 3, "t": 1}) == RING.const(8)
    # substituting a polynomial, then a value, matches one-shot evaluation
    q = p.substitute({"s": t + 1})
    assert q.eval_rational({"s": 0, "t": 2, "mu_1": 0}) == Fraction(5)


def test_degree_and_constants():
    s = RING.var("s")
    assert RING.zero().degree() == -1
    assert RING.const(7).is_constant()
    assert RING.const(7).constant_value() == 7
    assert (s * s + 1).degree() == 2
    assert not (s + 1).is_constant()


def test_division_by_scalar_only():
    s = RING.var("s")
    assert (s * 2) / 2 == s
    with pytest.raises((TypeError, ZeroDivisionError, ValueError)):
        (s * 2) / RING.zero()


def test_as_fraction_accepts_strings_and_ints():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(-2) == Fraction(-2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_rings_with_different_symbols_are_distinct():
    other = ParamRing(("s",))
    assert other != RING
    with pytest.raises((ValueError, KeyError)):
        RING.var("nope")


@given(polys())
@settings(max_examples=40, deadline=None)
def test_rename_lifts_and_lowers(a):
    wide = ParamRing(RING.symbols + ("E_1",))
    assert a.rename(wide).rename(RING) == a
    with pytest.raises(KeyError):
        (a.rename(wide) + wide.var("E_1")).rename(RING)
