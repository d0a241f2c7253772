"""Ring laws and parsing round-trips for the exact parameter polynomials."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

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


def _is_canonical(p):
    """Int numerators over a positive denominator that shares no factor with
    all of them; no zero numerator; zero has denominator 1."""
    nums = list(p.numerators.values())
    return (type(p.denominator) is int and p.denominator > 0
            and all(type(k) is int and k != 0 for k in nums)
            and gcd(p.denominator, *nums) == 1
            and (bool(nums) or p.denominator == 1))


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
    results = [a + b, b + a, (a + b) + c, a + (b + c), a * b, (a * b) * c,
               a * (b + c), a * b + a * c, a - a, a - b, -a, a * RING.zero(),
               a * 6, a * Fraction(-3, 4), a / Fraction(2, 3), b ** 2,
               a.substitute({"s": b})]
    for p in results:
        assert _is_canonical(p), p


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_equal_polys_are_equal_whatever_built_them(a, b):
    fractions = {e: Fraction(k, a.denominator) for e, k in a.numerators.items()}
    built = [RING.poly(fractions), poly_from_string_ring(RING, str(a)),
             (a * 3 + a) / 4, a + b - b, (a * 2 - a * Fraction(1, 3)) * Fraction(3, 5)]
    for p in built:
        assert _is_canonical(p), p
        assert p == a and hash(p) == hash(a), (p, a)


def test_canonical_fields():
    s, t = RING.var("s"), RING.var("t")
    expected = s / 2 - t * Fraction(3, 4) + 2
    for p in (expected,
              RING.poly({(1, 0, 0): Fraction(2, 4), (0, 1, 0): Fraction(-3, 4),
                         (0, 0, 0): 2}),
              poly_from_string_ring(RING, "1/2*s - 3/4*t + 2"),
              (s * 2 - t * 3 + 8) / 4):
        assert p.numerators == {(1, 0, 0): 2, (0, 1, 0): -3, (0, 0, 0): 8}
        assert p.denominator == 4
        assert p == expected and hash(p) == hash(expected)
        assert str(p) == "1/2*s - 3/4*t + 2"
    zero = expected - expected
    assert zero.numerators == {} and zero.denominator == 1
    assert (s / 2 + s / 2) == s and (s / 2 + s / 2).denominator == 1
    assert RING.const(Fraction(2, 4)) == Fraction(1, 2)


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


@pytest.mark.parametrize("text, term, exponent", [
    ("mu_1^-1", "mu_1^-1", "-1"),
    ("s^0", "s^0", "0"),
    ("1 + 3*t*s^-2", "3*t*s^-2", "-2"),
    ("2*s^+2", "2*s^+2", "+2"),
    ("s^1.5", "s^1.5", "1.5"),
], ids=["negative", "zero", "negative-in-a-sum", "signed", "fractional"])
def test_malformed_exponents_are_refused(text, term, exponent):
    # ``__str__`` writes no exponent but a decimal integer >= 2.
    message = f"exponent {exponent!r} in term {term!r} is not an integer >= 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        poly_from_string_ring(RING, text)
    assert poly_from_string_ring(RING, "s^1*t^12") == RING.var("s") * RING.var("t") ** 12


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
    assert as_fraction("-3/4") == Fraction(-3, 4)


@pytest.mark.parametrize("text", ["1e3", "0.5", "1_000"])
def test_as_fraction_refuses_other_literals(text):
    # Fraction(text) reads each of these; a rational is written as
    # ParamPoly prints it.
    with pytest.raises(ValueError, match="is not a rational literal"):
        as_fraction(text)


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
