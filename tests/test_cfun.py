"""Gamma-quotient spectral factors: exact certificates, float re-evaluation."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from huaops.cfun import (
    DENOMINATOR,
    _lambda_alpha,
    _log_abs_gamma,
    FLOAT_TOL,
    GammaFactor,
    NUMERATOR,
    c_function,
    c_product,
    dominant_grid_report,
    e_c_line_bundle,
    e_function,
    e_product,
    line_bundle_products,
    root_label,
    spectral_ring,
)
from huaops.liedata import (
    RestrictedRoot,
    glnr_root_system,
    spnr_root_system,
    upq_root_system,
)
from huaops.params import ParamRing

ALL_SYSTEMS = [
    glnr_root_system(2),
    glnr_root_system(3),
    upq_root_system(1, 1),
    upq_root_system(2, 1),
    upq_root_system(2, 2),
    upq_root_system(3, 2),
    spnr_root_system(1),
    spnr_root_system(2),
    spnr_root_system(3),
]


def test_root_label():
    assert root_label(RestrictedRoot((Fraction(1), Fraction(-1)), 1)) == "e1-e2"
    assert root_label(RestrictedRoot((Fraction(2), Fraction(0)), 1)) == "2e1"
    assert root_label(RestrictedRoot((Fraction(1), Fraction(1)), 2)) == "e1+e2"


def test_log_abs_gamma_reflects_where_the_float_is_a_pole():
    # -1 + 10^-20 is -1.0 as a float; Gamma(-1 + e) = -1/e + O(1).
    assert _log_abs_gamma(Fraction(-1) + Fraction(1, 10**20)) == pytest.approx(20 * math.log(10), rel=FLOAT_TOL)
    assert _log_abs_gamma(Fraction(-7, 6)) == math.lgamma(-7 / 6)


def test_lambda_alpha():
    # 2 <lambda, alpha> / <alpha, alpha>, evaluated at lambda = (3, 1).
    rs = spnr_root_system(2)
    ring = spectral_ring(rs)
    point = {"lambda_1": 3, "lambda_2": 1}
    long_root = next(r for r in rs.positive if r.coords == (Fraction(2), Fraction(0)))
    assert _lambda_alpha(ring, long_root).eval_rational(point) == Fraction(3)
    short_root = next(r for r in rs.positive if r.coords == (Fraction(1), Fraction(-1)))
    assert _lambda_alpha(ring, short_root).eval_rational(point) == Fraction(2)


def test_gamma_factor_requires_affine_argument():
    ring = ParamRing(("lambda_1",))
    x = ring.var("lambda_1")
    GammaFactor(DENOMINATOR, x + 1, "e1")  # fine
    with pytest.raises(ValueError):
        GammaFactor(DENOMINATOR, x * x, "e1")
    with pytest.raises(ValueError):
        GammaFactor(7, x, "e1")


@pytest.mark.parametrize("rs", ALL_SYSTEMS, ids=lambda rs: rs.label)
def test_c_at_rho_is_one_exactly(rs):
    report = c_function(rs, rs.half_sum())
    assert report["defined"]
    assert report["value"] == 1.0
    norm = report["normalization"]
    assert norm["cRho"] == 1.0
    assert norm["stable"]
    assert norm["drift"] <= FLOAT_TOL


def test_c_glnr2_at_twice_rho_matches_hand_value():
    # independent hand evaluation: C = sqrt(2), Gamma(5/4) Gamma(3/4) = pi sqrt(2)/4,
    # so c(2 rho) = 2 / pi
    rs = glnr_root_system(2)
    report = c_function(rs, (1, -1))
    assert abs(report["value"] - 2.0 / math.pi) <= FLOAT_TOL


def test_e_zero_certificate_is_exact():
    rs = glnr_root_system(2)
    report = e_function(rs, (Fraction(-3, 2), Fraction(3, 2)))
    assert report["zero"]
    assert report["witnessRoot"] == "e1-e2"
    certs = report["zeros"]
    assert certs and all(Fraction(c["argument"]).denominator == 1 for c in certs)
    assert all(Fraction(c["argument"]) <= 0 for c in certs)
    assert report["value"] == 0.0


def test_e_nonzero_at_rho():
    rs = upq_root_system(2, 1)
    report = e_function(rs, rs.half_sum())
    assert not report["zero"]
    assert report["value"] == pytest.approx(1.0, abs=FLOAT_TOL)


def test_c_pole_certificate():
    rs = glnr_root_system(2)
    # lambda_alpha = 0 puts the numerator Gamma at its pole
    report = c_function(rs, (0, 0))
    assert not report["defined"]
    assert report["poles"]
    assert report["value"] is None


@pytest.mark.parametrize("rs", ALL_SYSTEMS, ids=lambda rs: rs.label)
def test_dominant_grid_is_finite(rs):
    report = dominant_grid_report(rs)
    assert report["pass"]
    assert report["points"] > 0
    assert report["failures"] == []


@pytest.mark.parametrize(
    "rs",
    [spnr_root_system(1), spnr_root_system(2), upq_root_system(1, 1), upq_root_system(2, 2)],
    ids=lambda rs: rs.label,
)
def test_line_bundle_c_normalizes_at_level_zero(rs):
    report = e_c_line_bundle(rs, rs.half_sum(), 0)
    assert report["c"]["normalization"]["cRhoZero"] == 1.0
    assert report["c"]["normalization"]["stable"]
    assert report["c"]["value"] == 1.0
    assert report["consistency"]["agree"]


def test_line_bundle_is_even_in_ell():
    rs = spnr_root_system(2)
    lam = (Fraction(7, 2), Fraction(3, 2))
    plus = e_c_line_bundle(rs, lam, 3)
    minus = e_c_line_bundle(rs, lam, -3)
    assert plus["e"]["value"] == pytest.approx(minus["e"]["value"], abs=FLOAT_TOL)
    assert plus["c"]["value"] == pytest.approx(minus["c"]["value"], abs=FLOAT_TOL)


def test_line_bundle_rejects_three_length_classes():
    with pytest.raises(ValueError):
        line_bundle_products(upq_root_system(3, 2))


def test_products_cover_indivisible_roots():
    rs = upq_root_system(3, 2)
    prod = e_product(rs)
    labels = {f.root for f in prod.factors}
    expected = {root_label(r) for r in rs.indivisible_positive()}
    assert labels == expected
    assert all(f.sign == DENOMINATOR for f in prod.factors)
    cp = c_product(rs)
    assert any(f.sign == NUMERATOR for f in cp.factors)


def test_spectral_ring_names():
    rs = spnr_root_system(2)
    assert spectral_ring(rs).symbols == ("lambda_1", "lambda_2")
    assert spectral_ring(rs, line_bundle=True).symbols == ("lambda_1", "lambda_2", "ell")


def test_wrong_rank_rejected():
    rs = spnr_root_system(2)
    with pytest.raises(ValueError):
        e_function(rs, (1,))
