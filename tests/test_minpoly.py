"""Minimal polynomials of block patterns and the recursion eigenvalue schedule."""

from __future__ import annotations

import pytest

from huaops.minpoly import (
    THETA,
    THETA_BAR,
    ThetaData,
    boundary_degree,
    boundary_theta,
    minimal_polynomial,
    upq_complexified_theta,
    upq_f_polys,
    upq_lambda_schedule,
)
from huaops.params import ParamRing


def _values(ring, count):
    return tuple(ring.var(f"l{i}") for i in range(1, count + 1))


RING = ParamRing(("l1", "l2", "l3"))


@pytest.mark.parametrize(
    "kind,expected",
    [("gl", 3), ("sp", 6), ("o-odd", 7), ("o-even", 6)],
)
def test_degree_theta(kind, expected):
    theta = ThetaData(kind=kind, rank=4, blocks=(1, 3, 4), char_values=_values(RING, 3))
    assert minimal_polynomial(theta).degree == expected


@pytest.mark.parametrize("kind", ["sp", "o-odd", "o-even"])
def test_degree_theta_bar(kind):
    theta = ThetaData(
        kind=kind,
        rank=4,
        blocks=(1, 3, 4),
        char_values=_values(RING, 2) + (RING.zero(),),
        variant=THETA_BAR,
    )
    assert minimal_polynomial(theta).degree == 5


def test_theta_validation():
    vals = _values(RING, 2)
    with pytest.raises(ValueError):
        ThetaData(kind="gl", rank=3, blocks=(1, 2), char_values=vals)  # not ending at rank
    with pytest.raises(ValueError):
        ThetaData(kind="gl", rank=3, blocks=(2, 1, 3), char_values=_values(RING, 3))
    with pytest.raises(ValueError):
        ThetaData(kind="gl", rank=2, blocks=(1, 2), char_values=(RING.var("l1"),))
    with pytest.raises(ValueError):
        ThetaData(kind="gl", rank=2, blocks=(1, 2), char_values=vals, variant=THETA_BAR)
    with pytest.raises(ValueError):
        # barred variant: last character value must vanish
        ThetaData(kind="sp", rank=2, blocks=(1, 2), char_values=vals, variant=THETA_BAR)
    with pytest.raises(ValueError):
        ThetaData(kind="mystery", rank=2, blocks=(1, 2), char_values=vals)


def test_iota():
    theta = ThetaData(kind="gl", rank=4, blocks=(1, 3, 4), char_values=_values(RING, 3))
    assert [theta.iota(i) for i in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_minpoly_coefficients_match_expansion():
    ring = ParamRing(("a", "b"))
    theta = ThetaData(
        kind="gl", rank=2, blocks=(1, 2), char_values=(ring.var("a"), ring.var("b"))
    )
    poly = minimal_polynomial(theta)
    a, b = ring.var("a"), ring.var("b")
    # block j contributes the root value_j + n_{j-1}: (x - a)(x - b - 1)
    assert poly.roots == (a, b + 1)
    assert poly.coefficients() == (a * (b + 1), -(a + b + 1), ring.one())
    assert poly.eval_at(a).is_zero()


def test_lambda_schedule_frozen():
    ring = ParamRing(("mu_1", "mu_2", "s", "t"))
    mu1, mu2 = ring.var("mu_1"), ring.var("mu_2")
    s, t = ring.var("s"), ring.var("t")
    half = (s + t) / 2
    lam = upq_lambda_schedule(2, 2, (1, 2), ring)
    assert lam == (
        -mu1 - half,
        -mu2 - half - 1,
        mu2 - half - 4 + 2,
        mu1 - half - 4 + 1,
    )
    lam21 = upq_lambda_schedule(2, 1, (1,), ring)
    assert lam21 == (-mu1 - half, mu1 - half - 3 + 1)


@pytest.mark.parametrize("p,q,blocks", [(1, 1, (1,)), (2, 1, (1,)), (2, 2, (1, 2)), (3, 2, (1, 2))])
def test_complexified_theta_reproduces_f(p, q, blocks):
    ring = ParamRing(tuple(f"mu_{k}" for k in range(1, len(blocks) + 1)) + ("s", "t"))
    f, f_ext = upq_f_polys(p, q, blocks, ring)
    theta = upq_complexified_theta(p, q, blocks, ring)
    produced = minimal_polynomial(theta)
    expected = f if p == q else f_ext
    assert produced.coefficients() == expected.coefficients()
    assert f_ext.degree == f.degree + 1


def test_f_polys_roots():
    ring = ParamRing(("mu_1", "s", "t"))
    f, f_ext = upq_f_polys(2, 1, (1,), ring)
    lam = upq_lambda_schedule(2, 1, (1,), ring)
    assert f.roots == tuple(-v for v in lam)
    assert f_ext.roots[0] == ring.var("s") + 1  # extra Shilov factor x - s - q


def test_boundary_theta_and_degree_spots():
    assert boundary_degree("sl_split", 2, size=5) == 2
    assert boundary_degree("su_pq", 1, p=2, q=2) == 3
    assert boundary_degree("sp_split", 1, n=2) == 3
    assert boundary_degree("so_star", 1, half=4) == 3
    theta = boundary_theta("su_pq", 1, p=3, q=2)
    assert theta.kind == "gl"
    with pytest.raises((ValueError, KeyError)):
        boundary_theta("unknown_family", 1, size=3)
