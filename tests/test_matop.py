"""Operator matrices: polynomial evaluation, centrality, covariance, generators."""

from __future__ import annotations

import pytest

from huaops.liedata import make_algebra
from huaops.matop import (
    CentralityError,
    OpMatrix,
    adjoint_covariance_defect,
    central_eigenvalue,
    check_adjoint_covariance,
    factor_products,
    generator_matrix,
    ideal_generators,
    mat_eval_factors,
    mat_eval_poly,
    matrix_powers,
    theta_weight,
    trace_power,
)
from huaops.minpoly import ThetaData
from huaops.params import ParamRing
from huaops.pbw import EnvElement


def _gl2():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("c0", "c1", "c2"))
    return alg, ring, generator_matrix(alg, ring)


def test_mat_eval_poly_matches_direct_horner_expansion():
    alg, ring, fmat = _gl2()
    coeffs = [ring.var("c0"), ring.var("c1"), ring.var("c2")]
    got = mat_eval_poly(fmat, coeffs)
    powers = matrix_powers(fmat, 2)
    direct = OpMatrix.identity(fmat.basis, ring, fmat.size).scale(coeffs[0])
    direct = direct.add(powers[1].scale(coeffs[1]))
    direct = direct.add(powers[2].scale(coeffs[2]))
    assert got.sub(direct).is_zero()


def test_mat_eval_factors_matches_coefficient_form():
    alg, ring, fmat = _gl2()
    roots = [ring.var("c0"), ring.var("c1"), ring.var("c2")]
    prefixes = list(factor_products(fmat, roots))
    assert len(prefixes) == len(roots)
    # coefficients of (x - r_1)...(x - r_k), lowest degree first
    coeffs = [ring.one()]
    for root, prefix in zip(roots, prefixes):
        coeffs = [(coeffs[i - 1] if i else ring.zero())
                  - (root * coeffs[i] if i < len(coeffs) else ring.zero())
                  for i in range(len(coeffs) + 1)]
        assert prefix.sub(mat_eval_poly(fmat, coeffs)).is_zero()
    assert mat_eval_factors(fmat, roots).entries == prefixes[-1].entries


def test_trace_power_matches_power_trace():
    alg, ring, fmat = _gl2()
    powers = matrix_powers(fmat, 3)
    for k in (1, 2, 3):
        assert (trace_power(fmat, k) - powers[k].trace()).is_zero()


def test_trace_powers_are_central():
    for kind, n in (("gl", 2), ("sp", 1), ("o-odd", 2)):
        alg = make_algebra(kind, n)
        ring = ParamRing()
        fmat = generator_matrix(alg, ring)
        order = 2 if kind == "gl" else 2
        d = trace_power(fmat, order)
        for g in range(len(alg.basis)):
            x = EnvElement.generator(alg.basis, ring, g)
            assert d.commutator(x).is_zero()


def test_central_eigenvalue_gl2_degree_two():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("a", "b"))
    a, b = ring.var("a"), ring.var("b")
    fmat = generator_matrix(alg, ring)
    d = trace_power(fmat, 2)
    # the cyclic vector is killed by the trailing zone (lower triangular),
    # so tr E^2 acts by a^2 + b^2 - (a - b) on diagonal values (a, b)
    assert central_eigenvalue(alg, d, {1: a, 2: b}) == a * a + b * b - a + b


def test_central_eigenvalue_rejects_noncentral():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("a", "b"))
    raiser = EnvElement.generator(alg.basis, ring, alg.basis.index_of("E_1_2"))
    with pytest.raises(CentralityError):
        central_eigenvalue(alg, raiser, {1: ring.var("a"), 2: ring.var("b")})


def test_theta_weight_values():
    alg = make_algebra("gl", 3)
    ring = ParamRing(("l1", "l2"))
    theta = ThetaData(
        kind="gl", rank=3, blocks=(1, 3), char_values=(ring.var("l1"), ring.var("l2"))
    )
    weight = theta_weight(alg, theta)
    expected = {1: ring.var("l1"), 2: ring.var("l2"), 3: ring.var("l2")}
    assert set(weight) == set(alg.basis.zone_indices("a"))
    for pos, diag in zip(alg.basis.zone_indices("a"), alg.a_diagonal):
        assert weight[pos] == expected[diag]


def test_ideal_generators_gl2_shapes():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("l1", "l2"))
    theta = ThetaData(
        kind="gl", rank=2, blocks=(1, 2), char_values=(ring.var("l1"), ring.var("l2"))
    )
    gens = ideal_generators(alg, theta, ring=ring)
    assert len(gens.entries()) == 4
    assert [(c.index, c.order) for c in gens.central] == [(1, 1)]
    assert gens.central[0].eigenvalue == ring.var("l1") + ring.var("l2")
    assert not gens.pfaffian_omitted
    restricted = ideal_generators(alg, theta, ring=ring, column_range=(2, 2))
    assert [(i, j) for i, j, _ in restricted.entries()] == [(1, 2), (2, 2)]


def test_ideal_generators_even_orthogonal_pfaffian_flag():
    alg = make_algebra("o-even", 2)
    ring = ParamRing(("l1",))
    theta = ThetaData(kind="o-even", rank=2, blocks=(2,), char_values=(ring.var("l1"),))
    gens = ideal_generators(alg, theta, ring=ring)
    assert gens.pfaffian_omitted
    assert gens.central == ()


def test_ideal_generator_matrix_entries_live_in_the_ideal_certificably():
    # every matrix entry of q(F) must be annihilated by the highest-weight
    # functional at the pattern's own weight (necessary membership test)
    alg = make_algebra("gl", 2)
    ring = ParamRing(("l1", "l2"))
    theta = ThetaData(
        kind="gl", rank=2, blocks=(1, 2), char_values=(ring.var("l1"), ring.var("l2"))
    )
    gens = ideal_generators(alg, theta, ring=ring)
    weight = theta_weight(alg, theta)
    d = gens.central[0]
    assert central_eigenvalue(alg, d.element, weight) == d.eigenvalue


def test_adjoint_covariance_of_generator_matrix_polynomials():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("c0", "c1"))
    fmat = generator_matrix(alg, ring)
    qmat = mat_eval_poly(fmat, [ring.var("c0"), ring.var("c1")])
    check_adjoint_covariance(alg, qmat)
    for g in range(len(alg.basis)):
        assert adjoint_covariance_defect(alg, qmat, g).is_zero()


def test_adjoint_covariance_failure_is_detected():
    alg = make_algebra("gl", 2)
    ring = ParamRing()
    fmat = generator_matrix(alg, ring)
    # zero out one entry: no longer equivariant
    rows = [list(row) for row in fmat.entries]
    rows[0][1] = EnvElement.zero(fmat.basis, ring)
    broken = OpMatrix(fmat.basis, ring, tuple(tuple(r) for r in rows))
    with pytest.raises(AssertionError):
        check_adjoint_covariance(alg, broken)
