"""Operator matrices: polynomial evaluation, centrality, covariance, generators."""

from __future__ import annotations

from fractions import Fraction

import pytest

import huaops.matop as matop_module
from huaops.liedata import make_algebra, make_glnr
from huaops.matop import (
    CentralityError,
    OpMatrix,
    adjoint_covariance_defect,
    central_eigenvalue,
    factor_columns,
    generator_matrix,
    ideal_generators,
    mat_eval_poly,
    theta_weight,
    trace_power,
)
from huaops.minpoly import ThetaData, minimal_polynomial
from huaops.params import ParamPoly, ParamRing
from huaops.pbw import EnvElement, _peel, sum_products_column
from huaops.reduce import UpqCase


def _gl2():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("c0", "c1", "c2"))
    return alg, ring, generator_matrix(alg, ring)


def test_mat_eval_poly_matches_direct_horner_expansion():
    alg, ring, fmat = _gl2()
    coeffs = [ring.var("c0"), ring.var("c1"), ring.var("c2")]
    got = mat_eval_poly(fmat, coeffs)
    direct = OpMatrix.identity(fmat.basis, ring, fmat.size).scale(coeffs[0])
    direct = direct.add(fmat.scale(coeffs[1]))
    direct = direct.add(fmat.mul(fmat).scale(coeffs[2]))
    assert got.sub(direct).is_zero()


@pytest.mark.parametrize("columns", [(1, 2, 3), (3, 1)], ids=["all", "subset"])
def test_factor_columns_match_coefficient_form(columns):
    alg = make_algebra("gl", 3)
    ring = ParamRing(("c0", "c1", "c2"))
    fmat = generator_matrix(alg, ring)
    roots = [ring.var("c0"), ring.var("c1") + 1, ring.var("c2")]
    prefixes = list(factor_columns(fmat, roots, columns))
    assert len(prefixes) == len(roots)
    # coefficients of (x - r_1)...(x - r_k), lowest degree first
    coeffs = [ring.one()]
    for root, prefix in zip(roots, prefixes):
        coeffs = [(coeffs[i - 1] if i else ring.zero())
                  - (root * coeffs[i] if i < len(coeffs) else ring.zero())
                  for i in range(len(coeffs) + 1)]
        expected = mat_eval_poly(fmat, coeffs)
        assert len(prefix) == len(columns)
        for b, column in zip(columns, prefix):
            assert column == [expected.entry(a, b) for a in range(1, 4)]


def test_unpruned_module_chain_is_the_peeled_prefix():
    # GL(3,R) with its zero character, no pruning: after every root the
    # chain holds exactly the peeled prefix, n-leading terms included.
    form = make_glnr(3)
    ring = form.ring
    emat = generator_matrix(form.complex_algebra, ring, form.basis)
    roots = [ring.zero(), ring.const(Fraction(3, 2)), ring.const(Fraction(3, 2))]
    columns = (1, 2, 3)
    prefixes = factor_columns(emat, roots, columns)
    steps = factor_columns(emat, roots, columns, form.k_character)
    n_zone = form.basis.zone_indices("n")
    for prefix, state in zip(prefixes, steps, strict=True):
        for whole, column in zip(prefix, state, strict=True):
            assert column == [_peel(x, form.k_character) for x in whole]
    assert any(mono and mono[0][0] in n_zone for column in state for x in column for mono in x.terms)


def test_trace_power_matches_power_trace():
    alg, ring, fmat = _gl2()
    zero, one = ring.zero(), ring.one()
    for k in (1, 2, 3):
        power = mat_eval_poly(fmat, [zero] * k + [one])  # Horner: F^k
        assert (trace_power(fmat, k) - power.trace()).is_zero()


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
    for pos, diag in zip(alg.basis.zone_indices("a"), range(1, alg.rank + 1)):
        assert weight[pos] == expected[diag]


def test_ideal_generators_gl2_shapes():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("l1", "l2"))
    theta = ThetaData(
        kind="gl", rank=2, blocks=(1, 2), char_values=(ring.var("l1"), ring.var("l2"))
    )
    gens = ideal_generators(alg, theta)
    assert len(gens.entries()) == 4
    assert [(c.index, c.order) for c in gens.central] == [(1, 1)]
    assert gens.central[0].eigenvalue == ring.var("l1") + ring.var("l2")
    assert not gens.pfaffian_omitted
    restricted = ideal_generators(alg, theta, column_range=(2, 2))
    assert [(i, j) for i, j, _ in restricted.entries()] == [(1, 2), (2, 2)]


def test_generator_set_formats_each_distinct_coefficient_once(monkeypatch):
    # The elements of one set share a memo of printed coefficients: the
    # JSON data is the same as with one str per term, and each distinct
    # coefficient is printed once.
    case = UpqCase(2, 1, (1,))
    gens = ideal_generators(make_algebra("gl", 3), case.theta)
    elements = [e for _i, _j, e in gens.entries()] + [c.element for c in gens.central]
    expected = gens.to_json_dict()
    assert [x["element"] for x in expected["entries"] + expected["central"]] == [
        {"basisId": e.basis.basis_id,
         "terms": [{"coeff": str(p), "monomial": m} for m, p in e.sorted_terms()]}
        for e in elements]
    coefficients = {id(p): p for e in elements for p in e.terms.values()}
    printed = []
    plain = ParamPoly.__str__
    monkeypatch.setattr(ParamPoly, "__str__",
                        lambda poly: printed.append(poly) or plain(poly))
    assert gens.to_json_dict() == expected
    printed = [p for p in printed if id(p) in coefficients]
    assert len(printed) == len(set(printed)) == len(set(coefficients.values()))
    assert len(printed) < len(coefficients)


@pytest.mark.parametrize("p, q, blocks", [(2, 1, (1,)), (3, 1, (1,))])
def test_restricted_entries_equal_the_unrestricted_ones(p, q, blocks):
    case = UpqCase(p, q, blocks)
    form, theta = case.form, case.theta
    alg = make_algebra("gl", p + q)
    full = {(i, j): e for i, j, e in ideal_generators(alg, theta).entries()}
    restricted = ideal_generators(alg, theta, column_range=(p + 1, p + q))
    entries = restricted.entries()
    assert [(i, j) for i, j, _ in entries] == [(i, j) for i in range(1, p + q + 1) for j in range(p + 1, p + q + 1)]
    for i, j, e in entries:
        assert e == full[i, j], (i, j)
    horner = mat_eval_poly(generator_matrix(alg, form.ring), minimal_polynomial(theta).coefficients())
    assert all(e == horner.entry(i, j) for (i, j), e in full.items())


def test_restricted_ideal_builds_no_unexported_column(monkeypatch):
    # Every U(g) product of matop goes through sum_products_column; record
    # what it builds and look for the entries of q(F) outside column 3.
    case = UpqCase(2, 1, (1,))
    form, theta = case.form, case.theta
    alg = make_algebra("gl", 3)
    full = mat_eval_poly(generator_matrix(alg, form.ring), minimal_polynomial(theta).coefficients())
    kept = {str(full.entry(a, 3)) for a in (1, 2, 3)}
    unexported = {str(full.entry(a, b)) for a in (1, 2, 3) for b in (1, 2)} - kept - {"0"}
    assert len(unexported) == 6
    built = set()

    def recording(rows, column, *bound):
        product = sum_products_column(rows, column, *bound)
        built.update(str(x) for x in product)
        return product

    monkeypatch.setattr(matop_module, "sum_products_column", recording)
    ideal_generators(alg, theta, column_range=(3, 3))
    assert kept <= built
    assert not unexported & built


def test_ideal_generators_check_the_rank_before_any_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("built a product for a pattern of the wrong rank")

    monkeypatch.setattr(matop_module, "sum_products_column", forbidden)
    ring = ParamRing(("l1",))
    theta = ThetaData(kind="gl", rank=2, blocks=(2,), char_values=(ring.var("l1"),))
    with pytest.raises(ValueError, match="^block pattern rank does not match the algebra$"):
        ideal_generators(make_algebra("gl", 3), theta)


def test_ideal_generators_even_orthogonal_pfaffian_flag():
    alg = make_algebra("o-even", 2)
    ring = ParamRing(("l1",))
    theta = ThetaData(kind="o-even", rank=2, blocks=(2,), char_values=(ring.var("l1"),))
    gens = ideal_generators(alg, theta)
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
    gens = ideal_generators(alg, theta)
    weight = theta_weight(alg, theta)
    d = gens.central[0]
    assert central_eigenvalue(alg, d.element, weight) == d.eigenvalue


def test_adjoint_covariance_of_generator_matrix_polynomials():
    alg = make_algebra("gl", 2)
    ring = ParamRing(("c0", "c1"))
    fmat = generator_matrix(alg, ring)
    qmat = mat_eval_poly(fmat, [ring.var("c0"), ring.var("c1")])
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
    assert any(not adjoint_covariance_defect(alg, broken, g).is_zero()
               for g in range(len(alg.basis)))
