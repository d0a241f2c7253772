"""PBW kernel laws: normal ordering, filtration, and the naive dual oracle."""

from __future__ import annotations

import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from huaops.liedata import make_algebra, make_glnr, make_upq
from huaops.params import ParamRing
from huaops.pbw import (
    EnvElement,
    OrderedBasis,
    RationalSpan,
    change_basis,
    make_matrix,
    mat_commutator,
    mono_degree,
    naive_normal_order,
    sum_products_column,
    word_mono,
)

RING = ParamRing()
SYMBOLIC = ParamRing(("mu_1", "s", "t"))
ROOT = Path(__file__).resolve().parent.parent


def _fresh(source, suffix):
    """A copy of ``source`` with empty memos."""
    return OrderedBasis(f"{source.basis_id}-{suffix}", source.ambient,
                        list(zip(source.names, source.zone_of, source.matrices)),
                        source.zones)


def _oracle_bases():
    """Bases for the naive-rewriter checks, with their expected scale D."""
    return (
        (make_algebra("gl", 3).basis, 1),
        (make_upq(2, 1).basis, 2),
        (make_glnr(3).basis, 2),
    )


def _word_coefficients(basis, word):
    """Coefficients of the straightened product of a generator word."""
    elem = EnvElement.scalar(basis, RING.one())
    for g in word:
        elem = elem * EnvElement.generator(basis, RING, g)
    coeffs = {m: c.constant_value() for m, c in elem.terms.items()}
    assert all(type(c) is Fraction for c in coeffs.values())
    return coeffs


def _random_element(basis, rng, *, max_degree=2, max_terms=3):
    out = EnvElement.zero(basis, RING)
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(
            rng.randrange(len(basis)) for _ in range(rng.randint(0, max_degree))
        )
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        term = EnvElement.scalar(basis, RING.const(coeff))
        for g in word:
            term = term * EnvElement.generator(basis, RING, g)
        out = out + term
    return out


def _symbol(elem):
    """Top-filtration part as a commutative exponent dictionary."""
    top = elem.degree()
    out = {}
    for mono, coeff in elem.terms.items():
        if mono_degree(mono) == top:
            out[mono] = coeff
    return out


def _symbol_product(sa, sb):
    out = {}
    for ma, ca in sa.items():
        for mb, cb in sb.items():
            exps = {}
            for g, e in ma:
                exps[g] = exps.get(g, 0) + e
            for g, e in mb:
                exps[g] = exps.get(g, 0) + e
            key = tuple(sorted(exps.items()))
            acc = out.get(key)
            out[key] = ca * cb if acc is None else acc + ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_associativity_on_random_triples():
    for kind, n, cases in (("gl", 2, 40), ("gl", 3, 25)):
        basis = make_algebra(kind, n).basis
        rng = random.Random(20260 + n)
        for _ in range(cases):
            a = _random_element(basis, rng)
            b = _random_element(basis, rng)
            c = _random_element(basis, rng)
            assert ((a * b) * c - a * (b * c)).is_zero()


def test_filtration_and_top_symbol():
    basis = make_algebra("gl", 3).basis
    rng = random.Random(7)
    for _ in range(30):
        a = _random_element(basis, rng)
        b = _random_element(basis, rng)
        ab = a * b
        if a.is_zero() or b.is_zero():
            assert ab.is_zero()
            continue
        assert ab.degree() <= a.degree() + b.degree()
        expected = _symbol_product(_symbol(a), _symbol(b))
        if expected:
            assert ab.degree() == a.degree() + b.degree()
            got = {
                tuple(sorted(dict(m).items())): c
                for m, c in _symbol(ab).items()
            }
            assert got == expected


def test_normal_order_fixes_ordered_words():
    basis = make_algebra("gl", 3).basis
    rng = random.Random(11)
    for _ in range(25):
        word = tuple(sorted(rng.randrange(len(basis)) for _ in range(4)))
        assert naive_normal_order(basis, word) == {word_mono(word): Fraction(1)}


def test_basis_scale_is_the_bracket_denominator():
    for basis, scale in _oracle_bases():
        assert basis.scale == scale, basis.basis_id


def test_naive_rewriter_agrees_on_generator_pairs():
    for basis, _scale in _oracle_bases():
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert (_word_coefficients(basis, (i, j))
                        == naive_normal_order(basis, (i, j))), (basis.basis_id, i, j)


def test_naive_rewriter_agrees_on_random_words():
    for basis, _scale in _oracle_bases():
        rng = random.Random(101)
        for _ in range(20):
            word = tuple(rng.randrange(len(basis)) for _ in range(3))
            assert (_word_coefficients(basis, word)
                    == naive_normal_order(basis, word)), (basis.basis_id, word)


def _word(mono):
    return tuple(g for g, e in mono for _ in range(e))


def test_monomial_products_match_naive_rewriter():
    # The int stored for m is D^(N - deg m) times its coefficient, with N the
    # degree of the product.  The right action mono·g of the projection is
    # checked for every g: below, equal to and above a's last factor.
    for basis, scale in _oracle_bases():
        rng = random.Random(107)

        def scaled(product, top):
            return {m: Fraction(c, scale ** (top - mono_degree(m)))
                    for m, c in product.items()}

        sides = set()
        for _ in range(12):
            a, b = (word_mono(sorted(rng.randrange(len(basis))
                                     for _ in range(rng.randint(2, 3))))
                    for _ in range(2))
            top = mono_degree(a) + mono_degree(b)
            assert (scaled(basis.mul_monos(a, b), top)
                    == naive_normal_order(basis, _word(a) + _word(b))), (
                basis.basis_id, a, b)
            for g in range(len(basis)):
                sides.add((g > a[-1][0]) - (g < a[-1][0]))
                assert (scaled(basis.mul_mono_gen(a, g), mono_degree(a) + 1)
                        == naive_normal_order(basis, _word(a) + (g,))), (
                    basis.basis_id, a, g)
        assert sides == {-1, 0, 1}, basis.basis_id


def test_in_order_products_are_read_off_and_not_stored():
    # When a's last generator is below b's first, a·b is a + b; when they
    # are equal, the two powers merge.  Neither product enters the memo.
    basis = _fresh(make_upq(2, 1).basis, "read-off")
    last = len(basis) - 1
    cases = [
        (((0, 1), (2, 2)), ((3, 1), (last, 1)), ((0, 1), (2, 2), (3, 1), (last, 1))),
        (((0, 2), (1, 1)), ((1, 3), (last, 2)), ((0, 2), (1, 4), (last, 2))),
        (((1, 1), (2, 1)), ((2, 1),), ((1, 1), (2, 2))),
        (((0, 1), (last, 1)), ((last, 2),), ((0, 1), (last, 3))),
    ]
    for a, b, product in cases:
        assert basis.mul_monos(a, b) == {product: 1}, (a, b)
        assert naive_normal_order(basis, _word(a) + _word(b)) == {product: Fraction(1)}
    assert basis.mul_mono_gen(((0, 1), (2, 1)), 2) == {((0, 1), (2, 2)): 1}
    assert basis.mul_mono_gen(((0, 1), (2, 1)), 3) == {((0, 1), (2, 1), (3, 1)): 1}
    assert basis._mono_mono_cache == {}


def test_left_action_matches_naive_rewriter():
    # g·m is straightened from the front of m; a product that needs a
    # bracket is memoised under the key (((g, 1),), m).
    for basis, _scale in _oracle_bases():
        rng = random.Random(103)
        monos = [word_mono(sorted(rng.randrange(len(basis)) for _ in range(deg)))
                 for deg in (3, 3, 3, 4, 4, 4)]
        for mono in monos:
            elem = EnvElement(basis, RING, {mono: RING.one()})
            for g in range(len(basis)):
                word = (g,) + _word(mono)
                product = EnvElement.generator(basis, RING, g) * elem
                got = {m: c.constant_value() for m, c in product.terms.items()}
                assert got == naive_normal_order(basis, word), (basis.basis_id, word)
                stored = (((g, 1),), mono) in basis._mono_mono_cache
                assert stored == (g > mono[0][0]), (basis.basis_id, word)


def test_memo_shares_one_object_per_monomial():
    # Equal monomials stored in the memo's values are one object, and every
    # single-generator key is the basis's shared ((g, 1),), also when the
    # caller passes a tuple of its own.
    basis = _fresh(make_upq(2, 1).basis, "interned")
    rng = random.Random(109)
    monos = [word_mono(sorted(rng.randrange(len(basis)) for _ in range(deg)))
             for deg in (1, 1, 1, 2, 2, 3, 3, 3)]
    for a in monos:
        for b in monos:
            basis.mul_monos(a, b)
    memo = basis._mono_mono_cache
    shared, singles = {}, 0
    for (a, _b), image in memo.items():
        if a == ((a[0][0], 1),):
            singles += 1
            assert a is basis._singles[a[0][0]], a
        for m in image:
            assert shared.setdefault(m, m) is m, m
    # Both checks ran, and some monomial is stored more than once.
    assert singles and len(shared) < sum(map(len, memo.values()))


def _symbolic_element(basis, rng):
    """A few terms of degree <= 2 with coefficients in mu_1, s, t."""
    mu, s, t = map(SYMBOLIC.var, SYMBOLIC.symbols)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = word_mono(sorted(rng.randrange(len(basis)) for _ in range(rng.randint(0, 2))))
        coeff = (SYMBOLIC.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 + rng.choice((mu, s, t, mu * t, s * s)) * rng.randint(-2, 2))
        if not coeff.is_zero():
            terms[mono] = coeff
    return EnvElement(basis, SYMBOLIC, terms)


def _naive_sum_products(row, column):
    """``sum_k row[k] * column[k]``, term by term through the naive rewriter."""
    out = {}
    for x, y in zip(row, column):
        for ma, pa in x.terms.items():
            for mb, pb in y.terms.items():
                word = _word(ma) + _word(mb)
                for m, c in naive_normal_order(x.basis, word).items():
                    term = pa * pb * SYMBOLIC.const(c)
                    out[m] = out[m] + term if m in out else term
    return {m: p for m, p in out.items() if not p.is_zero()}


def test_sum_products_column_matches_naive_products():
    basis = make_upq(2, 1).basis
    rng = random.Random(113)
    _mu, s, t = map(SYMBOLIC.var, SYMBOLIC.symbols)
    for _ in range(3):
        x, y, z, u, v, w = (_symbolic_element(basis, rng) for _ in range(6))
        # s·x·z + (t - s)·x·z + y·u - y·u + v·w = t·x·z + v·w: the s-part of
        # every x·z monomial cancels, and y·u cancels whole.
        cancelling = [x.scale(s), x.scale(t - s), y, y, v]
        column = [z, z, u, -u, w]
        plain = [_symbolic_element(basis, rng) for _ in column]
        got = sum_products_column((cancelling, plain), column)
        assert [e.terms for e in got] == [_naive_sum_products(cancelling, column),
                                          _naive_sum_products(plain, column)]
        assert got[0].terms == _naive_sum_products([x.scale(t), v], [z, w])
        only_yu = (set(_naive_sum_products([y], [u]))
                   - set(_naive_sum_products([x], [z])) - set(_naive_sum_products([v], [w])))
        assert only_yu and only_yu.isdisjoint(got[0].terms)


@pytest.fixture
def unscaled_iwasawa():
    """A fresh copy of the U(2,1) Iwasawa basis with its scale forced to 1."""
    basis = _fresh(make_upq(2, 1).basis, "unscaled")
    basis.scale = 1
    return basis


def test_wrong_scale_raises_instead_of_rounding(unscaled_iwasawa):
    basis = unscaled_iwasawa
    n = len(basis)
    i, j = next((i, j) for i in range(n) for j in range(i)
                if any(c.denominator != 1 for _k, c in basis.bracket(i, j)))
    x, y = (EnvElement.generator(basis, RING, g) for g in (i, j))
    with pytest.raises(ArithmeticError, match="not an integer"):
        x * y
    # The same guard holds for a generator acting on a degree-2 monomial.
    monomial = EnvElement(basis, RING, {((j, 1), (i, 1)): RING.one()})
    with pytest.raises(ArithmeticError, match="not an integer"):
        x * monomial


def test_commutator_of_generators_matches_matrix_bracket():
    basis = make_algebra("gl", 2).basis
    for i in range(len(basis)):
        for j in range(len(basis)):
            lhs = EnvElement.generator(basis, RING, i).commutator(
                EnvElement.generator(basis, RING, j)
            )
            mat = mat_commutator(basis.matrices[i], basis.matrices[j])
            rhs = EnvElement.from_gl_matrix(basis, RING, mat)
            assert (lhs - rhs).is_zero()


def test_change_basis_round_trip():
    form = make_upq(2, 1)
    verma = form.complex_algebra.basis
    iwasawa = form.basis
    rng = random.Random(13)
    for _ in range(10):
        elem = _random_element(verma, rng)
        back = change_basis(change_basis(elem, iwasawa, {}), verma, {})
        assert (back - elem).is_zero()


def test_change_basis_is_multiplicative():
    form = make_upq(1, 1)
    verma = form.complex_algebra.basis
    rng = random.Random(17)
    for _ in range(10):
        a = _random_element(verma, rng)
        b = _random_element(verma, rng)
        lhs = change_basis(a * b, form.basis, {})
        rhs = change_basis(a, form.basis, {}) * change_basis(b, form.basis, {})
        assert (lhs - rhs).is_zero()


def test_json_round_trip():
    basis = make_algebra("gl", 2).basis
    ring = ParamRing(("s",))
    s = ring.var("s")
    elem = EnvElement.generator(basis, ring, 0) * EnvElement.generator(
        basis, ring, 3
    )
    elem = elem.scale(s) + EnvElement.scalar(basis, s * s - 2)
    data = elem.to_json_dict()
    back = EnvElement.from_json_dict(data, basis, ring)
    assert (back - elem).is_zero()


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps these methods and reads these memos by name,
    # so a rename would break only the traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for qualified in {**tracer.COUNTED_METHODS, **tracer.SPANNED_METHODS}:
        layer, cls_name, method = qualified.split(".")
        cls = getattr(importlib.import_module(f"huaops.{layer}"), cls_name)
        assert method in vars(cls), qualified
    fresh = _fresh(make_algebra("gl", 2).basis, "fresh")
    for cache in ("_mono_gen_cache", "_mono_mono_cache", "_conversion_cache"):
        assert getattr(fresh, cache) == {}, cache


def _unit(i, j):
    return make_matrix(2, {(i, j): 1})


@pytest.mark.parametrize(
    "generators, zones, message",
    [([("x", "a", _unit(1, 1)), ("x", "a", _unit(2, 2))], ("a",),
      "duplicate generator names"),
     ([("x", "a", make_matrix(3, {(1, 1): 1}))], ("a",), "generator x is not 2x2"),
     ([("x", "a", _unit(1, 1)), ("y", "n", _unit(2, 1)), ("z", "a", _unit(2, 2))], ("a", "n"),
      "generators not grouped by zones ('a', 'n'): ['a', 'n', 'a']"),
     ([("y", "n", _unit(2, 1)), ("x", "a", _unit(1, 1))], ("a", "n"),
      "zone groups out of declared order: ['n', 'a']"),
     ([("x", "a", _unit(1, 1)), ("y", "a", make_matrix(2, {(1, 1): 2}))], ("a",),
      "generator y is linearly dependent on earlier ones")],
    ids=["duplicate-names", "wrong-size", "zones-not-grouped", "zones-out-of-order", "dependent"],
)
def test_basis_refuses_malformed_generators(generators, zones, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        OrderedBasis("bad", 2, generators, zones)


def test_basis_refuses_an_unclosed_span_on_the_first_bracket():
    basis = OrderedBasis("open", 2, [("e", "n", _unit(1, 2)), ("f", "n", _unit(2, 1))], ("n",))
    with pytest.raises(ValueError, match=re.escape(
            "basis 'open' is not closed under brackets: [e, f] leaves the span")):
        basis.bracket(0, 1)


def test_rational_span_solves_combinations_and_refuses_dependent_vectors():
    # Unit-triangular vectors under a shuffled coordinate order are
    # independent, every combination of them is dependent, and the next unit
    # vector of that order lies outside their span.
    rng = random.Random(31)
    dim = 7

    def rational():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def combination(coords, vectors):
        return [sum((c * v[j] for c, v in zip(coords, vectors)), Fraction(0)) for j in range(dim)]

    for _ in range(10):
        order = rng.sample(range(dim), dim)
        span, added = RationalSpan(dim), []
        for i in range(rng.randint(1, dim - 1)):
            if added and rng.random() < 0.5:
                assert span.add(combination([rational() for _ in added], added)) is False
            vec = [Fraction(0)] * dim
            vec[order[i]] = Fraction(1)
            for j in order[i + 1:]:
                vec[j] = rational()
            assert span.add(vec) is True
            added.append(vec)
        for _ in range(5):
            coords = tuple(rational() for _ in added)
            assert span.solve(combination(coords, added)) == coords
        outside = [Fraction(0)] * dim
        outside[order[len(added)]] = Fraction(1)
        assert span.solve(outside) is None
        assert span.add(outside) is True
