"""Iwasawa-zone reduction: ideal soundness, radial images, case drivers."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from huaops import liedata
import huaops.reduce as reduce_module
from huaops.liedata import make_glnr, make_spnr, make_upq, phi
from huaops.matop import OpMatrix, entry_positions, factor_columns, generator_matrix, ideal_generators, trace_power
from huaops.minpoly import minimal_polynomial
from huaops.params import ParamRing
from huaops.pbw import EnvElement, _peel, change_basis
from huaops.reduce import (
    ReductionSpec,
    UpqCase,
    gamma,
    gamma_ell,
    gl_lemma_check,
    hua_sp_system,
    radial_ring,
    reduce_iwasawa,
    upq_scalar_recursion,
    upq_shilov_identity,
    upq_theorem_case,
    zero_character,
)


def _random_element(basis, ring, rng, *, max_degree=2, max_terms=3):
    out = EnvElement.zero(basis, ring)
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.randrange(len(basis)) for _ in range(rng.randint(0, max_degree))]
        term = EnvElement.scalar(basis, ring.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        for g in word:
            term = term * EnvElement.generator(basis, ring, g)
        out = out + term
    return out


def _mat_trace_pairing(a, b):
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


def _invert(rows):
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _casimir(form):
    """The trace-form Casimir sum_ab (G^-1)_ab X_a X_b over the Iwasawa basis.

    Built from scratch here (Gram matrix of tr(X_a X_b), exact inverse) as an
    oracle independent of the generator-matrix machinery; it is central, so
    its reduction must not see the line-bundle twist.
    """
    basis, ring = form.basis, form.ring
    mats = basis.matrices
    gram = [[_mat_trace_pairing(a, b) for b in mats] for a in mats]
    inv = _invert(gram)
    total = EnvElement.zero(basis, ring)
    gens = [EnvElement.generator(basis, ring, i) for i in range(len(basis))]
    for a in range(len(basis)):
        for b in range(len(basis)):
            if inv[a][b] != 0:
                total = total + (gens[a] * gens[b]).scale(inv[a][b])
    return total


# ---------------------------------------------------------------------------
# frozen radial images (checked against the quadratic eigenvalue form
# <lam, lam> - <rho, rho> in each normalization)
# ---------------------------------------------------------------------------


def test_gamma_of_gl2_quadratic_casimir():
    form = make_glnr(2)
    g = gamma(trace_power(generator_matrix(form.complex_algebra, form.ring), 2), form)
    h1 = g.ring.var(form.a_names[0])
    h2 = g.ring.var(form.a_names[1])
    expected = h1 * h1 + h2 * h2 - g.ring.const(Fraction(1, 2))
    # rho = (1/2, -1/2): the constant is rho_1^2 + rho_2^2 = 1/2
    assert (g - expected).is_zero()


def test_gamma_ell_of_sp1_quadratic_casimir():
    form = make_spnr(1)
    g = gamma_ell(trace_power(generator_matrix(form.complex_algebra, form.ring), 2), form)
    a1 = g.ring.var(form.a_names[0])
    expected = (a1 * a1 - g.ring.const(1)) * Fraction(2)
    # rho = 1 for Sp(1,R); the ell-dependence cancels in the quadratic Casimir
    assert (g - expected).is_zero()


@pytest.mark.parametrize("n, constant", [(2, 10), (3, 28)])
def test_gamma_of_spnr_quadratic_casimir(n, constant):
    # 2 sum_i A_i^2 - 2|rho|^2 with rho = (n, ..., 1)
    form = make_spnr(n)
    casimir = trace_power(generator_matrix(form.complex_algebra, form.ring), 2)
    g = gamma(casimir, form)
    expected = sum((g.ring.var(name) * g.ring.var(name) * 2 for name in form.a_names), g.ring.const(-constant))
    assert (g - expected).is_zero()
    assert (gamma_ell(casimir, form) - expected).is_zero()


@pytest.mark.parametrize(
    "form",
    [make_glnr(2), make_upq(1, 1), make_upq(2, 1), make_upq(2, 2), make_spnr(1), make_spnr(2)],
    ids=lambda f: f.name + str(f.params),
)
def test_gamma_ell_at_zero_matches_gamma_on_casimir(form):
    d = _casimir(form)
    ell0 = {sym: 0 for sym in form.ring.symbols}
    left = gamma_ell(d, form, ell0 or None)
    right = gamma(d, form)
    assert (left - right).is_zero()


# ---------------------------------------------------------------------------
# ideal soundness and linearity of the reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "form", [make_upq(1, 1), make_upq(2, 1), make_spnr(1)], ids=lambda f: f.name + str(f.params)
)
def test_reduction_kills_the_defining_left_ideal(form):
    basis, ring = form.basis, form.ring
    spec = ReductionSpec(form)
    rng = random.Random(29)
    k_zone = list(basis.zone_indices("k"))
    n_zone = list(basis.zone_indices("n"))
    for _ in range(4):
        u = _random_element(basis, ring, rng)
        for idx in k_zone:
            x = EnvElement.generator(basis, ring, idx)
            chi = EnvElement.scalar(basis, form.k_character[idx])
            assert reduce_iwasawa(u * (x - chi), spec).is_zero()
        for idx in n_zone:
            y = EnvElement.generator(basis, ring, idx)
            assert reduce_iwasawa(y * u, spec).is_zero()


def test_reduction_is_linear():
    form = make_upq(1, 1)
    basis, ring = form.basis, form.ring
    spec = ReductionSpec(form)
    rng = random.Random(31)
    s = ring.var("s")
    for _ in range(5):
        u = _random_element(basis, ring, rng)
        v = _random_element(basis, ring, rng)
        assert (
            reduce_iwasawa(u + v, spec) - reduce_iwasawa(u, spec) - reduce_iwasawa(v, spec)
        ).is_zero()
        res = reduce_iwasawa(u, spec)
        assert (reduce_iwasawa(u.scale(s), spec) - res * res.ring.var("s")).is_zero()


def test_reduction_fixes_a_zone_polynomials():
    form = make_upq(1, 1)
    basis, ring = form.basis, form.ring
    spec = ReductionSpec(form)
    i0 = basis.zone_indices("a")[0]
    h = EnvElement.generator(basis, ring, i0)
    res = reduce_iwasawa(h * h, spec)
    var = res.ring.var(basis.names[i0])
    assert (res - var * var).is_zero()


def test_rho_shift_moves_a_generators():
    form = make_glnr(2)
    basis, ring = form.basis, form.ring
    spec = ReductionSpec(form, zero_character(form), rho_shift=True)
    for pos, idx in enumerate(basis.zone_indices("a")):
        h = EnvElement.generator(basis, ring, idx)
        res = reduce_iwasawa(h, spec)
        expected = res.ring.var(basis.names[idx]) + res.ring.const(form.rho[pos])
        assert (res - expected).is_zero()


@pytest.mark.parametrize(
    "form",
    [make_upq(1, 1), make_upq(2, 1), make_upq(2, 2), make_spnr(1), make_spnr(2), make_spnr(3), make_glnr(2), make_glnr(3)],
    ids=lambda f: f.name + str(f.params),
)
def test_reduction_accepts_ambient_verma_elements(form):
    verma = form.complex_algebra.basis
    spec = ReductionSpec(form)
    rng = random.Random(37)
    for _ in range(6):
        u = _random_element(verma, form.ring, rng, max_degree=3, max_terms=6)
        converted = change_basis(u, form.basis, {})
        assert (reduce_iwasawa(u, spec) - reduce_iwasawa(converted, spec)).is_zero()
        assert (gamma(u, form) - gamma(converted, form)).is_zero()


def test_conversion_peeled_at_every_step_matches_one_peel_at_the_end():
    # U(g)(k - chi) is a left ideal, so peeling the k-tails after every left
    # factor of the conversion gives the peel of the plain conversion, for
    # the form's own character, the zero one and gamma_ell's negated one.
    rng = random.Random(41)
    for form in (make_upq(2, 1), make_upq(2, 2), make_spnr(2), make_glnr(3)):
        verma, basis = form.complex_algebra.basis, form.basis
        k_zone = basis.zone_indices("k")
        characters = (form.k_character, zero_character(form), {i: -v for i, v in form.k_character.items()})
        k_tails = 0
        for _ in range(4):
            u = _random_element(verma, form.ring, rng, max_degree=4, max_terms=5)
            plain = change_basis(u, basis, {})
            k_tails += any(m and m[-1][0] in k_zone for m in plain.terms)
            for character in characters:
                assert change_basis(u, basis, character) == _peel(plain, character), form.name
        assert k_tails, form.name


def _n_phi(form, mono):
    """phi of the n-part of a monomial, from the recorded n-weights."""
    return sum(phi(form.n_weights[g]) * e for g, e in mono if g in form.n_weights)


@pytest.mark.parametrize("p, q, blocks", [(2, 1, (1,)), (3, 2, (1, 2))])
def test_kernel_columns_are_the_factor_product_prefixes_in_the_module(p, q, blocks):
    # Exactly: column b after step m of K is column b of the m-th prefix
    # applied to v_chi (converted to the Iwasawa basis with its k-tails
    # peeled), less every term whose n-part has phi > (K - m)·L, L = phi(2e_1).
    case = UpqCase(p, q, blocks)
    form, roots = case.form, [-v for v in case.schedule]
    size = p + q
    step = phi((2,) + (0,) * (q - 1))
    assert step == 2 * q
    prefixes = factor_columns(generator_matrix(form.complex_algebra, form.ring), roots, range(1, size + 1))
    steps = case.chain(roots, range(1, size + 1))
    dropped = kept_n_leading = 0
    for m, (prefix, columns) in enumerate(zip(prefixes, steps, strict=True), start=1):
        budget = (len(roots) - m) * step
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                full = _peel(change_basis(prefix[b - 1][a - 1], form.basis, {}), form.k_character).terms
                expected = {mono: c for mono, c in full.items() if _n_phi(form, mono) <= budget}
                assert columns[b - 1][a - 1].terms == expected, (m, a, b)
                dropped += len(full) - len(expected)
                kept_n_leading += sum(_n_phi(form, mono) > 0 for mono in expected)
    assert dropped and kept_n_leading


def _random_na_monomial(form, rng, low):
    """A random n|a monomial whose n-part has phi > low."""
    n_zone, a_zone = form.basis.zone_indices("n"), form.basis.zone_indices("a")
    word = []
    while sum(phi(form.n_weights[g]) for g in word) <= low:
        word.append(rng.choice(n_zone))
    word += [rng.choice(a_zone) for _ in range(rng.randint(0, 2))]
    return tuple(sorted(word))


def _element_of_word(form, word):
    element = EnvElement.scalar(form.basis, form.ring.one())
    for g in word:
        element = element * EnvElement.generator(form.basis, form.ring, g)
    return element


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2)])
def test_left_action_moves_phi_by_at_least_the_grade(p, q):
    # The weight lemma for one generator at a time, in the induced module:
    # every term of g·b·v_chi has phi >= phi(b) + grade(g).
    form = make_upq(p, q)
    rng = random.Random(11 * p + q)
    for _ in range(3):
        b = _element_of_word(form, _random_na_monomial(form, rng, rng.randint(0, 2 * q)))
        (low,) = {_n_phi(form, mono) for mono in b.terms}
        for g in range(len(form.basis)):
            image = _peel(EnvElement.generator(form.basis, form.ring, g) * b, form.k_character)
            assert all(_n_phi(form, mono) >= low + form.grades[g] for mono in image.terms), form.basis.names[g]


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2)])
def test_terms_over_the_budget_never_reach_the_n_free_part(p, q):
    # R factors of degree one lower phi by at most R·L, L = phi(2e_1) = 2q:
    # an n|a element with phi > R·L keeps a zero n-free part through R
    # random degree-one elements, each followed by the k-peel.
    form = make_upq(p, q)
    spec = ReductionSpec(form)
    step = phi((2,) + (0,) * (q - 1))
    rng = random.Random(5 * p + q)
    basis, ring = form.basis, form.ring
    for rounds in (1, 2):
        for _ in range(2):
            u = EnvElement.zero(basis, ring)
            for _ in range(2):
                word = _random_na_monomial(form, rng, rounds * step)
                u = u + _element_of_word(form, word).scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for r in range(1, rounds + 1):
                x = EnvElement.scalar(basis, ring.const(rng.randint(-3, 3)))
                for g in rng.sample(range(len(basis)), 4):
                    x = x + EnvElement.generator(basis, ring, g).scale(rng.randint(-2, 2) or 1)
                u = _peel(x * u, form.k_character)
                assert all(_n_phi(form, mono) > (rounds - r) * step for mono in u.terms)
            assert reduce_iwasawa(u, spec).is_zero()


def test_membership_drivers_peel_the_character_after_every_factor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("basis conversion called")

    forms = []

    def recording(mat, roots, columns, character=None, grades=None):
        forms.append((character, grades))
        k_zone = mat.basis.zone_indices("k")
        for state in factor_columns(mat, roots, columns, character, grades):
            for column in state:
                for x in column:
                    assert not any(g in k_zone for m in x.terms for g, _e in m)
            yield state

    monkeypatch.setattr(reduce_module, "change_basis", forbidden)
    monkeypatch.setattr(reduce_module, "factor_columns", recording)
    case = UpqCase(2, 1, (1,))
    assert upq_theorem_case(case)["pass"]
    assert not upq_theorem_case(case, perturb=True)["pass"]
    assert upq_scalar_recursion(case, compare_kernel=True)["pass"]
    assert len(forms) == 3
    assert all(character is case.form.k_character and grades is case.form.grades for character, grades in forms)


def _residues_through_ideal_generators(p, q, blocks, perturb):
    """The membership residues as the full generator set gives them."""
    case = UpqCase(p, q, blocks)
    form, theta = case.form, case.theta
    if perturb:
        theta = replace(theta, char_values=(theta.char_values[0] - 1,) + theta.char_values[1:])
    gens = ideal_generators(form.complex_algebra, theta, column_range=case.column_range)
    residues = [(f"entry[{i},{j}]", str(reduce_iwasawa(e, case.spec))) for i, j, e in gens.entries()]
    return gens.metadata(), residues


@pytest.mark.parametrize(
    "p, q, blocks, perturb",
    [(1, 1, (1,), False), (2, 1, (1,), False), (2, 2, (1, 2), False), (2, 2, (1, 2), True), (3, 2, (1, 2), False)],
)
def test_theorem_case_matches_the_generator_set_path(p, q, blocks, perturb):
    report = upq_theorem_case(UpqCase(p, q, blocks), perturb=perturb)
    metadata, expected = _residues_through_ideal_generators(p, q, blocks, perturb)
    assert [(c["name"], c["residue"]) for c in report["checks"]] == expected
    assert report["parameters"] == {**metadata, "p": p, "q": q, "blocks": list(blocks), "perturbed": perturb}
    if perturb:
        assert len(expected) == 16
        assert sum(residue != "0" for _, residue in expected) == 8
    else:
        assert report["pass"]


def _shifted_chain_residues(case, shifted, prune):
    """Residues of every entry of q(F)·v_chi, row by row, with root
    ``shifted`` (an index, or None) raised by 1; the unpruned oracle runs
    the chain with the character and no grades."""
    roots = list(minimal_polynomial(case.theta).roots)
    if shifted is not None:
        roots[shifted] = roots[shifted] + 1
    size = case.p + case.q
    if prune:
        chain = case.chain(roots, range(1, size + 1))
    else:
        form = case.form
        fmat = generator_matrix(form.complex_algebra, form.ring, form.basis)
        chain = factor_columns(fmat, roots, range(1, size + 1), form.k_character)
    for columns in chain:
        pass
    return {(a, b): str(reduce_iwasawa(columns[b - 1][a - 1], case.spec))
            for a in range(1, size + 1) for b in range(1, size + 1)}


@pytest.mark.parametrize("p, q, blocks, kept_counts, all_counts, middle", [
    (2, 2, (1, 2), (8, 8, 8, 4), (8, 8, 8, 4), None),
    (3, 2, (1, 2), (4, 4, 0, 4, 2), (9, 9, 5, 8, 4), [(1, 1), (2, 2), (3, 3), (4, 2), (5, 1)]),
    (2, 1, (1,), (2, 0, 2), (5, 3, 4), [(1, 1), (2, 2), (3, 1)]),
], ids=["2-2", "3-2", "2-1"])
def test_every_shifted_root_is_seen_by_the_pruned_chain(p, q, blocks, kept_counts, all_counts, middle):
    # Shift each root by +1 in turn: the pruned chain gives the residues of
    # the unpruned one, string for string, and breaks a pinned number of
    # entries.  When p > q the kept columns cannot see the middle root;
    # all p + q columns can.
    case = UpqCase(p, q, blocks)
    size = p + q
    kept = {b for _a, b in entry_positions(size, case.column_range)}
    assert len(minimal_polynomial(case.theta).roots) == len(all_counts)
    assert set(_shifted_chain_residues(case, None, True).values()) == {"0"}
    got_kept, got_all = [], []
    for shifted in range(len(all_counts)):
        residues = _shifted_chain_residues(case, shifted, True)
        assert residues == _shifted_chain_residues(case, shifted, False), shifted
        broken = sorted(pos for pos, residue in residues.items() if residue != "0")
        got_kept.append(sum(b in kept for _a, b in broken))
        got_all.append(len(broken))
        if middle is not None and shifted == len(all_counts) // 2:
            assert broken == middle
    assert (tuple(got_kept), tuple(got_all)) == (kept_counts, all_counts)


@pytest.mark.parametrize("p, q, blocks", [(2, 1, (1,)), (3, 2, (1, 2))])
def test_a_values_peeled_equal_a_values_substituted(p, q, blocks):
    # Oracle: reduce with no a-values, then substitute them (and the rho
    # shift of the a-generators left without one) over the radial ring.
    case = UpqCase(p, q, blocks)
    form, spec = case.form, case.spec
    radial = radial_ring(form.ring, form.a_names)
    names = [form.basis.names[i] for i in form.basis.zone_indices("a")]
    values = {form.basis.names[i]: v.rename(radial) for i, v in spec.a_values.items()}
    first = form.basis.zone_indices("a")[0]
    partial = ReductionSpec(form, a_values={first: spec.a_values[first]}, rho_shift=True)
    shifted = {name: radial.var(name) + r for name, r in zip(names[1:], form.rho[1:])}
    rng = random.Random(41)
    coefficient = form.ring.var("s") - form.ring.var("mu_1") * 2
    seen = 0
    for _ in range(8):
        u = _random_element(form.basis, form.ring, rng, max_degree=3, max_terms=4)
        u = u.scale(coefficient) + _random_element(form.basis, form.ring, rng)
        plain = reduce_iwasawa(u, ReductionSpec(form))
        assert reduce_iwasawa(u, spec) == plain.substitute(values).rename(form.ring)
        if shifted:  # a partial a-value needs two a-generators
            expected = plain.substitute({names[0]: values[names[0]], **shifted})
            assert reduce_iwasawa(u, partial) == expected
        seen += not plain.is_zero()
    assert seen >= 4


def test_upq_a_substitution_spec_is_total():
    case = UpqCase(2, 1, (1,))
    spec = case.spec
    assert spec.total_a()
    assert spec.k_character is case.form.k_character
    # E_i = 2 mu_j, with j the block of i: n_(j-1) < i <= n_j.
    for p, q, blocks, expected in [(3, 2, (1, 2), ["mu_1", "mu_2"]), (3, 3, (1, 3), ["mu_1", "mu_2", "mu_2"]),
                                   (3, 3, (2, 3), ["mu_1", "mu_1", "mu_2"])]:
        case = UpqCase(p, q, blocks)
        names = case.form.basis.names
        ring = case.form.ring
        assert {names[i]: v for i, v in case.spec.a_values.items()} == {
            f"E_{i}": ring.var(mu) * 2 for i, mu in enumerate(expected, start=1)}


def test_upq_case_checks_ranks_and_blocks():
    for p, q in [(1, 2), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError, match=rf"U\(p,q\) needs 1 <= q <= p, got p={p} q={q}"):
            UpqCase(p, q, (q,))
    for p, q, blocks in [(2, 1, (2,)), (2, 2, (2, 2)), (3, 2, (0, 2)), (2, 2, (1, 1, 2)), (3, 3, (2, 1, 3)), (2, 2, ())]:
        with pytest.raises(ValueError, match=f"blocks {','.join(map(str, blocks))} must be positive, strictly increasing"):
            UpqCase(p, q, blocks)
    case = UpqCase(3, 2, [1, 2])
    assert case.blocks == (1, 2) and case.symbols == ("mu_1", "mu_2", "s", "t")
    assert case.bindings([("mu_2", 1), ("t", 0)]) == {"mu_2": 1, "t": 0}
    with pytest.raises(ValueError, match=r"unknown symbols \['E_1'\]; expected mu_1, mu_2, s, t"):
        case.bindings([("s", 1), ("E_1", 1)])


@pytest.mark.parametrize(
    "defect, message",
    [("missing k-zone index", "keyed by"), ("n-zone index", "keyed by"), ("nonzero on [k, k]", "does not vanish")],
)
def test_reduction_spec_rejects_a_malformed_character(defect, message):
    form = make_upq(2, 1)
    basis = form.basis
    character = dict(form.k_character)
    if defect == "missing k-zone index":
        del character[basis.zone_indices("k")[0]]
    elif defect == "n-zone index":
        character[basis.zone_indices("n")[0]] = form.ring.zero()
    else:
        character[basis.index_of("E_1_2")] = form.ring.one()  # [E_1_1, E_1_2] = E_1_2
    with pytest.raises(ValueError, match=message):
        ReductionSpec(form, character)


# ---------------------------------------------------------------------------
# case drivers (small smoke instances; the full ladders run in acceptance)
# ---------------------------------------------------------------------------


def test_gl_lemma_driver_small():
    report = gl_lemma_check(2, 2)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


def test_gl_lemma_antisymmetrization_check_sees_each_entry(monkeypatch):
    # With a peel that keeps everything, the check must fail wherever an
    # antisymmetrization entry is nonzero; a sum over all entries is 0.
    monkeypatch.setattr(reduce_module, "_peel", lambda elem, _assignment: elem)
    checks = {c["name"]: c for c in gl_lemma_check(2, 2)["checks"]}
    assert checks["antisymmetrization term lies in U(g)k at m=1"]["pass"]
    assert not checks["antisymmetrization term lies in U(g)k at m=2"]["pass"]


def test_gl_lemma_runs_only_the_congruence_chains_in_the_module(monkeypatch):
    # The trace chain and the closed form are read modulo U(g)k only; the P
    # chain feeds the exact K P^m checks and stays whole.  An unpeeled
    # module chain or closed form changes no residue, so only a capture can
    # see it.
    calls = []
    closed_forms = []
    k_zone = make_glnr(3).basis.zone_indices("k")

    def k_free(elements):
        return not any(g in k_zone for x in elements for m in x.terms for g, _e in m)

    def recording(mat, roots, columns, character=None, grades=None):
        calls.append((mat.entry(1, 2) == mat.entry(2, 1), [str(r) for r in roots], character, grades))
        for state in factor_columns(mat, roots, columns, character, grades):
            if character is not None:
                assert all(k_free(column) for column in state)
            yield state

    original = reduce_module._congruences

    def congruences(checks, label, lhs, rhs, *rest):
        if label == "closed form":
            closed_forms.append(rhs)
        original(checks, label, lhs, rhs, *rest)

    monkeypatch.setattr(reduce_module, "factor_columns", recording)
    monkeypatch.setattr(reduce_module, "_congruences", congruences)
    assert gl_lemma_check(3, 3)["pass"]
    assert [(symmetric, roots, character is not None) for symmetric, roots, character, _grades in calls] == [
        (True, ["0", "0", "0"], False),
        (False, ["0", "1", "1"], True),
    ]
    assert calls[1][2] == zero_character(make_glnr(3))
    assert all(grades is None for *_rest, grades in calls)
    assert len(closed_forms) == 3
    assert all(k_free(row) for closed in closed_forms for row in closed.entries)


def test_gl_lemma_builds_no_product_matrix(monkeypatch):
    # Each K P^m and step entry is decided on one accumulated difference,
    # so neither K P^m, its mirror, (E - n/2) P^m nor P^(m_max+1) is built.
    calls = []
    original = OpMatrix.mul

    def counting(self, other):
        calls.append(self.size)
        return original(self, other)

    monkeypatch.setattr(OpMatrix, "mul", counting)
    assert gl_lemma_check(3, 3)["pass"]
    assert calls == []


def test_sp_hua_driver_small():
    report = hua_sp_system(1)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


def test_upq_shilov_driver_small():
    report = upq_shilov_identity(1, 1)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


def test_upq_theorem_driver_small():
    # Every kept entry passes, and the perturbed control names the entries
    # it breaks, so a chain that fills the wrong columns cannot pass.
    for p, q, blocks, broken in [
        (1, 1, (1,), ["entry[1,1]", "entry[1,2]", "entry[2,1]", "entry[2,2]"]),
        (2, 1, (1,), ["entry[1,3]", "entry[3,3]"]),
    ]:
        case = UpqCase(p, q, blocks)
        report = upq_theorem_case(case)
        assert report["pass"], [c for c in report["checks"] if not c["pass"]]
        checks = upq_theorem_case(case, perturb=True)["checks"]
        assert [c["name"] for c in checks] == [c["name"] for c in report["checks"]]
        assert [c["name"] for c in checks if not c["pass"]] == broken


def test_upq_theorem_perturbed_control_fails():
    report = upq_theorem_case(UpqCase(1, 1, (1,)), perturb=True)
    assert not report["pass"]
    assert {c["name"]: c["residue"] for c in report["checks"]} == {
        "entry[1,1]": "mu_1 + 1/2*s - 1/2*t - 1",
        "entry[1,2]": "mu_1 + 1/2*s - 1/2*t",
        "entry[2,1]": "mu_1 - 1/2*s + 1/2*t",
        "entry[2,2]": "mu_1 - 1/2*s + 1/2*t - 1",
    }


def test_upq_recursion_driver_small():
    report = upq_scalar_recursion(UpqCase(1, 1, (1,)), compare_kernel=True)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


# ---------------------------------------------------------------------------
# the drivers' check helpers must report a wrong target, not hide it
# ---------------------------------------------------------------------------


def test_congruences_report_exactly_the_wrong_entry():
    form = make_glnr(2)
    e_mat = generator_matrix(form.complex_algebra, form.ring, form.basis)
    rows = [list(row) for row in e_mat.entries]
    rows[0][1] = rows[0][1] + EnvElement.scalar(form.basis, form.ring.const(3))
    wrong = OpMatrix(form.basis, form.ring, tuple(map(tuple, rows)))
    checks = []
    reduce_module._congruences(checks, "probe", e_mat, wrong, zero_character(form), " at m=1")
    assert [c["name"] for c in checks] == [f"probe entry[{a},{b}] at m=1" for a in (1, 2) for b in (1, 2)]
    assert [(c["pass"], c["residue"]) for c in checks] == [(True, "0"), (False, "(-3)"), (True, "0"), (True, "0")]


def test_exact_quadratic_records_mismatch_for_a_wrong_square():
    # (F - c1)(F - c2) = F^2 - (c1 + c2) F + c1 c2 holds for any scalars, so
    # only a wrong F^2 can break it.
    form = make_glnr(2)
    ring = form.ring
    e_mat = generator_matrix(form.complex_algebra, ring, form.basis)
    e2 = e_mat.mul(e_mat)
    checks = []
    product = reduce_module._exact_quadratic(checks, "probe", e_mat, e2, ring.const(1), ring.const(2))
    assert checks == [{"name": "probe", "pass": True, "residue": "0"}]
    assert product.entries == e2.add(e_mat.scale(-3)).shift(ring.const(2)).entries
    reduce_module._exact_quadratic(checks, "probe", e_mat, e2.shift(ring.const(1)), ring.const(1), ring.const(2))
    assert checks[-1] == {"name": "probe", "pass": False, "residue": "mismatch"}


def test_real_form_drivers_never_build_a_verma_basis(monkeypatch):
    # A property is a data descriptor, so it also shadows a basis already
    # cached on an algebra by an earlier test.
    def forbidden(algebra):
        raise AssertionError(f"built the Verma basis of {algebra.kind}{algebra.rank}")

    monkeypatch.setattr(liedata.AlgebraData, "basis", property(forbidden))
    case = UpqCase(2, 1, (1,))
    assert upq_theorem_case(case)["pass"]
    assert upq_scalar_recursion(case, compare_kernel=True)["pass"]
    assert upq_shilov_identity(2, 1)["pass"]
    assert hua_sp_system(1)["pass"]
    assert gl_lemma_check(2, 1)["pass"]
