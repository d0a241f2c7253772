"""Structure data: algebras, Iwasawa forms, restricted roots, degree table."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

from huaops import liedata
from huaops.liedata import (
    eval_linear,
    glnr_root_system,
    make_algebra,
    make_glnr,
    make_spnr,
    make_upq,
    phi,
    satake_table,
    spnr_root_system,
    upq_root_system,
)
from huaops.pbw import RationalSpan


def test_algebra_dimensions():
    assert len(make_algebra("gl", 3).basis) == 9
    assert len(make_algebra("sp", 2).basis) == 10
    assert len(make_algebra("o-even", 2).basis) == 6
    assert len(make_algebra("o-odd", 2).basis) == 10


def test_algebra_ambient_sizes():
    assert make_algebra("gl", 3).ambient == 3
    assert make_algebra("sp", 2).ambient == 4
    assert make_algebra("o-even", 2).ambient == 4
    assert make_algebra("o-odd", 2).ambient == 5


def test_unknown_kind_rejected():
    with pytest.raises((ValueError, KeyError)):
        make_algebra("e8", 1)


@pytest.mark.parametrize(
    "form",
    [make_upq(1, 1), make_upq(2, 1), make_upq(2, 2), make_spnr(1), make_spnr(2), make_glnr(2), make_glnr(3)],
    ids=lambda f: f.name + str(f.params),
)
def test_iwasawa_form_structure(form):
    basis = form.basis
    assert basis.zones == ("n", "a", "k")
    assert len(form.a_names) == form.root_system.rank
    # the character covers the whole k-zone and nothing else, by index
    assert set(form.k_character) == set(basis.zone_indices("k"))
    # every n-zone generator carries a restricted weight
    assert set(form.n_weights) == set(basis.zone_indices("n"))
    # rho is the multiplicity-weighted half sum of the roots
    assert form.rho == form.root_system.half_sum()


def test_root_multiplicities_upq():
    rs = upq_root_system(3, 2)
    assert rs.rank == 2
    assert rs.multiplicity((1, -1)) == 2
    assert rs.multiplicity((1, 1)) == 2
    assert rs.multiplicity((1, 0)) == 2 * (3 - 2)
    assert rs.multiplicity((2, 0)) == 1
    assert rs.multiplicity((0, 1)) == 2
    assert rs.multiplicity((3, 0)) == 0
    # p = q drops the short middle roots entirely
    assert upq_root_system(2, 2).multiplicity((1, 0)) == 0


def test_root_multiplicities_spnr_glnr():
    sp = spnr_root_system(2)
    assert sp.multiplicity((1, -1)) == 1
    assert sp.multiplicity((2, 0)) == 1
    assert sp.multiplicity((1, 0)) == 0
    gl = glnr_root_system(3)
    assert gl.multiplicity((1, -1, 0)) == 1
    assert gl.multiplicity((1, 0, -1)) == 1
    assert gl.multiplicity((2, 0, 0)) == 0


def test_half_sum_values():
    assert glnr_root_system(2).half_sum() == (Fraction(1, 2), Fraction(-1, 2))
    assert spnr_root_system(1).half_sum() == (Fraction(1),)
    assert spnr_root_system(2).half_sum() == (Fraction(2), Fraction(1))
    # U(2,1): rho = (1/2)(2*e1 + 2*(2e1)/2 ... ) recomputed directly
    rs = upq_root_system(2, 1)
    total = [Fraction(0)]
    for root in rs.positive:
        total[0] += root.multiplicity * root.coords[0]
    assert rs.half_sum() == (total[0] / 2,)


def test_indivisible_and_length_classes():
    rs = upq_root_system(3, 2)
    indiv = {r.coords for r in rs.indivisible_positive()}
    assert (Fraction(2), Fraction(0)) not in indiv
    assert (Fraction(1), Fraction(0)) in indiv
    classes = rs.length_classes()
    lengths = [cls[0].squared_length() for cls in classes]
    assert lengths == sorted(lengths, reverse=True)
    assert len(classes) == 3  # 2e_i | e_i +- e_j | e_i
    assert len(spnr_root_system(2).length_classes()) == 2
    assert len(upq_root_system(2, 2).length_classes()) == 2


def test_upq_requires_p_at_least_q():
    with pytest.raises(ValueError):
        make_upq(1, 2)


def test_eval_linear():
    assert eval_linear("2n+m-1", {"n": 3, "m": 2}) == 7
    assert eval_linear("-n+4", {"n": 1}) == 3
    assert eval_linear(5, {}) == 5
    assert eval_linear(" 2n - 10 ", {"n": 3}) == -4
    with pytest.raises(ValueError, match="unbound symbol 'k' in '2k'"):
        eval_linear("2k", {"n": 1})
    # One leading "-" at most, and no empty or reordered term.
    for bad in ("", "-", "--n", "n-", "0+-1", "n2", "2*n"):
        with pytest.raises(ValueError, match=re.escape(f"malformed expression {bad!r}")):
            eval_linear(bad, {"n": 1})


def test_satake_row_lookup_and_degrees():
    table = satake_table()
    row = table.row("A_n^1")
    assert row.node_degrees(4) == [2, 2, 2, 2]
    # brace-insensitive labels resolve to the same row
    assert table.row("C_n^{1,1}").label == table.row("C_n^1,1").label
    with pytest.raises(KeyError):
        table.row("Z_n^9")


EXCEPTIONAL_DEGREES = {
    "E_6^1:EI": [3, 4, 5, 4, 3, 3],
    "F_4^{2,1}:EII": [6, 8, 5, 8, 6, 3],
    "BC_2^{8,6,1}:EIII": [6, None, None, None, 6, 3],
    "A_2^8:EIV": [3, None, None, None, 3, None],
    "E_7^1:EV": [3, 5, 7, 6, 5, 4, 4],
    "F_4^{4,1}:EVI": [3, 5, 7, None, 5, None, 4],
    "C_3^{8,1}:EVII": [3, None, None, None, 6, 4, 4],
    "E_7^1:EVIII": [6, 11, 16, 13, 11, 9, 6, 8],
    "F_4^{8,1}:EIX": [6, None, None, None, 11, 9, 6, None],
    "F_4^{1,1}:FI": [3, 5, 8, 6],
    "BC_1^{8,7}:FII": [None, None, None, 6],
    "G_2^{1}:G_2": [3, 5],
}


def test_exceptional_rows_are_pinned():
    # The drawn nodes in chain-then-branch order; None is a black node.
    rows = [row for row in satake_table().rows if row.family != "classical"]
    assert sorted(row.full_label for row in rows) == sorted(EXCEPTIONAL_DEGREES)
    for row in rows:
        assert row.node_degrees() == EXCEPTIONAL_DEGREES[row.full_label], row.full_label


def test_satake_parametric_row_needs_param():
    table = satake_table()
    row = table.row("BC_n^{2m,2,1}")
    assert len(row.node_degrees(2, 1)) == 2
    with pytest.raises((ValueError, TypeError, KeyError)):
        row.node_degrees(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spnr_bases_lie_in_the_catalog_sp(n):
    # Both real-form bases span the antidiagonal realization of sp_n that
    # make_algebra("sp", n) uses; expand_matrix raises outside that span.
    form = make_spnr(n)
    verma = form.complex_algebra.basis
    for basis in (form.basis, form.hua_basis):
        for mat in basis.matrices:
            verma.expand_matrix(mat)


def test_upq32_grades_table():
    # U(3,2), q = 2: phi(w) = 2 w_1 + w_2 on n, 0 on a, minus the level on
    # k; E_3_3 lies in m (level 0), E_1_1 and E_5_5 reach 2e_1 (level 2q).
    form = make_upq(3, 2)
    basis = form.basis
    grades = {basis.names[i]: g for i, g in enumerate(form.grades)}
    assert grades == {
        "Y_1": 4, "Y_2": 2, "Y_1_3": 2, "Y_3_1": 2, "Y_2_3": 1, "Y_3_2": 1,
        "Yplus_1_2": 3, "Yplus_2_1": 3, "Yone_1_2": 1, "Ytwo_1_2": 1,
        "E_1": 0, "E_2": 0,
        "E_1_1": -4, "E_1_2": -3, "E_1_3": -2, "E_2_1": -3, "E_2_2": -2,
        "E_2_3": -1, "E_3_1": -2, "E_3_2": -1, "E_3_3": 0,
        "E_5_5": -4, "E_5_4": -3, "E_4_5": -3, "E_4_4": -2,
    }
    assert phi((2, 0)) == 2 * 2


def test_glnr_and_spnr_grades():
    gl3 = make_glnr(3)
    assert [gl3.grades[gl3.basis.index_of(name)] for name in ("K_1_2", "K_1_3", "K_2_3")] == [-1, -2, -1]
    sp2 = make_spnr(2)
    levels = {sp2.basis.names[i]: -sp2.grades[i] for i in sp2.basis.zone_indices("k")}
    assert levels == {"KK_1_2": 1, "PQ_1_1": 4, "PQ_1_2": 3, "PQ_2_2": 2}


def _solve_then_add_null_space(mat):
    """The kernel basis of ``liedata._null_space``, with each column first
    solved over the span and then added to it: two eliminations per pivot."""
    span, pivots, kernel = RationalSpan(len(mat)), [], []
    for col, column in enumerate(zip(*mat)):
        coords = span.solve(column)
        if coords is None:
            assert span.add(column)
            pivots.append(col)
            continue
        vec = [Fraction(0)] * len(mat)
        vec[col] = Fraction(1)
        for pivot, c in zip(pivots, coords):
            vec[pivot] = -c
        kernel.append(vec)
    return kernel


def test_null_space_matches_solve_then_add():
    rng = random.Random(29)
    for _ in range(8):
        size = rng.randint(3, 6)
        rank = rng.randint(1, size - 1)
        # size columns, each a combination of rank seeded columns: singular.
        seeds = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
                 for _ in range(rank)]
        weights = [[rng.randint(-2, 2) for _ in seeds] for _ in range(size)]
        columns = [[sum((w * s[i] for w, s in zip(ws, seeds)), Fraction(0))
                    for i in range(size)] for ws in weights]
        mat = [list(row) for row in zip(*columns)]
        kernel = liedata._null_space(mat)
        assert kernel == _solve_then_add_null_space(mat)
        assert len(kernel) >= size - rank
        for vec in kernel:
            assert all(sum((x * v for x, v in zip(row, vec)), Fraction(0)) == 0
                       for row in mat)


@pytest.mark.parametrize("form", [make_upq(2, 1), make_spnr(2)], ids=lambda f: f.name + str(f.params))
def test_wrong_grades_are_rejected(form):
    # The eigenbasis ranges are checked against the n-weights and against
    # the brackets of each k-generator with a.
    ranges = liedata._grade_ranges(form.basis)
    liedata._check_grades(form.basis, form.n_weights, ranges)
    k = form.basis.zone_indices("k")[0]
    lo, hi = ranges[k]
    for wrong in ((lo + 1, hi), (lo - 1, hi + 1), (0, 0)):
        if wrong == (lo, hi):
            continue
        broken = list(ranges)
        broken[k] = wrong
        with pytest.raises(AssertionError):
            liedata._check_grades(form.basis, form.n_weights, broken)
    y = form.basis.zone_indices("n")[0]
    broken = list(ranges)
    broken[y] = (ranges[y][0] + 1, ranges[y][1] + 1)
    with pytest.raises(AssertionError):
        liedata._check_grades(form.basis, form.n_weights, broken)


def _zone_lists(form):
    """The n-, a- and k-zone lists that rebuild ``form.basis``."""
    basis = form.basis

    def members(zone, data=None):
        return [(basis.names[i], basis.matrices[i]) + (() if data is None else (data[i],))
                for i in basis.zone_indices(zone)]

    return members("n", form.n_weights), members("a"), members("k", form.k_character)


@pytest.mark.parametrize("form", [make_upq(2, 1), make_spnr(2), make_glnr(3)], ids=lambda f: f.name + str(f.params))
@pytest.mark.parametrize(
    "defect, message",
    [("n-weight", "is not an ad-a eigenvector"), ("k-dropped", "has dimension")],
    ids=["n-weight", "k-dropped"],
)
def test_real_form_refuses_inconsistent_zones(form, defect, message):
    n_zone, a_zone, k_zone = _zone_lists(form)

    def build():
        return liedata._real_form(form.name, form.params, form.ring, form.complex_algebra,
                                  n_zone, a_zone, k_zone, form.root_system)

    rebuilt = build()
    assert (rebuilt.basis.basis_id, rebuilt.basis.names) == (form.basis.basis_id, form.basis.names)
    assert rebuilt.n_weights == form.n_weights and rebuilt.k_character == form.k_character
    if defect == "n-weight":
        name, mat, weight = n_zone[0]
        n_zone[0] = (name, mat, (weight[0] + 1,) + weight[1:])
    else:
        k_zone.pop()
    with pytest.raises(AssertionError, match=message):
        build()


def _catalog_dump() -> str:
    """A canonical text dump of every catalog algebra and real form at small
    rank: ids, generator names, zones and matrices, the a-diagonal and every
    F_ij, and for the real forms their characters, n-weights, rho and grades."""
    lines = []

    def matrix(mat):
        return ";".join(",".join(str(x) for x in row) for row in mat)

    def basis_lines(basis):
        lines.append(f"basis {basis.basis_id} {basis.ambient} {'|'.join(basis.zones)}")
        lines.extend(f"  {name} {zone} {matrix(mat)}"
                     for name, zone, mat in zip(basis.names, basis.zone_of, basis.matrices))

    for kind in liedata.ALGEBRA_KINDS:
        for n in range(1, 5):
            alg = make_algebra(kind, n)
            lines.append(f"algebra {kind} {n} {alg.ambient} {tuple(range(1, alg.rank + 1))}")
            basis_lines(alg.basis)
            lines.extend(f"  F_{i}_{j} {matrix(alg.f_matrix(i, j))}"
                         for i in range(1, alg.ambient + 1) for j in range(1, alg.ambient + 1))
    forms = [make_upq(p, q) for p in range(1, 6) for q in range(1, p + 1) if p + q <= 6]
    forms += [make_spnr(n) for n in range(1, 4)] + [make_glnr(n) for n in range(1, 5)]
    for form in forms:
        alg = form.complex_algebra
        lines.append(f"form {form.name} {form.params} {alg.kind} {alg.rank} "
                     f"{form.root_system.label} rho={form.rho}")
        for basis, character in ((form.basis, form.k_character),
                                 (form.hua_basis, form.hua_character)):
            if basis is None:
                continue
            basis_lines(basis)
            lines.append(f"  character {sorted((i, str(v)) for i, v in character.items())}")
        lines.append(f"  n-weights {sorted(form.n_weights.items())}")
        lines.append(f"  grades {form.grades}")
    return "\n".join(lines) + "\n"


def test_catalog_is_pinned():
    # Every catalog basis, F_ij and real-form datum at small rank, hashed:
    # a change to how the catalog is built must leave all of it unchanged.
    digest = hashlib.sha256(_catalog_dump().encode("utf-8")).hexdigest()
    assert digest == "5dc1becf09019f339864d0a43c3e8de4de6fdc11ebd9c970ef0111e689918088"
