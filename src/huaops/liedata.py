"""Catalog of classical matrix Lie algebras, real forms, and degree tables.

Everything here is presented *complexified inside gl_N*: a classical algebra
or a real form is stored as an :class:`~huaops.pbw.OrderedBasis` of N x N
rational matrices, tagged with zones that fix the PBW order used by the
reduction engines.

Conventions
-----------
* Matrix indices are 1-based throughout (matching :func:`huaops.pbw.make_matrix`).
* "Verma order" means zones ``("nbar", "a", "n")`` where ``nbar`` is the
  strictly upper triangular part of the algebra, ``a`` the diagonal part and
  ``n`` the strictly lower part.  Monomials carry nbar-factors leftmost and
  n-factors rightmost; a highest-weight reduction drops trailing n-factors.
* "Iwasawa order" means zones ``("n", "a", "k")``: reductions drop monomials
  with a leading n-factor and peel trailing k-factors against a character.
* ``ibar`` abbreviates the reflected index ``N + 1 - i``.

A catalog algebra (:func:`make_algebra`) is its kind and rank: the entries
F_ij of its generator matrix follow from an index rule, and its Verma basis
is built, and checked, only where it is read.  Each catalog real form
(:func:`make_upq`, :func:`make_spnr`, :func:`make_glnr`) only lists its
Iwasawa zones, with the restricted weight of each n-generator and the
character value of each k-generator, and its rho; one constructor builds
the basis from them and checks every form the same way, the weights, the
root multiplicities, the character and rho against each other and the
dimension against that of the complex algebra.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .params import ParamPoly, ParamRing
from .pbw import (
    Matrix,
    OrderedBasis,
    RationalSpan,
    make_matrix,
    mat_add,
    mat_commutator,
    mat_mul,
    mat_scale,
    mat_transpose,
)

ALGEBRA_KINDS = ("gl", "o-odd", "o-even", "sp")

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# classical algebras with Verma-ordered bases
# ---------------------------------------------------------------------------

def elementary(n: int, i: int, j: int) -> Matrix:
    """The elementary matrix E_{ij} inside gl_n (1-based)."""
    return make_matrix(n, {(i, j): 1})


@dataclass(frozen=True)
class AlgebraData:
    """A classical complex Lie algebra realized as matrices in gl_N.

    Everything follows from ``kind`` and ``rank`` by one index rule:
    F_ij = E_ij for gl, and F_ij = E_ij + c_ij·E_{jbar,ibar} for o and sp,
    with c_ij = -1 for o and eps_i·eps_{jbar} for sp (eps_a = +1 for
    a <= rank, -1 otherwise).  ``basis`` (built and checked on first read)
    is Verma-ordered with zones ("nbar", "a", "n"); its a-zone generators
    are F_11 .. F_nn (E_11 .. E_NN for gl).  ``a_diagonal`` maps each a-zone
    position to the diagonal index i of its generator F_ii.
    """

    kind: str
    rank: int

    @property
    def ambient(self) -> int:
        """N: the size of the matrices."""
        if self.kind == "gl":
            return self.rank
        return 2 * self.rank + 1 if self.kind == "o-odd" else 2 * self.rank

    @property
    def basis_id(self) -> str:
        return f"{self.kind}{self.rank}-verma"

    @property
    def a_diagonal(self) -> Tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def f_matrix(self, i: int, j: int) -> Matrix:
        """The operator-matrix entry F_{ij} (zero for F_{i,ibar} in o)."""
        if self.kind == "gl":
            return elementary(self.ambient, i, j)
        size, bar = self.ambient, self.ambient + 1
        sign = -1
        if self.kind == "sp":  # eps_i·eps_{jbar}
            sign = 1 if (i <= self.rank) == (bar - j <= self.rank) else -1
        return mat_add(elementary(size, i, j),
                       mat_scale(elementary(size, bar - j, bar - i), sign))

    @cached_property
    def basis(self) -> OrderedBasis:
        """The F_ij scanning the upper triangle, the diagonal, then the lower
        triangle, keeping the first of each pair F_ij / F_{jbar,ibar} (one
        is a multiple of the other) and skipping zeros.  Checked on first
        read: independence, the dimension and the triangular brackets."""
        size, letter = self.ambient, "E" if self.kind == "gl" else "F"
        cells = range(1, size + 1)
        scan = [("nbar", i, j) for i in cells for j in cells if i < j]
        scan += [("a", i, i) for i in cells]
        scan += [("n", i, j) for i in cells for j in cells if i > j]
        gens = []
        for zone, i, j in scan:
            if self.kind != "gl" and (i, j) > (size + 1 - j, size + 1 - i):
                continue  # F_ij is the second of its pair
            mat = self.f_matrix(i, j)
            if any(map(any, mat)):
                gens.append((f"{letter}_{i}_{j}", zone, mat))
        basis = OrderedBasis(self.basis_id, size, gens,
                             zones=("nbar", "a", "n"))
        _check_dimension(basis, self)
        _check_triangular_zones(basis)
        return basis

    def weight_map(self, values: Sequence[ParamPoly]) -> Dict[int, ParamPoly]:
        """Map a-zone generator index -> value, from per-diagonal values.

        ``values[i-1]`` is the weight of F_ii for i = 1..rank (i = 1..N for gl).
        """
        if len(values) != len(self.a_diagonal):
            raise ValueError(
                f"expected {len(self.a_diagonal)} weight values, got {len(values)}"
            )
        return {pos: values[diag - 1] for pos, diag
                in zip(self.basis.zone_indices("a"), self.a_diagonal)}


def _expected_dimension(kind: str, n: int) -> int:
    if kind == "gl":
        return n * n
    if kind == "o-odd":
        return n * (2 * n + 1)
    if kind == "o-even":
        return n * (2 * n - 1)
    return n * (2 * n + 1)  # sp


def _check_dimension(basis: OrderedBasis, algebra: AlgebraData) -> None:
    """``basis`` spans as many dimensions as ``algebra`` has."""
    expected = _expected_dimension(algebra.kind, algebra.rank)
    if len(basis) != expected:
        raise AssertionError(f"{basis.basis_id} has dimension {len(basis)}, "
                             f"expected {expected}")


@lru_cache(maxsize=None)
def make_algebra(kind: str, n: int) -> AlgebraData:
    """The catalog algebra of the given kind and rank (see
    :class:`AlgebraData`); its Verma basis is built on first read."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if kind not in ALGEBRA_KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}; expected one of {ALGEBRA_KINDS}")
    return AlgebraData(kind=kind, rank=n)


def _check_triangular_zones(basis: OrderedBasis) -> None:
    """Verify the triangular bracket relations of a Verma-ordered basis."""
    _assert_brackets_in(basis, "a", "a", ())
    _assert_brackets_in(basis, "nbar", "nbar", ("nbar",))
    _assert_brackets_in(basis, "n", "n", ("n",))
    _assert_brackets_in(basis, "a", "nbar", ("nbar",))
    _assert_brackets_in(basis, "a", "n", ("n",))


def _assert_brackets_in(
    basis: OrderedBasis, zx: str, zy: str, allowed_zones: Tuple[str, ...]
) -> None:
    allowed = set()
    for z in allowed_zones:
        allowed.update(basis.zone_indices(z))
    for i in basis.zone_indices(zx):
        for j in basis.zone_indices(zy):
            for k, _c in basis.bracket(i, j):
                if k not in allowed:
                    raise AssertionError(
                        f"[{basis.names[i]}, {basis.names[j]}] has a component on "
                        f"{basis.names[k]}, outside zones {allowed_zones}"
                    )


# ---------------------------------------------------------------------------
# restricted root systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedRoot:
    coords: Tuple[Fraction, ...]
    multiplicity: int

    def squared_length(self) -> Fraction:
        return sum((c * c for c in self.coords), ZERO)


class RestrictedRootSystem:
    """Positive restricted roots with multiplicities, in the e_i basis."""

    def __init__(
        self,
        label: str,
        rank: int,
        positive: Sequence[Tuple[Sequence[object], int]],
        simple: Sequence[Sequence[object]],
    ):
        self.label = label
        self.rank = rank
        self.positive: Tuple[RestrictedRoot, ...] = tuple(
            RestrictedRoot(tuple(Fraction(c) for c in coords), int(mult))
            for coords, mult in positive
        )
        if any(r.multiplicity <= 0 for r in self.positive):
            raise ValueError("multiplicities must be positive")
        if len({r.coords for r in self.positive}) != len(self.positive):
            raise ValueError("duplicate positive roots")
        self.simple: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(c) for c in coords) for coords in simple
        )
        known = {r.coords for r in self.positive}
        for s in self.simple:
            if s not in known:
                raise ValueError(f"simple root {s} is not a positive root")
        self._mult: Dict[Tuple[Fraction, ...], int] = {
            r.coords: r.multiplicity for r in self.positive
        }

    def multiplicity(self, coords: Sequence[object]) -> int:
        """m_alpha, or 0 when alpha is not a restricted root."""
        key = tuple(Fraction(c) for c in coords)
        return self._mult.get(key, 0)

    def half_multiplicity(self, root: RestrictedRoot) -> int:
        return self.multiplicity([c / 2 for c in root.coords])

    def double_multiplicity(self, root: RestrictedRoot) -> int:
        return self.multiplicity([2 * c for c in root.coords])

    def indivisible_positive(self) -> Tuple[RestrictedRoot, ...]:
        """The subset of positive roots alpha with alpha/2 not a root."""
        return tuple(r for r in self.positive if self.half_multiplicity(r) == 0)

    def length_classes(self) -> List[List[RestrictedRoot]]:
        """Positive roots grouped by |alpha|, longest class first."""
        by_len: Dict[Fraction, List[RestrictedRoot]] = {}
        for r in self.positive:
            by_len.setdefault(r.squared_length(), []).append(r)
        return [by_len[k] for k in sorted(by_len, reverse=True)]

    def lambda_alpha(self, lam: Sequence[object], root: RestrictedRoot) -> Fraction:
        """2 <lam, alpha> / <alpha, alpha> with <e_i, e_j> = delta_ij."""
        lam_f = [Fraction(c) for c in lam]
        if len(lam_f) != self.rank:
            raise ValueError(f"lambda must have {self.rank} coordinates")
        num = sum((a * b for a, b in zip(lam_f, root.coords)), ZERO)
        return 2 * num / root.squared_length()

    def half_sum(self) -> Tuple[Fraction, ...]:
        """rho = (1/2) sum of m_alpha * alpha over positive roots."""
        acc = [ZERO] * self.rank
        for r in self.positive:
            for idx, c in enumerate(r.coords):
                acc[idx] += Fraction(r.multiplicity) * c
        return tuple(c / 2 for c in acc)


def _coords(rank: int, **entries: int) -> Tuple[int, ...]:
    out = [0] * rank
    for key, value in entries.items():
        out[int(key[1:]) - 1] = value
    return tuple(out)


def upq_root_system(p: int, q: int) -> RestrictedRootSystem:
    """Restricted roots of U(p, q): type BC_q (C_q when p = q)."""
    positive: List[Tuple[Tuple[int, ...], int]] = []
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            positive.append((_coords(q, **{f"i{i}": 1, f"i{j}": -1}), 2))
            positive.append((_coords(q, **{f"i{i}": 1, f"i{j}": 1}), 2))
    for i in range(1, q + 1):
        positive.append((_coords(q, **{f"i{i}": 2}), 1))
    if p > q:
        for i in range(1, q + 1):
            positive.append((_coords(q, **{f"i{i}": 1}), 2 * (p - q)))
    simple = [
        _coords(q, **{f"i{i}": 1, f"i{i+1}": -1}) for i in range(1, q)
    ]
    if p > q:
        simple.append(_coords(q, **{f"i{q}": 1}))
        label = f"BC_{q}^{{{2*(p-q)},2,1}}"
    else:
        simple.append(_coords(q, **{f"i{q}": 2}))
        label = f"C_{q}^{{2,1}}"
    return RestrictedRootSystem(label, q, positive, simple)


def spnr_root_system(n: int) -> RestrictedRootSystem:
    """Restricted roots of Sp(n, R): type C_n, all multiplicities 1."""
    positive: List[Tuple[Tuple[int, ...], int]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            positive.append((_coords(n, **{f"i{i}": 1, f"i{j}": -1}), 1))
            positive.append((_coords(n, **{f"i{i}": 1, f"i{j}": 1}), 1))
    for i in range(1, n + 1):
        positive.append((_coords(n, **{f"i{i}": 2}), 1))
    simple = [_coords(n, **{f"i{i}": 1, f"i{i+1}": -1}) for i in range(1, n)]
    simple.append(_coords(n, **{f"i{n}": 2}))
    return RestrictedRootSystem(f"C_{n}^{{1,1}}", n, positive, simple)


def glnr_root_system(n: int) -> RestrictedRootSystem:
    """Restricted roots of GL(n, R): type A_{n-1}, multiplicity 1."""
    positive: List[Tuple[Tuple[int, ...], int]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            positive.append((_coords(n, **{f"i{i}": 1, f"i{j}": -1}), 1))
    simple = [_coords(n, **{f"i{i}": 1, f"i{i+1}": -1}) for i in range(1, n)]
    return RestrictedRootSystem(f"A_{n-1}^{{1}}", n, positive, simple)


# ---------------------------------------------------------------------------
# real forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFormData:
    """One of the catalog real forms, complexified inside gl_N.

    ``basis`` is the Iwasawa-ordered basis (zones n | a | k); its i-th
    a-zone generator carries the restricted coordinate e_i.  Every datum on
    the basis is keyed by basis index: ``k_character`` is the scalar
    character template on the k-zone (tau_{s,t}, chi_ell, or zero) over
    ``ring``, and ``n_weights`` the restricted weight of each n-zone
    generator; ``grades`` (derived on first use) holds one int per basis
    index.

    For Sp(n, R) an additional ``hua_basis`` (zones p | q | k, character
    ``hua_character``) carries the block-form computations.  Both bases
    span the same subspace of gl_{2n} as ``complex_algebra``: sp_n of the
    antidiagonal symplectic form.
    """

    name: str
    params: Tuple[int, ...]
    ring: ParamRing = field(compare=False)
    complex_algebra: AlgebraData = field(compare=False)
    basis: OrderedBasis = field(compare=False)
    k_character: Mapping[int, ParamPoly] = field(compare=False)
    n_weights: Mapping[int, Tuple[int, ...]] = field(compare=False)
    root_system: RestrictedRootSystem = field(compare=False)
    rho: Tuple[Fraction, ...]
    hua_basis: Optional[OrderedBasis] = field(compare=False, default=None)
    hua_character: Optional[Mapping[int, ParamPoly]] = field(compare=False, default=None)

    @property
    def a_names(self) -> Tuple[str, ...]:
        """The a-zone generator names, ``a_names[i-1]`` carrying e_i."""
        return tuple(self.basis.names[i] for i in self.basis.zone_indices("a"))

    @cached_property
    def grades(self) -> Tuple[int, ...]:
        """One int per basis index: phi(w) (:func:`phi`) on an n-zone
        generator of weight w, 0 on a, and minus the generator's level, the
        largest phi of its ad-a parts, on k.

        Left action by a generator moves phi of the n-part of an n|a
        monomial of the induced module U(g)/U(g)(k - chi) by at least its
        grade.  Derived once per form by :func:`_grade_ranges` and validated
        by :func:`_check_grades`, on first use: only the pruned factor
        chains read them.
        """
        return _check_grades(self.basis, self.n_weights,
                             _grade_ranges(self.basis))


def _check_iwasawa_zones(basis: OrderedBasis) -> None:
    _assert_brackets_in(basis, "a", "a", ())
    _assert_brackets_in(basis, "n", "n", ("n",))
    _assert_brackets_in(basis, "a", "n", ("n",))
    _assert_brackets_in(basis, "k", "k", ("k",))


def _check_restricted_weights(
    basis: OrderedBasis, n_weights: Mapping[int, Tuple[int, ...]]
) -> None:
    """[A_m, Y] = w_m Y for every n-zone generator and every a-generator."""
    for idx, weight in n_weights.items():
        y = basis.matrices[idx]
        for m, a_idx in enumerate(basis.zone_indices("a")):
            comm = mat_commutator(basis.matrices[a_idx], y)
            if comm != mat_scale(y, weight[m]):
                raise AssertionError(
                    f"{basis.names[idx]} is not an ad-a eigenvector of "
                    f"weight {weight}"
                )


def phi(weight: Sequence[int]) -> int:
    """phi(w) = sum_i (r + 1 - i)·w_i, r the rank: positive on every positive
    restricted root of the catalog forms, largest at 2e_1 (U(p,q), Sp(n,R))."""
    rank = len(weight)
    return sum((rank - i) * w for i, w in enumerate(weight))


def _null_space(mat: Matrix) -> List[List[Fraction]]:
    """A basis of the kernel of a square rational matrix: one vector per
    column that is a combination of the earlier columns."""
    span = RationalSpan(len(mat))
    pivots: List[int] = []
    kernel = []
    for col, column in enumerate(zip(*mat)):
        coords = span.solve(column)
        if coords is None:
            span.add(column)
            pivots.append(col)
            continue
        vec = [ZERO] * len(mat)
        vec[col] = ONE
        for pivot, c in zip(pivots, coords):
            vec[pivot] = -c
        kernel.append(vec)
    return kernel


def _grade_ranges(basis: OrderedBasis) -> List[Tuple[int, int]]:
    """The least and largest phi-eigenvalue among each generator's ad-a parts.

    With H = sum_i (r + 1 - i)·A_i over the a-zone, ad H acts on the root
    space g_lambda by phi(lambda).  H is diagonalised once over Q (integer
    eigenvalues d_a, eigenvectors the columns of P); the matrix unit (a, b)
    of that eigenbasis has ad H eigenvalue d_a - d_b, so a generator X has
    one ad-a part per value d_a - d_b at a nonzero entry (a, b) of
    P^-1·X·P.  Returns (least, largest) of those values per basis index.
    Raises ``AssertionError`` if H has an eigenvalue that is not an integer.
    """
    size = basis.ambient
    a_zone = basis.zone_indices("a")
    h = [[ZERO] * size for _ in range(size)]
    for m, idx in enumerate(a_zone):
        for i, row in enumerate(basis.matrices[idx]):
            for j, x in enumerate(row):
                h[i][j] += (len(a_zone) - m) * x
    bound = int(max(sum(abs(x) for x in row) for row in h))
    values: List[int] = []
    vectors: List[List[Fraction]] = []
    for d in range(-bound, bound + 1):
        for vec in _null_space([[x - d if i == j else x for j, x in enumerate(row)]
                                for i, row in enumerate(h)]):
            values.append(d)
            vectors.append(vec)
    if len(vectors) != size:
        raise AssertionError(
            f"{basis.basis_id}: sum_i (r + 1 - i)·A_i has a non-integer "
            "eigenvalue")
    span = RationalSpan(size)
    for vec in vectors:
        span.add(vec)
    p_mat = mat_transpose(tuple(map(tuple, vectors)))
    # span.solve(e_i) is column i of P^-1.
    p_inv = mat_transpose(tuple(
        span.solve([ONE if j == i else ZERO for j in range(size)])
        for i in range(size)))
    ranges = []
    for mat in basis.matrices:
        conj = mat_mul(mat_mul(p_inv, mat), p_mat)
        parts = [values[a] - values[b] for a, row in enumerate(conj)
                 for b, x in enumerate(row) if x]
        ranges.append((min(parts), max(parts)))
    return ranges


def _check_grades(basis: OrderedBasis,
                  n_weights: Mapping[int, Tuple[int, ...]],
                  ranges: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """The grade of every basis index, each range checked against the zones.

    An n-zone generator of weight w is one ad-a part of value phi(w) > 0,
    and an a-zone generator one part of value 0.  A k-zone generator
    X = X_0 + sum_l (X_l + theta X_l) (X_0 in m, X_l in g_l, l > 0) has
    parts from -level to level; the n-part of [A, X] is 2 sum_l l(A) X_l,
    so its level is also the largest phi(l) over the n-weights l met in its
    brackets with the a-zone (0 on m).  The grade is the least value:
    phi(w), 0 or -level.
    """
    a_zone = basis.zone_indices("a")
    expected = {}
    for idx, weight in n_weights.items():
        value = phi(weight)
        if value <= 0:
            raise AssertionError(
                f"phi is not positive on the weight {weight} of "
                f"{basis.names[idx]}")
        expected[idx] = (value, value)
    expected.update((idx, (0, 0)) for idx in a_zone)
    for x in basis.zone_indices("k"):
        level = max((phi(n_weights[k]) for a in a_zone
                     for k, _c in basis.bracket(a, x) if k in n_weights),
                    default=0)
        expected[x] = (-level, level)
    for idx, found in enumerate(ranges):
        if found != expected[idx]:
            raise AssertionError(
                f"{basis.names[idx]} has ad-a parts from phi = {found[0]} "
                f"to {found[1]}, expected {expected[idx][0]} to "
                f"{expected[idx][1]}")
    return tuple(lo for lo, _hi in ranges)


def _check_root_multiplicities(
    roots: RestrictedRootSystem, n_weights: Mapping[int, Tuple[int, ...]]
) -> None:
    counts: Dict[Tuple[Fraction, ...], int] = {}
    for weight in n_weights.values():
        key = tuple(Fraction(c) for c in weight)
        counts[key] = counts.get(key, 0) + 1
    expected = {r.coords: r.multiplicity for r in roots.positive}
    if counts != expected:
        raise AssertionError(
            f"restricted-root multiplicities disagree: basis {counts}, "
            f"root system {expected}"
        )


def _check_k_character(
    basis: OrderedBasis, character: Mapping[int, ParamPoly]
) -> None:
    """A k-character: keyed by exactly the indices of the basis's last zone
    (k), and vanishing on [k, k].  Raises ``ValueError`` otherwise."""
    k_zone = basis.zone_indices(basis.zones[-1])
    if set(character) != set(k_zone):
        raise ValueError(
            f"a k-character is keyed by the indices {list(k_zone)} of "
            f"{basis.basis_id}'s last zone, got {sorted(character)}")
    for i in k_zone:
        for j in k_zone:
            if i >= j:
                continue
            total = None
            for k, c in basis.bracket(i, j):
                term = character[k] * c
                total = term if total is None else total + term
            if total is not None and not total.is_zero():
                raise ValueError(
                    f"character does not vanish on [{basis.names[i]}, "
                    f"{basis.names[j]}]"
                )


def _zoned_basis(basis_id: str, algebra: AlgebraData,
                 zones: Sequence[Tuple[str, Sequence[Tuple[str, Matrix]]]],
                 k_zone: Sequence[Tuple[str, Matrix, ParamPoly]]
                 ) -> Tuple[OrderedBasis, Dict[int, ParamPoly]]:
    """The basis ``zones`` then ``k_zone``, and its k-character by index.

    ``zones`` lists ``(zone, [(name, matrix), ...])`` in basis order and
    ``k_zone`` the k-generators as ``(name, matrix, character value)``.
    Raises ``AssertionError`` unless the basis has the dimension of
    ``algebra``, and ``ValueError`` unless the character vanishes on [k, k].
    """
    gens = [(x, zone, mat) for zone, members in zones for x, mat in members]
    character = {len(gens) + i: value for i, (_x, _m, value) in enumerate(k_zone)}
    gens += [(x, "k", mat) for x, mat, _value in k_zone]
    basis = OrderedBasis(basis_id, algebra.ambient, gens,
                         zones=tuple(zone for zone, _ in zones) + ("k",))
    _check_dimension(basis, algebra)
    _check_k_character(basis, character)
    return basis, character


def _real_form(name: str, params: Tuple[int, ...], ring: ParamRing,
               complex_algebra: AlgebraData,
               n_zone: Sequence[Tuple[str, Matrix, Tuple[int, ...]]],
               a_zone: Sequence[Tuple[str, Matrix]],
               k_zone: Sequence[Tuple[str, Matrix, ParamPoly]],
               root_system: RestrictedRootSystem, rho: Tuple[Fraction, ...],
               hua: Optional[tuple] = None) -> RealFormData:
    """Build one catalog real form from its Iwasawa zones, and validate it.

    ``n_zone`` lists ``(name, matrix, restricted weight)``, ``a_zone``
    ``(name, matrix)`` (the i-th carrying e_i) and ``k_zone`` ``(name,
    matrix, character value)``, each in basis order.  They make the basis
    ``{name}{params}-iwasawa`` (zones n | a | k), with the k-character and
    the n-weights keyed by basis index.  ``hua``, a triple of p-, q- and
    k-zone lists (the p and q zones shaped like ``a_zone``), makes a second
    basis ``{name}{params}-hua`` with its own k-character.

    Checked, for every form: each basis has the dimension of
    ``complex_algebra`` and a character vanishing on [k, k]; the zone
    brackets of the Iwasawa basis; every n-weight against ad a; the
    n-weights against the multiplicities of ``root_system``; and ``rho``
    against its half-sum.  A failed check raises ``AssertionError``, a bad
    character ``ValueError``.
    """
    tag = name + "".join(map(str, params))
    basis, k_character = _zoned_basis(
        f"{tag}-iwasawa", complex_algebra,
        (("n", [(x, mat) for x, mat, _w in n_zone]), ("a", a_zone)), k_zone)
    n_weights = {i: weight for i, (_x, _m, weight) in enumerate(n_zone)}
    _check_iwasawa_zones(basis)
    _check_restricted_weights(basis, n_weights)
    _check_root_multiplicities(root_system, n_weights)
    if rho != root_system.half_sum():
        raise AssertionError(
            f"{tag}: rho {rho} != root half-sum {root_system.half_sum()}")
    hua_basis = hua_character = None
    if hua is not None:
        p_zone, q_zone, hua_k_zone = hua
        hua_basis, hua_character = _zoned_basis(
            f"{tag}-hua", complex_algebra, (("p", p_zone), ("q", q_zone)),
            hua_k_zone)
    return RealFormData(
        name=name, params=params, ring=ring, complex_algebra=complex_algebra,
        basis=basis, k_character=k_character, n_weights=n_weights,
        root_system=root_system, rho=rho, hua_basis=hua_basis,
        hua_character=hua_character)


# -- U(p, q) -----------------------------------------------------------------

def check_upq_ranks(p: int, q: int) -> None:
    """Raise ``ValueError`` unless ``1 <= q <= p``, the ranks of a U(p, q)."""
    if not 1 <= q <= p:
        raise ValueError(f"U(p,q) needs 1 <= q <= p, got p={p} q={q}")


@lru_cache(maxsize=None)
def make_upq(p: int, q: int, symbols: Tuple[str, ...] = ("s", "t")) -> RealFormData:
    """The real form U(p, q), complexified to gl_{p+q}.

    Index convention: 1..p is the first block, and for i = 1..q the reflected
    index ibar = p+q+1-i lies in the second block.  The k-character is the
    template tau_{s,t}: E_{mu,nu} -> s delta, E_{ibar,jbar} -> t delta.
    """
    check_upq_ranks(p, q)
    if "s" not in symbols or "t" not in symbols:
        raise ValueError("U(p,q) parameter ring must contain 's' and 't'")
    ring = ParamRing(symbols)
    big = p + q

    def bar(i: int) -> int:
        return big + 1 - i

    def mat(entries: Dict[Tuple[int, int], int]) -> Matrix:
        return make_matrix(big, entries)

    # n-zone: restricted-root vectors, grouped by root for readability.
    n_zone = [(f"Y_{i}", mat({(i, i): -1, (i, bar(i)): 1, (bar(i), i): -1,
                              (bar(i), bar(i)): 1}),
               _coords(q, **{f"i{i}": 2})) for i in range(1, q + 1)]
    for i in range(1, q + 1):
        for k in range(q + 1, p + 1):
            weight = _coords(q, **{f"i{i}": 1})
            n_zone.append((f"Y_{i}_{k}", mat({(i, k): 1, (bar(i), k): 1}), weight))
            n_zone.append((f"Y_{k}_{i}", mat({(k, i): 1, (k, bar(i)): -1}), weight))
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            if i != j:
                n_zone.append((f"Yplus_{i}_{j}", mat(
                    {(i, j): 1, (bar(i), j): 1, (i, bar(j)): -1,
                     (bar(i), bar(j)): -1}),
                    _coords(q, **{f"i{i}": 1, f"i{j}": 1})))
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            weight = _coords(q, **{f"i{i}": 1, f"i{j}": -1})
            n_zone.append((f"Yone_{i}_{j}", mat(
                {(i, j): 1, (bar(i), j): 1, (i, bar(j)): 1,
                 (bar(i), bar(j)): 1}), weight))
            n_zone.append((f"Ytwo_{i}_{j}", mat(
                {(j, i): 1, (bar(j), i): -1, (j, bar(i)): -1,
                 (bar(j), bar(i)): 1}), weight))

    # a-zone: E_i = E_{i,ibar} + E_{ibar,i}.
    a_zone = [(f"E_{i}", mat({(i, bar(i)): 1, (bar(i), i): 1}))
              for i in range(1, q + 1)]

    # k-zone: E_{mu,nu} (mu, nu <= p) and E_{ibar,jbar} (i, j <= q).
    s_val, t_val, zero = ring.var("s"), ring.var("t"), ring.zero()
    k_zone = [(f"E_{mu}_{nu}", elementary(big, mu, nu),
               s_val if mu == nu else zero)
              for mu in range(1, p + 1) for nu in range(1, p + 1)]
    k_zone += [(f"E_{bar(i)}_{bar(j)}", elementary(big, bar(i), bar(j)),
                t_val if i == j else zero)
               for i in range(1, q + 1) for j in range(1, q + 1)]

    rho = tuple(Fraction(p + q + 1 - 2 * i) for i in range(1, q + 1))
    return _real_form("upq", (p, q), ring, make_algebra("gl", big), n_zone,
                      a_zone, k_zone, upq_root_system(p, q), rho)


# -- Sp(n, R) ----------------------------------------------------------------

@lru_cache(maxsize=None)
def make_spnr(n: int, symbols: Tuple[str, ...] = ("ell",)) -> RealFormData:
    """The real form Sp(n, R) inside gl_{2n}, in the antidiagonal sp_n of
    ``make_algebra("sp", n)``.

    With ibar = 2n+1-i, the block generators are halves of that algebra's
    F: K_ij = F_ij/2, P_ij = F_{i,jbar}/2 and Q_ij = F_{ibar,j}/2 (i, j <= n),
    so 2K_ij = E_ij - E_{jbar,ibar}, 2P_ij = E_{i,jbar} + E_{j,ibar} and
    2Q_ij = E_{ibar,j} + E_{jbar,i}; P and Q are symmetric in (i, j).
    The Iwasawa basis (zones n | a | k) uses the real-split picture:
    n-zone root vectors X_{e_i-e_j} = K_ij - K_ji + P_ij + Q_ij,
    X_{e_i+e_j} = K_ij + K_ji - P_ij + Q_ij (i < j), X_{2e_i} = 2K_ii - P_ii
    + Q_ii; a-zone A_i = P_ii + Q_ii; k-zone K_ij - K_ji (i < j) and
    P_ij - Q_ij (i <= j), with character chi_ell: P_ii - Q_ii -> ell.

    ``hua_basis`` (zones p | q | k) keeps P_{i<=j}, Q_{i<=j}, all K_ij, with
    the Levi character K_ij -> ell * delta_ij used by the block-matrix chains.
    """
    if n < 1:
        raise ValueError("Sp(n,R) requires n >= 1")
    if "ell" not in symbols:
        raise ValueError("Sp(n,R) parameter ring must contain 'ell'")
    ring = ParamRing(symbols)
    algebra = make_algebra("sp", n)
    bar = 2 * n + 1

    def k_mat(i: int, j: int) -> Matrix:
        return mat_scale(algebra.f_matrix(i, j), Fraction(1, 2))

    def p_mat(i: int, j: int) -> Matrix:
        return k_mat(i, bar - j)

    def q_mat(i: int, j: int) -> Matrix:
        return k_mat(bar - i, j)

    ell_val, zero = ring.var("ell"), ring.zero()
    upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]

    n_zone = []
    for i, j in upper:
        if i < j:
            n_zone.append((f"Xm_{i}_{j}", mat_add(
                mat_add(k_mat(i, j), mat_scale(k_mat(j, i), -1)),
                mat_add(p_mat(i, j), q_mat(i, j))),
                _coords(n, **{f"i{i}": 1, f"i{j}": -1})))
            n_zone.append((f"Xp_{i}_{j}", mat_add(
                mat_add(k_mat(i, j), k_mat(j, i)),
                mat_add(mat_scale(p_mat(i, j), -1), q_mat(i, j))),
                _coords(n, **{f"i{i}": 1, f"i{j}": 1})))
    for i in range(1, n + 1):
        n_zone.append((f"X2_{i}", mat_add(
            mat_scale(k_mat(i, i), 2),
            mat_add(mat_scale(p_mat(i, i), -1), q_mat(i, i))),
            _coords(n, **{f"i{i}": 2})))

    a_zone = [(f"A_{i}", mat_add(p_mat(i, i), q_mat(i, i)))
              for i in range(1, n + 1)]
    k_zone = [(f"KK_{i}_{j}",
               mat_add(k_mat(i, j), mat_scale(k_mat(j, i), -1)), zero)
              for i, j in upper if i < j]
    k_zone += [(f"PQ_{i}_{j}",
                mat_add(p_mat(i, j), mat_scale(q_mat(i, j), -1)),
                ell_val if i == j else zero) for i, j in upper]

    hua = ([(f"P_{i}_{j}", p_mat(i, j)) for i, j in upper],
           [(f"Q_{i}_{j}", q_mat(i, j)) for i, j in upper],
           [(f"K_{i}_{j}", k_mat(i, j), ell_val if i == j else zero)
            for i in range(1, n + 1) for j in range(1, n + 1)])
    rho = tuple(Fraction(n - i + 1) for i in range(1, n + 1))
    return _real_form("spnr", (n,), ring, algebra, n_zone,
                      a_zone, k_zone, spnr_root_system(n), rho, hua)


# -- GL(n, R) ----------------------------------------------------------------

@lru_cache(maxsize=None)
def make_glnr(n: int, symbols: Tuple[str, ...] = ()) -> RealFormData:
    """The real form GL(n, R), complexified to gl_n.

    Iwasawa basis: n-zone E_{ij} (i < j), a-zone E_{ii}, k-zone
    K_ij = (E_ij - E_ji)/2 (i < j) with the zero character.
    """
    if n < 1:
        raise ValueError("GL(n,R) requires n >= 1")
    ring = ParamRing(symbols)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    n_zone = [(f"E_{i}_{j}", elementary(n, i, j),
               _coords(n, **{f"i{i}": 1, f"i{j}": -1})) for i, j in pairs]
    a_zone = [(f"E_{i}_{i}", elementary(n, i, i)) for i in range(1, n + 1)]
    half = Fraction(1, 2)
    k_zone = [(f"K_{i}_{j}", make_matrix(n, {(i, j): half, (j, i): -half}),
               ring.zero()) for i, j in pairs]
    rho = tuple(Fraction(n + 1, 2) - i for i in range(1, n + 1))
    return _real_form("glnr", (n,), ring, make_algebra("gl", n), n_zone,
                      a_zone, k_zone, glnr_root_system(n), rho)


# ---------------------------------------------------------------------------
# Satake degree table
# ---------------------------------------------------------------------------

_DATA_PATH = Path(__file__).parent / "data" / "satake_degrees.json"

_TERM_RE = re.compile(r"^(\d*)([a-z]?)$")


def eval_linear(expr: object, env: Mapping[str, int]) -> int:
    """Evaluate a small linear integer expression like "2n+m-1".

    Accepts ints directly; otherwise the expression must be a sum/difference
    of terms of the form [coefficient][variable].  No general evaluation.
    """
    if isinstance(expr, int):
        return expr
    text = str(expr).replace(" ", "")
    if not text:
        raise ValueError("empty expression")
    total = 0
    sign = 1
    term = ""
    for ch in text + "+":
        if ch in "+-":
            if term == "" and total == 0 and sign == 1 and ch == "-":
                sign = -1
                continue
            if term == "":
                raise ValueError(f"malformed expression {expr!r}")
            match = _TERM_RE.match(term)
            if not match:
                raise ValueError(f"malformed term {term!r} in {expr!r}")
            coeff_text, var = match.groups()
            coeff = int(coeff_text) if coeff_text else 1
            if var:
                if var not in env:
                    raise ValueError(f"unbound symbol {var!r} in {expr!r}")
                total += sign * coeff * env[var]
            else:
                total += sign * coeff
            term = ""
            sign = 1 if ch == "+" else -1
        else:
            term += ch
    return total


@dataclass(frozen=True)
class NodeDegree:
    degree: Optional[int]
    shilov: bool = False
    black: bool = False


class SatakeRow:
    """One row of the degree table."""

    def __init__(self, record: dict):
        self.label: str = record["label"]
        self.group: str = record["group"]
        self.family: str = record["family"]
        self.rank: object = record.get("rank", "n")
        self.rank_min: int = record.get("rankMin", 1)
        self.param: Optional[str] = record.get("param")
        self.param_min: int = record.get("paramMin", 1)
        self.restricted: Optional[List[dict]] = record.get("restricted")
        self.nodes: Optional[List[dict]] = record.get("nodes")
        self.construction: Optional[dict] = record.get("construction")
        self.note: Optional[str] = record.get("note")

    @property
    def full_label(self) -> str:
        return f"{self.label}:{self.group}"

    def _env(self, rank: Optional[int], m: Optional[int]) -> Dict[str, int]:
        env: Dict[str, int] = {}
        if isinstance(self.rank, int):
            if rank is not None and rank != self.rank:
                raise ValueError(
                    f"{self.full_label} has fixed rank {self.rank}, got {rank}"
                )
            env["n"] = self.rank
        else:
            if rank is None:
                raise ValueError(f"{self.full_label} needs a rank value")
            if rank < self.rank_min:
                raise ValueError(
                    f"{self.full_label} requires rank >= {self.rank_min}"
                )
            env[str(self.rank)] = rank
        if self.param is not None:
            if m is None:
                raise ValueError(f"{self.full_label} needs parameter {self.param}")
            if m < self.param_min:
                raise ValueError(
                    f"{self.full_label} requires {self.param} >= {self.param_min}"
                )
            env[self.param] = m
        elif m is not None:
            raise ValueError(f"{self.full_label} takes no extra parameter")
        return env

    def node_degrees(self, rank: Optional[int] = None,
                     m: Optional[int] = None) -> List[NodeDegree]:
        """Per-node degree/Shilov data.

        Classical rows expand the restricted pattern for the given rank and
        index restricted Dynkin nodes 1..rank; exceptional rows return the
        drawn nodes in chain-then-branch order (black nodes included).
        """
        if self.family == "classical":
            env = self._env(rank, m)
            out: List[NodeDegree] = []
            for entry in self.restricted or []:
                count = eval_linear(entry.get("repeat", 1), env)
                if count < 0:
                    raise ValueError(
                        f"negative repeat count in {self.full_label}"
                    )
                node = NodeDegree(
                    degree=entry["degree"], shilov=bool(entry.get("shilov"))
                )
                out.extend([node] * count)
            return out
        if rank is not None or m is not None:
            raise ValueError(f"{self.full_label} is exceptional: fixed nodes")
        out = []
        for entry in self.nodes or []:
            if entry.get("black"):
                out.append(NodeDegree(degree=None, black=True))
            else:
                out.append(
                    NodeDegree(degree=entry["degree"],
                               shilov=bool(entry.get("shilov")))
                )
        return out

    def construction_args(self, node: int, rank: Optional[int],
                          m: Optional[int]) -> Optional[Dict[str, int]]:
        """Evaluated boundary-construction arguments for a classical row."""
        if self.construction is None:
            return None
        env = self._env(rank, m)
        env["i"] = node
        out = {"family": self.construction["family"]}
        for key, expr in self.construction["args"].items():
            out[key] = eval_linear(expr, env)
        out["node"] = node
        return out


class SatakeTable:
    def __init__(self, rows: Sequence[SatakeRow]):
        self.rows: Tuple[SatakeRow, ...] = tuple(rows)
        self._by_full: Dict[str, SatakeRow] = {}
        self._by_short: Dict[str, List[SatakeRow]] = {}
        for row in self.rows:
            if row.full_label in self._by_full:
                raise ValueError(f"duplicate table row {row.full_label}")
            self._by_full[row.full_label] = row
            self._by_short.setdefault(row.label, []).append(row)

    def row(self, label: str) -> SatakeRow:
        """Find a row by full "label:group", unique short label, or group."""
        if label in self._by_full:
            return self._by_full[label]
        matches = self._by_short.get(label, [])
        if not matches:
            # Printed labels carry TeX braces ("D_n^{1}"); accept both forms.
            plain = label.replace("{", "").replace("}", "")
            matches = [
                r for r in self.rows
                if r.label.replace("{", "").replace("}", "") == plain
                or r.full_label.replace("{", "").replace("}", "") == plain
            ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            for row in self.rows:
                if row.group == label:
                    return row
            raise KeyError(f"unknown diagram label {label!r}")
        options = ", ".join(r.full_label for r in matches)
        raise KeyError(f"ambiguous label {label!r}; use one of: {options}")


@lru_cache(maxsize=1)
def satake_table() -> SatakeTable:
    with open(_DATA_PATH, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return SatakeTable([SatakeRow(rec) for rec in data["rows"]])
