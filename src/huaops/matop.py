"""Matrices over an enveloping algebra and the ideal generators they produce.

The generator matrix of a classical algebra has the spanning generators as
its entries, over the Verma basis or any basis spanning the algebra (such as
an Iwasawa basis).  A minimal polynomial evaluated on it is a square matrix
of enveloping-algebra elements whose entries generate a two-sided ideal.
:func:`factor_columns` is the one loop that multiplies factors
``F - c``: it applies them one root at a time, from the left, to
the unit columns it is asked for, and yields every prefix.  It builds the
exported generator sets (their kept columns only), the trace powers, the
exact two-factor identities and the power chains of the GL(n,R) lemma;
Horner's rule on the expanded coefficients (:func:`mat_eval_poly`) is its
oracle.  Given a k-character it peels every entry through it after each
root, which runs the chain in the induced module U(g)/U(g)(k - chi); the
U(p,q) membership drivers and the GL(n,R) lemma of :mod:`huaops.reduce`
use it so.  Given a real form's grades too (the U(p,q) drivers), it is
pruned by restricted weight, by the phi budget that the
:func:`factor_columns` docstring states.  Chains without a character keep
every term and peel none.  Every product multiplies a matrix by one column
(:func:`~huaops.pbw.sum_products_column`): a chain step once per column,
peeling each before it builds the next, and :meth:`OpMatrix.mul` once per
column of its right factor.  Trace powers of the generator matrix supply
the central generators; their eigenvalues are read off a highest-weight
evaluation, one peel over the Verma basis.
:func:`ideal_metadata` describes what a generator set is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .liedata import AlgebraData
from .minpoly import MinPoly, ThetaData, minimal_polynomial
from .params import ParamPoly, ParamRing
from .pbw import (EnvElement, OrderedBasis, _peel, mono_grade, sum_products,
                  sum_products_column)


class CentralityError(ValueError):
    """Raised when a highest-weight evaluation shows an element is not central."""


# ---------------------------------------------------------------------------
# Matrices with enveloping-algebra entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpMatrix:
    """A square matrix whose entries live in one enveloping algebra."""

    basis: OrderedBasis
    ring: ParamRing
    entries: Tuple[Tuple[EnvElement, ...], ...]

    def __post_init__(self):
        size = len(self.entries)
        if any(len(row) != size for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(basis: OrderedBasis, ring: ParamRing, size: int) -> "OpMatrix":
        one = EnvElement.scalar(basis, ring.one())
        zero = EnvElement.zero(basis, ring)
        return OpMatrix(basis, ring, tuple(
            tuple(one if i == j else zero for j in range(size))
            for i in range(size)
        ))

    def entry(self, i: int, j: int) -> EnvElement:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def add(self, other: "OpMatrix") -> "OpMatrix":
        self._check_compatible(other)
        return OpMatrix(self.basis, self.ring, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def sub(self, other: "OpMatrix") -> "OpMatrix":
        self._check_compatible(other)
        return OpMatrix(self.basis, self.ring, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def scale(self, value: ParamPoly) -> "OpMatrix":
        return OpMatrix(self.basis, self.ring, tuple(
            tuple(e * value for e in row) for row in self.entries
        ))

    def shift(self, value: ParamPoly) -> "OpMatrix":
        """``self + value * I``."""
        diag = EnvElement.scalar(self.basis, value)
        return OpMatrix(self.basis, self.ring, tuple(
            tuple(e + diag if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(self.entries)
        ))

    def mul(self, other: "OpMatrix") -> "OpMatrix":
        """Matrix product; entry products keep the left factor on the left."""
        self._check_compatible(other)
        return from_columns(self, [sum_products_column(self.entries, column)
                                   for column in zip(*other.entries)])

    def trace(self) -> EnvElement:
        one = EnvElement.scalar(self.basis, self.ring.one())
        return sum_products([row[i] for i, row in enumerate(self.entries)],
                            [one] * self.size)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def map_entries(self, fn) -> "OpMatrix":
        return OpMatrix(self.basis, self.ring, tuple(
            tuple(fn(e) for e in row) for row in self.entries
        ))

    def _check_compatible(self, other: "OpMatrix") -> None:
        if self.size != other.size or self.basis is not other.basis:
            raise ValueError("incompatible matrices")


def generator_matrix(algebra: AlgebraData, ring: ParamRing,
                     basis: Optional[OrderedBasis] = None) -> OpMatrix:
    """The matrix of the generators ``F_ij`` over ``basis`` (default Verma)."""
    basis = algebra.basis if basis is None else basis
    n = algebra.ambient
    rows = tuple(
        tuple(EnvElement.from_gl_matrix(basis, ring, algebra.f_matrix(i, j))
              for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return OpMatrix(basis, ring, rows)


def factor_columns(mat: OpMatrix, roots: Sequence[ParamPoly],
                   columns: Sequence[int],
                   character: Optional[Mapping[int, ParamPoly]] = None,
                   grades: Optional[Sequence[int]] = None
                   ) -> Iterator[List[List[EnvElement]]]:
    """Apply the factors ``mat - r`` one root at a time to unit columns.

    Column b starts as the unit column e_b, and each root maps every column
    x, one at a time, to ``(mat - r) x``.  After the roots ``r_1..r_m``
    column b is ``(mat - r_m)...(mat - r_1) e_b``, which is column b of the
    m-th prefix ``(mat - r_1)...(mat - r_m)``: the factors commute.  Yields
    the columns, in the order of ``columns``, after every root, each as the
    list of its entries from row 1 down.  Columns that are not listed are
    never built.

    Given a k-``character`` (keyed by the k-zone of ``mat.basis``), every
    entry has its k-tails peeled through it after each root, so the chain
    runs in the induced module U(g)/U(g)(k - chi) and column b holds the
    prefix applied to v_chi.  The peel is exact: U(g)(k - chi) is a left
    ideal and every factor multiplies from the left, so an entry may be
    replaced by its peeled representative at any step.  Each column is
    peeled (and cut, below) before the next is built, so a step holds at
    most one unpeeled column.  Given only a character, column b is exactly
    the peeled prefix, n-leading terms included (the GL(n,R) lemma's
    congruences read all of it).

    Given ``grades`` too (a real form's ``grades``), the phi budget prunes
    the chain to what can still reach the n-free part, which is all that
    :func:`~huaops.reduce.reduce_iwasawa` reads; pruning assumes the peel.
    Grade each n|a monomial by phi of its n-part (``mono_grade``; 0 iff n-free).  Left action by a
    generator moves phi by at least its grade: an n-generator raises it by
    phi of its weight, an a-generator keeps it, and a k-generator lowers it
    by at most its level.  So one factor lowers phi by at most L, the
    largest level among the entries of ``mat`` (2q for the generator matrix
    of U(p,q)), and after root m of K a term with phi > (K - m)·L can never
    reach the n-free part of a later prefix.  Each step skips the pairs
    whose product lies over that budget
    (:func:`~huaops.pbw.sum_products_column`) and drops, after the peel,
    every term over it.  The n-free part of every prefix is exactly that of
    the unpruned chain.  A chain without a character (an ideal export, a
    trace power, a matrix that an exact check reads) keeps every term.
    """
    basis, ring = mat.basis, mat.ring
    one = EnvElement.scalar(basis, ring.one())
    zero = EnvElement.zero(basis, ring)
    state = [[one if a == b else zero for a in range(1, mat.size + 1)]
             for b in columns]
    if grades is not None:
        step = max([0] + [-mono_grade(m, grades) for row in mat.entries
                          for x in row for m in x.terms])
    for m, root in enumerate(roots, start=1):
        budget = None if grades is None else (len(roots) - m) * step
        rows = mat.shift(-root).entries
        done = []
        for column in state:
            product = sum_products_column(rows, column, grades, budget)
            if character is not None:
                product = [_peel(x, character) for x in product]
            if budget is not None:
                product = [EnvElement(basis, ring, {
                    mono: c for mono, c in x.terms.items()
                    if mono_grade(mono, grades) <= budget}) for x in product]
            done.append(product)
        state = done
        yield state


def from_columns(mat: OpMatrix, columns: Sequence[Sequence[EnvElement]]
                 ) -> OpMatrix:
    """The matrix with the given full list of columns, over ``mat``'s basis."""
    return OpMatrix(mat.basis, mat.ring, tuple(zip(*columns)))


def mat_eval_poly(mat: OpMatrix, coefficients: Sequence[ParamPoly]) -> OpMatrix:
    """Evaluate ``sum_k coefficients[k] * mat^k`` by Horner's rule.

    It multiplies whole matrices on the expanded coefficients and shares no
    loop with :func:`factor_columns`, whose oracle it is.
    """
    if not coefficients:
        raise ValueError("need at least one coefficient")
    out: Optional[OpMatrix] = None
    for coeff in reversed(coefficients):
        if out is None:
            out = OpMatrix.identity(mat.basis, mat.ring, mat.size).scale(coeff)
        else:
            out = mat.mul(out).shift(coeff)
    return out


def trace_power(mat: OpMatrix, order: int,
                powers: Optional[Sequence[Sequence[Sequence[EnvElement]]]] = None
                ) -> EnvElement:
    """``tr(mat^order)`` computed from two half powers.

    ``powers[k - 1]`` holds the columns of ``mat^k``, as
    :func:`factor_columns` yields them for zero roots; they are built up to
    the larger half when not given.  Splitting the power keeps the largest
    intermediate matrix at half the requested order.
    """
    if order < 1:
        raise ValueError("order must be positive")
    a = order // 2
    b = order - a
    if a == 0:
        return mat.trace()
    if powers is None:
        powers = list(factor_columns(mat, [mat.ring.zero()] * b,
                                     range(1, mat.size + 1)))
    left, right = powers[a - 1], powers[b - 1]
    # tr(LR) = sum over c, i of L[i, c] R[c, i]; L[i, c] is left[c][i].
    return sum_products([x for column in left for x in column],
                        [y for row in zip(*right) for y in row])


# ---------------------------------------------------------------------------
# Highest-weight evaluation
# ---------------------------------------------------------------------------


def central_eigenvalue(algebra: AlgebraData, element: EnvElement,
                       weight: Mapping[int, ParamPoly]) -> ParamPoly:
    """Scalar by which a central element acts on the highest-weight vector.

    One peel over the Verma basis (zones nbar | a | n): an n-factor kills
    the vector, an a-factor acts by its weight, and what remains of each
    monomial is its lowering (nbar) part.  Raises :class:`CentralityError`
    if any lowering monomial remains, which certifies the element is not
    central for this weight family.
    """
    basis = algebra.basis
    if basis is not element.basis:
        raise ValueError("element not expressed in the algebra's basis")
    zero = element.ring.zero()
    values = {g: zero for g in basis.zone_indices("n")}
    values.update((g, weight[g]) for g in basis.zone_indices("a"))
    buckets = _peel(element, values).terms
    residue = {k: v for k, v in buckets.items() if k}
    if residue:
        sample_key = sorted(residue)[0]
        names = " ".join(
            f"{algebra.basis.names[g]}^{e}" if e > 1 else algebra.basis.names[g]
            for g, e in sample_key
        )
        raise CentralityError(
            f"not central: lowering residue on {len(residue)} monomial(s), "
            f"e.g. {names} -> {residue[sample_key]}"
        )
    return buckets.get((), zero)


def theta_weight(algebra: AlgebraData, theta: ThetaData) -> Dict[int, ParamPoly]:
    """Weight map sending each diagonal generator to its block's character."""
    if algebra.rank != theta.rank:
        raise ValueError("block pattern rank does not match the algebra")
    return dict(zip(algebra.basis.zone_indices("a"), theta.weight_values()))


# ---------------------------------------------------------------------------
# Ideal generator sets
# ---------------------------------------------------------------------------


def entry_positions(size: int, column_range: Optional[Tuple[int, int]] = None
                    ) -> List[Tuple[int, int]]:
    """Row-major 1-based positions of the entries kept from a square matrix.

    ``column_range = (lo, hi)`` keeps columns ``lo..hi``; ``None`` keeps all.
    """
    if column_range is None:
        cols = range(1, size + 1)
    else:
        lo, hi = column_range
        if not 1 <= lo <= hi <= size:
            raise ValueError(f"column range {column_range} out of 1..{size}")
        cols = range(lo, hi + 1)
    return [(i, j) for i in range(1, size + 1) for j in cols]


def ideal_metadata(theta: ThetaData, algebra: AlgebraData,
                   column_range: Optional[Tuple[int, int]] = None) -> dict:
    """What an ideal's generators are built from: pattern, basis, columns."""
    meta = {
        "kind": theta.kind,
        "rank": theta.rank,
        "ambient": algebra.ambient,
        "blocks": list(theta.blocks),
        "charValues": [str(v) for v in theta.char_values],
        "variant": theta.variant,
        "basisId": algebra.basis_id,
    }
    if column_range is not None:
        meta["columnRange"] = list(column_range)
    return meta


@dataclass(frozen=True)
class CentralGenerator:
    index: int
    order: int
    element: EnvElement
    eigenvalue: ParamPoly


@dataclass(frozen=True)
class GeneratorSet:
    """The exported generators of the ideal attached to a block pattern.

    ``columns`` maps each exported column index of q(F) to its entries, row
    1 first; the other columns are never built.
    """

    theta: ThetaData
    polynomial: MinPoly
    algebra: AlgebraData
    columns: Mapping[int, Sequence[EnvElement]]
    central: Tuple[CentralGenerator, ...]
    pfaffian_omitted: bool
    column_range: Optional[Tuple[int, int]] = None

    def entries(self) -> List[Tuple[int, int, EnvElement]]:
        positions = entry_positions(self.algebra.ambient, self.column_range)
        return [(i, j, self.columns[j][i - 1]) for i, j in positions]

    def metadata(self) -> dict:
        return ideal_metadata(self.theta, self.algebra, self.column_range)

    def to_json_dict(self) -> dict:
        """The set as JSON data; each distinct coefficient is formatted once."""
        texts: Dict[ParamPoly, str] = {}
        return {
            "metadata": self.metadata(),
            "polynomial": self.polynomial.to_json_dict(),
            "entries": [
                {"row": i, "col": j, "element": e.to_json_dict(texts)}
                for i, j, e in self.entries()
            ],
            "central": [
                {
                    "index": c.index,
                    "order": c.order,
                    "eigenvalue": str(c.eigenvalue),
                    "element": c.element.to_json_dict(texts),
                }
                for c in self.central
            ],
            "pfaffianOmitted": self.pfaffian_omitted,
        }


def ideal_generators(algebra: AlgebraData, theta: ThetaData,
                     column_range: Optional[Tuple[int, int]] = None,
                     ) -> GeneratorSet:
    """Build the generator set of the ideal attached to a block pattern.

    The matrix part evaluates the minimal polynomial on the generator matrix,
    over the pattern's own ring, by :func:`factor_columns`, on the exported
    columns only (``column_range``, default all).  The central part adjoins
    one trace power per index in the pattern's central index set, with its
    eigenvalue certified by the highest-weight oracle; the even-orthogonal
    generator of order equal to the rank has no trace-power realization and
    is omitted with a flag.
    """
    ring = theta.ring
    weight = theta_weight(algebra, theta)
    poly = minimal_polynomial(theta)
    fmat = generator_matrix(algebra, ring)
    kept = sorted({j for _i, j in entry_positions(fmat.size, column_range)})
    for columns in factor_columns(fmat, poly.roots, kept):
        pass

    central: List[CentralGenerator] = []
    pfaffian_omitted = False
    indices = theta.central_index_set()
    orders = [theta.central_order(j) for j in indices]
    usable = [
        (j, order) for j, order in zip(indices, orders)
        if not (theta.kind == "o-even" and j == theta.rank)
    ]
    if len(usable) != len(indices):
        pfaffian_omitted = True
    if usable:
        top = max(order - order // 2 for _, order in usable)
        powers = list(factor_columns(fmat, [ring.zero()] * top,
                                     range(1, fmat.size + 1)))
        for j, order in usable:
            element = trace_power(fmat, order, powers=powers)
            eig = central_eigenvalue(algebra, element, weight)
            central.append(CentralGenerator(j, order, element, eig))

    return GeneratorSet(
        theta=theta,
        polynomial=poly,
        algebra=algebra,
        columns=dict(zip(kept, columns)),
        central=tuple(central),
        pfaffian_omitted=pfaffian_omitted,
        column_range=column_range,
    )


# ---------------------------------------------------------------------------
# Adjoint covariance
# ---------------------------------------------------------------------------


def adjoint_covariance_defect(algebra: AlgebraData, mat: OpMatrix,
                              generator_index: int) -> OpMatrix:
    """Defect of ``[X, mat] == x^T * mat - mat * x^T`` for one basis generator.

    ``x`` is the ambient numeric matrix of the generator; entry indices of
    the generator matrix transform through the transpose (for an elementary
    ambient matrix this is the familiar
    ``[E_ij, M_ab] = d_ja M_ib - d_ib M_aj``).  A zero defect for every
    generator says the matrix transforms like its ambient realization.
    """
    basis = algebra.basis
    ring = mat.ring
    xgen = EnvElement.generator(basis, ring, generator_index)
    x_t = OpMatrix(basis, ring, tuple(
        tuple(EnvElement.scalar(basis, ring.const(v)) for v in column)
        for column in zip(*basis.matrices[generator_index])
    ))
    return mat.map_entries(xgen.commutator).sub(
        x_t.mul(mat).sub(mat.mul(x_t)))
