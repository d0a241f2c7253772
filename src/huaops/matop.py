"""Matrices over an enveloping algebra and the ideal generators they produce.

The generator matrix of a classical algebra has the spanning generators as
its entries, over the Verma basis or any basis spanning the algebra (such as
an Iwasawa basis).  A minimal polynomial evaluated on it is a square matrix
of enveloping-algebra elements whose entries generate a two-sided ideal.
:func:`factor_products` is the one loop that multiplies the factors
``(F - c_1)(F - c_2)...``, yielding each partial product;
:func:`mat_eval_factors` is the last, and Horner's rule on the expanded
coefficients (:func:`mat_eval_poly`) checks it.  They build the exported
generator sets and the exact two-factor identities, and are the test
oracle for the U(p,q) membership drivers, which apply the factors to
columns of an induced module instead (see :mod:`huaops.reduce`).  A matrix
product converts each row and column to int numerators once
(:func:`~huaops.pbw.sum_products_table`).  Trace powers of the
generator matrix supply the central generators; their eigenvalues are read
off a highest-weight evaluation oracle.  :func:`ideal_metadata` describes
what a generator set is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .liedata import AlgebraData
from .minpoly import MinPoly, ThetaData, minimal_polynomial
from .params import ParamPoly, ParamRing
from .pbw import (EnvElement, Monomial, OrderedBasis, sum_products,
                  sum_products_table)


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
        table = sum_products_table(self.entries, tuple(zip(*other.entries)))
        return OpMatrix(self.basis, self.ring, tuple(map(tuple, table)))

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


def factor_products(mat: OpMatrix, roots: Sequence[ParamPoly]
                    ) -> Iterator[OpMatrix]:
    """Yield ``(mat - r_1)``, ``(mat - r_1)(mat - r_2)``, ... for ``roots``.

    Each prefix is the previous one times the next factor on the right; the
    first is the factor itself.
    """
    product = None
    for root in roots:
        factor = mat.shift(-root)
        product = factor if product is None else product.mul(factor)
        yield product


def mat_eval_factors(mat: OpMatrix, roots: Sequence[ParamPoly]) -> OpMatrix:
    """``prod_k (mat - roots[k] * I)``: the last of :func:`factor_products`."""
    product = OpMatrix.identity(mat.basis, mat.ring, mat.size)
    for product in factor_products(mat, roots):
        pass
    return product


def mat_eval_poly(mat: OpMatrix, coefficients: Sequence[ParamPoly]) -> OpMatrix:
    """Evaluate ``sum_k coefficients[k] * mat^k`` by Horner's rule."""
    if not coefficients:
        raise ValueError("need at least one coefficient")
    out: Optional[OpMatrix] = None
    for coeff in reversed(coefficients):
        if out is None:
            out = OpMatrix.identity(mat.basis, mat.ring, mat.size).scale(coeff)
        else:
            out = mat.mul(out).shift(coeff)
    return out


def matrix_powers(mat: OpMatrix, top: int) -> List[OpMatrix]:
    """``[I, mat, mat^2, ..., mat^top]``."""
    powers = [OpMatrix.identity(mat.basis, mat.ring, mat.size)]
    for _ in range(top):
        powers.append(powers[-1].mul(mat))
    return powers


def trace_power(mat: OpMatrix, order: int,
                powers: Optional[List[OpMatrix]] = None) -> EnvElement:
    """``tr(mat^order)`` computed from two half powers.

    Splitting the power keeps the largest intermediate matrix at half the
    requested order; a precomputed ``powers`` list is reused when given.
    """
    if order < 1:
        raise ValueError("order must be positive")
    a = order // 2
    b = order - a
    if powers is None:
        powers = matrix_powers(mat, b)
    left, right = powers[a], powers[b]
    return sum_products([x for row in left.entries for x in row],
                        [y for col in zip(*right.entries) for y in col])


# ---------------------------------------------------------------------------
# Highest-weight evaluation
# ---------------------------------------------------------------------------


def highest_weight_buckets(algebra: AlgebraData, element: EnvElement,
                           weight: Mapping[int, ParamPoly],
                           ) -> Dict[Monomial, ParamPoly]:
    """Apply an element to a highest-weight vector.

    Monomials with a factor in the raising zone annihilate the vector; the
    Cartan part evaluates at the weight; what remains is grouped by its
    lowering-zone monomial.  The empty-monomial bucket is the scalar action.
    """
    basis = algebra.basis
    if basis is not element.basis:
        raise ValueError("element not expressed in the algebra's basis")
    buckets: Dict[Monomial, ParamPoly] = {}
    for mono, coeff in element.terms.items():
        parts = basis.split_monomial(mono)
        if parts["n"]:
            continue
        value = coeff
        for g, e in parts["a"]:
            value = value * weight[g] ** e
        key = tuple(parts["nbar"])
        if key in buckets:
            buckets[key] = buckets[key] + value
        else:
            buckets[key] = value
    return {k: v for k, v in buckets.items() if not v.is_zero()}


def central_eigenvalue(algebra: AlgebraData, element: EnvElement,
                       weight: Mapping[int, ParamPoly]) -> ParamPoly:
    """Scalar by which a central element acts on the highest-weight vector.

    Raises :class:`CentralityError` if the evaluation leaves any lowering
    residue, which certifies the element is not central for this weight
    family.
    """
    buckets = highest_weight_buckets(algebra, element, weight)
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
    ring = element.ring
    return buckets.get((), ring.zero())


def theta_weight(algebra: AlgebraData, theta: ThetaData) -> Dict[int, ParamPoly]:
    """Weight map sending each diagonal generator to its block's character."""
    if algebra.rank != theta.rank:
        raise ValueError("block pattern rank does not match the algebra")
    return algebra.weight_map(list(theta.weight_values()))


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


def ideal_metadata(theta: ThetaData, basis: OrderedBasis,
                   column_range: Optional[Tuple[int, int]] = None) -> dict:
    """What an ideal's generators are built from: pattern, basis, columns."""
    meta = {
        "kind": theta.kind,
        "rank": theta.rank,
        "ambient": basis.ambient,
        "blocks": list(theta.blocks),
        "charValues": [str(v) for v in theta.char_values],
        "variant": theta.variant,
        "basisId": basis.basis_id,
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
    """All generators of the two-sided ideal attached to a block pattern."""

    theta: ThetaData
    polynomial: MinPoly
    matrix: OpMatrix
    central: Tuple[CentralGenerator, ...]
    pfaffian_omitted: bool
    column_range: Optional[Tuple[int, int]] = None

    def entries(self) -> List[Tuple[int, int, EnvElement]]:
        positions = entry_positions(self.matrix.size, self.column_range)
        return [(i, j, self.matrix.entry(i, j)) for i, j in positions]

    def metadata(self) -> dict:
        return ideal_metadata(self.theta, self.matrix.basis, self.column_range)

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata(),
            "polynomial": self.polynomial.to_json_dict(),
            "entries": [
                {"row": i, "col": j, "element": e.to_json_dict()}
                for i, j, e in self.entries()
            ],
            "central": [
                {
                    "index": c.index,
                    "order": c.order,
                    "eigenvalue": str(c.eigenvalue),
                    "element": c.element.to_json_dict(),
                }
                for c in self.central
            ],
            "pfaffianOmitted": self.pfaffian_omitted,
        }


def ideal_generators(algebra: AlgebraData, theta: ThetaData,
                     ring: Optional[ParamRing] = None,
                     column_range: Optional[Tuple[int, int]] = None,
                     ) -> GeneratorSet:
    """Build the full generator set of the ideal attached to a block pattern.

    The matrix part evaluates the minimal polynomial on the generator matrix
    (the last of :func:`factor_products`).  The central part adjoins one
    trace power per index in the pattern's central index set, with its
    eigenvalue certified by the highest-weight oracle; the even-orthogonal
    generator of order equal to the rank has no trace-power realization and
    is omitted with a flag.
    """
    if ring is None:
        ring = theta.ring
    if algebra.rank != theta.rank:
        raise ValueError("block pattern rank does not match the algebra")
    poly = minimal_polynomial(theta)
    fmat = generator_matrix(algebra, ring)
    qmat = mat_eval_factors(fmat, poly.roots)

    weight = theta_weight(algebra, theta)
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
        powers = matrix_powers(fmat, top)
        for j, order in usable:
            element = trace_power(fmat, order, powers=powers)
            eig = central_eigenvalue(algebra, element, weight)
            central.append(CentralGenerator(j, order, element, eig))

    return GeneratorSet(
        theta=theta,
        polynomial=poly,
        matrix=qmat,
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


def check_adjoint_covariance(algebra: AlgebraData, mat: OpMatrix) -> None:
    """Assert the covariance identity for every basis generator."""
    for g in range(len(algebra.basis)):
        defect = adjoint_covariance_defect(algebra, mat, g)
        if not defect.is_zero():
            name = algebra.basis.names[g]
            raise AssertionError(f"covariance fails for generator {name}")
