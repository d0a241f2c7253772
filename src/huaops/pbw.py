"""PBW arithmetic in universal enveloping algebras of matrix Lie algebras.

An :class:`OrderedBasis` is a totally ordered list of Lie-algebra generators,
each given by its matrix inside an ambient gl_N.  Structure constants are
recovered exactly (over Q) by solving linear systems against the basis, so a
basis is usable iff it is closed under the commutator — this is validated,
not assumed.

Elements of the enveloping algebra (:class:`EnvElement`) are kept in PBW
normal form throughout: a monomial is a run-length tuple
``((g1, e1), (g2, e2), ...)`` with strictly increasing generator indices, and
coefficients are :class:`huaops.params.ParamPoly`.  Products are computed by
a memoised straightening recursion; the independent ``naive_normal_order``
rewriter below exists purely as a cross-check oracle for tests and shares no
code with the fast path.

Straightening runs on plain ints.  A basis's ``scale`` D is the lcm of the
denominators of its structure constants (1 on the Verma bases, 2 on the
Iwasawa ones), and the recursion uses the integral bracket D·[x, y] in
place of [x, y].  In a product of degree N, the int stored for a monomial m
is then its rational coefficient times D^(N - deg m): each bracket step
lowers the degree by one and contributes one factor D.  Every scaled value
is checked to be integral, never rounded, so a wrong scale raises instead of
giving a wrong product.

The monomials are ints as well.  Each basis numbers every distinct
monomial it meets once (hash-consing): ``_monomials`` maps a tuple to its
int id, and ``_mono_tuples`` and ``_mono_degrees`` map an id back to its one
tuple and its degree; ``()`` is id 0 and ``((g, 1),)`` is id g + 1.  Every
product of two monomials is one memoised recursion on ids,
:meth:`OrderedBasis.mul_monos`.  When the last generator of a is below the
first generator of b, a·b is read off as a + b, and when the two are equal
their powers merge; such a product is not stored.  Otherwise a generator g
times a monomial b = h^e·rest (g > h) is straightened from the front:
g·b = h·(g·h^(e-1)·rest) + [g, h]·h^(e-1)·rest, and a longer a = g·a' is
multiplied as g·(a'·b).  Both are memoised in ``_mono_mono_cache`` under
the one int ``a << ID_BITS | b`` as one flat tuple ``(id, c, id, c, ...)``
of nonzero scaled ints; the memo lives as long as the basis, and
:meth:`OrderedBasis.mono_id` raises rather than give an id that would not
fit its half of the key.  ``_mono_gen_cache``, ``_conversion_cache`` and
:meth:`OrderedBasis.mul_mono_gen` are stubs that only the benchmark's
tracer reads.

Coefficients are :class:`~huaops.params.ParamPoly` int numerators over one
denominator, so the arithmetic around straightening builds no ``Fraction``.
:func:`sum_products_column` is the one loop that multiplies elements over
one basis: a matrix times one column (:func:`sum_products` is its one-row
case).  It brings every operand over one common denominator (the lcm of
the denominators, read from the fields), turns each operand monomial into
its id once, accumulates int numerators in one flat ``{id: int}`` dict per
coefficient exponent, and gathers and reduces each output term by one gcd;
the column is converted once, not once per row.  Degrees are read from the
table, and ids turn back into tuples only where an :class:`EnvElement` is
built, so its terms, its text and JSON, and :func:`_peel` keep tuples.
Each converted term carries its grade (0 without per-index
grades); given a budget, every pair of monomials whose grades sum over it
is skipped, the restricted-weight bound of a character chain
(:func:`~huaops.matop.factor_columns`), and without one every pair is
multiplied.  :func:`change_basis` maps an element of another basis word
by word through the same products, multiplying each generator image in
from the left and peeling the k-tails after every step, so every product
in the package straightens through :meth:`OrderedBasis.mul_monos`, whose
oracle is ``naive_normal_order``.

Generators carry *zone* tags (for instance ``("nbar", "a", "n")`` for a
triangular decomposition, or ``("n", "a", "k")`` for an Iwasawa one).  Zones
must be contiguous and in declared order, so a normal-ordered monomial splits
into zone segments by position — this is what the reduction module relies on.
``_peel`` is the one evaluation of a monomial's zones through given
values, a zone valued 0 being dropped: the k-tail through a k-character
after each step of :func:`change_basis` and after each factor of a
character-peeled :func:`~huaops.matop.factor_columns` chain, the n-drop,
k-tail and a-values of the reduction, and the a|n tail at a highest weight
in :func:`~huaops.matop.central_eigenvalue`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import inf, lcm
from operator import add, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .params import (Exponents, ParamPoly, ParamRing, _over, _reduced, _sum,
                     as_fraction, poly_from_string_ring)

Matrix = Tuple[Tuple[Fraction, ...], ...]
Monomial = Tuple[Tuple[int, int], ...]  # ((gen_index, power), ...) strictly increasing
LinearCombo = Tuple[Tuple[int, Fraction], ...]
IntCombo = Tuple[Tuple[int, int], ...]
Numerators = Dict[Exponents, int]  # int numerators of one ParamPoly
Flat = Dict[Exponents, Dict[int, int]]  # {e: {monomial id: numerator of x^e}}

_ZERO = Fraction(0)
_ONE = Fraction(1)
_second = itemgetter(1)
ID_BITS = 32  # a memo key packs two monomial ids of this many bits


def _integral(value: Fraction, factor: int) -> int:
    """``value * factor`` as an int; raises unless it is one (never rounds)."""
    scaled, remainder = divmod(value.numerator * factor, value.denominator)
    if remainder:
        raise ArithmeticError(
            f"scaled coefficient {value * factor} is not an integer")
    return scaled


def make_matrix(n: int, entries: Mapping[Tuple[int, int], object] | None = None) -> Matrix:
    """An n-by-n rational matrix from a sparse {(row, col): value} dict (1-based)."""
    rows = [[_ZERO] * n for _ in range(n)]
    if entries:
        for (i, j), v in entries.items():
            rows[i - 1][j - 1] += as_fraction(v)
    return tuple(tuple(r) for r in rows)


def _sparse_rows(a: Matrix) -> List[List[Tuple[int, Fraction]]]:
    """The nonzero entries of each row, as ``(column, value)``."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a·b, summed over the nonzero entries of a and b only."""
    out = [[_ZERO] * len(a) for _ in a]
    b_rows = _sparse_rows(b)
    for target, row in zip(out, _sparse_rows(a)):
        for k, x in row:
            for j, y in b_rows[k]:
                target[j] += x * y
    return tuple(map(tuple, out))


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba, accumulated in one pass over the nonzero entries."""
    out = [[_ZERO] * len(a) for _ in a]
    a_rows, b_rows = _sparse_rows(a), _sparse_rows(b)
    for target, a_row, b_row in zip(out, a_rows, b_rows):
        for k, x in a_row:
            for j, y in b_rows[k]:
                target[j] += x * y
        for k, y in b_row:
            for j, x in a_rows[k]:
                target[j] -= y * x
    return tuple(map(tuple, out))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: object) -> Matrix:
    cf = as_fraction(c)
    return tuple(tuple(x * cf for x in r) for r in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


class RationalSpan:
    """Row-echelon store of rational vectors with exact membership solving.

    ``solve(v)`` returns the coordinates of ``v`` over the original vectors,
    or ``None`` if ``v`` is outside their span.  Used both to expand matrices
    over a Lie-algebra basis and to detect dependent candidate generators.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: List[Tuple[int, List[Fraction], List[Fraction]]] = []

    def _eliminate(self, vector: Sequence[Fraction]
                   ) -> Tuple[List[Fraction], List[Fraction]]:
        """``vector`` minus its parts along the stored rows, and those parts
        as coordinates over the added vectors."""
        vec = list(vector)
        combo = [_ZERO] * len(self._rows)
        for piv, rvec, rcombo in self._rows:
            c = vec[piv]
            if c:
                for j in range(self.dim):
                    if rvec[j]:
                        vec[j] -= c * rvec[j]
                for j, rc in enumerate(rcombo):
                    if rc:
                        combo[j] += c * rc
        return vec, combo

    def _insert(self, vector: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
        """Insert a vector unless it is dependent: ``None`` when it is added,
        and else its coordinates over the added vectors (it is ignored)."""
        vec, combo = self._eliminate(vector)
        piv = next((j for j, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return tuple(combo)
        # The new row vec·inv = (vector - combo)·inv, over the added vectors.
        inv = _ONE / vec[piv]
        neg = -inv
        self._rows.append((piv, [x * inv for x in vec],
                           [x * neg for x in combo] + [inv]))
        return None

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Insert a vector; returns False (and ignores it) if dependent."""
        return self._insert(vector) is None

    def solve(self, vector: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
        vec, combo = self._eliminate(vector)
        return None if any(vec) else tuple(combo)


class OrderedBasis:
    """An ordered, zone-tagged basis of a matrix Lie algebra inside gl_N."""

    def __init__(
        self,
        basis_id: str,
        ambient: int,
        generators: Sequence[Tuple[str, str, Matrix]],
        zones: Sequence[str],
    ):
        self.basis_id = basis_id
        self.ambient = ambient
        self.zones = tuple(zones)
        self.names: Tuple[str, ...] = tuple(g[0] for g in generators)
        self.zone_of: Tuple[str, ...] = tuple(g[1] for g in generators)
        self.matrices: Tuple[Matrix, ...] = tuple(g[2] for g in generators)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        starts = [i for i, z in enumerate(self.zone_of) if i == 0 or z != self.zone_of[i - 1]]
        seen_order = [self.zone_of[i] for i in starts]
        if len(set(seen_order)) != len(seen_order) or any(z not in self.zones for z in seen_order):
            raise ValueError(f"generators not grouped by zones {self.zones}: {seen_order}")
        if seen_order != [z for z in self.zones if z in seen_order]:
            raise ValueError(f"zone groups out of declared order: {seen_order}")
        self._zone_ranges: Dict[str, range] = {
            self.zone_of[lo]: range(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(self.zone_of)])}
        self._span = RationalSpan(ambient * ambient)
        for name, _zone, mat in generators:
            if len(mat) != ambient or any(len(r) != ambient for r in mat):
                raise ValueError(f"generator {name} is not {ambient}x{ambient}")
            if not self._span.add([x for row in mat for x in row]):
                raise ValueError(f"generator {name} is linearly dependent on earlier ones")
        self._bracket_cache: Dict[Tuple[int, int], LinearCombo] = {}
        # Never written; the benchmark's tracer reads their sizes, and a test
        # pins them.
        self._mono_gen_cache: Dict[Tuple[Monomial, int], Dict[Monomial, int]] = {}
        self._conversion_cache: Dict[Tuple[str, Monomial], Dict[Monomial, int]] = {}
        self._mono_mono_cache: Dict[int, Tuple[int, ...]] = {}
        # The intern table: one int id per distinct monomial, () first and
        # then ((g, 1),) as id g + 1, and per id its one tuple and degree.
        self._monomials: Dict[Monomial, int] = {}
        self._mono_tuples: List[Monomial] = []
        self._mono_degrees: List[int] = []
        for mono in [()] + [((g, 1),) for g in range(len(self.names))]:
            self.mono_id(mono)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"OrderedBasis({self.basis_id!r}, ambient={self.ambient}, size={len(self)})"

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def zone_indices(self, zone: str) -> range:
        return self._zone_ranges.get(zone, range(0))

    def expand_matrix(self, mat: Matrix) -> Tuple[Fraction, ...]:
        """Coordinates of a gl_N matrix over this basis (raises if outside)."""
        coords = self._span.solve([x for row in mat for x in row])
        if coords is None:
            raise ValueError(f"matrix is not in the span of basis {self.basis_id!r}")
        return coords

    def bracket(self, i: int, j: int) -> LinearCombo:
        """[g_i, g_j] expanded over the basis, as ((index, coeff), ...)."""
        key = (i, j)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        if i == j:
            combo: LinearCombo = ()
        elif i > j:
            combo = tuple((k, -c) for k, c in self.bracket(j, i))
        else:
            comm = mat_commutator(self.matrices[i], self.matrices[j])
            try:
                coords = self.expand_matrix(comm)
            except ValueError:
                raise ValueError(
                    f"basis {self.basis_id!r} is not closed under brackets: "
                    f"[{self.names[i]}, {self.names[j]}] leaves the span"
                ) from None
            combo = tuple((k, c) for k, c in enumerate(coords) if c != 0)
        self._bracket_cache[key] = combo
        return combo

    @cached_property
    def scale(self) -> int:
        """D, the lcm of the denominators of all structure constants."""
        n = len(self)
        return lcm(*(c.denominator for i in range(n) for j in range(i + 1, n)
                     for _k, c in self.bracket(i, j)))

    @cached_property
    def _scaled_brackets(self) -> Dict[Tuple[int, int], IntCombo]:
        """D·[g_i, g_j] with int coefficients, for every i > j."""
        d = self.scale
        return {(i, j): tuple((k, _integral(c, d)) for k, c in self.bracket(i, j))
                for i in range(len(self)) for j in range(i)}

    # -- straightening engine -------------------------------------------------

    def mono_id(self, mono: Monomial) -> int:
        """The int id of a monomial, given on first sight (hash-consing).

        Raises instead of giving an id of ``ID_BITS`` bits or more, so the
        memo key ``a << ID_BITS | b`` never packs two pairs into one int.
        """
        found = self._monomials.get(mono)
        if found is not None:
            return found
        new = len(self._mono_tuples)
        if new >> ID_BITS:
            raise OverflowError(f"basis {self.basis_id!r} would number more "
                                f"than 2**{ID_BITS} monomials")
        self._monomials[mono] = new
        self._mono_tuples.append(mono)
        self._mono_degrees.append(mono_degree(mono))
        return new

    def mul_mono_gen(self, mono: int, g: int) -> Tuple[int, ...]:
        """:meth:`mul_monos` with b = ((g, 1),); the package never calls it.

        A stub kept because ``perfbench/tracer.py`` wraps it to count its
        calls, so that count reads 0.
        """
        return self.mul_monos(mono, g + 1)

    def mul_monos(self, a: int, b: int) -> Tuple[int, ...]:
        """Normal form of a·b over monomial ids, scaled and flat:
        ``(m, c, m, c, ...)`` with c = D^(deg a + deg b - deg m) times the
        coefficient of m, every c nonzero.  Every id, given and returned,
        is one of :meth:`mono_id`; ``_mono_tuples`` reads its monomial back.

        When the last generator g of a is below the first generator h of b,
        a·b is a + b; when g = h, the two powers merge.  Neither is stored.
        Otherwise a single generator g is straightened from the front of
        b = h^e·rest: g·b = h·(g·h^(e-1)·rest) + [g, h]·h^(e-1)·rest, with
        the bracket D·[g, h] in place of [g, h].  A longer a = g·a' is
        multiplied as g·(a'·b); the scalings of a'·b and of g times each of
        its terms multiply to the one above.  Both are memoised under the
        one int ``a << ID_BITS | b``.
        """
        if not b:
            return (a, 1)
        if not a:
            return (b, 1)
        tuples = self._mono_tuples
        ta, tb = tuples[a], tuples[b]
        g, e = ta[-1]
        h, f = tb[0]
        if g < h:
            return (self.mono_id(ta + tb), 1)
        if g == h:
            return (self.mono_id(ta[:-1] + ((g, e + f),) + tb[1:]), 1)
        key = a << ID_BITS | b
        hit = self._mono_mono_cache.get(key)
        if hit is not None:
            return hit
        # ids 1..n are the single generators ((g, 1),)
        single = a <= len(self.names)
        if single:
            rest = self.mono_id(((h, f - 1),) + tb[1:] if f > 1 else tb[1:])
            front, inner = h, self.mul_monos(a, rest)
        else:
            front, e = ta[0]
            inner = self.mul_monos(
                self.mono_id(((front, e - 1),) + ta[1:] if e > 1 else ta[1:]), b)
        lead = front + 1  # the id of ((front, 1),)
        acc: Dict[int, int] = {}
        get = acc.get
        pairs = iter(inner)
        for m1, c1 in zip(pairs, pairs):
            image = iter(self.mul_monos(lead, m1))
            for m2, c2 in zip(image, image):
                acc[m2] = get(m2, 0) + c1 * c2
        if single:
            for k, ck in self._scaled_brackets[g, h]:
                image = iter(self.mul_monos(k + 1, rest))
                for m1, c1 in zip(image, image):
                    acc[m1] = get(m1, 0) + ck * c1
        result = tuple(chain.from_iterable(filter(_second, acc.items())))
        self._mono_mono_cache[key] = result
        return result


def mono_degree(mono: Monomial) -> int:
    return sum(map(_second, mono))


def mono_grade(mono: Monomial, grades: Sequence[int]) -> int:
    """``sum grades[g] * e`` over the factors g^e of a monomial."""
    return sum(grades[g] * e for g, e in mono)


def word_mono(word: Sequence[int]) -> Monomial:
    """Run-length encode a sorted generator word (validates ordering)."""
    out: List[Tuple[int, int]] = []
    for g in word:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        elif out and out[-1][0] > g:
            raise ValueError("word is not sorted")
        else:
            out.append((g, 1))
    return tuple(out)


class EnvElement:
    """An element of U(g) in PBW normal form over an :class:`OrderedBasis`.

    ``terms`` maps normal-ordered monomials to nonzero ParamPoly coefficients.
    """

    __slots__ = ("basis", "ring", "terms")

    def __init__(self, basis: OrderedBasis, ring: ParamRing, terms: Dict[Monomial, ParamPoly]):
        self.basis = basis
        self.ring = ring
        self.terms = terms

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(basis: OrderedBasis, ring: ParamRing) -> "EnvElement":
        return EnvElement(basis, ring, {})

    @staticmethod
    def scalar(basis: OrderedBasis, poly: ParamPoly) -> "EnvElement":
        if poly.is_zero():
            return EnvElement(basis, poly.ring, {})
        return EnvElement(basis, poly.ring, {(): poly})

    @staticmethod
    def generator(basis: OrderedBasis, ring: ParamRing, index: int) -> "EnvElement":
        return EnvElement(basis, ring, {((index, 1),): ring.one()})

    @staticmethod
    def from_gl_matrix(basis: OrderedBasis, ring: ParamRing, mat: Matrix) -> "EnvElement":
        """The degree-one element with the given ambient gl_N matrix."""
        coords = basis.expand_matrix(mat)
        terms = {((i, 1),): ring.const(c) for i, c in enumerate(coords) if c != 0}
        return EnvElement(basis, ring, terms)

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    # -- arithmetic ---------------------------------------------------------------

    def _check_compatible(self, other: "EnvElement") -> None:
        if self.basis is not other.basis:
            raise ValueError("elements over different bases; convert first")
        if self.ring != other.ring:
            raise ValueError("elements over different coefficient rings")

    def _combine(self, other: "EnvElement", sign: int) -> "EnvElement":
        """``self + sign * other`` for ``sign`` 1 or -1, term by term."""
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for m, p in other.terms.items():
            q = out.get(m)
            if q is None:
                q = p if sign > 0 else -p
            else:
                q = q + p if sign > 0 else q - p
            if q.is_zero():
                out.pop(m, None)
            else:
                out[m] = q
        return EnvElement(self.basis, self.ring, out)

    def __add__(self, other: "EnvElement") -> "EnvElement":
        return self._combine(other, 1)

    def __neg__(self) -> "EnvElement":
        return EnvElement(self.basis, self.ring, {m: -p for m, p in self.terms.items()})

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self._combine(other, -1)

    def scale(self, factor) -> "EnvElement":
        """Multiply by a central coefficient (ParamPoly / Fraction / int)."""
        if isinstance(factor, ParamPoly):
            if factor.ring != self.ring:
                raise ValueError("coefficient from a different ring")
            if factor.is_zero():
                return EnvElement.zero(self.basis, self.ring)
            out = {}
            for m, p in self.terms.items():
                q = p * factor
                if not q.is_zero():
                    out[m] = q
            return EnvElement(self.basis, self.ring, out)
        c = as_fraction(factor)
        if c == 0:
            return EnvElement.zero(self.basis, self.ring)
        return EnvElement(self.basis, self.ring, {m: p * c for m, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, EnvElement):
            return sum_products((self,), (other,))
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other: "EnvElement") -> "EnvElement":
        return self * other - other * self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvElement):
            return NotImplemented
        return (
            self.basis is other.basis
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("EnvElement is not hashable")

    # -- presentation ---------------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, ParamPoly]]:
        return sorted(self.terms.items(), key=lambda kv: (mono_degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.basis.names
        chunks = []
        for mono, poly in self.sorted_terms():
            word = "*".join(
                names[g] if e == 1 else f"{names[g]}^{e}" for g, e in mono
            )
            coeff = str(poly)
            if word:
                chunk = word if coeff == "1" else f"({coeff})*{word}"
            else:
                chunk = f"({coeff})"
            chunks.append(chunk)
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"EnvElement[{self.basis.basis_id}]({self})"

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self, texts: Optional[Dict[ParamPoly, str]] = None) -> dict:
        """The element as JSON data; ``texts`` holds the printed form of
        each coefficient already formatted, so that elements written
        together format each distinct coefficient once."""
        if texts is None:
            texts = {}
        terms = []
        for m, p in self.sorted_terms():
            text = texts.get(p)
            if text is None:
                text = texts[p] = str(p)
            terms.append({"coeff": text, "monomial": m})
        return {"basisId": self.basis.basis_id, "terms": terms}

    @staticmethod
    def from_json_dict(data: dict, basis: OrderedBasis, ring: ParamRing) -> "EnvElement":
        """The element of :meth:`to_json_dict`; raises ``ValueError`` unless
        ``data`` is a dict, every coefficient a string, and every monomial
        normal-ordered over ``basis``: int indices in ``range(len(basis))``,
        strictly increasing, and int exponents >= 1.  A monomial may be a
        list of ``[index, exponent]`` lists or a tuple of pairs.
        """
        if not isinstance(data, dict):
            raise ValueError(f"an element must be an object, got {data!r}")
        if data.get("basisId") != basis.basis_id:
            raise ValueError(
                f"element was serialised over basis {data.get('basisId')!r}, "
                f"not {basis.basis_id!r}"
            )
        terms: Dict[Monomial, ParamPoly] = {}
        for item in data["terms"]:
            mono = tuple((g, e) for g, e in item["monomial"])
            previous = -1
            for g, e in mono:
                # bool is an int subclass and float an int lookalike: both refused
                if type(g) is not int or not previous < g < len(basis):
                    raise ValueError(
                        f"monomial {item['monomial']}: generator indices must "
                        f"be increasing ints below {len(basis)}")
                if type(e) is not int or e < 1:
                    raise ValueError(f"monomial {item['monomial']}: exponents "
                                     f"must be ints >= 1")
                previous = g
            coeff = item["coeff"]
            if not isinstance(coeff, str):
                raise ValueError(f"coefficient {coeff!r} must be a string")
            poly = poly_from_string_ring(ring, coeff)
            if not poly.is_zero():
                terms[mono] = terms.get(mono, ring.zero()) + poly
        return EnvElement(basis, ring, {m: p for m, p in terms.items() if not p.is_zero()})


def _numerators(basis: OrderedBasis, elems: Sequence[EnvElement],
                grades: Optional[Sequence[int]] = None
                ) -> Tuple[int, List[List[Tuple[int, int, Numerators, int]]]]:
    """One common denominator q of every coefficient, and the int numerators.

    Each element becomes a list of ``(monomial id, degree, {exponents:
    q*c}, grade)``, the grade 0 without ``grades``.  q is the lcm of the
    coefficients' denominators; a coefficient already over q lends its own
    numerators, which are never mutated.
    """
    q = lcm(*(poly.denominator for x in elems for poly in x.terms.values()))
    ids, degrees = basis.mono_id, basis._mono_degrees
    return q, [[(i, degrees[i], _over(poly, q),
                 0 if grades is None else mono_grade(m, grades))
                for m, poly in x.terms.items() for i in (ids(m),)]
               for x in elems]


def _accumulate(out: Flat, coeff: Numerators, image: Tuple[int, ...]) -> None:
    """Add ``k * c`` to ``out[e][m]`` for every ``e: k`` of ``coeff`` and
    every pair ``m, c`` of the flat ``image``."""
    for e, k in coeff.items():
        pairs = iter(image)
        flat = out.get(e)
        if flat is None:
            out[e] = {m: k * c for m, c in zip(pairs, pairs)}
        else:
            get = flat.get
            for m, c in zip(pairs, pairs):
                flat[m] = get(m, 0) + k * c


def _finish(basis: OrderedBasis, ring: ParamRing, out: Flat,
            denominator: int, top: int) -> EnvElement:
    """Divide the numerators at m by ``denominator * D^(top - deg m)``.

    The nonzero numerators of ``out`` are gathered per monomial id, and
    each coefficient keeps its ints and is reduced by one gcd; a monomial
    whose numerators all cancel gets no term.  The ids turn back into
    tuples here, where the element is built.
    """
    d = basis.scale
    dens = [denominator * d ** (top - i) for i in range(top + 1)]
    gathered: Dict[int, Numerators] = {}
    for e, flat in out.items():
        for m, k in flat.items():
            if k:
                nums = gathered.get(m)
                if nums is None:
                    gathered[m] = {e: k}
                else:
                    nums[e] = k
    tuples, degrees = basis._mono_tuples, basis._mono_degrees
    return EnvElement(basis, ring, {tuples[m]: _reduced(ring, nums, dens[degrees[m]])
                                    for m, nums in gathered.items()})


def sum_products(left: Sequence[EnvElement], right: Sequence[EnvElement]
                 ) -> EnvElement:
    """``sum_k left[k] * right[k]``: :func:`sum_products_column` with one
    row.

    Every factor lives over the basis and ring of ``left[0]``; each product
    keeps its left factor on the left.
    """
    return sum_products_column((left,), right)[0]


def sum_products_column(rows: Sequence[Sequence[EnvElement]],
                        column: Sequence[EnvElement],
                        grades: Optional[Sequence[int]] = None,
                        budget: Optional[int] = None) -> List[EnvElement]:
    """``sum_k row[k] * column[k]`` for every row: a matrix times a column.

    The column is converted to int numerators once, not once per row.  With
    ql, qr the common denominators of a row's and the column's coefficients
    and T the largest degree of a product, every term is accumulated as an
    int numerator over ql·qr·D^(T - deg m): the product of degree
    N = deg a + deg b is scaled by D^(T - N) on top of the D^(N - deg m)
    that :meth:`OrderedBasis.mul_monos` stores.

    With ``grades`` (one int per basis index) and ``budget``, a pair of
    monomials (a, b) is never multiplied when ``mono_grade(a) +
    mono_grade(b) > budget``; each term carries its grade, so the test is
    one sum per pair.  Without a budget every pair is multiplied.
    """
    first = rows[0][0]
    for operand in (*rows, column):
        for x in operand:
            first._check_compatible(x)
    basis = first.basis
    budget = inf if budget is None else budget
    qr, rights = _numerators(basis, column, grades)
    out_column = []
    for row in rows:
        ql, lefts = _numerators(basis, row, grades)
        top = max((max(t[1] for t in xs) + max(t[1] for t in ys)
                   for xs, ys in zip(lefts, rights) if xs and ys),
                  default=0)
        powers = [basis.scale ** i for i in range(top + 1)]
        out: Flat = {}
        for xs, ys in zip(lefts, rights, strict=True):
            for ma, da, pa, ga in xs:
                for mb, db, pb, gb in ys:
                    if ga + gb > budget:
                        continue
                    shift = powers[top - da - db]
                    cab: Numerators = {}
                    for ea, ka in pa.items():
                        for eb, kb in pb.items():
                            e = tuple(map(add, ea, eb))
                            cab[e] = cab.get(e, 0) + ka * kb * shift
                    _accumulate(out, cab, basis.mul_monos(ma, mb))
        out_column.append(_finish(basis, first.ring, out, ql * qr, top))
    return out_column


def change_basis(elem: EnvElement, target: OrderedBasis,
                 character: Mapping[int, ParamPoly]) -> EnvElement:
    """Re-express an element over another closed basis of the same span,
    in the induced module U(g)/U(g)(k - chi) of ``character``.

    Every source generator's ambient matrix is expanded over ``target``, and
    a source monomial maps to the product of those images, multiplied in
    from the left by :func:`sum_products` (so through
    :meth:`OrderedBasis.mul_monos`).  The monomials that lead with the same
    generator share that factor: Horner's rule over the words, one
    :func:`sum_products` per distinct prefix, after which :func:`_peel`
    evaluates each k-tail through ``character``.  That is exact because
    U(g)(k - chi) is a left ideal and every factor multiplies from the left;
    ``character`` keys the trailing zone of ``target``, and ``{}`` gives
    the plain conversion.  :func:`~huaops.reduce.reduce_iwasawa` reduces
    every element over another basis this way, and ``{}`` followed by one
    peel is its oracle, as :func:`naive_normal_order` is that of the
    straightening.
    """
    if elem.basis.ambient != target.ambient:
        raise ValueError("bases live in different ambient gl_N")
    ring = elem.ring
    gens = [EnvElement.from_gl_matrix(target, ring, mat)
            for mat in elem.basis.matrices]
    one = EnvElement.scalar(target, ring.one())

    def convert(terms: Mapping[Monomial, ParamPoly]) -> EnvElement:
        tails: Dict[int, Dict[Monomial, ParamPoly]] = {}
        for mono, c in terms.items():
            if mono:
                g, e = mono[0]
                rest = ((g, e - 1),) + mono[1:] if e > 1 else mono[1:]
                tails.setdefault(g, {})[rest] = c
        constant = EnvElement.scalar(target, terms.get((), ring.zero()))
        if not tails:
            return constant
        heads = [constant] + [gens[g] for g in tails]
        converted = [one] + [convert(rests) for rests in tails.values()]
        return _peel(sum_products(heads, converted), character)

    return convert(elem.terms)


def _peel(elem: EnvElement, values: Mapping[int, ParamPoly]) -> EnvElement:
    """Evaluate the generators of ``values`` in every monomial, keep the rest.

    ``values`` covers the trailing zones of the basis, so each monomial is a
    kept prefix times a tail, and peeling the rightmost factor of a
    normal-ordered word leaves a normal-ordered word: the tail evaluates
    multiplicatively, one relation ``X = value(X)`` per factor (the k-tail
    through a k-character, or the a|n tail on a highest-weight vector).
    Partial a-values are exact too, as U(a) is commutative
    (:func:`~huaops.reduce.reduce_iwasawa`).  A value of 0 drops every
    monomial that holds its generator, so a zone given the value 0
    throughout is dropped whole, wherever it lies (the n-zone of the
    reduction and of the highest-weight evaluation).  Each power of a
    value is built once per call, and the values landing on one prefix are
    summed once, over their lcm denominator.
    """
    parts: Dict[Monomial, List[ParamPoly]] = {}
    powers: Dict[Tuple[int, int], ParamPoly] = {}
    for mono, coeff in elem.terms.items():
        prefix = []
        value = coeff
        for g, e in mono:
            k = values.get(g)
            if k is None:
                prefix.append((g, e))
            elif k.is_zero():
                value = k
                break
            else:
                power = powers.get((g, e))
                if power is None:
                    power = powers[g, e] = k ** e
                value = value * power
        if not value.is_zero():
            parts.setdefault(tuple(prefix), []).append(value)
    out: Dict[Monomial, ParamPoly] = {}
    for key, found in parts.items():
        total = found[0] if len(found) == 1 else _sum(elem.ring, found)
        if not total.is_zero():
            out[key] = total
    return EnvElement(elem.basis, elem.ring, out)


def naive_normal_order(
    basis: OrderedBasis, word: Sequence[int]
) -> Dict[Monomial, Fraction]:
    """Straighten a generator word by single adjacent swaps (oracle only).

    Deliberately unoptimised and structurally different from the engine:
    finds the first adjacent inversion, applies x·y = y·x + [x, y] and
    recurses on explicit words.  Exponential; use only on short words.
    """
    word = tuple(word)
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            total = dict(naive_normal_order(basis, swapped))
            for k, ck in basis.bracket(word[i], word[i + 1]):
                sub = word[:i] + (k,) + word[i + 2 :]
                for m, c in naive_normal_order(basis, sub).items():
                    q = total.get(m, _ZERO) + ck * c
                    if q == 0:
                        total.pop(m, None)
                    else:
                        total[m] = q
            return total
    return {word_mono(word): _ONE}
