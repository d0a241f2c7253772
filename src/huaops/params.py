"""Exact multivariate polynomial arithmetic over the rationals.

This is the coefficient domain for every symbolic computation in the
package: highest weights, inducing characters and spectral parameters stay
as named symbols all the way through, so identities are established for
*all* parameter values at once, not on a sample grid.

A polynomial is stored as int numerators over one denominator: a dict
mapping dense exponent tuples to nonzero ints, and one positive int
``denominator``.  For the ring with symbols ``("lambda", "s", "t")`` the
polynomial ``lambda^2 - 2*lambda + 1/2*s*t`` is
``{(2, 0, 0): 2, (1, 0, 0): -4, (0, 1, 1): 1}`` over 2.  The denominator
shares no factor with all the numerators at once, and the zero polynomial
has no terms and denominator 1, so the form is unique: equality and hashing
compare the fields.  Arithmetic builds no ``Fraction``.  A sum rescales its
operands to the lcm of their denominators, a product multiplies numerators
and denominators, and each result is reduced by one gcd.

Terms are kept in no particular order internally; printing uses plain
lexicographic order, descending.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
ScalarLike = Union[int, Fraction]


def as_fraction(value: ScalarLike) -> Fraction:
    """Coerce an int/Fraction, or a string like "3/4" or "-3/4" (one optional
    "-", then a :func:`parse_rational` literal), to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        negative = value.startswith("-")
        num, den = parse_rational(value[negative:])
        return Fraction(-num if negative else num, den)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ParamRing:
    """An ordered tuple of symbol names, fixing variable order for all polys.

    Two rings are interchangeable iff their symbol tuples are equal.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str] = ()):
        syms = tuple(symbols)
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols in ring: {syms}")
        for s in syms:
            if not s or not all(c.isalnum() or c == "_" for c in s):
                raise ValueError(f"bad symbol name: {s!r}")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamRing) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"ParamRing{self.symbols!r}"

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in ring {self.symbols}") from None

    def zero(self) -> "ParamPoly":
        return ParamPoly(self, {})

    def one(self) -> "ParamPoly":
        return self.const(1)

    def const(self, value: ScalarLike) -> "ParamPoly":
        if isinstance(value, int):
            num, den = value, 1
        else:
            c = as_fraction(value)
            num, den = c.numerator, c.denominator
        if num == 0:
            return ParamPoly(self, {})
        return ParamPoly(self, {(0,) * len(self.symbols): num}, den)

    def var(self, symbol: str) -> "ParamPoly":
        exp = [0] * len(self.symbols)
        exp[self.index(symbol)] = 1
        return ParamPoly(self, {tuple(exp): 1})

    def poly(self, terms: Mapping[Exponents, ScalarLike]) -> "ParamPoly":
        clean: Dict[Exponents, Fraction] = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != len(self.symbols):
                raise ValueError(f"exponent tuple {exp} has wrong length")
            cf = as_fraction(c)
            if cf != 0:
                clean[exp] = cf
        den = lcm(*(c.denominator for c in clean.values()))
        return ParamPoly(self, {e: c.numerator * (den // c.denominator)
                                for e, c in clean.items()}, den)


def _reduced(ring: ParamRing, numerators: Dict[Exponents, int],
             denominator: int) -> "ParamPoly":
    """``numerators / denominator`` in canonical form, with one gcd.

    ``numerators`` holds no zero and ``denominator`` is positive.
    """
    if not numerators:
        return ParamPoly(ring, {})
    if denominator != 1:
        g = gcd(denominator, *numerators.values())
        if g != 1:
            numerators = {e: k // g for e, k in numerators.items()}
            denominator //= g
    return ParamPoly(ring, numerators, denominator)


def _over(poly: "ParamPoly", q: int) -> Dict[Exponents, int]:
    """The numerators of ``poly`` over q, a multiple of its denominator.

    A polynomial already over q lends its own dict: never mutate it.
    """
    if poly.denominator == q:
        return poly.numerators
    factor = q // poly.denominator
    return {e: k * factor for e, k in poly.numerators.items()}


def _sum(ring: ParamRing, polys: Sequence["ParamPoly"]) -> "ParamPoly":
    """The sum of ``polys``, accumulated over their lcm denominator."""
    den = lcm(*(p.denominator for p in polys))
    out: Dict[Exponents, int] = {}
    for p in polys:
        for e, k in _over(p, den).items():
            out[e] = out.get(e, 0) + k
    return _reduced(ring, {e: k for e, k in out.items() if k}, den)


class ParamPoly:
    """Sparse polynomial over a :class:`ParamRing`; never mutated.

    ``numerators`` and ``denominator`` must already be in the canonical form
    of the module docstring; :func:`_reduced` builds it.  One object is
    shared by many terms and elements (and its numerators dict lent to
    arithmetic, see :func:`_over`), so neither it nor its dict may ever be
    changed after it is built.
    """

    __slots__ = ("ring", "numerators", "denominator")

    def __init__(self, ring: ParamRing, numerators: Dict[Exponents, int],
                 denominator: int = 1):
        self.ring = ring
        self.numerators = numerators
        self.denominator = denominator

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return not any(map(any, self.numerators))

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.numerators:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return Fraction(next(iter(self.numerators.values())), self.denominator)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.numerators:
            return -1
        return max(map(sum, self.numerators))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other: object) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring.symbols} vs {other.ring.symbols}"
                )
            return other
        return self.ring.const(other)  # may raise TypeError

    def _combine(self, other: object, sign: int) -> "ParamPoly":
        """``self + sign * other`` for ``sign`` 1 or -1, term by term."""
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not o.numerators:
            return self
        if not self.numerators and sign > 0:
            return o
        da, db = self.denominator, o.denominator
        if da == db:
            den, out, factor = da, dict(self.numerators), sign
        else:
            den = lcm(da, db)
            fa = den // da
            out = {e: k * fa for e, k in self.numerators.items()}
            factor = sign * (den // db)
        for exp, k in o.numerators.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = k * factor
            else:
                acc += k * factor
                if acc:
                    out[exp] = acc
                else:
                    del out[exp]
        return _reduced(self.ring, out, den)

    def __add__(self, other: object) -> "ParamPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.ring, {e: -k for e, k in self.numerators.items()},
                         self.denominator)

    def __sub__(self, other: object) -> "ParamPoly":
        return self._combine(other, -1)

    def __rsub__(self, other: object) -> "ParamPoly":
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return o._combine(self, -1)

    def _scaled(self, num: int, den: int) -> "ParamPoly":
        """``self * num / den`` for ints with ``den`` positive."""
        if num == 0:
            return self.ring.zero()
        if num == den == 1:
            return self
        return _reduced(self.ring,
                        {e: k * num for e, k in self.numerators.items()},
                        self.denominator * den)

    def __mul__(self, other: object) -> "ParamPoly":
        if isinstance(other, int):
            return self._scaled(other, 1)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.numerators or not o.numerators:
            return self.ring.zero()
        out: Dict[Exponents, int] = {}
        for e1, k1 in self.numerators.items():
            for e2, k2 in o.numerators.items():
                exp = tuple(map(add, e1, e2))
                acc = out.get(exp)
                out[exp] = k1 * k2 if acc is None else acc + k1 * k2
        return _reduced(self.ring, {e: k for e, k in out.items() if k},
                        self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other: object) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("polynomial divided by zero")
            if c < 0:
                return self._scaled(-c.denominator, -c.numerator)
            return self._scaled(c.denominator, c.numerator)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (self.ring == other.ring
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self) -> int:
        return hash((self.ring, self.denominator,
                     frozenset(self.numerators.items())))

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, bindings: Mapping[str, Union["ParamPoly", ScalarLike]]) -> "ParamPoly":
        """Substitute values (polys or rationals of the same ring) for symbols.

        Unbound symbols stay symbolic.  The result lives in the same ring.
        """
        values = []
        for sym in self.ring.symbols:
            v = bindings.get(sym)
            if v is not None and not isinstance(v, ParamPoly):
                v = self.ring.const(as_fraction(v))
            elif v is not None and v.ring != self.ring:
                raise ValueError("substitution value from a different ring")
            values.append(v)
        parts = []
        for exp, k in self.numerators.items():
            residual = tuple(0 if values[i] is not None else e
                             for i, e in enumerate(exp))
            factor = ParamPoly(self.ring, {residual: k})
            for value, e in zip(values, exp):
                if e and value is not None:
                    factor = factor * value ** e
            parts.append(factor)
        return _sum(self.ring, parts)._scaled(1, self.denominator)

    def eval_rational(self, bindings: Mapping[str, ScalarLike]) -> Fraction:
        """Evaluate with every symbol bound to a rational; returns a Fraction."""
        vals = []
        for sym in self.ring.symbols:
            if sym not in bindings:
                raise KeyError(f"symbol {sym!r} not bound")
            vals.append(as_fraction(bindings[sym]))
        total = Fraction(0)
        for exp, k in self.numerators.items():
            prod = Fraction(k)
            for v, e in zip(vals, exp):
                if e:
                    prod *= v ** e
            total += prod
        return total / self.denominator

    def rename(self, target: ParamRing) -> "ParamPoly":
        """Map this polynomial into ``target`` by symbol name.

        Lifts into a ring with more symbols; lowers into one with fewer,
        provided the missing symbols do not occur.
        """
        positions = [target._index.get(sym) for sym in self.ring.symbols]
        out: Dict[Exponents, int] = {}
        width = len(target.symbols)
        for exp, k in self.numerators.items():
            new = [0] * width
            for sym, pos, e in zip(self.ring.symbols, positions, exp):
                if not e:
                    continue
                if pos is None:
                    raise KeyError(f"symbol {sym!r} not in ring {target.symbols}")
                new[pos] = e
            out[tuple(new)] = k
        return ParamPoly(target, out, self.denominator)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        # Printing order: plain lexicographic, descending, so that e.g.
        # "lambda^2 - 2*lambda - 1/4*s^2 + 1/2*s*t - 1/4*t^2" reads with all
        # lambda-terms first.  Each coefficient prints in lowest terms.
        d = self.denominator
        pieces = []
        for exp, k in sorted(self.numerators.items(), reverse=True):
            mono = "*".join(
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(self.ring.symbols, exp)
                if e
            )
            g = gcd(k, d)
            num, den = abs(k) // g, d // g
            mag = str(num) if den == 1 else f"{num}/{den}"
            if not mono:
                body = mag
            elif num == den == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if k < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Tuple[int, int]:
    """Numerator and positive denominator of an unsigned literal like "3/4".

    ASCII digits, then optionally "/" and ASCII digits: the shape that
    ``ParamPoly.__str__`` writes.  Anything else raises ``ValueError``.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a rational literal like 3 or 3/4")
    num, den = match.groups()
    if den is not None and not int(den):
        raise ValueError(f"zero denominator in coefficient {text!r}")
    return int(num), int(den or 1)


def poly_from_string_ring(ring: ParamRing, text: str) -> ParamPoly:
    """Parse the canonical string format back into a polynomial.

    Accepts exactly the shapes produced by ``__str__``: terms joined by
    " + " / " - ", each term ``coef*sym^e*...`` with optional coefficient
    and each exponent ``e`` a decimal integer >= 1 (``ValueError``
    otherwise).
    The terms are summed over the lcm of their denominators.
    """
    text = text.strip()
    if text == "0":
        return ring.zero()
    # Normalise leading sign and split on the spaced separators.
    terms = []
    tokens = text.replace(" - ", " | -").replace(" + ", " | +").split(" | ")
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:].strip()
        elif tok.startswith("+"):
            tok = tok[1:].strip()
        num, den = sign, 1
        exp = [0] * len(ring.symbols)
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {tok!r}")
            if factor[0].isdigit():
                n, d = parse_rational(factor)
                num, den = num * n, den * d
            else:
                if "^" in factor:
                    sym, _, p = factor.partition("^")
                    if not (p.isascii() and p.isdigit()) or int(p) < 1:
                        raise ValueError(f"exponent {p!r} in term {tok!r} "
                                         f"is not an integer >= 1")
                    exp[ring.index(sym)] += int(p)
                else:
                    exp[ring.index(factor)] += 1
        terms.append((tuple(exp), num, den))
    common = lcm(*(den for _e, _n, den in terms))
    out: Dict[Exponents, int] = {}
    for exp, num, den in terms:
        out[exp] = out.get(exp, 0) + num * (common // den)
    return _reduced(ring, {e: k for e, k in out.items() if k}, common)
