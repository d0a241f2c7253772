"""Exact multivariate polynomial arithmetic over the rationals.

This is the coefficient domain for every symbolic computation in the
package: highest weights, inducing characters and spectral parameters stay
as named symbols all the way through, so identities are established for
*all* parameter values at once, not on a sample grid.

A polynomial is stored as a dict mapping dense exponent tuples to nonzero
``fractions.Fraction`` coefficients.  For the ring with symbols
``("lambda", "s", "t")`` the polynomial ``lambda^2 - 2*lambda + 1/2*s*t``
is ``{(2, 0, 0): 1, (1, 0, 0): -2, (0, 1, 1): 1/2}``.

Terms are kept in no particular order internally; iteration and printing
use deterministic orders (graded lexicographic for iteration, plain
lexicographic descending for printing).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, ...]
ScalarLike = Union[int, Fraction]


def as_fraction(value: ScalarLike) -> Fraction:
    """Coerce an int/Fraction (or string like "3/4") to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
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
        c = as_fraction(value)
        if c == 0:
            return ParamPoly(self, {})
        return ParamPoly(self, {(0,) * len(self.symbols): c})

    def var(self, symbol: str) -> "ParamPoly":
        exp = [0] * len(self.symbols)
        exp[self.index(symbol)] = 1
        return ParamPoly(self, {tuple(exp): Fraction(1)})

    def poly(self, terms: Mapping[Exponents, ScalarLike]) -> "ParamPoly":
        clean: Dict[Exponents, Fraction] = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != len(self.symbols):
                raise ValueError(f"exponent tuple {exp} has wrong length")
            cf = as_fraction(c)
            if cf != 0:
                clean[exp] = cf
        return ParamPoly(self, clean)


def _grlex_key(exp: Exponents) -> Tuple[int, Exponents]:
    return (sum(exp), exp)


class ParamPoly:
    """Immutable-by-convention sparse polynomial over a :class:`ParamRing`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ParamRing, terms: Dict[Exponents, Fraction]):
        self.ring = ring
        self.terms = terms

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other: object) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring.symbols} vs {other.ring.symbols}"
                )
            return other
        return self.ring.const(as_fraction(other))  # may raise TypeError

    def _combine(self, other: object, sign: int) -> "ParamPoly":
        """``self + sign * other`` for ``sign`` 1 or -1, term by term."""
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms and sign > 0:
            return o
        out = dict(self.terms)
        for exp, c in o.terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = c if sign > 0 else -c
            else:
                acc = acc + c if sign > 0 else acc - c
                if acc == 0:
                    del out[exp]
                else:
                    out[exp] = acc
        return ParamPoly(self.ring, out)

    def __add__(self, other: object) -> "ParamPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.ring, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: object) -> "ParamPoly":
        return self._combine(other, -1)

    def __rsub__(self, other: object) -> "ParamPoly":
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return o._combine(self, -1)

    def __mul__(self, other: object) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return self.ring.zero()
            if c == 1:
                return self
            return ParamPoly(self.ring, {e: k * c for e, k in self.terms.items()})
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.terms or not o.terms:
            return self.ring.zero()
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(exp)
                if acc is None:
                    out[exp] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc == 0:
                        del out[exp]
                    else:
                        out[exp] = acc
        return ParamPoly(self.ring, out)

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
            return self * (Fraction(1) / c)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

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
        out: Dict[Exponents, Fraction] = {}
        for exp, c in self.terms.items():
            residual = tuple(0 if values[i] is not None else e
                             for i, e in enumerate(exp))
            factor = ParamPoly(self.ring, {residual: c})
            for value, e in zip(values, exp):
                if e and value is not None:
                    factor = factor * value ** e
            for key, k in factor.terms.items():
                out[key] = out.get(key, 0) + k
        return ParamPoly(self.ring, {e: c for e, c in out.items() if c != 0})

    def eval_rational(self, bindings: Mapping[str, ScalarLike]) -> Fraction:
        """Evaluate with every symbol bound to a rational; returns a Fraction."""
        vals = []
        for sym in self.ring.symbols:
            if sym not in bindings:
                raise KeyError(f"symbol {sym!r} not bound")
            vals.append(as_fraction(bindings[sym]))
        total = Fraction(0)
        for exp, c in self.terms.items():
            prod = c
            for v, e in zip(vals, exp):
                if e:
                    prod *= v ** e
            total += prod
        return total

    def rename(self, target: ParamRing) -> "ParamPoly":
        """Map this polynomial into ``target`` by symbol name.

        Lifts into a ring with more symbols; lowers into one with fewer,
        provided the missing symbols do not occur.
        """
        positions = [target._index.get(sym) for sym in self.ring.symbols]
        out: Dict[Exponents, Fraction] = {}
        width = len(target.symbols)
        for exp, c in self.terms.items():
            new = [0] * width
            for sym, pos, e in zip(self.ring.symbols, positions, exp):
                if not e:
                    continue
                if pos is None:
                    raise KeyError(f"symbol {sym!r} not in ring {target.symbols}")
                new[pos] = e
            out[tuple(new)] = c
        return ParamPoly(target, out)

    # -- deterministic orders -----------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (canonical iteration)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Printing order: plain lexicographic, descending, so that e.g.
        # "lambda^2 - 2*lambda - 1/4*s^2 + 1/2*s*t - 1/4*t^2" reads with all
        # lambda-terms first.
        pieces = []
        for exp, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(self.ring.symbols, exp)
                if e
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def poly_from_string_ring(ring: ParamRing, text: str) -> ParamPoly:
    """Parse the canonical string format back into a polynomial.

    Accepts exactly the shapes produced by ``__str__``: terms joined by
    " + " / " - ", each term ``coef*sym^e*...`` with optional coefficient.
    """
    text = text.strip()
    if text == "0":
        return ring.zero()
    # Normalise leading sign and split on the spaced separators.
    out = ring.zero()
    tokens = text.replace(" - ", " | -").replace(" + ", " | +").split(" | ")
    for tok in tokens:
        tok = tok.strip()
        sign = Fraction(1)
        if tok.startswith("-"):
            sign = Fraction(-1)
            tok = tok[1:].strip()
        elif tok.startswith("+"):
            tok = tok[1:].strip()
        coeff = Fraction(1)
        exp = [0] * len(ring.symbols)
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {tok!r}")
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                if "^" in factor:
                    sym, _, p = factor.partition("^")
                    exp[ring.index(sym)] += int(p)
                else:
                    exp[ring.index(factor)] += 1
        out = out + ParamPoly(ring, {tuple(exp): sign * coeff})
    return out
