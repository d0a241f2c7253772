"""Exact, pole-aware Gamma products for spherical e- and c-functions.

Every Gamma factor keeps its argument as an exact affine polynomial in the
spectral coordinates ``lambda_1 .. lambda_r`` (and the line-bundle level
``ell``), so zeros of the reciprocal factors and poles of the direct factors
are certified by integer arithmetic on rationals, never by floating-point
underflow.  Log-Gamma floats enter only when a defined value is displayed:
``logValue`` is the log of its absolute value, and its sign is read off the
exact arguments, as Gamma(x) < 0 exactly when x < 0 and floor(x) is odd.
A negative argument whose float is an integer, a pole of ``math.lgamma``
although the exact argument is none, goes through the reflection formula
with its exact fractional part.

The plain product pairs, for each indivisible positive restricted root, the
two reciprocal factors ``Gamma(lambda_a/4 + m_a/4 + 1/2)`` and
``Gamma(lambda_a/4 + m_a/4 + m_2a/2)``; the c-function multiplies in
``2^(-lambda_a/2) Gamma(lambda_a/2)`` per root and a constant fixed by
``c(rho) = 1``.  The line-bundle variant replaces the factors of the longest
root-length class by the ``ell``-dependent pair
``Gamma(lambda_a/2 + m_(a/2)/4 + (1 +- ell)/2)`` and keeps the plain factors
on the second class; root systems with a third length class are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .liedata import RestrictedRoot, RestrictedRootSystem
from .params import ParamPoly, ParamRing, ScalarLike, as_fraction

__all__ = [
    "GammaFactor",
    "GammaProduct",
    "NUMERATOR",
    "DENOMINATOR",
    "root_label",
    "spectral_ring",
    "e_product",
    "c_product",
    "line_bundle_products",
    "e_function",
    "c_function",
    "e_c_line_bundle",
    "dominant_grid_report",
]

NUMERATOR = 1
DENOMINATOR = -1

#: Relative tolerance for floating-point re-evaluation checks.
FLOAT_TOL = 1e-12


def root_label(root: RestrictedRoot) -> str:
    """Readable name of a restricted root, e.g. ``e1-e2`` or ``2e1``."""
    parts: List[str] = []
    for i, c in enumerate(root.coords, start=1):
        if c == 0:
            continue
        mag = abs(c)
        stem = f"e{i}" if mag == 1 else f"{mag}e{i}"
        if not parts:
            parts.append(stem if c > 0 else f"-{stem}")
        else:
            parts.append(f"+{stem}" if c > 0 else f"-{stem}")
    return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class GammaFactor:
    """One Gamma factor: ``sign`` +1 in the numerator, -1 for a reciprocal."""

    sign: int
    argument: ParamPoly
    root: str

    def __post_init__(self) -> None:
        if self.sign not in (NUMERATOR, DENOMINATOR):
            raise ValueError("sign must be +1 (numerator) or -1 (denominator)")
        if self.argument.degree() > 1:
            raise ValueError("Gamma arguments must be affine in the parameters")


@dataclass(frozen=True)
class GammaProduct:
    """A product of Gamma factors times ``2`` raised to an affine exponent.

    Evaluation at rational parameter values is exact on the pole/zero logic:
    a reciprocal factor whose argument is a nonpositive integer contributes a
    certified zero, a numerator factor at a nonpositive integer a certified
    pole.  When neither occurs, the value is returned through log-Gamma,
    with the sign of the exact arguments.
    """

    ring: ParamRing
    factors: Tuple[GammaFactor, ...]
    log2_coeff: ParamPoly

    def __post_init__(self) -> None:
        if self.log2_coeff.degree() > 1:
            raise ValueError("the power-of-two exponent must be affine")
        for f in self.factors:
            if f.argument.ring != self.ring or self.log2_coeff.ring != self.ring:
                raise ValueError("all factors must share the product's ring")

    def evaluate(self, bindings: Mapping[str, ScalarLike], *,
                 reverse: bool = False) -> dict:
        """Evaluate at exact parameter values.

        Returns a dict with certified ``zeros`` and ``poles`` (root label and
        exact argument each), ``defined`` (no numerator pole), ``zero`` (some
        reciprocal zero while defined), and, when the value is nonzero,
        ``logValue`` (the log of its absolute value), ``negative`` and
        ``value`` (``exp(logValue)``, negated if ``negative``; ``None`` past
        the float range).  ``reverse``
        reassociates the floating-point accumulation to witness numeric
        stability.
        """
        exact = {name: as_fraction(value) for name, value in bindings.items()}
        zeros: List[dict] = []
        poles: List[dict] = []
        evaluated: List[Tuple[int, Fraction, str]] = []
        for f in self.factors:
            arg = f.argument.eval_rational(exact)
            evaluated.append((f.sign, arg, f.root))
            if arg <= 0 and arg.denominator == 1:
                cert = {"root": f.root, "argument": str(arg)}
                (zeros if f.sign == DENOMINATOR else poles).append(cert)
        result = {
            "zeros": zeros,
            "poles": poles,
            "defined": not poles,
            "zero": bool(zeros) and not poles,
            "logValue": None,
            "negative": False,
            "value": None,
        }
        if poles:
            return result
        if zeros:
            result["value"] = 0.0
            return result
        two_exp = self.log2_coeff.eval_rational(exact)
        order = reversed(evaluated) if reverse else evaluated
        log_value = 0.0
        for sign, arg, _ in order:
            log_value += sign * _log_abs_gamma(arg)
        log_value += float(two_exp) * math.log(2.0)
        negative = sum(arg < 0 and math.floor(arg) % 2 == 1
                       for _, arg, _ in evaluated) % 2 == 1
        result["logValue"] = log_value
        result["negative"] = negative
        result["value"] = _signed_exp(log_value, negative)
        return result

    def factor_records(self) -> List[dict]:
        """Stable symbolic listing of the factors, for reports."""
        return [
            {
                "sign": "numerator" if f.sign == NUMERATOR else "denominator",
                "root": f.root,
                "argument": str(f.argument),
            }
            for f in self.factors
        ]


def _log_abs_gamma(x: Fraction) -> float:
    """``log|Gamma(x)|`` at a rational ``x`` that is not a pole.

    Where ``math.lgamma`` takes the float of ``x`` for a pole (``x < 0``
    past the floats' integer spacing), ``Gamma(x) Gamma(1 - x) =
    pi / sin(pi x)`` is read with the exact fractional part of ``x``.
    """
    try:
        return math.lgamma(float(x))
    except ValueError:
        fraction = x - math.floor(x)
        return (math.log(math.pi / math.sin(math.pi * float(fraction)))
                - math.lgamma(float(1 - x)))


def _signed_exp(log_value: float, negative: bool) -> Optional[float]:
    """``exp(log_value)``, negated if ``negative``: an underflow stays
    ``0.0``, never ``-0.0``, and a value past the float range is ``None``."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        return None
    return -value if negative and value else value


def _past_float_range(part: dict, log_value: Optional[float],
                      negative: bool) -> dict:
    """``part``, and where its ``value`` is a nonzero value that
    :func:`_signed_exp` left ``None``, the finite ``logValue`` and
    ``negative`` that ``part`` lacks added to it.  JSON has no infinity, so
    such a part says its value by its log and its sign; any other part is
    returned as it is."""
    if part["value"] is not None or log_value is None:
        return part
    return {"logValue": log_value, "negative": negative, **part}


def spectral_ring(rs: RestrictedRootSystem, *,
                  line_bundle: bool = False) -> ParamRing:
    """Coefficient ring in ``lambda_1..lambda_r`` (plus ``ell`` if asked)."""
    names = tuple(f"lambda_{i}" for i in range(1, rs.rank + 1))
    if line_bundle:
        names += ("ell",)
    return ParamRing(names)


def _lambda_alpha(ring: ParamRing, root: RestrictedRoot) -> ParamPoly:
    """``lambda_alpha = 2 <lambda, alpha> / <alpha, alpha>`` symbolically."""
    denom = root.squared_length()
    out = ring.zero()
    for i, c in enumerate(root.coords, start=1):
        if c:
            out = out + ring.var(f"lambda_{i}") * (2 * c / denom)
    return out


def _plain_factors(rs: RestrictedRootSystem, ring: ParamRing,
                   roots: Sequence[RestrictedRoot]) -> List[GammaFactor]:
    factors: List[GammaFactor] = []
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    for root in roots:
        label = root_label(root)
        la = _lambda_alpha(ring, root)
        base = la * quarter + Fraction(root.multiplicity, 4)
        factors.append(GammaFactor(DENOMINATOR, base + half, label))
        factors.append(GammaFactor(
            DENOMINATOR, base + Fraction(rs.double_multiplicity(root), 2),
            label))
    return factors


def e_product(rs: RestrictedRootSystem) -> GammaProduct:
    """Reciprocal-Gamma product over the indivisible positive roots."""
    ring = spectral_ring(rs)
    factors = _plain_factors(rs, ring, rs.indivisible_positive())
    return GammaProduct(ring, tuple(factors), ring.zero())


def c_product(rs: RestrictedRootSystem) -> GammaProduct:
    """Unnormalized c-function: e-product times ``2^(-l_a/2) Gamma(l_a/2)``."""
    base = e_product(rs)
    ring = base.ring
    factors = list(base.factors)
    log2 = ring.zero()
    half = Fraction(1, 2)
    for root in rs.indivisible_positive():
        la = _lambda_alpha(ring, root)
        factors.append(GammaFactor(NUMERATOR, la * half, root_label(root)))
        log2 = log2 - la * half
    return GammaProduct(ring, tuple(factors), log2)


def line_bundle_products(rs: RestrictedRootSystem
                         ) -> Tuple[GammaProduct, GammaProduct]:
    """The level-``ell`` e- and (unnormalized) c-products, over
    :func:`spectral_ring` with ``line_bundle=True``.

    The longest root-length class carries the ``ell``-dependent factor pair
    with the half-root multiplicity; the second class carries the plain
    factors.  A third length class is out of the product's scope and is
    rejected; a root system with no roots has empty products.
    """
    classes = rs.length_classes()
    if len(classes) > 2:
        raise ValueError(
            f"{rs.label} has {len(classes)} root-length classes; the "
            "line-bundle product is defined for at most two")
    ring = spectral_ring(rs, line_bundle=True)
    ell = ring.var("ell")
    half = Fraction(1, 2)

    longest, *rest = classes or [[]]
    e_factors: List[GammaFactor] = []
    for root in longest:
        label = root_label(root)
        base = (_lambda_alpha(ring, root) * half
                + Fraction(rs.half_multiplicity(root), 4) + half)
        e_factors.append(GammaFactor(DENOMINATOR, base + ell * half, label))
        e_factors.append(GammaFactor(DENOMINATOR, base - ell * half, label))
    e_factors += _plain_factors(rs, ring, sum(rest, []))
    c_extra: List[GammaFactor] = []
    log2 = ring.zero()
    for k, roots in enumerate(classes, start=1):
        for root in roots:
            scaled = _lambda_alpha(ring, root) / k
            c_extra.append(GammaFactor(NUMERATOR, scaled, root_label(root)))
            log2 = log2 - scaled
    e_prod = GammaProduct(ring, tuple(e_factors), ring.zero())
    c_prod = GammaProduct(ring, tuple(e_factors + c_extra), log2)
    return e_prod, c_prod


def _bindings(rs: RestrictedRootSystem, lam: Sequence[ScalarLike],
              ell: Optional[ScalarLike] = None) -> Dict[str, Fraction]:
    values = [as_fraction(v) for v in lam]
    if len(values) != rs.rank:
        raise ValueError(f"lambda must have {rs.rank} coordinates")
    out = {f"lambda_{i}": v for i, v in enumerate(values, start=1)}
    if ell is not None:
        out["ell"] = as_fraction(ell)
    return out


def _first_witness(certs: List[dict]) -> Optional[str]:
    return certs[0]["root"] if certs else None


def e_function(rs: RestrictedRootSystem, lam: Sequence[ScalarLike]) -> dict:
    """Evaluate the e-function at an exact spectral point.

    The result is zero exactly when some reciprocal Gamma argument is a
    nonpositive integer; the certificate names the offending root and
    argument.  Otherwise the value is reported as a float, with the exact
    factor records, its ``logValue`` and ``negative``; a value past the
    float range is ``None``.
    """
    product = e_product(rs)
    val = product.evaluate(_bindings(rs, lam))
    return {
        "rootSystem": rs.label,
        "lambda": [str(as_fraction(v)) for v in lam],
        "zero": val["zero"],
        "witnessRoot": _first_witness(val["zeros"]),
        "zeros": val["zeros"],
        "logValue": val["logValue"],
        "negative": val["negative"],
        "value": val["value"],
        "factors": product.factor_records(),
    }


def _normalize(product: GammaProduct,
               bindings: Mapping[str, Fraction]) -> float:
    ref = product.evaluate(bindings)
    if ref["logValue"] is None:
        raise ArithmeticError(
            "normalization point hits a Gamma zero or pole")
    return -ref["logValue"]


def _normalized(product: GammaProduct, rho: Mapping[str, Fraction],
                point: Mapping[str, Fraction], rho_key: str) -> dict:
    """``product`` at ``point``, times the constant that makes it 1 at
    ``rho``, with that constant and a re-evaluation at ``rho`` in reversed
    floating-point order (reported as ``rho_key``) as a stability check."""
    log_c = _normalize(product, rho)
    val = product.evaluate(point)
    value: Optional[float] = 0.0 if val["zero"] else None
    log_value = None
    if val["logValue"] is not None:  # defined and nonzero
        log_value = log_c + val["logValue"]
        value = _signed_exp(log_value, val["negative"])
    rho_again = product.evaluate(rho, reverse=True)
    reassociated = math.exp(log_c + rho_again["logValue"])
    drift = abs(reassociated - 1.0)
    return _past_float_range({
        "defined": val["defined"],
        "zero": val["zero"],
        "value": value,
        "C": math.exp(log_c),
        "zeros": val["zeros"],
        "poles": val["poles"],
        "normalization": {
            rho_key: 1.0,
            "reassociated": reassociated,
            "drift": drift,
            "stable": drift <= FLOAT_TOL,
        },
    }, log_value, val["negative"])


def c_function(rs: RestrictedRootSystem, lam: Sequence[ScalarLike]) -> dict:
    """Evaluate the c-function, normalized so that ``c(rho) = 1``.

    A numerator Gamma pole makes the value undefined (certified); a
    reciprocal zero gives an exact zero.  The report carries the
    normalization constant and a re-evaluation of ``c(rho)`` under a
    reassociated floating-point order as a stability check.
    """
    return {
        "rootSystem": rs.label,
        "lambda": [str(as_fraction(v)) for v in lam],
        **_normalized(c_product(rs), _bindings(rs, rs.half_sum()),
                      _bindings(rs, lam), "cRho"),
    }


def e_c_line_bundle(rs: RestrictedRootSystem, lam: Sequence[ScalarLike],
                    ell: ScalarLike) -> dict:
    """Evaluate the level-``ell`` e- and c-functions at an exact point.

    The constant is fixed once per root system by ``c(rho, 0) = 1`` and the
    same constant serves every level.  The zero sets of the level-0 and plain
    e-functions at the given point are recorded for comparison, not asserted
    equal.
    """
    e_prod, c_prod = line_bundle_products(rs)
    point = _bindings(rs, lam, ell)
    e_val = e_prod.evaluate(point)
    at_zero = e_prod.evaluate(_bindings(rs, lam, 0))
    plain = e_product(rs).evaluate(_bindings(rs, lam))
    return {
        "rootSystem": rs.label,
        "lambda": [str(as_fraction(v)) for v in lam],
        "ell": str(as_fraction(ell)),
        "lengthClasses": len(rs.length_classes()),
        "e": _past_float_range({
            "zero": e_val["zero"],
            "witnessRoot": _first_witness(e_val["zeros"]),
            "zeros": e_val["zeros"],
            "logValue": e_val["logValue"],
            "value": e_val["value"],
        }, e_val["logValue"], e_val["negative"]),
        "c": _normalized(c_prod, _bindings(rs, rs.half_sum(), 0), point,
                         "cRhoZero"),
        "consistency": {
            "eZeroAtLevelZero": at_zero["zero"],
            "plainEZero": plain["zero"],
            "agree": at_zero["zero"] == plain["zero"],
        },
    }


def dominant_grid_report(rs: RestrictedRootSystem) -> dict:
    """Spot-check finiteness of c on strictly dominant integer points.

    Candidate points are the strictly decreasing positive integer vectors
    drawn from ``1..rank+2``; each is certified strictly dominant by
    exact pairing with every positive root, then checked to produce neither a
    zero nor a pole certificate, with a finite positive float value: a
    negative value or one past the float range is a failure too.
    """
    product = c_product(rs)
    rho = _bindings(rs, rs.half_sum())
    log_c = _normalize(product, rho)
    pairings = [_lambda_alpha(product.ring, root) for root in rs.positive]
    points = 0
    failures: List[dict] = []
    pool = range(1, rs.rank + 3)
    for combo in itertools.combinations(pool, rs.rank):
        lam = tuple(Fraction(c) for c in sorted(combo, reverse=True))
        point = _bindings(rs, lam)
        if any(la.eval_rational(point) <= 0 for la in pairings):
            continue
        points += 1
        val = product.evaluate(point)
        value = None
        if val["defined"] and not val["zero"]:
            value = _signed_exp(log_c + val["logValue"], val["negative"])
        if value is None or value <= 0.0:
            failures.append({"lambda": [str(c) for c in lam],
                             "zeros": val["zeros"], "poles": val["poles"]})
    return {
        "rootSystem": rs.label,
        "points": points,
        "failures": failures,
        "pass": points > 0 and not failures,
    }
