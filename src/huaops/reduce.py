"""Left-ideal reduction along an Iwasawa-ordered basis, and identity drivers.

The engine works relative to a zone-tagged :class:`~huaops.pbw.OrderedBasis`
whose zones are ``(n, a, k)``: monomials are normal-ordered words
``n-part * a-part * k-part``.  Reduction modulo

    n U(g)  +  sum_X U(g) (X - chi(X))  [+ sum_nu U(g) (E_nu - c_nu)]

then has a unique representative in the commutative algebra U(a): the n-part
kills a monomial outright, the trailing k-part peels off factor by factor
into character values, and optional a-values evaluate what is left.
With symbolic coefficients U(a) is a polynomial ring, so a representative is
a :class:`~huaops.params.ParamPoly` over the radial ring (the coefficient
symbols followed by the a-zone generator names, :func:`radial_ring`), printed
as ``(coeff)*E_1^2 + ...`` by :func:`radial_str`.  An element over another
basis of the same algebra (the ambient Verma basis of the generator
matrices) is reduced the way the U(p,q) chains reduce theirs, in the
induced module M = U(g)/U(g)(k - chi): :func:`~huaops.pbw.change_basis`
multiplies each word in from the left, one generator image at a time, and
peels the k-tail after each step, and the n-drop and the a-values follow
as for an element over the Iwasawa basis.  :func:`gamma` and
:func:`gamma_ell` compose this reduction with the rho shift
``H -> H + rho(H)`` to give the radial (Harish-Chandra style) images.

On top of the engine sit the verification drivers for the catalog identity
chains: :func:`gl_lemma_check` (GL(n,R) trace lemma), :func:`hua_sp_system`
(Sp(n,R) Hua system), :func:`upq_shilov_identity` (U(p,q) Shilov chain),
:func:`upq_theorem_case` (U(p,q) boundary ideal membership) and
:func:`upq_scalar_recursion` (the scalar recursion that re-derives the
U(p,q) reduction by elementary bookkeeping).  A U(p,q) boundary case is
one :class:`UpqCase`, fixed by ``(p, q, blocks)``: it checks the ranks and
the blocks once and owns the coefficient symbols, the real form, the
eigenvalue schedule, the complexified block pattern built from it, the
theorem's kept columns, the module chain, the reduction spec and the
binding check.  The CLI builds the case and the two U(p,q) membership
drivers take it, so a case is decided in one place.  Each driver returns
a JSON-ready report: case id, parameters, one record per check (with the
residue in canonical string form) and an overall pass flag; a report
holds no timing, so identical requests give identical reports.  The
matrix drivers take the generator matrix from
:func:`~huaops.matop.generator_matrix` (over the basis whose k they peel:
the Iwasawa basis, or the Hua block basis of Sp(n,R)) and state each
identity through three helpers:
``_congruences`` (entrywise congruence modulo the k-character),
``_block_form`` (block targets) and ``_exact_quadratic`` (the two-factor
product).  Every product of factors ``F - r`` (the two-factor product,
the power chains of the GL(n,R) lemma, the U(p,q) membership chains)
comes from :func:`~huaops.matop.factor_columns`.  The lemma passes its
form, unpruned, to the two chains that only its congruences read.  Both
U(p,q) membership drivers run the case's module chain, which passes the
case's real form, whose k-character their reduction peels, so the
factors of the minimal polynomial act one at a time on unit columns of
the induced module M = U(g)/U(g)(k - chi), over the Iwasawa basis with
every k-tail peeled after each factor, and reduce the resulting entries
with :func:`reduce_iwasawa`: the theorem case only its kept columns after
the last factor, the kernel comparison of the recursion every column
after every factor.  Their chain reads the form's grades too and is
pruned by restricted weight: after factor m of K it keeps only the terms
whose n-part has phi <= (K - m)·2q.  One factor lowers phi by at most
2q, so no dropped term can reach the n-free part of a later prefix, and
the n-free part is all that :func:`reduce_iwasawa` reads.  The k-peel is :func:`~huaops.pbw._peel`, shared with the
highest-weight evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .liedata import (RealFormData, _check_k_character, check_upq_ranks,
                      make_glnr, make_spnr, make_upq)
from .matop import (OpMatrix, entry_positions, factor_columns, from_columns,
                    generator_matrix, ideal_metadata)
from .minpoly import ThetaData, minimal_polynomial
from .params import ParamPoly, ParamRing, _over, _reduced
from .pbw import EnvElement, _peel, change_basis, sum_products

ScalarLike = Union[ParamPoly, Fraction, int]

__all__ = [
    "radial_ring",
    "radial_str",
    "ReductionSpec",
    "reduce_iwasawa",
    "peel_k",
    "gamma",
    "gamma_ell",
    "UpqCase",
    "upq_theorem_case",
    "upq_scalar_recursion",
    "upq_shilov_identity",
    "hua_sp_system",
    "gl_lemma_check",
]


# ---------------------------------------------------------------------------
# U(a): polynomials over the radial ring
# ---------------------------------------------------------------------------


def radial_ring(ring: ParamRing, a_names: Sequence[str]) -> ParamRing:
    """The ring of U(a) values: ``ring``'s symbols, then the a-zone names."""
    return ParamRing(ring.symbols + tuple(a_names))


def radial_str(value: ParamPoly, ring: ParamRing) -> str:
    """Print a U(a) value with coefficients over ``ring``.

    Terms are grouped by a-monomial, ordered by (a-degree, exponents), and
    printed as ``(coeff)*E_1^2 + ...``; the a-free group prints as
    ``(coeff)``.
    """
    width = len(ring)
    names = value.ring.symbols[width:]
    groups: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for exp, k in value.numerators.items():
        groups.setdefault(exp[width:], {})[exp[:width]] = k
    chunks = []
    for a_exp in sorted(groups, key=lambda e: (sum(e), e)):
        word = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, a_exp) if e)
        text = str(_reduced(ring, groups[a_exp], value.denominator))
        if not word:
            chunks.append(f"({text})")
        else:
            chunks.append(word if text == "1" else f"({text})*{word}")
    return " + ".join(chunks) or "0"


# ---------------------------------------------------------------------------
# Reduction specs and the projection onto U(a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionSpec:
    """How to reduce over ``form.basis``: which k-character, which a-values.

    ``k_character`` maps every k-zone index to its character value (default
    ``form.k_character``) and is validated here; ``a_values`` optionally
    evaluates a-zone generators, keyed by index; ``rho_shift`` applies
    ``H -> H + rho(H)`` afterwards.
    """

    form: RealFormData
    k_character: Optional[Mapping[int, ParamPoly]] = None
    a_values: Mapping[int, ParamPoly] = field(default_factory=dict)
    rho_shift: bool = False

    def __post_init__(self):
        basis = self.form.basis
        if self.k_character is None:
            object.__setattr__(self, "k_character", self.form.k_character)
        _check_k_character(basis, self.k_character)
        outside = set(self.a_values) - set(basis.zone_indices("a"))
        if outside:
            raise ValueError(f"a_values keys {sorted(outside)} are not "
                             f"a-zone indices of {basis.basis_id}")

    def total_a(self) -> bool:
        return len(self.a_values) == len(self.form.basis.zone_indices("a"))


def peel_k(elem: EnvElement, character: Mapping[int, ParamPoly]
           ) -> EnvElement:
    """Reduce modulo ``sum_X U(g)(X - chi(X))`` only (no n-drop, no a-values).

    ``character`` is a k-character keyed by the indices of the last zone of
    the element's basis; the result is the canonical representative with
    empty k-part, still an :class:`EnvElement`.
    """
    return EnvElement(elem.basis, elem.ring, _peel(elem, character))


def reduce_iwasawa(u: EnvElement, spec: ReductionSpec) -> ParamPoly:
    """Project onto U(a) modulo the left ideal described by ``spec``.

    An element over another basis (such as the ambient Verma basis) is
    first carried into M = U(g)/U(g)(k - chi) over ``spec.form.basis`` by
    :func:`~huaops.pbw.change_basis`, which peels the k-tails through
    ``spec.k_character`` after every left factor.  One peel then drops the
    n-leading monomials, evaluates the trailing k-part of each remaining
    monomial through the character (none is left after a conversion) and
    its a-generators through the a-values, and ``rho_shift`` moves the
    a-generators left without a value.  Returns a polynomial over
    ``u.ring`` when the a-values are total, otherwise one over
    ``radial_ring(u.ring, spec.form.a_names)``.
    """
    basis = spec.form.basis
    if basis.zones[:2] != ("n", "a"):
        raise ValueError(f"basis {basis.basis_id} is not Iwasawa-ordered")
    if u.basis is not basis and u.basis.basis_id != basis.basis_id:
        u = change_basis(u, basis, spec.k_character)
    peeled = _peel(u, {**spec.k_character, **spec.a_values},
                   basis.zone_indices("n"))
    if spec.total_a():
        return peeled.get((), u.ring.zero())
    names = spec.form.a_names
    radial = radial_ring(u.ring, names)
    a_zone = basis.zone_indices("a")
    den = lcm(*(coeff.denominator for coeff in peeled.values()))
    terms = {}
    for mono, coeff in peeled.items():
        powers = dict(mono)
        a_exp = tuple(powers.get(g, 0) for g in a_zone)
        for exp, k in _over(coeff, den).items():
            terms[exp + a_exp] = k
    result = _reduced(radial, terms, den)
    if spec.rho_shift:
        result = result.substitute({
            name: radial.var(name) + r
            for i, name, r in zip(a_zone, names, spec.form.rho)
            if i not in spec.a_values})
    return result


def zero_character(form: RealFormData) -> Dict[int, ParamPoly]:
    """The zero character on the k-zone of ``form.basis``."""
    zero = form.ring.zero()
    return {i: zero for i in form.k_character}


def gamma(d: EnvElement, form: RealFormData) -> ParamPoly:
    """The radial image: reduce with the zero k-character, then rho-shift."""
    spec = ReductionSpec(form, zero_character(form), rho_shift=True)
    return reduce_iwasawa(d, spec)


def gamma_ell(d: EnvElement, form: RealFormData,
              ell: Optional[Mapping[str, ScalarLike]] = None) -> ParamPoly:
    """The radial image twisted by the line-bundle character.

    The reduction ideal is ``sum_X U(g)(X + chi_ell(X))``, i.e. each k-zone
    generator is assigned *minus* its character value; the rho-shift
    convention matches :func:`gamma`, so at ``ell = 0`` the two maps agree
    on k-invariant elements.  ``ell`` binds the character symbols by name;
    ``None`` keeps them symbolic.
    """
    character = {i: -v if ell is None else -v.substitute(ell)
                 for i, v in form.k_character.items()}
    spec = ReductionSpec(form, character, rho_shift=True)
    return reduce_iwasawa(d, spec)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _report(case: str, parameters: Mapping, checks: List[dict]) -> dict:
    return {
        "case": case,
        "parameters": dict(parameters),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(name: str, ok: bool, failure: str = "mismatch") -> dict:
    return {"name": name, "pass": bool(ok), "residue": "0" if ok else failure}


def _zero_check(name: str, residue, render=str) -> dict:
    ok = residue.is_zero() if hasattr(residue, "is_zero") else not residue
    return _check(name, ok, "0" if ok else render(residue))


# ---------------------------------------------------------------------------
# Matrices of generators over a real-form basis
# ---------------------------------------------------------------------------


def _congruences(checks: List[dict], label: str, lhs: OpMatrix, rhs: OpMatrix,
                 character: Mapping[int, ParamPoly], suffix: str = "") -> None:
    """Check ``lhs == rhs`` entrywise modulo the k-character ideal.

    Appends one ``"{label} entry[a,b]{suffix}"`` record per entry, in
    row-major order, holding ``peel_k(lhs[a,b] - rhs[a,b])``.
    """
    for a, (left, right) in enumerate(zip(lhs.entries, rhs.entries,
                                          strict=True), start=1):
        for b, (x, y) in enumerate(zip(left, right, strict=True), start=1):
            checks.append(_zero_check(f"{label} entry[{a},{b}]{suffix}",
                                      peel_k(x - y, character)))


def _block_form(mat: OpMatrix, p: int, diag: Tuple[ScalarLike, ScalarLike],
                scale: Tuple[ScalarLike, ScalarLike]) -> OpMatrix:
    """``((x I, u B), (l C, y I))`` for ``mat = ((A, B), (C, D))``.

    The blocks split after row and column ``p``; ``diag = (x, y)`` and
    ``scale = (u, l)``.  With ``diag = (0, 0)`` and ``scale = (1, 1)`` the
    square of the result is ``((BC, 0), (0, CB))``, the PQ and QP blocks of
    a boundary system.
    """
    one = EnvElement.scalar(mat.basis, mat.ring.one())
    (x, y), (u, l) = diag, scale

    def cell(a: int, b: int, e: EnvElement) -> EnvElement:
        top = a <= p
        if top != (b <= p):
            return e.scale(u if top else l)
        return one.scale((x if top else y) if a == b else 0)

    return OpMatrix(mat.basis, mat.ring, tuple(
        tuple(cell(a, b, e) for b, e in enumerate(row, start=1))
        for a, row in enumerate(mat.entries, start=1)))


def _exact_quadratic(checks: List[dict], name: str, mat: OpMatrix,
                     square: OpMatrix, c1: ParamPoly, c2: ParamPoly
                     ) -> OpMatrix:
    """Check ``(F - c1)(F - c2) == F^2 - (c1 + c2) F + c1 c2`` exactly.

    ``square`` is ``F^2``; the identity needs no reduction.  Appends one
    record (residue ``"mismatch"`` on failure) and returns the product.
    """
    for columns in factor_columns(mat, (c1, c2), range(1, mat.size + 1)):
        pass
    product = from_columns(mat, columns)
    expansion = square.add(mat.scale(-(c1 + c2))).shift(c1 * c2)
    checks.append(_check(name, product.entries == expansion.entries))
    return product


# ---------------------------------------------------------------------------
# U(p,q): boundary-ideal membership (the 2L-step reduction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpqCase:
    """One U(p,q) boundary case, fixed by ``(p, q, blocks)`` and checked once.

    Construction raises ``ValueError`` unless the ranks satisfy
    ``1 <= q <= p`` and the block ends ``0 < n_1 < ... < n_L = q``, and
    builds nothing.  The rest is built on first read, once per case: the
    coefficient symbols ``mu_1..mu_L, s, t`` and their ring, the real form
    over them (which an export never builds), the eigenvalue schedule of
    the recursion, the complexified block pattern on ``gl_{p+q}`` built
    from it and the boundary reduction (tau_{s,t} on k, ``E_i = 2 mu_j``
    on a with j the block of i).  The case also fixes the theorem's kept
    columns and runs the module chain of both membership drivers.
    """

    p: int
    q: int
    blocks: Tuple[int, ...]

    def __post_init__(self):
        check_upq_ranks(self.p, self.q)
        blocks = tuple(self.blocks)
        if (not blocks or blocks[0] < 1 or blocks[-1] != self.q
                or any(a >= b for a, b in zip(blocks, blocks[1:]))):
            raise ValueError(f"blocks {','.join(map(str, blocks))} must be "
                             f"positive, strictly increasing and end at "
                             f"q={self.q}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def symbols(self) -> Tuple[str, ...]:
        return tuple(f"mu_{j}" for j in range(1, len(self.blocks) + 1)) + (
            "s", "t")

    @cached_property
    def ring(self) -> ParamRing:
        return ParamRing(self.symbols)

    @cached_property
    def form(self) -> RealFormData:
        return make_upq(self.p, self.q, symbols=self.symbols)

    @cached_property
    def schedule(self) -> Tuple[ParamPoly, ...]:
        """The ``2L`` recursion eigenvalues.

        The first ``L`` values descend through the blocks
        (``lambda_k = -mu_k - (s+t)/2 - n_{k-1}``); the last ``L`` retrace
        them reflected through the full size ``p + q``
        (``lambda_k = mu_j - (s+t)/2 - (p+q) + n_j`` with ``j = 2L+1-k``),
        so the reflected block ``j`` contributes the root
        ``-mu_j + (s+t)/2`` shifted by its position ``p + q - n_j``.
        """
        ring, L = self.ring, len(self.blocks)
        mu = [ring.var(f"mu_{j}") for j in range(1, L + 1)]
        half = (ring.var("s") + ring.var("t")) / 2
        ends = (0,) + self.blocks
        size = self.p + self.q
        return tuple([-mu[k - 1] - half - ends[k - 1] for k in range(1, L + 1)]
                     + [mu[j - 1] - half - size + ends[j]
                        for j in range(L, 0, -1)])

    @cached_property
    def theta(self) -> ThetaData:
        """The block pattern on ``gl_{p+q}`` matching the recursion.

        Its blocks walk up one side, cross the middle (with an extra block
        of character ``s`` when ``p > q``), and retrace the other side; the
        character of every other block is minus the next eigenvalue of the
        schedule, less the block's start.  Its minimal polynomial is ``f``
        (for ``p = q``) or ``f_ext`` (for ``p > q``) of
        :func:`~huaops.minpoly.upq_f_polys`.
        """
        p, q, blocks, ring = self.p, self.q, self.blocks, self.ring
        middle = [p] if p > q else []
        big = (list(blocks) + middle + [p + q - b for b in blocks[-2::-1]]
               + [p + q])
        values: List[ParamPoly] = []
        lam = iter(self.schedule)
        for j, start in enumerate([0] + big[:-1]):
            if middle and j == len(blocks):
                values.append(ring.var("s"))
            else:
                values.append(-next(lam) - start)
        return ThetaData(kind="gl", rank=p + q, blocks=tuple(big),
                         char_values=tuple(values))

    @property
    def column_range(self) -> Optional[Tuple[int, int]]:
        """The theorem's kept columns: the last q when ``p > q``, else all
        (``None``)."""
        return (self.p + 1, self.p + self.q) if self.p > self.q else None

    @cached_property
    def spec(self) -> ReductionSpec:
        ring = self.form.ring
        a_values = {
            index: ring.var(f"mu_{1 + sum(end < i for end in self.blocks)}") * 2
            for i, index in enumerate(self.form.basis.zone_indices("a"),
                                      start=1)
        }
        return ReductionSpec(self.form, a_values=a_values)

    def chain(self, roots: Sequence[ParamPoly], columns: Sequence[int], *,
              prune: bool) -> Iterator[List[List[EnvElement]]]:
        """The module chain: :func:`~huaops.matop.factor_columns` of the
        generator matrix over the Iwasawa basis, run with the form, so the
        k-character is peeled after every root."""
        form = self.form
        fmat = generator_matrix(form.complex_algebra, form.ring, form.basis)
        return factor_columns(fmat, roots, columns, form, prune=prune)

    def bindings(self, pairs: Iterable[Tuple[str, ScalarLike]]
                 ) -> Dict[str, ScalarLike]:
        """``pairs`` as a dict; ``ValueError`` unless each name is a symbol,
        bound once."""
        pairs = list(pairs)
        unknown = [name for name, _ in pairs if name not in self.symbols]
        if unknown:
            raise ValueError(f"unknown symbols {unknown}; expected "
                             f"{', '.join(self.symbols)}")
        return _bound_once(pairs)


def _bound_once(pairs: Sequence[Tuple[str, ScalarLike]]
                ) -> Dict[str, ScalarLike]:
    """``pairs`` as a dict; ``ValueError`` if a name occurs twice."""
    names = [name for name, _ in pairs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"symbols bound more than once: {repeated}")
    return dict(pairs)


def upq_theorem_case(case: UpqCase, perturb: bool = False) -> dict:
    """One boundary-ideal membership case for U(p,q).

    Applies the minimal polynomial q(F) of ``case.theta`` to the cyclic
    vector v_chi of the induced module, one factor at a time, on the kept
    unit columns only (``case.column_range``): the case's module chain,
    with the k-character of the reduction peeled after each factor and
    every term that can no longer reach the n-free part dropped (phi of its
    n-part over (K - m)·2q after factor m of K; see
    :func:`~huaops.matop.factor_columns`), so the last factor leaves only
    n-free terms.  Every kept entry, row by row, is then reduced
    modulo the U(p,q) Iwasawa ideal with ``E_i = 2 mu``.  PASS iff every
    residue is exactly 0.  With ``perturb=True`` the first eigenvalue of the
    schedule is shifted by one, which must break membership (a soundness
    control).
    """
    theta = case.theta
    if perturb:
        values = (theta.char_values[0] - 1,) + theta.char_values[1:]
        theta = replace(theta, char_values=values)
    positions = entry_positions(case.p + case.q, case.column_range)
    kept = sorted({j for _i, j in positions})
    for columns in case.chain(minimal_polynomial(theta).roots, kept,
                              prune=True):
        pass
    final = dict(zip(kept, columns))
    checks = [_zero_check(f"entry[{i},{j}]",
                          reduce_iwasawa(final[j][i - 1], case.spec))
              for i, j in positions]
    parameters = ideal_metadata(theta, case.form.complex_algebra,
                                case.column_range)
    parameters.update({"p": case.p, "q": case.q, "blocks": list(case.blocks),
                       "perturbed": perturb})
    return _report("upq-theorem" + ("-perturbed" if perturb else ""),
                   parameters, checks)


# ---------------------------------------------------------------------------
# U(p,q): the scalar recursion (independent oracle for the same reduction)
# ---------------------------------------------------------------------------


class _UpqRecursion:
    """State of the five-family scalar recursion for U(p,q).

    Tracks the reduced values at the surviving positions ``(i,i)``,
    ``(i,ibar)``, ``(ibar,i)``, ``(ibar,ibar)`` (for i = 1..q) and ``(k,k)``
    (one value; all q < k <= p agree) as polynomials over the radial ring of
    the a-generators ``E_1..E_q``.
    """

    def __init__(self, p: int, q: int, ring: ParamRing,
                 names: Tuple[str, ...], lam: Sequence[ParamPoly]):
        self.p, self.q = p, q
        self.radial = radial = radial_ring(ring, names)
        self.lam = [v.rename(radial) for v in lam]
        self.s, self.t = s, t = radial.var("s"), radial.var("t")
        half = Fraction(1, 2)
        self.e_var = [radial.var(name) for name in names]
        # (E_i + s - t)/2 and (E_i - s + t)/2, indexed by i-1.
        self.e_plus = [(e + s - t) * half for e in self.e_var]
        self.e_minus = [(e - s + t) * half for e in self.e_var]
        lam1 = self.lam[0]
        self.ii = [s + lam1] * q
        self.ibar = list(self.e_plus)
        self.bari = list(self.e_minus)
        self.barbar = [t + lam1] * q
        self.kk = s + lam1 if p > q else None
        self.step = 1

    def diag(self, nu: int) -> ParamPoly:
        """F_{nu,nu} for 1 <= nu <= p (the (k,k) value beyond q)."""
        return self.ii[nu - 1] if nu <= self.q else self.kk

    def advance(self) -> None:
        p, q, s, t = self.p, self.q, self.s, self.t
        lam = self.lam[self.step]  # lambda_{m} for the step to F^m
        ii, ibar, bari, barbar, kk = (self.ii, self.ibar, self.bari,
                                      self.barbar, self.kk)
        new_ii, new_ibar, new_bari, new_barbar = [], [], [], []
        for idx in range(q):
            i = idx + 1
            tilde_ii = (ii[idx] * s
                        + (self.e_plus[idx] - q) * bari[idx]
                        - sum(self.diag(nu) - ii[idx]
                              for nu in range(1, p + 1))
                        - sum(bari[j] - bari[idx] for j in range(idx)))
            tilde_ibar = (ibar[idx] * (s + p)
                          + self.e_plus[idx] * barbar[idx]
                          + sum(barbar[j] - barbar[idx]
                                for j in range(idx + 1, q)))
            tilde_bari = (bari[idx] * (t + q)
                          + self.e_minus[idx] * ii[idx]
                          + sum(self.diag(nu) - ii[idx]
                                for nu in range(i + 1, p + 1)))
            tilde_barbar = (barbar[idx] * t
                            + (self.e_minus[idx] - p) * ibar[idx]
                            - sum(barbar[j] - barbar[idx] for j in range(q))
                            - sum(ibar[j] - ibar[idx] for j in range(idx)))
            new_ii.append(tilde_ii + ii[idx] * lam)
            new_ibar.append(tilde_ibar + ibar[idx] * lam)
            new_bari.append(tilde_bari + bari[idx] * lam)
            new_barbar.append(tilde_barbar + barbar[idx] * lam)
        if kk is not None:
            tilde_kk = (kk * s - sum(bari)
                        - sum(self.diag(nu) - kk for nu in range(1, p + 1)))
            self.kk = tilde_kk + kk * lam
        self.ii, self.ibar, self.bari, self.barbar = (
            new_ii, new_ibar, new_bari, new_barbar)
        self.step += 1

    def f_plus(self, i: int) -> ParamPoly:
        return self.barbar[i - 1] + self.ibar[i - 1]

    def f_minus(self, i: int) -> ParamPoly:
        return self.barbar[i - 1] - self.ibar[i - 1]

    def snapshot(self) -> Dict[str, List[ParamPoly]]:
        out = {
            "F(i,i)": list(self.ii),
            "F(i,ibar)": list(self.ibar),
            "F(ibar,i)": list(self.bari),
            "F(ibar,ibar)": list(self.barbar),
        }
        if self.kk is not None:
            out["F(k,k)"] = [self.kk]
        return out


def _kernel_records(columns: Sequence[Sequence[EnvElement]],
                    spec: ReductionSpec, rec: _UpqRecursion, m: int,
                    show) -> List[dict]:
    """Reduce ``(E + lambda_1)...(E + lambda_m)`` through the PBW kernel and
    compare it with the recursion: each surviving position must agree with
    its family's value, and every other entry must reduce to 0.  Entry
    ``(a, b)`` is read from ``columns[b - 1][a - 1]``."""
    p, q = rec.p, rec.q
    big = p + q
    checks = []
    for a in range(1, big + 1):
        for b in range(1, big + 1):
            value = reduce_iwasawa(columns[b - 1][a - 1], spec)
            expected = None
            if a == b:
                if a <= q:
                    expected = rec.ii[a - 1]
                elif a <= p:
                    expected = rec.kk
                else:
                    expected = rec.barbar[big - a]
            elif a <= q and b == big + 1 - a:
                expected = rec.ibar[a - 1]
            elif a > p and b == big + 1 - a:
                expected = rec.bari[big - a]
            name = f"kernel == recursion at entry[{a},{b}], m={m}"
            if expected is None:
                name = f"kernel off-pattern entry[{a},{b}] at m={m}"
                expected = 0
            checks.append(_zero_check(name, value - expected, show))
    return checks


def upq_scalar_recursion(case: UpqCase,
                         params: Optional[Mapping[str, ScalarLike]] = None,
                         compare_kernel: bool = False) -> dict:
    """Run the five-family recursion and check its vanishing pattern.

    The recursion starts from the reduced entries of ``E + lambda_1`` and
    iterates ``F^m = tilde F^{m-1} + lambda_m F^{m-1}`` through
    ``case.schedule``.  Checked here, with ``E_i = 2 mu``
    substituted: ``F_i^m = 0`` when ``m >= L`` or ``i <= n_m``;
    ``F_{i,ibar}^m = 0`` when ``m > L`` and ``i > n_{2L-m}``; at ``m = 2L``
    the whole last q columns vanish (first p columns too when p = q).  The
    compact one-line recurrences for ``F_i`` and ``F_{-i}`` are re-checked
    against the five families at every step, and with ``compare_kernel=True``
    every entry of the PBW product ``(E + lambda_1)...(E + lambda_m)`` is
    reduced independently and compared, with off-pattern entries checked to
    reduce to 0.  The product is applied to v_chi of the induced module, every
    column after every factor, by the case's module chain, with
    the k-character peeled after each factor; the chain drops every term
    whose n-part has phi > (K - m)·2q after factor m of K, which keeps the
    n-free part of every prefix, the part each comparison reduces.  ``params``
    binds coefficient symbols (``mu_j``, ``s``, ``t``) in the printed tables.
    """
    params = case.bindings((params or {}).items())
    p, q, blocks, L = case.p, case.q, case.blocks, len(case.blocks)
    form = case.form
    ring = form.ring

    rec = _UpqRecursion(p, q, ring, form.a_names, case.schedule)
    s, t = rec.s, rec.t
    a_sub = {form.basis.names[i]: v.rename(rec.radial)
             for i, v in case.spec.a_values.items()}

    def show(value: ParamPoly) -> str:
        return radial_str(value, ring)

    checks: List[dict] = []
    notes: List[str] = []
    tables: Dict[str, Dict[str, List[ParamPoly]]] = {}
    if compare_kernel:
        kernel_spec = ReductionSpec(form)
        prefixes = case.chain([-v for v in case.schedule],
                              range(1, p + q + 1), prune=True)

    for m in range(1, 2 * L + 1):
        if m > 1:
            prev_plus = [rec.f_plus(i) for i in range(1, q + 1)]
            prev_minus = [rec.f_minus(i) for i in range(1, q + 1)]
            rec.advance()
            lam_m = rec.lam[m - 1]
            for i in range(1, q + 1):
                e_i = rec.e_var[i - 1]
                # compact recurrence for F_i, a consequence of the five rows
                expected = (prev_plus[i - 1]
                            * ((e_i + s + t) * Fraction(1, 2) + lam_m)
                            - sum(prev_plus[j] - prev_plus[i - 1]
                                  for j in range(i - 1)))
                checks.append(_zero_check(
                    f"compact F_{i} recurrence at m={m}",
                    rec.f_plus(i) - expected, show))
                # compact recurrence for F_{-i}: coefficient
                # lambda_m + p - (E_i - s - t)/2 on F_{-i}, a -(p+s-t) F_i
                # term, the same-family sum over j > i, and a cross-family
                # sum over all j != i.
                cross = sum(prev_plus[j] - prev_plus[i - 1]
                            for j in range(q) if j != i - 1)
                tail = sum(prev_minus[j] - prev_minus[i - 1]
                           for j in range(i, q))
                coeff = lam_m + p - (e_i - s - t) * Fraction(1, 2)
                expected_minus = (prev_minus[i - 1] * coeff
                                  - prev_plus[i - 1] * (s - t + p)
                                  - cross - tail)
                checks.append(_zero_check(
                    f"compact F_-{i} recurrence at m={m}",
                    rec.f_minus(i) - expected_minus, show))
                # The one-line variant with (E_i + s + t)/2 in the
                # coefficient and no cross-family sum does not close; record
                # its defect instead of asserting it.
                variant = (prev_minus[i - 1]
                           * (lam_m + p - (e_i + s + t) * Fraction(1, 2))
                           - prev_plus[i - 1] * (s - t + p)
                           - tail)
                defect = rec.f_minus(i) - variant
                if not defect.is_zero() and len(notes) < 2:
                    notes.append(
                        f"one-line F_-{i} recurrence at m={m} needs "
                        "coefficient lambda+p-(E_i-s-t)/2 (not +(s+t)) and "
                        "the cross sum -sum_(j!=i)(F_j - F_i)")
        tables[f"m={m}"] = rec.snapshot()

        for i in range(1, q + 1):
            if m >= L or (m <= L and i <= blocks[m - 1]):
                value = rec.f_plus(i).substitute(a_sub)
                checks.append(_zero_check(f"F_{i}^{m} = 0", value, show))
            if m > L and i > (blocks[2 * L - m - 1] if 2 * L - m >= 1 else 0):
                value = rec.ibar[i - 1].substitute(a_sub)
                checks.append(_zero_check(f"F_({i},{i}bar)^{m} = 0", value,
                                          show))
        if compare_kernel:
            checks.extend(_kernel_records(next(prefixes), kernel_spec, rec,
                                          m, show))

    for i in range(1, q + 1):
        checks.append(_zero_check(
            f"column {p + q + 1 - i}: F_({i},{i}bar)^{2 * L} = 0",
            rec.ibar[i - 1].substitute(a_sub), show))
        checks.append(_zero_check(
            f"column {p + q + 1 - i}: F_({i}bar,{i}bar)^{2 * L} = 0",
            rec.barbar[i - 1].substitute(a_sub), show))
        if p == q:
            checks.append(_zero_check(
                f"column {i}: F_({i},{i})^{2 * L} = 0",
                rec.ii[i - 1].substitute(a_sub), show))
            checks.append(_zero_check(
                f"column {i}: F_({i}bar,{i})^{2 * L} = 0",
                rec.bari[i - 1].substitute(a_sub), show))

    report = _report("upq-recursion", {"p": p, "q": q, "blocks": list(blocks)},
                     checks)
    if notes:
        report["notes"] = notes
    report["tables"] = {
        stage: {family: [show(v.substitute(params)) for v in column]
                for family, column in table.items()}
        for stage, table in tables.items()
    }
    return report


# ---------------------------------------------------------------------------
# U(p,q): the rank-one (Shilov) two-factor chain
# ---------------------------------------------------------------------------


def upq_shilov_identity(p: int, q: int) -> dict:
    """Verify the two-factor chain for the rank-one boundary of U(p,q).

    All congruences are modulo ``sum_X U(g)(X - tau_{s,t}(X))`` only (the
    k-character peel; no n-drop), with lambda, s, t symbolic.  The chain:

    1. ``E = ((K1, P), (Q, K2)) == ((s, P), (Q, t))``;
    2. ``K1 P == (p+s) P`` and ``K2 Q == (q+t) Q``;
    3. ``E^2 == ((PQ + s^2, (p+s+t) P), ((q+s+t) Q, QP + t^2))``;
    4. exactly, ``(E - c1)(E - c2) = E^2 - (p+s+t) E - c I`` for
       ``c1 = lambda + (s+t)/2``, ``c2 = p + (s+t)/2 - lambda``;
    5. the product reduces to ``((PQ - (s-t) p, 0), ((q-p) Q, QP))``
       minus ``(lambda + (s-t)/2)(lambda - p - (s-t)/2)``.
    """
    form = make_upq(p, q, symbols=("lambda", "s", "t"))
    ring = form.ring
    lam, s, t = ring.var("lambda"), ring.var("s"), ring.var("t")
    character = form.k_character
    e_mat = generator_matrix(form.complex_algebra, ring, form.basis)
    ent = e_mat.entry
    off = _block_form(e_mat, p, (0, 0), (1, 1))
    pq_qp = off.mul(off)
    checks: List[dict] = []

    # Step 1: the generator matrix itself.
    _congruences(checks, "step1", e_mat,
                 _block_form(e_mat, p, (s, t), (1, 1)), character)

    # Step 2: K1 P == (p+s) P and K2 Q == (q+t) Q, blockwise.
    top, bottom = range(1, p + 1), range(p + 1, p + q + 1)
    for name, rows, cols, value in (("K1 P", top, bottom, s + p),
                                    ("K2 Q", bottom, top, t + q)):
        for i in rows:
            for b in cols:
                lhs = sum_products([ent(i, nu) for nu in rows],
                                   [ent(nu, b) for nu in rows])
                checks.append(_zero_check(
                    f"step2 ({name})[{i},{b}]",
                    peel_k(lhs - ent(i, b).scale(value), character)))

    # Step 3: the square against its block form.
    e2 = e_mat.mul(e_mat)
    scale3 = (ring.const(p) + s + t, ring.const(q) + s + t)
    _congruences(checks, "step3", e2, pq_qp.add(
        _block_form(e_mat, p, (s * s, t * t), scale3)), character)

    # Step 4 (exact): the two-factor product expands with no reduction.
    half_sum = (s + t) * Fraction(1, 2)
    c1 = lam + half_sum
    c2 = ring.const(p) + half_sum - lam
    quad = _exact_quadratic(checks, "step4 exact expansion", e_mat, e2, c1, c2)

    # Step 5: the final block form, with symbolic lambda, s, t.
    half_diff = (s - t) * Fraction(1, 2)
    scalar5 = (lam + half_diff) * (lam - p - half_diff)
    _congruences(checks, "step5", quad, pq_qp.add(_block_form(
        e_mat, p, (-(s - t) * p - scalar5, -scalar5), (0, q - p))), character)

    # The block scalars of the penultimate display match the final one.
    scalar4 = (lam + half_sum) * (lam - p - half_sum)
    checks.append(_zero_check(
        "block scalar (top-left)",
        (-s * (ring.const(p) + t) - scalar4) - (-(s - t) * p - scalar5)))
    checks.append(_zero_check(
        "block scalar (bottom-right)",
        (-t * (ring.const(p) + s) - scalar4) - (-scalar5)))

    return _report("upq-shilov", {"p": p, "q": q}, checks)


# ---------------------------------------------------------------------------
# Sp(n,R): the Hua system chain in the block realization
# ---------------------------------------------------------------------------


def hua_sp_system(n: int) -> dict:
    """Verify the Sp(n,R) block chain with symbolic lambda and ell.

    Exact inputs first: the commutation identities
    ``sum_nu K_{i nu} P_{nu j} - sum_nu P_{nu j} K_{i nu} = (n+1)/2 P_{ij}``
    and its Q-counterpart, and the bracket tables for [K,P] and [K,Q].
    Then, modulo the Levi character peel ``K_{ij} -> ell delta_{ij}``: the
    reduced matrix, its square, and the two-factor product
    ``(F - lambda)(F + lambda - (n+1)/2)``, which collapses to
    ``diag(PQ - (n+1) ell, QP) - (lambda+ell)(lambda-ell-(n+1)/2)``.
    """
    form = make_spnr(n, symbols=("lambda", "ell"))
    ring = form.ring
    basis = form.hua_basis
    lam, ell = ring.var("lambda"), ring.var("ell")
    character = form.hua_character
    big = 2 * n
    half = Fraction(1, 2)

    def gen(name: str) -> EnvElement:
        return EnvElement.generator(basis, ring, basis.index_of(name))

    def kk(i: int, j: int) -> EnvElement:
        return gen(f"K_{i}_{j}")

    def pp(i: int, j: int) -> EnvElement:
        return gen(f"P_{min(i, j)}_{max(i, j)}")

    def qq(i: int, j: int) -> EnvElement:
        return gen(f"Q_{min(i, j)}_{max(i, j)}")

    # F = ((K, P), (Q, -K^T)) in the block realization: half the generator
    # matrix over the Hua basis, with the second block read in reverse
    # (row and column a > n of F is 3n + 1 - a of the antidiagonal sp_n).
    gen_mat = generator_matrix(form.complex_algebra, ring, basis)
    block = [a if a <= n else 3 * n + 1 - a for a in range(1, big + 1)]
    f_mat = OpMatrix(basis, ring, tuple(
        tuple(gen_mat.entry(a, b).scale(half) for b in block) for a in block))

    checks: List[dict] = []
    rng = range(1, n + 1)

    # Exact bracket tables.
    delta = lambda a, b: Fraction(int(a == b))
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    lhs = kk(i, j).commutator(pp(k, l))
                    rhs = (pp(i, l).scale(delta(j, k) * half)
                           + pp(i, k).scale(delta(j, l) * half))
                    checks.append(_zero_check(
                        f"[K_{i}{j}, P_{k}{l}]", lhs - rhs))
                    lhs = kk(i, j).commutator(qq(k, l))
                    rhs = (qq(j, l).scale(-delta(i, k) * half)
                           + qq(j, k).scale(-delta(i, l) * half))
                    checks.append(_zero_check(
                        f"[K_{i}{j}, Q_{k}{l}]", lhs - rhs))

    # Exact normal-ordering identities behind the chain.
    scale = ring.const(Fraction(n + 1, 2))
    for i in rng:
        for j in rng:
            lhs = (sum_products([kk(i, nu) for nu in rng],
                                [pp(nu, j) for nu in rng])
                   - sum_products([pp(nu, j) for nu in rng],
                                  [kk(i, nu) for nu in rng]))
            checks.append(_zero_check(
                f"sum K P - sum P K at [{i},{j}]",
                lhs - pp(i, j).scale(scale)))
            lhs = (sum_products([qq(nu, j) for nu in rng],
                                [kk(nu, i) for nu in rng])
                   - sum_products([kk(nu, i) for nu in rng],
                                  [qq(nu, j) for nu in rng]))
            checks.append(_zero_check(
                f"sum Q K - sum K Q at [{i},{j}]",
                lhs - qq(i, j).scale(scale)))

    off = _block_form(f_mat, n, (0, 0), (1, 1))
    pq_qp = off.mul(off)

    # Step 1: F reduces to ((ell, P), (Q, -ell)).
    _congruences(checks, "step1", f_mat,
                 _block_form(f_mat, n, (ell, -ell), (1, 1)), character)

    # Step 2: F^2 reduces to ((PQ + ell^2, (n+1)/2 P), ((n+1)/2 Q, QP + ell^2)).
    f2 = f_mat.mul(f_mat)
    _congruences(checks, "step2", f2, pq_qp.add(
        _block_form(f_mat, n, (ell * ell, ell * ell), (scale, scale))),
        character)

    # Step 3 (exact): the two-factor product expands with no reduction.
    quad = _exact_quadratic(checks, "step3 exact expansion", f_mat, f2,
                            lam, scale - lam)

    # Step 4: the final diagonal block form.
    eig = (lam + ell) * (lam - ell - scale)
    _congruences(checks, "step4", quad, pq_qp.add(_block_form(
        f_mat, n, (-(ring.const(n + 1) * ell) - eig, -eig), (0, 0))),
        character)

    # Eigenvalue bookkeeping for the final system, plus the ell = 0 limit.
    checks.append(_zero_check(
        "PQ eigenvalue rearrangement",
        (eig + ring.const(n + 1) * ell) - (lam - ell) * (lam + ell - scale)))
    degenerate = eig.substitute({"ell": ring.zero()}) - lam * (lam - scale)
    checks.append(_zero_check("ell = 0 degeneration", degenerate))

    return _report("sp-hua", {"n": n}, checks)


# ---------------------------------------------------------------------------
# GL(n,R): the K P^m trace lemma
# ---------------------------------------------------------------------------


def gl_lemma_check(n: int, m_max: int) -> dict:
    """Verify the GL(n,R) trace lemma for exponents up to ``m_max``.

    The exact identity in U(gl_n), remainder terms included, is
    ``(K P^m)_{ij} = (n/2)(P^m)_{ij} - (1/2) tr(P^m) delta_{ij}
    + sum_nu (P^m)_{nu j} K_{i nu} + (1/2)((P^m)_{ji} - (P^m)_{ij})``.
    The final antisymmetrization term vanishes identically for m <= 1 and
    lies in U(g) k for every m (both checked here), so the congruence
    ``K P^m == (n/2) P^m - (1/2) tr(P^m)`` modulo U(g) k holds as usually
    stated without it; telescoping that congruence gives the power step
    ``(E - n/2) P^m == P^{m+1} - (1/2) tr(P^m)``, the closed form of ``P^m``
    as a polynomial in ``E`` with lower traces as right factors, and (by
    tracing the closed form) the trace identity for ``tr(P^m)``.  All are
    verified modulo the trailing-k peel with the zero character.  The
    one-line variant ``tr(P^m) == tr((E - (n-1)/2)^{m-1} E)`` only holds at
    m = 1; its defect for m >= 2 is recorded in the report notes.

    A matrix that only a congruence reads is built in the induced module
    M = U(g)/U(g)k: U(g)k is a left ideal and every factor multiplies from
    the left, so a right factor may be replaced by its peeled
    representative.  The step products (E - n/2) P^m are taken on the
    peeled P^m, and the closed-form and trace chains run through
    :func:`~huaops.matop.factor_columns` with the form, unpruned (their
    congruences read the whole representative, not only its n-free part).
    Two chains stay whole: P^1..P^m_max, which the exact ``K P^m`` checks
    read in full, and ``(E - n/2)^k``, which is multiplied on the right by
    traces.

    None of ``K P^m``, its mirror, ``(E - n/2) P^m`` or P^(m_max+1) is
    built as a matrix.  Each entry of the exact ``K P^m`` check and of its
    congruence is decided on one difference, ``K P^m`` minus the
    right-hand side: its two sums of products, ``sum_nu K_{i nu}
    (P^m)_{nu j}`` and ``-sum_nu (P^m)_{nu j} K_{i nu}``, go into one
    :func:`~huaops.pbw.sum_products` call, so their equal top-degree parts
    cancel as int numerators before any coefficient is built.  Each step
    entry is likewise one call, ``sum_nu (E - n/2)_{i nu} (P^m)_{nu j}``
    on the peeled P^m, minus P^(m+1) from the chain; at m = m_max, which
    has no P^(m+1) in the chain, the pairs ``(-P_{i nu}, (P^m)_{nu j})``
    join the same call.
    """
    if n < 2 or m_max < 1:
        raise ValueError("need n >= 2 and m_max >= 1")
    form = make_glnr(n)
    ring = form.ring
    basis = form.basis
    half = Fraction(1, 2)
    e_mat = generator_matrix(form.complex_algebra, ring, basis)
    e_transpose = OpMatrix(basis, ring, tuple(zip(*e_mat.entries)))
    p_mat = e_mat.add(e_transpose).scale(half)
    k_mat = e_mat.sub(e_transpose).scale(half)

    identity = OpMatrix.identity(basis, ring, n)
    zero, half_n = ring.zero(), ring.const(Fraction(n, 2))
    half_n1 = ring.const(Fraction(n - 1, 2))

    def chain(mat: OpMatrix, roots: Sequence[ParamPoly],
              module: Optional[RealFormData] = None) -> List[OpMatrix]:
        return [from_columns(mat, columns)
                for columns in factor_columns(mat, roots, range(1, n + 1),
                                              module, prune=False)]

    # Whole: P^0..P^m_max and (E - n/2)^0..(E - n/2)^(m_max-2).  In M:
    # the peeled P^m, (E - n/2)^(m-1) E and (E - (n-1)/2)^(m-1) E for
    # m = 1..m_max.
    zero_chi = zero_character(form)
    p_pow = [identity] + chain(p_mat, [zero] * m_max)
    p_traces = [m.trace() for m in p_pow]
    shifted = e_mat.shift(-half_n)
    shifted_pow = [identity] + chain(e_mat, [half_n] * (m_max - 2))
    closed_head = chain(e_mat, [zero] + [half_n] * (m_max - 1), form)
    tr_pow = chain(e_mat, [zero] + [half_n1] * (m_max - 1), form)
    neg_k = k_mat.map_entries(lambda e: -e).entries
    neg_p = p_mat.map_entries(lambda e: -e).entries

    checks: List[dict] = []

    def residue_zero(name: str, element: EnvElement) -> None:
        checks.append(_zero_check(name, peel_k(element, zero_chi)))

    checks.append(_zero_check("tr P = tr E (K traceless)",
                              p_traces[1] - e_mat.trace()))

    notes: List[str] = []
    for m in range(1, m_max + 1):
        # diff = (K P^m)_{ij} - (n/2)(P^m)_{ij} + (1/2) tr(P^m) delta_{ij}
        # - sum_nu (P^m)_{nu j} K_{i nu}: the exact identity equates it to
        # the antisymmetrization term, the congruence to 0 modulo U(g) k.
        power = p_pow[m]
        columns = tuple(zip(*power.entries))
        half_trace = p_traces[m].scale(half)
        antisyms = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                column = columns[j - 1]
                diff = (sum_products(k_mat.entries[i - 1] + column,
                                     column + neg_k[i - 1])
                        - power.entry(i, j).scale(half_n))
                if i == j:
                    diff = diff + half_trace
                antisym = (power.entry(j, i) - power.entry(i, j)).scale(half)
                antisyms.append(antisym)
                checks.append(_check(f"exact K P^{m} entry[{i},{j}]",
                                     diff == antisym))
                residue_zero(f"K P^{m} congruence entry[{i},{j}]", diff)
        # Entry by entry: entries (i, j) and (j, i) cancel in any sum.
        residues = [peel_k(a, zero_chi) for a in antisyms]
        checks.append(_zero_check(
            f"antisymmetrization term lies in U(g)k at m={m}",
            next((r for r in residues if not r.is_zero()), residues[0])))
        antisym_nonzero = any(not a.is_zero() for a in antisyms)
        if m <= 1:
            checks.append(_check(f"antisymmetrization term vanishes at m={m}",
                                 not antisym_nonzero, "nonzero"))
        elif antisym_nonzero:
            notes.append(
                f"at m={m} the exact identity needs the antisymmetrization "
                f"term (1/2)((P^{m})^T - P^{m}); it lies in U(g)k, so the "
                "congruence form is unaffected")

        # (E - n/2) P^m == P^{m+1} - (1/2) tr(P^m)  mod U(g) k, on the
        # peeled P^m; the last P^{m+1} is P times it, in the same call.
        peeled_columns = [[peel_k(x, zero_chi) for x in column]
                          for column in columns]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                column = peeled_columns[j - 1]
                if m < m_max:
                    step = (sum_products(shifted.entries[i - 1], column)
                            - p_pow[m + 1].entry(i, j))
                else:
                    step = sum_products(shifted.entries[i - 1] + neg_p[i - 1],
                                        column + column)
                if i == j:
                    step = step + half_trace
                residue_zero(f"step entry[{i},{j}] at m={m}", step)

        # Closed form: P^m == (E - n/2)^{m-1} E + (1/2) sum_{k=2}^m
        #              (E - n/2)^{m-k} tr(P^{k-1})  mod U(g) k.
        closed = closed_head[m - 1]
        for k in range(2, m + 1):
            tr_term = p_traces[k - 1].scale(half)
            closed = closed.add(
                shifted_pow[m - k].map_entries(lambda e, t=tr_term: e * t))
        _congruences(checks, "closed form", p_pow[m], closed, zero_chi,
                     f" at m={m}")

        # Trace identity: tracing the closed form gives the honest statement
        # tr P^m == tr((E - n/2)^{m-1} E) + (1/2) sum_k tr((E - n/2)^{m-k})
        #           tr(P^{k-1})  mod U(g) k.
        residue_zero(f"trace identity at m={m}",
                     p_traces[m] - closed.trace())
        # The one-line shift variant tr((E - (n-1)/2)^{m-1} E) only agrees
        # at m = 1; record its defect for higher m instead of asserting it.
        shift_residue = peel_k(p_traces[m] - tr_pow[m - 1].trace(),
                               zero_chi)
        if m == 1:
            checks.append(_zero_check("single-shift trace form at m=1",
                                      shift_residue))
        elif not shift_residue.is_zero():
            notes.append(
                f"single-shift trace form tr((E-(n-1)/2)^{m - 1}E) misses "
                f"tr(P^{m}) mod U(g)k by: {shift_residue}")

    report = _report("gl-lemma", {"n": n, "mMax": m_max}, checks)
    if notes:
        report["notes"] = notes
    return report
