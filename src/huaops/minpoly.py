"""Minimal polynomials attached to block decompositions of classical algebras.

A block pattern ``Theta`` on one of the algebras from :mod:`huaops.liedata`
(``gl``/``o-odd``/``o-even``/``sp``) together with one character value per
block determines a polynomial ``q(x)`` whose evaluation at the generator
matrix yields two-sided ideal generators.  This module builds the pattern
data (:class:`ThetaData`), the factored polynomial (:class:`MinPoly`), the
per-family rules mapping a boundary node of a real form to such a pattern
(:func:`boundary_theta` / :func:`boundary_degree`), and the product
polynomials of the U(p,q) recursion (:func:`upq_f_polys`), the oracle for
the block pattern of a :class:`~huaops.reduce.UpqCase`, which owns the
U(p,q) eigenvalue schedule and pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .params import ParamPoly, ParamRing, ScalarLike

THETA = "theta"
THETA_BAR = "theta-bar"

ValueLike = Union[ParamPoly, ScalarLike]


def _as_poly(ring: ParamRing, value: ValueLike) -> ParamPoly:
    if isinstance(value, ParamPoly):
        if value.ring is not ring and value.ring != ring:
            raise ValueError("character value from a different parameter ring")
        return value
    return ring.const(value)


# ---------------------------------------------------------------------------
# Block patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaData:
    """A block pattern on a classical algebra with one character value per block.

    ``blocks`` lists the cumulative block ends ``0 < n_1 < ... < n_L = rank``.
    ``char_values`` gives the character value of each block.  The barred
    variant (not for gl) drops the last block from the polynomial's paired
    factors and requires its character value to vanish.
    """

    kind: str
    rank: int
    blocks: Tuple[int, ...]
    char_values: Tuple[ParamPoly, ...]
    variant: str = THETA

    def __post_init__(self):
        if self.kind not in ("gl", "o-odd", "o-even", "sp"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.variant not in (THETA, THETA_BAR):
            raise ValueError(f"unknown variant {self.variant!r}")
        blocks = self.blocks
        if not blocks or blocks[-1] != self.rank:
            raise ValueError(f"blocks {blocks} must end at the rank {self.rank}")
        if any(b <= 0 for b in blocks) or any(
            blocks[i] >= blocks[i + 1] for i in range(len(blocks) - 1)
        ):
            raise ValueError(f"blocks {blocks} must be strictly increasing")
        if len(self.char_values) != len(blocks):
            raise ValueError("need one character value per block")
        if self.variant == THETA_BAR:
            if self.kind == "gl":
                raise ValueError("no barred variant for kind 'gl'")
            if len(blocks) < 2:
                raise ValueError("the barred variant needs at least two blocks")
            if not self.char_values[-1].is_zero():
                raise ValueError(
                    "the barred variant requires the last character value to vanish"
                )

    @property
    def ring(self) -> ParamRing:
        return self.char_values[0].ring

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_end(self, j: int) -> int:
        """Cumulative end ``n_j`` with ``n_0 = 0``."""
        if j == 0:
            return 0
        return self.blocks[j - 1]

    def iota(self, i: int) -> int:
        """The block index ``j`` with ``n_{j-1} < i <= n_j`` (1-based)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"index {i} out of range 1..{self.rank}")
        for j, end in enumerate(self.blocks, start=1):
            if i <= end:
                return j
        raise AssertionError("unreachable: blocks end at the rank")

    def weight_values(self) -> Tuple[ParamPoly, ...]:
        """Character value ``lambda_{iota(i)}`` for each ``i = 1..rank``."""
        return tuple(self.char_values[self.iota(i) - 1] for i in range(1, self.rank + 1))

    def central_index_set(self) -> Tuple[int, ...]:
        """Indices ``j`` of the central generators adjoined to the ideal."""
        L = self.block_count
        if self.kind == "gl":
            return tuple(range(1, L))
        if self.kind == "o-odd":
            if self.variant == THETA:
                return tuple(range(1, L + 1))
            return tuple(range(1, L))
        if self.kind == "sp":
            return tuple(range(1, L))
        # o-even
        base = tuple(range(1, L))
        if self.rank in base:
            return base
        return base + (self.rank,)

    def central_order(self, j: int) -> int:
        """Filtration order of the ``j``-th central generator."""
        if not 1 <= j <= self.rank:
            raise ValueError(f"central index {j} out of range 1..{self.rank}")
        if self.kind == "gl":
            return j
        if self.kind == "o-even" and j == self.rank:
            return self.rank
        return 2 * j


# ---------------------------------------------------------------------------
# Factored polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinPoly:
    """A monic polynomial kept as its list of roots.

    ``p(x) = prod_k (x - roots[k])`` with coefficients in a parameter ring.
    """

    ring: ParamRing
    roots: Tuple[ParamPoly, ...]

    @property
    def degree(self) -> int:
        return len(self.roots)

    def coefficients(self) -> Tuple[ParamPoly, ...]:
        """Coefficients ``c[0..d]`` with ``p(x) = sum c[k] x^k`` (monic)."""
        coeffs: List[ParamPoly] = [self.ring.one()]
        for root in self.roots:
            nxt: List[ParamPoly] = [self.ring.zero()] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - root * c
            coeffs = nxt
        return tuple(coeffs)

    def eval_at(self, value: ValueLike) -> ParamPoly:
        v = _as_poly(self.ring, value)
        out = self.ring.one()
        for root in self.roots:
            out = out * (v - root)
        return out

    def factored_strings(self) -> Tuple[str, ...]:
        out = []
        for root in self.roots:
            if root.is_zero():
                out.append("x")
            else:
                out.append(f"x - ({root})")
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "factors": list(self.factored_strings()),
            "coefficients": [str(c) for c in self.coefficients()],
        }


def minimal_polynomial(theta: ThetaData) -> MinPoly:
    """The factored minimal polynomial of a block pattern.

    Kind ``gl`` contributes one factor per block; the other kinds pair each
    block with a reflected factor, plus a parameter-free extra factor for
    ``o-odd``.  The barred variant replaces the last block's pair by the
    single factor ``x - n_{L-1}``.
    """
    ring = theta.ring
    n = theta.rank
    L = theta.block_count
    lam = theta.char_values

    def bend(j: int) -> ParamPoly:
        return ring.const(theta.block_end(j))

    roots: List[ParamPoly] = []
    if theta.variant == THETA:
        if theta.kind == "gl":
            roots = [lam[j - 1] + bend(j - 1) for j in range(1, L + 1)]
        else:
            if theta.kind == "o-odd":
                reflect = ring.const(2 * n)
                roots.append(ring.const(n))
            elif theta.kind == "sp":
                reflect = ring.const(2 * n + 1)
            else:  # o-even
                reflect = ring.const(2 * n - 1)
            for j in range(1, L + 1):
                roots.append(lam[j - 1] + bend(j - 1))
                roots.append(reflect - lam[j - 1] - bend(j))
    else:
        delta = {"sp": 1, "o-odd": 0, "o-even": -1}[theta.kind]
        reflect = ring.const(2 * n + delta)
        roots.append(bend(L - 1))
        for j in range(1, L):
            roots.append(lam[j - 1] + bend(j - 1))
            roots.append(reflect - lam[j - 1] - bend(j))

    poly = MinPoly(ring, tuple(roots))
    expected = {
        (THETA, "gl"): L,
        (THETA, "o-odd"): 2 * L + 1,
        (THETA, "sp"): 2 * L,
        (THETA, "o-even"): 2 * L,
        (THETA_BAR, "sp"): 2 * L - 1,
        (THETA_BAR, "o-odd"): 2 * L - 1,
        (THETA_BAR, "o-even"): 2 * L - 1,
    }[(theta.variant, theta.kind)]
    assert poly.degree == expected, (theta, poly.degree, expected)
    return poly


# ---------------------------------------------------------------------------
# Boundary nodes of real forms
# ---------------------------------------------------------------------------

def _zero_theta(ring: ParamRing, kind: str, blocks: Sequence[int],
                variant: str = THETA) -> ThetaData:
    blocks = tuple(blocks)
    return ThetaData(
        kind=kind,
        rank=blocks[-1],
        blocks=blocks,
        char_values=tuple(ring.zero() for _ in blocks),
        variant=variant,
    )


def boundary_theta(family: str, node: int, **args: int) -> ThetaData:
    """Block pattern attached to one boundary node of a real form.

    ``node`` is the 1-based restricted Dynkin index.  The pattern's character
    values are left at zero: the polynomial's degree and block structure do
    not depend on them.
    """
    ring = ParamRing()
    i = node

    if family == "sl_split":
        size = args["size"]
        if not 1 <= i <= size - 1:
            raise ValueError(f"node {i} out of range 1..{size - 1}")
        return _zero_theta(ring, "gl", (i, size))

    if family == "su_star":
        size = args["size"]
        rank = size // 2 - 1
        if size % 2 != 0 or rank < 1:
            raise ValueError(f"ambient size {size} must be even and >= 4")
        if not 1 <= i <= rank:
            raise ValueError(f"node {i} out of range 1..{rank}")
        return _zero_theta(ring, "gl", (2 * i, size))

    if family == "su_pq":
        p, q = args["p"], args["q"]
        if not 1 <= q <= p:
            raise ValueError(f"need 1 <= q <= p, got p={p} q={q}")
        if not 1 <= i <= q:
            raise ValueError(f"node {i} out of range 1..{q}")
        if i < q:
            return _zero_theta(ring, "gl", (i, p + q - i, p + q))
        if p == q:
            return _zero_theta(ring, "gl", (q, 2 * q))
        return _zero_theta(ring, "gl", (q, p, p + q))

    if family == "so_pq":
        p, q = args["p"], args["q"]
        if not 1 <= q <= p:
            raise ValueError(f"need 1 <= q <= p, got p={p} q={q}")
        if not 1 <= i <= q:
            raise ValueError(f"node {i} out of range 1..{q}")
        half = (p + q) // 2
        if (p + q) % 2 == 1:
            if i < half:
                return _zero_theta(ring, "o-odd", (i, half), THETA_BAR)
            return _zero_theta(ring, "o-odd", (half,))
        if q == half and i >= half - 1:
            return _zero_theta(ring, "o-even", (half,))
        return _zero_theta(ring, "o-even", (i, half), THETA_BAR)

    if family == "sp_split":
        n = args["n"]
        if not 1 <= i <= n:
            raise ValueError(f"node {i} out of range 1..{n}")
        if i < n:
            return _zero_theta(ring, "sp", (i, n), THETA_BAR)
        return _zero_theta(ring, "sp", (n,))

    if family == "sp_pq":
        p, q = args["p"], args["q"]
        if not 1 <= q <= p:
            raise ValueError(f"need 1 <= q <= p, got p={p} q={q}")
        if not 1 <= i <= q:
            raise ValueError(f"node {i} out of range 1..{q}")
        if p == q and i == q:
            return _zero_theta(ring, "sp", (2 * q,))
        return _zero_theta(ring, "sp", (2 * i, p + q), THETA_BAR)

    if family == "so_star":
        half = args["half"]
        rank = half // 2
        if not 1 <= i <= rank:
            raise ValueError(f"node {i} out of range 1..{rank}")
        if half % 2 == 0 and i == rank:
            return _zero_theta(ring, "o-even", (half,))
        return _zero_theta(ring, "o-even", (2 * i, half), THETA_BAR)

    raise ValueError(f"unknown boundary family {family!r}")


def boundary_degree(family: str, node: int, **args: int) -> int:
    """Degree of the boundary operator at one node, via the block pattern."""
    return minimal_polynomial(boundary_theta(family, node, **args)).degree


# ---------------------------------------------------------------------------
# The U(p,q) recursion polynomials
# ---------------------------------------------------------------------------


def upq_f_polys(schedule: Sequence[ParamPoly], q: int
                ) -> Tuple[MinPoly, MinPoly]:
    """The product polynomial of the U(p,q) recursion and its Shilov extension.

    Returns ``(f, f_ext)`` where ``f(x) = prod_k (x + lambda_k)`` over the
    eigenvalue ``schedule`` (:attr:`~huaops.reduce.UpqCase.schedule`) and
    ``f_ext(x) = (x - s - q) f(x)``, over the schedule's ring.
    """
    ring = schedule[0].ring
    f = MinPoly(ring, tuple(-v for v in schedule))
    f_ext = MinPoly(ring, (ring.var("s") + ring.const(q),) + f.roots)
    return f, f_ext
