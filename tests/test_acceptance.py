"""Acceptance gate: one test per criterion, pinned tolerances, timed budgets.

Symbolic identities are checked exactly (residue polynomial equal to zero);
the only floating-point comparisons are the Gamma-quotient re-evaluations in
criterion 8, pinned at 1e-12.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from huaops.cfun import FLOAT_TOL, c_function, dominant_grid_report, e_c_line_bundle, e_function
from huaops.liedata import (
    glnr_root_system,
    make_algebra,
    satake_table,
    spnr_root_system,
    upq_root_system,
)
from huaops.matop import (
    adjoint_covariance_defect,
    generator_matrix,
    mat_eval_poly,
    trace_power,
)
from huaops.minpoly import boundary_degree
from huaops.params import ParamRing
from huaops.pbw import EnvElement, naive_normal_order, word_mono
from huaops.reduce import (
    UpqCase,
    gl_lemma_check,
    hua_sp_system,
    upq_scalar_recursion,
    upq_shilov_identity,
    upq_theorem_case,
)

THEOREM_CASES = [
    (1, 1, (1,)),
    (2, 1, (1,)),
    (2, 2, (1, 2)),
    (2, 2, (2,)),
    (3, 2, (1, 2)),
]


def _assert_report(report, label, budget, elapsed):
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["pass"], f"{label}: failing checks {failing}"
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded the {budget}s budget"


def test_criterion_1_gl_lemma():
    # exact matrix identities for GL(n,R), n in {2,3}, m in {1,2,3,4};
    # residues exactly zero; each case under 60 s
    for n in (2, 3):
        start = time.perf_counter()
        report = gl_lemma_check(n, 4)
        _assert_report(report, f"gl-lemma n={n}", 60.0, time.perf_counter() - start)
    print("[criterion 1] PASS: GL(n,R) lemma exact for n in {2,3}, m in {1..4}")


def test_criterion_2_sp_hua_system():
    # block commutation identity with constant (n+1)/2 and the full block
    # identity, symbolic lambda and ell; each case under 120 s
    for n in (1, 2, 3):
        start = time.perf_counter()
        report = hua_sp_system(n)
        _assert_report(report, f"sp-hua n={n}", 120.0, time.perf_counter() - start)
    print("[criterion 2] PASS: Sp(n,R) Hua system exact for n in {1,2,3}")


def test_criterion_3_upq_shilov_example():
    # the 2x2-block evaluation with symbolic lambda, s, t, including the
    # (q-p) Q lower-left block and the -(s-t) p diagonal shift
    for p, q in ((1, 1), (2, 1), (2, 2), (3, 2)):
        start = time.perf_counter()
        report = upq_shilov_identity(p, q)
        _assert_report(report, f"shilov ({p},{q})", 120.0, time.perf_counter() - start)
    print("[criterion 3] PASS: U(p,q) Shilov block identity exact for four (p,q)")


def test_criterion_4_upq_theorem():
    # every generator-matrix entry reduces to exactly 0 with symbolic mu, s, t
    for p, q, blocks in THEOREM_CASES:
        start = time.perf_counter()
        report = upq_theorem_case(UpqCase(p, q, blocks))
        _assert_report(
            report, f"theorem ({p},{q},{blocks})", 300.0, time.perf_counter() - start
        )
    control = upq_theorem_case(UpqCase(2, 1, (1,)), perturb=True)
    assert not control["pass"], "perturbed eigenvalue schedule must break membership"
    assert any(c["residue"] != "0" for c in control["checks"])
    print("[criterion 4] PASS: boundary membership exact on 5 cases; perturbed control FAILS")


def test_criterion_5_scalar_recursion_oracle():
    # vanishing pattern of the five-family recursion for all q <= 4, L <= 3
    for q in range(1, 5):
        ends = range(1, q)
        for L in range(1, min(q, 3) + 1):
            for inner in itertools.combinations(ends, L - 1):
                blocks = tuple(inner) + (q,)
                for p in (q, q + 1):
                    report = upq_scalar_recursion(UpqCase(p, q, blocks))
                    failing = [c["name"] for c in report["checks"] if not c["pass"]]
                    assert report["pass"], f"recursion ({p},{q},{blocks}): {failing}"
    # diagonal values agree exactly with the kernel pipeline before the
    # a-substitution, on the criterion-4 cases
    for p, q, blocks in THEOREM_CASES:
        report = upq_scalar_recursion(UpqCase(p, q, blocks), compare_kernel=True)
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert report["pass"], f"kernel-compare ({p},{q},{blocks}): {failing}"
    print("[criterion 5] PASS: recursion vanishing for q<=4, L<=3; kernel agreement exact")


def test_criterion_6_degree_table():
    start = time.perf_counter()
    table = satake_table()
    nodes_checked = 0
    for row in table.rows:
        if row.family != "classical":
            continue
        if isinstance(row.rank, int):
            ranks = [None]  # fixed-rank row; rank implied
        else:
            ranks = [r for r in range(2, 7) if r >= row.rank_min]
        params = (
            [row.param_min, row.param_min + 1, row.param_min + 2]
            if row.param
            else [None]
        )
        for rank in ranks:
            for m in params:
                degrees = row.node_degrees(rank, m)
                for node_index, degree in enumerate(degrees, start=1):
                    args = dict(row.construction_args(node_index, rank, m))
                    family = args.pop("family")
                    node_arg = args.pop("node")
                    produced = boundary_degree(family, node_arg, **args)
                    assert produced == degree, (
                        f"{row.full_label} rank={rank} m={m} node={node_index}: "
                        f"constructed {produced} != table {degree}"
                    )
                    nodes_checked += 1
    elapsed = time.perf_counter() - start
    assert nodes_checked > 200
    assert elapsed < 10.0, f"degree table sweep took {elapsed:.1f}s"
    print(f"[criterion 6] PASS: {nodes_checked} table nodes reproduced in {elapsed:.1f}s")


def test_criterion_7_centrality_and_covariance():
    start = time.perf_counter()
    ring = ParamRing()
    # trace powers commute with every generator
    centrality_cases = [
        ("gl", 1, (1, 2, 3)),
        ("gl", 2, (1, 2, 3)),
        ("gl", 3, (1, 2, 3)),
        ("sp", 1, (2, 4, 6)),
        ("sp", 2, (2, 4, 6)),
        ("o-even", 2, (2, 4, 6)),
        ("o-odd", 2, (2, 4, 6)),
    ]
    for kind, n, orders in centrality_cases:
        algebra = make_algebra(kind, n)
        fmat = generator_matrix(algebra, ring)
        for order in orders:
            d = trace_power(fmat, order)
            assert not d.is_zero(), f"tr F^{order} vanishes in {kind}_{n}"
            for g in range(len(algebra.basis)):
                x = EnvElement.generator(algebra.basis, ring, g)
                assert d.commutator(x).is_zero(), (
                    f"tr F^{order} fails to commute with {algebra.basis.names[g]} in {kind}_{n}"
                )
    # adjoint covariance of polynomial matrices with generic coefficients
    cring = ParamRing(("c0", "c1", "c2", "c3"))
    coeffs = [cring.var(f"c{k}") for k in range(4)]
    for kind, n in (("gl", 2), ("gl", 3), ("sp", 1), ("sp", 2), ("o-even", 2), ("o-odd", 2)):
        algebra = make_algebra(kind, n)
        qmat = mat_eval_poly(generator_matrix(algebra, cring), coeffs)
        for g in range(len(algebra.basis)):
            assert adjoint_covariance_defect(algebra, qmat, g).is_zero(), (
                f"q(F) not equivariant under {algebra.basis.names[g]} in {kind}_{n}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"centrality/covariance took {elapsed:.1f}s"
    print(f"[criterion 7] PASS: centrality and covariance exact in {elapsed:.1f}s")


def test_criterion_8_c_functions():
    start = time.perf_counter()
    plain_systems = [
        glnr_root_system(2),
        glnr_root_system(3),
        upq_root_system(1, 1),
        upq_root_system(2, 1),
        upq_root_system(2, 2),
        upq_root_system(3, 2),
        spnr_root_system(1),
        spnr_root_system(2),
        spnr_root_system(3),
    ]
    for rs in plain_systems:
        report = c_function(rs, rs.half_sum())
        assert report["value"] == 1.0, f"{rs.label}: c(rho) != 1"
        assert report["normalization"]["drift"] <= FLOAT_TOL
        grid = dominant_grid_report(rs)
        assert grid["pass"] and grid["points"] > 0, f"{rs.label}: grid {grid['failures']}"
    for rs in (spnr_root_system(1), spnr_root_system(2), upq_root_system(2, 2)):
        report = e_c_line_bundle(rs, rs.half_sum(), 0)
        assert report["c"]["value"] == 1.0, f"{rs.label}: c(rho, 0) != 1"
        assert report["c"]["normalization"]["drift"] <= FLOAT_TOL
    # constructed Gamma-pole points: exact nonpositive-integer certificates
    zero_points = [
        (glnr_root_system(2), (Fraction(-3, 2), Fraction(3, 2)), "e1-e2"),
        (upq_root_system(2, 1), (Fraction(-2),), "e1"),
    ]
    for rs, lam, witness in zero_points:
        report = e_function(rs, lam)
        assert report["zero"] and report["witnessRoot"] == witness
        for cert in report["zeros"]:
            arg = Fraction(cert["argument"])
            assert arg.denominator == 1 and arg <= 0
    # independent hand value: c(2 rho) = 2/pi for GL(2,R)
    hand = c_function(glnr_root_system(2), (1, -1))
    assert abs(hand["value"] - 2.0 / math.pi) <= FLOAT_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"c-function checks took {elapsed:.1f}s"
    print(f"[criterion 8] PASS: normalizations, certificates, grids in {elapsed:.1f}s")


def _random_element(basis, ring, rng, *, max_degree=2, max_terms=3):
    out = EnvElement.zero(basis, ring)
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.randrange(len(basis)) for _ in range(rng.randint(0, max_degree))]
        term = EnvElement.scalar(
            basis, ring.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        )
        for g in word:
            term = term * EnvElement.generator(basis, ring, g)
        out = out + term
    return out


def test_criterion_9_kernel_properties():
    start = time.perf_counter()
    ring = ParamRing()
    # associativity on randomized triples of small elements
    for n, cases in ((2, 60), (3, 40)):
        basis = make_algebra("gl", n).basis
        rng = random.Random(40_000 + n)
        for _ in range(cases):
            a, b, c = (_random_element(basis, ring, rng) for _ in range(3))
            assert ((a * b) * c - a * (b * c)).is_zero()
    # Jacobi identity on randomized generator triples
    basis3 = make_algebra("gl", 3).basis
    rng = random.Random(41)
    for _ in range(60):
        x, y, z = (
            EnvElement.generator(basis3, ring, rng.randrange(len(basis3)))
            for _ in range(3)
        )
        jac = (
            x.commutator(y.commutator(z))
            + z.commutator(x.commutator(y))
            + y.commutator(z.commutator(x))
        )
        assert jac.is_zero()
    # filtration degree bound
    rng = random.Random(43)
    for _ in range(40):
        a = _random_element(basis3, ring, rng)
        b = _random_element(basis3, ring, rng)
        ab = a * b
        if not (a.is_zero() or b.is_zero()):
            assert ab.degree() <= a.degree() + b.degree()
    # normal ordering fixes ordered monomials
    rng = random.Random(47)
    for _ in range(30):
        word = tuple(sorted(rng.randrange(len(basis3)) for _ in range(4)))
        assert naive_normal_order(basis3, word) == {word_mono(word): Fraction(1)}
    # dual oracle: engine multiply vs one-swap-at-a-time rewriter
    for i in range(len(basis3)):
        for j in range(len(basis3)):
            engine = EnvElement.generator(basis3, ring, i) * EnvElement.generator(
                basis3, ring, j
            )
            naive = naive_normal_order(basis3, (i, j))
            assert {m: c.constant_value() for m, c in engine.terms.items()} == naive
    rng = random.Random(53)
    for _ in range(25):
        word = tuple(rng.randrange(len(basis3)) for _ in range(3))
        elem = EnvElement.scalar(basis3, ring.one())
        for g in word:
            elem = elem * EnvElement.generator(basis3, ring, g)
        assert {
            m: c.constant_value() for m, c in elem.terms.items()
        } == naive_normal_order(basis3, word)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"kernel suites took {elapsed:.1f}s"
    print(f"[criterion 9] PASS: associativity, Jacobi, filtration, dual oracle in {elapsed:.1f}s")
