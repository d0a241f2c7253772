#!/usr/bin/env python3
"""Mutation catalogue: every mutant listed here must be killed by its tests.

Usage (from the root of the repository)::

    python3 tools/mutants.py              # run every mutant
    python3 tools/mutants.py NAME ...     # run the named mutants
    python3 tools/mutants.py --check      # only check the anchors

A mutant is one exact edit of one file under ``src/``: an anchor text that
occurs there exactly once, and its replacement.  For each mutant the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the edit, and runs the mutant's tests there with
pytest.  The mutant is killed when every one of its tests fails; it
survives when they all pass, and the catalogue is wrong when only some
fail.  The named tests are first run once on an unmutated copy, where they
must all pass.  The exit status is 0 when every mutant is killed, and 1
otherwise, or when an anchor is missing or occurs more than once, or when
pytest cannot run (a collection error is not a kill).  Standard library
only; a full run takes a few minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    anchor: str
    replacement: str
    tests: Tuple[str, ...]  # pytest ids, as the suite prints them


EXACT = "tests/test_reduce.py::test_kernel_columns_are_the_factor_product_prefixes_in_the_module"
DRIVERS = "tests/test_reduce.py::test_membership_drivers_peel_the_character_after_every_factor"
GOLDEN = "tests/test_golden.py::test_canonical_json_digest"
PERTURBED_32 = f"{GOLDEN}[verify upq-theorem --p 3 --q 2 --blocks 1,2 --perturb]"
PERTURBED_22 = f"{GOLDEN}[verify upq-theorem --p 2 --q 2 --blocks 1,2 --perturb]"
KERNEL_32 = f"{GOLDEN}[verify upq-recursion --p 3 --q 2 --blocks 1,2 --kernel]"
GRADES = "tests/test_liedata.py::test_upq32_grades_table"
LEMMA = "tests/test_reduce.py::test_left_action_moves_phi_by_at_least_the_grade"
REAL_FORM = "tests/test_liedata.py::test_real_form_refuses_inconsistent_zones"
CATALOG = "tests/test_liedata.py::test_catalog_is_pinned"
CENTRAL = "tests/test_matop.py::test_trace_powers_are_central"
BOUNDARY = "tests/test_cli.py::test_ranks_are_checked_at_the_boundary"
UPQ_CASE = "tests/test_reduce.py::test_upq_case_checks_ranks_and_blocks"
BAD_RANKS = "tests/test_cli.py::test_upq_rejects_bad_ranks_before_reading_input"
LEMMA_CHAINS = "tests/test_reduce.py::test_gl_lemma_runs_only_the_congruence_chains_in_the_module"
UNPRUNED = "tests/test_matop.py::test_unpruned_module_chain_is_the_peeled_prefix"
SHIFTED_ROOTS = "tests/test_reduce.py::test_every_shifted_root_is_seen_by_the_pruned_chain"
PRODUCTS = ("tests/test_pbw.py::test_monomial_products_match_naive_rewriter",
            "tests/test_pbw.py::test_left_action_matches_naive_rewriter",
            "tests/test_pbw.py::test_naive_rewriter_agrees_on_random_words",
            f"{GOLDEN}[ideal --form glnr --n 5 --blocks 1,2,3,4,5]",
            f"{GOLDEN}[verify upq-theorem --p 2 --q 1 --blocks 1]",
            f"{GOLDEN}[verify gl-lemma --n 3 --m 3]")
READ_OFF = "tests/test_pbw.py::test_in_order_products_are_read_off_and_not_stored"
INTERNED = "tests/test_pbw.py::test_memo_shares_one_object_per_monomial"
OWN_TABLE = "tests/test_pbw.py::test_each_basis_numbers_its_own_monomials"
NORMAL_FORM = ("tests/test_pbw.py::"
               "test_every_interned_monomial_and_memo_value_is_in_normal_form")
CONVERSION = ("tests/test_reduce.py::"
              "test_conversion_peeled_at_every_step_matches_one_peel_at_the_end")
WRITER = ("tests/test_cli.py::test_canonical_json_matches_json_dumps",
          f"{GOLDEN}[ideal --form upq --p 3 --q 2 --blocks 1,2 --restrict-columns]",
          f"{GOLDEN}[ideal --form spnr --n 3 --blocks 1,3]",
          f"{GOLDEN}[ideal --form upq --p 2 --q 2 --blocks 1,2 --restrict-columns]")
GL_LEMMA_GOLDEN = tuple(f"{GOLDEN}[verify gl-lemma --n {n} --m {m}]"
                        for n, m in ((2, 2), (3, 3), (3, 4)))

MUTANTS: Tuple[Mutant, ...] = (
    # The restricted-weight bound of the character chain.
    Mutant("budget-one-over", "src/huaops/matop.py",
           "(len(roots) - m) * step",
           "(len(roots) - m) * step + 1",
           (EXACT,)),
    Mutant("budget-one-under", "src/huaops/matop.py",
           "(len(roots) - m) * step",
           "(len(roots) - m) * step - 1",
           (EXACT, PERTURBED_32, PERTURBED_22, KERNEL_32)),
    Mutant("k-grade-zero", "src/huaops/liedata.py",
           "return tuple(lo for lo, _hi in ranges)",
           "return tuple(max(lo, 0) for lo, _hi in ranges)",
           (GRADES, LEMMA, EXACT, PERTURBED_32)),
    Mutant("n-grade-sign-flipped", "src/huaops/liedata.py",
           "return tuple(lo for lo, _hi in ranges)",
           "return tuple(-lo if lo > 0 else lo for lo, _hi in ranges)",
           (GRADES, EXACT)),
    Mutant("pair-skip-without-post-filter", "src/huaops/matop.py",
           "if mono_grade(mono, grades) <= budget})",
           "if True})",
           (EXACT,)),
    Mutant("pair-skip-one-grade-tight", "src/huaops/pbw.py",
           "if ga + gb > budget:",
           "if ga + gb > budget - 1:",
           (EXACT, PERTURBED_32, PERTURBED_22)),
    # The factor chain and its k-peel.
    Mutant("root-sign-flipped", "src/huaops/matop.py",
           "mat.shift(-root)",
           "mat.shift(root)",
           ("tests/test_matop.py::test_factor_columns_match_coefficient_form",
            "tests/test_reduce.py::test_upq_theorem_driver_small",
            f"{GOLDEN}[verify upq-theorem --p 3 --q 2 --blocks 1,2]")),
    Mutant("peel-skipped-at-the-first-root", "src/huaops/matop.py",
           "[_peel(x, character) for x in product]",
           "[x if m == 1 else _peel(x, character) for x in product]",
           (EXACT, DRIVERS, UNPRUNED, LEMMA_CHAINS)),
    Mutant("module-column-left-unpeeled", "src/huaops/matop.py",
           "if character is not None:",
           "if character is not None and len(done) < len(state) - 1:",
           (EXACT, DRIVERS, UNPRUNED)),
    Mutant("middle-root-shifted", "src/huaops/reduce.py",
           'values.append(ring.var("s"))',
           'values.append(ring.var("s") + 1)',
           (f"{SHIFTED_ROOTS}[3-2]", f"{SHIFTED_ROOTS}[2-1]",
            f"{GOLDEN}[verify upq-theorem --p 3 --q 2 --blocks 1,2]",
            PERTURBED_32)),
    Mutant("character-negated", "src/huaops/matop.py",
           "_peel(x, character)",
           "_peel(x, {g: -v for g, v in character.items()})",
           (EXACT, DRIVERS, PERTURBED_22)),
    Mutant("column-b-started-at-e-b-plus-1", "src/huaops/matop.py",
           "[one if a == b else zero for a in range(1, mat.size + 1)]",
           "[one if a == b + 1 else zero for a in range(1, mat.size + 1)]",
           ("tests/test_matop.py::test_factor_columns_match_coefficient_form",
            "tests/test_matop.py::test_restricted_entries_equal_the_unrestricted_ones",
            "tests/test_matop.py::test_trace_power_matches_power_trace",
            "tests/test_reduce.py::test_upq_theorem_driver_small")),
    Mutant("last-root-dropped", "src/huaops/matop.py",
           "enumerate(roots, start=1)",
           "enumerate(roots[:-1], start=1)",
           ("tests/test_matop.py::test_factor_columns_match_coefficient_form",
            "tests/test_matop.py::test_trace_power_matches_power_trace")),
    Mutant("kept-columns-off-by-one", "src/huaops/matop.py",
           "kept = sorted({j for _i, j in entry_positions(fmat.size, column_range)})",
           "kept = sorted({j - 1 for _i, j in entry_positions(fmat.size, column_range)})",
           ("tests/test_matop.py::test_restricted_ideal_builds_no_unexported_column",
            "tests/test_matop.py::test_restricted_entries_equal_the_unrestricted_ones")),
    Mutant("a-weight-dropped-from-the-peel", "src/huaops/matop.py",
           'values.update((g, weight[g]) for g in basis.zone_indices("a"))',
           "pass",
           ("tests/test_matop.py::test_central_eigenvalue_gl2_degree_two",
            "tests/test_matop.py::test_ideal_generators_gl2_shapes")),
    Mutant("case-chain-passes-no-character", "src/huaops/reduce.py",
           "factor_columns(fmat, roots, columns, form.k_character,",
           "factor_columns(fmat, roots, columns, None,",
           (EXACT, DRIVERS)),
    # The reduction drops the n-zone by giving it the value 0; the theorem
    # reads only the constant term and cannot see it, the radial images can.
    Mutant("n-zone-not-valued-zero", "src/huaops/reduce.py",
           'dict.fromkeys(basis.zone_indices("n"), zero)',
           "{}",
           (KERNEL_32, "tests/test_golden.py::test_radial_image_strings",
            "tests/test_reduce.py::test_gamma_of_gl2_quadratic_casimir",
            "tests/test_reduce.py::"
            "test_reduction_kills_the_defining_left_ideal[upq(2, 1)]")),
    # The GL(n,R) lemma: only its congruence-only chains run in the module,
    # with the zero character and unpruned.
    Mutant("lemma-module-chains-unpeeled", "src/huaops/reduce.py",
           "range(1, n + 1),\n"
           "                                              character)]",
           "range(1, n + 1),\n"
           "                                              None)]",
           (LEMMA_CHAINS,)),
    Mutant("lemma-chains-pruned", "src/huaops/reduce.py",
           "range(1, n + 1),\n"
           "                                              character)]",
           "range(1, n + 1),\n"
           "                                              character,\n"
           "                                              character and form.grades)]",
           # Pruned, the trace chain changes only the report's notes.
           (LEMMA_CHAINS,) + GL_LEMMA_GOLDEN),
    Mutant("p-chain-peeled", "src/huaops/reduce.py",
           "chain(p_mat, [zero] * m_max)",
           "chain(p_mat, [zero] * m_max, form)",
           GL_LEMMA_GOLDEN
           + ("tests/test_acceptance.py::test_criterion_1_gl_lemma",)),
    # The GL(n,R) lemma: each K P^m and step entry is one accumulated
    # difference.
    Mutant("lemma-mirror-product-dropped", "src/huaops/reduce.py",
           "sum_products(k_mat.entries[i - 1] + column,\n"
           "                                     column + neg_k[i - 1])",
           "sum_products(k_mat.entries[i - 1], column)",
           GL_LEMMA_GOLDEN),
    Mutant("lemma-step-trace-sign-flipped", "src/huaops/reduce.py",
           "step = step + half_trace",
           "step = step - half_trace",
           GL_LEMMA_GOLDEN),
    Mutant("lemma-last-step-p-pairs-dropped", "src/huaops/reduce.py",
           "sum_products(shifted.entries[i - 1] + neg_p[i - 1],\n"
           "                                        column + column)",
           "sum_products(shifted.entries[i - 1], column)",
           GL_LEMMA_GOLDEN),
    # The GL(n,R) lemma: the closed form by Horner's rule in M.  An unpeeled
    # closed form changes no residue, so only the capture sees it.
    Mutant("lemma-horner-unpeeled", "src/huaops/reduce.py",
           "[_peel(x + half_traces[m - 1] if i == j else x, zero_chi) for i, x",
           "[(x + half_traces[m - 1] if i == j else x) for i, x",
           (LEMMA_CHAINS,)),
    Mutant("lemma-horner-trace-of-p-m", "src/huaops/reduce.py",
           "x + half_traces[m - 1] if i == j",
           "x + half_traces[m] if i == j",
           GL_LEMMA_GOLDEN),
    # The sign of a Gamma product, read off the exact arguments.
    Mutant("gamma-sign-dropped", "src/huaops/cfun.py",
           "negative = sum(arg < 0 and math.floor(arg) % 2 == 1\n"
           "                       for _, arg, _ in evaluated) % 2 == 1",
           "negative = False",
           ("tests/test_cli.py::"
            "test_cfun_keeps_the_sign_of_gamma_at_negative_arguments",)),
    # The catalog algebras' index rule.
    Mutant("sp-sign-flipped", "src/huaops/liedata.py",
           "sign = 1 if (i <= self.rank) == (bar - j <= self.rank) else -1",
           "sign = -1 if (i <= self.rank) == (bar - j <= self.rank) else 1",
           (CENTRAL, "tests/test_acceptance.py::test_criterion_2_sp_hua_system",
            f"{GOLDEN}[verify sp-hua --n 2]")),
    Mutant("pair-partner-kept", "src/huaops/liedata.py",
           "(i, j) > (size + 1 - j, size + 1 - i)",
           "False",
           ("tests/test_liedata.py::test_algebra_dimensions", CATALOG, CENTRAL)),
    # The degree table's linear expressions.
    Mutant("eval-linear-minus-ignored", "src/huaops/liedata.py",
           'total += -value if sign == "-" else value',
           "total += value",
           ("tests/test_liedata.py::test_eval_linear",
            "tests/test_acceptance.py::test_criterion_6_degree_table")),
    # The one real-form constructor and the CLI boundary.
    Mutant("dimension-check-skipped", "src/huaops/liedata.py",
           "if len(basis) != expected:",
           "if False:",
           tuple(f"{REAL_FORM}[k-dropped-{form}]"
                 for form in ("upq(2, 1)", "spnr(2,)", "glnr(3,)"))),
    Mutant("foreign-rank-flags-ignored", "src/huaops/cli.py",
           "if name not in wanted and getattr(args, name) is not None]",
           "if False]",
           tuple(f"{BOUNDARY}[{case}]" for case in (
               "ideal-spnr-p", "ideal-glnr-pq", "ideal-upq-n", "cfun-upq-n",
               "cfun-spnr-q"))),
    # The canonical JSON writer.
    Mutant("dict-keys-unsorted", "src/huaops/cli.py",
           "for key in sorted(value)]",
           "for key in value]",
           WRITER),
    Mutant("coefficient-texts-per-element", "src/huaops/matop.py",
           '"element": e.to_json_dict(texts)}',
           '"element": e.to_json_dict()}',
           ("tests/test_matop.py::"
            "test_generator_set_formats_each_distinct_coefficient_once",)),
    Mutant("tuple-written-compact", "src/huaops/cli.py",
           "if isinstance(value, (list, tuple)):",
           "if isinstance(value, list):",
           WRITER),
    # The one U(p,q) case: ranks, a-values, bindings and the set reduce reads.
    Mutant("upq-rank-check-skipped", "src/huaops/reduce.py",
           "check_upq_ranks(self.p, self.q)",
           "None",
           (UPQ_CASE,) + tuple(f"{BAD_RANKS}[{case}]" for case in (
               "reduce-p1-q2", "ideal-p1-q2", "upq-theorem-p2-q0",
               "upq-recursion-p1-q2", "upq-recursion-p-1-q1"))),
    Mutant("a-value-block-off-by-one", "src/huaops/reduce.py",
           "sum(end < i for end in self.blocks)",
           "sum(end < i - 1 for end in self.blocks)",
           ("tests/test_reduce.py::test_upq_a_substitution_spec_is_total",
            f"{GOLDEN}[verify upq-theorem --p 3 --q 2 --blocks 1,2]",
            "tests/test_acceptance.py::test_criterion_4_upq_theorem")),
    Mutant("upq-binding-check-skipped", "src/huaops/reduce.py",
           "if name not in self.symbols]",
           "if False]",
           (UPQ_CASE,)
           + tuple(f"tests/test_cli.py::test_reduce_rejects_unknown_binding"
                   f"[{b}]" for b in ("nosuch=1", "E_1=1"))
           + tuple(f"tests/test_cli.py::test_upq_recursion_rejects_unknown_"
                   f"binding[{b}]" for b in ("zzz=3", "E_1=1"))),
    Mutant("repeated-binding-allowed", "src/huaops/reduce.py",
           "if repeated:",
           "if False:",
           tuple(f"tests/test_cli.py::test_reduce_rejects_unknown_binding[{b}]"
                 for b in ("s=1 s=2", "mu_1=1 t=0 mu_1=1"))
           + ("tests/test_cli.py::test_upq_recursion_rejects_unknown_binding"
              "[s=1 s=2]",)
           + tuple(f"tests/test_cli.py::test_cfun_refuses_a_coordinate_bound_"
                   f"twice[{case}]" for case in (
                       "lambda_1=1 lambda_1=3 lambda_2=0-lambda_1",
                       "lambda_1=1 lambda_2=0 ell=1 ell=1-ell"))),
    Mutant("reduce-case-check-skipped", "src/huaops/cli.py",
           "if built_for.get(key) != expected.get(key))",
           'if key == "basisId" and built_for.get(key) != expected.get(key))',
           ("tests/test_cli.py::test_reduce_refuses_a_set_built_for_another_case",)),
    Mutant("reduce-entry-positions-unchecked", "src/huaops/cli.py",
           "if (type(row), type(col)) != (int, int) or (row, col) != want:",
           "if False:",
           tuple(f"tests/test_cli.py::test_reduce_refuses_entries_that_are_not_"
                 f"the_set[{edit}]"
                 for edit in ("duplicated", "extra-at-7-7", "row-x-col-9"))),
    # The one straightening recursion of mul_monos.
    Mutant("front-bracket-sign-flipped", "src/huaops/pbw.py",
           "acc[m1] = get(m1, 0) + ck * c1",
           "acc[m1] = get(m1, 0) - ck * c1",
           PRODUCTS),
    Mutant("merge-keeps-the-old-exponent", "src/huaops/pbw.py",
           "return (self.mono_id(ta[:-1] + ((g, e + f),) + tb[1:]), 1)",
           "return (self.mono_id(ta[:-1] + ((g, f),) + tb[1:]), 1)",
           PRODUCTS + (READ_OFF,)),
    # Not the (2,1) theorem digest: its residues survive this mutant.
    Mutant("in-order-path-takes-equal-generators", "src/huaops/pbw.py",
           "        if g < h:\n            return (self.mono_id(ta + tb), 1)",
           "        if g <= h:\n            return (self.mono_id(ta + tb), 1)",
           tuple(t for t in PRODUCTS if "upq-theorem" not in t)
           + (READ_OFF, NORMAL_FORM)),
    # The one conversion: each generator image multiplied in on the left,
    # the k-tails peeled after every step.
    Mutant("generator-multiplied-on-the-right", "src/huaops/pbw.py",
           "sum_products(heads, converted)",
           "sum_products(converted, heads)",
           (CONVERSION, "tests/test_pbw.py::test_change_basis_is_multiplicative",
            "tests/test_pbw.py::test_change_basis_round_trip",
            "tests/test_golden.py::test_reduce_of_the_export_digest")),
    Mutant("conversion-peel-character-negated", "src/huaops/pbw.py",
           "_peel(sum_products(heads, converted), character)",
           "_peel(sum_products(heads, converted),\n"
           "                                {g: -v for g, v in character.items()})",
           (CONVERSION, "tests/test_golden.py::test_reduce_of_the_export_digest",
            "tests/test_golden.py::test_reduce_of_the_benchmark_export_digest")),
    # One id table per basis, its degrees, the packed memo key, and the
    # flat accumulator.
    Mutant("one-id-table-for-two-bases", "src/huaops/pbw.py",
           "        self._monomials: Dict[Monomial, int] = {}\n"
           "        self._mono_tuples: List[Monomial] = []\n"
           "        self._mono_degrees: List[int] = []\n",
           "        self._monomials, self._mono_tuples, self._mono_degrees = \\\n"
           "            globals().setdefault(\"_SHARED_TABLE\", ({}, [], []))\n",
           (OWN_TABLE, INTERNED)),
    Mutant("stale-per-id-degree", "src/huaops/pbw.py",
           "self._mono_degrees.append(mono_degree(mono))",
           "self._mono_degrees.append(mono_degree(self._mono_tuples[new - 1]))",
           (INTERNED, NORMAL_FORM,
            "tests/test_pbw.py::test_left_action_matches_naive_rewriter",
            f"{GOLDEN}[verify upq-theorem --p 2 --q 1 --blocks 1]")),
    Mutant("memo-key-drops-a", "src/huaops/pbw.py",
           "key = a << ID_BITS | b",
           "key = b",
           PRODUCTS + ("tests/test_pbw.py::test_left_action_matches_naive_rewriter",)),
    Mutant("flat-accumulator-keeps-zero", "src/huaops/pbw.py",
           "            if k:\n                nums = gathered.get(m)",
           "            if True:\n                nums = gathered.get(m)",
           ("tests/test_pbw.py::test_sum_products_column_matches_naive_products",
            NORMAL_FORM)),
    # The int arithmetic under the products.
    Mutant("scale-forced-to-1", "src/huaops/pbw.py",
           "return lcm(*(c.denominator for i in range(n)",
           "return 1 or lcm(*(c.denominator for i in range(n)",
           ("tests/test_pbw.py::test_basis_scale_is_the_bracket_denominator",
            "tests/test_pbw.py::test_left_action_matches_naive_rewriter")),
    Mutant("gcd-reduction-skipped", "src/huaops/params.py",
           "if g != 1:",
           "if False:",
           ("tests/test_params.py::test_canonical_fields",
            "tests/test_params.py::test_equal_polys_are_equal_whatever_built_them",
            NORMAL_FORM)),
    # The coefficient parser refuses exponents below 1.
    Mutant("coefficient-exponent-unchecked", "src/huaops/params.py",
           "if not (p.isascii() and p.isdigit()) or int(p) < 1:",
           "if False:",
           tuple(f"tests/test_params.py::test_malformed_exponents_are_refused"
                 f"[{case}]" for case in ("negative", "zero"))
           + tuple(f"tests/test_cli.py::test_malformed_reduce_input_is_a_usage_"
                   f"error[{case}]" for case in ("exponent-negative",
                                                 "exponent-zero"))
           + tuple(f"tests/test_cli.py::test_bound_reduce_refuses_an_exponent_"
                   f"below_one[{coeff}-{exponent}]"
                   for coeff, exponent in (("mu_1^-1", "-1"), ("s^0", "0")))),
    # One rational literal, as ParamPoly prints it, in coefficients and
    # --bind.  The named bind cases exclude 1e999999999: Fraction would
    # take hours to read it.
    Mutant("rational-literal-fallback", "src/huaops/params.py",
           'raise ValueError(f"{text!r} is not a rational literal like 3 or 3/4")',
           "value = Fraction(text)\n"
           "        return value.numerator, value.denominator",
           tuple(f"tests/test_cli.py::test_malformed_reduce_input_is_a_usage_"
                 f"error[coeff-{literal}]"
                 for literal in ("1e3", "1.5", "1_000", "arabic-indic-3",
                                 "1e5000"))
           + tuple(f"tests/test_params.py::test_as_fraction_refuses_other_"
                   f"literals[{literal}]" for literal in ("1e3", "0.5", "1_000"))
           + tuple(f"tests/test_cli.py::test_upq_recursion_rejects_a_"
                   f"noncanonical_rational[{binding}]"
                   for binding in ("s=1e3", "s=0.5", "s=1_0", "s=1e5000"))),
)


def anchor_problems(root: Path = ROOT) -> List[str]:
    """One line per mutant whose anchor is not in its file exactly once."""
    problems = []
    for mutant in MUTANTS:
        path = root / mutant.path
        count = path.read_text(encoding="utf-8").count(mutant.anchor) \
            if path.is_file() else 0
        if count != 1:
            problems.append(f"{mutant.name}: anchor found {count} times in "
                            f"{mutant.path}: {mutant.anchor!r}")
    return problems


def _copy(tree: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in COPIED:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, tree / part, ignore=ignore)
        else:
            tree.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / part)


def _pytest(tree: Path, tests: Sequence[str]) -> str:
    """How ``tests`` end in ``tree``: "passed", "failed", "mixed" or "error"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    if run.returncode == 0:
        return "passed"
    if run.returncode == 1:
        return "mixed" if " passed" in summary else "failed"
    return "error"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--check", action="store_true",
                        help="only check that every anchor is in its file once")
    args = parser.parse_args(argv)
    problems = anchor_problems()
    known = {mutant.name for mutant in MUTANTS}
    problems += [f"{name}: no such mutant" for name in args.names
                 if name not in known]
    if problems:
        print("\n".join(problems))
        return 1
    if args.check:
        print(f"{len(MUTANTS)} anchors found")
        return 0
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        _copy(base)
        named = sorted({test for mutant in chosen for test in mutant.tests})
        outcome = _pytest(base, named)
        if outcome != "passed":
            print(f"the named tests do not all pass on the unmutated copy "
                  f"({outcome})")
            return 1
        for mutant in chosen:
            tree = Path(tmp) / mutant.name
            _copy(tree)
            path = tree / mutant.path
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.anchor, mutant.replacement),
                            encoding="utf-8")
            outcome = _pytest(tree, mutant.tests)
            verdict = {"failed": "killed", "passed": "SURVIVED",
                       "mixed": "SOME TESTS PASS", "error": "ERROR"}[outcome]
            failed = failed or outcome != "failed"
            print(f"{verdict:>16}  {mutant.name}", flush=True)
            shutil.rmtree(tree)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
