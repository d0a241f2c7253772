"""Batch command-line front end.

Subcommands mirror the verification targets: ``ideal`` exports a generator
set as JSON, ``reduce`` reduces an exported set modulo the boundary ideal,
``verify`` runs one of the named identity suites (``gl-lemma``, ``sp-hua``,
``upq-shilov``, ``upq-theorem``, ``upq-recursion``), ``cfun`` evaluates the
spherical e-/c-functions, and ``degrees`` queries the boundary degree table.

Exit status 0 means success (and PASS for ``verify``), 1 a verification
FAIL, 2 a usage error, 3 an internal fault: any other exception, such as
memory exhausted, recursion too deep, an arithmetic error (a scaled
coefficient that is not an integer), a ``ValueError`` or ``KeyError`` (a
ring mismatch, an unclosed basis), an ``IndexError`` or a failed assertion.
Every argument and every part of an input file is checked at this boundary
and refused as a :class:`UsageError`, so an exception that reaches
:func:`run` is a fault of the program, never of the request.  An internal
fault prints one line on standard error,
``internal error: <type>: <message>``.  ``--json`` prints the report as
canonical JSON on standard output; ``--out FILE`` writes the same JSON to a
file, rendered once for both.  An ``--out`` target that is a directory,
or whose parent is missing or not a directory, is refused as a usage error
before the request's work starts.  Identical requests produce byte-identical
JSON: no report holds a timing.  Canonical JSON is exactly the bytes of
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, but is not
written by it: with an ``indent`` that call runs the pure-Python encoder,
which took longer than building a large ``ideal`` export and held every
chunk of it at once.  :func:`_canonical_json` writes the same bytes in one
pass, with the C string escaper that ``json.dumps`` itself uses.  A rank
flag that does not apply to ``--form`` (``--n`` with ``upq``, ``--p`` or
``--q`` with ``spnr`` or ``glnr``) is a usage error.
A U(p,q) request (``ideal --form upq``, ``reduce``, ``verify upq-theorem``
and ``upq-recursion``) first builds its one :class:`~huaops.reduce.UpqCase`,
which checks the ranks, the blocks and (through
:meth:`~huaops.reduce.UpqCase.bindings`) every ``--bind`` symbol, bound
once, so each
of those is refused before any input is read, and which the two ``verify``
drivers take as it is; ``verify upq-shilov`` and
``cfun --form upq`` check their ranks with
:func:`~huaops.liedata.check_upq_ranks`, the function the case calls.
``reduce`` refuses a generator set whose metadata, ``columnRange`` aside,
is not :func:`~huaops.matop.ideal_metadata` of the requested case, or whose
``(row, col)`` pairs are not the ``entry_positions`` of its ``columnRange``
in order, or an entry with a monomial or a coefficient of degree above that
of the case's minimal polynomial.  A rational literal, in ``--bind`` (after
an optional ``-``) or a coefficient, is what
:func:`~huaops.params.parse_rational` reads: ``1/2``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, NoReturn, Optional, Sequence, Tuple

from .cfun import c_function, e_c_line_bundle, e_function
from .liedata import (check_upq_ranks, glnr_root_system, make_algebra,
                      satake_table, spnr_root_system, upq_root_system)
from .matop import (GeneratorSet, entry_positions, ideal_generators,
                    ideal_metadata)
from .minpoly import THETA, THETA_BAR, ThetaData, minimal_polynomial
from .params import ParamRing, as_fraction
from .pbw import EnvElement
from .reduce import (UpqCase, _bound_once, gl_lemma_check, hua_sp_system,
                     reduce_iwasawa, upq_scalar_recursion,
                     upq_shilov_identity, upq_theorem_case)

__all__ = ["build_parser", "run", "main"]

_UPQ_SYMBOL_HELP = (
    "bindings use sym=rational, e.g. --bind mu_1=3/2 --bind s=0")


class UsageError(Exception):
    """A request that is well-formed for argparse but invalid for the task."""


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _blocks(text: str) -> Tuple[int, ...]:
    try:
        out = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"blocks must be comma-separated integers, got {text!r}")
    return out


# The recursion tables print powers of a bound value up to the 4th at U(3,2)
# and U(4,2).  A reduce input entry holds no monomial and no coefficient of
# degree above d, the degree of its case's minimal polynomial (2L, or 2L + 1
# when p > q, for L blocks: 4 at U(2,2) and 5 at U(3,2) with two blocks);
# ``reduce`` refuses more.  A term of its residue is an input coefficient
# times at most d k- and a-values, each linear in the symbols, so a bound
# value enters it to a power of at most 2d.  A value or an input coefficient
# of at most this many digits thus gives a term of at most about
# 100 (2d + 1) digits, 900 at d = 4 and 1,100 at d = 5, below the
# interpreter's 4,300-digit limit on int-to-string conversion up to d = 20.
_BIND_DIGITS = 100


def _binding(text: str) -> Tuple[str, Fraction]:
    """``sym=rational``, read by :func:`as_fraction`, with a numerator and
    a denominator of at most ``_BIND_DIGITS`` digits."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"bindings must look like sym=rational, got {text!r}")
    try:
        bound = as_fraction(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse {value!r} as a rational for {name!r}")
    if max(abs(bound.numerator), bound.denominator) >= 10 ** _BIND_DIGITS:
        raise argparse.ArgumentTypeError(
            f"the value for {name!r} has a numerator or denominator of more "
            f"than {_BIND_DIGITS} digits")
    return name, bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huaops",
        description="exact generator-set construction and identity "
                    "verification for boundary ideals of classical forms")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="print the full JSON report on stdout")
    output.add_argument("--out", metavar="FILE",
                        help="also write the JSON report to FILE")
    upq_case = argparse.ArgumentParser(add_help=False)
    upq_case.add_argument("--p", type=int, required=True)
    upq_case.add_argument("--q", type=int, required=True)
    upq_case.add_argument("--blocks", type=_blocks, required=True,
                          help="cumulative block ends a,b,c")

    sub = parser.add_subparsers(dest="command", required=True)

    ideal = sub.add_parser(
        "ideal", parents=[output],
        help="export a generator set (matrix entries plus central elements)")
    ideal.add_argument("--form", required=True,
                       choices=("upq", "spnr", "glnr"))
    ideal.add_argument("--p", type=int)
    ideal.add_argument("--q", type=int)
    ideal.add_argument("--n", type=int)
    ideal.add_argument("--blocks", type=_blocks, required=True,
                       help="cumulative block ends a,b,c")
    ideal.add_argument("--restrict-columns", action="store_true",
                       help="keep only the entries in the last q columns")
    ideal.add_argument("--variant", choices=(THETA, THETA_BAR),
                       default=THETA)

    red = sub.add_parser(
        "reduce", parents=[output, upq_case],
        help="reduce an exported upq generator set modulo the boundary "
             "ideal (JSON on stdin)")
    red.add_argument("--form", required=True, choices=("upq",))
    red.add_argument("--bind", type=_binding, action="append", default=[],
                     metavar="SYM=RAT", help=_UPQ_SYMBOL_HELP)
    red.add_argument("--in", dest="infile", metavar="FILE",
                     help="read the generator-set JSON from FILE instead "
                          "of stdin")

    verify = sub.add_parser("verify", help="run one verification suite")
    target = verify.add_subparsers(dest="target", required=True)

    gl = target.add_parser("gl-lemma", parents=[output])
    gl.add_argument("--n", type=int, required=True)
    gl.add_argument("--m", type=int, required=True,
                    help="largest matrix power to verify")

    sp = target.add_parser("sp-hua", parents=[output])
    sp.add_argument("--n", type=int, required=True)

    shilov = target.add_parser("upq-shilov", parents=[output])
    shilov.add_argument("--p", type=int, required=True)
    shilov.add_argument("--q", type=int, required=True)

    theorem = target.add_parser("upq-theorem", parents=[output, upq_case])
    theorem.add_argument("--perturb", action="store_true",
                         help="shift the first eigenvalue by one (the "
                              "membership residues must then be nonzero)")

    recursion = target.add_parser("upq-recursion", parents=[output, upq_case])
    recursion.add_argument("--kernel", action="store_true",
                           help="also reduce every partial product of "
                                "the factor chain through the PBW kernel "
                                "and compare")
    recursion.add_argument("--bind", type=_binding, action="append",
                           default=[], metavar="SYM=RAT",
                           help="numeric values for rendering the tables; "
                                + _UPQ_SYMBOL_HELP)

    cf = sub.add_parser(
        "cfun", parents=[output],
        help="evaluate the spherical e- and c-functions at an exact point")
    cf.add_argument("--form", required=True, choices=("upq", "spnr", "glnr"))
    cf.add_argument("--p", type=int)
    cf.add_argument("--q", type=int)
    cf.add_argument("--n", type=int)
    cf.add_argument("--bind", type=_binding, action="append", default=[],
                    metavar="SYM=RAT",
                    help="lambda_1..lambda_r coordinates (default: rho) "
                         "and optionally the level ell")

    deg = sub.add_parser(
        "degrees", parents=[output],
        help="boundary degrees at every node of a diagram row")
    deg.add_argument("--diagram", required=True,
                     help='row label, e.g. "A_n^1" or "BC_n^{2m,2,1}"')
    deg.add_argument("--n", type=int, help="rank for parametric rows")
    deg.add_argument("--m", type=int,
                     help="extra row parameter when the label needs one")

    return parser


_RANK_FLAGS = {"upq": ("p", "q"), "spnr": ("n",), "glnr": ("n",)}


def _ranks(args: argparse.Namespace) -> List[int]:
    """The rank flags of ``--form``: each one required, every other refused."""
    wanted = _RANK_FLAGS[args.form]
    stray = [f"--{name}" for name in ("p", "q", "n")
             if name not in wanted and getattr(args, name) is not None]
    if stray:
        raise UsageError(f"--form {args.form} takes no {' or '.join(stray)}")
    out = []
    for name in wanted:
        value = getattr(args, name)
        if value is None:
            raise UsageError(
                f"--form {args.form} requires --{name}")
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (report dict, exit code))
# ---------------------------------------------------------------------------

def _upq(check, *args):
    """``check(*args)``, with its ``ValueError`` as a :class:`UsageError`.

    ``check`` is :func:`~huaops.liedata.check_upq_ranks`, :class:`UpqCase`
    or :meth:`UpqCase.bindings`: every upq request checks its ranks, blocks
    and bindings this way before it reads any input or builds anything
    (and ``reduce`` its input's ``columnRange``, with ``entry_positions``).
    """
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_generator_set(args: argparse.Namespace) -> GeneratorSet:
    if args.form == "upq":
        if args.variant != THETA:
            raise UsageError(
                "the upq construction fixes the plain variant; use "
                "--form spnr for the barred one")
        p, q = _ranks(args)
        case = _upq(UpqCase, p, q, args.blocks)
        column_range = (p + 1, p + q) if args.restrict_columns else None
        return ideal_generators(make_algebra("gl", p + q), case.theta,
                                column_range=column_range)
    if args.restrict_columns:
        raise UsageError("--restrict-columns applies to --form upq only")
    (n,) = _ranks(args)
    kind = {"spnr": "sp", "glnr": "gl"}[args.form]
    barred = args.variant == THETA_BAR  # the last block's value is 0
    ring = ParamRing(f"lambda_{j}"
                     for j in range(1, len(args.blocks) + 1 - barred))
    values = [ring.var(s) for s in ring.symbols] + [ring.zero()] * barred
    try:
        theta = ThetaData(kind=kind, rank=n, blocks=tuple(args.blocks),
                          char_values=tuple(values), variant=args.variant)
    except ValueError as exc:  # --n, --blocks and --variant disagree
        raise UsageError(str(exc)) from None
    return ideal_generators(make_algebra(kind, n), theta)


def _cmd_ideal(args: argparse.Namespace) -> Tuple[dict, int]:
    gens = _build_generator_set(args)
    return gens.to_json_dict(), 0


def _cmd_reduce(args: argparse.Namespace) -> Tuple[dict, int]:
    p, q = args.p, args.q
    case = _upq(UpqCase, p, q, args.blocks)
    bindings = _upq(case.bindings, args.bind)
    form = case.form
    ambient = make_algebra("gl", p + q)
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
        meta = doc.get("metadata", {})
        built_for = {k: v for k, v in meta.items() if k != "columnRange"}
        records = list(doc.get("entries", []))
    except (ValueError, TypeError, AttributeError) as exc:  # not a set
        raise UsageError(str(exc)) from None
    except RecursionError:  # nested past the JSON decoder's depth limit
        raise UsageError("input JSON nests too deeply") from None
    expected = ideal_metadata(case.theta, ambient)
    wrong = sorted(key for key in expected.keys() | built_for.keys()
                   if built_for.get(key) != expected.get(key))
    if wrong:
        found = ", ".join(f"{key}={built_for.get(key)!r}" for key in wrong)
        raise UsageError(
            f"generator set was built for {found}, not for --form upq "
            f"--p {p} --q {q} --blocks {','.join(map(str, case.blocks))}")
    bounds = meta.get("columnRange")
    if bounds is not None and not (type(bounds) is list
                                   and list(map(type, bounds)) == [int, int]):
        raise UsageError(f"columnRange must be two integers, got {bounds!r}")
    positions = _upq(entry_positions, p + q, bounds)
    entries = []
    all_zero = True
    cap = 10 ** _BIND_DIGITS
    degree = minimal_polynomial(case.theta).degree
    for index, record in enumerate(records):
        try:  # one entry at a time, so only one is held
            row, col = record["row"], record["col"]
            element = EnvElement.from_json_dict(record["element"],
                                                ambient.basis, form.ring)
        except (ValueError, KeyError, TypeError) as exc:  # a malformed entry
            raise UsageError(str(exc)) from None
        if any(max(poly.denominator, *map(abs, poly.numerators.values())) >= cap
               for poly in element.terms.values()):
            raise UsageError(f"entry {index + 1} has a coefficient with a "
                             f"numerator or denominator of more than "
                             f"{_BIND_DIGITS} digits")
        if element.degree() > degree or any(
                poly.degree() > degree for poly in element.terms.values()):
            raise UsageError(f"entry {index + 1} has a monomial or a "
                             f"coefficient of degree above {degree}, the "
                             f"degree of the case's minimal polynomial")
        # Else a set with an entry left out, repeated or added would pass.
        want = positions[index] if index < len(positions) else "no entry"
        if (type(row), type(col)) != (int, int) or (row, col) != want:
            raise UsageError(f"entry {index + 1} is at ({row!r}, {col!r}), "
                             f"expected {want}")
        residue = reduce_iwasawa(element, case.spec)
        if bindings:
            # Bind after reducing: the spec's k- and a-values carry the same
            # symbols as the element, and binding commutes with reduction.
            residue = residue.substitute(bindings)
        zero = residue.is_zero()
        all_zero = all_zero and zero
        entries.append({
            "row": row,
            "col": col,
            "residue": str(residue),
            "zero": zero,
        })
    if len(records) != len(positions):
        raise UsageError(f"generator set: expected {len(positions)} "
                         f"entries, got {len(records)}")
    report = {
        "case": "reduce",
        "parameters": {"p": p, "q": q, "blocks": list(case.blocks),
                       "bindings": {k: str(v) for k, v in args.bind}},
        "metadata": meta,
        "entries": entries,
        "allZero": all_zero,
    }
    return report, 0


def _cmd_verify(args: argparse.Namespace) -> Tuple[dict, int]:
    if args.target == "gl-lemma":
        if args.n < 2 or args.m < 1:
            raise UsageError("need n >= 2 and m_max >= 1")
        report = gl_lemma_check(args.n, args.m)
    elif args.target == "sp-hua":
        if args.n < 1:
            raise UsageError("Sp(n,R) requires n >= 1")
        report = hua_sp_system(args.n)
    elif args.target == "upq-shilov":
        _upq(check_upq_ranks, args.p, args.q)
        report = upq_shilov_identity(args.p, args.q)
    elif args.target == "upq-theorem":
        case = _upq(UpqCase, args.p, args.q, args.blocks)
        report = upq_theorem_case(case, perturb=args.perturb)
    else:
        case = _upq(UpqCase, args.p, args.q, args.blocks)
        report = upq_scalar_recursion(case,
                                      params=_upq(case.bindings, args.bind),
                                      compare_kernel=args.kernel)
    return report, 0 if report["pass"] else 1


def _root_system(args: argparse.Namespace):
    if args.form == "upq":
        p, q = _ranks(args)
        _upq(check_upq_ranks, p, q)
        return upq_root_system(p, q)
    (n,) = _ranks(args)
    if n < 1:
        raise UsageError(f"--form {args.form} needs --n >= 1, got {n}")
    return spnr_root_system(n) if args.form == "spnr" else glnr_root_system(n)


def _cmd_cfun(args: argparse.Namespace) -> Tuple[dict, int]:
    rs = _root_system(args)
    try:
        bindings = _bound_once(args.bind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ell = bindings.pop("ell", None)
    names = [f"lambda_{i}" for i in range(1, rs.rank + 1)]
    unknown = [k for k in bindings if k not in names]
    if unknown:
        raise UsageError(
            f"unknown spectral coordinates {unknown}; expected "
            f"lambda_1..lambda_{rs.rank} and optionally ell")
    if bindings:
        missing = [k for k in names if k not in bindings]
        if missing:
            raise UsageError(f"missing coordinates: {missing}")
        lam = [bindings[k] for k in names]
    else:
        lam = list(rs.half_sum())
    e_rep = e_function(rs, lam)
    c_rep = c_function(rs, lam)
    report = {
        "rootSystem": rs.label,
        "lambda": [str(as_fraction(v)) for v in lam],
        "e": {"zero": e_rep["zero"], "witnessRoot": e_rep["witnessRoot"],
              "zeros": e_rep["zeros"], "value": e_rep["value"]},
        "c": {"defined": c_rep["defined"], "value": c_rep["value"],
              "C": c_rep["C"], "zeros": c_rep["zeros"],
              "poles": c_rep["poles"],
              "normalization": c_rep["normalization"]},
    }
    if ell is not None:
        try:
            report["lineBundle"] = e_c_line_bundle(rs, lam, ell)
        except ValueError as exc:  # more root-length classes than it takes
            raise UsageError(str(exc)) from None
    return report, 0


def _cmd_degrees(args: argparse.Namespace) -> Tuple[dict, int]:
    try:
        row = satake_table().row(args.diagram)
        degrees = row.node_degrees(args.n, args.m)
    except (KeyError, ValueError) as exc:  # the label, --n or --m
        raise UsageError(exc.args[0]) from None
    report = {
        "diagram": row.full_label,
        "rank": args.n,
        "param": args.m,
        "degrees": degrees,
    }
    return report, 0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _json_text(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at the depth ``newline`` (a line break plus that depth's indent).

    Lists and tuples are written alike; dict keys are str.  Each level is
    one f-string, so a long body is copied once per level.  An int item of
    a list is written in place, with no recursive call: most items of an
    export are the ints of its monomials' (index, exponent) pairs.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = f",{inner}".join(
            [f"{encode_basestring_ascii(key)}: "
             f"{_json_text(value[key], inner)}"
             for key in sorted(value)])
        return f"{{{inner}{body}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = []
        for item in value:
            if type(item) is int:
                items.append(int.__repr__(item))
            else:
                items.append(_json_text(item, inner))
        body = f",{inner}".join(items)
        del items  # freed before the body is copied into the bracketed text
        return f"[{inner}{body}{newline}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)  # a float


def _canonical_json(doc: dict) -> str:
    return _json_text(doc, "\n") + "\n"


def _summarize(report: dict, stream) -> None:
    if "checks" in report:
        checks = report["checks"]
        failed = [c for c in checks if not c["pass"]]
        verdict = "PASS" if report.get("pass") else "FAIL"
        params = report.get("parameters", {})
        rendered = " ".join(f"{k}={v}" for k, v in params.items()
                            if not isinstance(v, dict))
        print(f"{verdict} {report.get('case', '?')} {rendered} "
              f"({len(checks)} checks, {len(failed)} failed)", file=stream)
        for check in failed:
            print(f"  FAIL {check['name']}: {check['residue']}", file=stream)
        for note in report.get("notes", []):
            print(f"  note: {note}", file=stream)
    elif "entries" in report and report.get("case") == "reduce":
        nonzero = [e for e in report["entries"] if not e["zero"]]
        print(f"reduce: {len(report['entries'])} entries, "
              f"{len(nonzero)} nonzero residues "
              f"(allZero={report['allZero']})", file=stream)
        for entry in nonzero:
            print(f"  entry[{entry['row']},{entry['col']}]: "
                  f"{entry['residue']}", file=stream)
    elif "degrees" in report:
        print(f"{report['diagram']}: {report['degrees']}", file=stream)
    elif "metadata" in report:
        meta = report["metadata"]
        print(f"generator set: kind={meta['kind']} rank={meta['rank']} "
              f"blocks={meta['blocks']} variant={meta['variant']} "
              f"entries={len(report['entries'])} "
              f"central={len(report['central'])}", file=stream)
    elif "e" in report and "c" in report:
        e_part, c_part = report["e"], report["c"]
        zero = (f"zero (witness {e_part['witnessRoot']})"
                if e_part["zero"] else f"value {e_part['value']}")
        print(f"{report['rootSystem']} at lambda="
              f"({', '.join(report['lambda'])}): e {zero}", file=stream)
        if c_part["defined"]:
            print(f"  c = {c_part['value']} (C = {c_part['C']})",
                  file=stream)
        else:
            print(f"  c undefined: poles {c_part['poles']}", file=stream)
        if "lineBundle" in report:
            lb = report["lineBundle"]
            print(f"  level ell={lb['ell']}: e "
                  f"{'zero' if lb['e']['zero'] else lb['e']['value']}, "
                  f"c {lb['c']['value']}", file=stream)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _check_out(path: str) -> None:
    """Refuse an ``--out`` target that cannot be opened for writing.

    A directory, or a target whose parent is missing or not a directory, is
    refused with the :class:`OSError` that ``open(path, "w")`` would raise,
    so the request stops before its work.  Nothing is created or truncated;
    any other failure is still caught when the report is written.
    """
    def refuse(code: int) -> NoReturn:
        raise OSError(code, os.strerror(code), path)

    if os.path.isdir(path):
        refuse(errno.EISDIR)
    try:
        mode = os.stat(os.path.dirname(path) or os.curdir).st_mode
    except OSError as exc:
        refuse(exc.errno)
    if not stat.S_ISDIR(mode):
        refuse(errno.ENOTDIR)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits: 2 on bad usage, 0 on --help
        return exc.code
    handlers = {
        "ideal": _cmd_ideal,
        "reduce": _cmd_reduce,
        "verify": _cmd_verify,
        "cfun": _cmd_cfun,
        "degrees": _cmd_degrees,
    }
    try:
        if args.out:
            _check_out(args.out)
        report, status = handlers[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out or args.json:
        text = _canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(text)
    else:
        _summarize(report, sys.stdout)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
