"""Command-line surface: exit codes, JSON determinism, round trips."""

from __future__ import annotations

import hashlib
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import huaops.reduce as reduce_module
from huaops import cli
from huaops.cfun import FLOAT_TOL
from huaops.cli import run
from huaops.liedata import satake_table


def _run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_gl_lemma_passes(capsys):
    code, report = _run_json(capsys, ["verify", "gl-lemma", "--n", "2", "--m", "3"])
    assert code == 0
    assert report["pass"]


def test_verify_perturbed_theorem_fails(capsys):
    code, report = _run_json(
        capsys,
        ["verify", "upq-theorem", "--p", "1", "--q", "1", "--blocks", "1", "--perturb"],
    )
    assert code == 1
    assert not report["pass"]
    assert any(c["residue"] != "0" for c in report["checks"])


def test_degrees_example(capsys):
    code, report = _run_json(capsys, ["degrees", "--diagram", "A_n^1", "--n", "4"])
    assert code == 0
    assert report["degrees"] == [2, 2, 2, 2]


def test_ideal_restricted_columns_count(capsys):
    code, report = _run_json(
        capsys,
        ["ideal", "--form", "upq", "--p", "2", "--q", "2", "--blocks", "1,2", "--restrict-columns"],
    )
    assert code == 0
    assert len(report["entries"]) == 8
    assert sorted({e["col"] for e in report["entries"]}) == [3, 4]


def test_upq_export_builds_no_real_form(monkeypatch, capsys):
    # The export reads only the complexified pattern, so it must not build
    # (and validate) the U(p,q) Iwasawa form.
    def forbidden(*args, **kwargs):
        raise AssertionError("real form built")

    monkeypatch.setattr(reduce_module, "make_upq", forbidden)
    code = run(["ideal", "--form", "upq", "--p", "3", "--q", "2", "--blocks", "1,2",
                "--restrict-columns", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b1b5a234cd1602d4da4b3c0744ccfc1c84799dd01efdb3c8209f97a4afcaef04")


def test_round_trip_ideal_reduce(tmp_path, capsys):
    blob = tmp_path / "gens.json"
    code = run(
        [
            "ideal", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1",
            "--restrict-columns", "--out", str(blob),
        ]
    )
    capsys.readouterr()
    assert code == 0
    code, reduced = _run_json(
        capsys,
        ["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", str(blob)],
    )
    assert code == 0
    assert reduced["allZero"]
    # matches the one-shot verifier on the same case
    code, verified = _run_json(
        capsys, ["verify", "upq-theorem", "--p", "2", "--q", "1", "--blocks", "1"]
    )
    assert code == 0
    got = {(e["row"], e["col"]): e["residue"] for e in reduced["entries"]}
    want = {}
    for check in verified["checks"]:
        name = check["name"]
        row, col = name[name.index("[") + 1 : name.index("]")].split(",")
        want[(int(row), int(col))] = check["residue"]
    assert got == want


def test_bound_reduce_matches_unbound_residue(tmp_path, capsys):
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    capsys.readouterr()
    code, reduced = _run_json(
        capsys,
        ["reduce"] + argv + ["--in", str(blob), "--bind", "mu_1=7/3", "--bind", "t=-2"],
    )
    assert code == 0
    assert reduced["allZero"]


def _binds(bindings):
    """``--bind`` arguments for the space-separated ``bindings``."""
    return [arg for binding in bindings.split() for arg in ("--bind", binding)]


# A name bound twice is refused too, also with the same value twice.
@pytest.mark.parametrize("binding", ["nosuch=1", "E_1=1", "s=1 s=2", "mu_1=1 t=0 mu_1=1"])
def test_reduce_rejects_unknown_binding(tmp_path, capsys, binding):
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "1", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--out", str(blob)]) == 0
    capsys.readouterr()
    code = run(["reduce"] + argv + ["--in", str(blob), *_binds(binding), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["verify", "upq-theorem", "--p", "2", "--q", "1", "--blocks", "1"],
     ["verify", "upq-recursion", "--p", "2", "--q", "1", "--blocks", "1", "--kernel"]],
    ids=["upq-theorem", "upq-recursion-kernel"],
)
def test_one_case_per_request(monkeypatch, capsys, argv):
    # The CLI builds the case and the driver takes it as it is.
    built = []
    check = reduce_module.UpqCase.__post_init__

    def counting(case):
        check(case)
        built.append((case.p, case.q, case.blocks))

    monkeypatch.setattr(reduce_module.UpqCase, "__post_init__", counting)
    assert run(argv) == 0
    capsys.readouterr()
    assert built == [(2, 1, (1,))]


@pytest.mark.parametrize("binding", ["zzz=3", "E_1=1", "s=1 s=2", "s"])
def test_upq_recursion_rejects_unknown_binding(capsys, binding):
    code = run(["verify", "upq-recursion", "--p", "1", "--q", "1", "--blocks", "1", *_binds(binding)])
    assert code == 2
    assert len([line for line in capsys.readouterr().err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("binding", ["s=1e3", "s=0.5", "s=1_0", "s=+1", "s=1e5000", "s=1e999999999"])
def test_upq_recursion_rejects_a_noncanonical_rational(capsys, binding):
    # A value is written as ParamPoly prints it: 1/2, not 0.5.  Read as an
    # exponent, 1e5000 would pass the int-to-string limit in the report and
    # 1e999999999 would take hours to expand.
    code = run(["verify", "upq-recursion", "--p", "1", "--q", "1", "--blocks", "1", "--bind", binding])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    value = binding.partition("=")[2]
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"huaops verify upq-recursion: error: argument --bind: cannot parse {value!r} as a rational for 's'"]


_CAP = cli._BIND_DIGITS


@pytest.mark.parametrize("case", [["--p", "2", "--q", "1", "--blocks", "1"],
                                  ["--p", "3", "--q", "2", "--blocks", "1,2"]],
                         ids=["2-1", "3-2"])
@pytest.mark.parametrize("value, code", [
    ("9" * _CAP, 0),
    (f"-1/{'9' * _CAP}", 0),
    ("9" * (_CAP + 1), 2),
    (f"1/{'9' * (_CAP + 1)}", 2),
    ("9" * 2200, 2),
], ids=["cap", "cap-denominator", "cap-plus-1", "cap-plus-1-denominator",
        "2200-digits"])
def test_upq_recursion_caps_the_digits_of_a_bound_value(capsys, case, value, code):
    # The report prints powers of s; 2,200 digits to the 4th power passed
    # the interpreter's int-to-string limit and ended as an internal error.
    assert run(["verify", "upq-recursion", *case, "--bind", f"s={value}"]) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    if code == 0:
        assert errors == []
    else:
        assert errors == [
            f"huaops verify upq-recursion: error: argument --bind: the value for 's' "
            f"has a numerator or denominator of more than {_CAP} digits"]


@pytest.mark.parametrize("coeff, code", [
    ("9" * _CAP, 0),
    (f"-1/{'9' * _CAP}*s", 0),
    ("9" * (_CAP + 1), 2),
    (f"1/{'9' * (_CAP + 1)}", 2),
    ("9" * 4200, 2),
], ids=["cap", "cap-denominator", "cap-plus-1", "cap-plus-1-denominator", "4200-digits"])
def test_reduce_caps_the_digits_of_an_input_coefficient(tmp_path, capsys, coeff, code):
    # Bound to 99-digit values, the residue of a 4,200-digit coefficient
    # passed the interpreter's int-to-string limit and ended as an internal
    # error.
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    for term in doc["entries"][0]["element"]["terms"]:
        term["coeff"] = coeff
    blob.write_text(json.dumps(doc))
    bind = [arg for name in ("mu_1", "s", "t") for arg in ("--bind", f"{name}={'9' * (_CAP - 1)}")]
    assert run(["reduce"] + argv + ["--in", str(blob)] + bind) == code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error" in line]
    if code == 0:
        assert errors == []
    else:
        assert errors == [f"error: entry 1 has a coefficient with a numerator or "
                          f"denominator of more than {_CAP} digits"]
        assert captured.out == ""


def test_reduce_leaves_the_right_action_memo_empty(tmp_path, capsys):
    # reduce converts the export multiplying generators in on the left
    # only; the right-action and conversion memos are never written.
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    assert run(["reduce"] + argv + ["--in", str(blob)]) == 0
    capsys.readouterr()
    case = reduce_module.UpqCase(2, 1, (1,))
    for basis in (case.form.basis, case.form.complex_algebra.basis):
        assert basis._mono_gen_cache == basis._conversion_cache == {}, basis.basis_id
    assert case.form.basis._mono_mono_cache


_BAD_UPQ_BLOCKS = [
    ["verify", "upq-recursion", "--p", "2", "--q", "2", "--blocks", "2,2"],
    ["verify", "upq-recursion", "--p", "3", "--q", "2", "--blocks", "0,2"],
    ["verify", "upq-recursion", "--p", "2", "--q", "2", "--blocks", "1,1,2"],
    ["verify", "upq-recursion", "--p", "3", "--q", "3", "--blocks", "2,1,3"],
    ["verify", "upq-theorem", "--p", "1", "--q", "1", "--blocks", "1,1"],
    ["ideal", "--form", "upq", "--p", "1", "--q", "1", "--blocks", "1,1"],
    ["reduce", "--form", "upq", "--p", "1", "--q", "1", "--blocks", "1,1"],
]


@pytest.mark.parametrize("argv", _BAD_UPQ_BLOCKS, ids=[f"{a[1] if a[0] == 'verify' else a[0]}-{a[-1]}" for a in _BAD_UPQ_BLOCKS])
def test_upq_rejects_malformed_blocks(tmp_path, capsys, argv):
    # reduce must refuse before it reads its (here absent) generator set.
    code = run(argv + ["--in", str(tmp_path / "absent.json")] if argv[0] == "reduce" else argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"blocks {argv[-1]} must be" in captured.err
    assert captured.out == ""


_BAD_UPQ_RANKS = [
    ["reduce", "--form", "upq", "--p", "1", "--q", "2", "--blocks", "2"],
    ["ideal", "--form", "upq", "--p", "1", "--q", "2", "--blocks", "2"],
    ["verify", "upq-theorem", "--p", "2", "--q", "0", "--blocks", "0"],
    ["verify", "upq-recursion", "--p", "1", "--q", "2", "--blocks", "1,2"],
    ["verify", "upq-recursion", "--p", "-1", "--q", "1", "--blocks", "1"],
    ["verify", "upq-shilov", "--p", "1", "--q", "3"],
]


def _typed_ranks(argv):
    return argv[argv.index("--p") + 1], argv[argv.index("--q") + 1]


@pytest.mark.parametrize(
    "argv",
    _BAD_UPQ_RANKS,
    ids=["{}-p{}-q{}".format(a[1] if a[0] == "verify" else a[0], *_typed_ranks(a)) for a in _BAD_UPQ_RANKS],
)
def test_upq_rejects_bad_ranks_before_reading_input(tmp_path, capsys, argv):
    # The ranks are checked first: reduce names p and q, not its absent input.
    absent = tmp_path / "absent.json"
    code = run(argv + ["--in", str(absent)] if argv[0] == "reduce" else argv)
    captured = capsys.readouterr()
    p, q = _typed_ranks(argv)
    assert code == 2
    assert f"needs 1 <= q <= p, got p={p} q={q}" in captured.err
    assert str(absent) not in captured.err
    assert captured.out == ""


@settings(max_examples=30, deadline=None)
@given(
    pq=st.integers(min_value=1, max_value=3).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(min_value=1, max_value=p))
    ),
    blocks=st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=3),
)
def test_upq_recursion_fuzz_blocks(pq, blocks):
    p, q = pq
    valid = blocks[0] >= 1 and blocks[-1] == q and all(a < b for a, b in zip(blocks, blocks[1:]))
    # "--blocks=" keeps argparse from reading a leading "-1" as an option.
    argv = ["verify", "upq-recursion", "--p", str(p), "--q", str(q), "--blocks=" + ",".join(map(str, blocks))]
    assert run(argv) == (0 if valid else 2)


@pytest.mark.parametrize(
    "argv",
    [["--form", "upq", "--p", "1", "--q", "2"], ["--form", "spnr", "--n", "0"], ["--form", "glnr", "--n", "0"]],
    ids=["upq", "spnr", "glnr"],
)
def test_cfun_rejects_bad_rank(capsys, argv):
    code = run(["cfun"] + argv)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_json_output_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "sp-hua", "--n", "1"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert "wallTime" not in json.dumps(doc)


def test_cfun_default_is_rho(capsys):
    code, report = _run_json(capsys, ["cfun", "--form", "glnr", "--n", "2"])
    assert code == 0
    assert report["c"]["value"] == 1.0


def test_cfun_bound_point(capsys):
    code, report = _run_json(
        capsys,
        ["cfun", "--form", "glnr", "--n", "2", "--bind", "lambda_1=1", "--bind", "lambda_2=-1"],
    )
    assert code == 0
    assert 0.6 < report["c"]["value"] < 0.7


def test_cfun_keeps_the_sign_of_gamma_at_negative_arguments(capsys):
    # The factors are 1/Gamma(1/6), 1/Gamma(-1/3) and, for c, Gamma(-7/6)
    # times 2^(7/6); lgamma is log|Gamma|, so the sign is read off the exact
    # arguments.
    code, report = _run_json(
        capsys, ["cfun", "--form", "glnr", "--n", "2", "--bind", "lambda_1=-7/3", "--bind", "lambda_2=0"])
    e = 1 / (math.gamma(1 / 6) * math.gamma(-1 / 3))
    c = report["c"]["C"] * e * math.gamma(-7 / 6) * 2 ** (7 / 6)
    assert code == 0
    assert e < 0 and c < 0
    assert report["e"]["value"] == pytest.approx(e, rel=FLOAT_TOL)
    assert report["c"]["value"] == pytest.approx(c, rel=FLOAT_TOL)


def test_cfun_takes_a_float_pole_of_lgamma_off_the_exact_argument(capsys):
    # The float of every argument is an integer, a pole of math.lgamma,
    # although no exact argument is one.  1/Gamma(-833333333333333332.66..)
    # is negative, 1/Gamma(-833333333333333333.16..) positive, and c's
    # Gamma(-1666666666666666666.83..) negative.
    code, report = _run_json(capsys, ["cfun", "--form", "glnr", "--n", "2",
                                      "--bind", "lambda_1=-10000000000000000001/3", "--bind", "lambda_2=0"])
    assert code == 0
    assert (report["e"]["value"], report["c"]["value"]) == (-math.inf, math.inf)


def test_cfun_line_bundle_reject_three_classes(capsys):
    code = run(
        ["cfun", "--form", "upq", "--p", "3", "--q", "2", "--bind", "ell=1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_unknown_bind_coordinate_is_usage_error(capsys):
    code = run(["cfun", "--form", "glnr", "--n", "2", "--bind", "bogus=1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bindings, name", [("lambda_1=1 lambda_1=3 lambda_2=0", "lambda_1"),
                                            ("lambda_1=1 lambda_2=0 ell=1 ell=1", "ell")])
def test_cfun_refuses_a_coordinate_bound_twice(capsys, bindings, name):
    # Before, the last value won: lambda=(3, 0).
    code = run(["cfun", "--form", "glnr", "--n", "2", *_binds(bindings)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"error: symbols bound more than once: ['{name}']"]


def test_upq_ideal_rejects_barred_variant(capsys):
    code = run(
        ["ideal", "--form", "upq", "--p", "1", "--q", "1", "--blocks", "1", "--variant", "theta-bar"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_diagram_label_is_usage_error(capsys):
    code = run(["degrees", "--diagram", "Z_n^9", "--n", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label, message",
    [("nope", "unknown diagram label 'nope'"),
     ("E_7^1", "ambiguous label 'E_7^1'; use one of: E_7^1:EV, E_7^1:EVIII")],
    ids=["unknown", "ambiguous"],
)
def test_degrees_label_error_prints_the_message(capsys, label, message):
    assert run(["degrees", "--diagram", label]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_degrees_help_examples_are_table_rows(capsys):
    assert run(["degrees", "--help"]) == 0
    labels = re.findall(r'"([^"]+)"', capsys.readouterr().out)
    assert labels
    for label in labels:
        satake_table().row(label)


def test_missing_p_is_usage_error(capsys):
    code = run(["ideal", "--form", "upq", "--q", "1", "--blocks", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_two(capsys):
    assert run(["ideal", "--form", "upq", "--p", "1", "--q", "1"]) == 2
    capsys.readouterr()


def test_malformed_blocks_exits_two(capsys):
    assert run(["ideal", "--form", "upq", "--p", "1", "--q", "1", "--blocks", "one"]) == 2
    capsys.readouterr()


def test_parser_errors_return_a_status(capsys):
    # argparse reads the leading "-1" as an option, so --blocks has no value.
    argv = ["verify", "upq-recursion", "--p", "1", "--q", "1", "--blocks", "-1,0"]
    assert run(argv) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert run(["verify", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_spnr_barred_variant_ideal(capsys):
    code, report = _run_json(
        capsys,
        ["ideal", "--form", "spnr", "--n", "2", "--blocks", "1,2", "--variant", "theta-bar"],
    )
    assert code == 0
    assert report["metadata"]["variant"] == "theta-bar"
    assert len(report["entries"]) == 16


def test_human_summary_mentions_pass(capsys):
    code = run(["verify", "gl-lemma", "--n", "2", "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


_INTERNAL_FAULTS = [
    MemoryError(),
    RecursionError("maximum recursion depth exceeded"),
    ArithmeticError("scaled coefficient 1/2 is not an integer"),
    ZeroDivisionError("division by zero"),
    # A ValueError or KeyError past the argument checks is a fault of the
    # program, not of the request.
    ValueError("elements over different coefficient rings"),
    KeyError(7),
    IndexError("list index out of range"),
    TypeError("unsupported operand type(s) for +: 'int' and 'str'"),
    AssertionError("catalog check failed"),
]


@pytest.mark.parametrize("fault", _INTERNAL_FAULTS,
                         ids=[type(f).__name__ for f in _INTERNAL_FAULTS])
def test_internal_faults_exit_three(monkeypatch, capsys, fault):
    # The handler raises at once: no memory or recursion is exhausted.
    def raise_fault(args):
        raise fault

    monkeypatch.setattr(cli, "_cmd_degrees", raise_fault)
    code = run(["degrees", "--diagram", "A_n^1", "--n", "4", "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_zero_denominators_in_input_are_usage_errors(tmp_path, capsys):
    assert run(["cfun", "--form", "glnr", "--n", "2", "--bind", "lambda_1=1/0"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "1", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    term = doc["entries"][0]["element"]["terms"][0]
    term["coeff"] = "1/0"
    blob.write_text(json.dumps(doc))
    code = run(["reduce"] + argv + ["--in", str(blob)])
    captured = capsys.readouterr()
    assert code == 2
    assert "zero denominator" in captured.err


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = run(["degrees", "--diagram", "A_n^1", "--n", "4", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and str(target) in captured.err


@pytest.mark.parametrize("target", ["missing/report.json", "file/report.json",
                                    "file/sub/report.json", "directory"])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch, target):
    (tmp_path / "file").write_text("kept", encoding="utf-8")
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    with pytest.raises(OSError) as refused:
        open(path, "w", encoding="utf-8")

    def spy(_args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "_cmd_verify", spy)
    code = run(["verify", "gl-lemma", "--n", "4", "--m", "4", "--out", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"


def test_a_fault_writes_no_report(tmp_path, capsys, monkeypatch):
    def fault(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_verify", fault)
    target = tmp_path / "report.json"
    assert run(["verify", "gl-lemma", "--n", "2", "--m", "1", "--out", str(target)]) == 3
    assert capsys.readouterr().err.startswith("internal error: MemoryError")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, code, heads",
    [
        (["ideal", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--restrict-columns"], 0,
         ["generator set: kind=gl rank=3 blocks=[1, 2, 3] variant=theta entries=3 central=2"]),
        (["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", "{export}"], 0,
         ["reduce: 3 entries, 0 nonzero residues (allZero=True)"]),
        (["degrees", "--diagram", "A_n^1", "--n", "4"], 0, ["A_n^1:SL(n+1,R): [2, 2, 2, 2]"]),
        (["degrees", "--diagram", "SL(n+1,R)", "--n", "4"], 0, ["A_n^1:SL(n+1,R): [2, 2, 2, 2]"]),
        (["cfun", "--form", "spnr", "--n", "1"], 0,
         ["C_1^{1,1} at lambda=(1): e value ", "  c = 1.0 (C = "]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "lambda_1=-1"], 0,
         ["C_1^{1,1} at lambda=(-1): e zero (witness 2e1)", "  c = 0.0 (C = "]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "lambda_1=0"], 0,
         ["C_1^{1,1} at lambda=(0): e value ", "  c undefined: poles [{'root': '2e1', 'argument': '0'}]"]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "ell=1"], 0,
         ["C_1^{1,1} at lambda=(1): e value ", "  c = 1.0 (C = ", "  level ell=1: e "]),
        (["cfun", "--form", "glnr", "--n", "1", "--bind", "ell=1"], 0,
         ["A_0^{1} at lambda=(0): e value 1.0", "  c = 1.0 (C = 1.0)", "  level ell=1: e 1.0, c 1.0"]),
        (["verify", "upq-theorem", "--p", "1", "--q", "1", "--blocks", "1", "--perturb"], 1,
         ["FAIL upq-theorem-perturbed kind=gl rank=2 ambient=2 blocks=[1] ", "  FAIL entry[1,1]: mu_1 + 1/2*s - 1/2*t - 1"]),
    ],
    ids=["ideal", "reduce", "degrees", "degrees-group", "cfun", "cfun-e-zero", "cfun-poles", "cfun-ell",
         "cfun-ell-no-roots", "verify-perturb"],
)
def test_human_summaries_lead_with_their_verdict(tmp_path, capsys, argv, code, heads):
    export = tmp_path / "gens.json"
    if "{export}" in argv:
        assert run(["ideal", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1",
                    "--restrict-columns", "--out", str(export)]) == 0
        capsys.readouterr()
    assert run([arg.format(export=export) for arg in argv]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= len(heads)
    for line, head in zip(lines, heads):
        assert line.startswith(head), (line, head)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "gl-lemma", "--n", "1", "--m", "1"], "need n >= 2 and m_max >= 1"),
        (["verify", "gl-lemma", "--n", "2", "--m", "0"], "need n >= 2 and m_max >= 1"),
        (["verify", "sp-hua", "--n", "0"], "Sp(n,R) requires n >= 1"),
        (["ideal", "--form", "glnr", "--n", "0", "--blocks", "1"], "blocks (1,) must end at the rank 0"),
        (["ideal", "--form", "spnr", "--n", "0", "--blocks", "0"], "blocks (0,) must be strictly increasing"),
        (["ideal", "--form", "glnr", "--n", "2", "--blocks", "1,2", "--variant", "theta-bar"],
         "no barred variant for kind 'gl'"),
        (["degrees", "--diagram", "A_n^1"], "A_n^1:SL(n+1,R) needs a rank value"),
        (["degrees", "--diagram", "A_n^1", "--n", "2", "--m", "3"], "A_n^1:SL(n+1,R) takes no extra parameter"),
        (["ideal", "--form", "spnr", "--n", "2", "--blocks", "1,2", "--p", "3"], "--form spnr takes no --p"),
        (["ideal", "--form", "glnr", "--n", "2", "--blocks", "1,2", "--p", "3", "--q", "1"],
         "--form glnr takes no --p or --q"),
        (["ideal", "--form", "upq", "--p", "2", "--q", "1", "--n", "3", "--blocks", "1"], "--form upq takes no --n"),
        (["cfun", "--form", "upq", "--p", "2", "--q", "1", "--n", "3"], "--form upq takes no --n"),
        (["cfun", "--form", "spnr", "--n", "2", "--q", "1"], "--form spnr takes no --q"),
        (["ideal", "--form", "spnr", "--n", "2", "--blocks", "1,2", "--restrict-columns"],
         "--restrict-columns applies to --form upq only"),
        (["cfun", "--form", "glnr", "--n", "2", "--bind", "lambda_1=1"], "missing coordinates: ['lambda_2']"),
    ],
    ids=["gl-lemma-n", "gl-lemma-m", "sp-hua-n", "glnr-n", "spnr-n", "glnr-barred", "degrees-rank", "degrees-param",
         "ideal-spnr-p", "ideal-glnr-pq", "ideal-upq-n", "cfun-upq-n", "cfun-spnr-q", "ideal-spnr-restrict-columns",
         "cfun-missing-coordinate"],
)
def test_ranks_are_checked_at_the_boundary(monkeypatch, capsys, argv, message):
    # Each request is refused before anything is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("built a case for a refused request")

    for name in ("gl_lemma_check", "hua_sp_system", "ideal_generators", "UpqCase", "e_function"):
        monkeypatch.setattr(cli, name, forbidden)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# The metadata of ``ideal --form upq --p 2 --q 1 --blocks 1 --restrict-columns``.
_META_21 = json.dumps({"ambient": 3, "basisId": "gl3-verma", "blocks": [1, 2, 3],
                       "charValues": ["mu_1 + 1/2*s + 1/2*t", "s", "-mu_1 + 1/2*s + 1/2*t"],
                       "columnRange": [3, 3], "kind": "gl", "rank": 3, "variant": "theta"})
# A set of that case with one entry: one constant term, its coefficient left as %s.
_ONE_TERM = ('{"metadata": %s, "entries": [{"row": 1, "col": 1, "element": '
             '{"basisId": "gl3-verma", "terms": [{"coeff": %%s, "monomial": []}]}}]}' % _META_21)


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
     ("[1, 2]", "'list' object has no attribute 'get'"),
     ('{"metadata": %s, "entries": [{"row": 1}]}' % _META_21, "'col'")]
    + [('{"metadata": %s, "entries": [{"row": 1, "col": 1, "element": %s}]}' % (_META_21, element),
        f"an element must be an object, got {shown}")
       for element, shown in (("5", "5"), ("[]", "[]"), ('"x"', "'x'"))]
    + [(_ONE_TERM % coeff, f"coefficient {shown} must be a string")
       for coeff, shown in (("5", "5"), ("null", "None"))]
    + [(_ONE_TERM % json.dumps(coeff), f"exponent {exponent!r} in term {coeff!r} is not an integer >= 1")
       for coeff, exponent in (("mu_1^-1", "-1"), ("s^0", "0"))]
    + [(_ONE_TERM % json.dumps(f"{literal}*s"), f"{literal!r} is not a rational literal like 3 or 3/4")
       for literal in ("1e3", "1.5", "1_000", "\u0663", "1e5000")]
    + [("[" * 10_000, "input JSON nests too deeply"),
       (_ONE_TERM.replace('"monomial": []', '"monomial": %s]' % ("[" * 5_000)) % '"1"',
        "input JSON nests too deeply")],
    ids=["syntax", "not-an-object", "missing-key", "element-int", "element-list", "element-string",
         "coeff-int", "coeff-null", "exponent-negative", "exponent-zero",
         "coeff-1e3", "coeff-1.5", "coeff-1_000", "coeff-arabic-indic-3", "coeff-1e5000",
         "nested-10k", "nested-monomial"],
)
def test_malformed_reduce_input_is_a_usage_error(tmp_path, capsys, text, message):
    blob = tmp_path / "gens.json"
    blob.write_text(text)
    code = run(["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", str(blob)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_reduce_reads_standard_input(tmp_path, monkeypatch, capsys):
    blob = tmp_path / "gens.json"
    argv = ["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--json"]
    assert run(["ideal", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--out", str(blob)]) == 0
    capsys.readouterr()
    assert run(argv + ["--in", str(blob)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(blob.read_text()))
    assert run(argv) == 0
    assert capsys.readouterr().out == from_file
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")


@pytest.mark.parametrize("term, binds", [({"coeff": "mu_1^20000", "monomial": []}, ["--bind", "mu_1=2"]),
                                         ({"coeff": "1", "monomial": [[0, 2000]]}, [])],
                         ids=["coefficient", "monomial"])
def test_reduce_refuses_an_entry_past_the_case_degree(tmp_path, capsys, term, binds):
    # An export of (2,2,(1,2)) holds monomials and coefficients of degree at
    # most 4, the degree of the case's minimal polynomial.  Past it, the
    # bound residue passed the int-to-string limit and the conversion the
    # recursion limit, each an internal error.
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "2", "--blocks", "1,2"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    doc["entries"][0]["element"]["terms"].append(term)
    blob.write_text(json.dumps(doc))
    code = run(["reduce"] + argv + ["--in", str(blob), *binds])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: entry 1 has a monomial or a coefficient of degree above 4, "
                            "the degree of the case's minimal polynomial\n")


@pytest.mark.parametrize("coeff, exponent", [("mu_1^-1", "-1"), ("s^0", "0")])
def test_bound_reduce_refuses_an_exponent_below_one(tmp_path, capsys, coeff, exponent):
    # --bind substitutes into the residue, where a negative power was an
    # internal fault; the exponent is refused when the set is read.
    blob = tmp_path / "gens.json"
    blob.write_text(_ONE_TERM % json.dumps(coeff))
    code = run(["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", str(blob),
                "--bind", "mu_1=2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: exponent {exponent!r} in term {coeff!r} is not an integer >= 1\n"
    assert captured.out == ""


_ENTRY_EDITS = {
    "empty": (lambda doc: doc.update(entries=[]),
              "generator set: expected 3 entries, got 0"),
    "first-only": (lambda doc: doc.update(entries=doc["entries"][:1]),
                   "generator set: expected 3 entries, got 1"),
    "duplicated": (lambda doc: doc["entries"].insert(1, doc["entries"][0]),
                   "entry 2 is at (1, 3), expected (2, 3)"),
    "extra-at-7-7": (lambda doc: doc["entries"].append(dict(doc["entries"][0], row=7, col=7)),
                     "entry 4 is at (7, 7), expected no entry"),
    "row-x-col-9": (lambda doc: doc["entries"][0].update(row="x", col=[9]),
                    "entry 1 is at ('x', [9]), expected (1, 3)"),
    "range-malformed": (lambda doc: doc["metadata"].update(columnRange=[3]),
                        "columnRange must be two integers, got [3]"),
    "range-outside": (lambda doc: doc["metadata"].update(columnRange=[1, 9]),
                      "column range [1, 9] out of 1..3"),
}


@pytest.mark.parametrize("edit", sorted(_ENTRY_EDITS))
def test_reduce_refuses_entries_that_are_not_the_set(tmp_path, capsys, edit):
    # The (row, col) pairs must be the whole set of the metadata's
    # columnRange, in order; else a set with its failing entries removed
    # would pass.
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    change, message = _ENTRY_EDITS[edit]
    change(doc)
    blob.write_text(json.dumps(doc))
    code = run(["reduce"] + argv + ["--in", str(blob), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reduce_refuses_a_set_built_for_another_case(tmp_path, capsys):
    # Same ranks and basis, other blocks: the set belongs to another ideal.
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "2", "--restrict-columns", "--out", str(blob)]
    assert run(["ideal"] + argv + ["--blocks", "2"]) == 0
    capsys.readouterr()
    code = run(["reduce", "--form", "upq", "--p", "2", "--q", "2", "--blocks", "1,2", "--in", str(blob), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: generator set was built for blocks=[2, 4], "
        "charValues=['mu_1 + 1/2*s + 1/2*t', '-mu_1 + 1/2*s + 1/2*t'], "
        "not for --form upq --p 2 --q 2 --blocks 1,2\n")


@pytest.mark.parametrize(
    "monomial",
    [[[999, 1]], [[-1, 1]], [[3, 1], [1, 1]], [[1, 1], [1, 1]], [[1, 0]],
     [[1, -2]], [[True, 1]], [[1.0, 1]], [[1, 2.0]], [["1", 1]]],
    ids=["index-past-the-basis", "negative-index", "indices-decreasing",
         "index-repeated", "exponent-zero", "exponent-negative", "bool-index",
         "float-index", "float-exponent", "string-index"],
)
def test_reduce_refuses_malformed_monomials(tmp_path, capsys, monomial):
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "2", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--restrict-columns", "--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    doc["entries"][0]["element"]["terms"][0]["monomial"] = monomial
    blob.write_text(json.dumps(doc))
    code = run(["reduce"] + argv + ["--in", str(blob), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: monomial ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# canonical JSON: the bytes of json.dumps(doc, indent=2, sort_keys=True)
# ---------------------------------------------------------------------------

def _oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é ü 中 \U0001f600", "a\"b\\c"])
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers() | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda n: st.sampled_from([n, -n]))
            | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-05, 1e16]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(_VALUES)
@example({"zeta": [3, -1, 2**64 + 1], "alpha": ((0, 1), (2, 3)), "": {}, "mid": [[], (), {}],
          "\x00\"\\é": (True, False, None, -0.0, 1e-05, 1e16, "x")})
# Equal tuples at one depth whose texts differ.
@example([(1, 0), (True, False), (1.0, 0.0), (1, 0), ((1, 0),), (([1],),), ([1],)])
def test_canonical_json_matches_json_dumps(doc):
    assert cli._canonical_json(doc) == _oracle(doc)


_REPORTS = {
    "ideal-upq": "ideal --form upq --p 2 --q 1 --blocks 1 --restrict-columns",
    "ideal-spnr": "ideal --form spnr --n 2 --blocks 1,2",
    "ideal-glnr": "ideal --form glnr --n 2 --blocks 1,2",
    "ideal-theta-bar": "ideal --form spnr --n 2 --blocks 1,2 --variant theta-bar",
    "reduce": "reduce --form upq --p 2 --q 1 --blocks 1 --in {export}",
    "gl-lemma": "verify gl-lemma --n 2 --m 2",
    "sp-hua": "verify sp-hua --n 1",
    "upq-shilov": "verify upq-shilov --p 2 --q 1",
    "upq-theorem": "verify upq-theorem --p 2 --q 1 --blocks 1",
    "upq-recursion": "verify upq-recursion --p 2 --q 1 --blocks 1 --kernel",
    "cfun-value": "cfun --form glnr --n 2",
    "cfun-pole": "cfun --form spnr --n 1 --bind lambda_1=0",
    "degrees": "degrees --diagram A_n^1 --n 4",
}


def _rendered(monkeypatch, capsys, tmp_path, argv):
    """Run ``argv``; returns its exit code, stdout and every report it rendered."""
    export = tmp_path / "gens.json"
    if any("{export}" in arg for arg in argv):
        assert run(_REPORTS["ideal-upq"].split() + ["--out", str(export)]) == 0
    capsys.readouterr()
    docs = []
    render = cli._canonical_json

    def recording(doc):
        docs.append(doc)
        return render(doc)

    monkeypatch.setattr(cli, "_canonical_json", recording)
    code = run([arg.format(export=export) for arg in argv])
    return code, capsys.readouterr().out, docs


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_canonical_json_matches_json_dumps_on_reports(monkeypatch, capsys, tmp_path, name):
    code, out, docs = _rendered(monkeypatch, capsys, tmp_path, _REPORTS[name].split() + ["--json"])
    assert code == 0
    assert len(docs) == 1
    assert out == _oracle(docs[0])


def test_out_and_json_render_once(monkeypatch, capsys, tmp_path):
    blob = tmp_path / "report.json"
    argv = _REPORTS["ideal-upq"].split() + ["--json", "--out", str(blob)]
    code, out, docs = _rendered(monkeypatch, capsys, tmp_path, argv)
    assert code == 0
    assert len(docs) == 1
    assert blob.read_bytes() == out.encode("utf-8")
