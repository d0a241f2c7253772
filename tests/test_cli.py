"""Command-line surface: exit codes, JSON determinism, round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huaops import cli
from huaops.cli import run


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


@pytest.mark.parametrize("binding", ["nosuch=1", "E_1=1"])
def test_reduce_rejects_unknown_binding(tmp_path, capsys, binding):
    blob = tmp_path / "gens.json"
    argv = ["--form", "upq", "--p", "1", "--q", "1", "--blocks", "1"]
    assert run(["ideal"] + argv + ["--out", str(blob)]) == 0
    capsys.readouterr()
    code = run(["reduce"] + argv + ["--in", str(blob), "--bind", binding, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("binding", ["zzz=3", "E_1=1"])
def test_upq_recursion_rejects_unknown_binding(capsys, binding):
    code = run(["verify", "upq-recursion", "--p", "1", "--q", "1", "--blocks", "1", "--bind", binding])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, code, heads",
    [
        (["ideal", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--restrict-columns"], 0,
         ["generator set: kind=gl rank=3 blocks=[1, 2, 3] variant=theta entries=3 central=2"]),
        (["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", "{export}"], 0,
         ["reduce: 3 entries, 0 nonzero residues (allZero=True)"]),
        (["degrees", "--diagram", "A_n^1", "--n", "4"], 0, ["A_n^1:SL(n+1,R): [2, 2, 2, 2]"]),
        (["cfun", "--form", "spnr", "--n", "1"], 0,
         ["C_1^{1,1} at lambda=(1): e value ", "  c = 1.0 (C = "]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "lambda_1=-1"], 0,
         ["C_1^{1,1} at lambda=(-1): e zero (witness 2e1)", "  c = 0.0 (C = "]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "lambda_1=0"], 0,
         ["C_1^{1,1} at lambda=(0): e value ", "  c undefined: poles [{'root': '2e1', 'argument': '0'}]"]),
        (["cfun", "--form", "spnr", "--n", "1", "--bind", "ell=1"], 0,
         ["C_1^{1,1} at lambda=(1): e value ", "  c = 1.0 (C = ", "  level ell=1: e "]),
        (["verify", "upq-theorem", "--p", "1", "--q", "1", "--blocks", "1", "--perturb"], 1,
         ["FAIL upq-theorem-perturbed kind=gl rank=2 ambient=2 blocks=[1] ", "  FAIL entry[1,1]: mu_1 + 1/2*s - 1/2*t - 1"]),
    ],
    ids=["ideal", "reduce", "degrees", "cfun", "cfun-e-zero", "cfun-poles", "cfun-ell", "verify-perturb"],
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
    ],
    ids=["gl-lemma-n", "gl-lemma-m", "sp-hua-n", "glnr-n", "spnr-n", "glnr-barred", "degrees-rank", "degrees-param",
         "ideal-spnr-p", "ideal-glnr-pq", "ideal-upq-n", "cfun-upq-n", "cfun-spnr-q"],
)
def test_ranks_are_checked_at_the_boundary(monkeypatch, capsys, argv, message):
    # Each request is refused before anything is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("built a case for a refused request")

    for name in ("gl_lemma_check", "hua_sp_system", "ideal_generators", "UpqCase", "e_function"):
        monkeypatch.setattr(cli, name, forbidden)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text",
    ["{not json", "[1, 2]", '{"metadata": {"basisId": "gl3-verma"}, "entries": [{"row": 1}]}'],
    ids=["syntax", "not-an-object", "missing-key"],
)
def test_malformed_reduce_input_is_a_usage_error(tmp_path, capsys, text):
    blob = tmp_path / "gens.json"
    blob.write_text(text)
    code = run(["reduce", "--form", "upq", "--p", "2", "--q", "1", "--blocks", "1", "--in", str(blob)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
