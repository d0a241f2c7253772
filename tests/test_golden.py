"""Golden outputs: canonical JSON digests of small CLI requests, U(a) strings."""

from __future__ import annotations

import hashlib

import pytest

from huaops.cli import run
from huaops.liedata import make_glnr, make_spnr
from huaops.matop import generator_matrix, trace_power
from huaops.reduce import gamma, gamma_ell, radial_str

EXPORT = "ideal --form upq --p 2 --q 1 --blocks 1 --restrict-columns"
BENCH_EXPORT = "ideal --form upq --p 2 --q 2 --blocks 1,2 --restrict-columns"
GOLDEN = {
    "verify upq-theorem --p 2 --q 1 --blocks 1":
        "a10264ac7aecd883a211576c12a13a42220d73f5d0a708e3126f5a737122266a",
    "verify upq-theorem --p 2 --q 1 --blocks 1 --perturb":
        "b55879d75e7624dbb8909a2df7cab7359eb67f332cb679d63bda8895c55dd440",
    "verify gl-lemma --n 2 --m 2":
        "b5255eab04f2373f5ae0d15d20d98dd22c634c18f7fa31be363477a3247ff9a2",
    "verify upq-recursion --p 2 --q 1 --blocks 1 --kernel":
        "161a70b091d2fcbbce1be60d3ae11d1beed2cc30629af0c15079e6dd695b36a0",
    "verify upq-recursion --p 2 --q 2 --blocks 1,2 --bind mu_1=3/2 --bind s=0":
        "e5d6f9d8f7549a35718c69775cf5bcf36b0a0dd197224525005eb9c7357ad07e",
    "verify sp-hua --n 1":
        "55b65fc05c111ac663951bbd8c9b0acbd13a95dceba7aead492de9029448f019",
    "verify upq-shilov --p 2 --q 1":
        "f47ac05f759d86054b5392f0bdaafcb102ebacc401cec3775f1e6f2c3363a1d3",
    "verify upq-shilov --p 2 --q 2":
        "46f199b2de96f4c10aad6e77bcf0eaa2ae2efe42407e5710d8d2a685400e94d7",
    "verify upq-shilov --p 3 --q 2":
        "707f1dbdb9e04a97600ac3073432b9434346336d30b82d022bfb18c759ca4cc3",
    "verify sp-hua --n 2":
        "03e72a8dc6493d936acf3d7167500bb9c2718048740182244a15e3df82516063",
    "verify gl-lemma --n 3 --m 3":
        "8f3d5577116d9730e615a03ba2161014a03954c077337451095e461e6aaac051",
    # The cheapest lemma request whose last step product is m_max + 1 = 5
    # and whose notes hold the nonzero single-shift trace defects.
    "verify gl-lemma --n 3 --m 4":
        "07028b34855499b98bf9cea1042a10665856ebafded2fbc9faaa975dc00b53be",
    # The digests pinned by the benchmark's lemma, theorem and kernel
    # workloads.
    "verify gl-lemma --n 4 --m 4":
        "428c6fc97c4459e08a96e4bb1ad0daaf0c8260b0dc9c92a37b016f213051231f",
    "verify upq-theorem --p 3 --q 2 --blocks 1,2":
        "7bd44fa21aeadb0f788e1c032d84d7d5b6adbd8085e29479fdffb4e96e135348",
    "verify upq-theorem --p 2 --q 2 --blocks 1,2 --perturb":
        "5bfa5d4da89baca3d4592f572ecca03f747951ef0f4d262435384ae7f1df52c2",
    "verify upq-recursion --p 3 --q 2 --blocks 1,2 --kernel":
        "87b83f93a2f11c9c1896df5fedb29be4a237270182fce853f0e7ffc722fce659",
    # A second failing control, with 4 of its 10 residues nonzero: a chain
    # that prunes too much shows only on failing cases.
    "verify upq-theorem --p 3 --q 2 --blocks 1,2 --perturb":
        "2ccceca91447e0c6aead28b73ec67838ec33c5af2a45c40f121fba822576353e",
    # Generator-set exports; the U(p,q) one is the input of the reduce
    # digest below.
    EXPORT:
        "f6c01c3d1b745d64913b1f35d03f0b12e32124dad5e310787ac4a2a630ae4e9f",
    "ideal --form spnr --n 2 --blocks 1,2":
        "d11e959a607301809bce59cf339673c3607c0568cced62bcd085fbb9f03cc672",
    # Its order-4 trace power multiplies two matrices of degree 2, so two
    # monomials of degree 2 meet in one product.
    "ideal --form glnr --n 5 --blocks 1,2,3,4,5":
        "184d2d6cc5c8e275a18057801d43eaeae93b3c17eb656e64086c4f54883cf4b8",
    # The exports of the benchmark's roundtrip workload; the last one is the
    # input of the second reduce digest below.
    "ideal --form upq --p 3 --q 2 --blocks 1,2 --restrict-columns":
        "b1b5a234cd1602d4da4b3c0744ccfc1c84799dd01efdb3c8209f97a4afcaef04",
    "ideal --form spnr --n 3 --blocks 1,3":
        "b2eb617a2316ff1217c1a80148d19656e887a893e52d0d22a93e550e039923e8",
    BENCH_EXPORT:
        "aa2198f2496e1d5da9d29f36d05a6a702429d2c3cc124d6794be4e47e0bf2dcb",
    # An exceptional row: its black nodes are written as null.
    "degrees --diagram A_2^8:EIV":
        "44d16a95ba246021e0815f1c02405b602aff2d8f5c3115632f503131cc6b382b",
}


@pytest.mark.parametrize("request_args", sorted(GOLDEN))
def test_canonical_json_digest(capsys, request_args):
    code = run(request_args.split() + ["--json"])
    out = capsys.readouterr().out
    assert code == (1 if "--perturb" in request_args else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[request_args]


def _reduce_of_export_digest(tmp_path, capsys, export: str) -> str:
    """The sha256 of ``reduce --json`` of the set that ``export`` writes."""
    blob = tmp_path / "gens.json"
    assert run(export.split() + ["--out", str(blob)]) == 0
    capsys.readouterr()
    ranks = export.split()[3:9]  # --p P --q Q --blocks B
    code = run(["reduce", "--form", "upq"] + ranks + ["--in", str(blob), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_reduce_of_the_export_digest(tmp_path, capsys):
    assert _reduce_of_export_digest(tmp_path, capsys, EXPORT) == (
        "5daa7ab303c99a90aa8553755669562ec1b07ceb40fa59dbe096698bf652b10b")


def test_reduce_of_the_benchmark_export_digest(tmp_path, capsys):
    assert _reduce_of_export_digest(tmp_path, capsys, BENCH_EXPORT) == (
        "73daf703197ec55472d9783ba3c06ca01efe7423f20926d12a06ef7d38471ffc")


def test_radial_image_strings():
    gl2 = make_glnr(2)
    casimir = trace_power(generator_matrix(gl2.complex_algebra, gl2.ring), 2)
    assert radial_str(gamma(casimir, gl2), gl2.ring) == "(-1/2) + E_2_2^2 + E_1_1^2"
    sp1 = make_spnr(1)
    casimir = trace_power(generator_matrix(sp1.complex_algebra, sp1.ring), 2)
    assert radial_str(gamma_ell(casimir, sp1), sp1.ring) == "(-2) + (2)*A_1^2"
