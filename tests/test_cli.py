import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from mapscat import cli, functors
from mapscat.algfile import AlgFileError, parse_algebra_file
from mapscat.cli import main
from mapscat.modules import indecomposable_projective

DATA = resources.files("mapscat").joinpath("data")
A2 = str(DATA / "a2.alg")
GOLDEN = DATA / "golden"


def golden_bytes(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_verify_example_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-example", A2, "--out", str(out)]) == 0
    assert out.read_text() == golden_bytes("a2_verify.json")
    report = json.loads(out.read_text())
    assert report["results"]["pass"] is True
    assert report["results"]["primes_agree"] is True
    names = [c["name"] for c in report["results"]["runs"][0]["checks"]]
    assert names == [
        "lambda-indecomposables",
        "projective-gamma-modules",
        "sequence-a",
        "sequence-b",
        "sequence-c",
        "phi-chain",
        "auslander-presentation",
    ]
    capsys.readouterr()


def test_verify_example_bundled_default(capsys):
    assert main(["verify-example"]) == 0
    capsys.readouterr()


def test_ar_quiver_golden_outputs(tmp_path, capsys):
    for side in ("gamma", "lambda", "functors"):
        prefix = tmp_path / f"q_{side}"
        assert main(["ar-quiver", A2, "--side", side, "--out", str(prefix)]) == 0
        assert Path(f"{prefix}.json").read_text() == golden_bytes(f"a2_ar_{side}.json")
        assert Path(f"{prefix}.dot").read_text() == golden_bytes(f"a2_ar_{side}.dot")
    capsys.readouterr()


def test_ar_quiver_a3_linear_golden_outputs(tmp_path, capsys):
    for side in ("lambda", "gamma"):
        prefix = tmp_path / f"q_{side}"
        alg = str(DATA / "a3_linear.alg")
        assert main(["ar-quiver", alg, "--side", side, "--out", str(prefix)]) == 0
        assert Path(f"{prefix}.json").read_text() == golden_bytes(f"a3_linear_ar_{side}.json")
        assert Path(f"{prefix}.dot").read_text() == golden_bytes(f"a3_linear_ar_{side}.dot")
    capsys.readouterr()


def test_ar_quiver_dual_numbers_gamma_golden_outputs(tmp_path, capsys):
    # Gamma of K[x]/x^2 is not directed: two non-isomorphic indecomposables
    # share the dims (2, 2), so the vertex order rests on discovery order
    prefix = tmp_path / "q_gamma"
    assert main(["ar-quiver", str(DATA / "dual_numbers.alg"), "--side", "gamma", "--out", str(prefix)]) == 0
    assert Path(f"{prefix}.json").read_text() == golden_bytes("dual_numbers_ar_gamma.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("dual_numbers_ar_gamma.dot")
    capsys.readouterr()


@pytest.mark.parametrize("name", ["a3_flip", "a3_rel"])
def test_ar_quiver_a3_gamma_golden_outputs(name, tmp_path, capsys):
    # Gamma is the two-term chain algebra; these pin it beyond the linear quivers
    prefix = tmp_path / "q_gamma"
    assert main(["ar-quiver", str(DATA / f"{name}.alg"), "--side", "gamma", "--out", str(prefix)]) == 0
    assert Path(f"{prefix}.json").read_text() == golden_bytes(f"{name}_ar_gamma.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes(f"{name}_ar_gamma.dot")
    capsys.readouterr()


def test_ar_quiver_a4_linear_gamma_golden_outputs(tmp_path, capsys):
    # Gamma of linear A4 (76 vertices, 68 sequences), the largest complete
    # knit of the benchmark, which checks it only as order-independent
    # multisets: this pins its vertex order and names
    prefix = tmp_path / "q_gamma"
    assert main(["ar-quiver", str(DATA / "a4_linear.alg"), "--side", "gamma", "--out", str(prefix)]) == 0
    assert Path(f"{prefix}.json").read_text() == golden_bytes("a4_linear_ar_gamma.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("a4_linear_ar_gamma.dot")
    capsys.readouterr()


def test_ar_quiver_truncated_x3_gamma_golden_outputs(tmp_path, capsys):
    # Gamma of K[x]/x^3: the knit decomposes many sums, so this pins the
    # Fitting splits of decompose (27 vertices, complete)
    prefix = tmp_path / "q_gamma"
    assert main(["ar-quiver", str(DATA / "truncated_x3.alg"), "--side", "gamma", "--out", str(prefix)]) == 0
    assert Path(f"{prefix}.json").read_text() == golden_bytes("truncated_x3_ar_gamma.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("truncated_x3_ar_gamma.dot")
    capsys.readouterr()


def test_ar_quiver_commutative_square_lambda_golden_outputs(tmp_path, capsys):
    # the one bundled relation that is not monomial: the transpose rewrites
    # reversed paths over the opposite algebra with a coefficient other than +-1
    prefix = tmp_path / "q_lambda"
    assert main(["ar-quiver", str(DATA / "commutative_square.alg"), "--side", "lambda", "--out", str(prefix)]) == 0
    assert Path(f"{prefix}.json").read_text() == golden_bytes("commutative_square_ar_lambda.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("commutative_square_ar_lambda.dot")
    capsys.readouterr()


def test_ar_quiver_commutative_square_gamma_bounded_golden_outputs(tmp_path, capsys):
    # Gamma of the square at --dim-bound 12: exit 3 with 17 vertices
    prefix = tmp_path / "q_gamma"
    alg = str(DATA / "commutative_square.alg")
    assert main(["ar-quiver", alg, "--side", "gamma", "--dim-bound", "12", "--out", str(prefix)]) == 3
    assert Path(f"{prefix}.json").read_text() == golden_bytes("commutative_square_ar_gamma.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("commutative_square_ar_gamma.dot")
    capsys.readouterr()


def test_ar_quiver_kronecker_bounded_golden_outputs(tmp_path, capsys):
    # the Kronecker quiver has infinite type: the knit stops at the bound
    # with exit 3, and the partial quiver it reports is pinned
    prefix = tmp_path / "q_lambda"
    alg = str(DATA / "kronecker.alg")
    assert main(["ar-quiver", alg, "--side", "lambda", "--dim-bound", "30", "--out", str(prefix)]) == 3
    assert Path(f"{prefix}.json").read_text() == golden_bytes("kronecker_ar_lambda.json")
    assert Path(f"{prefix}.dot").read_text() == golden_bytes("kronecker_ar_lambda.dot")
    capsys.readouterr()


def test_verify_example_leaves_the_shared_projectives_unnamed(tmp_path, monkeypatch, capsys):
    parsed = []

    def parse(text, **kw):
        af = parse_algebra_file(text, **kw)
        parsed.append(af.algebra)
        return af

    monkeypatch.setattr(cli, "parse_algebra_file", parse)
    flipped = tmp_path / "flipped.alg"
    flipped.write_text("field p=101\nvertices 2\narrow a: 2 -> 1\n")
    assert main(["verify-example", str(flipped), "--out", str(tmp_path / "r.json")]) == 0
    assert parsed
    for alg in parsed:
        for v in range(2):
            assert indecomposable_projective(alg, v).name == f"P{v + 1}"
    capsys.readouterr()


def test_ar_quiver_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "one", tmp_path / "two"
    assert main(["ar-quiver", A2, "--side", "gamma", "--out", str(a)]) == 0
    assert main(["ar-quiver", A2, "--side", "gamma", "--out", str(b)]) == 0
    assert Path(f"{a}.json").read_bytes() == Path(f"{b}.json").read_bytes()
    assert Path(f"{a}.dot").read_bytes() == Path(f"{b}.dot").read_bytes()
    capsys.readouterr()


def test_ar_quiver_bound_exceeded(tmp_path, capsys):
    prefix = tmp_path / "tiny"
    code = main(["ar-quiver", A2, "--side", "gamma", "--dim-bound", "1", "--out", str(prefix)])
    assert code == 3
    report = json.loads(Path(f"{prefix}.json").read_text())
    assert report["results"]["complete"] is False
    capsys.readouterr()


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_ar_quiver_dim_bound_below_one_is_an_input_error(tmp_path, capsys, bound):
    prefix = tmp_path / "q"
    assert main(["ar-quiver", A2, "--side", "gamma", "--dim-bound", bound, "--out", str(prefix)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.json"))


def test_check_tilting_classical_golden(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(
        [
            "check-tilting",
            A2,
            "--names",
            "idS1,idS2,idP1,yS1,yS2,yP1",
            "--mode",
            "classical",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == golden_bytes("a2_tilting_classical.json")
    capsys.readouterr()


def test_check_tilting_generalized_golden(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(
        [
            "check-tilting",
            A2,
            "--names",
            "idS1,idS2,idP1,yS1,yS2,yP1",
            "--mode",
            "generalized",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == golden_bytes("a2_tilting_generalized.json")
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["classical", "generalized"])
def test_check_tilting_ext_witness_order_golden(tmp_path, capsys, mode):
    # f, g and yS2 fail the Ext check; the generalized report lists
    # witnesses of both degrees, in (source, target, degree) order
    out = tmp_path / "t.json"
    code = main(["check-tilting", A2, "--names", "f,g,yS2", "--mode", mode, "--out", str(out)])
    assert code == 1
    assert out.read_text() == golden_bytes(f"a2_tilting_f_g_yS2_{mode}.json")
    checks = json.loads(out.read_text())["results"]["checks"]
    ext = checks["ext-vanishes"] if mode == "generalized" else checks["ext1-vanishes"]
    assert {w["degree"] for w in ext["witnesses"]} == ({1, 2} if mode == "generalized" else {1})
    capsys.readouterr()


def test_check_tilting_negative_verdict(tmp_path, capsys):
    # the four projective modules of the triangular algebra fail the
    # coresolution axiom
    out = tmp_path / "t.json"
    code = main(
        ["check-tilting", A2, "--names", "idS2,idP1,yS2,yP1", "--out", str(out)]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"]["checks"]["projectives-coresolved"]["status"] == "fail"
    capsys.readouterr()


def _knit_bounded_at_1(monkeypatch):
    knit = functors.knit_ar_quiver
    monkeypatch.setattr(functors, "knit_ar_quiver", lambda algebra, dim_bound=40: knit(algebra, dim_bound=1))


@pytest.mark.parametrize(
    "argv",
    [
        ["check-tilting", A2, "--names", "idP1,yP1,yS2", "--mode", "classical"],
        ["check-tilting", A2, "--names", "idP1,yP1,yS2", "--mode", "generalized"],
        ["approx", A2, "--object", "f", "--corpus", "epimaps"],
        ["approx", A2, "--object", "g", "--corpus", "monomaps", "--side", "left"],
    ],
)
def test_incomplete_default_corpus_exits_3(argv, tmp_path, monkeypatch, capsys):
    _knit_bounded_at_1(monkeypatch)
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "needs the complete corpus; indecomposable of dimension 2 exceeds bound 1" in err


def test_check_tilting_unknown_name(capsys):
    assert main(["check-tilting", A2, "--names", "nosuch"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["classical", "generalized"])
def test_check_tilting_on_zero_objects_only_is_an_input_error(mode, tmp_path, capsys):
    alg = tmp_path / "zero.alg"
    alg.write_text("field p=101\nvertices 2\narrow a: 1 -> 2\nmodule Z dims=[0,0]\nmap z: Z -> Z via [[],[]]\n")
    out = tmp_path / "r.json"
    assert main(["check-tilting", str(alg), "--names", "z", "--mode", mode, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tilting candidate is empty" in err


def test_approx_golden(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(
        ["approx", A2, "--object", "f", "--corpus", "epimaps", "--side", "right", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == golden_bytes("a2_approx_f_right_epimaps.json")
    report = json.loads(out.read_text())
    assert report["results"]["certified"] is True
    capsys.readouterr()


@pytest.mark.parametrize(
    "obj, corpus, side",
    [("g", "epimaps", "left"), ("f", "monomaps", "right"), ("g", "monomaps", "left")],
)
def test_approx_routes_match_their_goldens(obj, corpus, side, tmp_path, capsys):
    """The left epimap, right monomap and left monomap routes, pinned byte for byte."""
    out = tmp_path / "a.json"
    code = main(["approx", A2, "--object", obj, "--corpus", corpus, "--side", side, "--out", str(out)])
    assert code == 0
    assert out.read_text() == golden_bytes(f"a2_approx_{obj}_{side}_{corpus}.json")
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["ar-quiver", A2, "--out", "{missing}/x"],
        ["verify-example", A2, "--out", "{missing}/f.json"],
        ["check-tilting", A2, "--names", "f,g", "--out", "{missing}/f.json"],
        ["approx", A2, "--object", "f", "--out", "{missing}/f.json"],
    ],
    ids=["ar-quiver", "verify-example", "check-tilting", "approx"],
)
def test_unwritable_out_is_an_input_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith(f"error: cannot write {missing}/") for line in err.splitlines())
    assert "Traceback" not in err


def test_approx_named_corpus(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(
        ["approx", A2, "--object", "yS1", "--corpus", "g,idP1", "--side", "left", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["family"] == "epimaps"
    capsys.readouterr()


def test_approx_mixed_corpus_is_an_input_error(capsys):
    assert main(["approx", A2, "--object", "g", "--corpus", "f,g", "--side", "right"]) == 2
    capsys.readouterr()


def test_approx_unknown_object(capsys):
    assert main(["approx", A2, "--object", "nosuch"]) == 2
    capsys.readouterr()


def test_corrupted_relation_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field p=101\nvertices 2\narrow a: 1 -> 2\nrelation 1*a = 0\n")
    assert main(["verify-example", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_unbracketed_module_value_ends_at_whitespace(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field p=101\nvertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\nmodule M dims=[1,1] a=1 b=[[1]]\n")
    assert main(["ar-quiver", str(bad), "--out", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err.strip() == "error: line 5: expected a bracketed list, got '1'"


def test_missing_file_is_an_input_error(capsys):
    assert main(["ar-quiver", "/no/such/file.alg"]) == 2
    capsys.readouterr()


def test_verify_example_needs_the_two_vertex_algebra(capsys):
    assert main(["verify-example", str(DATA / "a3_linear.alg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["ar-quiver", A2],
        ["verify-example", A2],
        ["check-tilting", A2, "--names", "f,g"],
        ["approx", A2, "--object", "f"],
    ],
)
def test_seed_is_not_an_option(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv + ["--seed", "1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_field_that_is_not_prime_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "p4.alg"
    bad.write_text("field p=4\nvertices 2\narrow a: 1 -> 2\n")
    assert main(["ar-quiver", str(bad), "--out", str(tmp_path / "q")]) == 2
    assert "not prime" in capsys.readouterr().err


def test_import_does_not_load_sympy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, mapscat; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})


@pytest.mark.parametrize(
    "text, last_line",
    [
        ("field p=101\nvertices 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n", 4),
        ("field p=101\nvertices 1\narrow x: 1 -> 1\n", 3),
    ],
    ids=["two-cycle", "loop"],
)
def test_non_admissible_ideal_is_an_input_error(text, last_line, tmp_path):
    # an oriented cycle with no relation leaves paths of every length
    bad = tmp_path / "cycle.alg"
    bad.write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "mapscat.cli", "ar-quiver", str(bad), "--out", str(tmp_path / "q")],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 2
    # a file-level error names the file's last line, not the one past it
    assert run.stderr.startswith(f"error: line {last_line}:")
    assert "not admissible" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("primes", ["abc", ",5", ""], ids=["letters", "empty-entry", "empty-list"])
def test_primes_entry_that_is_not_an_integer_is_an_input_error(primes):
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "mapscat.cli", "verify-example", "--primes", primes],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error:")
    assert "Traceback" not in run.stderr


def test_primes_zero_with_a_coefficient_relation_is_an_input_error():
    # a3_rel.alg has a coefficient relation, which is reduced mod the prime
    path = DATA / "a3_rel.alg"
    with pytest.raises(AlgFileError, match="bad prime 0"):
        parse_algebra_file(path.read_text(encoding="utf-8"), p_override=0)
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "mapscat.cli", "verify-example", str(path), "--primes", "0"],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error:")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("primes", ["0", "1", "4", "-3"])
def test_primes_entry_that_is_not_prime_is_blamed_on_the_flag(primes):
    # the entry is checked before the file is read, so no line of it is named
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "mapscat.cli", "verify-example", str(DATA / "a3_rel.alg"), "--primes", primes],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: --primes:")
    assert "line " not in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["ar-quiver"],
        ["verify-example"],
        ["check-tilting", "--names", "f,g"],
        ["approx", "--object", "f"],
    ],
    ids=["ar-quiver", "verify-example", "check-tilting", "approx"],
)
def test_input_that_is_not_utf8_is_an_input_error(argv, tmp_path):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes(b"# caf\xff\nfield p=101\nvertices 2\narrow a: 1 -> 2\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "mapscat.cli", argv[0], str(bad), *argv[1:], "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: cannot read {bad}: not UTF-8 text")
    assert "Traceback" not in run.stderr
    assert [p.name for p in tmp_path.iterdir()] == [bad.name]
