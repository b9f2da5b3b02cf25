import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from isotopelab import Field, c_family, j2, principal_isotope
from isotopelab.algfile import (
    parse_algebra_text,
    serialize_algebra,
    serialize_matrix,
)
from isotopelab.cli import main

QQ = Field.rationals()
ROOT = pathlib.Path(__file__).resolve().parent.parent
ALGEBRAS = ROOT / "algebras"
DATA = ROOT / "tests" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_c2(capsys):
    code, out, _ = run(capsys, "analyze", str(ALGEBRAS / "c2.alg"))
    assert code == 0
    assert "unit: none" in out
    assert "nil-rank: 2" in out
    assert "commutative: yes" in out


def _transcript(capsys, runs):
    """Each (header, argv) run as "# <header>" and its standard output;
    every run must exit 0."""
    parts = []
    for header, argv in runs:
        code, out, err = run(capsys, *argv)
        assert code == 0, (header, err)
        parts.append(f"# {header}\n{out}")
    return "".join(parts)


def test_analyze_output_matches_golden(capsys, monkeypatch):
    # every shipped and test .alg file, as text and as JSON; a report names
    # its file by the path given, so the paths are relative to the root
    monkeypatch.chdir(ROOT)
    files = [str(f) for d in ("algebras", "tests/data")
             for f in sorted(pathlib.Path(d).glob("*.alg"))]
    runs = [(" ".join(argv), argv)
            for f in files for argv in (["analyze", f], ["analyze", f, "--json"])]
    assert _transcript(capsys, runs).encode() == (DATA / "analyze_cli.txt").read_bytes()


def test_nilrank_json_matches_golden(capsys, monkeypatch):
    # the reduction prime chosen and given, and two prime-field files
    monkeypatch.chdir(ROOT)
    argvs = [["nilrank", f"algebras/{f}.alg", *p]
             for f in ("c2", "c3", "g2") for p in ([], ["--p", "5"], ["--p", "7"])]
    argvs += [["nilrank", f"tests/data/{f}.alg"] for f in ("g4_gf5", "g4_gf5_isotope")]
    runs = [(" ".join(argv), argv + ["--json"]) for argv in argvs]
    assert _transcript(capsys, runs).encode() == (DATA / "nilrank_cli.txt").read_bytes()


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", str(ALGEBRAS / "j2.alg"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unit"] == "(1, 0, 0)"
    assert payload["jordan"] == "yes"
    assert payload["simple_closure"] is True
    assert payload["nil_rank"]["rank"] == 2


def test_nil_rank_output_names_the_reduction_prime(capsys):
    g2 = str(ALGEBRAS / "g2.alg")
    _, out, _ = run(capsys, "nilrank", g2)
    assert out.splitlines()[0] == "nil-rank: 2  [bruteforce-fp] (closure caveat) (reduced mod 3)"
    _, out, _ = run(capsys, "nilrank", g2, "--json")
    assert json.loads(out)["reduced_mod"] == 3
    _, out, _ = run(capsys, "analyze", g2)
    assert "nil-rank: 2  [bruteforce-fp] (closure caveat) (reduced mod 3)\n" in out
    _, out, _ = run(capsys, "analyze", g2, "--json")
    assert json.loads(out)["nil_rank"]["reduced_mod"] == 3
    # an exact C-form report is unchanged
    j2_file = str(ALGEBRAS / "j2.alg")
    _, out, _ = run(capsys, "nilrank", j2_file)
    assert out.splitlines()[0] == "nil-rank: 2  [exact-cfamily]"
    _, out, _ = run(capsys, "nilrank", j2_file, "--json")
    assert "reduced_mod" not in json.loads(out)


def test_analyze_gf_algebra_runs_ideal_search(tmp_path, capsys):
    path = tmp_path / "c011.alg"
    path.write_text(serialize_algebra(c_family(Field.gf(5), 0, 1, 1)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "found" in out
    assert "simple (closure criterion): no" in out


def test_witness_theorem2_exit_and_report(capsys):
    code, out, _ = run(capsys, "witness", "theorem2")
    assert code == 0
    assert "verdict: PASS" in out
    assert "[[-1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [1/2, 1/2, -1/2]]" in out


def test_witness_lemma11_domain_error(capsys):
    code, _, err = run(capsys, "witness", "lemma11", "--rho", "-2")
    assert code == 2
    assert "DomainError" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["lemma11"], "lemma11 needs --rho"),
        (["theorem1"], "theorem1 needs --abg alpha,beta,gamma"),
        (["theorem1", "--abg", "1,2"], "theorem1 needs --abg alpha,beta,gamma"),
        (["theorem1", "--abg", "1,2,3,4"], "theorem1 needs --abg alpha,beta,gamma"),
    ],
)
def test_witness_missing_option_message(capsys, args, message):
    code, out, err = run(capsys, "witness", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: DomainError: {message}\n"


def test_witness_n_zero_is_out_of_range(capsys):
    code, _, err = run(capsys, "witness", "prop1", "--n", "0")
    assert code == 2
    assert "search budget exceeded" in err


@pytest.mark.parametrize(
    "name,option,value",
    [
        ("lemma11", "--rho", "1/0"),
        ("lemma11", "--rho", "abc"),
        ("lemma11", "--rho", "1e5000"),
        ("lemma11", "--rho", "1.5"),
        ("theorem1", "--abg", "2,1/0,4"),
        ("theorem1", "--abg", "2,abc,4"),
        ("theorem1", "--abg", "1,abc"),
        ("lemma1", "--sigma", "abc"),
        ("lemma1", "--tau", "1/0"),
    ],
)
def test_witness_malformed_scalar_is_a_parse_error(capsys, name, option, value):
    code, out, err = run(capsys, "witness", name, option, value)
    assert code == 2
    assert out == ""
    assert f"ParseError: bad {option} value" in err


@pytest.mark.parametrize(
    "args,option",
    [
        (["prop1", "--n", "3", "--rho", "5"], "--rho"),
        (["theorem2", "--rho", "5"], "--rho"),
        (["lemma11", "--rho", "1", "--abg", "2,1,4"], "--abg"),
        (["prop2", "--sigma", "2"], "--sigma"),
        (["lemma6", "--tau", "3"], "--tau"),
        (["lemma1", "--n", "3"], "--n"),
        (["theorem1", "--abg", "2,1,4", "--n", "3"], "--n"),
    ],
)
def test_witness_rejects_an_option_its_pipeline_ignores(capsys, args, option):
    code, out, err = run(capsys, "witness", *args)
    assert code == 2
    assert out == ""
    assert f"DomainError: {args[0]} does not take {option}" in err


def test_witness_gf_zero_is_not_the_rationals(capsys):
    code, out, err = run(capsys, "witness", "lemma1", "--gf", "0")
    assert code == 2
    assert out == ""
    assert "modulus 0 is not prime" in err


def test_witness_exit_codes_match_verdicts(capsys):
    for name, extra in [
        ("lemma6", []),
        ("lemma10", []),
        ("lemma10", ["--gf", "3"]),
        ("lemma11", ["--rho", "1/2"]),
        ("theorem1", ["--abg", "2,1,4"]),
        # alpha = 2 is no square in QQ; the C(1,0,0) normal form needs none
        ("theorem1", ["--abg", "2,0,0"]),
        ("theorem1", ["--abg", "1,1,0", "--gf", "3"]),
        # blanks around a scalar token are ignored, as in rmul --elem
        ("theorem1", ["--abg", "2, 1, 4"]),
        ("lemma11", ["--rho", " 1/2 "]),
        ("theorem2", []),
        ("prop1", ["--n", "2"]),
        ("prop2", ["--n", "2"]),
    ]:
        code, out, _ = run(capsys, "witness", name, *extra, "--json")
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert code == 0
        for step in payload["steps"]:
            assert set(step) == {"step", "check", "expected", "actual"}


def test_witness_lemma1(capsys):
    code, out, _ = run(capsys, "witness", "lemma1", "--sigma", "-1", "--tau", "1")
    assert code == 0
    assert "verdict: PASS" in out


def test_rmul(capsys):
    code, out, _ = run(
        capsys, "rmul", str(ALGEBRAS / "j2.alg"), "--elem", "1,2/3,-1/5"
    )
    assert code == 0
    assert "determinant: 19/15" in out
    assert "invertible: yes" in out


def test_rmul_bad_coordinate_names_no_line(capsys):
    # the coordinates come from an option, not from a line of a file
    code, out, err = run(capsys, "rmul", str(ALGEBRAS / "j2.alg"), "--elem", "1,x,0")
    assert (code, out) == (2, "")
    assert err == (
        "error: ParseError: bad scalar 'x' "
        "(Invalid literal for Fraction: 'x')\n"
    )


def test_zero_denominator_exits_2_with_a_plain_message(tmp_path, capsys):
    # in a file and in an option alike, with no Python repr in the message
    path = tmp_path / "zero.alg"
    path.write_text("field gf 5\ndim 1\nc 1 1 1 1/0\n")
    code, out, err = run(capsys, "rmul", str(path), "--elem", "1")
    assert (code, out) == (2, "")
    assert err == "error: ParseError: line 3: bad scalar '1/0' (zero denominator)\n"
    code, out, err = run(capsys, "rmul", str(ALGEBRAS / "j2.alg"), "--elem", "1,0/0,0")
    assert (code, out) == (2, "")
    assert err == "error: ParseError: bad scalar '0/0' (zero denominator)\n"


def test_a_large_prime_modulus_is_read_quickly(tmp_path, capsys):
    # trial division spent seconds on each of these primes; each field is
    # built here first, since a field once built is kept
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "witness", "theorem1", "--abg", "2,1,4", "--gf", "10000000000000061"
    )
    assert code == 0 and "verdict: PASS" in out
    path = tmp_path / "big.alg"
    path.write_text(ALGEBRAS.joinpath("j2.alg").read_text().replace(
        "field rational", "field gf 100000000000000003"
    ))
    code, out, _ = run(capsys, "rmul", str(path), "--elem", "1,1,0")
    assert code == 0 and "invertible: yes" in out
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("value", ["1e5000", "1.5"])
def test_file_values_are_integers_or_fractions(tmp_path, capsys, value):
    # Fraction would read 1e5000 as a 5,001-digit integer that str() refuses
    path = tmp_path / "big.alg"
    path.write_text(f"field rational\ndim 1\nc 1 1 1 {value}\n")
    code, out, err = run(capsys, "rmul", str(path), "--elem", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: ParseError: line 3: bad scalar {value!r} "
        f"(Invalid literal for Fraction: {value!r})\n"
    )


@pytest.mark.parametrize(
    "command,option", [("isotope", "--f"), ("express-rmul", "--mat")]
)
def test_operator_of_the_wrong_size_exits_2(tmp_path, capsys, command, option):
    alg, mat = tmp_path / "two.alg", tmp_path / "three.mat"
    alg.write_text("field rational\ndim 2\n")
    mat.write_text("1 0 0\n0 1 0\n0 0 1\n")
    out_args = ["-o", str(tmp_path / "out.alg")] if command == "isotope" else []
    code, out, err = run(capsys, command, str(alg), option, str(mat), *out_args)
    assert (code, out) == (2, "")
    assert err.startswith("error: DimensionMismatchError: ")
    assert not (tmp_path / "out.alg").exists()


def test_nilrank_command(capsys):
    code, out, _ = run(capsys, "nilrank", str(ALGEBRAS / "c3.alg"), "--p", "5")
    assert code == 0
    assert "nil-rank: 3" in out


def test_nilrank_rejects_a_foreign_prime_on_a_gf_file(tmp_path, capsys):
    path = tmp_path / "c110_gf7.alg"
    path.write_text(serialize_algebra(c_family(Field.gf(7), 1, 1, 0)))
    code, out, err = run(capsys, "nilrank", str(path), "--p", "5")
    assert code == 2
    assert out == ""
    assert "DomainError" in err
    code, out, _ = run(capsys, "nilrank", str(path), "--p", "7")
    assert code == 0
    assert "reduced mod" not in out


@pytest.mark.parametrize(
    "args",
    [
        ["nilrank", "j2.alg", "--p", "4"],
        ["nilrank", "g2.alg", "--p", "4"],
        ["analyze", "j2.alg", "--p", "4"],
        ["nilrank", "j2.alg", "--p", "2"],
        ["analyze", "j2.alg", "--p", "2"],
    ],
)
def test_nil_rank_p_must_be_an_odd_prime_on_every_route(capsys, args):
    command, name, *rest = args
    code, out, err = run(capsys, command, str(ALGEBRAS / name), *rest)
    assert code == 2
    assert out == ""
    if rest[1] == "4":
        assert err == "error: DomainError: modulus 4 is not prime\n"
    else:
        assert err == "error: Char2FieldError: characteristic 2 is not supported\n"


def test_analyze_rejects_a_bad_p_before_the_envelope(capsys, monkeypatch):
    import isotopelab.cli as cli

    def envelope_dimension(A):
        raise AssertionError("the envelope ran before --p was checked")

    monkeypatch.setattr(cli, "envelope_dimension", envelope_dimension)
    code, out, err = run(capsys, "analyze", str(ALGEBRAS / "g3.alg"), "--p", "4")
    assert (code, out) == (2, "")
    assert err == "error: DomainError: modulus 4 is not prime\n"
    assert run(capsys, "nilrank", str(ALGEBRAS / "g3.alg"), "--p", "4")[1:] == (out, err)


def test_isotope_writes_file(tmp_path, capsys):
    J = j2(QQ)
    one, x, _ = J.basis()
    rc = (one + x).right_mult_matrix()
    f_path = tmp_path / "f.mat"
    f_path.write_text(serialize_matrix(rc.inverse()))
    out_path = tmp_path / "iso.alg"
    code, out, _ = run(
        capsys,
        "isotope",
        str(ALGEBRAS / "j2.alg"),
        "--f",
        str(f_path),
        "-o",
        str(out_path),
    )
    assert code == 0
    iso = parse_algebra_text(out_path.read_text())
    assert iso == principal_isotope(J, rc.inverse(), rc.inverse())


def test_express_rmul(tmp_path, capsys):
    J = j2(QQ)
    one, x, _ = J.basis()
    rc = (one + x).right_mult_matrix()
    m_path = tmp_path / "m.mat"
    m_path.write_text(serialize_matrix(rc))
    code, out, _ = run(
        capsys, "express-rmul", str(ALGEBRAS / "j2.alg"), "--mat", str(m_path)
    )
    assert code == 0
    assert "element: (1, 1, 0)" in out
    m_path.write_text(serialize_matrix(rc.inverse()))
    code, out, _ = run(
        capsys, "express-rmul", str(ALGEBRAS / "j2.alg"), "--mat", str(m_path)
    )
    assert code == 0
    assert "none" in out
    # on the zero algebra every element has R = 0: a 3-dimensional family
    zero_path = tmp_path / "zero.alg"
    zero_path.write_text("field rational\ndim 3\n")
    m_path.write_text("0 0 0\n0 0 0\n0 0 0\n")
    argv = ["express-rmul", str(zero_path), "--mat", str(m_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "element: (0, 0, 0)  (one of an affine family, kernel dimension 3)\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 3


def test_iso_search_command(tmp_path, capsys):
    a_path = tmp_path / "a.alg"
    b_path = tmp_path / "b.alg"
    F3 = Field.gf(3)
    a_path.write_text(serialize_algebra(c_family(F3, 1, 1, 0)))
    b_path.write_text(serialize_algebra(c_family(F3, 1, 0, 1)))
    code, out, _ = run(capsys, "iso-search", str(a_path), str(b_path))
    assert code == 0
    assert "isomorphism found" in out
    b_path.write_text(serialize_algebra(c_family(F3, 1, 0, 0)))
    code, out, _ = run(capsys, "iso-search", str(a_path), str(b_path))
    assert code == 0
    assert "none" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field rational\ndim 2\nc 5 1 1 1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}"],
    ["nilrank", "{bad}"],
    ["rmul", "{bad}", "--elem", "1"],
    ["isotope", "{alg}", "--f", "{bad}", "-o", "{out}"],
    ["isotope", "{alg}", "--f", "{mat}", "--g", "{bad}", "-o", "{out}"],
    ["express-rmul", "{bad}", "--mat", "{mat}"],
    ["express-rmul", "{alg}", "--mat", "{bad}"],
    ["iso-search", "{bad}", "{alg}"],
    ["iso-search", "{alg}", "{bad}"],
])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    paths = {"bad": tmp_path / "bad.txt", "alg": tmp_path / "one.alg",
             "mat": tmp_path / "one.mat", "out": tmp_path / "out.alg"}
    paths["bad"].write_bytes(b"\xff\n")
    paths["alg"].write_text("field gf 5\ndim 1\nc 1 1 1 1\n")
    paths["mat"].write_text("1\n")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: ParseError: not UTF-8: byte 0xff at offset 0\n"
    assert "Traceback" not in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "{big}"],
    ["nilrank", "{big}"],
    ["rmul", "{big}", "--elem", "1"],
    ["isotope", "{big}", "--f", "{mat}", "-o", "{out}"],
    ["express-rmul", "{big}", "--mat", "{mat}"],
])
def test_a_dimension_above_the_bound_exits_2(tmp_path, capsys, argv):
    # refused at the dim line, before the n^3 tensor is built
    paths = {"big": tmp_path / "big.alg", "mat": tmp_path / "one.mat", "out": tmp_path / "out.alg"}
    paths["big"].write_text("field rational\ndim 2000\n")
    paths["mat"].write_text("1\n")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: ParseError: line 2: dimension must be <= 64, got 2000\n"
    assert not paths["out"].exists()


def test_empty_witness_lists_print_none(tmp_path, capsys):
    # nil-rank 0: no nonzero nilpotent, so no witness; JSON keeps the empty list
    path = tmp_path / "one.alg"
    path.write_text("field gf 5\ndim 1\nc 1 1 1 1\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert out.endswith("nil-rank: 0  [bruteforce-fp] (closure caveat)\nnil witnesses: none\n")
    code, out, _ = run(capsys, "nilrank", str(path))
    assert (code, out) == (0, "nil-rank: 0  [bruteforce-fp] (closure caveat)\nwitnesses: none\n")
    for command in ("analyze", "nilrank"):
        code, out, _ = run(capsys, command, str(path), "--json")
        payload = json.loads(out)
        assert payload.get("nil_rank", payload)["witnesses"] == []


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.alg")
    assert code == 2


@pytest.mark.parametrize(
    "args,message",
    [
        (["lemma11", "--rho", "1/3", "--gf", "3"], "--rho 1/3 is not an element of gf 3"),
        (["lemma1", "--sigma", "1/5", "--gf", "5"], "--sigma 1/5 is not an element of gf 5"),
        (["lemma1", "--tau", "2/7", "--gf", "7"], "--tau 2/7 is not an element of gf 7"),
        (["theorem1", "--abg", "1/3,1,0", "--gf", "3"], "--abg 1/3 is not an element of gf 3"),
        # the default tau = 3 is 0 in gf 3
        (["lemma1", "--gf", "3"],
         "the scaling factors must be nonzero in gf 3 (sigma = 2, tau = 3)"),
    ],
)
def test_witness_scalar_outside_the_field_is_a_domain_error(capsys, args, message):
    code, out, err = run(capsys, "witness", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: DomainError: {message}\n"


# Runs the CLI as ``python -m`` would, then reports on standard error which
# of the modules a call should not need were loaded.
_STARTUP_PROBE = """
import runpy, sys
sys.argv = ["isotopelab", *sys.argv[1:]]
try:
    runpy.run_module("isotopelab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
heavy = sorted({"dataclasses", "inspect", "typing", "json"} & set(sys.modules))
print(f"exit {code}; loaded {heavy}", file=sys.stderr)
"""


def _startup(*argv):
    # -S keeps site hooks (and the .pth files they run) out of the import set
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.stdout, proc.stderr.splitlines()[-1]


def test_cli_startup_imports_no_more_than_it_needs():
    out, report = _startup("witness", "theorem2")
    assert report == "exit 0; loaded []"
    assert out.startswith("certificate: theorem2")
    out, report = _startup("witness", "theorem2", "--json")
    assert report == "exit 0; loaded ['json']"
    assert json.loads(out)["verdict"] is True
