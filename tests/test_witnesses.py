import pathlib
from fractions import Fraction

import pytest

from isotopelab import (
    DomainError,
    Field,
    NilRank3Error,
    NonSimpleError,
    SearchBudgetExceededError,
    catalog_algebras,
    g_n,
    j2,
    run_witness,
    witness_lemma1,
    witness_lemma6,
    witness_lemma10,
    witness_lemma11,
    witness_prop1,
    witness_prop2,
    witness_theorem1,
    witness_theorem2,
)
from isotopelab.witnesses import PIPELINES, WITNESS_NAMES

QQ = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)


def failing_steps(cert):
    return [s.description for s in cert.steps if not s.check]


def step_map(cert):
    return {s.description: s for s in cert.steps}


# ---------------------------------------------------------------------------
# lemma1
# ---------------------------------------------------------------------------


def test_lemma1_j2_omega_one_sixth():
    cert = witness_lemma1(j2(QQ), 2, 3)
    assert cert.verdict, failing_steps(cert)
    assert cert.artifacts["omega"].value == Fraction(1, 6)


def test_lemma1_trivial_scalars():
    from isotopelab import c3

    cert = witness_lemma1(c3(QQ), 1, 1)
    assert cert.verdict
    assert cert.artifacts["omega"].value == 1


def test_lemma1_g2_negative():
    cert = witness_lemma1(g_n(QQ, 2), -1, 1)
    assert cert.verdict
    assert cert.artifacts["omega"].value == -1


def test_lemma1_zero_scalar_rejected():
    with pytest.raises(DomainError):
        witness_lemma1(j2(QQ), 0, 1)


# ---------------------------------------------------------------------------
# lemma6
# ---------------------------------------------------------------------------


def test_lemma6_verdict_and_key_steps():
    cert = witness_lemma6()
    assert cert.verdict, failing_steps(cert)
    steps = step_map(cert)
    assert steps["b*b = b"].check
    assert steps["a*c = b"].check
    assert steps["after relabeling the structure tensor equals J2 exactly"].check
    assert cert.artifacts["relabeled"] == j2(QQ)


# ---------------------------------------------------------------------------
# lemma10
# ---------------------------------------------------------------------------


def test_lemma10_golden_matrices_and_separation():
    cert = witness_lemma10()
    assert cert.verdict, failing_steps(cert)
    steps = step_map(cert)
    assert steps["R_{1+x}"].expected == "[[1, 1, 0], [0, 1, 0], [1, 0, 1]]"
    assert steps["R_{1+x}^-1"].expected == "[[1, -1, 0], [0, 1, 0], [-1, 1, 1]]"
    assert steps["e = c^2 = 1 + 2x"].actual == "(1, 2, 0)"
    assert steps["C(1,0,0) satisfies the Jordan identity"].check
    assert steps["C(1,1,0) violates the Jordan identity"].check
    assert steps["in C(1,1,0) the associator (xy, x, y) equals -x"].check


def test_lemma10_over_f3():
    cert = witness_lemma10(F3)
    assert cert.verdict, failing_steps(cert)


# ---------------------------------------------------------------------------
# lemma11
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rho,gamma,delta",
    [
        (Fraction(1), Fraction(1, 6), Fraction(3, 2)),
        (Fraction(-1), Fraction(-1, 2), Fraction(1, 2)),
    ],
)
def test_lemma11_frozen_parameters(rho, gamma, delta):
    cert = witness_lemma11(rho)
    assert cert.verdict, failing_steps(cert)
    assert cert.artifacts["gamma"].value == gamma
    assert cert.artifacts["delta"].value == delta
    assert cert.artifacts["rho"].value == rho


@pytest.mark.parametrize(
    "rho", [1, 2, 3, -1, Fraction(1, 2), Fraction(-1, 2), 5]
)
def test_lemma11_parameter_set(rho):
    cert = witness_lemma11(rho)
    assert cert.verdict, failing_steps(cert)
    recovered = step_map(cert)["4 gamma delta = rho exactly"]
    assert recovered.expected == recovered.actual == str(QQ.scalar(rho))


def test_lemma11_excluded_parameters():
    for rho in (0, -2):
        with pytest.raises(DomainError):
            witness_lemma11(rho)


def test_lemma11_over_f5():
    cert = witness_lemma11(F5.scalar(1), field=F5)
    assert cert.verdict, failing_steps(cert)


# ---------------------------------------------------------------------------
# theorem1
# ---------------------------------------------------------------------------


def test_theorem1_via_lemma10_branch():
    cert = witness_theorem1(1, 1, 0)
    assert cert.verdict, failing_steps(cert)
    assert any(s.description.startswith("lemma10:") for s in cert.steps)


def test_theorem1_via_lemma11_branch():
    cert = witness_theorem1(2, 1, 4)
    assert cert.verdict, failing_steps(cert)
    assert any(s.description.startswith("lemma11:") for s in cert.steps)


def test_theorem1_direct_branch():
    cert = witness_theorem1(4, 0, 0)
    assert cert.verdict, failing_steps(cert)


def test_theorem1_every_gf3_parameter():
    for a in (1, 2):
        for b in range(3):
            for g in range(3):
                if (b * g + 2 * a) % 3 == 0:
                    continue
                cert = witness_theorem1(a, b, g, field=F3)
                assert cert.verdict, ((a, b, g), failing_steps(cert))


def test_theorem1_errors():
    with pytest.raises(NilRank3Error):
        witness_theorem1(-2, -2, -2)
    with pytest.raises(NonSimpleError):
        witness_theorem1(0, 1, 1)


# ---------------------------------------------------------------------------
# theorem2
# ---------------------------------------------------------------------------


def test_theorem2_golden_values():
    cert = witness_theorem2()
    assert cert.verdict, failing_steps(cert)
    steps = step_map(cert)
    assert steps["e has coordinates (2, 2, 2)"].check
    assert (
        steps["R_c^-1 = 1/2 [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]"].expected
        == "[[-1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [1/2, 1/2, -1/2]]"
    )
    assert steps["(x + y) maps to z"].check
    assert steps["a * b = -2 (e + a + b)"].check


# ---------------------------------------------------------------------------
# prop1 / prop2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,dim", [(2, 9), (3, 16), (5, 36)])
def test_prop1(n, dim):
    cert = witness_prop1(n)
    assert cert.verdict, failing_steps(cert)
    assert cert.artifacts["envelope_dim"] == dim


@pytest.mark.parametrize("n", [2, 3])
def test_prop2(n):
    cert = witness_prop2(n)
    assert cert.verdict, failing_steps(cert)


def test_prop_budget():
    with pytest.raises(SearchBudgetExceededError):
        witness_prop1(9)
    with pytest.raises(SearchBudgetExceededError):
        witness_prop2(1)


# ---------------------------------------------------------------------------
# determinism and dispatch
# ---------------------------------------------------------------------------


def test_certificates_deterministic():
    a = witness_lemma11(3).as_dict()
    b = witness_lemma11(3).as_dict()
    assert a == b


def test_run_witness_dispatch():
    assert run_witness("lemma6").verdict
    assert run_witness("lemma11", rho=Fraction(1)).verdict
    assert run_witness("theorem1", abg=(2, 1, 4)).verdict
    assert run_witness("prop1", n=2).verdict
    cert = run_witness("lemma1")
    assert cert.verdict
    # one merged block per catalog algebra
    for label in catalog_algebras(QQ):
        assert any(s.description.startswith(f"{label}:") for s in cert.steps)
    with pytest.raises(DomainError):
        run_witness("lemma11")
    with pytest.raises(DomainError):
        run_witness("theorem1", abg=(1, 2))
    with pytest.raises(DomainError):
        run_witness("nope")
    # an option the pipeline does not take is an error, not ignored
    with pytest.raises(DomainError, match="prop1 does not take --rho"):
        run_witness("prop1", n=3, rho=Fraction(5))
    with pytest.raises(DomainError, match="lemma6 does not take --n, --sigma"):
        run_witness("lemma6", sigma=2, n=3)
    # n = 0 is out of range, not a request for the default n = 2
    for name in ("prop1", "prop2"):
        with pytest.raises(SearchBudgetExceededError):
            run_witness(name, n=0)


def _outcome(name, **options):
    """The certificate of a run as a dict, or the message it was refused with."""
    try:
        return run_witness(name, **options).as_dict()
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.parametrize("name", WITNESS_NAMES)
def test_run_witness_none_means_not_given(name):
    options = PIPELINES[name][1]
    for option in options:
        assert _outcome(name, **{option: None}) == _outcome(name)
    # None for an option the pipeline does not take is not given either
    assert _outcome(name, rho=None, n=None, abg=None, sigma=None, tau=None) == _outcome(name)


def test_run_witness_messages_word_for_word():
    needs_abg = "DomainError: theorem1 needs --abg alpha,beta,gamma"
    assert _outcome("lemma11") == "DomainError: lemma11 needs --rho"
    assert _outcome("theorem1") == needs_abg
    assert _outcome("theorem1", abg=(1, 2)) == needs_abg
    assert _outcome("theorem1", abg=(1, 2, 3, 4)) == needs_abg
    assert _outcome("nope") == (
        "DomainError: unknown witness 'nope'; choose from lemma1, lemma6, lemma10, "
        "lemma11, theorem1, theorem2, prop1, prop2"
    )


def test_run_witnesses_script_matches_golden(run_script):
    proc = run_script("run_witnesses.py")
    assert proc.returncode == 0, proc.stderr.decode()
    golden = pathlib.Path(__file__).resolve().parent / "data" / "run_witnesses.txt"
    assert proc.stdout == golden.read_bytes()


def test_witness_json_shape():
    payload = witness_theorem2().as_dict()
    assert set(payload) == {"title", "verdict", "steps"}
    for step in payload["steps"]:
        assert set(step) == {"step", "check", "expected", "actual"}


def test_empty_certificate_fails():
    from isotopelab import Certificate

    cert = Certificate("x")
    assert not cert.verdict
    assert not cert.as_dict()["verdict"]
    assert cert.render().endswith("verdict: FAIL (0/0 checks)")
    cert.check("one real check", True)
    assert cert.verdict
