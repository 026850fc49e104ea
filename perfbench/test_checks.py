"""Each output check of the benchmark rejects a wrong output.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from curv2x.cli import cli_main  # noqa: E402
from curv2x.formats import parse_morphism  # noqa: E402
from curv2x.rational_lp import LPProblem, solve  # noqa: E402
from curv2x.serre_graph import pi1_injective_oracle  # noqa: E402


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.fixture(scope="module")
def lp():
    name, n, rows, objective = inputs.read_cones()[0]
    result = solve(LPProblem(range(n), rows, objective, "max"))
    return rows, objective, result


def test_lp_check_accepts_the_optimum(lp):
    checks.check_lp(*lp[:2], "max", lp[2])


@pytest.mark.parametrize("change", [
    lambda r: {"value": r.value + Fraction(1, 7)},
    lambda r: {"dual": r.dual[:-1] + (r.dual[-1] + 1,)},
    lambda r: {"vertex": {j: 2 * v for j, v in r.vertex.items()}},
    lambda r: {"status": "infeasible"},
])
def test_lp_check_rejects_a_perturbed_result(lp, change):
    rows, objective, result = lp
    with pytest.raises(checks.CheckFailed):
        checks.check_lp(rows, objective, "max",
                        dataclasses.replace(result, **change(result)))


def test_lp_check_rejects_the_wrong_sense(lp):
    with pytest.raises(checks.CheckFailed):
        checks.check_lp(*lp[:2], "min", lp[2])


def test_cone_check_rejects_min_above_max():
    checks.check_cone_senses({"max": Fraction(1), "min": Fraction(1)})
    with pytest.raises(checks.CheckFailed):
        checks.check_cone_senses({"max": Fraction(1), "min": Fraction(2)})


TORUS = "rho+ = 0/1\nrho- = 0/1\nsigma+ = 0/1\nsigma- = 0/1\n"


@pytest.mark.parametrize("name, stdout", [
    ("torus", TORUS.replace("rho+ = 0/1", "rho+ = 1/1")),
    ("genus2", TORUS.replace("0/1", "-2/1").replace("sigma- = -2/1",
                                                    "sigma- = -1/1")),
    ("xy", TORUS),
    ("aa", TORUS.replace("0/1", "-inf")),
    ("abab", TORUS.replace("rho- = 0/1", "rho- = 1/1")),
    ("abab", TORUS.replace("rho- = 0/1", "rho- = +inf")),
])
def test_invariant_check_rejects_a_wrong_invariant(name, stdout):
    values = checks.printed_values(stdout)
    with pytest.raises(checks.CheckFailed):
        checks.check_invariants(name, values, values)


def test_invariant_check_rejects_bad_output():
    with pytest.raises(checks.CheckFailed):
        checks.printed_values(TORUS.replace("0/1", "0.0", 1))
    with pytest.raises(checks.CheckFailed):
        checks.printed_values(TORUS[:-12])
    values = checks.printed_values(TORUS)
    wrong = dict(values, **{"sigma+": Fraction(1, 2)})
    with pytest.raises(checks.CheckFailed):
        checks.check_invariants("torus", values, wrong)


def test_invariant_checks_accept_the_program(tmp_path):
    path = tmp_path / "torus.curv2x"
    path.write_text(inputs.presentation_document("ab", ["abAB"]))
    report = tmp_path / "torus.report"
    out = cli("invariant", "--which", "all", "--report", str(report),
              str(path))
    values = checks.printed_values(out)
    checks.check_invariants("torus", values,
                            checks.report_values(report.read_text()))
    assert checks.lower_invariants_agree(values)
    assert not checks.lower_invariants_agree(
        dict(values, **{"rho-": Fraction(-1, 3)}))


def test_realizer_kappa_counts_cells():
    from curv2x.branched_complex import from_presentation
    assert checks.realizer_kappa(from_presentation("ab", ["abAB"])) == 0
    assert checks.realizer_kappa(
        from_presentation("abcd", ["abABcdCD"])) == -2


@pytest.fixture(scope="module")
def verdicts(tmp_path_factory):
    """(morphism text, certify output, verify output) for one injective
    and one rank-dropping map."""
    directory = tmp_path_factory.mktemp("morphisms")
    items = inputs.certify_inputs(5, str(directory))[:3]
    out = {}
    for kind, edges, path, cert_path, injective, text in items:
        certificate = cli("certify", path)
        verified = None
        if injective:
            with open(cert_path, "w") as fh:
                fh.write(certificate)
            verified = cli("verify-certificate", cert_path)
        out[injective] = (text, certificate, verified)
    return out


def test_verdict_check_accepts_the_program(verdicts):
    for injective, outputs in verdicts.items():
        checks.check_verdict(injective, *outputs)


def test_verdict_check_rejects_a_flipped_verdict(verdicts):
    text, certificate, verified = verdicts[True]
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(True, text, "NOT_INJECTIVE\n", None)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(False, verdicts[False][0], certificate, verified)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(True, text, certificate, "error\n")


def test_verdict_check_rejects_a_certificate_for_another_map(verdicts):
    text, certificate, verified = verdicts[True]
    other = certificate.replace("map-vertex v1 r\n", "")
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(True, text, other, verified)


def test_generated_answers_match_the_rank_oracle(tmp_path):
    for kind, edges, path, _, injective, text in inputs.certify_inputs(
            7, str(tmp_path))[:12]:
        f = parse_morphism(text)
        assert f.domain.is_connected() and f.domain.is_core(), kind
        assert pi1_injective_oracle(f) == injective, (kind, edges)
