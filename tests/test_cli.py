"""Command line behaviour: outputs, exit codes, emitted artifacts."""

import io
import contextlib

import pytest

import curv2x.pipeline
from curv2x.cli import cli_main
from curv2x.branched_complex import from_presentation
from curv2x.errors import EnumerationBudgetExceeded
from curv2x.formats import (
    parse_certificate,
    parse_complex,
    parse_morphism,
    parse_report,
    serialize_complex,
    serialize_morphism,
)
from curv2x.origami import is_compatible
from curv2x.serre_graph import GraphMorphism, SerreGraph


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.cx"
    path.write_text(serialize_complex(from_presentation("ab", ["abAB"])))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.cx"
    path.write_text("curv2x complex 1\npresentation ab\n"
                    "relator abAB\nrelator aa\n")
    return str(path)


@pytest.fixture
def empty_catalog_file(tmp_path):
    path = tmp_path / "xy.cx"
    path.write_text("curv2x complex 1\npresentation xy\nrelator xy\n")
    return str(path)


def write_morphisms(tmp_path):
    r1 = SerreGraph(["v"], {"a": "v", "A": "v"}, {"a": "A", "A": "a"})
    r2 = SerreGraph(["w"], {"b": "w", "B": "w", "c": "w", "C": "w"},
                    {"b": "B", "B": "b", "c": "C", "C": "c"})
    inj = GraphMorphism(r1, r2, {"v": "w"}, {"a": "b", "A": "B"})
    collapse = GraphMorphism(r2, r1, {"w": "v"},
                             {"b": "a", "B": "A", "c": "a", "C": "A"})
    pi = tmp_path / "inj.morph"
    pc = tmp_path / "collapse.morph"
    pi.write_text(serialize_morphism(inj))
    pc.write_text(serialize_morphism(collapse))
    return str(pi), str(pc)


# -- validate ---------------------------------------------------------------

def test_validate_complex(torus_file):
    assert run("validate", torus_file) == \
        (0, "OK complex: vertices=1 edges=2 faces=1 area=1/1\n", "")


def test_validate_rejects_broken_complex(tmp_path, torus_file):
    text = open(torus_file).read().replace("attach-edge S0.1 B",
                                           "attach-edge S0.1 A")
    bad = tmp_path / "bad.cx"
    bad.write_text(text)
    code, out, err = run("validate", str(bad))
    assert code == 1 and out == "" and err.startswith("error:")


def test_validate_graph_and_morphism(tmp_path):
    inj, _ = write_morphisms(tmp_path)
    code, out, _ = run("validate", inj)
    assert code == 0
    assert out == "OK morphism: vertices=1 edges=1 immersion=yes\n"
    g = tmp_path / "rose.graph"
    g.write_text("curv2x graph 1\nvertex v0\nedge A a v0 v0\n")
    code, out, _ = run("validate", str(g))
    assert code == 0
    assert out == "OK graph: vertices=1 edges=1 connected=yes core=yes\n"


def test_validate_missing_file():
    code, out, err = run("validate", "/does/not/exist.cx")
    assert code == 1 and out == ""


def test_validate_syntax_error_reports_position(tmp_path):
    bad = tmp_path / "bad.cx"
    bad.write_text("curv2x complex 1\narea p0.0 1/0\n")
    code, out, err = run("validate", str(bad))
    assert code == 1
    assert "line 2" in err


# -- kappa ------------------------------------------------------------------

def test_kappa_torus(torus_file):
    assert run("kappa", torus_file) == \
        (0, "Area=1/1 chi=-1 tau=0/1 kappa=0/1\n", "")


def test_kappa_decimal(mixed_file):
    code, out, _ = run("kappa", "--decimal", "2", mixed_file)
    assert code == 0
    assert out == "Area=2.00 chi=-1 tau=1.00 kappa=0.50\n"


def test_kappa_zero_area(tmp_path):
    path = tmp_path / "flat.cx"
    path.write_text("curv2x complex 1\npresentation a\nrelator aa 0\n")
    code, out, err = run("kappa", str(path))
    assert code == 1 and "area" in err


# -- invariant --------------------------------------------------------------

def test_invariant_all_torus(torus_file):
    code, out, err = run("invariant", "--which", "all", torus_file)
    assert code == 0 and err == ""
    assert out == ("rho+ = 0/1\nrho- = 0/1\n"
                   "sigma+ = 0/1\nsigma- = 0/1\n")


def test_invariant_single_and_decimal(mixed_file):
    assert run("invariant", "--which", "rho-", mixed_file) == \
        (0, "rho- = 0/1\n", "")
    code, out, _ = run("invariant", "--which", "rho+", "--decimal", "3",
                       mixed_file)
    assert (code, out) == (0, "rho+ = 1.000\n")


def test_invariant_sentinels(empty_catalog_file):
    code, out, err = run("invariant", "--which", "all", empty_catalog_file)
    assert code == 0
    assert out == ("rho+ = -inf\nrho- = +inf\n"
                   "sigma+ = -inf\nsigma- = +inf\n")


def test_invariant_deterministic(mixed_file):
    first = run("invariant", "--which", "all", mixed_file)
    second = run("invariant", "--which", "all", mixed_file)
    assert first == second


@pytest.fixture
def enumerations(monkeypatch):
    """Predicates passed to the block enumeration, in call order."""
    calls = []
    enumerate_blocks = curv2x.pipeline.enumerate_vertex_blocks

    def counting(x, predicate, *args, **kwargs):
        calls.append(predicate)
        return enumerate_blocks(x, predicate, *args, **kwargs)

    monkeypatch.setattr(curv2x.pipeline, "enumerate_vertex_blocks", counting)
    return calls


def test_invariant_all_enumerates_each_predicate_once(enumerations,
                                                      mixed_file):
    code, out, _ = run("invariant", "--which", "all", mixed_file)
    assert code == 0 and len(out.splitlines()) == 4
    assert enumerations == ["irreducible", "surface"]
    enumerations.clear()
    code, out, _ = run("invariant", "--pi", "builtin:surface",
                       "--which", "all", mixed_file)
    assert code == 0 and len(out.splitlines()) == 4
    assert enumerations == ["surface"]


def test_invariant_budget_on_second_cone_keeps_first_lines(monkeypatch,
                                                            mixed_file):
    enumerate_blocks = curv2x.pipeline.enumerate_vertex_blocks

    def surface_overruns(x, predicate, max_candidates=1_000_000):
        if predicate == "surface":
            raise EnumerationBudgetExceeded("v0", max_candidates)
        return enumerate_blocks(x, predicate, max_candidates)

    monkeypatch.setattr(curv2x.pipeline, "enumerate_vertex_blocks",
                        surface_overruns)
    code, out, err = run("invariant", "--which", "all", mixed_file)
    assert code == 2 and "budget" in err
    assert out == "rho+ = 1/1\nrho- = 0/1\n"


def test_invariant_emits_verifiable_artifacts(tmp_path, mixed_file):
    real = tmp_path / "real.cx"
    cert = tmp_path / "real.crt"
    rep = tmp_path / "run.report"
    code, out, err = run("invariant", "--which", "rho+",
                         "--emit-realizer", str(real),
                         "--emit-certificate", str(cert),
                         "--report", str(rep), mixed_file)
    assert code == 0 and out == "rho+ = 1/1\n"

    y = parse_complex(real.read_text())  # parse validates
    skel_chi = len(y.skeleton.vertices) - len(y.skeleton.geometric_edges())
    assert (y.total_area() + skel_chi) / y.total_area() == 1

    f, omega = parse_certificate(cert.read_text())
    omega.validate(essential=True)
    assert is_compatible(omega, f)
    assert run("verify-certificate", str(cert)) == (0, "VALID\n", "")

    report = parse_report(rep.read_text())
    assert [line.name for line in report.lines] == ["rho+"]
    line = report.lines[0]
    assert line.value == 1
    assert line.blocks == 29 and line.gluing_rows == 14
    assert line.lp_rows == 15 and line.lp_cols == 29
    assert line.realizer == str(real) and line.certificate == str(cert)
    assert sum(line.vector.values()) >= 1


def test_invariant_emit_needs_single_which(tmp_path, torus_file):
    code, out, err = run("invariant", "--which", "all",
                         "--emit-realizer", str(tmp_path / "r.cx"),
                         torus_file)
    assert code == 1 and "single --which" in err


def test_invariant_sentinel_emits_nothing(tmp_path, empty_catalog_file):
    real = tmp_path / "r.cx"
    code, out, err = run("invariant", "--which", "rho+",
                         "--emit-realizer", str(real), empty_catalog_file)
    assert code == 0 and out == "rho+ = -inf\n"
    assert "no realizer" in err
    assert not real.exists()


def test_invariant_pi_override(mixed_file):
    code, out, _ = run("invariant", "--which", "rho+",
                       "--pi", "builtin:surface", mixed_file)
    assert (code, out) == (0, "rho+ = 1/1\n")
    code, _, err = run("invariant", "--which", "rho+", "--pi", "surface",
                       mixed_file)
    assert code == 1 and "builtin:" in err


def test_invariant_budget_exceeded(mixed_file):
    code, out, err = run("invariant", "--which", "rho+",
                         "--max-blocks", "5", mixed_file)
    assert code == 2 and "budget" in err


def test_budget_env_var(monkeypatch, mixed_file):
    monkeypatch.setenv("CURV2X_MAX_BLOCKS", "5")
    code, _, err = run("invariant", "--which", "rho+", mixed_file)
    assert code == 2
    # an explicit flag overrides the environment
    code, out, _ = run("invariant", "--which", "rho+",
                       "--max-blocks", "100000", mixed_file)
    assert (code, out) == (0, "rho+ = 1/1\n")
    monkeypatch.setenv("CURV2X_MAX_BLOCKS", "a lot")
    code, _, err = run("invariant", "--which", "rho+", mixed_file)
    assert code == 1 and "CURV2X_MAX_BLOCKS" in err


# -- blocks -----------------------------------------------------------------

def test_blocks_listing(mixed_file):
    code, out, err = run("blocks", mixed_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "catalog predicate=surface blocks=18 gluing-rows=11"
    assert len(lines) == 19
    assert lines[1].startswith("block 0 vertex=v0 parts=")
    code, out, _ = run("blocks", "--pi", "builtin:irreducible", mixed_file)
    assert out.splitlines()[0] == \
        "catalog predicate=irreducible blocks=29 gluing-rows=14"


def test_blocks_empty_catalog(empty_catalog_file):
    code, out, _ = run("blocks", empty_catalog_file)
    assert code == 0
    assert out == "catalog predicate=surface blocks=0 gluing-rows=0\n"


# -- certify, verify-certificate, fold-graph --------------------------------

def test_certify_roundtrip(tmp_path):
    inj, collapse = write_morphisms(tmp_path)
    code, out, err = run("certify", inj)
    assert code == 0
    cert = tmp_path / "inj.crt"
    cert.write_text(out)
    assert run("verify-certificate", str(cert)) == (0, "VALID\n", "")
    assert run("certify", collapse) == (0, "NOT_INJECTIVE\n", "")


def test_verify_rejects_tampered_certificate(tmp_path):
    inj, _ = write_morphisms(tmp_path)
    code, out, _ = run("certify", inj)
    # merging a geometric edge with its own reverse breaks the origami
    bad = tmp_path / "bad.crt"
    bad.write_text(out + "origami-class a A\n")
    code, out, err = run("verify-certificate", str(bad))
    assert code == 1 and out == ""


def test_fold_graph(tmp_path):
    _, collapse = write_morphisms(tmp_path)
    code, out, err = run("fold-graph", collapse)
    assert code == 0
    assert err == "folds=1 essential=no\n"
    folded = parse_morphism(out)
    assert folded.is_immersion()
    assert len(folded.domain.geometric_edges()) == 1


# -- plumbing ---------------------------------------------------------------

def test_help_and_unknown_command():
    code, out, _ = run("--help")
    assert code == 0 and "invariant" in out
    assert run("frobnicate")[0] == 1
    # a bare invocation prints the usage help but is still a usage error
    code, out, _ = run()
    assert code == 1
