"""Command line behaviour: outputs, exit codes, emitted artifacts."""

import contextlib
import gc
import hashlib
import io
import random
import weakref
from fractions import Fraction

import pytest

import curv2x.blocks
import curv2x.cli
import curv2x.formats
import curv2x.origami
import curv2x.pipeline
import gen
from curv2x.cli import cli_main
from curv2x.branched_complex import LINK_CONDITIONS, from_presentation
from curv2x.formats import (
    parse_certificate,
    parse_complex,
    parse_morphism,
    parse_report,
    serialize_complex,
    serialize_morphism,
)
from curv2x.origami import is_compatible
from curv2x.serre_graph import GraphMorphism, SerreGraph, compose, rose


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
def flat_file(tmp_path):
    path = tmp_path / "flat.cx"
    path.write_text("curv2x complex 1\npresentation a\nrelator aa 0\n")
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


def test_validate_tokenizes_each_document_once(tmp_path, monkeypatch,
                                               torus_file, mixed_file):
    inj, _ = write_morphisms(tmp_path)
    graph = tmp_path / "rose.graph"
    graph.write_text("curv2x graph 1\nvertex v0\nedge A a v0 v0\n")
    cert = tmp_path / "chain.crt"
    cert.write_text(certified_chain(tmp_path)[1])
    report = tmp_path / "run.report"
    assert run("invariant", "--which", "rho+", "--report", str(report),
               mixed_file)[0] == 0
    bad = tmp_path / "bad.cx"
    bad.write_text("curv2x complex 1\narea p0.0 1/0\n")
    calls = []
    parse = curv2x.formats.parse_document

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(curv2x.formats, "parse_document", counting)
    monkeypatch.setattr(curv2x.cli, "parse_document", counting)
    for path, expected in [
            (torus_file, (0, "OK complex: vertices=1 edges=2 faces=1 "
                             "area=1/1\n", "")),
            (str(graph), (0, "OK graph: vertices=1 edges=1 connected=yes "
                             "core=yes\n", "")),
            (inj, (0, "OK morphism: vertices=1 edges=1 immersion=yes\n",
                   "")),
            (str(cert), (0, "OK certificate: classes=5\n", "")),
            (str(report), (0, "OK report: invariants=1\n", "")),
            (str(bad), (1, "", "error: zero denominator (<document>, "
                               "line 2)\n"))]:
        calls.clear()
        assert run("validate", path) == expected
        assert len(calls) == 1


# -- kappa ------------------------------------------------------------------

def test_kappa_torus(torus_file):
    assert run("kappa", torus_file) == \
        (0, "Area=1/1 chi=-1 tau=0/1 kappa=0/1\n", "")


def test_kappa_decimal(mixed_file):
    code, out, _ = run("kappa", "--decimal", "2", mixed_file)
    assert code == 0
    assert out == "Area=2.00 chi=-1 tau=1.00 kappa=0.50\n"


def test_kappa_zero_area(flat_file):
    code, out, err = run("kappa", flat_file)
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


def test_negative_decimal_is_rejected_before_any_work(
        mixed_file, monkeypatch):
    calls = []
    build = curv2x.cli.build_cone
    monkeypatch.setattr(curv2x.cli, "build_cone",
                        lambda *a, **k: calls.append(a) or build(*a, **k))
    for argv in (["invariant", "--which", "all"], ["kappa"]):
        code, out, err = run(*argv, "--decimal", "-1", mixed_file)
        assert (code, out) == (1, "")
        assert "--decimal" in err and "-1" in err
    assert calls == []


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
    """One entry per block search at a base vertex, in call order: the
    predicates that search serves."""
    calls = []
    search = curv2x.blocks._blocks_at_vertex

    def counting(x, v, preds, *args):
        calls.append(tuple(preds))
        return search(x, v, preds, *args)

    monkeypatch.setattr(curv2x.blocks, "_blocks_at_vertex", counting)
    return calls


def test_invariant_all_enumerates_each_predicate_once(enumerations,
                                                      mixed_file):
    """--which all runs one search serving both catalogues; a single
    --which runs one search with one predicate."""
    code, out, _ = run("invariant", "--which", "all", mixed_file)
    assert code == 0 and len(out.splitlines()) == 4
    assert enumerations == [(LINK_CONDITIONS["irreducible"],
                             LINK_CONDITIONS["surface"])]
    enumerations.clear()
    code, out, _ = run("invariant", "--which", "sigma-", mixed_file)
    assert code == 0 and len(out.splitlines()) == 1
    assert enumerations == [(LINK_CONDITIONS["surface"],)]


def test_invariant_zero_area_fails_before_enumerating(enumerations,
                                                      flat_file):
    # a budget too small for the search must not hide the area error
    assert run("invariant", "--which", "all", "--max-blocks", "2",
               flat_file) == (1, "", "error: face 'p0.0' has zero area\n")
    assert enumerations == []


def test_blocks_lists_zero_area_catalogue(flat_file):
    code, out, err = run("blocks", flat_file)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "catalog predicate=surface blocks=1 gluing-rows=0"
    assert lines[1].startswith("block 0 vertex=v0 parts=2 corners=4 "
                               "area=0/1 chi=0/1 key=")
    assert len(lines) == 2


def test_invariant_all_budget_bounds_the_joint_search(mixed_file):
    """--which all spends one budget per vertex on the search that
    serves both catalogues: 316 nodes on abAB+aa, what the irreducible
    search alone visits.  One node fewer exits 2 before any line."""
    full = run("invariant", "--which", "all", mixed_file)
    assert full[0] == 0 and len(full[1].splitlines()) == 4
    code, out, err = run("invariant", "--which", "all",
                         "--max-blocks", "315", mixed_file)
    assert (code, out) == (2, "")
    assert err == ("error: block enumeration at vertex 'v0' exceeded "
                   "budget 315\n")
    assert run("invariant", "--which", "all",
               "--max-blocks", "316", mixed_file) == full


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
    omega.validate()
    assert is_compatible(omega, f)
    assert run("verify-certificate", str(cert)) == (0, "VALID\n", "")

    report = parse_report(rep.read_text())
    assert [line.name for line in report.lines] == ["rho+"]
    line = report.lines[0]
    assert line.value == 1
    assert line.blocks == 17 and line.gluing_rows == 11
    assert line.lp_rows == 12 and line.lp_cols == 17
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


def test_invariant_budget_exceeded(mixed_file):
    code, out, err = run("invariant", "--which", "rho+",
                         "--max-blocks", "5", mixed_file)
    assert code == 2 and "budget" in err


def test_budget_environment_variable_has_no_effect(monkeypatch, mixed_file):
    # --max-blocks is the budget's only setting
    plain = run("invariant", "--which", "rho+", mixed_file)
    assert plain == (0, "rho+ = 1/1\n", "")
    monkeypatch.setenv("CURV2X_MAX_BLOCKS", "5")
    assert run("invariant", "--which", "rho+", mixed_file) == plain
    code, out, err = run("invariant", "--which", "rho+",
                         "--max-blocks", "0", mixed_file)
    assert (code, out) == (1, "")
    assert "--max-blocks must be positive" in err


# -- blocks -----------------------------------------------------------------

def test_blocks_listing(mixed_file):
    code, out, err = run("blocks", mixed_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "catalog predicate=surface blocks=12 gluing-rows=9"
    assert len(lines) == 13
    assert lines[1].startswith("block 0 vertex=v0 parts=")
    code, out, _ = run("blocks", "--pi", "builtin:irreducible", mixed_file)
    assert out.splitlines()[0] == \
        "catalog predicate=irreducible blocks=17 gluing-rows=11"


def test_blocks_pi_takes_a_builtin_name(mixed_file):
    # blocks --pi names a built-in predicate with its prefix; invariant
    # has no --pi, since each --which fixes its own predicate
    code, _, err = run("blocks", "--pi", "surface", mixed_file)
    assert code == 1 and "builtin:" in err
    code, _, err = run("invariant", "--which", "rho+",
                       "--pi", "builtin:surface", mixed_file)
    assert code == 1 and "--pi" in err


def test_blocks_empty_catalog(empty_catalog_file):
    code, out, _ = run("blocks", empty_catalog_file)
    assert code == 0
    assert out == "catalog predicate=surface blocks=0 gluing-rows=0\n"


def test_blocks_prints_the_cone_rows(monkeypatch, mixed_file):
    """Each block's area and Euler weight are read off the cone's rows,
    which compute them once per block: shifting both functionals as the
    cone sees them shifts every printed value."""
    def values(out):
        return [Fraction(field.split("=")[1])
                for line in out.splitlines()[1:]
                for field in line.split()
                if field.startswith(("area=", "chi="))]

    code, before, _ = run("blocks", mixed_file)
    for name in ("block_area", "block_chi"):
        monkeypatch.setattr(curv2x.pipeline, name,
                            lambda b, f=getattr(curv2x.pipeline, name):
                            f(b) + 100)
    code, after, _ = run("blocks", mixed_file)
    assert code == 0 and len(values(before)) == 24
    assert values(after) == [v + 100 for v in values(before)]


# Over these words the catalogues used to hold blocks with two parts
# over one direction in one upper-link component; every extremum then
# failed "map is a branched immersion".
@pytest.mark.parametrize("word", ["aaabab", "AAAbAb", "ABABBB", "AbAbbb"])
def test_invariants_of_words_once_failing_the_immersion_check(tmp_path,
                                                              word):
    path = tmp_path / "w.cx"
    path.write_text(f"curv2x complex 1\npresentation ab\nrelator {word}\n")
    assert run("invariant", "--which", "all", str(path)) == (
        0, "rho+ = 0/1\nrho- = 0/1\nsigma+ = -inf\nsigma- = +inf\n", "")


# -- certify, verify-certificate, fold-graph --------------------------------

def test_certify_roundtrip(tmp_path):
    inj, collapse = write_morphisms(tmp_path)
    code, out, err = run("certify", inj)
    assert code == 0
    cert = tmp_path / "inj.crt"
    cert.write_text(out)
    assert run("verify-certificate", str(cert)) == (0, "VALID\n", "")
    assert run("certify", collapse) == (0, "NOT_INJECTIVE\n", "")


def certified_chain(tmp_path):
    """A map composed of six random unfolds of the rose on two letters,
    and the certificate `certify` prints for it."""
    _, folds = gen.random_unfold_chain(random.Random(2), rose(2), 6,
                                       keep_core=True)
    f = folds[0].projection
    for fd in folds[1:]:
        f = compose(fd.projection, f)
    path = tmp_path / "chain.mor"
    path.write_text(serialize_morphism(f))
    return f, run("certify", str(path))[1]


def test_verify_certificate_checks_once(tmp_path, monkeypatch):
    """One pass over the origami conditions, which builds both derived
    spaces, one open-separation search and one compatibility check (the
    factor through the quotient) per verification."""
    f, out = certified_chain(tmp_path)
    cert = tmp_path / "chain.crt"
    cert.write_text(out)
    assert parse_certificate(out)[1].open_classes != \
        tuple((e,) for e in f.domain.edges)
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(curv2x.origami.Origami, "_check")
    count(curv2x.origami, "factor_through_quotient")
    count(curv2x.origami, "open_separation")
    assert run("verify-certificate", str(cert)) == (0, "VALID\n", "")
    assert calls == {"_check": 1, "factor_through_quotient": 1,
                     "open_separation": 1}


def test_in_process_runs_free_their_streams(torus_file, tmp_path):
    """Streams an in-process run was redirected to are freed after it;
    click caches the default streams it writes to and keeps them."""
    inj, _ = write_morphisms(tmp_path)
    refs = []
    for argv in (["kappa", torus_file], ["fold-graph", inj]) * 3:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli_main(argv) == 0
        assert out.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_verify_rejects_tampered_certificate(tmp_path):
    inj, _ = write_morphisms(tmp_path)
    code, out, _ = run("certify", inj)
    # merging a geometric edge with its own reverse breaks the origami
    bad = tmp_path / "bad.crt"
    bad.write_text(out + "origami-class a A\n")
    code, out, err = run("verify-certificate", str(bad))
    assert code == 1 and out == ""


def test_verify_rejects_an_edge_in_two_class_rows(tmp_path):
    """A class row that repeats an edge, or two rows sharing one, is a
    malformed certificate (exit 1), not a valid origami."""
    f, out = certified_chain(tmp_path)
    rows = [r for r in out.splitlines() if r.startswith("origami-class")]
    first, second, *rest = rows[-1].split()[1:]
    e = f.domain.edges[0]
    split = out.replace(rows[-1], f"origami-class {first} {second}\n"
                        f"origami-class {second} {' '.join(rest) or first}")
    bad = tmp_path / "bad.crt"
    for text, name in ((out + f"origami-class {e} {e}\n", e),
                       (split, second)):
        bad.write_text(text)
        code, out2, err = run("verify-certificate", str(bad))
        assert (code, out2) == (1, "")
        assert f"duplicate edge {name!r}" in err


def test_fold_graph(tmp_path):
    _, collapse = write_morphisms(tmp_path)
    code, out, err = run("fold-graph", collapse)
    assert code == 0
    assert err == "folds=1 essential=no\n"
    folded = parse_morphism(out)
    assert folded.is_immersion()
    assert len(folded.domain.geometric_edges()) == 1


CERTIFY_PATH_SHA256 = (
    "d0923693c7a3b1cc9b4f6cfdb5c146f28f458680b8ea0ca5a5b3a2667aff796e")


def test_certify_path_output_is_pinned(tmp_path):
    """certify, verify-certificate and fold-graph write the same bytes as
    when this digest was taken."""
    digest = hashlib.sha256()
    morphisms = gen.a6_morphisms(random.Random(1), 30)
    for i, f in enumerate(morphisms):
        path = tmp_path / f"m{i}.mor"
        path.write_text(serialize_morphism(f))
        runs = [run("certify", str(path))]
        if runs[0][1].startswith("curv2x certificate"):
            cert = tmp_path / f"m{i}.crt"
            cert.write_text(runs[0][1])
            runs.append(run("verify-certificate", str(cert)))
        runs.append(run("fold-graph", str(path)))
        for code, out, err in runs:
            digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == CERTIFY_PATH_SHA256


# -- plumbing ---------------------------------------------------------------

def test_help_and_unknown_command():
    code, out, _ = run("--help")
    assert code == 0 and "invariant" in out
    assert run("frobnicate")[0] == 1
    # a bare invocation prints the usage help but is still a usage error
    code, out, _ = run()
    assert code == 1
