"""Document formats: round trips, shorthand, error positions."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv2x.branched_complex import from_presentation, validate_complex
from curv2x.errors import CurvError, SyntaxError, UnknownEdge
from curv2x.formats import (
    KINDS,
    InvariantReportLine,
    ReportModel,
    canonical_complex,
    decimal_string,
    format_fraction,
    parse_certificate,
    parse_complex,
    parse_document,
    parse_graph,
    parse_morphism,
    parse_report,
    relabel_graph,
    serialize_certificate,
    serialize_complex,
    serialize_document,
    serialize_graph,
    serialize_morphism,
    serialize_report,
)
from curv2x.origami import Origami, is_compatible, trivial_origami
from curv2x.pipeline import build_cone, extremize
from curv2x.serre_graph import GraphMorphism, SerreGraph

from gen import labeled_graphs, reference_parse_document


def rose(letters):
    origin = {}
    inv = {}
    for a in letters:
        origin[a] = origin[a.upper()] = "v0"
        inv[a], inv[a.upper()] = a.upper(), a
    return SerreGraph(["v0"], origin, inv)


def syntax_at(text, parser):
    with pytest.raises(SyntaxError) as info:
        parser(text)
    assert isinstance(info.value, CurvError)
    return info.value


# -- Generic documents ------------------------------------------------------

def test_header_errors():
    err = syntax_at("", parse_document)
    assert err.lineno == 1
    for kind in ("widget", "blockvector"):
        err = syntax_at(f"curv2x {kind} 1\n", parse_document)
        assert (err.lineno, err.offset) == (1, 8)
    err = syntax_at("curv2x graph 2\n", parse_document)
    assert err.offset == 14
    err = syntax_at("hello\n", parse_document)
    assert err.lineno == 1
    with pytest.raises(SyntaxError):
        parse_document("curv2x graph 1\n", expect="complex")


def test_blank_lines_and_comments_ignored():
    text = "\n# preamble\ncurv2x graph 1\n\nvertex v0\n  # note\n\t#tight\n"
    g = parse_graph(text)
    assert g.vertices == ("v0",)
    # canonical form has neither, so the round trip is on serialize's output
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_document_is_parse_inverse():
    text = serialize_graph(rose("ab"))
    doc = parse_document(text)
    rows = [(row.key, row.args) for row in doc.rows]
    assert serialize_document(doc.kind, rows) == text


# -- Graphs -----------------------------------------------------------------

def test_graph_roundtrip():
    g = rose("ab")
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_graph_syntax_errors():
    err = syntax_at("curv2x graph 1\nvertex v0\nvertex v0\n", parse_graph)
    assert (err.lineno, err.offset) == (3, 8)
    err = syntax_at("curv2x graph 1\nvertex v0\nedge a a v0 v0\n",
                    parse_graph)
    assert err.lineno == 3
    # the same name on two edge lines is a malformed inverse pairing
    bad = ("curv2x graph 1\nvertex v0\n"
           "edge a A v0 v0\nedge a B v0 v0\n")
    assert syntax_at(bad, parse_graph).lineno == 4
    err = syntax_at("curv2x graph 1\nvertex v0\nedge a A v0\n", parse_graph)
    assert err.lineno == 3
    err = syntax_at("curv2x graph 1\nwidget v0\n", parse_graph)
    assert (err.lineno, err.offset) == (2, 1)


def test_graph_semantic_errors_are_not_syntax():
    with pytest.raises(CurvError):
        parse_graph("curv2x graph 1\nedge a A v0 v0\n")  # undeclared vertex


def test_relabel_graph_canonical():
    g = rose("ab")
    g2, vren, eren = relabel_graph(g)
    assert g2.vertices == ("u0",)
    assert g2.geometric_edges() == ("E0", "E1")
    assert vren == {"v0": "u0"}
    # geometric representatives keep the capital as the canonical side
    assert eren["A"] == "E0" and eren["a"] == "e0"


def test_serialize_relabels_tuple_names():
    g = SerreGraph([("v", 0)], {("e", 0): ("v", 0), ("e", 1): ("v", 0)},
                   {("e", 0): ("e", 1), ("e", 1): ("e", 0)})
    text = serialize_graph(g)
    g2 = parse_graph(text)
    assert g2.vertices == ("u0",)
    assert serialize_graph(g2) == text


# -- Morphisms and certificates ---------------------------------------------

def double_cover_morphism():
    dom = SerreGraph(["w0", "w1"],
                     {"c0": "w0", "C0": "w1", "c1": "w1", "C1": "w0"},
                     {"c0": "C0", "C0": "c0", "c1": "C1", "C1": "c1"})
    codom = rose("a")
    return GraphMorphism(dom, codom, {"w0": "v0", "w1": "v0"},
                         {"c0": "a", "C0": "A", "c1": "a", "C1": "A"})


def test_morphism_roundtrip():
    f = double_cover_morphism()
    text = serialize_morphism(f)
    f2 = parse_morphism(text)
    assert f2.domain == f.domain and f2.codomain == f.codomain
    assert f2.vmap == f.vmap and f2.emap == f.emap
    assert serialize_morphism(f2) == text


def test_morphism_syntax_errors():
    head = "curv2x morphism 1\n"
    assert syntax_at(head + "vertex v0\n", parse_morphism).lineno == 2
    assert syntax_at(head + "codomain\n", parse_morphism).lineno == 2
    text = head + "domain\nvertex u0\ndomain\n"
    assert syntax_at(text, parse_morphism).lineno == 4
    text = (head + "domain\nvertex u0\ncodomain\nvertex v0\n"
            "map-vertex u0 v0\nmap-vertex u0 v0\n")
    assert syntax_at(text, parse_morphism).lineno == 7


def test_morphism_unknown_edges_are_semantic():
    text = (serialize_morphism(double_cover_morphism()).rstrip("\n")
            + "\nmap-edge zz a\n")
    with pytest.raises(UnknownEdge):
        parse_morphism(text)


def test_certificate_roundtrip():
    f = double_cover_morphism()
    omega = Origami(f.domain, [["c0", "c1"]])
    text = serialize_certificate(f, omega)
    f2, om2 = parse_certificate(text)
    assert f2.emap == f.emap
    assert om2 == omega
    assert serialize_certificate(f2, om2) == text


def test_certificate_trivial_origami_has_no_class_rows():
    f = double_cover_morphism()
    text = serialize_certificate(f, trivial_origami(f.domain))
    assert "origami-class" not in text
    _, om = parse_certificate(text)
    assert om == trivial_origami(f.domain)


def test_certificate_errors():
    f = double_cover_morphism()
    with pytest.raises(ValueError):
        serialize_certificate(f, trivial_origami(f.codomain))
    text = (serialize_morphism(f).replace("morphism", "certificate")
            + "origami-class c0\n")
    err = syntax_at(text, parse_certificate)
    assert "two edges" in err.msg


def test_certificate_edge_in_two_class_slots_is_a_syntax_error():
    """An edge may sit in one origami class once: a repeat inside a row
    or across rows is rejected at the repeated token."""
    f = double_cover_morphism()
    head = serialize_certificate(f, Origami(f.domain, [["c0", "c1"]]))
    line = head.count("\n") + 1
    for extra, col in (("origami-class C0 C0\n", 18),
                       ("origami-class c1 C0\n", 15)):
        err = syntax_at(head + extra, parse_certificate)
        assert (err.lineno, err.offset) == (line, col)
        assert "duplicate edge" in err.msg
    _, om = parse_certificate(head + "origami-class C0 C1\n")
    assert om.open_map["C1"] == "C0"


# -- Complexes --------------------------------------------------------------

def test_complex_roundtrip():
    x = from_presentation("ab", ["abAB"])
    text = serialize_complex(x)
    x2 = parse_complex(text)
    assert x2 == x
    assert serialize_complex(x2) == text


def test_presentation_shorthand():
    text = "curv2x complex 1\npresentation ab\nrelator abAB\nrelator aa 2/3\n"
    x = parse_complex(text)
    assert len(x.faces()) == 2
    assert x.areas["p0.0"] == 1
    assert x.areas["p1.0"] == Fraction(2, 3)
    assert x.skeleton == rose("ab")
    # shorthand normalises to the explicit form
    assert parse_complex(serialize_complex(x)) == x


def test_presentation_syntax_errors():
    head = "curv2x complex 1\n"
    assert syntax_at(head + "relator aa\n", parse_complex).lineno == 2
    assert syntax_at(head + "presentation aA\nrelator aa\n",
                     parse_complex).lineno == 2
    assert syntax_at(head + "presentation aa\nrelator aa\n",
                     parse_complex).lineno == 2
    assert syntax_at(head + "presentation a\nrelator a2\n",
                     parse_complex).lineno == 3
    assert syntax_at(head + "presentation a\nrelator aa 1/0\n",
                     parse_complex).lineno == 3
    mixed = head + "presentation a\nrelator aa\nskeleton-vertex v9\n"
    assert syntax_at(mixed, parse_complex).lineno == 4
    # an entirely empty body is the empty complex, not an error
    assert parse_complex(head).skeleton.vertices == ()


def test_presentation_semantic_errors():
    head = "curv2x complex 1\n"
    with pytest.raises(CurvError):
        parse_complex(head + "presentation a\nrelator ab\n")
    with pytest.raises(CurvError):
        parse_complex(head + "presentation a\nrelator aA\n")  # not reduced


def test_parse_validates_the_complex():
    x = from_presentation("ab", ["abAB"])
    text = serialize_complex(x)
    broken = text.replace("attach-edge S0.1 B", "attach-edge S0.1 A")
    with pytest.raises(CurvError):
        parse_complex(broken)


def test_complex_duplicate_area_rejected():
    x = from_presentation("a", ["aa"])
    text = serialize_complex(x).rstrip("\n") + "\narea p0.0 2/1\n"
    assert syntax_at(text, parse_complex).lineno > 1
    # same face under a different key is semantic, not lexical
    text = serialize_complex(x).rstrip("\n") + "\narea p0.1 2/1\n"
    with pytest.raises(ValueError):
        parse_complex(text)


def test_canonical_complex_carries_map_and_origami():
    x = from_presentation("ab", ["abAB"])
    report = extremize(build_cone(x, "surface"), "max")
    real = report.realizer
    y2, phi2, om2 = canonical_complex(real.complex, real.map, real.origami)
    assert all(isinstance(v, str) for v in y2.skeleton.vertices)
    assert phi2.domain == y2 and phi2.codomain is real.map.codomain
    assert om2.graph == y2.skeleton
    text = serialize_complex(y2)
    assert parse_complex(text) == y2
    assert serialize_complex(real.complex) == text


# -- Reports ----------------------------------------------------------------

def test_report_roundtrip():
    lines = (
        InvariantReportLine("rho+", Fraction(1, 2), 3, 2, 3, 3,
                            "real.cx", "real.crt", {b"\x00": 2, b"\x01": 1}),
        InvariantReportLine("rho-", "-inf", 0, 0, 0, 0, None, None, None),
    )
    report = ReportModel("input.cx", lines)
    text = serialize_report(report)
    assert parse_report(text) == report
    assert serialize_report(parse_report(text)) == text


def test_report_errors():
    head = "curv2x report 1\nsource in.cx\n"
    line = ("invariant rho+ value 0/1 blocks 1 gluing-rows 0 lp-rows 1 "
            "lp-cols 1 realizer - certificate -\n")
    assert syntax_at(head + "vector rho+ 00 1\n", parse_report).lineno == 3
    bad = head + line.replace("blocks", "blokcs")
    assert syntax_at(bad, parse_report).lineno == 3
    bad = head + line + "vector sigma+ 00 1\n"
    assert syntax_at(bad, parse_report).lineno == 4
    bad = head + line + "vector rho+ 00 -1\n"
    assert syntax_at(bad, parse_report).lineno == 4
    assert syntax_at("curv2x report 1\n" + line, parse_report).lineno == 1


# -- Number rendering -------------------------------------------------------

def test_format_fraction_always_shows_denominator():
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(Fraction(-3, 6)) == "-1/2"
    assert format_fraction(2) == "2/1"


def test_decimal_string():
    assert decimal_string(Fraction(1, 3), 3) == "0.333"
    assert decimal_string(Fraction(-2, 3), 2) == "-0.67"
    assert decimal_string(Fraction(5, 2), 0) == "2"  # ties round to even
    assert decimal_string(Fraction(7, 2), 0) == "4"
    assert decimal_string(Fraction(0), 2) == "0.00"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), -1)


# -- Round trips and mutated documents --------------------------------------

@settings(max_examples=40, deadline=None)
@given(labeled_graphs())
def test_graph_and_morphism_round_trip(gf):
    g, f = gf
    text = serialize_graph(g)
    assert parse_graph(text) == g
    text = serialize_morphism(f)
    f2 = parse_morphism(text)
    assert (f2.domain, f2.codomain, f2.vmap, f2.emap) == \
        (f.domain, f.codomain, f.vmap, f.emap)
    assert serialize_morphism(f2) == text


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("ab", ["abAB"]), ("a", ["aa", "aaa"]),
                        ("ab", ["aab", "abb"])]),
       st.lists(st.fractions(min_value=0, max_value=5), min_size=3,
                max_size=3))
def test_complex_round_trip(presentation, areas):
    gens, relators = presentation
    text = "".join([f"curv2x complex 1\npresentation {gens}\n"] + [
        f"relator {r} {format_fraction(a)}\n"
        for r, a in zip(relators, areas)])
    x = parse_complex(text)
    canonical = serialize_complex(x)
    assert parse_complex(canonical) == x
    assert serialize_complex(parse_complex(canonical)) == canonical


def fuzz_documents():
    f = double_cover_morphism()
    report = ReportModel("in.cx", (
        InvariantReportLine("rho+", Fraction(1, 2), 3, 2, 3, 3, "r.cx",
                            "r.crt", {b"\x00": 2, b"\x01": 1}),
        InvariantReportLine("rho-", "-inf", 0, 0, 0, 0, None, None, None)))
    return {
        "torus": serialize_complex(from_presentation("ab", ["abAB"])),
        "two faces": serialize_complex(from_presentation("a", ["aa", "aaa"])),
        "shorthand": "curv2x complex 1\npresentation ab\nrelator aab 2/3\n"
                     "relator abb\n",
        "graph": serialize_graph(rose("ab")),
        "morphism": serialize_morphism(f),
        "certificate": serialize_certificate(f, Origami(f.domain,
                                                        [["c0", "c1"]])),
        "report": serialize_report(report),
    }


FUZZ_DOCUMENTS = fuzz_documents()
FUZZ_TOKENS = sorted({t for text in FUZZ_DOCUMENTS.values()
                      for t in text.split()}
                     | {"0", "-1", "1/0", "-2/3", "x", "#", "0g", "",
                        "\t#", "x\x0by", "\u3000", "\x85#", "\x1c"})


def load_document(text):
    """Parse and validate a document the way `curv2x validate` does."""
    kind = parse_document(text).kind
    if kind == "complex":
        validate_complex(parse_complex(text))
    elif kind == "graph":
        parse_graph(text)
    elif kind == "morphism":
        parse_morphism(text)
    elif kind == "certificate":
        f, omega = parse_certificate(text)
        omega.validate(essential=True)
        is_compatible(omega, f)
    else:
        parse_report(text)


def test_fuzz_documents_load():
    for text in FUZZ_DOCUMENTS.values():
        load_document(text)


FUZZ_EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "replace"]),
              st.integers(0, 10 ** 6), st.sampled_from(FUZZ_TOKENS)),
    min_size=1, max_size=3)


def mutate(name, edits):
    """FUZZ_DOCUMENTS[name] with each (op, spot, token) edit applied."""
    lines = [line.split(" ") for line in FUZZ_DOCUMENTS[name].split("\n")]
    for op, k, token in edits:
        spots = [(i, j) for i, words in enumerate(lines)
                 for j in range(len(words))]
        i, j = spots[k % len(spots)]
        if op == "delete":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        else:
            lines[i][j] = token
        if not lines[i]:
            lines[i] = [""]
    return "\n".join(" ".join(words) for words in lines)


def syntax_fields(err):
    return (err.msg, err.lineno, err.offset, err.text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_DOCUMENTS)), FUZZ_EDITS)
def test_mutated_documents_raise_only_curv_errors(name, edits):
    text = mutate(name, edits)
    try:
        load_document(text)
    except SyntaxError as err:
        # a syntax error points at its line and at a token on it
        line = text.split("\n")[err.lineno - 1]
        starts = {m.start() + 1 for m in re.finditer(r"\S+", line)}
        assert err.offset == 1 or err.offset in starts
    except CurvError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_DOCUMENTS)), FUZZ_EDITS,
       st.sampled_from((None,) + KINDS))
def test_tokenizer_matches_the_regex_reference(name, edits, expect):
    text = mutate(name, edits)
    try:
        kind, rows = reference_parse_document(text, expect)
    except SyntaxError as err:
        with pytest.raises(SyntaxError) as info:
            parse_document(text, expect)
        assert syntax_fields(info.value) == syntax_fields(err)
        return
    doc = parse_document(text, expect)
    assert doc.kind == kind
    assert [r[:3] for r in doc.rows] == [r[:3] for r in rows]
