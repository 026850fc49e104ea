"""Plain-text documents for graphs, morphisms, complexes, certificates
and reports.

Every document is line oriented.  The first line is a header
``curv2x <kind> 1`` naming the document kind and format version; the
remaining lines each start with a key followed by tokens.  Tokens are
separated by any whitespace.  Blank lines and lines whose first token
starts with ``#`` are ignored on parse but never emitted, so
serialize(parse(text)) == text exactly on canonical documents.  A
syntax error names its line and the column of the token at fault.  All
numbers are exact: integers or ``p/q``.

Identifiers in emitted documents are printable ASCII tokens.  Objects
whose ids are not representable (tuples from reconstruction, merged
names from folding) are relabelled canonically before serialization;
`canonical_complex` exposes that relabelling so that a complex, a map
on it and an origami stay consistent.

The complex format has a shorthand body::

    curv2x complex 1
    presentation ab
    relator abAB
    relator aa 2/3

with capitals denoting inverse letters and one face per relator (unit
area unless given).  Serialization always emits the explicit form.
"""

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    from_presentation,
    validate_complex,
)
from .errors import SyntaxError, UnknownEdge
from .origami import Origami
from .serre_graph import GraphMorphism, SerreGraph

KINDS = ("graph", "morphism", "complex", "certificate", "report")

_TOKEN = re.compile(r"\S+")
_SAFE = re.compile(r"[\x21-\x7e]+")
_FRACTION = re.compile(r"[+-]?\d+(/\d+)?")
_INT = re.compile(r"[+-]?\d+")
_HEX = re.compile(r"(?:[0-9a-f]{2})+")


class DocRow(NamedTuple):
    """One keyed line of a document: its 1-based number, its first token,
    the tokens after it, and the line itself.  Tokens are separated by
    any whitespace; blank lines and lines whose first token starts with
    ``#`` make no row.  A syntax error names the row's line and the
    column of a token, which is found by reading the line again."""

    lineno: int
    key: str
    args: tuple
    line: str


@dataclass(frozen=True)
class DocumentModel:
    """Tokenized document: header kind plus keyed rows."""

    kind: str
    rows: tuple


def _fail(message, lineno, col, text=""):
    raise SyntaxError(message, ("<document>", lineno, col, text))


def _column(line, index):
    """1-based column where token `index` of `line` starts."""
    return [m.start() + 1 for m in _TOKEN.finditer(line)][index]


def _row_fail(row, message, arg=None):
    col = _column(row.line, 0 if arg is None else 1 + arg)
    _fail(message, row.lineno, col)


def parse_document(text, expect=None):
    """Tokenize a document and check its header.

    `expect` pins the kind.  Each kind's `<kind>_from_document`
    interprets the rows, and its `parse_<kind>` is this followed by
    that, so a caller that has tokenized a document never tokenizes it
    again.
    """
    header = None
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is None:
            if tokens[0] != "curv2x" or len(tokens) != 3:
                _fail("expected header 'curv2x <kind> 1'", lineno,
                      _column(line, 0), line)
            if tokens[1] not in KINDS:
                _fail(f"unknown document kind {tokens[1]!r}", lineno,
                      _column(line, 1), line)
            if tokens[2] != "1":
                _fail(f"unsupported format version {tokens[2]!r}", lineno,
                      _column(line, 2), line)
            header = tokens[1]
            if expect is not None and header != expect:
                _fail(f"expected a {expect} document, found {header}",
                      lineno, _column(line, 1), line)
            continue
        rows.append(DocRow(lineno, tokens[0], tuple(tokens[1:]), line))
    if header is None:
        _fail("empty document: missing 'curv2x <kind> 1' header", 1, 1)
    return DocumentModel(header, tuple(rows))


def serialize_document(kind, rows):
    """The document of `kind` with one line per (key, args) row."""
    lines = [f"curv2x {kind} 1"]
    lines += [" ".join((key, *args)) for key, args in rows]
    return "\n".join(lines) + "\n"


def format_fraction(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(token, row, arg):
    if not _FRACTION.fullmatch(token):
        _row_fail(row, f"expected a rational 'p/q' or integer, got {token!r}",
                  arg)
    num, _, den = token.partition("/")
    if den == "":
        return Fraction(int(num))
    if int(den) == 0:
        _row_fail(row, "zero denominator", arg)
    return Fraction(int(num), int(den))


def _parse_int(token, row, arg):
    if not _INT.fullmatch(token):
        _row_fail(row, f"expected an integer, got {token!r}", arg)
    return int(token)


def decimal_string(q, places):
    """Round q to `places` decimal digits; display helper only."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    scaled = round(abs(q) * 10 ** places)
    if places == 0:
        return sign + str(scaled)
    return f"{sign}{scaled // 10 ** places}.{scaled % 10 ** places:0{places}d}"


def is_safe_token(name):
    return isinstance(name, str) and bool(_SAFE.fullmatch(name))


# -- Graphs -----------------------------------------------------------------

def _arity(row, n):
    if len(row.args) != n:
        _row_fail(row, f"'{row.key}' takes {n} arguments, got {len(row.args)}")


def _graph_from_rows(rows):
    vertices = []
    seen_v = set()
    origin = {}
    inv = {}
    for row in rows:
        if row.key == "vertex":
            _arity(row, 1)
            v = row.args[0]
            if v in seen_v:
                _row_fail(row, f"duplicate vertex {v!r}", 0)
            seen_v.add(v)
            vertices.append(v)
        else:
            _arity(row, 4)
            e, ebar, o, t = row.args
            if e == ebar:
                _row_fail(row, "an edge cannot be its own reverse", 1)
            for i, name in ((0, e), (1, ebar)):
                if name in origin:
                    _row_fail(row, f"duplicate edge {name!r}", i)
            origin[e], origin[ebar] = o, t
            inv[e], inv[ebar] = ebar, e
    return SerreGraph(vertices, origin, inv)


def _graph_rows(g):
    rows = [("vertex", (v,)) for v in g.vertices]
    for e in g.geometric_edges():
        eb = g.inv[e]
        rows.append(("edge", (e, eb, g.origin[e], g.origin[eb])))
    return rows


def _graph_needs_relabel(g):
    return not all(map(is_safe_token, (*g.vertices, *g.edges)))


def relabel_graph(g):
    """Canonical string names: vertices u<i>, edge pairs E<i>/e<i>.

    Returns (graph, vertex renaming, edge renaming).
    """
    vren = {v: f"u{i}" for i, v in enumerate(g.vertices)}
    eren = {}
    for i, e in enumerate(g.geometric_edges()):
        eren[e] = f"E{i}"
        eren[g.inv[e]] = f"e{i}"
    g2 = SerreGraph(vren.values(),
                    {eren[e]: vren[g.origin[e]] for e in g.edges},
                    {eren[e]: eren[g.inv[e]] for e in g.edges})
    return g2, vren, eren


def serialize_graph(g):
    if _graph_needs_relabel(g):
        g = relabel_graph(g)[0]
    return serialize_document("graph", _graph_rows(g))


def parse_graph(text):
    return graph_from_document(parse_document(text, expect="graph"))


def graph_from_document(doc):
    for row in doc.rows:
        if row.key not in ("vertex", "edge"):
            _row_fail(row, f"unknown key {row.key!r} in a graph document")
    return _graph_from_rows(doc.rows)


# -- Morphisms and certificates ---------------------------------------------

def _split_morphism_rows(doc, extra=()):
    sections = {"domain": [], "codomain": []}
    maps = []
    extras = []
    current = None
    for row in doc.rows:
        if row.key in ("domain", "codomain"):
            _arity(row, 0)
            if sections[row.key] or current == row.key:
                _row_fail(row, f"second {row.key!r} section")
            if row.key == "codomain" and current != "domain":
                _row_fail(row, "'codomain' must follow the domain section")
            current = row.key
        elif row.key in ("vertex", "edge"):
            if current is None:
                _row_fail(row, f"{row.key!r} before a 'domain' line")
            sections[current].append(row)
        elif row.key in ("map-vertex", "map-edge"):
            maps.append(row)
        elif row.key in extra:
            extras.append(row)
        else:
            _row_fail(row, f"unknown key {row.key!r} in a {doc.kind} document")
    return sections["domain"], sections["codomain"], maps, extras


def _morphism_from_rows(dom_rows, codom_rows, map_rows):
    dom = _graph_from_rows(dom_rows)
    codom = _graph_from_rows(codom_rows)
    vmap = {}
    emap = {}
    for row in map_rows:
        _arity(row, 2)
        a, b = row.args
        if row.key == "map-vertex":
            if a in vmap:
                _row_fail(row, f"duplicate image for vertex {a!r}", 0)
            vmap[a] = b
        else:
            if a in emap:
                _row_fail(row, f"duplicate image for edge {a!r}", 0)
            if not dom.has_edge(a):
                raise UnknownEdge(f"map-edge names unknown edge {a!r}")
            if not codom.has_edge(b):
                raise UnknownEdge(f"map-edge names unknown image {b!r}")
            emap[a] = b
            emap[dom.inv[a]] = codom.inv[b]
    return GraphMorphism(dom, codom, vmap, emap)


def _morphism_rows(f):
    rows = [("domain", ())]
    rows += _graph_rows(f.domain)
    rows.append(("codomain", ()))
    rows += _graph_rows(f.codomain)
    for v in f.domain.vertices:
        rows.append(("map-vertex", (v, f.vmap[v])))
    for e in f.domain.geometric_edges():
        rows.append(("map-edge", (e, f.emap[e])))
    return rows


def relabel_morphism(f, open_classes=()):
    dom, vren, eren = relabel_graph(f.domain)
    codom, cvren, ceren = relabel_graph(f.codomain)
    f2 = GraphMorphism(dom, codom,
                       {vren[v]: cvren[f.vmap[v]] for v in f.domain.vertices},
                       {eren[e]: ceren[f.emap[e]] for e in f.domain.edges})
    classes = [[eren[e] for e in cls] for cls in open_classes]
    return f2, classes


def serialize_morphism(f):
    if _graph_needs_relabel(f.domain) or _graph_needs_relabel(f.codomain):
        f = relabel_morphism(f)[0]
    return serialize_document("morphism", _morphism_rows(f))


def parse_morphism(text):
    return morphism_from_document(parse_document(text, expect="morphism"))


def morphism_from_document(doc):
    dom_rows, codom_rows, map_rows, _ = _split_morphism_rows(doc)
    return _morphism_from_rows(dom_rows, codom_rows, map_rows)


def serialize_certificate(f, omega):
    """Morphism plus the open classes of an origami on its domain."""
    if omega.graph != f.domain:
        raise ValueError("the origami must live on the morphism's domain")
    classes = [cls for cls in omega.open_classes if len(cls) > 1]
    if _graph_needs_relabel(f.domain) or _graph_needs_relabel(f.codomain):
        f, classes = relabel_morphism(f, classes)
    rows = [("origami-class", cls) for cls in classes]
    return serialize_document("certificate", _morphism_rows(f) + rows)


def parse_certificate(text):
    """(morphism, origami): each `origami-class` row is one open class
    of two or more domain edges, and no edge is listed twice."""
    return certificate_from_document(
        parse_document(text, expect="certificate"))


def certificate_from_document(doc):
    dom_rows, codom_rows, map_rows, class_rows = _split_morphism_rows(
        doc, extra=("origami-class",))
    f = _morphism_from_rows(dom_rows, codom_rows, map_rows)
    classes = []
    seen = set()
    for row in class_rows:
        if len(row.args) < 2:
            _row_fail(row, "an origami class needs at least two edges")
        for i, e in enumerate(row.args):
            if e in seen:
                _row_fail(row, f"duplicate edge {e!r} in origami classes", i)
            seen.add(e)
        classes.append(row.args)
    return f, Origami(f.domain, classes)


# -- Complexes --------------------------------------------------------------

_COMPLEX_KEYS = ("skeleton-vertex", "skeleton-edge", "boundary-vertex",
                 "boundary-edge", "attach-edge", "area")


def parse_complex(text):
    """Parse and validate a branched complex document."""
    return complex_from_document(parse_document(text, expect="complex"))


def complex_from_document(doc):
    shorthand = [r for r in doc.rows if r.key in ("presentation", "relator")]
    explicit = [r for r in doc.rows if r.key in _COMPLEX_KEYS]
    for row in doc.rows:
        if row.key not in _COMPLEX_KEYS + ("presentation", "relator"):
            _row_fail(row, f"unknown key {row.key!r} in a complex document")
    if shorthand and explicit:
        _row_fail(explicit[0],
                  "explicit sections cannot mix with a presentation body")
    if shorthand:
        x = _complex_from_presentation(shorthand)
    else:
        x = _complex_from_rows(doc.rows)
    validate_complex(x)
    return x


def _complex_from_presentation(rows):
    letters = None
    words = []
    areas = {}
    for row in rows:
        if row.key == "presentation":
            _arity(row, 1)
            if letters is not None:
                _row_fail(row, "second 'presentation' line")
            letters = row.args[0]
            if not re.fullmatch(r"[a-z]+", letters):
                _row_fail(row, "letters must be distinct lowercase a-z", 0)
            if len(set(letters)) != len(letters):
                _row_fail(row, "letters must be distinct lowercase a-z", 0)
        else:
            if letters is None:
                _row_fail(row, "'relator' before the 'presentation' line")
            if len(row.args) not in (1, 2):
                _row_fail(row, "'relator' takes a word and an optional area")
            if not re.fullmatch(r"[A-Za-z]+", row.args[0]):
                _row_fail(row, "a relator is a word of letters", 0)
            if len(row.args) == 2:
                areas[f"p{len(words)}.0"] = parse_fraction(row.args[1], row, 1)
            words.append(row.args[0])
    if letters is None:
        raise SyntaxError("a shorthand body needs a 'presentation' line",
                          ("<document>", 1, 1, ""))
    x = from_presentation(letters, words)
    if areas:
        full = dict(x.areas)
        full.update(areas)
        x = BranchedComplex(x.skeleton, x.boundary, x.attach, full)
    return x


def _complex_from_rows(rows):
    strip = {"skeleton-vertex": "vertex", "skeleton-edge": "edge",
             "boundary-vertex": "vertex", "boundary-edge": "edge"}
    skel_rows = [r._replace(key=strip[r.key]) for r in rows
                 if r.key.startswith("skeleton-")]
    bound_rows = [r._replace(key=strip[r.key]) for r in rows
                  if r.key.startswith("boundary-")]
    skel = _graph_from_rows(skel_rows)
    bound = _graph_from_rows(bound_rows)
    emap = {}
    areas = {}
    seen_area = set()
    for row in rows:
        if row.key == "attach-edge":
            _arity(row, 2)
            s, img = row.args
            if s in emap:
                _row_fail(row, f"duplicate attachment for edge {s!r}", 0)
            if not bound.has_edge(s):
                raise UnknownEdge(f"attach-edge names unknown edge {s!r}")
            if not skel.has_edge(img):
                raise UnknownEdge(f"attach-edge names unknown image {img!r}")
            emap[s] = img
            emap[bound.inv[s]] = skel.inv[img]
        elif row.key == "area":
            _arity(row, 2)
            key = row.args[0]
            if key in seen_area:
                _row_fail(row, f"duplicate area for {key!r}", 0)
            seen_area.add(key)
            areas[key] = parse_fraction(row.args[1], row, 1)
    vmap = {bound.origin[s]: skel.origin[img] for s, img in emap.items()}
    attach = GraphMorphism(bound, skel, vmap, emap)
    return BranchedComplex(skel, bound, attach, areas)


def _complex_needs_relabel(x):
    return _graph_needs_relabel(x.skeleton) or _graph_needs_relabel(x.boundary)


def canonical_complex(y, phi=None, omega=None):
    """Relabel a complex into emittable names, carrying a map and origami.

    Skeleton vertices become u<i> and edge pairs E<i>/e<i>; face i is
    walked from its representative vertex along its least outgoing edge,
    with vertices p<i>.<j> and edge pairs T<i>.<j>/t<i>.<j>.  Returns
    (complex, map or None, origami or None).
    """
    skel, vren, eren = relabel_graph(y.skeleton)
    bvren = {}
    beren = {}
    bound = y.boundary
    for i, rep in enumerate(y.faces()):
        v, s, j = rep, bound.link(rep)[0], 0
        while True:
            bvren[v] = f"p{i}.{j}"
            bseren = (f"t{i}.{j}", f"T{i}.{j}")
            beren[s], beren[bound.inv[s]] = bseren
            v = bound.origin[bound.inv[s]]
            if v == rep:
                break
            nxt = [e for e in bound.link(v) if e != bound.inv[s]]
            if len(nxt) != 1:
                raise ValueError("boundary is not a disjoint union of circles")
            s, j = nxt[0], j + 1
    bound2 = SerreGraph(bvren.values(),
                        {beren[s]: bvren[bound.origin[s]] for s in bound.edges},
                        {beren[s]: beren[bound.inv[s]] for s in bound.edges})
    attach = GraphMorphism(
        bound2, skel,
        {bvren[v]: vren[y.attach.vmap[v]] for v in bound.vertices},
        {beren[s]: eren[y.attach.emap[s]] for s in bound.edges})
    areas = {bvren[rep]: y.areas[rep] for rep in y.faces()}
    y2 = BranchedComplex(skel, bound2, attach, areas)
    phi2 = None
    if phi is not None:
        phi2 = BranchedMap(
            y2, phi.codomain,
            GraphMorphism(skel, phi.codomain.skeleton,
                          {vren[v]: phi.skeleton_map.vmap[v]
                           for v in y.skeleton.vertices},
                          {eren[e]: phi.skeleton_map.emap[e]
                           for e in y.skeleton.edges}),
            GraphMorphism(bound2, phi.codomain.boundary,
                          {bvren[v]: phi.boundary_map.vmap[v]
                           for v in bound.vertices},
                          {beren[s]: phi.boundary_map.emap[s]
                           for s in bound.edges}))
    omega2 = None
    if omega is not None:
        omega2 = Origami(skel, [[eren[e] for e in cls]
                                for cls in omega.open_classes if len(cls) > 1])
    return y2, phi2, omega2


def serialize_complex(x):
    if _complex_needs_relabel(x):
        x = canonical_complex(x)[0]
    rows = []
    for key, args in _graph_rows(x.skeleton):
        rows.append((f"skeleton-{key}", args))
    for key, args in _graph_rows(x.boundary):
        rows.append((f"boundary-{key}", args))
    for s in x.boundary.geometric_edges():
        rows.append(("attach-edge", (s, x.attach.emap[s])))
    for rep in x.faces():
        rows.append(("area", (rep, format_fraction(x.areas[rep]))))
    return serialize_document("complex", rows)


# -- Reports ----------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReportLine:
    name: str
    value: object  # Fraction, or the strings "+inf"/"-inf"
    blocks: int
    gluing_rows: int
    lp_rows: int
    lp_cols: int
    realizer: object  # path string or None
    certificate: object
    vector: object  # {block key bytes: int} or None


@dataclass(frozen=True)
class ReportModel:
    source: str
    lines: tuple


_REPORT_FIELDS = ("value", "blocks", "gluing-rows", "lp-rows", "lp-cols",
                  "realizer", "certificate")


def serialize_report(report):
    rows = [("source", (report.source,))]
    for line in report.lines:
        value = (line.value if isinstance(line.value, str)
                 else format_fraction(line.value))
        args = (line.name,
                "value", value,
                "blocks", str(line.blocks),
                "gluing-rows", str(line.gluing_rows),
                "lp-rows", str(line.lp_rows),
                "lp-cols", str(line.lp_cols),
                "realizer", line.realizer or "-",
                "certificate", line.certificate or "-")
        rows.append(("invariant", args))
        for key in sorted(line.vector or ()):
            rows.append(("vector",
                         (line.name, key.hex(), str(line.vector[key]))))
    return serialize_document("report", rows)


def parse_report(text):
    return report_from_document(parse_document(text, expect="report"))


def report_from_document(doc):
    source = None
    lines = []
    for row in doc.rows:
        if row.key == "source":
            _arity(row, 1)
            if source is not None:
                _row_fail(row, "second 'source' line")
            source = row.args[0]
        elif row.key == "invariant":
            if len(row.args) != 1 + 2 * len(_REPORT_FIELDS):
                _row_fail(row, "malformed invariant line")
            fields = {}
            for i, expected in enumerate(_REPORT_FIELDS):
                label, token = row.args[1 + 2 * i], row.args[2 + 2 * i]
                if label != expected:
                    _row_fail(row, f"expected field {expected!r}", 1 + 2 * i)
                fields[expected] = (token, 2 + 2 * i)
            value, arg = fields["value"]
            if value not in ("+inf", "-inf"):
                value = parse_fraction(value, row, arg)
            ints = {k: _parse_int(fields[k][0], row, fields[k][1])
                    for k in ("blocks", "gluing-rows", "lp-rows", "lp-cols")}
            refs = {k: (None if fields[k][0] == "-" else fields[k][0])
                    for k in ("realizer", "certificate")}
            lines.append(InvariantReportLine(
                row.args[0], value, ints["blocks"], ints["gluing-rows"],
                ints["lp-rows"], ints["lp-cols"], refs["realizer"],
                refs["certificate"], None))
        elif row.key == "vector":
            _arity(row, 3)
            if not lines or lines[-1].name != row.args[0]:
                _row_fail(row, "vector line must follow its invariant line",
                          0)
            if not _HEX.fullmatch(row.args[1]):
                _row_fail(row, "block key must be lowercase hex bytes", 1)
            count = _parse_int(row.args[2], row, 2)
            if count < 0:
                _row_fail(row, "counts are nonnegative", 2)
            key = bytes.fromhex(row.args[1])
            vec = dict(lines[-1].vector or {})
            if key in vec:
                _row_fail(row, "duplicate block key", 1)
            vec[key] = count
            lines[-1] = replace(lines[-1], vector=vec)
        else:
            _row_fail(row, f"unknown key {row.key!r} in a report document")
    if source is None:
        raise SyntaxError("missing 'source' line", ("<document>", 1, 1, ""))
    return ReportModel(source, tuple(lines))
