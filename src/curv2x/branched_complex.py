"""Branched 2-complexes: graphs with circles attached along immersions.

A branched 2-complex is a skeleton graph together with a boundary graph
whose components are combinatorial circles (every vertex has valence
exactly 2), an attaching morphism from the boundary into the skeleton,
and a nonnegative rational area for each boundary circle.  The circles
are the face boundaries; a face is identified with its boundary
component and named by the least vertex on it.

A branched morphism carries one complex to another by a pair of graph
morphisms (skeleton and boundary) forming a commuting square with the
attaching maps.  The boundary part must be an immersion, so on each
circle it is a covering of its image circle; the covering degree is the
multiplicity of the face, and areas must scale by it.

The link of a skeleton vertex v is itself a graph: its vertices are the
skeleton edges leaving v, its edges are the boundary edges whose start
vertex attaches to v, and two boundary edges are paired when they share
their start vertex.  Curvature is read off from areas and the Euler
characteristic of the skeleton; all arithmetic is exact.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AreaMismatch,
    AttachingNotImmersion,
    AttachingNotImmersionAfterQuotient,
    BoundaryNotCircles,
    BoundaryNotImmersion,
    DomainMismatch,
    EmptyRelator,
    FaceAreaError,
    IncompatibleOrigami,
    InvalidMap,
    NegativeArea,
    RelatorNotReduced,
    SquareNotCommuting,
    UnknownEdge,
    UnknownVertex,
)
from .origami import factor_through_quotient, quotient_graph
from .rational_lp import to_fraction
from .serre_graph import (
    GraphMorphism,
    SerreGraph,
    compose,
    identity_morphism,
    make_graph,
    rose,
)


class BranchedComplex:
    """Skeleton graph, boundary circles, attaching morphism, face areas.

    `areas` may be keyed by any vertex of the respective boundary
    component; keys are normalised to the face representative (the least
    vertex of the component).  Structural sanity (the attaching morphism
    really goes from `boundary` to `skeleton`, each face has exactly one
    area) is enforced here; the circle and immersion conditions are
    checked by `validate_complex` so that candidate quotients can be
    represented before being judged.
    """

    __slots__ = ("skeleton", "boundary", "attach", "areas", "_face_rep",
                 "_face_edges", "_starts", "_vertex_links", "_corners")

    def __init__(self, skeleton, boundary, attach, areas):
        if not isinstance(attach, GraphMorphism):
            raise InvalidMap("attach must be a GraphMorphism")
        if attach.domain != boundary or attach.codomain != skeleton:
            raise InvalidMap("attach must map the boundary into the skeleton")
        self.skeleton = skeleton
        self.boundary = boundary
        self.attach = attach
        self._face_rep = boundary.component_map()
        # faces come in order of their least vertex, edges in order too
        self._face_edges = {rep: [] for rep in self._face_rep.values()}
        for s in boundary.edges:
            self._face_edges[self._face_rep[boundary.origin[s]]].append(s)
        normal = {}
        for key, value in areas.items():
            if key not in self._face_rep:
                raise UnknownVertex(f"area key {key!r} is not a boundary vertex")
            rep = self._face_rep[key]
            if rep in normal:
                raise FaceAreaError(f"two areas given for the face of {rep!r}")
            normal[rep] = to_fraction(value)
        missing = [rep for rep in self.faces() if rep not in normal]
        if missing:
            raise FaceAreaError(f"no area given for faces {missing!r}")
        self.areas = normal
        # filled in by vertex_link, the first time any link is asked
        # for: the complex never changes, so neither do its links
        self._starts = None
        self._vertex_links = {}
        # filled in by blocks._ordered, the first time a block over the
        # complex is ranked: each boundary edge's rank and printed form
        self._corners = None

    def __repr__(self):
        return (f"BranchedComplex({len(self.skeleton.vertices)} vertices, "
                f"{len(self.skeleton.geometric_edges())} edges, "
                f"{len(self.faces())} faces)")

    def __eq__(self, other):
        if not isinstance(other, BranchedComplex):
            return NotImplemented
        return (self.skeleton == other.skeleton
                and self.boundary == other.boundary
                and self.attach.vmap == other.attach.vmap
                and self.attach.emap == other.attach.emap
                and self.areas == other.areas)

    __hash__ = None

    def faces(self):
        """Face representatives: the least vertex of each boundary circle."""
        return list(self._face_edges)

    def face_of(self, u):
        """Face representative of the boundary vertex u."""
        if u not in self._face_rep:
            raise UnknownVertex(f"no boundary vertex {u!r}")
        return self._face_rep[u]

    def face_of_edge(self, s):
        """Face representative of the boundary edge s."""
        self.boundary.check_edge(s)
        return self._face_rep[self.boundary.origin[s]]

    def face_edges(self, f):
        """Sorted oriented boundary edges of the face f."""
        if f not in self._face_edges:
            raise UnknownVertex(f"no face {f!r}")
        return self._face_edges[f]

    def face_length(self, f):
        """Number of oriented boundary edges of the face f."""
        return len(self.face_edges(f))

    def area(self, f):
        if f not in self.areas:
            raise UnknownVertex(f"no face {f!r}")
        return self.areas[f]

    def total_area(self):
        return sum(self.areas.values(), Fraction(0))


def validate_complex(x):
    """Check the circle, immersion, and area-sign conditions.

    Returns a summary dict; raises BoundaryNotCircles,
    AttachingNotImmersion, or NegativeArea.
    """
    for u in x.boundary.vertices:
        if x.boundary.valence(u) != 2:
            raise BoundaryNotCircles(
                f"boundary vertex {u!r} has valence {x.boundary.valence(u)}")
    bad = x.attach.immersion_violation()
    if bad is not None:
        raise AttachingNotImmersion(
            f"attaching map repeats edge image on the pair {bad!r}")
    for f in x.faces():
        if x.areas[f] < 0:
            raise NegativeArea(f"face {f!r} has area {x.areas[f]}")
    return {
        "vertices": len(x.skeleton.vertices),
        "edges": len(x.skeleton.geometric_edges()),
        "faces": len(x.faces()),
        "total_area": x.total_area(),
    }


def from_presentation(generators, relators):
    """Presentation complex: a rose plus one unit-area face per relator.

    Each relator is a word over the generators, capitals denoting
    inverses; it must be nonempty and cyclically reduced.  The face for
    relator i of length n is a circle with vertices p{i}.{j} and edges
    s{i}.{j} (reverse S{i}.{j}) attached along the letters of the word.
    """
    skel = rose(generators)
    s_vertices = []
    quads = []
    vmap = {}
    emap = {}
    areas = {}
    for i, word in enumerate(relators):
        letters = list(word)
        if not letters:
            raise EmptyRelator(f"relator {i} is empty")
        for a in letters:
            if not skel.has_edge(a):
                raise UnknownEdge(f"relator {i} uses unknown letter {a!r}")
        n = len(letters)
        for j, a in enumerate(letters):
            if letters[(j + 1) % n] == skel.inv[a]:
                raise RelatorNotReduced(
                    f"relator {i} backtracks at position {j}")
        for j, a in enumerate(letters):
            p = f"p{i}.{j}"
            s, sbar = f"s{i}.{j}", f"S{i}.{j}"
            s_vertices.append(p)
            quads.append((s, sbar, p, f"p{i}.{(j + 1) % n}"))
            vmap[p] = "v0"
            emap[s] = a
            emap[sbar] = skel.inv[a]
        areas[f"p{i}.0"] = Fraction(1)
    boundary = make_graph(s_vertices, quads)
    attach = GraphMorphism(boundary, skel, vmap, emap)
    return BranchedComplex(skel, boundary, attach, areas)


def vertex_link(x, v):
    """The link of a skeleton vertex, as a Serre graph.

    Vertices are the skeleton edges leaving v.  Edges are the boundary
    edges whose start vertex attaches to v; the reverse of such an edge
    is the other boundary edge at the same start vertex, and its origin
    is the attaching image of that partner.  The terminus map of the
    link is the attaching map itself.

    Links are kept per complex: the boundary edges are bucketed by the
    vertex they start over once, and each link is built the first time
    it is asked for and returned again after that.  A boundary vertex
    of the wrong valence raises BoundaryNotCircles, each time, only for
    the link it lies in.
    """
    if v not in x.skeleton._links:
        raise UnknownVertex(f"no vertex {v!r}")
    link = x._vertex_links.get(v)
    if link is not None:
        return link
    S, w = x.boundary, x.attach
    if x._starts is None:
        starts = {}
        for s in S.edges:
            starts.setdefault(w.vmap[S.origin[s]], []).append(s)
        x._starts = starts
    origin = {}
    inv = {}
    for s in x._starts.get(v, ()):
        u = S.origin[s]
        others = [t for t in S.link(u) if t != s]
        if len(others) != 1:
            raise BoundaryNotCircles(
                f"boundary vertex {u!r} has valence {S.valence(u)}")
        origin[s] = w.emap[others[0]]
        inv[s] = others[0]
    link = x._vertex_links[v] = SerreGraph(x.skeleton.link(v), origin, inv)
    return link


class BranchedMap:
    """Branched morphism: skeleton and boundary morphisms squaring with
    the attaching maps, plus one multiplicity per face.

    The boundary morphism must be an immersion, hence a covering on each
    circle; `multiplicities` holds the covering degree of each face.
    Areas must satisfy area(f) = multiplicity(f) * area(image face).
    All of this is enforced at construction.
    """

    __slots__ = ("domain", "codomain", "skeleton_map", "boundary_map",
                 "multiplicities")

    def __init__(self, domain, codomain, skeleton_map, boundary_map):
        if skeleton_map.domain != domain.skeleton \
                or skeleton_map.codomain != codomain.skeleton:
            raise InvalidMap("skeleton map must join the two skeleta")
        if boundary_map.domain != domain.boundary \
                or boundary_map.codomain != codomain.boundary:
            raise InvalidMap("boundary map must join the two boundaries")
        self.domain = domain
        self.codomain = codomain
        self.skeleton_map = skeleton_map
        self.boundary_map = boundary_map
        for u in domain.boundary.vertices:
            if skeleton_map.vmap[domain.attach.vmap[u]] \
                    != codomain.attach.vmap[boundary_map.vmap[u]]:
                raise SquareNotCommuting(
                    f"square fails at boundary vertex {u!r}")
        for s in domain.boundary.edges:
            if skeleton_map.emap[domain.attach.emap[s]] \
                    != codomain.attach.emap[boundary_map.emap[s]]:
                raise SquareNotCommuting(
                    f"square fails at boundary edge {s!r}")
        bad = boundary_map.immersion_violation()
        if bad is not None:
            raise BoundaryNotImmersion(
                f"boundary map repeats edge image on the pair {bad!r}")
        self.multiplicities = {f: self._degree(f) for f in domain.faces()}
        for f, m in self.multiplicities.items():
            img = self.image_face(f)
            if domain.areas[f] != m * codomain.areas[img]:
                raise AreaMismatch(
                    f"face {f!r}: area {domain.areas[f]} is not "
                    f"{m} * {codomain.areas[img]}")

    def image_face(self, f):
        """Face of the codomain carrying the image of the face f."""
        return self.codomain.face_of(self.boundary_map.vmap[f])

    def _degree(self, f):
        size = self.domain.face_length(f)
        image_size = self.codomain.face_length(self.image_face(f))
        deg = Fraction(size, image_size)
        if deg.denominator != 1:
            raise BoundaryNotImmersion(
                f"boundary map does not cover evenly on face {f!r}")
        return int(deg)

    def __repr__(self):
        return f"BranchedMap({self.domain!r} -> {self.codomain!r})"

    def __eq__(self, other):
        if not isinstance(other, BranchedMap):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.skeleton_map.vmap == other.skeleton_map.vmap
                and self.skeleton_map.emap == other.skeleton_map.emap
                and self.boundary_map.vmap == other.boundary_map.vmap
                and self.boundary_map.emap == other.boundary_map.emap
                and self.multiplicities == other.multiplicities)

    __hash__ = None


def identity_branched_map(x):
    return BranchedMap(x, x, identity_morphism(x.skeleton),
                       identity_morphism(x.boundary))


def compose_branched(outer, inner):
    if inner.codomain != outer.domain:
        raise InvalidMap("maps do not compose")
    return BranchedMap(inner.domain, outer.codomain,
                       compose(outer.skeleton_map, inner.skeleton_map),
                       compose(outer.boundary_map, inner.boundary_map))


def is_branched_immersion(phi):
    """True iff every induced link map is injective on vertices and edges.

    Link vertices map by the skeleton morphism, so vertex injectivity of
    every link map is exactly the skeleton morphism being an immersion.
    Link edges map by the boundary morphism, so edge injectivity asks
    that boundary edges starting over a common skeleton vertex keep
    distinct images.
    """
    if not phi.skeleton_map.is_immersion():
        return False
    S, w = phi.domain.boundary, phi.domain.attach
    seen = {}
    for s in S.edges:
        v = w.vmap[S.origin[s]]
        img = phi.boundary_map.emap[s]
        if img in seen.setdefault(v, set()):
            return False
        seen[v].add(img)
    return True


class QuotientComplexResult(NamedTuple):
    quotient: BranchedComplex
    q: BranchedMap


def quotient_complex(y, omega):
    """Quotient a complex by an origami on its skeleton.

    The faces and their areas are untouched: the boundary graph stays
    the same and is re-attached through the skeleton quotient.  If the
    re-attached map is no longer an immersion the quotient is not a
    valid complex and AttachingNotImmersionAfterQuotient is raised; this
    cannot happen when the origami is compatible with a branched
    morphism out of y, but a bare origami can fold two boundary edges at
    a shared corner together.  The skeleton quotient is the one the
    origami keeps (quotient_graph).
    """
    if omega.graph != y.skeleton:
        raise DomainMismatch("origami lives on a different graph")
    Q, qg = quotient_graph(omega)
    w_quot = compose(qg, y.attach)
    bad = w_quot.immersion_violation()
    if bad is not None:
        raise AttachingNotImmersionAfterQuotient(
            f"quotient attaching map repeats edge image on {bad!r}")
    quotient = BranchedComplex(Q, y.boundary, w_quot, dict(y.areas))
    q = BranchedMap(y, quotient, qg, identity_morphism(y.boundary))
    return QuotientComplexResult(quotient, q)


def compatible_skeleton_factor(omega, phi):
    """The skeleton map out of the origami quotient, when the origami is
    compatible with a branched morphism; raises IncompatibleOrigami
    otherwise.

    Requires graph compatibility of the origami with the skeleton map
    (the map returned is factor_through_quotient's), plus: distinct
    boundary vertices with the same image may not attach into the same
    quotient vertex, that is, the same component of the origami's
    vertex space (else the quotient would glue them, breaking the
    factored boundary map).  Both read the quotient the origami keeps.
    """
    if omega.graph != phi.domain.skeleton:
        raise DomainMismatch("origami lives on a different graph")
    h = factor_through_quotient(omega, phi.skeleton_map)
    qv = quotient_graph(omega).q.vmap
    seen = {}
    for u in phi.domain.boundary.vertices:
        key = (phi.boundary_map.vmap[u], qv[phi.domain.attach.vmap[u]])
        if seen.setdefault(key, u) != u:
            raise IncompatibleOrigami(
                f"boundary vertices {seen[key]!r} and {u!r} would be glued")
    return h


def _suitable(g):
    return bool(g.edges) and g.is_connected()


def _circle(g):
    """Connected with every vertex of valence exactly 2."""
    return _suitable(g) and all(g.valence(v) == 2 for v in g.vertices)


def _irreducible(g):
    """Connected, at least two vertices, minimum valence 2."""
    return (_suitable(g) and len(g.vertices) >= 2
            and all(g.valence(v) >= 2 for v in g.vertices))


class LinkCondition(NamedTuple):
    """A condition on link graphs: its test, and the least and greatest
    valence (hi None: unbounded) that the test accepts at a link
    vertex."""

    test: object
    lo: int
    hi: object


# The link conditions by name: sigma+/sigma- take blocks whose links
# are circles, rho+/rho- blocks whose links are irreducible.
LINK_CONDITIONS = {"surface": LinkCondition(_circle, 2, 2),
                   "irreducible": LinkCondition(_irreducible, 2, None)}


def link_predicate(name):
    """The LinkCondition named 'surface' or 'irreducible'; any other
    value, a callable too, raises ValueError."""
    if isinstance(name, str) and name in LINK_CONDITIONS:
        return LINK_CONDITIONS[name]
    raise ValueError(f"unknown link predicate {name!r}")


class CurvatureQuantities(NamedTuple):
    area: Fraction
    chi: int
    tau: Fraction
    kappa: object


def curvature_quantities(x):
    """Total area, skeleton Euler characteristic, their sum tau, and the
    ratio kappa = tau / area (None when the area is zero)."""
    area = x.total_area()
    chi = len(x.skeleton.vertices) - len(x.skeleton.geometric_edges())
    tau = area + chi
    kappa = None if area == 0 else tau / area
    return CurvatureQuantities(area, chi, tau, kappa)
