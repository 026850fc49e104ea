"""Origamis: edge partitions witnessing that a graph quotient is injective
on fundamental groups.

An origami on a graph is an equivalence relation on oriented edges (the
"open" relation). Reversal transports it to a second relation (the
"closed" one: e1 and e2 are closed-related when their reverses are
open-related). Two auxiliary bipartite multigraphs organize the data:

* edge space: nodes are open classes and closed classes, one edge per
  graph edge joining its open class to its closed class;
* vertex space: nodes are graph vertices and closed classes, one edge per
  graph edge joining its origin to its closed class.

The origami conditions say the quotient by these identifications is a
graph and is locally injective where it must be; an origami is essential
when both spaces are forests, and then the quotient map is injective on
fundamental groups.
"""

from typing import NamedTuple

from .errors import (
    DomainMismatch,
    FoldNotEssential,
    IncompatibleOrigami,
    NotAnOrigami,
    NotCoreOrConnected,
    NotHomotopyEquivalence,
    OrigamiNotEssential,
    PairNotOpenEquivalent,
    UnknownEdge,
)
from .serre_graph import (
    DisjointSets,
    GraphMorphism,
    SerreGraph,
    find_isomorphism,
    fold,
    sort_key,
    ssorted,
    stallings_fold,
)


class Multigraph:
    """Undirected multigraph on hashable nodes; edges carry ids."""

    def __init__(self):
        self.adj = {}
        self.edge_ends = {}

    def add_node(self, n):
        self.adj.setdefault(n, [])

    def add_edge(self, eid, u, v):
        self.add_node(u)
        self.add_node(v)
        self.adj[u].append((eid, v))
        self.adj[v].append((eid, u))
        self.edge_ends[eid] = (u, v)

    def is_forest(self):
        ds = DisjointSets(self.adj)
        for u, v in self.edge_ends.values():
            if not ds.union(u, v):
                return False
        return True

    def component_sets(self):
        ds = DisjointSets(self.adj)
        for u, v in self.edge_ends.values():
            ds.union(u, v)
        return {n: ds.find(n) for n in self.adj}

    def reachable(self, start, skip_edge=None):
        seen = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for eid, m in self.adj[n]:
                if eid == skip_edge or m in seen:
                    continue
                seen.add(m)
                stack.append(m)
        return seen

    def entry_edge(self, start, target):
        """Edge through which a search from `start` first reaches `target`."""
        if start == target:
            return None
        seen = {start}
        frontier = [start]
        via = {}
        while frontier:
            nxt = []
            for n in frontier:
                for eid, m in self.adj[n]:
                    if m in seen:
                        continue
                    seen.add(m)
                    via[m] = eid
                    if m == target:
                        return eid
                    nxt.append(m)
            frontier = nxt
        return None


class Origami:
    """Partition of the oriented edges of a graph (the open relation).

    `classes` is any iterable of iterables of edge ids; edges not listed
    form singletons. The canonical form keyed by minimum class member is
    what equality compares.
    """

    __slots__ = ("graph", "open_map", "open_classes")

    def __init__(self, graph, classes=()):
        self.graph = graph
        ds = DisjointSets(graph.edges)
        for cls in classes:
            cls = list(cls)
            for e in cls:
                if e not in graph.origin:
                    raise UnknownEdge(f"origami class mentions unknown edge {e!r}")
            for e in cls[1:]:
                ds.union(cls[0], e)
        self.open_map = {e: ds.find(e) for e in graph.edges}
        self.open_classes = tuple(tuple(c) for c in ds.classes())

    def __eq__(self, other):
        return (isinstance(other, Origami) and self.graph == other.graph
                and self.open_map == other.open_map)

    def __hash__(self):
        return hash((self.graph, self.open_classes))

    def __repr__(self):
        nontrivial = sum(1 for c in self.open_classes if len(c) > 1)
        return f"Origami({self.graph!r}, {nontrivial} nontrivial classes)"

    def open_rep(self, e):
        return self.open_map[e]

    def open_class_of(self, e):
        r = self.open_map[e]
        return tuple(x for x in self.graph.edges if self.open_map[x] == r)

    def closed_rep(self, e):
        g = self.graph
        return min((g.inv[x] for x in self.open_class_of(g.inv[e])), key=sort_key)

    def closed_class_of(self, e):
        g = self.graph
        return tuple(ssorted(g.inv[x] for x in self.open_class_of(g.inv[e])))

    def closed_map(self):
        g = self.graph
        out = {}
        for cls in self.open_classes:
            rev = [g.inv[x] for x in cls]
            rep = min(rev, key=sort_key)
            for x in rev:
                out[x] = rep
        return out

    def edge_space(self):
        m = Multigraph()
        closed = self.closed_map()
        for e in self.graph.edges:
            m.add_edge(e, ("O", self.open_map[e]), ("C", closed[e]))
        return m

    def vertex_space(self):
        m = Multigraph()
        closed = self.closed_map()
        for v in self.graph.vertices:
            m.add_node(("V", v))
        for e in self.graph.edges:
            m.add_edge(e, ("V", self.graph.origin[e]), ("C", closed[e]))
        return m

    def origami_violation(self):
        """None if the origami conditions hold, else a reason string."""
        g = self.graph
        es = self.edge_space()
        comp = es.component_sets()
        closed = self.closed_map()
        for e in g.geometric_edges():
            if comp[("O", self.open_map[e])] == comp[("O", self.open_map[g.inv[e]])]:
                return f"edge {e!r} meets its reverse in the edge space"
        vs = self.vertex_space()
        vcomp = vs.component_sets()
        for cls in self.open_classes:
            first = ("V", g.origin[cls[0]])
            for e in cls[1:]:
                if vcomp[("V", g.origin[e])] != vcomp[first]:
                    return f"origins of open class of {cls[0]!r} are disconnected"
        for cls in self.open_classes:
            if len(cls) < 2:
                continue
            targets = {("V", g.origin[e]) for e in cls}
            for m in cls:
                seen = vs.reachable(("V", g.origin[cls[0]]), skip_edge=m)
                if not targets <= seen:
                    return (f"open class of {cls[0]!r} disconnects when "
                            f"edge {m!r} is removed")
        return None

    def is_origami(self):
        return self.origami_violation() is None

    def is_essential(self):
        """Both derived spaces are forests; raises NotAnOrigami if the
        origami conditions themselves fail."""
        reason = self.origami_violation()
        if reason is not None:
            raise NotAnOrigami(reason)
        return self.edge_space().is_forest() and self.vertex_space().is_forest()

    def validate(self, essential=False):
        reason = self.origami_violation()
        if reason is not None:
            raise NotAnOrigami(reason)
        if essential:
            if not self.edge_space().is_forest():
                raise OrigamiNotEssential("edge space is not a forest")
            if not self.vertex_space().is_forest():
                raise OrigamiNotEssential("vertex space is not a forest")


class QuotientResult(NamedTuple):
    quotient: SerreGraph
    q: GraphMorphism


def trivial_origami(graph):
    """All classes singletons; always an essential origami."""
    return Origami(graph, ())


def quotient_graph(omega):
    """Quotient of the graph by the origami; returns (graph, quotient map).

    Vertices are vertex-space components (named by their least graph
    vertex), edges are edge-space components (least graph edge).
    """
    omega.validate()
    g = omega.graph
    es_comp = omega.edge_space().component_sets()
    vs_comp = omega.vertex_space().component_sets()

    edge_name = {}
    for e in g.edges:
        c = es_comp[("O", omega.open_map[e])]
        if c not in edge_name or sort_key(e) < sort_key(edge_name[c]):
            edge_name[c] = e
    vert_name = {}
    for v in g.vertices:
        c = vs_comp[("V", v)]
        if c not in vert_name or sort_key(v) < sort_key(vert_name[c]):
            vert_name[c] = v

    def qe(e):
        return edge_name[es_comp[("O", omega.open_map[e])]]

    def qv(v):
        return vert_name[vs_comp[("V", v)]]

    origin = {}
    inv = {}
    for e in g.edges:
        k = qe(e)
        origin[k] = qv(g.origin[e])
        inv[k] = qe(g.inv[e])
    Q = SerreGraph({qv(v) for v in g.vertices}, origin, inv)
    q = GraphMorphism(g, Q, {v: qv(v) for v in g.vertices}, {e: qe(e) for e in g.edges})
    return QuotientResult(Q, q)


def factor_through_quotient(omega, f):
    """The map h with h . quotient = f, when the origami is compatible.

    Compatibility means h exists and is an immersion; otherwise this
    raises IncompatibleOrigami.
    """
    if omega.graph != f.domain:
        raise DomainMismatch("origami lives on a different graph than the map's domain")
    Q, q = quotient_graph(omega)
    vmap = {}
    for v in f.domain.vertices:
        c = q.vmap[v]
        if c in vmap and vmap[c] != f.vmap[v]:
            raise IncompatibleOrigami(
                f"vertices {c!r} and {v!r} are identified but have different images")
        vmap[c] = f.vmap[v]
    emap = {}
    for e in f.domain.edges:
        c = q.emap[e]
        if c in emap and emap[c] != f.emap[e]:
            raise IncompatibleOrigami(
                f"edges {c!r} and {e!r} are identified but have different images")
        emap[c] = f.emap[e]
    h = GraphMorphism(Q, f.codomain, vmap, emap)
    if not h.is_immersion():
        raise IncompatibleOrigami("induced map on the quotient is not an immersion")
    return h


def is_compatible(omega, f):
    """True iff f factors through the quotient map with an immersion."""
    try:
        factor_through_quotient(omega, f)
    except IncompatibleOrigami:
        return False
    return True


def _check_quotient_descends(fd, om_before, om_after):
    """Assert the canonical map of quotients along a fold is an isomorphism.

    The fold projection sends classes to classes, hence induces a map of
    quotient graphs; transport is only correct if that map is bijective
    and structure preserving.
    """
    Qb, qb = quotient_graph(om_before)
    Qa, qa = quotient_graph(om_after)
    f = fd.projection
    vmap = {}
    for v in fd.before.vertices:
        src = qb.vmap[v]
        dst = qa.vmap[f.vmap[v]]
        assert vmap.setdefault(src, dst) == dst
    emap = {}
    for e in fd.before.edges:
        src = qb.emap[e]
        dst = qa.emap[f.emap[e]]
        assert emap.setdefault(src, dst) == dst
    assert len(set(vmap.values())) == len(vmap) == len(Qa.vertices) == len(Qb.vertices)
    assert len(set(emap.values())) == len(emap) == len(Qa.edges) == len(Qb.edges)
    for e in Qb.edges:
        assert Qa.origin[emap[e]] == vmap[Qb.origin[e]]
        assert Qa.inv[emap[e]] == emap[Qb.inv[e]]


def unfold_origami(fd, omega_prime, validate=True):
    """Pull an essential origami back through an essential fold.

    fd folds a1, a2 (with reverses b1, b2) of fd.before onto fd.after;
    omega_prime lives on fd.after. Classes not meeting the images of the
    folded pair pull back edge by edge; the class of the merged edge pulls
    back to one class containing a1 and a2; the class of its reverse
    splits in two, membership decided by which side of the split vertex
    the unique vertex-space path enters through.
    """
    if not fd.essential:
        raise FoldNotEssential("only essential folds can be unfolded")
    if omega_prime.graph != fd.after:
        raise DomainMismatch("origami does not live on the folded graph")
    if validate:
        omega_prime.validate(essential=True)

    delta = fd.before
    f = fd.projection
    a1, a2 = fd.a1, fd.a2
    b1, b2 = delta.inv[a1], delta.inv[a2]
    a = f.emap[a1]
    ab = fd.after.inv[a]
    v1, v2 = delta.terminus(a1), delta.terminus(a2)
    v = f.vmap[v1]
    rep = omega_prime.open_map
    rep_ab = rep[ab]
    assert rep[a] != rep_ab  # an edge open-related to its reverse is singular

    ds = DisjointSets(delta.edges)
    ds.union(a1, a2)
    groups = {}
    for e in delta.edges:
        groups.setdefault(rep[f.emap[e]], []).append(e)
    for r, es in groups.items():
        if r == rep_ab:
            continue
        for x in es[1:]:
            ds.union(es[0], x)

    split_class = [e for e in groups.get(rep_ab, []) if e not in (b1, b2)]
    if split_class:
        side = {}
        for x in delta.link(v1):
            if x != b1:
                side[f.emap[x]] = 1
        for x in delta.link(v2):
            if x != b2:
                side[f.emap[x]] = 2
        vs = omega_prime.vertex_space()
        closed = omega_prime.closed_map()
        for e in split_class:
            entry = vs.entry_edge(("C", closed[f.emap[e]]), ("V", v))
            assert entry is not None and entry in side
            ds.union(e, b1 if side[entry] == 1 else b2)

    out = Origami(delta, ds.classes())
    if validate:
        assert out.is_essential()
        _check_quotient_descends(fd, out, omega_prime)
    return out


def fold_origami(omega, a1, a2, validate=True):
    """Fold two open-equivalent edges with a common origin.

    For an essential origami the fold is automatically essential (equal
    termini would force a cycle in the vertex space). Returns the fold
    and the pushed-forward origami on the folded graph: classes map
    forward, and the classes of the two reversed edges merge.
    """
    if validate:
        omega.validate(essential=True)
    omega.graph.check_edge(a1)
    omega.graph.check_edge(a2)
    if omega.open_map[a1] != omega.open_map[a2]:
        raise PairNotOpenEquivalent(f"{a1!r} and {a2!r} are in different open classes")
    fd = fold(omega.graph, a1, a2)
    assert fd.essential
    f = fd.projection
    ds = DisjointSets(fd.after.edges)
    for cls in omega.open_classes:
        for e in cls[1:]:
            ds.union(f.emap[cls[0]], f.emap[e])
    ds.union(f.emap[omega.graph.inv[a1]], f.emap[omega.graph.inv[a2]])
    pushed = Origami(fd.after, ds.classes())
    if validate:
        assert pushed.is_essential()
        _check_quotient_descends(fd, omega, pushed)
    return fd, pushed


def foldable_pairs(omega):
    """Open-equivalent edge pairs with a common origin, sorted."""
    g = omega.graph
    out = []
    for cls in omega.open_classes:
        for i, e1 in enumerate(cls):
            for e2 in cls[i + 1:]:
                if g.origin[e1] == g.origin[e2] and g.inv[e1] != e2:
                    out.append((e1, e2))
    return sorted(out, key=lambda p: (sort_key(p[0]), sort_key(p[1])))


def certify_pi1_injective(f):
    """Essential origami compatible with f, or None when f is not injective.

    Folds f completely; if every fold is essential, the trivial origami on
    the folded graph is pulled back through the folds. The result
    witnesses injectivity: the quotient map by an essential origami is
    injective on fundamental groups, and the certificate's compatibility
    with f factors f through that quotient followed by an immersion.
    Restricted to nonempty connected core domain and codomain.
    """
    for g, side in ((f.domain, "domain"), (f.codomain, "codomain")):
        if not g.vertices or not g.is_connected() or not g.is_core():
            raise NotCoreOrConnected(f"{side} must be a nonempty connected core graph")
    seq = stallings_fold(f)
    if not seq.all_essential:
        return None
    om = trivial_origami(seq.folded)
    for fd in reversed(seq.folds):
        om = unfold_origami(fd, om, validate=False)
    return om


def origami_from_homotopy_equivalence(f):
    """Certificate for a homotopy equivalence onto the codomain.

    Requires every fold essential and the folded map an isomorphism;
    raises NotHomotopyEquivalence otherwise.
    """
    seq = stallings_fold(f)
    if not seq.all_essential:
        raise NotHomotopyEquivalence("a fold drops the rank")
    fbar = seq.fbar
    if (len(fbar.domain.vertices) != len(fbar.codomain.vertices)
            or len(fbar.domain.edges) != len(fbar.codomain.edges)):
        raise NotHomotopyEquivalence("folded map is not bijective")
    om = trivial_origami(seq.folded)
    for fd in reversed(seq.folds):
        om = unfold_origami(fd, om, validate=False)
    return om


def origami_isomorphic(om1, om2):
    """Graph isomorphism matching open classes, as (vmap, emap), or None."""
    return find_isomorphism(
        om1.graph, om2.graph,
        edge_classes_g=om1.open_map,
        edge_classes_h=om2.open_map,
    )
