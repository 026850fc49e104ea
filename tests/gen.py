"""Shared hypothesis strategies and deterministic generators for the tests."""

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from curv2x.errors import (
    CurvError,
    DomainMismatch,
    FoldNotEssential,
    InvalidMap,
    LPFailure,
    NotAnOrigami,
    SyntaxError,
    VerificationFailed,
)
from curv2x.formats import KINDS
from curv2x.rational_lp import LPResult, to_fraction
from curv2x.serre_graph import (
    DisjointSets,
    FoldSequence,
    GraphMorphism,
    SerreGraph,
    compose,
    identity_morphism,
    make_graph,
    rose,
    sort_key,
    stallings_fold,
)

LETTERS = "abcd"


@st.composite
def serre_graphs(draw, max_vertices=5, max_geometric_edges=7, min_geometric_edges=0):
    n = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    quads = []
    m = draw(st.integers(min_geometric_edges, max_geometric_edges))
    for j in range(m):
        u = draw(st.sampled_from(verts))
        v = draw(st.sampled_from(verts))
        quads.append((f"e{j}", f"E{j}", u, v))
    return make_graph(verts, quads)


@st.composite
def labeled_graphs(draw, max_letters=3, **kwargs):
    """A graph together with a morphism to a rose (a letter per edge pair)."""
    g = draw(serre_graphs(**kwargs))
    k = draw(st.integers(1, max_letters))
    target = rose(LETTERS[:k])
    emap = {}
    for e in g.geometric_edges():
        x = draw(st.sampled_from(LETTERS[:k]))
        flip = draw(st.booleans())
        emap[e] = x.upper() if flip else x
        emap[g.inv[e]] = x if flip else x.upper()
    f = GraphMorphism(g, target, {v: "v0" for v in g.vertices}, emap)
    return g, f


def core_of(g):
    """Iteratively strip valence-0 and valence-1 vertices; may return the empty graph."""
    verts = set(g.vertices)
    edges = set(g.edges)
    while True:
        val = {v: 0 for v in verts}
        for e in edges:
            val[g.origin[e]] += 1
        drop = {v for v, k in val.items() if k <= 1}
        if not drop:
            return subgraph(g, verts, edges)
        verts -= drop
        edges = {e for e in edges
                 if g.origin[e] not in drop and g.origin[g.inv[e]] not in drop}


def subgraph(g, vertices, edges):
    """The graph on the given vertices and edges of g; the edges must
    be closed under reversal and start at the given vertices."""
    edges = set(edges)
    return SerreGraph(vertices, {e: g.origin[e] for e in edges},
                      {e: g.inv[e] for e in edges})


def betti_numbers(g):
    """(total first Betti number, {component representative: b1})."""
    comp = g.component_map()
    verts = {}
    geom = {}
    for v, r in comp.items():
        verts[r] = verts.get(r, 0) + 1
        geom.setdefault(r, 0)
    for e in g.geometric_edges():
        geom[comp[g.origin[e]]] += 1
    per = {r: geom[r] - verts[r] + 1 for r in verts}
    return sum(per.values()), per


def fibre_product(f, g):
    """Pullback of f: A -> C and g: B -> C; returns (graph, proj_A, proj_B).

    Vertices are pairs (a, b) with equal image, likewise edges; structure
    maps act coordinatewise (Stallings' construction).
    """
    if f.codomain != g.codomain:
        raise InvalidMap("fibre product needs a common codomain")
    A, B = f.domain, g.domain
    verts = [(x, y) for x in A.vertices for y in B.vertices if f.vmap[x] == g.vmap[y]]
    origin = {}
    inv = {}
    for e1 in A.edges:
        for e2 in B.edges:
            if f.emap[e1] == g.emap[e2]:
                origin[(e1, e2)] = (A.origin[e1], B.origin[e2])
                inv[(e1, e2)] = (A.inv[e1], B.inv[e2])
    P = SerreGraph(verts, origin, inv)
    pa = GraphMorphism(P, A, {p: p[0] for p in P.vertices}, {e: e[0] for e in P.edges})
    pb = GraphMorphism(P, B, {p: p[1] for p in P.vertices}, {e: e[1] for e in P.edges})
    return P, pa, pb


def unfold_graph(g, a, side1, side2):
    """Invert a fold: split v = terminus(a) along a partition of its link.

    side1 and side2 partition link(v) minus {reverse(a)}; the new graph has
    vertices v.1, v.2 and edges a.1, a.2 replacing a, and the returned Fold
    folds it back onto g (its `after` is g itself).
    """
    g.check_edge(a)
    abar = g.inv[a]
    v = g.terminus(a)
    side1, side2 = set(side1), set(side2)
    expected = set(g.link(v)) - {abar}
    if side1 & side2 or (side1 | side2) != expected:
        raise NotFoldable("sides must partition the link at the split vertex minus the reversed edge")
    side = {e: 1 for e in side1}
    side.update({e: 2 for e in side2})

    def fresh(base, taken):
        s = str(base)
        k = 1
        while f"{s}.{k}" in taken or f"{s}.{k + 1}" in taken:
            k += 2
        return f"{s}.{k}", f"{s}.{k + 1}"

    v1, v2 = fresh(v, set(g.vertices))
    a1, a2 = fresh(a, set(g.edges))
    ab1, ab2 = fresh(abar, set(g.edges) | {a1, a2})

    def split_vertex(u, via_edge):
        if u != v:
            return u
        return v1 if side[via_edge] == 1 else v2

    origin = {}
    inv = {}
    for e in g.edges:
        if e in (a, abar):
            continue
        origin[e] = split_vertex(g.origin[e], e) if g.origin[e] == v else g.origin[e]
        inv[e] = g.inv[e]
    # ends of the split edge: a.i keeps the origin of a, abar.i starts at v.i
    u_img = g.origin[a]
    if u_img == v:
        u1 = split_vertex(v, a)  # a itself sits in a side when it is a loop
        u2 = u1
    else:
        u1 = u2 = u_img
    origin[a1] = u1
    origin[a2] = u2
    origin[ab1] = v1
    origin[ab2] = v2
    inv[a1], inv[ab1] = ab1, a1
    inv[a2], inv[ab2] = ab2, a2
    verts = [w for w in g.vertices if w != v] + [v1, v2]
    before = SerreGraph(verts, origin, inv)

    vmap = {w: (v if w in (v1, v2) else w) for w in verts}
    emap = {e: e for e in g.edges if e not in (a, abar)}
    emap.update({a1: a, a2: a, ab1: abar, ab2: abar})
    proj = GraphMorphism(before, g, vmap, emap)
    return Fold(before, g, a1, a2, a, v, proj, True)


def random_unfold_chain(rng, start, steps, keep_core=False):
    """Apply `steps` random unfolds to `start`; returns (graph, folds).

    folds run from the returned graph down to `start`: folds[0].before is
    the returned graph and folds[-1].after is `start`, so composing the
    projections in list order gives the full refolding map. With
    keep_core, splits only happen at vertices of valence >= 3 and both
    sides stay nonempty, so a core start yields a core result (the chain
    may then stop short of `steps`).
    """
    g = start
    folds = []
    for _ in range(steps):
        if keep_core:
            candidates = [e for e in g.edges if g.valence(g.terminus(e)) >= 3]
        else:
            candidates = list(g.edges)
        if not candidates:
            break
        a = rng.choice(candidates)
        rest = [e for e in g.link(g.terminus(a)) if e != g.inv[a]]
        while True:
            side1 = [e for e in rest if rng.random() < 0.5]
            side2 = [e for e in rest if e not in side1]
            if not keep_core or (side1 and side2):
                break
        fd = unfold_graph(g, a, side1, side2)
        folds.append(fd)
        g = fd.before
    folds.reverse()
    return g, folds


def permutation_cover(base, perms):
    """Degree-n cover of `base` from permutations indexed by geometric edge.

    perms maps each canonical geometric edge of `base` to a permutation
    given as a list p of length n (sheet i at the origin connects to sheet
    p[i] at the terminus). Returns (cover, covering morphism).
    """
    n = None
    for p in perms.values():
        n = len(p)
        break
    verts = [(v, i) for v in base.vertices for i in range(n)]
    origin = {}
    inv = {}
    for e in base.geometric_edges():
        p = perms[e]
        for i in range(n):
            origin[(e, i)] = (base.origin[e], i)
            origin[(base.inv[e], i)] = (base.terminus(e), p[i])
            inv[(e, i)] = (base.inv[e], i)
            inv[(base.inv[e], i)] = (e, i)
    cover = SerreGraph(verts, origin, inv)
    f = GraphMorphism(cover, base,
                      {(v, i): v for (v, i) in verts},
                      {d: d[0] for d in cover.edges})
    return cover, f


def random_permutation_cover(rng, base, degree):
    perms = {}
    for e in base.geometric_edges():
        p = list(range(degree))
        rng.shuffle(p)
        perms[e] = p
    return permutation_cover(base, perms)


def random_core_graph(rng, max_extra=4):
    """Connected core graph: a rose with a few random unfolds applied,
    then cored (unfolds may create valence-1 vertices). Nonempty since the
    rose has positive rank."""
    g = rose(rng.randint(1, 3))
    g, _ = random_unfold_chain(rng, g, rng.randint(0, max_extra))
    return core_of(g)


class NotFoldable(CurvError):
    """The given edge pair cannot be folded (distinct origins, or a2 == a1bar)."""


@dataclass(frozen=True)
class Fold:
    """One elementary fold: identify edges a1, a2 sharing an origin.

    `projection` maps `before` onto `after`. The fold is essential iff the
    termini of a1 and a2 were distinct (then the fold is a homotopy
    equivalence); otherwise it kills one generator of pi1.
    """

    before: SerreGraph
    after: SerreGraph
    a1: object
    a2: object
    merged_edge: object
    merged_vertex: object
    projection: GraphMorphism
    essential: bool


def fold(g, a1, a2):
    """Fold the edges a1, a2; requires a common origin and a2 != reverse(a1).

    The one-pair reference for `stallings_fold`, naming ids as it does.
    """
    g.check_edge(a1)
    g.check_edge(a2)
    if a1 == a2:
        raise NotFoldable("need two distinct edges")
    if g.origin[a1] != g.origin[a2]:
        raise NotFoldable(f"{a1!r} and {a2!r} have different origins")
    if g.inv[a1] == a2:
        raise NotFoldable("cannot fold an edge with its own reverse")
    if sort_key(a2) < sort_key(a1):
        a1, a2 = a2, a1
    keep, drop = a1, a2
    v1, v2 = g.terminus(a1), g.terminus(a2)
    essential = v1 != v2
    if essential:
        v_keep, v_drop = (v1, v2) if sort_key(v1) < sort_key(v2) else (v2, v1)
    else:
        v_keep, v_drop = v1, None

    def pv(v):
        return v_keep if v == v_drop else v

    dropped = {drop, g.inv[drop]}
    origin = {e: pv(g.origin[e]) for e in g.edges if e not in dropped}
    inv = {e: g.inv[e] for e in origin}
    verts = [v for v in g.vertices if v != v_drop]
    after = SerreGraph(verts, origin, inv)

    emap = {e: e for e in origin}
    emap[drop] = keep
    emap[g.inv[drop]] = g.inv[keep]
    vmap = {v: pv(v) for v in g.vertices}
    proj = GraphMorphism(g, after, vmap, emap)
    return Fold(g, after, a1, a2, keep, v_keep if essential else None, proj, essential)


def induced_isomorphism(p, q):
    """The isomorphism p.codomain -> q.codomain sending p(x) to q(x),
    for morphisms p, q out of one domain, or None when that map is not
    well defined, not bijective, or does not keep origin and reversal."""
    maps = []
    for pm, qm, target in ((p.vmap, q.vmap, q.codomain.vertices),
                           (p.emap, q.emap, q.codomain.edges)):
        out = {}
        for x, y in pm.items():
            if out.setdefault(y, qm[x]) != qm[x]:
                return None
        if not len(set(out.values())) == len(out) == len(target):
            return None
        maps.append(out)
    try:
        return GraphMorphism(p.codomain, q.codomain, *maps)
    except InvalidMap:
        return None


def push_forward(omega, fd):
    """The origami a fold `fd` of omega's graph carries omega to: each
    open class mapped through the projection.  The reversed folded
    edges b1, b2 have one image, so their classes merge."""
    from curv2x.origami import Origami

    f = fd.projection
    return Origami(fd.after, ([f.emap[e] for e in cls]
                              for cls in omega.open_classes))


def reference_stallings_fold(f):
    """Fold f one pair at a time, rebuilding the graph after each fold.

    The slow path `stallings_fold` replaced: same folds in the same
    order, but `folds` holds `Fold`s with their graphs and projections.
    Quadratic in the number of folds.
    """
    folds = []
    current = f
    f0 = identity_morphism(f.domain)
    while True:
        pair = current.immersion_violation()
        if pair is None:
            break
        fd = fold(current.domain, *pair)
        folds.append(fd)
        current = GraphMorphism(
            fd.after, f.codomain,
            {v: current.vmap[v] for v in fd.after.vertices},
            {e: current.emap[e] for e in fd.after.edges})
        f0 = compose(fd.projection, f0)
    if not current.is_immersion():
        raise VerificationFailed("the folded map is not an immersion")
    return FoldSequence(f.domain, f.codomain, folds, current.domain, f0, current)


def _entry_edge(space, start, target):
    """Edge through which a breadth-first search of the multigraph
    from `start` first reaches `target`."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for n in frontier:
            for eid, m in space.adj[n]:
                if m in seen:
                    continue
                seen.add(m)
                if m == target:
                    return eid
                nxt.append(m)
        frontier = nxt
    return None


class ReferenceMultigraph:
    """Undirected multigraph on hashable nodes, edges carrying ids: the
    multigraph the origami conditions were checked on before they ran
    over numbers, with the walk `reachable` that open separation took
    once per class member."""

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

    def component_sets(self):
        """node -> a label shared by exactly the nodes of its component."""
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


def reference_edge_space(edges, open_rep, closed_rep):
    """Edge space on tagged nodes: ("O", open rep) to ("C", closed rep),
    one edge per listed edge."""
    m = ReferenceMultigraph()
    for e in edges:
        m.add_edge(e, ("O", open_rep[e]), ("C", closed_rep[e]))
    return m


def reference_vertex_space(edges, origin, closed_rep, vertices=()):
    """Vertex space on tagged nodes: ("V", origin) to ("C", closed rep),
    one edge per listed edge, plus a lone node per vertex."""
    m = ReferenceMultigraph()
    for v in vertices:
        m.add_node(("V", v))
    for e in edges:
        m.add_edge(e, ("V", origin[e]), ("C", closed_rep[e]))
    return m


def reference_open_separation(vspace, classes, origin):
    """`origami.open_separation` by one walk of the vertex space per
    class member, each walk leaving that member out; the vertex of edge
    e is the node ("V", origin[e])."""
    for cls in classes:
        targets = {("V", origin[e]) for e in cls}
        if len(targets) < 2:
            continue
        start = ("V", origin[next(iter(cls))])
        for m in cls:
            if not targets <= vspace.reachable(start, skip_edge=m):
                return cls, m
    return None


def reference_conditions(om):
    """(reason, (Q, q) or None) for an origami by the slow path: both
    spaces as tagged multigraphs, their components from
    `component_sets`, open separation by `reference_open_separation`,
    and the quotient named from those components."""
    from curv2x.origami import QuotientResult

    g = om.graph
    closed = om.closed_map()
    comp = reference_edge_space(g.edges, om.open_map, closed).component_sets()
    vs = reference_vertex_space(g.edges, g.origin, closed, g.vertices)
    vcomp = vs.component_sets()

    def violation():
        for e in g.geometric_edges():
            if comp[("O", om.open_map[e])] == comp[("O", om.open_map[g.inv[e]])]:
                return f"edge {e!r} meets its reverse in the edge space"
        for cls in om.open_classes:
            first = ("V", g.origin[cls[0]])
            for e in cls[1:]:
                if vcomp[("V", g.origin[e])] != vcomp[first]:
                    return f"origins of open class of {cls[0]!r} are disconnected"
        separated = reference_open_separation(vs, om.open_classes, g.origin)
        if separated is not None:
            cls, m = separated
            return (f"open class of {cls[0]!r} disconnects when "
                    f"edge {m!r} is removed")
        return None

    reason = violation()
    if reason is not None:
        return reason, None
    edge_name, vert_name = {}, {}
    for e in g.edges:
        edge_name.setdefault(comp[("O", om.open_map[e])], e)
    for v in g.vertices:
        vert_name.setdefault(vcomp[("V", v)], v)

    def qe(e):
        return edge_name[comp[("O", om.open_map[e])]]

    def qv(v):
        return vert_name[vcomp[("V", v)]]

    origin = {}
    inv = {}
    for e in g.edges:
        k = qe(e)
        origin[k] = qv(g.origin[e])
        inv[k] = qe(g.inv[e])
    Q = SerreGraph({qv(v) for v in g.vertices}, origin, inv)
    q = GraphMorphism(g, Q, {v: qv(v) for v in g.vertices},
                      {e: qe(e) for e in g.edges})
    return None, QuotientResult(Q, q)


def reference_unfold_origami(fd, omega_prime):
    """Pull an origami back through one essential `Fold`, building the
    vertex space and a new origami over all of fd.before; the slow path
    `unfold_origami` replaced, without its validation."""
    from curv2x.origami import Origami

    if not fd.essential:
        raise FoldNotEssential("only essential folds can be unfolded")
    if omega_prime.graph != fd.after:
        raise DomainMismatch("origami does not live on the folded graph")
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
    if rep[a] == rep_ab:
        raise NotAnOrigami(f"edge {a!r} is open-related to its reverse")

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
        g = omega_prime.graph
        closed = omega_prime.closed_map()
        vs = reference_vertex_space(g.edges, g.origin, closed, g.vertices)
        for e in split_class:
            entry = _entry_edge(vs, ("C", closed[f.emap[e]]), ("V", v))
            if entry not in side:
                raise VerificationFailed(
                    f"no vertex-space path enters the split vertex for {e!r}")
            ds.union(e, b1 if side[entry] == 1 else b2)
    return Origami(delta, ds.classes())


def reference_certify(f):
    """Certificate of f by the slow path: `reference_stallings_fold`,
    then `reference_unfold_origami` once per fold. None when a fold is
    inessential; the same domain checks as `certify_pi1_injective`."""
    from curv2x.errors import NotCoreOrConnected
    from curv2x.origami import trivial_origami

    for g, side in ((f.domain, "domain"), (f.codomain, "codomain")):
        if not g.vertices or not g.is_connected() or not g.is_core():
            raise NotCoreOrConnected(f"{side} must be a nonempty connected core graph")
    seq = reference_stallings_fold(f)
    if not seq.all_essential:
        return None
    om = trivial_origami(seq.folded)
    for fd in reversed(seq.folds):
        om = reference_unfold_origami(fd, om)
    return om


def reference_injective(f):
    """pi1-injectivity of f read off the reference fold: every fold
    essential."""
    return reference_stallings_fold(f).all_essential


def a6_morphisms(rng, count):
    """`count` morphisms from random small core graphs to roses of rank
    1 to 3, each edge sent to a random letter or its reverse."""
    for _ in range(count):
        dom = random_core_graph(rng)
        rank = rng.randint(1, 3)
        letters = "abc"[:rank]
        emap = {}
        for e in dom.geometric_edges():
            letter = rng.choice(letters)
            if rng.random() < 0.5:
                letter = letter.upper()
            emap[e] = letter
            emap[dom.inv[e]] = letter.swapcase()
        yield GraphMorphism(dom, rose(rank), {v: "v0" for v in dom.vertices}, emap)


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


def rgs_partitions(items):
    """All set partitions of a list via restricted growth strings.

    Independent of the library's partition generator on purpose: tests
    compare search results against this one.
    """
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n
    while True:
        classes = {}
        for i, c in enumerate(rgs):
            classes.setdefault(c, []).append(items[i])
        yield [classes[c] for c in sorted(classes)]
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            rgs[i] = 0
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def sized_partitions(items, lo=1, hi=None):
    """Reference for the bounded partition generator: the unbounded
    one's partitions, in its order, whose classes all have lo to hi
    items (hi None: no upper bound)."""
    from curv2x.blocks import _set_partitions

    return [p for p in _set_partitions(items)
            if all(lo <= len(c) and (hi is None or len(c) <= hi)
                   for c in p)]


def _canonical(value):
    if isinstance(value, frozenset):
        return ("set",) + tuple(
            sorted((_canonical(v) for v in value), key=sort_key))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_canonical(v) for v in value)
    return value


def reference_block_key(b):
    """Byte string naming a block up to relabelling of its upper link.

    The reference for a block's `key`, and for the key the gluing cone
    gives a shadow (`EdgeBlock` here): freeze the block's data back into
    nested frozensets, sort inside every set by sort_key, serialise.
    """
    from curv2x.blocks import VertexBlock

    if isinstance(b, VertexBlock):
        payload = ("vertex-block", b.base_vertex, _canonical(frozenset(b.parts)),
                   _canonical(_frozen(b.open_rel)),
                   _canonical(_frozen(b.closed_rel)))
    elif isinstance(b, EdgeBlock):
        payload = ("edge-block", b.base_edge, _canonical(frozenset(b.partition)),
                   _canonical(_frozen(b.open_rel)),
                   _canonical(_frozen(b.closed_rel)))
    else:
        raise TypeError(f"not a block: {b!r}")
    return repr(payload).encode()


def _reference_freeze(rel, rank, label):
    classes = frozenset(frozenset(frozenset(p) for p in c) for c in rel)
    seen = set()
    for c in classes:
        if not c:
            raise ValueError(f"empty {label} class")
        for p in c:
            if p not in rank:
                raise ValueError(f"{label} class names an unknown part")
            if p in seen:
                raise ValueError(f"{label} classes overlap")
            seen.add(p)
    if seen != rank.keys():
        raise ValueError(f"{label} relation does not cover all parts")
    ordered = (tuple(sorted(c, key=rank.__getitem__)) for c in classes)
    return tuple(sorted(ordered, key=lambda c: [rank[p] for p in c]))


def reference_ordered(kind, base, parts, open_rel, closed_rel):
    """Reference for `blocks._ordered`, as it ranked before the corner
    table: every corner of every part is printed and ranked by sort_key
    on each call.  Returns (parts, open_rel, closed_rel, key) in key
    order, or raises the same ValueError on a malformed relation."""
    rank = {}
    printed = {}
    for p in parts:
        ranked = sorted((sort_key(c), c) for c in map(_canonical, p))
        rank[p] = tuple(r for r, _ in ranked)
        printed[p] = ("set",) + tuple(c for _, c in ranked)
    parts = tuple(sorted(rank, key=rank.__getitem__))
    rels = (_reference_freeze(open_rel, rank, "open"),
            _reference_freeze(closed_rel, rank, "closed"))

    def listed(ps):
        return ("set",) + tuple(printed[p] for p in ps)

    payload = (kind, base, listed(parts),
               *(("set",) + tuple(map(listed, rel)) for rel in rels))
    return (parts, *rels, repr(payload).encode())


class EdgeBlock(NamedTuple):
    """Reference shadow of a vertex block over one skeleton edge.

    partition: the frozenset of disjoint nonempty sets of boundary edges
    over base_edge, one per part of the vertex block anchored there;
    open_rel and closed_rel partition it, as frozensets of classes.  The
    partition may be empty (a block with no parts over the edge).
    """

    complex: object
    base_edge: object
    partition: frozenset
    open_rel: frozenset
    closed_rel: frozenset

    @property
    def support(self):
        return frozenset().union(*self.partition)


def induced_edge_block(b, e):
    """Reference restriction of a vertex block to a direction e at its
    base vertex: a part anchored at e turns into the boundary edges over
    e that its corners' partners in the link are; relation classes
    restrict, and classes left empty disappear."""
    from curv2x.branched_complex import vertex_link

    x = b.complex
    if x.skeleton.origin[e] != b.base_vertex:
        raise ValueError(f"{e!r} does not start at {b.base_vertex!r}")
    partner = vertex_link(x, b.base_vertex).inv
    anchor = b.anchors()
    image = {p: frozenset(partner[s] for s in p)
             for p in b.parts if anchor[p] == e}
    fibre = set(edge_link(x, e))
    if not all(q <= fibre for q in image.values()):
        raise ValueError(f"a part's image is not over {e!r}")

    def push(rel):
        kept = (frozenset(image[p] for p in cls if p in image) for cls in rel)
        return frozenset(c for c in kept if c)

    return EdgeBlock(x, e, frozenset(image.values()),
                     push(b.open_rel), push(b.closed_rel))


def opposite_edge_block(g):
    """Reference for the same shadow seen from the other end of the
    edge: elements move along the boundary reversal and the two
    relations swap roles.  Applying this twice gives the shadow back."""
    x = g.complex
    bar = opposite_bijection(x, g.base_edge)
    image = {q: frozenset(bar[s] for s in q) for q in g.partition}

    def push(rel):
        return frozenset(frozenset(image[q] for q in cls) for cls in rel)

    return EdgeBlock(x, x.skeleton.inv[g.base_edge],
                     frozenset(image.values()),
                     push(g.closed_rel), push(g.open_rel))


def reference_sides(x, blocks):
    """Reference for `ConeSystem._sides`: (canonical edge, shadow key) ->
    (plus, minus) indices into the blocks sorted by key.  Plus lists the
    blocks whose shadow over the canonical orientation is the one keyed;
    minus those whose shadow over the reverse has that opposite.  Each
    side is in block order, and within a block in link order; the sides
    are sorted by edge, then key."""
    skx = x.skeleton
    sides = {}
    for bi, b in enumerate(sorted(blocks, key=lambda b: b.key)):
        for e in skx.link(b.base_vertex):
            g = induced_edge_block(b, e)
            if not g.partition:
                continue
            can = skx.orient(e)
            if e == can:
                sides.setdefault((can, reference_block_key(g)),
                                 ([], []))[0].append(bi)
            else:
                sides.setdefault((can, reference_block_key(
                    opposite_edge_block(g))), ([], []))[1].append(bi)
    return {k: sides[k] for k in
            sorted(sides, key=lambda t: (sort_key(t[0]), t[1]))}


def reference_glue(plus, minus, can):
    """Reference for how `pipeline.reconstruct` glues a copy of the block
    `plus`, showing a shadow over the canonical edge can, to a copy of
    `minus`, showing the opposite shadow over the reverse edge, by the
    rule it followed before gluing in shadow-key order: each part of
    plus anchored at can meets the part of minus anchored at the
    reverse whose corners' partners are the boundary-reversal image of
    its own corners' partners.  Returns {position in plus.parts:
    position in minus.parts}, None where a part has no mate."""
    sinv = plus.complex.boundary.inv

    def shown(b, e):
        anchor = b.anchors()
        return {frozenset(b.partner[s] for s in p): k
                for k, p in enumerate(b.parts) if anchor[p] == e}

    theirs = shown(minus, plus.complex.skeleton.inv[can])
    return {k: theirs.get(frozenset(sinv[s] for s in image))
            for image, k in shown(plus, can).items()}


def reference_gluing_rows(sides, variables):
    """(edge, shadow key, coefficients) per side that does not cancel:
    +1 per plus block, -1 per minus block."""
    rows = []
    for (edge, key), (plus, minus) in sides.items():
        coeff = {}
        for bi in plus:
            coeff[variables[bi]] = coeff.get(variables[bi], 0) + 1
        for bi in minus:
            coeff[variables[bi]] = coeff.get(variables[bi], 0) - 1
        coeff = {k: c for k, c in coeff.items() if c}
        if coeff:
            rows.append((edge, key, coeff))
    return rows


def reference_sorted(items):
    """Items in the order the reference key lists them."""
    return sorted(items, key=lambda v: sort_key(_canonical(v)))


def _frozen(rel):
    """A relation as the frozenset of frozensets it was stored as."""
    return frozenset(frozenset(c) for c in rel)


def _scalar_ids():
    return st.one_of(st.integers(-50, 50), st.text("sStu.0123", max_size=4))


# Ids of every kind sort_key orders: ints, strings, and tuples and
# frozensets of them.
mixed_ids = st.one_of(
    _scalar_ids(),
    st.tuples(_scalar_ids(), _scalar_ids()),
    st.lists(_scalar_ids(), max_size=3).map(tuple),
    st.frozensets(_scalar_ids(), max_size=3),
)


def rename_boundary(x, edge_name, vertex_name):
    """The same complex with its boundary edges and vertices renamed by
    the two injective maps."""
    from curv2x.branched_complex import BranchedComplex

    b = x.boundary
    boundary = SerreGraph(
        vertex_name.values(),
        {edge_name[s]: vertex_name[b.origin[s]] for s in b.edges},
        {edge_name[s]: edge_name[b.inv[s]] for s in b.edges})
    attach = GraphMorphism(
        boundary, x.skeleton,
        {vertex_name[u]: x.attach.vmap[u] for u in b.vertices},
        {edge_name[s]: x.attach.emap[s] for s in b.edges})
    return BranchedComplex(x.skeleton, boundary, attach,
                           {vertex_name[f]: x.area(f) for f in x.faces()})


def brute_force_blocks(x, predicate):
    """Reference block search filtered only by the public validator.

    Tries every reversal-closed corner set, every grouping of each
    direction's ends, and every pair of per-direction partitions.
    Relation classes straddling two directions are never generated: the
    validator rejects them outright (an open or closed class shares an
    edge-space component, and components may not mix directions), so
    nothing is lost.  Returns {canonical key: block}.
    """
    import itertools

    from curv2x.blocks import VertexBlock, validate_vertex_block
    from curv2x.branched_complex import vertex_link
    from curv2x.serre_graph import ssorted

    found = {}
    for v in x.skeleton.vertices:
        lk = vertex_link(x, v)
        geoms = lk.geometric_edges()
        for r in range(1, len(geoms) + 1):
            for combo in itertools.combinations(geoms, r):
                edges = {e for g in combo for e in (g, lk.inv[g])}
                fibres = {}
                for s in ssorted(edges):
                    fibres.setdefault(lk.origin[s], []).append(s)
                anchors = ssorted(fibres)
                groupings = [list(rgs_partitions(fibres[a])) for a in anchors]
                for fam in itertools.product(*groupings):
                    parts = [frozenset(p) for per in fam for p in per]
                    rels = [list(rgs_partitions([frozenset(p) for p in per]))
                            for per in fam]
                    for opart in itertools.product(*rels):
                        orel = [cls for per_rel in opart for cls in per_rel]
                        for cpart in itertools.product(*rels):
                            crel = [cls for per_rel in cpart for cls in per_rel]
                            b = VertexBlock(x, v, parts, orel, crel)
                            if validate_vertex_block(b, predicate)["valid"]:
                                found[reference_block_key(b)] = b
    return found


def components(g):
    """Vertex tuples of a Serre graph, one per path component, each in
    vertex order."""
    by_rep = {}
    for v, r in g.component_map().items():
        by_rep.setdefault(r, []).append(v)
    return [tuple(vs) for vs in by_rep.values()]


def is_forest(multigraph):
    """A `ReferenceMultigraph` is a forest: it has as many edges as
    nodes less components."""
    comps = multigraph.component_sets()
    return len(multigraph.edge_ends) == len(comps) - len(set(comps.values()))


def is_tree(multigraph):
    """A `ReferenceMultigraph` is a forest with one component."""
    comps = multigraph.component_sets()
    return len(set(comps.values())) == 1 and is_forest(multigraph)


def is_origami(om):
    """The origami conditions hold."""
    return om.origami_violation() is None


def upper_link(b):
    """Graph of a vertex block with one vertex per part and one edge per
    corner; its components are the classes of `component_of`."""
    from curv2x.branched_complex import vertex_link

    lk = vertex_link(b.complex, b.base_vertex)
    at = {s: p for p in b.parts for s in p}
    return SerreGraph(b.parts, at, {s: lk.inv[s] for s in at})


def lower_link(b):
    """Subgraph of the base link spanned by a vertex block's corners."""
    from curv2x.branched_complex import vertex_link

    lk = vertex_link(b.complex, b.base_vertex)
    verts = {lk.origin[s] for s in b.corner_edges}
    return subgraph(lk, verts, b.corner_edges)


def projection(b):
    """Anchor morphism from a vertex block's upper link onto its lower
    link; it is the identity on corners."""
    return GraphMorphism(upper_link(b), lower_link(b), b.anchors(),
                         {s: s for s in b.corner_edges})


def edge_space(b):
    """The origami edge space of a vertex block with parts as edges:
    each part joins its open class to its closed class."""
    from curv2x.blocks import _class_reps

    return reference_edge_space(b.parts, _class_reps(b.open_rel),
                                _class_reps(b.closed_rel))


def vertex_space(b):
    """The origami vertex space of a vertex block with parts as edges
    and upper-link components as vertices: each part joins its
    component to its closed class."""
    from curv2x.blocks import _class_reps

    return reference_vertex_space(b.parts, b.component_of,
                                  _class_reps(b.closed_rel))


def reference_validate_vertex_block(b, predicate):
    """`blocks.validate_vertex_block` as it read both spaces before they
    were union-finds: each space a `ReferenceMultigraph`, the trees and
    forests by counting, edge-space components from `component_sets`,
    and open separation by `reference_open_separation`."""
    from curv2x.blocks import _anchors_distinct, _class_reps, _passing
    from curv2x.branched_complex import link_predicate

    report = {}
    comp = b.component_of
    anchors = b.anchors()
    report["immersive"] = _anchors_distinct(
        comp, [b.parts_at(e) for e in set(anchors.values())])
    report["components_admissible"] = bool(
        _passing(comp, b.partner, (link_predicate(predicate),)))
    orep = _class_reps(b.open_rel)
    vspace, espace = vertex_space(b), edge_space(b)
    ecomp = espace.component_sets()
    report["vertex_tree"] = is_tree(vspace)
    report["edge_forest"] = is_forest(espace)
    report["no_open_separation"] = (
        reference_open_separation(vspace, b.open_rel, comp) is None)
    by_anchor, by_comp = {}, {}
    for p in b.parts:
        c = ecomp[("O", orep[p])]
        by_anchor.setdefault(anchors[p], set()).add(c)
        by_comp.setdefault(c, set()).add(anchors[p])
    report["equal_image_same_component"] = all(
        len(s) == 1 for s in by_anchor.values())
    report["component_constant_image"] = all(
        len(s) == 1 for s in by_comp.values())
    report["valid"] = all(report.values())
    return report


def integer_cone_points(cone, max_total):
    """All nonzero integer points of a cone (`pipeline.ConeSystem`) of
    coordinate sum <= max_total, by brute force."""
    keys = cone.variables
    rows = [r.coefficients for r in cone.gluing_rows]
    out = []
    current = {}

    def rec(i, left):
        if i == len(keys):
            if current and all(
                    sum(c[k] * current.get(k, 0) for k in c) == 0
                    for c in rows):
                out.append(dict(current))
            return
        rec(i + 1, left)
        for val in range(1, left + 1):
            current[keys[i]] = val
            rec(i + 1, left - val)
        current.pop(keys[i], None)

    rec(0, int(max_total))
    out.sort(key=lambda v: sorted(v.items()))
    return out


def cone_contains(cone, vector):
    """A vector is nonnegative and on every gluing hyperplane of the
    cone (`pipeline.ConeSystem`)."""
    if any(to_fraction(v) < 0 for v in vector.values()):
        return False
    return all(cone._dot(r.coefficients, vector) == 0
               for r in cone.gluing_rows)


def immersive_block(b):
    """Reference for the immersion rule: the parts of each upper-link
    component have distinct anchors."""
    anchor = b.anchors()
    return all(len({anchor[p] for p in comp}) == len(comp)
               for comp in components(upper_link(b)))


def unfiltered_vertex_blocks(x, predicate, bounds=None):
    """The block search as it was before it generated only immersive
    blocks: every block that passes every condition of
    validate_vertex_block but `immersive`, sorted by key.

    Parts have lo to hi corners for bounds (lo, hi), by default the
    valence bounds of the predicate's link condition; (1, None) is the
    search that no part size prunes."""
    import itertools

    from curv2x.blocks import (VertexBlock, _Budget, _class_reps,
                               _fibre_trees, _set_partitions,
                               validate_vertex_block)
    from curv2x.branched_complex import link_predicate, vertex_link

    pred, lo, hi = link_predicate(predicate)
    if bounds is not None:
        lo, hi = bounds
    found = {}

    def components_pass(upper):
        for comp_verts in components(upper):
            vs = set(comp_verts)
            es = tuple(s for s in upper.edges if upper.origin[s] in vs)
            if not pred(subgraph(upper, vs, es)):
                return False
        return True

    def emit(v, parts, picked):
        b = VertexBlock(x, v, parts,
                        [cls for po, _ in picked for cls in po],
                        [cls for _, pc in picked for cls in pc])
        report = validate_vertex_block(b, predicate)
        if all(ok for k, ok in report.items()
               if k not in ("immersive", "valid")):
            found[b.key] = b

    def assemble(v, family, parts, upper, fibre_options):
        comp = upper.component_map()
        target = len(parts) - len(set(comp.values())) + 1
        if target < len(family):
            return
        options = [fibre_options(per) for per in family]
        if not all(options):
            return

        def rec(i, closed_count, picked):
            if i == len(options):
                if closed_count == target:
                    emit(v, parts, picked)
                return
            closed = [cls for _, pc in picked for cls in pc]
            for po, pc in options[i]:
                crep = _class_reps(closed + list(pc))
                if is_forest(reference_vertex_space(list(crep), comp,
                                                    crep)):
                    rec(i + 1, closed_count + len(pc), picked + [(po, pc)])

        rec(0, 0, [])

    for v in x.skeleton.vertices:
        lk = vertex_link(x, v)
        budget = _Budget(v, float("inf"))
        trees = {}

        def fibre_options(per):
            if per not in trees:
                trees[per] = _fibre_trees(per, budget)
            return trees[per]

        geoms = lk.geometric_edges()
        for size in range(1, len(geoms) + 1):
            for combo in itertools.combinations(geoms, size):
                edges = set(combo).union(lk.inv[g] for g in combo)
                per_fibre = []
                for a in lk.vertices:
                    fibre = [s for s in lk.link(a) if s in edges]
                    if fibre:
                        per_fibre.append(
                            [tuple(frozenset(p) for p in partition)
                             for partition in _set_partitions(fibre, lo, hi)])
                for family in itertools.product(*per_fibre):
                    parts = [p for per in family for p in per]
                    at = {s: p for p in parts for s in p}
                    upper = SerreGraph(parts, {s: at[s] for s in edges},
                                       {s: lk.inv[s] for s in edges})
                    if components_pass(upper):
                        assemble(v, family, parts, upper, fibre_options)
    return [found[k] for k in sorted(found)]


def reference_vertex_blocks(x, predicate, bounds=None):
    """Reference for enumerate_vertex_blocks: the unfiltered search
    (with its part-size bounds), then the immersion rule."""
    return [b for b in unfiltered_vertex_blocks(x, predicate, bounds)
            if immersive_block(b)]


def reference_vertex_link(x, v):
    """The link of a skeleton vertex as `branched_complex.vertex_link`
    built it before links were kept per complex: every call scans every
    boundary edge."""
    from curv2x.errors import BoundaryNotCircles, UnknownVertex

    if v not in x.skeleton._links:
        raise UnknownVertex(f"no vertex {v!r}")
    S, w = x.boundary, x.attach
    origin = {}
    inv = {}
    for s in S.edges:
        u = S.origin[s]
        if w.vmap[u] != v:
            continue
        others = [t for t in S.link(u) if t != s]
        if len(others) != 1:
            raise BoundaryNotCircles(
                f"boundary vertex {u!r} has valence {S.valence(u)}")
        origin[s] = w.emap[others[0]]
        inv[s] = others[0]
    return SerreGraph(x.skeleton.link(v), origin, inv)


def reference_edge_link(x, e):
    """Sorted boundary edges over the skeleton edge e, by a scan of
    every boundary edge."""
    x.skeleton.check_edge(e)
    return [s for s in x.boundary.edges if x.attach.emap[s] == e]


def edge_link(x, e):
    """Sorted boundary edges attaching over the skeleton edge e, from
    the boundary edges bucketed by their image; a fresh list each
    call."""
    x.skeleton.check_edge(e)
    fibres = {}
    for s in x.boundary.edges:
        fibres.setdefault(x.attach.emap[s], []).append(s)
    return fibres.get(e, [])


def opposite_bijection(x, e):
    """Boundary reversal as a map from the link of e to the link of its
    reverse; applying it over e and then over the reverse is the
    identity."""
    return {s: x.boundary.inv[s] for s in edge_link(x, e)}


_INVERT = str.maketrans("abAB", "ABab")


def sweep_words(shortest=2, longest=6):
    """Every cyclically reduced word in a and b (A and B their inverses)
    of length shortest to longest that uses both letters, one per class
    up to rotation and inversion: the least word of its class, as
    strings compare."""
    import itertools

    words = set()
    for n in range(shortest, longest + 1):
        for letters in itertools.product("abAB", repeat=n):
            w = "".join(letters)
            if (any(w[i] == w[i - 1].translate(_INVERT) for i in range(n))
                    or not {"a", "A"} & set(w) or not {"b", "B"} & set(w)):
                continue
            words.add(min(u[i:] + u[:i] for u in (w, w[::-1].translate(_INVERT))
                          for i in range(n)))
    return sorted(words, key=lambda w: (len(w), w))


def validate_branched_map(phi):
    """Re-check the commuting square, boundary immersion, covering
    degrees, and area scaling; returns a summary dict."""
    from curv2x.branched_complex import BranchedMap

    BranchedMap(phi.domain, phi.codomain, phi.skeleton_map,
                phi.boundary_map)
    return {
        "faces": len(phi.domain.faces()),
        "multiplicities": dict(sorted(
            phi.multiplicities.items(), key=lambda p: sort_key(p[0]))),
    }


class FoldAreaIncoherent(CurvError):
    """Faces merged by a fold would need two different areas."""


class ComplexFoldResult(NamedTuple):
    phi0: object
    folded: object
    phibar: object


def fold_complex(phi):
    """Fold a branched morphism through a branched immersion.

    The skeleton is folded by Stallings folds.  The folded boundary is
    the image of the original boundary inside the fibre product of the
    folded skeleton map with the codomain's attaching map; because the
    original boundary maps into that fibre product by an immersion, the
    image is again a union of circles, each covered by the circles above
    it.  The area of a folded face is the area of any face covering it
    divided by the covering degree; disagreement between two covering
    faces raises FoldAreaIncoherent (it cannot happen when the input map
    satisfies the area scaling law, but is checked rather than assumed).
    Returns (phi0, folded, phibar) with phi = phibar after phi0 and
    phibar a branched immersion.
    """
    from curv2x.branched_complex import (BranchedComplex, BranchedMap,
                                         is_branched_immersion)

    Y, X = phi.domain, phi.codomain
    seq = stallings_fold(phi.skeleton_map)
    P, p_skel, p_bound = fibre_product(seq.fbar, X.attach)
    wY = Y.attach
    into_v = {u: (seq.f0.vmap[wY.vmap[u]], phi.boundary_map.vmap[u])
              for u in Y.boundary.vertices}
    into_e = {s: (seq.f0.emap[wY.emap[s]], phi.boundary_map.emap[s])
              for s in Y.boundary.edges}
    S_bar = subgraph(P, set(into_v.values()), set(into_e.values()))
    w_bar = GraphMorphism(S_bar, seq.folded,
                          {u: p_skel.vmap[u] for u in S_bar.vertices},
                          {s: p_skel.emap[s] for s in S_bar.edges})
    comp = S_bar.component_map()
    sizes = {}
    for s in S_bar.edges:
        rep = comp[S_bar.origin[s]]
        sizes[rep] = sizes.get(rep, 0) + 1
    areas = {}
    for f in Y.faces():
        rep = comp[into_v[f]]
        deg = Fraction(Y.face_length(f), sizes[rep])
        if deg.denominator != 1 or deg < 1:
            raise VerificationFailed(
                f"face {f!r} does not cover its folded image evenly")
        value = Y.areas[f] / deg
        if rep in areas and areas[rep] != value:
            raise FoldAreaIncoherent(
                f"faces covering {rep!r} induce areas {areas[rep]} and "
                f"{value}")
        areas[rep] = value
    folded = BranchedComplex(seq.folded, S_bar, w_bar, areas)
    phi0 = BranchedMap(Y, folded, seq.f0,
                       GraphMorphism(Y.boundary, S_bar, into_v, into_e))
    phibar = BranchedMap(folded, X, seq.fbar,
                         GraphMorphism(S_bar, X.boundary,
                                       {u: u[1] for u in S_bar.vertices},
                                       {s: s[1] for s in S_bar.edges}))
    for m, m0, mbar in (
            (phi.skeleton_map, phi0.skeleton_map, phibar.skeleton_map),
            (phi.boundary_map, phi0.boundary_map, phibar.boundary_map)):
        if any(m.emap[e] != mbar.emap[m0.emap[e]] for e in m.emap):
            raise VerificationFailed("the folded factors do not compose to phi")
    if not is_branched_immersion(phibar):
        raise VerificationFailed("the folded map is not a branched immersion")
    return ComplexFoldResult(phi0, folded, phibar)


def is_essential(phi):
    """True iff folding phi changes nothing homotopically.

    Concretely: the skeleton part of the fold projection is a homotopy
    equivalence (it never merges or splits components, so this is just
    the first Betti number surviving) and the boundary part is an
    isomorphism onto the folded boundary.
    """
    phi0, folded, _ = fold_complex(phi)
    b_before = betti_numbers(phi.domain.skeleton)[0]
    b_after = betti_numbers(folded.skeleton)[0]
    if b_before != b_after:
        return False
    bm = phi0.boundary_map
    # the projection is onto the folded boundary by construction, so
    # injectivity is the whole isomorphism condition
    return (len(set(bm.vmap.values())) == len(bm.vmap)
            and len(set(bm.emap.values())) == len(bm.emap))


def tag_complex(y, tag):
    """Copy of a branched complex with every id wrapped as (tag, id)."""
    from curv2x.branched_complex import BranchedComplex

    sk, bd = y.skeleton, y.boundary
    skel = SerreGraph([(tag, v) for v in sk.vertices],
                      {(tag, e): (tag, sk.origin[e]) for e in sk.edges},
                      {(tag, e): (tag, sk.inv[e]) for e in sk.edges})
    bound = SerreGraph([(tag, v) for v in bd.vertices],
                       {(tag, e): (tag, bd.origin[e]) for e in bd.edges},
                       {(tag, e): (tag, bd.inv[e]) for e in bd.edges})
    attach = GraphMorphism(bound, skel,
                           {(tag, v): (tag, y.attach.vmap[v]) for v in bd.vertices},
                           {(tag, e): (tag, y.attach.emap[e]) for e in bd.edges})
    areas = {(tag, f): y.area(f) for f in y.faces()}
    return BranchedComplex(skel, bound, attach, areas)


def tag_map(phi, tag):
    """Same branched morphism with its domain ids wrapped as (tag, id)."""
    from curv2x.branched_complex import BranchedMap

    dom = tag_complex(phi.domain, tag)
    sk, bd = phi.domain.skeleton, phi.domain.boundary
    skm = GraphMorphism(dom.skeleton, phi.codomain.skeleton,
                        {(tag, v): phi.skeleton_map.vmap[v] for v in sk.vertices},
                        {(tag, e): phi.skeleton_map.emap[e] for e in sk.edges})
    bdm = GraphMorphism(dom.boundary, phi.codomain.boundary,
                        {(tag, v): phi.boundary_map.vmap[v] for v in bd.vertices},
                        {(tag, e): phi.boundary_map.emap[e] for e in bd.edges})
    return BranchedMap(dom, phi.codomain, skm, bdm)


def disjoint_union_map(phi1, phi2):
    """Branched morphism from the disjoint union of two domains over a
    common codomain; the pieces keep their maps, ids get L/R tags."""
    from curv2x.branched_complex import BranchedComplex, BranchedMap

    assert phi1.codomain == phi2.codomain
    a, b = tag_map(phi1, "L"), tag_map(phi2, "R")
    ya, yb = a.domain, b.domain
    skel = SerreGraph(ya.skeleton.vertices + yb.skeleton.vertices,
                      {**ya.skeleton.origin, **yb.skeleton.origin},
                      {**ya.skeleton.inv, **yb.skeleton.inv})
    bound = SerreGraph(ya.boundary.vertices + yb.boundary.vertices,
                       {**ya.boundary.origin, **yb.boundary.origin},
                       {**ya.boundary.inv, **yb.boundary.inv})
    attach = GraphMorphism(bound, skel,
                           {**ya.attach.vmap, **yb.attach.vmap},
                           {**ya.attach.emap, **yb.attach.emap})
    areas = {f: y.area(f) for y in (ya, yb) for f in y.faces()}
    dom = BranchedComplex(skel, bound, attach, areas)
    skm = GraphMorphism(skel, phi1.codomain.skeleton,
                        {**a.skeleton_map.vmap, **b.skeleton_map.vmap},
                        {**a.skeleton_map.emap, **b.skeleton_map.emap})
    bdm = GraphMorphism(bound, phi1.codomain.boundary,
                        {**a.boundary_map.vmap, **b.boundary_map.vmap},
                        {**a.boundary_map.emap, **b.boundary_map.emap})
    return BranchedMap(dom, phi1.codomain, skm, bdm)


def disjoint_union_origami(om1, om2, skeleton):
    """Origami on a disjoint union built from origamis on the pieces."""
    from curv2x.origami import Origami

    classes = ([[("L", e) for e in c] for c in om1.open_classes]
               + [[("R", e) for e in c] for c in om2.open_classes])
    return Origami(skeleton, classes)


def pullback_complex(x, cover):
    """Pull a branched complex back along a covering of its skeleton.

    `cover` is a covering morphism onto x.skeleton. The pulled-back
    boundary is the whole fibre product of the cover with the attaching
    map; each of its circles covers a face of x with some degree, and
    gets that multiple of the base area. Returns (xhat, projection).
    """
    from curv2x.branched_complex import BranchedComplex, BranchedMap

    P, pa, pb = fibre_product(cover, x.attach)
    comp = P.component_map()
    sizes = {}
    for s in P.edges:
        rep = comp[P.origin[s]]
        sizes[rep] = sizes.get(rep, 0) + 1
    areas = {}
    for rep, size in sizes.items():
        img = x.face_of(pb.vmap[rep])
        deg = Fraction(size, x.face_length(img))
        assert deg.denominator == 1
        areas[rep] = deg * x.areas[img]
    xhat = BranchedComplex(cover.domain, P, pa, areas)
    return xhat, BranchedMap(xhat, x, cover, pb)


def dense_rows(p):
    """(objective, [(row, rhs)]) of an LPProblem, each row a list of
    Fractions aligned with `p.variables`: a stored row (terms, rhs, d)
    divided by d again.  The references below work on these."""
    def dense(terms, d):
        row = [Fraction(0)] * len(p.variables)
        for j, a in terms:
            row[j] = Fraction(a, d)
        return row
    terms, _, d = p.objective
    return dense(terms, d), [(dense(t, d), Fraction(rhs, d))
                             for t, rhs, d in p.equalities]


def reference_solve(p):
    """The dense Fraction two-phase simplex that `rational_lp.solve`
    replaced.

    Every pivot rebuilds every full tableau row, normalized so that the
    basic coefficient is 1; same Bland's rule and the same exact
    values, so `solve` must return an equal LPResult."""
    n = len(p.variables)
    m = len(p.equalities)
    sign = 1 if p.sense == "max" else -1
    objective, rows = dense_rows(p)
    cost = [sign * x for x in objective]

    tab = []
    basis = []
    flip = []
    for i, (r, b) in enumerate(rows):
        flip.append(-1 if b < 0 else 1)
        if b < 0:
            r, b = [-x for x in r], -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(r + art + [b])
        basis.append(n + i)

    pivots = 0

    def pivot(r, c):
        nonlocal pivots
        head = tab[r][c]
        tab[r] = [v / head for v in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        if red[c]:
            f = red[c]
            red[:] = [a - f * b for a, b in zip(red, tab[r])]
        basis[r] = c
        pivots += 1

    def run(allowed):
        while True:
            enter = next((j for j in allowed if red[j] < 0), None)
            if enter is None:
                return
            leave, best = None, None
            for i in range(len(tab)):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best \
                            or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                raise LPFailure(
                    "objective unbounded; expected a compact polytope")
            pivot(leave, enter)

    # phase 1: drive the artificial variables to zero
    red = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for trow in tab:
        red = [a - b for a, b in zip(red, trow)]
    run(range(n))
    if red[-1] != 0:
        return LPResult("infeasible", None, {}, (), (), pivots)
    for i in reversed(range(len(tab))):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tab[i][j] != 0), None)
        if col is None:
            # redundant equality: the row became 0 = 0
            del tab[i], basis[i]
        else:
            pivot(i, col)

    # phase 2: the real objective, artificial columns frozen out
    red = [-x for x in cost] + [Fraction(0)] * (m + 1)
    for i, trow in enumerate(tab):
        if red[basis[i]]:
            f = red[basis[i]]
            red = [a - f * b for a, b in zip(red, trow)]
    run(range(n))

    vertex = {v: Fraction(0) for v in p.variables}
    for i, trow in enumerate(tab):
        vertex[p.variables[basis[i]]] = trow[-1]
    # every pivot is a row operation on [A | I | b], so the reduced cost
    # of artificial column n+i is the multiplier of (possibly negated) row i
    dual = [s * red[n + i] for i, s in enumerate(flip)]
    return LPResult("optimal", sign * red[-1], vertex,
                    tuple(p.variables[j] for j in sorted(basis)),
                    tuple(dual), pivots)


def reference_check_solution(p, r):
    """The Fraction check that `rational_lp.check_solution` replaced:
    dense rows summed over the support of the vertex, reduced costs
    from the nonzero duals.  Both must accept exactly the same
    results."""
    if r.status != "optimal":
        return False
    support = []
    for v, val in r.vertex.items():
        j = p._index.get(v)
        if j is None:
            return False
        if val < 0:
            return False
        if val:
            support.append((j, val))
    objective, rows = dense_rows(p)
    for row, rhs in rows:
        if sum(row[j] * t for j, t in support) != rhs:
            return False
    if sum(objective[j] * t for j, t in support) != r.value:
        return False
    sign = 1 if p.sense == "max" else -1
    if len(r.dual) != len(rows):
        return False
    reduced = [sign * c for c in objective]
    for y, (row, _) in zip(r.dual, rows):
        if y:
            reduced = [c - y * a for c, a in zip(reduced, row)]
    if any(c > 0 for c in reduced):
        return False
    if any(reduced[j] != 0 for j, _ in support):
        return False
    dual_value = sum(y * rhs for y, (_, rhs) in zip(r.dual, rows))
    return dual_value == sign * r.value


_TOKEN = re.compile(r"\S+")


def _fail(message, lineno, col, text=""):
    raise SyntaxError(message, ("<document>", lineno, col, text))


def reference_parse_document(text, expect=None):
    """The regex tokenizer that `formats.parse_document` replaced.

    It keeps the column of every token of every line.  Returns (kind,
    rows) with rows (lineno, key, args, cols); `parse_document` must
    give the same kind and (lineno, key, args), or raise the same
    SyntaxError."""
    header = None
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        matches = list(_TOKEN.finditer(line))
        tokens = [m.group() for m in matches]
        cols = tuple(m.start() + 1 for m in matches)
        if header is None:
            if tokens[0] != "curv2x" or len(tokens) != 3:
                _fail("expected header 'curv2x <kind> 1'", lineno, cols[0],
                      line)
            if tokens[1] not in KINDS:
                _fail(f"unknown document kind {tokens[1]!r}", lineno, cols[1],
                      line)
            if tokens[2] != "1":
                _fail(f"unsupported format version {tokens[2]!r}", lineno,
                      cols[2], line)
            header = tokens[1]
            if expect is not None and header != expect:
                _fail(f"expected a {expect} document, found {header}",
                      lineno, cols[1], line)
            continue
        rows.append((lineno, tokens[0], tuple(tokens[1:]), cols))
    if header is None:
        _fail("empty document: missing 'curv2x <kind> 1' header", 1, 1)
    return header, tuple(rows)
