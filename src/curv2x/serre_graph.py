"""Finite graphs with oriented edge pairs (Serre's formalism) and foldings.

A graph here is a set of vertices, a set of oriented edges, an origin map
edge -> vertex and a fixed-point-free involution edge -> edge giving the
reversed orientation. The terminus of e is the origin of its reverse. A
geometric edge is an orbit {e, ebar} of the involution.

Ids may be ints, strings, tuples or frozensets of these; all iteration is
sorted by `sort_key`, so every derived object is deterministic.
"""

from dataclasses import dataclass

from .errors import (
    DomainNotConnected,
    DomainNotCore,
    FixedPointInvolution,
    InvalidMap,
    NonInvolutive,
    NotFoldable,
    UnknownEdge,
    UnknownVertex,
    VerificationFailed,
)


def sort_key(x):
    """Total order on the id universe (ints, strings, tuples, frozensets)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a valid id")
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(sort_key(i) for i in x))
    if isinstance(x, frozenset):
        return (3, tuple(sorted(sort_key(i) for i in x)))
    raise TypeError(f"unsupported id type: {type(x).__name__}")


def ssorted(items):
    return sorted(items, key=sort_key)


class DisjointSets:
    """Union-find with deterministic minimum-element representatives."""

    def __init__(self, items=()):
        self.parent = {}
        for x in items:
            self.parent.setdefault(x, x)

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        """Merge the classes of x and y; returns False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if sort_key(ry) < sort_key(rx):
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def classes(self):
        """Partition as a sorted list of sorted tuples, keyed by minimum."""
        by_root = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        roots = sorted(by_root, key=sort_key)
        return [tuple(ssorted(by_root[r])) for r in roots]


class SerreGraph:
    """Immutable finite graph with involution; see the module docstring."""

    __slots__ = ("vertices", "edges", "origin", "inv", "_links")

    def __init__(self, vertices, origin, inv):
        self.vertices = tuple(ssorted(set(vertices)))
        self.origin = dict(origin)
        self.inv = dict(inv)
        vset = set(self.vertices)
        if set(self.inv) != set(self.origin):
            raise NonInvolutive("involution and origin must cover the same edges")
        for e, eb in self.inv.items():
            if eb == e:
                raise FixedPointInvolution(f"edge {e!r} is its own reverse")
            if eb not in self.inv or self.inv[eb] != e:
                raise NonInvolutive(f"involution is not self-inverse at {e!r}")
        for e, v in self.origin.items():
            if v not in vset:
                raise UnknownVertex(f"edge {e!r} starts at unknown vertex {v!r}")
        self.edges = tuple(ssorted(self.origin))
        links = {v: [] for v in self.vertices}
        for e in self.edges:
            links[self.origin[e]].append(e)
        self._links = {v: tuple(es) for v, es in links.items()}

    def __repr__(self):
        return f"SerreGraph({len(self.vertices)} vertices, {len(self.edges) // 2} geometric edges)"

    def __eq__(self, other):
        return (isinstance(other, SerreGraph) and self.vertices == other.vertices
                and self.origin == other.origin and self.inv == other.inv)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(
            (sort_key(e), sort_key(v)) for e, v in self.origin.items()))))

    def terminus(self, e):
        return self.origin[self.inv[e]]

    def link(self, v):
        """Oriented edges with origin v, sorted."""
        try:
            return self._links[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def valence(self, v):
        return len(self.link(v))

    def orient(self, e):
        """Canonical representative of the geometric edge of e."""
        eb = self.inv[e]
        return e if sort_key(e) < sort_key(eb) else eb

    def geometric_edges(self):
        return tuple(e for e in self.edges if sort_key(e) < sort_key(self.inv[e]))

    def has_edge(self, e):
        return e in self.origin

    def check_edge(self, e):
        if e not in self.origin:
            raise UnknownEdge(f"no edge {e!r}")
        return e

    def components(self):
        """Sorted list of sorted vertex tuples, one per path component."""
        by_rep = {}
        for v, r in self.component_map().items():
            by_rep.setdefault(r, []).append(v)
        return [tuple(vs) for vs in by_rep.values()]

    def component_map(self):
        """vertex -> minimum vertex of its component."""
        ds = DisjointSets(self.vertices)
        for e in self.geometric_edges():
            ds.union(self.origin[e], self.terminus(e))
        return {v: ds.find(v) for v in self.vertices}

    def is_connected(self):
        return len(set(self.component_map().values())) == 1

    def betti_numbers(self):
        """(total first Betti number, {component representative: b1})."""
        comp = self.component_map()
        verts = {}
        geom = {}
        for v, r in comp.items():
            verts[r] = verts.get(r, 0) + 1
            geom.setdefault(r, 0)
        for e in self.geometric_edges():
            geom[comp[self.origin[e]]] += 1
        per = {r: geom[r] - verts[r] + 1 for r in verts}
        return sum(per.values()), dict(sorted(per.items(), key=lambda p: sort_key(p[0])))

    def is_core(self):
        """No valence-0 or valence-1 vertices. The empty graph counts as core."""
        return all(self.valence(v) >= 2 for v in self.vertices)

    def subgraph(self, vertices, edges):
        edges = set(edges)
        return SerreGraph(
            vertices,
            {e: self.origin[e] for e in edges},
            {e: self.inv[e] for e in edges},
        )


def make_graph(vertices, geometric_edges):
    """Build a graph from (edge, reverse, origin, terminus) quadruples."""
    origin = {}
    inv = {}
    for e, eb, u, v in geometric_edges:
        if e in origin or eb in origin:
            raise NonInvolutive(f"duplicate edge id in {(e, eb)!r}")
        origin[e] = u
        origin[eb] = v
        inv[e] = eb
        inv[eb] = e
    return SerreGraph(vertices, origin, inv)


def rose(letters):
    """Wedge of circles on one vertex, one loop per letter.

    `letters` may be an int (uses a, b, c, ...) or an iterable of lowercase
    letters; the reverse of letter x is x.upper().
    """
    if isinstance(letters, int):
        if not 0 <= letters <= 26:
            raise ValueError("rose(n) supports 0 <= n <= 26")
        letters = [chr(ord("a") + i) for i in range(letters)]
    letters = list(letters)
    for x in letters:
        if not (isinstance(x, str) and x.isalpha() and x.islower()):
            raise ValueError(f"rose letters must be lowercase, got {x!r}")
    return make_graph(["v0"], [(x, x.upper(), "v0", "v0") for x in letters])


def cycle(n):
    """Circle subdivided into n geometric edges (n >= 1)."""
    if n < 1:
        raise ValueError("cycle(n) needs n >= 1")
    verts = [f"c{i}" for i in range(n)]
    return make_graph(
        verts,
        [(f"e{i}", f"E{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)],
    )


def theta():
    """Two vertices joined by three geometric edges."""
    return make_graph(["u", "v"], [(x, x.upper(), "u", "v") for x in "pqr"])


class GraphMorphism:
    """Map of Serre graphs: vertex and edge assignments commuting with
    origin and reversal."""

    __slots__ = ("domain", "codomain", "vmap", "emap")

    def __init__(self, domain, codomain, vmap, emap):
        self.domain = domain
        self.codomain = codomain
        self.vmap = dict(vmap)
        self.emap = dict(emap)
        if set(self.vmap) != set(domain.vertices):
            raise InvalidMap("vertex assignment must cover the domain exactly")
        if set(self.emap) != set(domain.origin):
            raise InvalidMap("edge assignment must cover the domain exactly")
        for v, w in self.vmap.items():
            if w not in codomain._links:
                raise UnknownVertex(f"image vertex {w!r} not in codomain")
        for e, d in self.emap.items():
            if d not in codomain.origin:
                raise UnknownEdge(f"image edge {d!r} not in codomain")
            if codomain.origin[d] != self.vmap[domain.origin[e]]:
                raise InvalidMap(f"origin not preserved at edge {e!r}")
            if self.emap[domain.inv[e]] != codomain.inv[d]:
                raise InvalidMap(f"reversal not preserved at edge {e!r}")

    def __repr__(self):
        return f"GraphMorphism({self.domain!r} -> {self.codomain!r})"

    def is_immersion(self):
        for v in self.domain.vertices:
            seen = set()
            for e in self.domain.link(v):
                d = self.emap[e]
                if d in seen:
                    return False
                seen.add(d)
        return True

    def immersion_violation(self):
        """Least (e1, e2) in a common link with equal image, or None."""
        best = None
        for v in self.domain.vertices:
            by_image = {}
            for e in self.domain.link(v):
                by_image.setdefault(self.emap[e], []).append(e)
            for group in by_image.values():
                if len(group) >= 2:
                    pair = (group[0], group[1])
                    if best is None or (sort_key(pair[0]), sort_key(pair[1])) < (
                            sort_key(best[0]), sort_key(best[1])):
                        best = pair
        return best


def identity_morphism(g):
    return GraphMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})


def compose(outer, inner):
    """outer after inner."""
    if inner.codomain is not outer.domain and inner.codomain != outer.domain:
        raise InvalidMap("composition mismatch")
    return GraphMorphism(
        inner.domain,
        outer.codomain,
        {v: outer.vmap[w] for v, w in inner.vmap.items()},
        {e: outer.emap[d] for e, d in inner.emap.items()},
    )


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
    """Fold the edges a1, a2; requires a common origin and a2 != reverse(a1)."""
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


@dataclass
class FoldSequence:
    """Result of fully folding a morphism: f = immersion `fbar` after `f0`."""

    domain: SerreGraph
    codomain: SerreGraph
    folds: list
    folded: SerreGraph
    f0: GraphMorphism
    fbar: GraphMorphism

    @property
    def all_essential(self):
        return all(fd.essential for fd in self.folds)


def stallings_fold(f):
    """Fold f completely; the least violating pair is folded at each step."""
    folds = []
    current = f
    f0 = identity_morphism(f.domain)
    while True:
        pair = current.immersion_violation()
        if pair is None:
            break
        fd = fold(current.domain, *pair)
        folds.append(fd)
        vmap = {}
        emap = {}
        for v in fd.after.vertices:
            vmap[v] = current.vmap[v]
        for e in fd.after.edges:
            emap[e] = current.emap[e]
        current = GraphMorphism(fd.after, f.codomain, vmap, emap)
        f0 = compose(fd.projection, f0)
    if not current.is_immersion():
        raise VerificationFailed("the folded map is not an immersion")
    return FoldSequence(f.domain, f.codomain, folds, current.domain, f0, current)


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


def pi1_injective_oracle(f):
    """True iff f is injective on fundamental groups.

    Requires a finite connected core domain. Folding makes f factor through
    an immersion, which is always pi1-injective; the folded part is
    pi1-surjective onto a free group, so injectivity is equivalent to the
    first Betti number surviving (free groups of equal finite rank are
    Hopfian).
    """
    if not f.domain.is_connected():
        raise DomainNotConnected("oracle needs a connected domain")
    if not f.domain.is_core() or not f.domain.vertices:
        raise DomainNotCore("oracle needs a nonempty core domain")
    seq = stallings_fold(f)
    return seq.all_essential


def find_isomorphism(g, h, edge_classes_g=None, edge_classes_h=None):
    """Search for an isomorphism g -> h, optionally matching edge partitions.

    Partitions are given as edge -> class-id maps; an isomorphism must then
    induce a bijection of classes. Returns (vmap, emap) or None. Intended
    for the small graphs this package works with.
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    use_classes = edge_classes_g is not None
    if use_classes:
        sizes_g = {}
        for e, c in edge_classes_g.items():
            sizes_g[c] = sizes_g.get(c, 0) + 1
        sizes_h = {}
        for e, c in edge_classes_h.items():
            sizes_h[c] = sizes_h.get(c, 0) + 1
        if sorted(sizes_g.values()) != sorted(sizes_h.values()):
            return None

    gverts = ssorted(g.vertices)
    hverts = list(h.vertices)
    vmap = {}
    emap = {}
    cmap = {}  # g-class -> h-class, built greedily

    def vsig(graph, v):
        return graph.valence(v)

    def extend_edges(idx_edges):
        if idx_edges == len(g.edges):
            return True
        e = g.edges[idx_edges]
        if e in emap:
            return extend_edges(idx_edges + 1)
        u, w = g.origin[e], g.terminus(e)
        for d in h.link(vmap[u]):
            if d in emap.values():
                continue
            if h.terminus(d) != vmap[w]:
                continue
            if use_classes:
                cg, ch = edge_classes_g[e], edge_classes_h[d]
                if cg in cmap:
                    if cmap[cg] != ch:
                        continue
                elif ch in cmap.values():
                    continue
            eb, db = g.inv[e], h.inv[d]
            claimed = []
            emap[e] = d
            claimed.append(e)
            ok = True
            if eb in emap:
                ok = emap[eb] == db
            else:
                if db in emap.values():
                    ok = False
                else:
                    if use_classes:
                        cg2, ch2 = edge_classes_g[eb], edge_classes_h[db]
                        if cg2 in cmap:
                            ok = cmap[cg2] == ch2
                        elif ch2 in cmap.values():
                            ok = False
                    if ok:
                        emap[eb] = db
                        claimed.append(eb)
            added_classes = []
            if ok and use_classes:
                for ge, he in ((e, d), (eb, db)):
                    cg3, ch3 = edge_classes_g[ge], edge_classes_h[he]
                    if cg3 not in cmap:
                        cmap[cg3] = ch3
                        added_classes.append(cg3)
                    elif cmap[cg3] != ch3:
                        ok = False
                        break
            if ok and extend_edges(idx_edges + 1):
                return True
            for c in added_classes:
                del cmap[c]
            for x in claimed:
                del emap[x]
        return False

    def extend_vertices(idx):
        if idx == len(gverts):
            return extend_edges(0)
        v = gverts[idx]
        for w in hverts:
            if w in vmap.values():
                continue
            if vsig(g, v) != vsig(h, w):
                continue
            vmap[v] = w
            if extend_vertices(idx + 1):
                return True
            del vmap[v]
        return False

    if extend_vertices(0):
        return dict(vmap), dict(emap)
    return None
