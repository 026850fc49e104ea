"""Finite graphs with oriented edge pairs (Serre's formalism) and foldings.

A graph here is a set of vertices, a set of oriented edges, an origin map
edge -> vertex and a fixed-point-free involution edge -> edge giving the
reversed orientation. The terminus of e is the origin of its reverse. A
geometric edge is an orbit {e, ebar} of the involution.

Ids may be ints, strings, tuples or frozensets of these, ordered by
`sort_key`. That order is decided once, when a graph is built: its
vertices and edges are stored sorted, and the first edge of each pair in
that order is the pair's canonical orientation. Union-find, components
and quotients keep the order, naming each class by its first member in
it, so every derived object is deterministic without sorting again.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import (
    DomainNotConnected,
    DomainNotCore,
    FixedPointInvolution,
    InvalidMap,
    NonInvolutive,
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
    """Union-find over the items given; roots are labels, not names.

    `classes()` lists the classes in the order the items were given, so
    items given sorted yield sorted classes keyed by least member.
    """

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

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
        self.parent[ry] = rx
        return True

    def copy(self):
        """An independent union-find holding the same classes."""
        other = DisjointSets()
        other.parent = dict(self.parent)
        return other

    def classes(self):
        """Partition as a list of tuples: each class in item order, the
        classes in the order of their first items."""
        by_root = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return [tuple(c) for c in by_root.values()]


class SerreGraph:
    """Immutable finite graph with involution; see the module docstring."""

    __slots__ = ("vertices", "edges", "origin", "inv", "_links", "_canonical",
                 "_geometric")

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
        canonical = set()
        geometric = []
        for e in self.edges:
            links[self.origin[e]].append(e)
            if self.inv[e] not in canonical:
                canonical.add(e)
                geometric.append(e)
        self._links = {v: tuple(es) for v, es in links.items()}
        self._canonical = canonical  # the first edge of each pair
        self._geometric = tuple(geometric)

    def __repr__(self):
        return f"SerreGraph({len(self.vertices)} vertices, {len(self.edges) // 2} geometric edges)"

    def __eq__(self, other):
        return (isinstance(other, SerreGraph) and self.vertices == other.vertices
                and self.origin == other.origin and self.inv == other.inv)

    def __hash__(self):
        return hash((self.vertices, self.edges,
                     tuple(self.origin[e] for e in self.edges)))

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
        return e if e in self._canonical else self.inv[e]

    def geometric_edges(self):
        """The canonical edge of each pair, sorted."""
        return self._geometric

    def has_edge(self, e):
        return e in self.origin

    def check_edge(self, e):
        if e not in self.origin:
            raise UnknownEdge(f"no edge {e!r}")
        return e

    def component_map(self):
        """vertex -> minimum vertex of its component; each geometric
        edge joins its ends once."""
        ds = DisjointSets(self.vertices)
        origin, inv = self.origin, self.inv
        for e in self._geometric:
            ds.union(origin[e], origin[inv[e]])
        name = {}
        return {v: name.setdefault(ds.find(v), v) for v in self.vertices}

    def is_connected(self):
        return len(set(self.component_map().values())) == 1

    def is_core(self):
        """No valence-0 or valence-1 vertices. The empty graph counts as core."""
        return all(self.valence(v) >= 2 for v in self.vertices)


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


class FoldRecord(NamedTuple):
    """One fold made by `stallings_fold`, without the graphs; the
    one-pair reference `fold` in `tests/gen.py` builds the same fold
    with its graphs and projection.

    The edges a1 < a2 (by `sort_key`) had a common origin; a1 and its
    reverse keep their ids, a2 and its reverse are dropped. v1 and v2
    were the termini of a1 and a2; the fold is essential iff they
    differed, and then they became one vertex named by the lesser id.
    `moved` holds the edges that started at `moved_from` (v1 or v2, the
    side with fewer edges) just before the fold, a2 and its reverse
    left out: enough to split the merged vertex again. An inessential
    fold moves nothing (`moved_from` None, `moved` empty).
    """

    a1: object
    a2: object
    essential: bool
    v1: object
    v2: object
    moved_from: object
    moved: frozenset


@dataclass
class FoldSequence:
    """Result of fully folding a morphism: f = immersion `fbar` after `f0`.

    `folds` lists one `FoldRecord` (a1, a2, essential, v1, v2,
    moved_from, moved) per fold, in the order made; no graphs.
    """

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
    """Fold f completely, the least violating pair (by `sort_key`) first.

    Names are those of folding one pair at a time with `fold`, the
    one-pair reference in `tests/gen.py`: a kept edge or vertex keeps
    its id. One pass over union-find sets of vertices and edges: each
    vertex keeps its edges grouped by image, and a heap holds the
    least pair of every group of two or more.
    Merging two vertices moves the side with fewer edges, so each edge
    moves O(log n) times and all the folds take O(n log^2 n) for n
    edges; the folded graph, f0 and fbar are built once, at the end.
    """
    g = f.domain
    names, vnames = g.edges, g.vertices  # sorted, so index order is sort_key order
    index = {e: i for i, e in enumerate(names)}
    vindex = {v: i for i, v in enumerate(vnames)}
    inv = [index[g.inv[e]] for e in names]
    origin = [vindex[g.origin[e]] for e in names]
    image = [f.emap[e] for e in names]
    alive = [True] * len(names)
    vsets = DisjointSets(range(len(vnames)))
    esets = DisjointSets(range(len(names)))
    link = [set() for _ in vnames]  # vertex root -> alive edges there
    groups = [{} for _ in vnames]  # vertex root -> image -> heap of edges
    for e in range(len(names)):
        link[origin[e]].add(e)
        groups[origin[e]].setdefault(image[e], []).append(e)  # ascending: a heap
    pending = []

    def push_least_pair(heap):
        while heap and not alive[heap[0]]:
            heappop(heap)
        if len(heap) < 2:
            return
        first = heappop(heap)
        while heap and not alive[heap[0]]:
            heappop(heap)
        if heap:
            heappush(pending, (first, heap[0]))
        heappush(heap, first)

    for by_image in groups:
        for heap in by_image.values():
            push_least_pair(heap)
    folds = []
    while pending:
        # An entry is stale once an edge died or the two origins split
        # apart; every group's current least pair is in the heap, so the
        # least live entry is the least violating pair.
        a1, a2 = heappop(pending)
        u = vsets.find(origin[a1])
        if not (alive[a1] and alive[a2]) or vsets.find(origin[a2]) != u:
            continue
        b1, b2 = inv[a1], inv[a2]
        v1, v2 = vsets.find(origin[b1]), vsets.find(origin[b2])
        alive[a2] = alive[b2] = False
        link[u].discard(a2)
        link[v2].discard(b2)
        esets.parent[a2] = a1
        esets.parent[b2] = b1  # b1 may sort after b2 but keeps its id
        touched = [(u, image[a1]), (v2, image[b1])]
        moved_from, moved = None, frozenset()
        if v1 != v2:
            small, big = (v2, v1) if len(link[v2]) <= len(link[v1]) else (v1, v2)
            moved_from, moved = vnames[small], frozenset(names[e] for e in link[small])
            link[big] |= link[small]
            into = groups[big]
            for x, heap in groups[small].items():
                if x not in into:
                    into[x] = heap
                    continue
                if len(heap) > len(into[x]):
                    into[x], heap = heap, into[x]
                for e in heap:
                    if alive[e]:
                        heappush(into[x], e)
                touched.append((big, x))
            link[small], groups[small] = None, None
            root, other = min(v1, v2), max(v1, v2)
            vsets.parent[other] = root  # the lesser index sorts first
            link[root], groups[root] = link[big], groups[big]
        for v, x in touched:
            push_least_pair(groups[vsets.find(v)][x])
        folds.append(FoldRecord(names[a1], names[a2], v1 != v2, vnames[v1],
                                vnames[v2], moved_from, moved))

    vmap = {v: vnames[vsets.find(i)] for i, v in enumerate(vnames)}
    kept = [names[e] for e in range(len(names)) if alive[e]]
    folded = SerreGraph(set(vmap.values()), {e: vmap[g.origin[e]] for e in kept},
                        {e: g.inv[e] for e in kept})
    f0 = GraphMorphism(g, folded, vmap,
                       {e: names[esets.find(i)] for i, e in enumerate(names)})
    fbar = GraphMorphism(folded, f.codomain,
                         {v: f.vmap[v] for v in folded.vertices},
                         {e: f.emap[e] for e in kept})
    if not fbar.is_immersion():
        raise VerificationFailed("the folded map is not an immersion")
    return FoldSequence(g, f.codomain, folds, folded, f0, fbar)


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
