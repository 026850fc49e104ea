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

`Origami` checks its conditions in one pass over numbers: each space is
only a union-find, the edge space over the classes and the vertex space
over vertices and classes.  The separation test `open_separation` keeps
the one adjacency map, built only when some class has two distinct
origins and searched once, whatever the number of class members.

`open_separation` takes plain maps rather than an Origami: vertex blocks
(`blocks.VertexBlock`) meet the same conditions with parts in the role
of edges and upper-link components in the role of vertices, and answer
the forest questions with the same union-find (`DisjointSets`).
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import (
    DomainMismatch,
    FoldNotEssential,
    IncompatibleOrigami,
    NotAnOrigami,
    NotCoreOrConnected,
    OrigamiNotEssential,
    UnknownEdge,
    VerificationFailed,
)
from .serre_graph import (
    DisjointSets,
    FoldRecord,
    GraphMorphism,
    SerreGraph,
    sort_key,
    stallings_fold,
)


_CLOSED = object()  # tags the closed-class nodes of a vertex space


def _bridges(adj):
    """One depth-first search of a multigraph, given as a map from each
    node to its (edge id, other end) pairs: (entry, exit, below, roots).

    Nodes get entry times in visiting order, and `exit[n]` is the last
    entry time in the subtree of n, so the subtree of n is the interval
    entry[n]..exit[n].  `below` maps each bridge's id to its lower end,
    and `roots` lists the entry times of the search trees, one per
    component, ascending.  Only the edge a node was entered by is
    skipped, so a parallel edge back to the parent is a cycle.
    """
    entry, low, exit_, below, roots = {}, {}, {}, {}, []
    t = 0
    for root in adj:
        if root in entry:
            continue
        roots.append(t)
        entry[root] = low[root] = t
        t += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, via, it = stack[-1]
            for eid, m in it:
                if m not in entry:
                    entry[m] = low[m] = t
                    t += 1
                    stack.append((m, eid, iter(adj[m])))
                    break
                if eid != via and entry[m] < low[node]:
                    low[node] = entry[m]
            else:
                stack.pop()
                exit_[node] = t - 1
                if stack:
                    parent = stack[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] > entry[parent]:
                        below[via] = node
    return entry, exit_, below, roots


def open_separation(classes, origin, closed_rep):
    """First (open class, edge) such that removing that one edge from
    the vertex space cuts the origins of the class apart; None if no
    class separates.

    The classes partition the edges.  The vertex space joins each
    edge's origin (`origin[e]`, a vertex-space node) to its closed
    class (`closed_rep[e]`, any name shared by exactly its members).
    It is built as an adjacency map, and searched once, only if some
    class has two distinct origins: one depth-first search finds the
    bridges (Tarjan 1974).  A class whose origins lie in two components
    is cut apart by its first member; otherwise a member separates its
    class exactly when it is a bridge with origins on both sides, which
    counting the origins' entry times inside the interval of its lower
    end decides.
    """
    split = []
    for cls in classes:
        ends = {origin[e] for e in cls}
        if len(ends) > 1:
            split.append((cls, ends))
    if not split:
        return None
    adj = {}
    for cls in classes:
        for e in cls:
            u, c = origin[e], (_CLOSED, closed_rep[e])
            adj.setdefault(u, []).append((e, c))
            adj.setdefault(c, []).append((e, u))
    entry, exit_, below, roots = _bridges(adj)
    for cls, ends in split:
        times = sorted(entry[n] for n in ends)
        if bisect_right(roots, times[0]) != bisect_right(roots, times[-1]):
            return cls, next(iter(cls))
        for m in cls:
            lower = below.get(m)
            if lower is not None:
                inside = (bisect_right(times, exit_[lower])
                          - bisect_left(times, entry[lower]))
                if 0 < inside < len(times):
                    return cls, m
    return None


class QuotientResult(NamedTuple):
    quotient: SerreGraph
    q: GraphMorphism


class Origami:
    """Partition of the oriented edges of a graph (the open relation).

    `classes` is any iterable of iterables of edge ids; edges not listed
    form singletons. The canonical form keyed by minimum class member is
    what equality compares.

    The origami checks its conditions once, the first time they are
    asked about, and keeps the outcome: the violation, or the quotient
    built from the components the conditions were checked on.
    """

    __slots__ = ("graph", "open_map", "open_classes", "_quotient")

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
        self.open_classes = tuple(ds.classes())  # graph.edges is sorted
        self.open_map = {e: c[0] for c in self.open_classes for e in c}
        self._quotient = None

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

    def closed_map(self):
        """Edge -> least member of its closed class, the reversal image of
        an open class; walking the sorted edges meets that member first."""
        g = self.graph
        name = {}
        return {e: name.setdefault(self.open_map[g.inv[e]], e)
                for e in g.edges}

    def origami_violation(self):
        """None if the origami conditions hold, else a reason string."""
        return self._checked()[0]

    def _checked(self):
        """(origami_violation(), quotient_graph(self) or None), computed
        once per origami by `_check` and kept."""
        if self._quotient is None:
            self._quotient = self._check()
        return self._quotient

    def _check(self):
        """The origami conditions and the quotient, in one pass over
        vertex and class numbers.

        The graph's vertices are numbered in order, and open class k is
        `open_classes[k]`; closed class k holds the reverses of its
        members.  The edge space is a union-find over 2K nodes (open
        class k is node k, closed class k node K + k), the vertex space
        one over V + K nodes (vertex i, closed class k as V + k), and
        each edge unites its two ends in both.  `open_separation` gets
        the classes, each edge's origin number and its closed class
        number, and builds the vertex space's adjacency only when some
        class has two distinct origins.  The first violation, in the
        order reverse, disconnected, separated, is the reason; otherwise
        quotient vertices and edges are the components of the two
        spaces, each named by its least member.
        """
        g = self.graph
        inv, origin, classes = g.inv, g.origin, self.open_classes
        K, V = len(classes), len(g.vertices)
        k_of = {e: k for k, cls in enumerate(classes) for e in cls}
        number = {v: i for i, v in enumerate(g.vertices)}
        espace, vspace = DisjointSets(range(2 * K)), DisjointSets(range(V + K))
        start, closed_of = {}, {}
        for e in g.edges:
            closed = closed_of[e] = k_of[inv[e]]
            espace.union(k_of[e], K + closed)
            i = start[e] = number[origin[e]]
            vspace.union(i, V + closed)
        eroot = list(map(espace.find, range(K)))
        vroot = list(map(vspace.find, range(V)))
        for e in g.geometric_edges():
            if eroot[k_of[e]] == eroot[k_of[inv[e]]]:
                return f"edge {e!r} meets its reverse in the edge space", None
        for cls in classes:
            root = vroot[start[cls[0]]]
            if any(vroot[start[e]] != root for e in cls[1:]):
                return (f"origins of open class of {cls[0]!r} are "
                        "disconnected"), None
        separated = open_separation(classes, start, closed_of)
        if separated is not None:
            cls, m = separated
            return (f"open class of {cls[0]!r} disconnects when "
                    f"edge {m!r} is removed"), None
        edge_name, vert_name = {}, {}  # component -> its least member
        emap = {e: edge_name.setdefault(eroot[k_of[e]], e) for e in g.edges}
        vmap = {v: vert_name.setdefault(r, v)
                for v, r in zip(g.vertices, vroot)}
        Q = SerreGraph(vert_name.values(),
                       {emap[e]: vmap[origin[e]] for e in g.edges},
                       {emap[e]: emap[inv[e]] for e in g.edges})
        return None, QuotientResult(Q, GraphMorphism(g, Q, vmap, emap))

    def essential_failure(self):
        """Which derived space is not a forest, or None; raises
        NotAnOrigami if the origami conditions fail.

        A multigraph is a forest iff it has as many edges as nodes less
        components. Both spaces have one edge per graph edge. The edge
        space has a node per open and per closed class (as many of
        each) and a component per quotient edge; the vertex space has a
        node per vertex and per closed class and a component per
        quotient vertex.
        """
        g, Q = self.graph, quotient_graph(self).quotient
        classes = len(self.open_classes)
        if len(g.edges) != 2 * classes - len(Q.edges):
            return "edge space is not a forest"
        if len(g.edges) != len(g.vertices) + classes - len(Q.vertices):
            return "vertex space is not a forest"
        return None

    def is_essential(self):
        """Both derived spaces are forests; raises NotAnOrigami if the
        origami conditions themselves fail."""
        return self.essential_failure() is None

    def validate(self):
        reason = self.origami_violation()
        if reason is not None:
            raise NotAnOrigami(reason)
        reason = self.essential_failure()
        if reason is not None:
            raise OrigamiNotEssential(reason)


def trivial_origami(graph):
    """All classes singletons; always an essential origami."""
    return Origami(graph, ())


def quotient_graph(omega):
    """Quotient of the graph by the origami; returns (graph, quotient map).

    Vertices are vertex-space components (named by their least graph
    vertex), edges are edge-space components (least graph edge); both
    are the components the origami conditions were checked on. The
    origami builds its quotient once and keeps it; raises NotAnOrigami
    when the conditions fail.
    """
    reason, quotient = omega._checked()
    if reason is not None:
        raise NotAnOrigami(reason)
    return quotient


def factor_through_quotient(omega, f):
    """The map h with h . quotient = f, when the origami is compatible.

    Compatibility means h exists and is an immersion; otherwise this
    raises IncompatibleOrigami. The quotient is the one the origami
    keeps (quotient_graph).
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
    """True iff f factors through the quotient map the origami keeps
    with an immersion."""
    try:
        factor_through_quotient(omega, f)
    except IncompatibleOrigami:
        return False
    return True


def _check_quotient_descends(fd, om_before, om_after):
    """Check that the canonical map of quotients along a fold is an
    isomorphism; raises VerificationFailed otherwise.

    The fold projection sends classes to classes, hence induces a map of
    quotient graphs; transport is only correct if that map is bijective
    and structure preserving.
    """
    Qb, qb = quotient_graph(om_before)
    Qa, qa = quotient_graph(om_after)
    f = fd.projection

    def descend(pairs):
        out = {}
        for src, dst in pairs:
            if out.setdefault(src, dst) != dst:
                raise VerificationFailed(
                    "the fold does not descend to the quotients")
        return out

    vmap = descend((qb.vmap[v], qa.vmap[f.vmap[v]]) for v in fd.before.vertices)
    emap = descend((qb.emap[e], qa.emap[f.emap[e]]) for e in fd.before.edges)
    bijective = (
        len(set(vmap.values())) == len(vmap) == len(Qa.vertices) == len(Qb.vertices)
        and len(set(emap.values())) == len(emap) == len(Qa.edges) == len(Qb.edges))
    if not bijective or any(Qa.origin[emap[e]] != vmap[Qb.origin[e]]
                            or Qa.inv[emap[e]] != emap[Qb.inv[e]]
                            for e in Qb.edges):
        raise VerificationFailed("the quotients along the fold are not isomorphic")


class _Unfolder:
    """A graph with an origami on it, unfolded one fold at a time.

    Edges keep their ids. Each vertex is a token (`token[v]`), edge e
    starts at token `at[e]`, and `link[t]` holds the edges starting at
    token t. Splitting a vertex renames the token of the side that stays
    and gives a new one to the side the fold moved (`FoldRecord.moved`),
    so only the moved edges change. `members` lists the open classes.
    """

    def __init__(self, vertices, origin, inv, classes):
        self.inv = inv
        self.token = {v: t for t, v in enumerate(vertices)}
        self.at = {e: self.token[v] for e, v in origin.items()}
        self.link = [set() for _ in self.token]
        for e, t in self.at.items():
            self.link[t].add(e)
        self.members = [set(c) for c in classes]
        self.cls = {e: i for i, c in enumerate(self.members) for e in c}

    def unfold(self, rec):
        """Undo the essential fold `rec` and pull the origami back.

        The class of the merged edge takes in a2. The class of its
        reverse b1 splits in two: b2 starts the new class, and every
        other member x goes with b1 or b2 by the side of the split
        vertex through which the vertex space reaches the closed class
        of x. Every other class is unchanged.
        """
        inv, cls, members = self.inv, self.cls, self.members
        a1, a2, v1, v2 = rec.a1, rec.a2, rec.v1, rec.v2
        b1, b2 = inv[a1], inv[a2]
        split = cls[b1]
        if cls[a1] == split:
            raise NotAnOrigami(f"edge {a1!r} is open-related to its reverse")
        # the fold kept one of v1, v2 as the merged vertex's name and
        # dropped the other, which gets a token only below
        t = self.token[v1] if v1 in self.token else self.token[v2]
        stay = v2 if rec.moved_from == v1 else v1
        entries = {}
        to_b2 = [b2]
        for x in members[split]:
            if x == b1:
                continue
            entry = self._entry_edge(x, t, b1, entries)
            if (rec.moved_from if entry in rec.moved else stay) == v2:
                to_b2.append(x)

        moved_t = len(self.link)
        self.token[stay], self.token[rec.moved_from] = t, moved_t
        self.link[t] -= rec.moved
        self.link.append(set(rec.moved))
        for z in rec.moved:
            self.at[z] = moved_t
        for e, te in ((a2, self.at[a1]), (b2, self.token[v2])):
            self.at[e] = te
            self.link[te].add(e)

        cls[a2] = cls[a1]
        members[cls[a1]].add(a2)
        members[split].difference_update(to_b2)
        members.append(set(to_b2))
        for x in to_b2:
            cls[x] = len(members) - 1

    def _entry_edge(self, x, t, b1, entries):
        """Last edge of the vertex-space walk from the closed class of x
        to the merged vertex (token t).

        The vertex space is a forest, so that edge is unique. The walk
        never passes the merged vertex, so every node it meets ends
        with the same edge; `entries` keeps them for the other walks of
        this fold. Ending with b1, which starts at both sides, fails.
        """
        inv, cls, at = self.inv, self.cls, self.at
        start = ("C", cls[inv[x]])
        seen = {start}
        stack = [start]
        entry = entries.get(start)
        while entry is None and stack:
            kind, key = stack.pop()
            if kind == "V":
                ends = [("C", cls[inv[z]]) for z in self.link[key]]
            else:
                # closed class `key`: the reverses of open class `key`
                edges = [inv[y] for y in self.members[key]]
                entry = next((z for z in edges if at[z] == t), None)
                ends = [("V", at[z]) for z in edges]
            for node in ends if entry is None else ():
                if node in entries:
                    entry = entries[node]
                    break
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        if entry is None or entry == b1:
            raise VerificationFailed(
                f"no vertex-space path enters the split vertex for {x!r}")
        for node in seen:
            entries[node] = entry
        return entry


def unfold_origami(fd, omega_prime):
    """Pull an essential origami back through an essential fold.

    fd is a `Fold`, as `tests/gen.py` builds one: it folds a1, a2
    (with reverses b1, b2) of fd.before onto fd.after; omega_prime
    lives on fd.after. Classes not meeting the images of the folded
    pair pull back edge by edge; the class of the merged edge pulls
    back to one class containing a1 and a2; the class of its reverse
    splits in two, membership decided by which side of the split vertex
    the unique vertex-space path enters through. This is one step of
    the pass in `certify_pi1_injective`; on its own it costs O(n) to set
    up and one `Origami` on fd.before.

    Raises unless omega_prime and the result are essential and their
    quotients are isomorphic.
    """
    if not fd.essential:
        raise FoldNotEssential("only essential folds can be unfolded")
    if omega_prime.graph != fd.after:
        raise DomainMismatch("origami does not live on the folded graph")
    omega_prime.validate()

    delta, f = fd.before, fd.projection
    a1, a2 = fd.a1, fd.a2
    b1, b2 = delta.inv[a1], delta.inv[a2]
    v1, v2 = delta.terminus(a1), delta.terminus(a2)
    # Name fd.after by preimages: the folded pair by a1 and b1, the
    # merged vertex by the lesser of v1 and v2, as stallings_fold does.
    merged = min(v1, v2, key=sort_key)
    vname = {f.vmap[v]: v for v in delta.vertices if v not in (v1, v2)}
    vname[f.vmap[v1]] = merged
    ename = {f.emap[e]: e for e in delta.edges if e not in (a2, b2)}
    state = _Unfolder(
        vname.values(),
        {ename[e]: vname[v] for e, v in fd.after.origin.items()},
        delta.inv,
        ([ename[e] for e in cls] for cls in omega_prime.open_classes))
    moved = frozenset(e for e in delta.link(v2) if e not in (a2, b2))
    state.unfold(FoldRecord(a1, a2, True, v1, v2, v2, moved))
    out = Origami(delta, state.members)
    if not out.is_essential():
        raise VerificationFailed("the unfolded origami is not essential")
    _check_quotient_descends(fd, out, omega_prime)
    return out


def certify_pi1_injective(f):
    """Essential origami compatible with f, or None when f is not injective.

    Folds f completely; if every fold is essential, the trivial origami on
    the folded graph is pulled back through the folds. The result
    witnesses injectivity: the quotient map by an essential origami is
    injective on fundamental groups, and the certificate's compatibility
    with f factors f through that quotient followed by an immersion.
    Restricted to nonempty connected core domain and codomain.

    Two passes, each near-linear in the size of f: `stallings_fold`,
    then one pull-back that undoes the folds on one mutable graph, each
    step splitting one class (`unfold_origami` is one such step). The
    only origami built is the result.
    """
    for g, side in ((f.domain, "domain"), (f.codomain, "codomain")):
        if not g.vertices or not g.is_connected() or not g.is_core():
            raise NotCoreOrConnected(f"{side} must be a nonempty connected core graph")
    seq = stallings_fold(f)
    if not seq.all_essential:
        return None
    folded = seq.folded
    state = _Unfolder(folded.vertices, folded.origin, f.domain.inv,
                      ((e,) for e in folded.edges))
    for rec in reversed(seq.folds):
        state.unfold(rec)
    return Origami(f.domain, state.members)
