"""Local models of immersed complexes over one vertex or edge of a base.

A vertex block records, at a single base vertex, everything an immersed
complex sitting over the base can do there: which corners of the base
faces it uses, how the corner ends group into upstairs directions (the
parts), and two partitions of the parts, one for directions identified
right away (open) and one for directions that must be matched across
the adjacent edge (closed).  An edge block is the shadow of that data
over a single skeleton edge; shadows over an edge and its reverse are
compared by `opposite_edge_block`, which is what ties the counts of
blocks into linear equations.

Parts are concrete subsets of the boundary edge set, so equality of
blocks over the identity of the base is literal equality of the data
and `canonical_block_key` is just a sorted serialisation.

A block vector is a plain dict from canonical key to a number; the
census of an actual mapped complex (`block_census`) produces one with
nonnegative integer entries.
"""

import itertools
from typing import NamedTuple

from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    is_branched_immersion,
    is_compatible_complex,
    link_predicate,
    quotient_complex,
    validate_complex,
    vertex_link,
    edge_link,
    opposite_bijection,
)
from .errors import (
    BlockNotEnumerated,
    DomainMismatch,
    EdgeNotAtBaseVertex,
    EnumerationBudgetExceeded,
    IncompatibleOrigami,
    NotAnOrigami,
    NotPiComplex,
    UnknownEdge,
    VerificationFailed,
)
from .origami import (Origami, edge_space, factor_through_quotient,
                      open_separation, vertex_space)
from .serre_graph import GraphMorphism, SerreGraph, sort_key, ssorted


def _freeze_relation(rel, parts, label):
    """Normalise a partition of `parts` into a frozenset of frozensets."""
    classes = frozenset(frozenset(frozenset(p) for p in c) for c in rel)
    seen = set()
    for c in classes:
        if not c:
            raise ValueError(f"empty {label} class")
        for p in c:
            if p not in parts:
                raise ValueError(f"{label} class names an unknown part")
            if p in seen:
                raise ValueError(f"{label} classes overlap")
            seen.add(p)
    if seen != set(parts):
        raise ValueError(f"{label} relation does not cover all parts")
    return classes


def _class_reps(rel):
    """Part -> minimum member of its class."""
    reps = {}
    for c in rel:
        r = min(c, key=sort_key)
        for p in c:
            reps[p] = r
    return reps


class VertexBlock:
    """What one vertex of an immersed complex over `complex` looks like.

    parts: disjoint nonempty corner sets, each over a single direction
    at the base vertex (its anchor).  open_rel and closed_rel partition
    the parts.  The predicate says which graphs are allowed as the
    upstairs link components; it is resolved through link_predicate and
    takes no part in equality.
    """

    __slots__ = ("complex", "base_vertex", "predicate", "parts",
                 "open_rel", "closed_rel", "corner_edges",
                 "_anchor", "_partner")

    def __init__(self, x, base_vertex, parts, open_rel, closed_rel, predicate):
        lk = vertex_link(x, base_vertex)
        corners = set(lk.edges)
        parts = frozenset(frozenset(p) for p in parts)
        seen = set()
        anchor = {}
        for p in parts:
            if not p:
                raise ValueError("empty part")
            if not p <= corners:
                raise UnknownEdge(
                    f"part uses corners outside the link of {base_vertex!r}")
            over = {lk.origin[s] for s in p}
            if len(over) != 1:
                raise ValueError("part mixes corners over different directions")
            if seen & p:
                raise ValueError("parts overlap")
            seen |= p
            anchor[p] = over.pop()
        if {lk.inv[s] for s in seen} != seen:
            raise ValueError("corner set is not closed under reversal")
        self.complex = x
        self.base_vertex = base_vertex
        self.predicate = link_predicate(predicate)
        self.parts = parts
        self.open_rel = _freeze_relation(open_rel, parts, "open")
        self.closed_rel = _freeze_relation(closed_rel, parts, "closed")
        self.corner_edges = frozenset(seen)
        self._anchor = anchor
        self._partner = {s: lk.inv[s] for s in seen}

    def __repr__(self):
        return (f"VertexBlock(at {self.base_vertex!r}, "
                f"{len(self.parts)} parts)")

    def _data(self):
        return (self.base_vertex, self.parts, self.open_rel, self.closed_rel)

    def __eq__(self, other):
        if not isinstance(other, VertexBlock):
            return NotImplemented
        return self.complex == other.complex and self._data() == other._data()

    __hash__ = None

    def anchors(self):
        """Part -> the skeleton edge (direction) its corners sit over."""
        return dict(self._anchor)

    def parts_at(self, e):
        """Parts anchored at the direction e, sorted."""
        return [p for p in ssorted(self.parts) if self._anchor[p] == e]

    def upper_link(self):
        """Graph with one vertex per part, one edge per corner."""
        return _upper_graph(self._partner, self.corner_edges, self.parts)

    def lower_link(self):
        """Subgraph of the base link spanned by the block's corners."""
        lk = vertex_link(self.complex, self.base_vertex)
        verts = {lk.origin[s] for s in self.corner_edges}
        return lk.subgraph(verts, self.corner_edges)

    def projection(self):
        """Anchor morphism from the upper link onto the lower one; it is
        the identity on corners."""
        return GraphMorphism(self.upper_link(), self.lower_link(),
                             dict(self._anchor),
                             {s: s for s in self.corner_edges})

    def edge_space(self):
        """The origami edge space with parts as edges: each part joins
        its open class to its closed class."""
        return edge_space(ssorted(self.parts), _class_reps(self.open_rel),
                          _class_reps(self.closed_rel))

    def vertex_space(self):
        """The origami vertex space with parts as edges and upper-link
        components as vertices: each part joins its component to its
        closed class."""
        return vertex_space(ssorted(self.parts),
                            self.upper_link().component_map(),
                            _class_reps(self.closed_rel))


def _upper_graph(inv, edges, parts):
    """Graph with one vertex per part and one edge per corner in
    `edges`, reversed by the map `inv`."""
    at = {s: p for p in parts for s in p}
    return SerreGraph(parts, {s: at[s] for s in edges},
                      {s: inv[s] for s in edges})


def _is_tree(mg):
    comps = mg.component_sets()
    return bool(comps) and mg.is_forest() and len(set(comps.values())) == 1


def validate_vertex_block(b):
    """Per-condition report on a vertex block; `valid` is the conjunction.

    components_admissible: every upper-link component passes the block's
    predicate.  vertex_tree / edge_forest: shape of the two derived
    multigraphs.
    no_open_separation: cutting any single part out of the vertex space
    never disconnects the components its open class touches.
    equal_image_same_component / component_constant_image: parts share
    an edge-space component exactly when they share an anchor; this is
    what lets the shadow of the block over an edge transport to the
    reversed edge without ambiguity.
    """
    report = {}
    upper = b.upper_link()
    anchors = b.anchors()

    report["components_admissible"] = _components_pass(upper, b.predicate)

    parts = ssorted(b.parts)
    comp = upper.component_map()
    orep = _class_reps(b.open_rel)
    crep = _class_reps(b.closed_rel)
    vspace = vertex_space(parts, comp, crep)
    espace = edge_space(parts, orep, crep)
    report["vertex_tree"] = _is_tree(vspace)
    report["edge_forest"] = espace.is_forest()
    report["no_open_separation"] = (
        open_separation(vspace, b.open_rel, comp) is None)

    ecomp = espace.component_sets()
    by_anchor = {}
    by_comp = {}
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


class EdgeBlock:
    """Shadow of a vertex block over one skeleton edge.

    partition: disjoint nonempty subsets of the boundary edges lying
    over base_edge, one per part of the originating vertex block that
    was anchored there; open_rel and closed_rel partition them.  The
    whole thing may be empty (a block with no parts over this edge).
    """

    __slots__ = ("complex", "base_edge", "partition",
                 "open_rel", "closed_rel", "support")

    def __init__(self, x, base_edge, partition, open_rel, closed_rel):
        x.skeleton.check_edge(base_edge)
        fibre = set(edge_link(x, base_edge))
        partition = frozenset(frozenset(p) for p in partition)
        seen = set()
        for p in partition:
            if not p:
                raise ValueError("empty element")
            if not p <= fibre:
                raise UnknownEdge(
                    f"element uses boundary edges not over {base_edge!r}")
            if seen & p:
                raise ValueError("elements overlap")
            seen |= p
        self.complex = x
        self.base_edge = base_edge
        self.partition = partition
        self.support = frozenset(seen)
        self.open_rel = _freeze_relation(open_rel, partition, "open")
        self.closed_rel = _freeze_relation(closed_rel, partition, "closed")

    def __repr__(self):
        return (f"EdgeBlock(over {self.base_edge!r}, "
                f"{len(self.partition)} elements)")

    def _data(self):
        return (self.base_edge, self.partition, self.open_rel, self.closed_rel)

    def __eq__(self, other):
        if not isinstance(other, EdgeBlock):
            return NotImplemented
        return self.complex == other.complex and self._data() == other._data()

    __hash__ = None


def induced_edge_block(b, e):
    """Restrict a vertex block to one direction at its base vertex.

    e must leave the base vertex.  A part anchored at e turns into the
    set of boundary edges over e it reaches (its corners' partners);
    relation classes restrict, and classes left empty disappear.
    """
    x = b.complex
    x.skeleton.check_edge(e)
    if x.skeleton.origin[e] != b.base_vertex:
        raise EdgeNotAtBaseVertex(
            f"{e!r} does not start at {b.base_vertex!r}")
    chosen = set(b.parts_at(e))
    image = {p: frozenset(b._partner[s] for s in p) for p in chosen}

    def push(rel):
        out = []
        for cls in rel:
            kept = frozenset(image[p] for p in cls if p in chosen)
            if kept:
                out.append(kept)
        return out

    return EdgeBlock(x, e, image.values(),
                     push(b.open_rel), push(b.closed_rel))


def opposite_edge_block(g):
    """The same shadow seen from the other end of the edge.

    Elements transport along the boundary reversal and the two
    relations swap roles.  Applying this twice gives the block back.
    """
    x = g.complex
    bar = opposite_bijection(x, g.base_edge)
    image = {p: frozenset(bar[s] for s in p) for p in g.partition}

    def push(rel):
        return [frozenset(image[p] for p in cls) for cls in rel]

    return EdgeBlock(x, x.skeleton.inv[g.base_edge], image.values(),
                     push(g.closed_rel), push(g.open_rel))


def _canonical(value):
    if isinstance(value, frozenset):
        return ("set",) + tuple(
            sorted((_canonical(v) for v in value), key=sort_key))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_canonical(v) for v in value)
    return value


def canonical_block_key(b):
    """Byte string naming a block up to relabelling of its upper link.

    Parts are already named by the corner sets they carry, so the only
    freedom left is presentation order; sorting inside every set makes
    the serialisation canonical and two blocks get the same key exactly
    when their data agree.
    """
    if isinstance(b, VertexBlock):
        payload = ("vertex-block", b.base_vertex, _canonical(b.parts),
                   _canonical(b.open_rel), _canonical(b.closed_rel))
    elif isinstance(b, EdgeBlock):
        payload = ("edge-block", b.base_edge, _canonical(b.partition),
                   _canonical(b.open_rel), _canonical(b.closed_rel))
    else:
        raise TypeError(f"not a block: {b!r}")
    return repr(payload).encode()


# -- Enumeration ------------------------------------------------------------

class _Budget:
    """Per-vertex counter over every search node the enumerator visits."""

    __slots__ = ("vertex", "limit", "used")

    def __init__(self, vertex, limit):
        self.vertex = vertex
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise EnumerationBudgetExceeded(self.vertex, self.limit)


def _set_partitions(items):
    """All partitions of the list, deterministically: the first item
    opens its own class first, then joins each existing class in turn."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[head]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]


def _fibre_trees(parts, budget):
    """(open, closed) partition pairs turning one fibre's parts into a
    tree of alternating classes."""
    plist = list(parts)
    n = len(plist)
    allp = []
    by_size = {}
    for pc in _set_partitions(plist):
        budget.spend()
        t = tuple(tuple(c) for c in pc)
        allp.append(t)
        by_size.setdefault(len(t), []).append(t)
    out = []
    for po in allp:
        budget.spend()
        for pc in by_size.get(n + 1 - len(po), ()):
            budget.spend()
            if _is_tree(edge_space(plist, _class_reps(po),
                                   _class_reps(pc))):
                out.append((po, pc))
    return out


def _components_pass(upper, pred):
    for comp_verts in upper.components():
        vs = set(comp_verts)
        es = tuple(s for s in upper.edges if upper.origin[s] in vs)
        if not pred(upper.subgraph(vs, es)):
            return False
    return True


def _blocks_at_vertex(x, v, pred, limit, found):
    lk = vertex_link(x, v)
    budget = _Budget(v, limit)
    geoms = lk.geometric_edges()
    tree_cache = {}

    def fibre_options(per):
        if per not in tree_cache:
            tree_cache[per] = _fibre_trees(per, budget)
        return tree_cache[per]

    for size in range(1, len(geoms) + 1):
        for combo in itertools.combinations(geoms, size):
            budget.spend()
            edges = set()
            for g in combo:
                edges.add(g)
                edges.add(lk.inv[g])
            fibres = {}
            for s in edges:
                fibres.setdefault(lk.origin[s], []).append(s)
            anchors = ssorted(fibres)
            per_fibre = []
            for a in anchors:
                fibres[a].sort(key=sort_key)
                opts = []
                for partition in _set_partitions(fibres[a]):
                    budget.spend()
                    opts.append(tuple(frozenset(p) for p in partition))
                per_fibre.append(opts)
            for family in itertools.product(*per_fibre):
                budget.spend()
                parts = [p for per in family for p in per]
                upper = _upper_graph(lk.inv, edges, parts)
                if not _components_pass(upper, pred):
                    continue
                _assemble_relations(x, v, family, parts, upper, pred,
                                    fibre_options, budget, found)


def _assemble_relations(x, v, family, parts, upper, pred,
                        fibre_options, budget, found):
    """Pick one (open, closed) tree pair per fibre so that the closed
    classes also chain the upper-link components into a tree."""
    comp = upper.component_map()
    ncomp = len(set(comp.values()))
    target = len(parts) - ncomp + 1
    if target < len(family):
        return
    options = []
    for per in family:
        opts = fibre_options(per)
        if not opts:
            return
        options.append(opts)
    nfib = len(options)
    min_suffix = [nfib - i for i in range(nfib + 1)]
    max_suffix = [0] * (nfib + 1)
    for i in range(nfib - 1, -1, -1):
        max_suffix[i] = max_suffix[i + 1] + len(family[i])

    def rec(i, closed_count, picked):
        budget.spend()
        if i == nfib:
            if closed_count == target:
                _emit(x, v, parts, picked, pred, found)
            return
        need = target - closed_count
        if not min_suffix[i] <= need <= max_suffix[i]:
            return
        closed = [cls for _, pc in picked for cls in pc]
        for po, pc in options[i]:
            crep = _class_reps(closed + list(pc))
            if vertex_space(list(crep), comp, crep).is_forest():
                rec(i + 1, closed_count + len(pc), picked + [(po, pc)])

    rec(0, 0, [])


def _emit(x, v, parts, picked, pred, found):
    open_rel = [cls for po, _ in picked for cls in po]
    closed_rel = [cls for _, pc in picked for cls in pc]
    b = VertexBlock(x, v, parts, open_rel, closed_rel, pred)
    if validate_vertex_block(b)["valid"]:
        found[canonical_block_key(b)] = b


def enumerate_vertex_blocks(x, predicate, max_candidates=1_000_000):
    """Every vertex block class over x, sorted by canonical key.

    predicate: 'surface', 'irreducible', or a callable on Serre graphs
    (resolved through link_predicate).  max_candidates bounds, per base
    vertex, how many search nodes the enumeration may visit (corner
    sets, part families, relation partitions, assembly steps); past the
    bound EnumerationBudgetExceeded is raised rather than returning a
    silently truncated catalogue.
    """
    validate_complex(x)
    pred = link_predicate(predicate)
    found = {}
    for v in x.skeleton.vertices:
        _blocks_at_vertex(x, v, pred, max_candidates, found)
    return [found[k] for k in sorted(found)]


# -- Blocks induced by an actual mapped complex -----------------------------

class QuotientFactorisation(NamedTuple):
    origami: Origami
    quotient: BranchedComplex
    to_quotient: BranchedMap
    from_quotient: BranchedMap


def factor_through_origami(phi, omega):
    """Split phi through the origami quotient of its domain.

    omega must be an essential origami on the domain skeleton and
    compatible with phi; the factor map out of the quotient is then a
    branched immersion and the two legs compose back to phi.
    """
    if omega.graph != phi.domain.skeleton:
        raise DomainMismatch("origami lives on a different graph")
    try:
        essential = omega.is_essential()
    except NotAnOrigami as err:
        raise IncompatibleOrigami(str(err)) from err
    if not essential:
        raise IncompatibleOrigami("origami is not essential")
    if not is_compatible_complex(omega, phi):
        raise IncompatibleOrigami("origami is not compatible with the map")
    quotient, front = quotient_complex(phi.domain, omega)
    skel = factor_through_quotient(omega, phi.skeleton_map)
    back = BranchedMap(quotient, phi.codomain, skel, phi.boundary_map)
    if not is_branched_immersion(back):
        raise VerificationFailed("the map out of the quotient is not a "
                                 "branched immersion")
    return QuotientFactorisation(omega, quotient, front, back)


def induced_vertex_block(fact, ubar, predicate):
    """Block cut out at one vertex of the quotient in a factorisation.

    Reads off, around every domain vertex over ubar, which base corners
    its link occupies and how they group into directions; the origami's
    open classes give the open relation and the open classes of the
    reversed edges give the closed one.
    """
    fact.quotient.skeleton.link(ubar)
    pred = link_predicate(predicate)
    front, back = fact.to_quotient, fact.from_quotient
    y = front.domain
    base = back.skeleton_map.vmap[ubar]
    closed = fact.origami.closed_map()
    parts = []
    open_groups = {}
    closed_groups = {}
    for u in y.skeleton.vertices:
        if front.skeleton_map.vmap[u] != ubar:
            continue
        lku = vertex_link(y, u)
        ends = {}
        for s in lku.edges:
            ends.setdefault(lku.origin[s], []).append(s)
        for a in ssorted(ends):
            part = frozenset(back.boundary_map.emap[s] for s in ends[a])
            parts.append(part)
            open_groups.setdefault(fact.origami.open_rep(a), []).append(part)
            closed_groups.setdefault(closed[a], []).append(part)
    return VertexBlock(back.codomain, base, parts,
                       open_groups.values(), closed_groups.values(), pred)


def block_census(phi, omega, predicate, classes=None):
    """Tally the induced vertex block at every quotient vertex.

    Returns {canonical block key: multiplicity}.  The domain must pass
    the link condition at every vertex (NotPiComplex) and the origami
    must be essential and compatible (IncompatibleOrigami).  When a
    catalogue of blocks is supplied, every induced class must occur in
    it (BlockNotEnumerated): the census then lands in the span of the
    catalogue by construction.
    """
    pred = link_predicate(predicate)
    for u in phi.domain.skeleton.vertices:
        if not pred(vertex_link(phi.domain, u)):
            raise NotPiComplex(f"link of {u!r} fails the predicate")
    fact = factor_through_origami(phi, omega)
    counts = {}
    for ubar in fact.quotient.skeleton.vertices:
        block = induced_vertex_block(fact, ubar, pred)
        if not validate_vertex_block(block)["valid"]:
            raise VerificationFailed(
                f"the block induced at {ubar!r} is not valid")
        key = canonical_block_key(block)
        counts[key] = counts.get(key, 0) + 1
    if classes is not None:
        known = {canonical_block_key(c) for c in classes}
        missing = [k for k in counts if k not in known]
        if missing:
            raise BlockNotEnumerated(
                f"{len(missing)} induced class(es) missing from the catalogue")
    return counts
