"""Local models of immersed complexes over one vertex of a base.

A vertex block records, at a single base vertex, everything an immersed
complex sitting over the base can do there: which corners of the base
faces it uses, how the corner ends group into upstairs directions (the
parts), and two partitions of the parts, one for directions identified
right away (open) and one for directions that must be matched across
the adjacent edge (closed).  Its shadow over a single skeleton edge,
the parts anchored there with their relations, is a key and no object
of its own: `VertexBlock.shadows` ranks it with the block's own helper,
the first time a cone asks, and keeps it with the positions of the
parts it shows, so a block that both catalogues hold is keyed once for
both cones.  The block is the one place that knows how a part meets
its mate over the reverse edge.  The gluing cone (`pipeline.ConeSystem`)
matches shadow keys over an edge and its reverse, which is what ties
the counts of blocks into linear equations, and `pipeline.reconstruct`
glues copies of blocks part by part in shadow-key order.

Parts are concrete subsets of the boundary edge set, so equality of
blocks over the identity of the base is literal equality of the data.
Every corner is ranked once per complex: the first block ranked over a
complex sorts its boundary edges by `sort_key` of their printed forms
and keeps each edge's rank and printed form on the complex (its corner
table).  A block's order is decided once, in its constructor, from that
table: parts and relation classes become tuples in rank order, compared
as integers, and the canonical key (`key`, a byte string) is read off
the ordered tuples.  Nothing later sorts a block again.

A block's upper-link components are decided once as well: the
constructor keeps them as `component_of`, from one union-find over the
parts, and the validator and the cone read them there.  The enumerator
decides each block condition where the data it is about is built, and
never twice:

* part sizes, once per corner set, from the sizes alone: a set with a
  fibre that no partition into parts of an accepted size fits costs
  one search node, and none of its fibres is partitioned;
* immersive, once per part family, on the family's union-find
  components; only a family that passes gets a graph per component,
  built once, on which components_admissible is decided for each
  predicate;
* edge_forest, equal_image_same_component and component_constant_image,
  once per fibre: each fibre gets an (open, closed) pair that makes its
  parts a tree, and no relation class crosses fibres;
* vertex_tree, while the closed classes are assembled: one union-find
  rejects every choice that closes a cycle, and a forest with one edge
  fewer than nodes is a tree;
* no_open_separation, on each assembled choice of relations, before any
  block is built: the one condition left, tested on the search's own
  classes and components, whose vertex space is built only when an open
  class has parts in two upper-link components.  Only a choice that
  passes becomes a block, and is ranked and filed.

A block holds no link predicate: the catalogue decides which upper
links are admissible, and `validate_vertex_block` takes the predicate
as an argument.  One search serves any number of predicates
(`enumerate_catalogues`): it generates the part sizes some predicate
accepts, assembles the relations of a family once if any predicate
passes it, and builds and ranks each block once; that one object goes
into the catalogue of every predicate that passed its family.
`enumerate_vertex_blocks` is the one-predicate call of the same search.

`block_census` still runs the whole `validate_vertex_block`, under its
own predicate, on every block it reads off a complex.

A block vector is a plain dict from canonical key to a number; the
census of an actual mapped complex (`block_census`) produces one with
nonnegative integer entries.
"""

import itertools
from typing import NamedTuple

from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    compatible_skeleton_factor,
    is_branched_immersion,
    link_predicate,
    quotient_complex,
    validate_complex,
    vertex_link,
)
from .errors import (
    DomainMismatch,
    EnumerationBudgetExceeded,
    IncompatibleOrigami,
    NotAnOrigami,
    NotPiComplex,
    UnknownEdge,
    VerificationFailed,
)
from .origami import Origami, open_separation
from .serre_graph import DisjointSets, SerreGraph, sort_key


def _canonical(value):
    """An id as the key prints it, each frozenset sorted."""
    if isinstance(value, frozenset):
        return ("set",) + tuple(
            sorted((_canonical(v) for v in value), key=sort_key))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_canonical(v) for v in value)
    return value


def _check_relation(rel, parts, label):
    """The classes of rel as lists of frozensets; raises ValueError
    unless each of the parts is in exactly one class, listed once."""
    classes = [list(map(frozenset, c)) for c in rel]
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
    if len(seen) != len(parts):
        raise ValueError(f"{label} relation does not cover all parts")
    return classes


def _freeze_relation(rel, rank):
    """A partition of the ranked parts as a tuple of classes, each a
    tuple of parts, both in rank order; classes are disjoint, so their
    first parts order them."""
    ordered = (tuple(sorted(c, key=rank.__getitem__)) for c in rel)
    return tuple(sorted(ordered, key=lambda c: rank[c[0]]))


def _ordered(kind, x, base, parts, open_rel, closed_rel):
    """A block's parts and relations in key order, and its key.

    Every corner is a boundary edge of x, ranked once per complex: the
    first call over x sorts its boundary edges by sort_key of their
    printed (`_canonical`) forms and keeps each edge's rank and printed
    form in the table `x._corners`.  A part ranks by its corners' ranks
    in order, and a class by its parts' ranks, so everything is ordered
    by integers.  Rank tuples compare exactly as sort_key compares the
    printed sets, so the key, the repr of the printed data, lists every
    set in rank order.

    Nothing is checked here: the VertexBlock constructor checks its
    relations (`_check_relation`), and a shadow's are restricted from
    them.
    """
    if x._corners is None:
        shown = {s: _canonical(s) for s in x.boundary.edges}
        order = sorted(shown, key=lambda s: sort_key(shown[s]))
        x._corners = ({s: i for i, s in enumerate(order)},
                      [shown[s] for s in order])
    rank_of, printed = x._corners
    rank = {p: tuple(sorted(map(rank_of.__getitem__, p))) for p in parts}
    parts = tuple(sorted(rank, key=rank.__getitem__))
    rels = (_freeze_relation(open_rel, rank),
            _freeze_relation(closed_rel, rank))
    shown = {p: ("set",) + tuple(map(printed.__getitem__, r))
             for p, r in rank.items()}

    def listed(ps):
        return ("set",) + tuple(map(shown.__getitem__, ps))

    payload = (kind, base, listed(parts),
               *(("set",) + tuple(map(listed, rel)) for rel in rels))
    return (parts, *rels, repr(payload).encode())


def _class_reps(rel):
    """Part -> first member of its class, the name of the class."""
    reps = {}
    for c in rel:
        for p in c:
            reps[p] = c[0]
    return reps


def _component_map(parts, inv):
    """Part -> its upper-link component, named by the component's first
    part in the order of `parts`: one union-find over the parts, joined
    across each corner and its reverse under the map `inv`."""
    at = {s: p for p in parts for s in p}
    ds = DisjointSets(parts)
    for s, p in at.items():
        ds.union(p, at[inv[s]])
    name = {}
    return {p: name.setdefault(ds.find(p), p) for p in parts}


class VertexBlock:
    """What one vertex of an immersed complex over `complex` looks like.

    parts: tuple of disjoint nonempty corner sets (frozensets), each
    over a single direction at the base vertex (its anchor).  open_rel
    and closed_rel partition the parts: tuples of classes, each class a
    tuple of parts.  Parts and classes are in key order.  key: the
    canonical key, bytes; equality compares the complex and the key.
    The constructor checks the relations, ranks the parts from the
    corner table of `complex` (see `_ordered`), and `shadows()` keys the
    block's shadows the first time it is called and keeps them, with
    the positions of the parts each shows, for every cone.
    corner_edges: the corners the parts use.  partner maps each of them
    to its reverse in the base vertex link.  component_of maps each part
    to its upper-link component, named by the component's first part in
    key order; it is decided by the constructor, so nothing that only
    needs the components builds the upper link.

    A block holds no link predicate: which graphs are allowed as the
    upstairs link components is decided by the catalogue it is filed
    in, and validate_vertex_block takes it as an argument.

    Each upper-link component becomes one vertex of the immersed
    complex, whose link maps injectively to the base link, so a valid
    block is immersive: the parts of each upper-link component have
    distinct anchors.  validate_vertex_block checks this, like every
    other block condition; the constructor does not.
    """

    __slots__ = ("complex", "base_vertex", "parts", "open_rel",
                 "closed_rel", "key", "corner_edges", "component_of",
                 "partner", "_anchor", "_shadows")

    def __init__(self, x, base_vertex, parts, open_rel, closed_rel):
        lk = vertex_link(x, base_vertex)
        corners = set(lk.edges)
        parts = list(map(frozenset, parts))  # a part listed twice overlaps
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
        open_rel = _check_relation(open_rel, anchor, "open")
        closed_rel = _check_relation(closed_rel, anchor, "closed")
        self.complex = x
        self.base_vertex = base_vertex
        self.parts, self.open_rel, self.closed_rel, self.key = _ordered(
            "vertex-block", x, base_vertex, parts, open_rel, closed_rel)
        self.corner_edges = frozenset(seen)
        self._anchor = anchor
        self.partner = {s: lk.inv[s] for s in seen}
        self.component_of = _component_map(self.parts, self.partner)
        self._shadows = None

    def __repr__(self):
        return (f"VertexBlock(at {self.base_vertex!r}, "
                f"{len(self.parts)} parts)")

    def __eq__(self, other):
        if not isinstance(other, VertexBlock):
            return NotImplemented
        return self.complex == other.complex and self.key == other.key

    __hash__ = None

    def anchors(self):
        """Part -> the skeleton edge (direction) its corners sit over."""
        return dict(self._anchor)

    def parts_at(self, e):
        """Parts anchored at the direction e, in key order."""
        return [p for p in self.parts if self._anchor[p] == e]

    def shadows(self):
        """(canonical edge, shadow key, side, positions) for each
        direction at the base vertex that some part is anchored at, in
        link order; keyed the first time it is asked for and kept, so
        every cone the block is in reads the same keys.

        A part anchored at e shows the boundary edges over e that its
        corners' partners are.  Over the canonical orientation of e that
        is the shadow (side 0); over the reverse, the shadow is moved
        across by the boundary reversal, with open and closed swapping
        roles, and keyed as the shadow it must pair with (side 1).  The
        relations restrict to the parts shown, and classes left empty
        disappear; the shadow is ranked like a block, as an "edge-block"
        over the canonical edge, and builds no object.

        positions: the indices in `parts` of the parts shown, in the
        shadow's key order.  Two shadows with one key list equal image
        sets in the same order, so a part of a side-0 shadow and its
        mate in a side-1 shadow with the same key sit at the same
        position: copies glue part by part.
        """
        if self._shadows is None:
            x = self.complex
            skx, sinv = x.skeleton, x.boundary.inv
            out = []
            for e in skx.link(self.base_vertex):
                at = [i for i, p in enumerate(self.parts)
                      if self._anchor[p] == e]
                if not at:
                    continue
                can = skx.orient(e)
                side = int(e != can)
                # each shown set -> the position of the part showing it
                position = {}
                for i in at:
                    mates = [self.partner[s] for s in self.parts[i]]
                    position[frozenset([sinv[s] for s in mates] if side
                                       else mates)] = i
                shown = {self.parts[i]: q for q, i in position.items()}
                rels = []
                for rel in (self.open_rel, self.closed_rel):
                    kept = ([shown[p] for p in cls if p in shown]
                            for cls in rel)
                    rels.append([cls for cls in kept if cls])
                order, _, _, key = _ordered("edge-block", x, can, position,
                                            *(rels[::-1] if side else rels))
                out.append((can, key, side,
                            tuple(map(position.__getitem__, order))))
            self._shadows = tuple(out)
        return self._shadows


def _join(pairs):
    """A union-find over the ends of the (u, v) pairs with each pair
    joined, and whether no pair closed a cycle: whether the pairs, as
    edges, make a forest."""
    ds = DisjointSets(itertools.chain.from_iterable(pairs))
    return ds, all([ds.union(u, v) for u, v in pairs])


def validate_vertex_block(b, predicate):
    """Per-condition report on a vertex block under a link predicate,
    'surface' or 'irreducible' (resolved through link_predicate);
    `valid` is the conjunction.

    immersive: distinct anchors within each upper-link component, so
    that the vertex the component becomes has at most one edge over
    each base edge.  This is a property of immersions, whatever the
    predicate.
    components_admissible: every upper-link component passes the
    predicate.  vertex_tree / edge_forest: shape of the two origami
    spaces with parts as edges, each a union-find (`_join`): the vertex
    space joins each part's upper-link component to its closed class,
    the edge space its open class to its closed class.
    no_open_separation: cutting any single part out of the vertex space
    never disconnects the components its open class touches
    (`origami.open_separation`).
    equal_image_same_component / component_constant_image: parts share
    an edge-space component exactly when they share an anchor; this is
    what lets the shadow of the block over an edge transport to the
    reversed edge without ambiguity.
    """
    report = {}
    comp = b.component_of
    anchors = b.anchors()

    report["immersive"] = _anchors_distinct(
        comp, [b.parts_at(e) for e in set(anchors.values())])
    report["components_admissible"] = bool(
        _passing(comp, b.partner, (link_predicate(predicate),)))

    parts = b.parts
    orep = _class_reps(b.open_rel)
    crep = _class_reps(b.closed_rel)
    vspace, forest = _join([(("V", comp[p]), ("C", crep[p])) for p in parts])
    report["vertex_tree"] = forest and len(vspace.classes()) == 1
    espace, report["edge_forest"] = _join(
        [(("O", orep[p]), ("C", crep[p])) for p in parts])
    report["no_open_separation"] = (
        open_separation(b.open_rel, comp, crep) is None)

    by_anchor = {}
    by_comp = {}
    for p in parts:
        c = espace.find(("O", orep[p]))
        by_anchor.setdefault(anchors[p], set()).add(c)
        by_comp.setdefault(c, set()).add(anchors[p])
    report["equal_image_same_component"] = all(
        len(s) == 1 for s in by_anchor.values())
    report["component_constant_image"] = all(
        len(s) == 1 for s in by_comp.values())

    report["valid"] = all(report.values())
    return report


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


def _set_partitions(items, lo=1, hi=None, spare=0):
    """All partitions of the list into classes of lo to hi items (hi
    None: no upper bound), deterministically: the first item opens its
    own class first, then joins each existing class in turn.

    Classes never grow past hi, and a partial partition is extended
    only while the items left to place, the first one and the `spare`
    ones the caller still puts in front of the list, can bring every
    class up to lo."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest, lo, hi, spare + 1):
        short = sum(max(0, lo - len(c)) for c in sub)
        if short + lo - 1 <= spare:
            yield [[head]] + sub
        for i, c in enumerate(sub):
            if ((hi is None or len(c) < hi)
                    and short - (len(c) < lo) <= spare):
                yield sub[:i] + [[head] + c] + sub[i + 1:]


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
            # n parts join n + 1 classes, so a forest is a tree
            orep, crep = _class_reps(po), _class_reps(pc)
            if _join([(("O", orep[p]), ("C", crep[p])) for p in plist])[1]:
                out.append((po, pc))
    return out


def _anchors_distinct(comp, over):
    """The immersion rule: no upper-link component (comp maps each part
    to its component) holds two parts of one group in `over`, the parts
    over one anchor each."""
    return all(len({comp[p] for p in ps}) == len(ps) for ps in over)


def _passing(comp, inv, conditions):
    """Indices of the conditions that every upper-link component passes.

    comp maps each part to its component and inv each corner to its
    reverse.  Each component's graph is built once, from its own parts
    alone, and every condition is tested on the same graphs."""
    members = {}
    for p, r in comp.items():
        members.setdefault(r, []).append(p)
    graphs = []
    for ps in members.values():
        at = {s: p for p in ps for s in p}
        graphs.append(SerreGraph(ps, at, {s: inv[s] for s in at}))
    return [k for k, c in enumerate(conditions)
            if all(map(c.test, graphs))]


def _loosest_bounds(conditions):
    """The part sizes some link condition accepts: the least of the
    lower valence bounds and the greatest of the upper ones."""
    his = [c.hi for c in conditions]
    return (min(c.lo for c in conditions),
            None if None in his else max(his))


def _fits(n, lo, hi):
    """Some partition of n items has every class of lo to hi items (hi
    None: no upper bound): the fewest classes, n over hi rounded up,
    hold at least lo items each."""
    return n >= (lo if hi is None else -(-n // hi) * lo)


def _blocks_at_vertex(x, v, conditions, limit, found):
    lk = vertex_link(x, v)
    budget = _Budget(v, limit)
    geoms = lk.geometric_edges()
    # A part is one upper-link vertex with an edge per corner, so its
    # size is its valence: parts no condition can accept are never
    # generated.
    lo, hi = _loosest_bounds(conditions)
    tree_cache = {}

    def fibre_options(per):
        if per not in tree_cache:
            tree_cache[per] = _fibre_trees(per, budget)
        return tree_cache[per]

    for size in range(1, len(geoms) + 1):
        for combo in itertools.combinations(geoms, size):
            budget.spend()
            edges = set(combo).union(lk.inv[g] for g in combo)
            # the fibres over the directions, in order: the link's
            # vertices are sorted, and so is the link of each
            fibres = [f for f in ([s for s in lk.link(a) if s in edges]
                                  for a in lk.vertices) if f]
            # a fibre no partition into lo..hi-corner parts fits leaves
            # the set no family: it costs this one node
            if not all(_fits(len(f), lo, hi) for f in fibres):
                continue
            per_fibre = []
            for fibre in fibres:
                opts = []
                for partition in _set_partitions(fibre, lo, hi):
                    budget.spend()
                    opts.append(tuple(frozenset(p) for p in partition))
                per_fibre.append(opts)
            # a family holds one partition per fibre, so its entries
            # are the parts over one anchor each
            for family in itertools.product(*per_fibre):
                budget.spend()
                parts = [p for per in family for p in per]
                comp = _component_map(parts, lk.inv)
                if not _anchors_distinct(comp, family):
                    continue
                passing = _passing(comp, lk.inv, conditions)
                if passing:
                    _assemble_relations(
                        x, v, family, parts, comp,
                        [found[k] for k in passing],
                        fibre_options, budget)


def _assemble_relations(x, v, family, parts, comp, targets,
                        fibre_options, budget):
    """Pick one (open, closed) tree pair per fibre so that the closed
    classes also chain the upper-link components into a tree.

    The vertex space of the classes picked so far is kept as one
    union-find, with nodes ("V", component) and ("C", first part of a
    closed class) and a union per part; an option whose unions close a
    cycle is dropped at once.  A forest on the components and the
    closed classes with one edge fewer than nodes is a tree, so every
    block emitted has a vertex tree.  targets holds the catalogue of
    each predicate the family passes."""
    comps = set(comp.values())
    target = len(parts) - len(comps) + 1
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

    def rec(i, closed_count, picked, forest):
        budget.spend()
        if i == nfib:
            if closed_count == target:
                _emit(x, v, parts, comp, picked, targets)
            return
        need = target - closed_count
        if not min_suffix[i] <= need <= max_suffix[i]:
            return
        for po, pc in options[i]:
            grown = forest.copy()
            if all(grown.union(("V", comp[p]), ("C", cls[0]))
                   for cls in pc for p in cls):
                rec(i + 1, closed_count + len(pc), picked + [(po, pc)],
                    grown)

    rec(0, 0, [], DisjointSets([("V", c) for c in comps]
                               + [("C", p) for p in parts]))
    # rec's closure holds rec itself, and through `targets` the
    # catalogues: clearing the name frees both now, not at the next
    # cyclic collection
    del rec


def _emit(x, v, parts, comp, picked, targets):
    """If no open class is separated (the one condition of
    validate_vertex_block the search leaves open), build the block once
    and file that one object in each target catalogue.  The test reads
    the picked classes and the family's components `comp`, so a block
    that fails it is never built or ranked."""
    open_rel = [cls for po, _ in picked for cls in po]
    closed_rel = [cls for _, pc in picked for cls in pc]
    if open_separation(open_rel, comp, _class_reps(closed_rel)) is None:
        b = VertexBlock(x, v, parts, open_rel, closed_rel)
        for catalogue in targets:
            catalogue[b.key] = b


# Search nodes a block search may visit per base vertex by default.
DEFAULT_BUDGET = 1_000_000


def enumerate_catalogues(x, predicates, max_candidates=DEFAULT_BUDGET):
    """Every predicate's vertex block catalogue over x, from one search.

    Returns one list per predicate ('surface' or 'irreducible'), in the
    order given, each sorted by canonical key and holding the blocks of
    that predicate; each list equals what enumerate_vertex_blocks
    returns for its predicate alone.  A block that two predicates admit
    is one object in both lists.  The search generates the parts within
    some predicate's valence bounds, builds each part family's upper-link
    component graphs once and tests every predicate on them, assembles
    relations once for a family that passes any predicate, and ranks
    each block it assembles once.  max_candidates bounds the search
    nodes per base vertex, as in enumerate_vertex_blocks, for the one
    search as a whole; with 'surface' and 'irreducible' it visits
    exactly the nodes of the irreducible search alone.
    """
    validate_complex(x)
    conditions = [link_predicate(p) for p in predicates]
    if not conditions:
        return []
    found = [{} for _ in conditions]
    for v in x.skeleton.vertices:
        _blocks_at_vertex(x, v, conditions, max_candidates, found)
    return [[f[k] for k in sorted(f)] for f in found]


def enumerate_vertex_blocks(x, predicate, max_candidates=DEFAULT_BUDGET):
    """Every vertex block class over x, sorted by canonical key: the
    one-predicate call of enumerate_catalogues.

    predicate: 'surface' or 'irreducible' (resolved through
    link_predicate).  max_candidates bounds, per base vertex, how many
    search nodes the enumeration may visit (corner sets, part families,
    relation partitions, assembly steps); past the bound
    EnumerationBudgetExceeded is raised rather than returning a
    silently truncated catalogue.  The predicate bounds the valence of
    link vertices (LINK_CONDITIONS), and a part's valence is its number
    of corners, so parts it cannot accept are never generated and do
    not count against max_candidates.  Every block is immersive,
    whatever the predicate: a part family that puts two parts over one
    anchor into one upper-link component is dropped as soon as its
    components are known, before any relation is chosen.

    Every block returned passes validate_vertex_block, but the search
    does not run it: each condition is decided once, where the module
    docstring says, and the assembled relations are checked only for an
    open class that separates, before the block is built.
    """
    return enumerate_catalogues(x, (predicate,), max_candidates)[0]


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
    branched immersion and the two legs compose back to phi.  The
    origami keeps its conditions and its quotient, so they are checked
    and built once however often it is factored through.
    """
    if omega.graph != phi.domain.skeleton:
        raise DomainMismatch("origami lives on a different graph")
    try:
        essential = omega.is_essential()
    except NotAnOrigami as err:
        raise IncompatibleOrigami(str(err)) from err
    if not essential:
        raise IncompatibleOrigami("origami is not essential")
    try:
        skel = compatible_skeleton_factor(omega, phi)
    except IncompatibleOrigami as err:
        raise IncompatibleOrigami(
            "origami is not compatible with the map") from err
    qcomplex, front = quotient_complex(phi.domain, omega)
    back = BranchedMap(qcomplex, phi.codomain, skel, phi.boundary_map)
    if not is_branched_immersion(back):
        raise VerificationFailed("the map out of the quotient is not a "
                                 "branched immersion")
    return QuotientFactorisation(omega, qcomplex, front, back)


def induced_vertex_block(fact, ubar):
    """Block cut out at one vertex of the quotient in a factorisation.

    Reads off, around every domain vertex over ubar, which base corners
    its link occupies and how they group into directions; the origami's
    open classes give the open relation and the open classes of the
    reversed edges give the closed one.
    """
    fact.quotient.skeleton.link(ubar)
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
        for a in filter(lku.link, lku.vertices):
            part = frozenset(back.boundary_map.emap[s] for s in lku.link(a))
            parts.append(part)
            open_groups.setdefault(fact.origami.open_rep(a), []).append(part)
            closed_groups.setdefault(closed[a], []).append(part)
    return VertexBlock(back.codomain, base, parts,
                       open_groups.values(), closed_groups.values())


def block_census(phi, omega, predicate):
    """Tally the induced vertex block at every quotient vertex.

    Returns {canonical block key: multiplicity}.  predicate: 'surface'
    or 'irreducible'.  The domain must pass the link condition at every
    vertex (NotPiComplex) and the origami must be essential and
    compatible (IncompatibleOrigami).  The factorisation reads the
    quotient the origami keeps.
    """
    test = link_predicate(predicate).test
    for u in phi.domain.skeleton.vertices:
        if not test(vertex_link(phi.domain, u)):
            raise NotPiComplex(f"link of {u!r} fails the predicate")
    fact = factor_through_origami(phi, omega)
    counts = {}
    for ubar in fact.quotient.skeleton.vertices:
        block = induced_vertex_block(fact, ubar)
        if not validate_vertex_block(block, predicate)["valid"]:
            raise VerificationFailed(
                f"the block induced at {ubar!r} is not valid")
        counts[block.key] = counts.get(block.key, 0) + 1
    return counts
