"""Gluing cone over a block catalogue and the curvature extrema over it.

A mapped complex decomposes into vertex blocks, and the multiset of
blocks it uses is a nonnegative integer vector indexed by the
catalogue.  Such vectors are cut out by linear gluing equations: over
every oriented base edge, blocks showing a given shadow must pair off
with blocks showing the transported shadow on the reverse edge.  The
cone of all solutions carries exact rational Area and Euler rows, and
the curvature ratio kappa = (Area + chi)/Area is extremized over it by
the exact simplex.  Any integer solution can be turned back into an
actual complex, which is how optima are certified.
"""

from fractions import Fraction
from typing import NamedTuple

from .blocks import (
    block_census,
    canonical_block_key,
    enumerate_vertex_blocks,
    induced_edge_block,
    opposite_edge_block,
)
from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    curvature_quantities,
    is_branched_immersion,
    is_compatible_complex,
    link_predicate,
    validate_complex,
    vertex_link,
)
from .errors import (
    GluingMismatch,
    ReconstructionFailed,
    VerificationFailed,
    ZeroAreaFace,
)
from .origami import Origami
from .rational_lp import (
    LPProblem,
    check_solution,
    scale_to_integer,
    solve,
    to_fraction,
)
from .serre_graph import GraphMorphism, SerreGraph, sort_key, ssorted


def block_area(b):
    """Area a block contributes: each corner takes an equal share,
    area over oriented length, of the face it runs through."""
    x = b.complex
    total = Fraction(0)
    for s in b.corner_edges:
        f = x.face_of_edge(s)
        total += x.area(f) / x.face_length(f)
    return total


def block_chi(b):
    """Euler contribution: component count of the upper link minus
    half the number of parts (one vertex per component, half an edge
    per direction)."""
    return (Fraction(len(b.upper_link().components()))
            - Fraction(len(b.parts), 2))


def area_functional(blocks):
    return {canonical_block_key(b): block_area(b) for b in blocks}


def chi_functional(blocks):
    return {canonical_block_key(b): block_chi(b) for b in blocks}


class GluingRow(NamedTuple):
    """One equation: +1 per block inducing `shadow` over `edge`, -1 per
    block inducing the transported shadow over the reverse edge."""

    edge: object
    shadow: bytes
    coefficients: dict


class ConeSystem:
    """Catalogue, gluing rows, and functional rows for one base complex.

    variables are the canonical block keys, in catalogue order.  Rows
    are deduplicated: the equation over an edge and the negated one
    over its reverse are the same constraint, so only the canonical
    orientation is kept, and rows that cancel to zero are dropped.
    """

    __slots__ = ("complex", "predicate", "blocks", "variables",
                 "gluing_rows", "area_row", "chi_row", "tau_row",
                 "_index", "_shadows")

    def __init__(self, x, predicate, blocks):
        self.complex = x
        self.predicate = predicate
        self.blocks = tuple(sorted(blocks, key=canonical_block_key))
        self.variables = tuple(canonical_block_key(b) for b in self.blocks)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate block classes")
        self._index = {k: i for i, k in enumerate(self.variables)}

        skx = x.skeleton
        shadows = {}
        for bi, b in enumerate(self.blocks):
            for e in skx.link(b.base_vertex):
                g = induced_edge_block(b, e)
                if g.partition:
                    key = canonical_block_key(g)
                    bar = canonical_block_key(opposite_edge_block(g))
                    shadows[bi, e] = (g, key, bar)
        self._shadows = shadows

        sides = {}
        for (bi, e), (g, key, bar) in shadows.items():
            can = skx.orient(e)
            if e == can:
                sides.setdefault((can, key), ([], []))[0].append(bi)
            else:
                sides.setdefault((can, bar), ([], []))[1].append(bi)
        rows = []
        for can, key in sorted(sides, key=lambda t: (sort_key(t[0]), t[1])):
            plus, minus = sides[can, key]
            coeff = {}
            for bi in plus:
                coeff[self.variables[bi]] = coeff.get(self.variables[bi], 0) + 1
            for bi in minus:
                coeff[self.variables[bi]] = coeff.get(self.variables[bi], 0) - 1
            coeff = {k: v for k, v in coeff.items() if v}
            if coeff:
                rows.append(GluingRow(can, key, coeff))
        self.gluing_rows = tuple(rows)

        self.area_row = area_functional(self.blocks)
        self.chi_row = chi_functional(self.blocks)
        self.tau_row = {k: self.area_row[k] + self.chi_row[k]
                        for k in self.variables}

    def __repr__(self):
        return (f"ConeSystem({len(self.variables)} blocks, "
                f"{len(self.gluing_rows)} gluing rows)")

    def _dot(self, row, vector):
        for k in vector:
            if k not in self._index:
                raise ValueError("vector names an unknown block class")
        return sum((to_fraction(row.get(k, 0)) * to_fraction(v)
                    for k, v in vector.items()), Fraction(0))

    def area_of(self, vector):
        return self._dot(self.area_row, vector)

    def chi_of(self, vector):
        return self._dot(self.chi_row, vector)

    def tau_of(self, vector):
        return self._dot(self.tau_row, vector)

    def kappa_of(self, vector):
        a = self.area_of(vector)
        if a == 0:
            raise ValueError("kappa is undefined on the zero vector")
        return self.tau_of(vector) / a

    def contains(self, vector):
        """Nonnegative and on every gluing hyperplane."""
        if any(to_fraction(v) < 0 for v in vector.values()):
            return False
        return all(self._dot(r.coefficients, vector) == 0
                   for r in self.gluing_rows)


def build_cone(x, predicate, max_candidates=1_000_000):
    return ConeSystem(x, predicate,
                      enumerate_vertex_blocks(x, predicate, max_candidates))


def integer_cone_points(cone, max_total):
    """All nonzero integer cone points of coordinate sum <= max_total."""
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


class RealizedComplex(NamedTuple):
    complex: BranchedComplex
    map: BranchedMap
    origami: Origami
    transcript: tuple


class _Local:
    """Per-block tables used while instantiating copies."""

    __slots__ = ("block", "parts", "index", "at", "partner",
                 "comp_index", "anchor", "elem", "by_anchor", "lookup")

    def __init__(self, b):
        up = b.upper_link()
        self.block = b
        self.parts = ssorted(b.parts)
        self.index = {p: k for k, p in enumerate(self.parts)}
        self.at = {s: up.origin[s] for s in up.edges}
        self.partner = {s: up.inv[s] for s in up.edges}
        comp = up.component_map()
        self.comp_index = {p: self.index[comp[p]] for p in self.parts}
        self.anchor = b.anchors()
        self.elem = {p: frozenset(self.partner[s] for s in p)
                     for p in self.parts}
        self.by_anchor = {}
        for p in self.parts:
            self.by_anchor.setdefault(self.anchor[p], []).append(p)
        self.lookup = {e: {self.elem[p]: p for p in ps}
                       for e, ps in self.by_anchor.items()}


def _integer_vector(cone, vector):
    t = {}
    for k, v in vector.items():
        if k not in cone._index:
            raise ValueError("vector names an unknown block class")
        f = to_fraction(v)
        if f.denominator != 1 or f < 0:
            raise ValueError("reconstruction needs nonnegative integers")
        if f:
            t[k] = int(f)
    if not t:
        raise ValueError("the zero vector realizes no complex")
    return t


def reconstruct(vector, cone):
    """Build a complex, its map to the base, and its origami from an
    integer cone point, then re-verify everything.

    Copies of each block become skeleton vertices (one per upper-link
    component); their parts become oriented edges.  Over each geometric
    base edge, instances showing matching shadow classes are paired in
    sorted order, and parts glue to the unique reverse part whose
    element set is the boundary-reversal image of theirs.  The S-graph
    then closes up into circles on its own and the base face labels fix
    the areas.
    """
    x = cone.complex
    skx, sx = x.skeleton, x.boundary
    t = _integer_vector(cone, vector)
    for r in cone.gluing_rows:
        if cone._dot(r.coefficients, t) != 0:
            raise GluingMismatch(
                f"vector breaks the gluing row over {r.edge!r}")

    locals_ = {}
    instances = []
    for key in cone.variables:
        if key not in t:
            continue
        bi = cone._index[key]
        if bi not in locals_:
            locals_[bi] = _Local(cone.blocks[bi])
        for _ in range(t[key]):
            instances.append((bi, locals_[bi]))

    origin = {}
    for i, (bi, L) in enumerate(instances):
        for pi, p in enumerate(L.parts):
            origin[("d", i, pi)] = ("u", i, L.comp_index[p])

    groups = {}
    for i, (bi, L) in enumerate(instances):
        base_v = L.block.base_vertex
        for e in skx.link(base_v):
            if (bi, e) not in cone._shadows:
                continue
            g, key, bar = cone._shadows[bi, e]
            can = skx.orient(e)
            if e == can:
                groups.setdefault((can, key), ([], []))[0].append(i)
            else:
                groups.setdefault((can, bar), ([], []))[1].append(i)

    inv = {}
    for can, key in sorted(groups, key=lambda g: (sort_key(g[0]), g[1])):
        plus, minus = groups[can, key]
        if len(plus) != len(minus):
            raise GluingMismatch(
                f"unbalanced shadow class over {can!r}")
        ebar = skx.inv[can]
        for i, j in zip(plus, minus):
            li, lj = instances[i][1], instances[j][1]
            for p in li.by_anchor[can]:
                target = frozenset(sx.inv[s] for s in li.elem[p])
                q = lj.lookup[ebar].get(target)
                if q is None:
                    raise ReconstructionFailed(
                        "shadow elements fail to transport")
                inv[("d", i, li.index[p])] = ("d", j, lj.index[q])
                inv[("d", j, lj.index[q])] = ("d", i, li.index[p])
    if set(inv) != set(origin):
        raise ReconstructionFailed("some direction was never paired")

    gy = SerreGraph(sorted(set(origin.values()), key=sort_key), origin, inv)

    sy_origin = {}
    sy_inv = {}
    for i, (bi, L) in enumerate(instances):
        for s in L.at:
            mate = L.partner[s]
            sy_origin[("s", i, s)] = ("q", i, ssorted([s, mate])[0])
            run = L.at[mate]
            _, j, qi = inv[("d", i, L.index[run])]
            lj = instances[j][1]
            sbar = sx.inv[s]
            if sbar not in lj.at:
                raise ReconstructionFailed("reversed corner missing")
            sy_inv[("s", i, s)] = ("s", j, sbar)
    sy = SerreGraph(sorted(set(sy_origin.values()), key=sort_key),
                    sy_origin, sy_inv)

    attach = GraphMorphism(
        sy, gy,
        {q: ("u", q[1], instances[q[1]][1].comp_index[
            instances[q[1]][1].at[q[2]]])
         for q in sy.vertices},
        {s: ("d", s[1], instances[s[1]][1].index[
            instances[s[1]][1].at[instances[s[1]][1].partner[s[2]]]])
         for s in sy.edges})

    comp = sy.component_map()
    counts = {}
    sample = {}
    for edge in sy.edges:
        rep = comp[sy_origin[edge]]
        counts[rep] = counts.get(rep, 0) + 1
        sample.setdefault(rep, edge[2])
    areas = {}
    for rep in counts:
        f = x.face_of_edge(sample[rep])
        deg, rem = divmod(counts[rep], x.face_length(f))
        if rem:
            raise ReconstructionFailed("boundary circle does not cover"
                                       " the base face evenly")
        areas[rep] = deg * x.area(f)

    y = BranchedComplex(gy, sy, attach, areas)
    phi = BranchedMap(
        y, x,
        GraphMorphism(gy, skx,
                      {v: instances[v[1]][1].block.base_vertex
                       for v in gy.vertices},
                      {d: instances[d[1]][1].anchor[
                          instances[d[1]][1].parts[d[2]]]
                       for d in gy.edges}),
        GraphMorphism(sy, sx,
                      {q: sx.origin[q[2]] for q in sy.vertices},
                      {s: s[2] for s in sy.edges}))

    classes = []
    for i, (bi, L) in enumerate(instances):
        for cls in sorted(L.block.open_rel, key=sort_key):
            classes.append([("d", i, L.index[p]) for p in ssorted(cls)])
    omega = Origami(gy, classes)

    transcript = verify_realizer(RealizedComplex(y, phi, omega, ()), cone, t)
    return RealizedComplex(y, phi, omega, transcript)


def verify_realizer(real, cone, vector):
    """Re-check a realizer against the cone from scratch.

    Returns the transcript of checks performed; raises
    VerificationFailed on the first one that does not hold.
    """
    t = _integer_vector(cone, vector)
    y = real.complex
    done = []

    def step(name, ok):
        if not ok:
            raise VerificationFailed(name)
        done.append(name)

    validate_complex(y)
    done.append("complex validates")
    pred = link_predicate(cone.predicate)
    step("all links admissible",
         all(pred(vertex_link(y, u)) for u in y.skeleton.vertices))
    step("map is a branched immersion", is_branched_immersion(real.map))
    step("origami is essential", real.origami.is_essential())
    step("origami is compatible",
         is_compatible_complex(real.origami, real.map))
    census = block_census(real.map, real.origami, cone.predicate,
                          classes=cone.blocks)
    step("census equals the vector", census == t)
    q = curvature_quantities(y)
    step("area matches the functional", q.area == cone.area_of(t))
    step("euler characteristic matches the functional",
         q.chi == cone.chi_of(t))
    step("kappa matches the functional", q.kappa == cone.kappa_of(t))
    return tuple(done)


class ExtremumReport(NamedTuple):
    """Outcome of one extremization.

    value is an exact Fraction, or the string "-inf" (empty supremum)
    or "+inf" (empty infimum).  vector is the optimal LP vertex,
    integer_vector its smallest integer rescaling, realizer the
    verified complex achieving the value.
    """

    which: str
    value: object
    vector: object
    integer_vector: object
    realizer: object
    cone: ConeSystem
    lp: object


# Each invariant is one extremum over one catalogue: the name maps to
# its block predicate and the sense of the LP.
INVARIANTS = {"rho+": ("irreducible", "max"), "rho-": ("irreducible", "min"),
              "sigma+": ("surface", "max"), "sigma-": ("surface", "min")}


def extremize(cone, sense, which=None):
    """Maximize or minimize kappa over a cone, with a verified realizer.

    Every face of the base complex needs positive area, which keeps the
    program bounded.  `which` names the report; by default "custom+" or
    "custom-".
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    x = cone.complex
    for f in x.faces():
        if x.area(f) == 0:
            raise ZeroAreaFace(f"face {f!r} has zero area")
    if which is None:
        which = "custom+" if sense == "max" else "custom-"
    empty = "-inf" if sense == "max" else "+inf"
    if not cone.blocks:
        return ExtremumReport(which, empty, None, None, None, cone, None)
    problem = LPProblem(
        cone.variables,
        [(r.coefficients, 0) for r in cone.gluing_rows]
        + [(cone.area_row, 1)],
        cone.tau_row, sense)
    result = solve(problem)
    if result.status != "optimal":
        return ExtremumReport(which, empty, None, None, None, cone, result)
    if not check_solution(problem, result):
        raise VerificationFailed("the LP optimum fails check_solution")
    vector = {k: v for k, v in result.vertex.items() if v}
    integer = scale_to_integer(vector, reduce_gcd=True)
    realizer = reconstruct(integer, cone)
    if cone.kappa_of(integer) != result.value:
        raise VerificationFailed("optimal value is not the realizer's kappa")
    return ExtremumReport(which, result.value, vector, integer,
                          realizer, cone, result)


def invariants(x, max_candidates=1_000_000):
    """The four curvature invariants of INVARIANTS, each with its realizer.

    rho+/rho- extremize over blocks whose links are irreducible,
    sigma+/sigma- over blocks whose links are circles; each catalogue
    is enumerated once.
    """
    cones = {}
    out = {}
    for name, (predicate, sense) in INVARIANTS.items():
        if predicate not in cones:
            cones[predicate] = build_cone(x, predicate, max_candidates)
        out[name] = extremize(cones[predicate], sense, name)
    return out
