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
    enumerate_catalogues,
    enumerate_vertex_blocks,
)
from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    curvature_quantities,
    is_branched_immersion,
    link_predicate,
    validate_complex,
    vertex_link,
)
from .errors import (
    GluingMismatch,
    IncompatibleOrigami,
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
    area over oriented length, of the face it runs through, so a face
    adds its area times its corner count over its length."""
    x = b.complex
    count = {}
    for s in b.corner_edges:
        f = x.face_of_edge(s)
        count[f] = count.get(f, 0) + 1
    return sum((Fraction(n * x.area(f), x.face_length(f))
                for f, n in count.items()), Fraction(0))


def block_chi(b):
    """Euler contribution: component count of the upper link minus
    half the number of parts (one vertex per component, half an edge
    per direction)."""
    return (Fraction(len(set(b.component_of.values())))
            - Fraction(len(b.parts), 2))


class GluingRow(NamedTuple):
    """One equation: +1 per block inducing `shadow` over `edge`, -1 per
    block inducing the transported shadow over the reverse edge."""

    edge: object
    shadow: bytes
    coefficients: dict


class ConeSystem:
    """Catalogue, gluing rows, and functional rows for one base complex.

    variables are the canonical block keys, in catalogue order; each
    block's key is computed once, by its constructor, and its shadow
    keys once, by the block, however many cones it is in.  Rows are
    deduplicated: the equation over an edge and the negated one over
    its reverse are the same constraint, so only the canonical
    orientation is kept, and rows that cancel to zero are dropped.

    The cone keeps the LP problem `problem` builds first, so each row
    is cleared once however many senses are solved, and the realizers
    `extremize` builds, keyed by the exact integer vector, so each
    distinct optimum is reconstructed and verified once.
    """

    __slots__ = ("complex", "predicate", "blocks", "variables",
                 "gluing_rows", "area_row", "chi_row", "tau_row",
                 "_index", "_sides", "_problem", "_realizers")

    def __init__(self, x, predicate, blocks):
        self.complex = x
        self.predicate = predicate
        self.blocks = tuple(sorted(blocks, key=lambda b: b.key))
        self.variables = tuple(b.key for b in self.blocks)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate block classes")
        self._index = {k: i for i, k in enumerate(self.variables)}

        # (canonical edge, shadow key) -> (plus, minus) block indices:
        # blocks showing the shadow over the canonical orientation, and
        # blocks whose shadow over the reverse transports to it; each
        # block keys its shadows once, whatever cones it is in
        sides = {}
        for bi, b in enumerate(self.blocks):
            for can, key, side, _ in b.shadows():
                sides.setdefault((can, key), ([], []))[side].append(bi)
        self._sides = {k: sides[k] for k in
                       sorted(sides, key=lambda t: (sort_key(t[0]), t[1]))}
        rows = []
        for (can, key), (plus, minus) in self._sides.items():
            coeff = {}
            for bi in plus:
                coeff[self.variables[bi]] = coeff.get(self.variables[bi], 0) + 1
            for bi in minus:
                coeff[self.variables[bi]] = coeff.get(self.variables[bi], 0) - 1
            coeff = {k: v for k, v in coeff.items() if v}
            if coeff:
                rows.append(GluingRow(can, key, coeff))
        self.gluing_rows = tuple(rows)

        self.area_row = {b.key: block_area(b) for b in self.blocks}
        self.chi_row = {b.key: block_chi(b) for b in self.blocks}
        self.tau_row = {k: self.area_row[k] + self.chi_row[k]
                        for k in self.variables}
        self._problem = None
        self._realizers = {}

    def __repr__(self):
        return (f"ConeSystem({len(self.variables)} blocks, "
                f"{len(self.gluing_rows)} gluing rows)")

    def problem(self, sense):
        """The LP of kappa over the cone: the gluing rows equal to 0, the
        area row equal to 1, tau optimized in `sense`.  Every sense
        shares the rows of the first problem built, cleared once."""
        if self._problem is None:
            self._problem = LPProblem(
                self.variables,
                [(r.coefficients, 0) for r in self.gluing_rows]
                + [(self.area_row, 1)],
                self.tau_row, sense)
        return self._problem.with_sense(sense)

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


def build_cone(x, predicate, max_candidates=1_000_000):
    return ConeSystem(x, predicate,
                      enumerate_vertex_blocks(x, predicate, max_candidates))


def build_cones(x, predicates, max_candidates=1_000_000):
    """{predicate: cone} for each distinct predicate, all from one block
    search (blocks.enumerate_catalogues); max_candidates bounds that
    search per base vertex."""
    predicates = tuple(dict.fromkeys(predicates))
    catalogues = enumerate_catalogues(x, predicates, max_candidates)
    return {p: ConeSystem(x, p, blocks)
            for p, blocks in zip(predicates, catalogues)}


class RealizedComplex(NamedTuple):
    complex: BranchedComplex
    map: BranchedMap
    origami: Origami
    transcript: tuple


class _Local:
    """Per-block tables used while instantiating copies, built once per
    distinct block: `index` maps each part to its position and `at`
    each corner to the position of its part; `comp` and `anchor` list,
    by position, each part's upper-link component (as a position) and
    anchor, and `glue` maps each (canonical edge, side) of the block's
    shadows to the positions of the parts shown, in shadow-key order."""

    __slots__ = ("block", "index", "at", "comp", "anchor", "glue")

    def __init__(self, b):
        self.block = b
        self.index = index = {p: k for k, p in enumerate(b.parts)}
        self.at = {s: index[p] for p in b.parts for s in p}
        self.comp = [index[b.component_of[p]] for p in b.parts]
        anchor = b.anchors()
        self.anchor = [anchor[p] for p in b.parts]
        self.glue = {(can, side): positions
                     for can, _, side, positions in b.shadows()}


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
    sorted order, and each pair glues part by part in the shadows' key
    order (`VertexBlock.shadows`), which puts every part against its
    mate over the reverse edge.  The S-graph then closes up into circles
    on its own and the base face labels fix the areas.
    """
    x = cone.complex
    skx, sx = x.skeleton, x.boundary
    t = _integer_vector(cone, vector)

    # Copies of a block get consecutive instance indices, in catalogue
    # order, so mapping a side's block indices to their copies keeps the
    # copies sorted.
    copies = {}
    instances = []
    for bi, key in enumerate(cone.variables):
        if key in t:
            copies[bi] = range(len(instances), len(instances) + t[key])
            instances.extend([_Local(cone.blocks[bi])] * t[key])

    origin = {}
    for i, L in enumerate(instances):
        for pi, ci in enumerate(L.comp):
            origin[("d", i, pi)] = ("u", i, ci)

    # a gluing row is its plus side minus its minus side, so the vector
    # satisfies it exactly when the two sides have equally many copies
    inv = {}
    for (can, _), sides in cone._sides.items():
        plus, minus = ([i for bi in side for i in copies.get(bi, ())]
                       for side in sides)
        if len(plus) != len(minus):
            raise GluingMismatch(
                f"vector breaks the gluing row over {can!r}")
        for i, j in zip(plus, minus):
            for pi, qi in zip(instances[i].glue[can, 0],
                              instances[j].glue[can, 1]):
                inv[("d", i, pi)] = ("d", j, qi)
                inv[("d", j, qi)] = ("d", i, pi)
    if set(inv) != set(origin):
        raise ReconstructionFailed("some direction was never paired")

    gy = SerreGraph(origin.values(), origin, inv)

    sy_origin = {}
    sy_inv = {}
    vmap = {}
    emap = {}
    for i, L in enumerate(instances):
        partner = L.block.partner
        for s in L.at:
            mate = partner[s]
            q = ("q", i, ssorted([s, mate])[0])
            sy_origin[("s", i, s)] = q
            vmap[q] = ("u", i, L.comp[L.at[q[2]]])
            run = emap[("s", i, s)] = ("d", i, L.at[mate])
            j = inv[run][1]
            sbar = sx.inv[s]
            if sbar not in instances[j].at:
                raise ReconstructionFailed("reversed corner missing")
            sy_inv[("s", i, s)] = ("s", j, sbar)
    sy = SerreGraph(sy_origin.values(), sy_origin, sy_inv)
    attach = GraphMorphism(sy, gy, vmap, emap)

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
                      {v: instances[v[1]].block.base_vertex
                       for v in gy.vertices},
                      {d: instances[d[1]].anchor[d[2]] for d in gy.edges}),
        GraphMorphism(sy, sx,
                      {q: sx.origin[q[2]] for q in sy.vertices},
                      {s: s[2] for s in sy.edges}))

    classes = []
    for i, L in enumerate(instances):
        for cls in L.block.open_rel:
            classes.append([("d", i, L.index[p]) for p in cls])
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
    # The census factors the map through the quotient, which is the
    # compatibility check; the origami is essential by now, so an
    # IncompatibleOrigami from it means exactly "not compatible".  A
    # census class outside the catalogue cannot equal t, whose keys are
    # all catalogue keys.
    try:
        census = block_census(real.map, real.origami, cone.predicate)
    except IncompatibleOrigami:
        census = None
    step("origami is compatible", census is not None)
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


def require_positive_areas(x):
    """Raise ZeroAreaFace unless every face of x has positive area.

    Extremizing needs it, so callers check it before enumerating."""
    for f in x.faces():
        if x.area(f) == 0:
            raise ZeroAreaFace(f"face {f!r} has zero area")


def extremize(cone, sense, which=None):
    """Maximize or minimize kappa over a cone, with a verified realizer.

    Every face of the base complex needs positive area, which keeps the
    program bounded.  `which` names the report; by default "custom+" or
    "custom-".  A realizer the cone already holds for the same integer
    vector, reconstructed and verified against this cone, is reused.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    require_positive_areas(cone.complex)
    if which is None:
        which = "custom+" if sense == "max" else "custom-"
    empty = "-inf" if sense == "max" else "+inf"
    if not cone.blocks:
        return ExtremumReport(which, empty, None, None, None, cone, None)
    problem = cone.problem(sense)
    result = solve(problem)
    if result.status != "optimal":
        return ExtremumReport(which, empty, None, None, None, cone, result)
    if not check_solution(problem, result):
        raise VerificationFailed("the LP optimum fails check_solution")
    vector = {k: v for k, v in result.vertex.items() if v}
    integer = scale_to_integer(vector)
    seen = frozenset(integer.items())
    realizer = cone._realizers.get(seen)
    if realizer is None:
        realizer = cone._realizers[seen] = reconstruct(integer, cone)
    if cone.kappa_of(integer) != result.value:
        raise VerificationFailed("optimal value is not the realizer's kappa")
    return ExtremumReport(which, result.value, vector, integer,
                          realizer, cone, result)


def invariants(x, max_candidates=1_000_000):
    """The four curvature invariants of INVARIANTS, each with its realizer.

    rho+/rho- extremize over blocks whose links are irreducible,
    sigma+/sigma- over blocks whose links are circles; one block search
    (build_cones) yields both catalogues, and each cone's max and min
    share its LP rows and, when they land on the same integer vector,
    its realizer.
    """
    require_positive_areas(x)
    cones = build_cones(x, [predicate for predicate, _ in INVARIANTS.values()],
                        max_candidates)
    return {name: extremize(cones[predicate], sense, name)
            for name, (predicate, sense) in INVARIANTS.items()}
