"""Block enumeration and induced-block censuses.

Reference values come from three independent directions: small
catalogues worked out by hand (the square and projective-plane
complexes force a single block; the alternating two-letter relator
forces exactly two), a brute-force search filtered only by the public
validator, and explicitly constructed mapped complexes whose induced
blocks are known.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv2x.blocks import (
    VertexBlock,
    _Budget,
    _class_reps,
    _fibre_trees,
    _fits,
    _set_partitions,
    block_census,
    enumerate_vertex_blocks,
    factor_through_origami,
    induced_vertex_block,
    validate_vertex_block,
)
from curv2x.branched_complex import (
    VALENCE_BOUNDS,
    BranchedComplex,
    BranchedMap,
    compose_branched,
    from_presentation,
    identity_branched_map,
    is_branched_immersion,
    vertex_link,
)
from curv2x.errors import (
    DomainMismatch,
    EnumerationBudgetExceeded,
    IncompatibleOrigami,
    NegativeArea,
    NotPiComplex,
    UnknownEdge,
    UnknownVertex,
    UnsuitablePredicate,
)
from curv2x.origami import Origami, trivial_origami
from curv2x.pipeline import ConeSystem
from curv2x.serre_graph import GraphMorphism, make_graph

from gen import (
    brute_force_blocks,
    components,
    disjoint_union_map,
    disjoint_union_origami,
    edge_link,
    edge_space,
    induced_edge_block,
    is_forest,
    is_tree,
    lower_link,
    opposite_edge_block,
    permutation_cover,
    projection,
    pullback_complex,
    reference_block_key,
    reference_edge_space,
    rgs_partitions,
    sized_partitions,
    unfiltered_vertex_blocks,
    upper_link,
    vertex_space,
)


def pp():
    return from_presentation("a", ["aa"])


def torus():
    return from_presentation("ab", ["abAB"])


def abab():
    return from_presentation("ab", ["abab"])


def a4():
    return from_presentation("a", ["aaaa"])


def genus2():
    return from_presentation("abcd", ["abABcdCD"])


def xy():
    # both letters once: the link is two disjoint arcs, so no predicate
    # accepts it and no block exists over it
    return from_presentation("xy", ["xy"])


def a4_split_block(x):
    """Hand-checked block over the 4th-power complex: both fibres split
    into the two even/odd pairs, joined on the open side over the
    positive direction and on the closed side over the negative one."""
    p1, p2 = frozenset({"S0.0", "S0.2"}), frozenset({"S0.1", "S0.3"})
    q1, q2 = frozenset({"s0.0", "s0.2"}), frozenset({"s0.1", "s0.3"})
    return VertexBlock(x, "v0", [p1, p2, q1, q2],
                       [[p1, p2], [q1], [q2]],
                       [[p1], [p2], [q1, q2]])


def a4_double_realizer():
    """One-face double cover of the 4th-power complex.

    Two vertices, the a-edges alternate, and the single square face
    reads a0 a1 a0 a1; collapsing the two a-edges is an essential
    compatible origami and the induced block is the split one.
    """
    x = a4()
    skel = make_graph(["u0", "u1"], [("a0", "A0", "u0", "u1"),
                                     ("a1", "A1", "u1", "u0")])
    sy = make_graph([f"q{i}" for i in range(4)],
                    [(f"t{i}", f"T{i}", f"q{i}", f"q{(i + 1) % 4}")
                     for i in range(4)])
    attach = GraphMorphism(sy, skel,
                           {"q0": "u0", "q1": "u1", "q2": "u0", "q3": "u1"},
                           {"t0": "a0", "T0": "A0", "t1": "a1", "T1": "A1",
                            "t2": "a0", "T2": "A0", "t3": "a1", "T3": "A1"})
    y = BranchedComplex(skel, sy, attach, {"q0": 1})
    phi = BranchedMap(
        y, x,
        GraphMorphism(skel, x.skeleton, {"u0": "v0", "u1": "v0"},
                      {"a0": "a", "A0": "A", "a1": "a", "A1": "A"}),
        GraphMorphism(sy, x.boundary,
                      {f"q{i}": f"p0.{i}" for i in range(4)},
                      {**{f"t{i}": f"s0.{i}" for i in range(4)},
                       **{f"T{i}": f"S0.{i}" for i in range(4)}}))
    return x, y, phi, Origami(skel, [["a0", "a1"]])


def abab_realizer():
    """Two-vertex complex over the alternating relator: the skeleton is
    a 2-cycle and the single square face reads c d c d; both links are
    2-circles, and the census picks up each catalogue block once."""
    x = abab()
    skel = make_graph(["u0", "u1"], [("c", "C", "u0", "u1"),
                                     ("d", "D", "u1", "u0")])
    sy = make_graph([f"q{i}" for i in range(4)],
                    [(f"t{i}", f"T{i}", f"q{i}", f"q{(i + 1) % 4}")
                     for i in range(4)])
    attach = GraphMorphism(sy, skel,
                           {"q0": "u0", "q1": "u1", "q2": "u0", "q3": "u1"},
                           {"t0": "c", "T0": "C", "t1": "d", "T1": "D",
                            "t2": "c", "T2": "C", "t3": "d", "T3": "D"})
    y = BranchedComplex(skel, sy, attach, {"q0": 1})
    phi = BranchedMap(
        y, x,
        GraphMorphism(skel, x.skeleton, {"u0": "v0", "u1": "v0"},
                      {"c": "a", "C": "A", "d": "b", "D": "B"}),
        GraphMorphism(sy, x.boundary,
                      {f"q{i}": f"p0.{i}" for i in range(4)},
                      {**{f"t{i}": f"s0.{i}" for i in range(4)},
                       **{f"T{i}": f"S0.{i}" for i in range(4)}}))
    return x, y, phi


def torus_double_cover():
    x = torus()
    cover, f = permutation_cover(x.skeleton, {"A": [1, 0], "B": [0, 1]})
    xhat, phi = pullback_complex(x, f)
    return x, xhat, phi


def full_fibre_block(cat):
    return next(b for b in cat
                if len(b.parts) == 2 and len(b.corner_edges) == 8)


def block_area(b):
    x = b.complex
    total = Fraction(0)
    for s in b.corner_edges:
        f = x.face_of_edge(s)
        total += x.area(f) / x.face_length(f)
    return total


def block_chi(b):
    return (Fraction(len(components(upper_link(b))))
            - Fraction(len(b.parts), 2))


def assert_census_identities(phi, counts, catalog):
    lookup = {b.key: b for b in catalog}
    area = sum((counts[k] * block_area(lookup[k]) for k in counts), Fraction(0))
    chi = sum((counts[k] * block_chi(lookup[k]) for k in counts), Fraction(0))
    sk = phi.domain.skeleton
    assert area == phi.domain.total_area()
    assert chi == len(sk.vertices) - len(sk.geometric_edges())


# -- Hand-frozen catalogues -------------------------------------------------

def test_pp_catalog():
    cat = enumerate_vertex_blocks(pp(), "surface")
    assert len(cat) == 1
    b = cat[0]
    assert b.parts == (frozenset({"S0.0", "S0.1"}),
                       frozenset({"s0.0", "s0.1"}))
    # one part per fibre leaves no relation choice: both discrete
    assert all(len(c) == 1 for c in b.open_rel)
    assert all(len(c) == 1 for c in b.closed_rel)
    assert validate_vertex_block(b, "surface")["valid"]


def test_torus_catalog():
    x = torus()
    cat = enumerate_vertex_blocks(x, "surface")
    assert len(cat) == 1
    b = cat[0]
    assert b.parts == (
        frozenset({"s0.0", "S0.0"}), frozenset({"s0.1", "S0.1"}),
        frozenset({"s0.2", "S0.2"}), frozenset({"s0.3", "S0.3"}))
    assert all(len(c) == 1 for c in b.open_rel)
    assert all(len(c) == 1 for c in b.closed_rel)
    # the upper link is the whole base link: a 4-circle
    assert lower_link(b) == vertex_link(x, "v0")
    up = upper_link(b)
    assert up.is_connected() and all(up.valence(p) == 2 for p in up.vertices)
    assert is_forest(edge_space(b))
    assert len(set(edge_space(b).component_sets().values())) == 4


def test_abab_catalog():
    cat = enumerate_vertex_blocks(abab(), "surface")
    assert len(cat) == 2
    part_sets = [b.parts for b in cat]
    assert (frozenset({"S0.0", "S0.2"}),
            frozenset({"s0.1", "s0.3"})) in part_sets
    assert (frozenset({"S0.1", "S0.3"}),
            frozenset({"s0.0", "s0.2"})) in part_sets


def test_genus2_catalog():
    cat = enumerate_vertex_blocks(genus2(), "surface")
    assert len(cat) == 1
    assert len(cat[0].parts) == 8
    assert all(len(p) == 2 for p in cat[0].parts)


def test_empty_catalogs():
    assert enumerate_vertex_blocks(xy(), "surface") == []
    assert enumerate_vertex_blocks(xy(), "irreducible") == []


def test_irreducible_equals_surface_on_doubled_letters():
    # fibres of size two cap every upper-link valence at two, so the
    # irreducible condition buys nothing on these complexes
    for make in (pp, torus, abab, genus2):
        x = make()
        surf = [b.key for b in enumerate_vertex_blocks(x, "surface")]
        irr = [b.key for b in enumerate_vertex_blocks(x, "irreducible")]
        assert surf == irr


def test_a4_catalog_sizes():
    x = a4()
    surf = enumerate_vertex_blocks(x, "surface")
    irr = enumerate_vertex_blocks(x, "irreducible")
    # 6 blocks supported on a two-corner pair plus 6 with full support
    assert len(surf) == 12
    assert len(irr) == 17
    surf_keys = {b.key for b in surf}
    assert surf_keys <= {b.key for b in irr}


def test_a4_two_edge_blocks_present():
    x = a4()
    keys = {b.key for b in enumerate_vertex_blocks(x, "surface")}
    for i in range(4):
        for j in range(i + 1, 4):
            parts = [frozenset({f"s0.{i}", f"s0.{j}"}),
                     frozenset({f"S0.{(i - 1) % 4}", f"S0.{(j - 1) % 4}"})]
            b = VertexBlock(x, "v0", parts,
                            [[p] for p in parts], [[p] for p in parts])
            assert validate_vertex_block(b, "surface")["valid"]
            assert b.key in keys


def test_a4_split_block_valid_and_enumerated():
    x = a4()
    b = a4_split_block(x)
    assert validate_vertex_block(b, "surface")["valid"]
    keys = {c.key for c in enumerate_vertex_blocks(x, "surface")}
    assert b.key in keys


def test_a4_joined_variant_is_rejected():
    # joining the open relation over one direction and keeping the
    # closed one discrete everywhere doubles an edge of the vertex
    # space: not a tree
    x = a4()
    p1, p2 = frozenset({"S0.0", "S0.2"}), frozenset({"S0.1", "S0.3"})
    q1, q2 = frozenset({"s0.0", "s0.2"}), frozenset({"s0.1", "s0.3"})
    b = VertexBlock(x, "v0", [p1, p2, q1, q2],
                    [[p1, p2], [q1, q2]],
                    [[p1], [p2], [q1], [q2]])
    report = validate_vertex_block(b, "surface")
    assert not report["vertex_tree"]
    assert not report["valid"]


def test_full_fibre_block_is_irreducible_only():
    x = a4()
    parts = [frozenset({f"s0.{i}" for i in range(4)}),
             frozenset({f"S0.{i}" for i in range(4)})]
    rels = [[p] for p in parts]
    b = VertexBlock(x, "v0", parts, rels, rels)
    assert validate_vertex_block(b, "irreducible")["valid"]
    report = validate_vertex_block(b, "surface")
    assert not report["components_admissible"]
    assert not report["valid"]


def test_open_class_across_components_separates():
    # over aaa, with every corner end its own part, the upper link has
    # the components C1 = {S0, s1}, C2 = {S1, s2} and C3 = {S2, s0},
    # each over both directions once, so the block is immersive.  In
    # the vertex space (a tree) C1 reaches C2 only along the parts S0,
    # S2, s0, s2, through the closed classes {S0, S2} and {s0, s2};
    # cutting S0 parts the components the open class {S0, S1} touches,
    # and only the separation condition fails
    x = from_presentation("a", ["aaa"])
    s0, s1, s2 = (frozenset({f"s0.{i}"}) for i in range(3))
    S0, S1, S2 = (frozenset({f"S0.{i}"}) for i in range(3))
    b = VertexBlock(x, "v0", [s0, s1, s2, S0, S1, S2],
                    [[s0, s1], [s2], [S0, S1], [S2]],
                    [[s0, s2], [s1], [S0, S2], [S1]])
    report = validate_vertex_block(
        b, lambda g: bool(g.edges) and g.is_connected())
    failed = {k for k, ok in report.items() if not ok}
    assert failed == {"no_open_separation", "valid"}


# -- Reference search -------------------------------------------------------

def test_brute_force_agrees():
    for make in (pp, torus, abab, xy):
        x = make()
        brute = brute_force_blocks(x, "surface")
        keys = [b.key for b in enumerate_vertex_blocks(x, "surface")]
        assert sorted(brute) == keys


def test_brute_force_agrees_under_a_custom_predicate():
    # the immersion rule belongs to no predicate: one that accepts every
    # connected link with an edge still gets immersive blocks only
    def connected(g):
        return bool(g.edges) and g.is_connected()

    for x in (from_presentation("a", ["aaa"]), abab()):
        keys = [b.key for b in enumerate_vertex_blocks(x, connected)]
        assert sorted(brute_force_blocks(x, connected)) == keys
        assert len(unfiltered_vertex_blocks(x, connected)) > len(keys)


# the bounds the block search uses (none for relation classes, the
# built-in predicates' valences for parts), then arbitrary ones
PART_BOUNDS = st.one_of(
    st.sampled_from([(1, None), *VALENCE_BOUNDS.values()]),
    st.integers(1, 4).flatmap(lambda lo: st.tuples(
        st.just(lo), st.none() | st.integers(lo, 5))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), unique=True, max_size=7), PART_BOUNDS)
def test_bounded_partitions_match_filtered_ones(items, bounds):
    assert list(_set_partitions(items, *bounds)) == \
        sized_partitions(items, *bounds)


def test_a_size_fits_exactly_when_some_bounded_partition_exists():
    """The search drops a corner set from its fibre sizes alone: a size
    fits its bounds exactly when the bounded generator yields some
    partition of that many items."""
    for n in range(1, 9):
        for lo in range(1, 5):
            for hi in (None, *range(lo, 6)):
                exists = any(True for _ in
                             _set_partitions(list(range(n)), lo, hi))
                assert _fits(n, lo, hi) == exists, (n, lo, hi)


def test_unbounded_partitions_are_all_partitions():
    for n in range(8):
        items = list(range(n))
        got = [sorted(map(sorted, p)) for p in _set_partitions(items)]
        want = [sorted(map(sorted, p)) for p in rgs_partitions(items)]
        assert sorted(got) == sorted(want)
        assert len(got) == len(want)


def test_fibre_trees_are_the_pairs_whose_edge_space_is_a_tree():
    """A fibre's (open, closed) options are exactly the partition pairs
    of its parts whose edge space, as a reference multigraph, is a
    tree; on fibres of one to five parts."""
    def shown(pair):
        return tuple(sorted(tuple(sorted(c)) for c in rel) for rel in pair)

    for n in range(1, 6):
        parts = list(range(n))
        got = _fibre_trees(parts, _Budget("v0", float("inf")))
        want = [(po, pc) for po in rgs_partitions(parts)
                for pc in rgs_partitions(parts)
                if is_tree(reference_edge_space(parts, _class_reps(po),
                                                _class_reps(pc)))]
        assert sorted(map(shown, got)) == sorted(map(shown, want))
        assert len(got) == len(want) > 0


def test_enumeration_sorted_deduplicated_and_valid():
    for make, pred in [(torus, "surface"), (a4, "surface"),
                       (a4, "irreducible"), (abab, "surface")]:
        x = make()
        cat = enumerate_vertex_blocks(x, pred)
        keys = [b.key for b in cat]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for b in cat:
            assert validate_vertex_block(b, pred)["valid"]
            # a tree alternating open and closed classes fixes the count
            comps = len(components(upper_link(b)))
            assert len(b.closed_rel) == len(b.parts) - comps + 1


def test_enumeration_insensitive_to_budget_when_complete():
    x = torus()
    small = enumerate_vertex_blocks(x, "surface", max_candidates=10 ** 4)
    big = enumerate_vertex_blocks(x, "surface", max_candidates=10 ** 7)
    assert [b.key for b in small] == [b.key for b in big]


def test_budget_exceeded():
    with pytest.raises(EnumerationBudgetExceeded) as info:
        enumerate_vertex_blocks(a4(), "surface", max_candidates=50)
    assert info.value.vertex == "v0"
    assert info.value.budget == 50


def test_enumerate_rejects_invalid_complex():
    x = pp()
    broken = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": -1})
    with pytest.raises(NegativeArea):
        enumerate_vertex_blocks(broken, "surface")


def test_custom_predicate_extends_surface_catalog():
    x = abab()

    def connected_with_edge(g):
        return bool(g.edges) and g.is_connected()

    cat = enumerate_vertex_blocks(x, connected_with_edge)
    keys = {b.key for b in cat}
    surf = {b.key for b in enumerate_vertex_blocks(x, "surface")}
    assert surf < keys


# -- Block data and constructor checks --------------------------------------

def test_block_equality_ignores_presentation_and_predicate():
    x = a4()
    b1 = a4_split_block(x)
    p1, p2 = frozenset({"S0.0", "S0.2"}), frozenset({"S0.1", "S0.3"})
    q1, q2 = frozenset({"s0.0", "s0.2"}), frozenset({"s0.1", "s0.3"})
    b2 = VertexBlock(x, "v0", [q2, q1, p2, p1],
                     [[q2], [p2, p1], [q1]],
                     [[q1, q2], [p2], [p1]])
    assert b1 == b2
    assert b1.key == b2.key


def test_vertex_block_constructor_errors():
    x = a4()
    ok = [frozenset({"s0.0", "s0.2"}), frozenset({"s0.1", "s0.3"}),
          frozenset({"S0.0", "S0.2"}), frozenset({"S0.1", "S0.3"})]
    rels = [[p] for p in ok]
    with pytest.raises(UnknownVertex):
        VertexBlock(x, "nope", ok, rels, rels)
    with pytest.raises(UnknownEdge):
        VertexBlock(x, "v0", [frozenset({"zz"})], [[frozenset({"zz"})]],
                    [[frozenset({"zz"})]])
    with pytest.raises(ValueError):  # corners over two different directions
        VertexBlock(x, "v0", [frozenset({"s0.0", "S0.0"})],
                    [[frozenset({"s0.0", "S0.0"})]],
                    [[frozenset({"s0.0", "S0.0"})]])
    with pytest.raises(ValueError):  # overlap
        bad = [frozenset({"s0.0", "s0.2"}), frozenset({"s0.0", "s0.1"})]
        VertexBlock(x, "v0", bad, [[p] for p in bad], [[p] for p in bad])
    with pytest.raises(ValueError):  # not closed under reversal
        VertexBlock(x, "v0", [frozenset({"s0.0", "s0.2"})],
                    [[frozenset({"s0.0", "s0.2"})]],
                    [[frozenset({"s0.0", "s0.2"})]])
    with pytest.raises(ValueError):  # relation missing a part
        VertexBlock(x, "v0", ok, rels[:3], rels)
    with pytest.raises(ValueError):  # relation with a foreign part
        VertexBlock(x, "v0", ok[:2] + ok[2:], rels,
                    rels[:3] + [[frozenset({"s0.0"})]])


def test_vertex_block_rejects_duplicated_input():
    # each duplicate would collapse into the clean block's data, key and
    # valid report, so the constructor rejects it instead
    x = torus()
    b = enumerate_vertex_blocks(x, "surface")[0]
    rels = [list(c) for c in b.open_rel]
    twice = [
        (b.parts + b.parts[:1], rels, rels),  # a part listed twice
        (b.parts, rels + rels[:1], rels),  # an open class listed twice
        (b.parts, rels, rels + rels[-1:]),  # a closed class listed twice
        (b.parts, [rels[0] * 2] + rels[1:], rels),  # twice in one class
    ]
    for parts, open_rel, closed_rel in twice:
        with pytest.raises(ValueError):
            VertexBlock(x, "v0", parts, open_rel, closed_rel)
    assert VertexBlock(x, "v0", b.parts, rels, rels) == b


def test_projection_and_spaces_structure():
    x = a4()
    b = a4_split_block(x)
    proj = projection(b)
    assert proj.is_immersion()  # corners map by identity
    assert set(proj.vmap.values()) == {"a", "A"}
    up = upper_link(b)
    assert len(up.vertices) == 4
    assert up.is_core()
    assert lower_link(b) == vertex_link(x, "v0")
    assert len(set(edge_space(b).component_sets().values())) == 2
    assert is_forest(vertex_space(b))


# -- Edge shadows -----------------------------------------------------------

def test_edge_shadow_roundtrips():
    # the cone keys each shadow over the canonical orientation of its
    # edge, so the shadow seen there is one of its sides' keys
    for make, pred in [(torus, "surface"), (abab, "surface"),
                       (a4, "surface")]:
        x = make()
        cone = ConeSystem(x, pred, enumerate_vertex_blocks(x, pred))
        for bi, b in enumerate(cone.blocks):
            for e in x.skeleton.link(b.base_vertex):
                g = induced_edge_block(b, e)
                assert g.support <= set(edge_link(x, e))
                assert len(g.partition) == len(b.parts_at(e))
                opp = opposite_edge_block(g)
                assert opp.base_edge == x.skeleton.inv[e]
                assert opposite_edge_block(opp) == g
                if not g.partition:
                    continue
                can = x.skeleton.orient(e)
                seen = g if e == can else opp
                plus, minus = cone._sides[(can, reference_block_key(seen))]
                assert bi in (plus if e == can else minus)


def test_a4_split_block_shadows_match():
    x = a4()
    b = a4_split_block(x)
    ga = induced_edge_block(b, "a")
    gA = induced_edge_block(b, "A")
    assert ga.support == frozenset({"s0.0", "s0.1", "s0.2", "s0.3"})
    assert opposite_edge_block(ga) == gA
    # the open join over the positive direction reappears as the closed
    # join of the transported shadow
    assert any(len(c) == 2 for c in ga.open_rel)
    assert all(len(c) == 1 for c in ga.closed_rel)
    assert all(len(c) == 1 for c in gA.open_rel)
    assert any(len(c) == 2 for c in gA.closed_rel)


def test_abab_shadows_match_across_blocks():
    x = abab()
    cat = enumerate_vertex_blocks(x, "surface")
    ba = next(b for b in cat if b.parts_at("a"))
    bA = next(b for b in cat if b.parts_at("A"))
    assert ba is not bA
    assert opposite_edge_block(induced_edge_block(ba, "a")) == \
        induced_edge_block(bA, "A")
    assert opposite_edge_block(induced_edge_block(bA, "b")) == \
        induced_edge_block(ba, "B")
    empty = induced_edge_block(ba, "A")
    assert empty.partition == frozenset()
    assert empty.support == frozenset()


# -- Factorisation through an origami quotient ------------------------------

def test_factorisation_of_the_double_realizer():
    x, y, phi, om = a4_double_realizer()
    fact = factor_through_origami(phi, om)
    assert fact.quotient.skeleton.vertices == ("u0",)
    assert len(fact.quotient.skeleton.geometric_edges()) == 1
    assert fact.quotient.total_area() == 1
    assert is_branched_immersion(fact.from_quotient)
    assert compose_branched(fact.from_quotient, fact.to_quotient) == phi


def test_factorisation_with_trivial_origami_changes_nothing():
    x, y, phi, _ = a4_double_realizer()
    fact = factor_through_origami(phi, trivial_origami(y.skeleton))
    assert fact.quotient == y
    assert fact.to_quotient.skeleton_map.vmap == \
        {v: v for v in y.skeleton.vertices}
    assert fact.from_quotient == phi


def test_factorisation_errors():
    x, y, phi, om = a4_double_realizer()
    with pytest.raises(DomainMismatch):
        factor_through_origami(phi, trivial_origami(x.skeleton))
    with pytest.raises(IncompatibleOrigami):  # not even an origami
        factor_through_origami(identity_branched_map(x),
                               Origami(x.skeleton, [["a", "A"]]))
    with pytest.raises(IncompatibleOrigami):  # origami but not essential
        z = xy()
        factor_through_origami(identity_branched_map(z),
                               Origami(z.skeleton, [["x", "y"]]))
    # essential but incompatible: collapsing the two a-edges of the
    # torus double cover leaves two b-loops at one vertex with the same
    # image, so the factored map is not an immersion
    _, xhat, psi = torus_double_cover()
    bad = Origami(xhat.skeleton, [[("a", 0), ("a", 1)]])
    assert bad.is_essential()
    with pytest.raises(IncompatibleOrigami):
        factor_through_origami(psi, bad)


# -- Censuses ---------------------------------------------------------------

def test_identity_census_single_block_bases():
    for make, pred in [(pp, "surface"), (torus, "surface"),
                       (genus2, "surface")]:
        x = make()
        cat = enumerate_vertex_blocks(x, pred)
        phi = identity_branched_map(x)
        counts = block_census(phi, trivial_origami(x.skeleton), pred)
        assert counts == {cat[0].key: 1}
        assert_census_identities(phi, counts, cat)


def test_identity_census_a4_irreducible():
    x = a4()
    cat = enumerate_vertex_blocks(x, "irreducible")
    phi = identity_branched_map(x)
    counts = block_census(phi, trivial_origami(x.skeleton), "irreducible")
    full = full_fibre_block(cat)
    assert counts == {full.key: 1}
    assert_census_identities(phi, counts, cat)


def test_census_of_the_double_realizer():
    x, y, phi, om = a4_double_realizer()
    cat = enumerate_vertex_blocks(x, "surface")
    counts = block_census(phi, om, "surface")
    assert counts == {a4_split_block(x).key: 1}
    assert_census_identities(phi, counts, cat)


def test_census_of_the_abab_realizer():
    x, y, phi = abab_realizer()
    cat = enumerate_vertex_blocks(x, "surface")
    counts = block_census(phi, trivial_origami(y.skeleton), "surface")
    assert counts == {b.key: 1 for b in cat}
    assert_census_identities(phi, counts, cat)


def test_census_of_the_torus_double_cover():
    x, xhat, phi = torus_double_cover()
    cat = enumerate_vertex_blocks(x, "surface")
    counts = block_census(phi, trivial_origami(xhat.skeleton), "surface")
    assert counts == {cat[0].key: 2}
    assert_census_identities(phi, counts, cat)


def test_census_additive_over_disjoint_unions():
    x, y, phi, om = a4_double_realizer()
    both = disjoint_union_map(phi, phi)
    bom = disjoint_union_origami(om, om, both.domain.skeleton)
    single = block_census(phi, om, "surface")
    assert block_census(both, bom, "surface") == \
        {k: 2 * v for k, v in single.items()}

    mixed = disjoint_union_map(phi, identity_branched_map(x))
    mom = disjoint_union_origami(om, trivial_origami(x.skeleton),
                                 mixed.domain.skeleton)
    cat = enumerate_vertex_blocks(x, "irreducible")
    counts = block_census(mixed, mom, "irreducible")
    full = full_fibre_block(cat)
    assert counts == {a4_split_block(x).key: 1, full.key: 1}
    assert_census_identities(mixed, counts, cat)


def test_census_on_a_two_vertex_base():
    _, y, _ = abab_realizer()
    cat = enumerate_vertex_blocks(y, "surface")
    assert len(cat) == 2
    assert {b.base_vertex for b in cat} == {"u0", "u1"}
    counts = block_census(identity_branched_map(y),
                          trivial_origami(y.skeleton), "surface")
    assert counts == {b.key: 1 for b in cat}


def test_census_errors():
    x = a4()
    with pytest.raises(NotPiComplex):  # the base link is not a circle
        block_census(identity_branched_map(x), trivial_origami(x.skeleton),
                     "surface")
    with pytest.raises(NotPiComplex):
        z = abab()
        block_census(identity_branched_map(z), trivial_origami(z.skeleton),
                     "surface")
    with pytest.raises(UnsuitablePredicate):
        z = xy()
        block_census(identity_branched_map(z), trivial_origami(z.skeleton),
                     lambda g: True)


def test_induced_block_unknown_vertex():
    x, y, phi, om = a4_double_realizer()
    fact = factor_through_origami(phi, om)
    with pytest.raises(UnknownVertex):
        induced_vertex_block(fact, "nope")


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_cover_censuses_land_in_the_catalog(data):
    base = data.draw(st.sampled_from(["pp", "torus"]))
    x = {"pp": pp, "torus": torus}[base]()
    n = data.draw(st.integers(1, 3))
    perms = {e: list(data.draw(st.permutations(range(n))))
             for e in x.skeleton.geometric_edges()}
    _, f = permutation_cover(x.skeleton, perms)
    xhat, phi = pullback_complex(x, f)
    cat = enumerate_vertex_blocks(x, "surface")
    counts = block_census(phi, trivial_origami(xhat.skeleton), "surface")
    assert counts == {cat[0].key: n}
    assert_census_identities(phi, counts, cat)
