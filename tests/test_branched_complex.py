"""Tests for branched 2-complexes, branched maps, folding, and quotients.

Frozen oracle values (recomputed by hand from the definitions):
  - presentation complex of <a,b | abAB>: one vertex, two geometric
    edges, one face of four corners; vertex link is a 4-cycle on the
    oriented edges {a, A, b, B}; Area=1, chi=-1, tau=0, kappa=0.
  - presentation complex of <a | aa>: vertex link is a 2-cycle on
    {a, A}; Area=1, chi=0, tau=1, kappa=1.
  - presentation complex of <a,b,c,d | abABcdCD>: link is an 8-cycle;
    Area=1, chi=-3, tau=-2, kappa=-2.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from gen import (
    components,
    edge_link,
    fibre_product,
    fold_complex,
    is_essential,
    is_origami,
    opposite_bijection,
    validate_branched_map,
)
from curv2x.branched_complex import (
    LINK_CONDITIONS,
    BranchedComplex,
    BranchedMap,
    compatible_skeleton_factor,
    compose_branched,
    curvature_quantities,
    from_presentation,
    identity_branched_map,
    is_branched_immersion,
    link_predicate,
    quotient_complex,
    to_fraction,
    validate_complex,
    vertex_link,
)
from curv2x.errors import (
    AreaMismatch,
    AttachingNotImmersion,
    AttachingNotImmersionAfterQuotient,
    BoundaryNotCircles,
    BoundaryNotImmersion,
    DomainMismatch,
    EmptyRelator,
    IncompatibleOrigami,
    InvalidMap,
    NegativeArea,
    NotAnOrigami,
    RelatorNotReduced,
    SquareNotCommuting,
    UnknownEdge,
    UnknownVertex,
)
from curv2x.origami import Origami, trivial_origami
from curv2x.serre_graph import (
    GraphMorphism,
    SerreGraph,
    cycle,
    identity_morphism,
    make_graph,
    rose,
    theta,
)

surface_link = LINK_CONDITIONS["surface"].test
irreducible_link = LINK_CONDITIONS["irreducible"].test


def torus():
    return from_presentation("ab", ["abAB"])


def projective_plane():
    return from_presentation("a", ["aa"])


def wrap_double():
    """Face of area 2 wrapping twice around the projective-plane face."""
    skel = rose("a")
    boundary = make_graph(
        [f"c{i}" for i in range(4)],
        [(f"e{i}", f"E{i}", f"c{i}", f"c{(i + 1) % 4}") for i in range(4)])
    attach = GraphMorphism(
        boundary, skel,
        {f"c{i}": "v0" for i in range(4)},
        dict({f"e{i}": "a" for i in range(4)},
             **{f"E{i}": "A" for i in range(4)}))
    y = BranchedComplex(skel, boundary, attach, {"c0": 2})
    x = projective_plane()
    bmap = GraphMorphism(
        boundary, x.boundary,
        {f"c{i}": f"p0.{i % 2}" for i in range(4)},
        dict({f"e{i}": f"s0.{i % 2}" for i in range(4)},
             **{f"E{i}": f"S0.{i % 2}" for i in range(4)}))
    return y, x, BranchedMap(y, x, identity_morphism(skel), bmap)


def doubled_edge_map():
    """Torus with its a-edge doubled (extra letter x), folding onto the
    torus; the single Stallings fold merging x into a is inessential."""
    y = from_presentation("axb", ["abXB"])
    x = torus()
    smap = GraphMorphism(
        y.skeleton, x.skeleton, {"v0": "v0"},
        {"a": "a", "A": "A", "x": "a", "X": "A", "b": "b", "B": "B"})
    bmap = GraphMorphism(
        y.boundary, x.boundary,
        {f"p0.{j}": f"p0.{j}" for j in range(4)},
        dict({f"s0.{j}": f"s0.{j}" for j in range(4)},
             **{f"S0.{j}": f"S0.{j}" for j in range(4)}))
    return y, x, BranchedMap(y, x, smap, bmap)


def two_faces_one_image():
    """Two loop faces on one skeleton loop, both mapping to the single
    face of <a | a>; the images agree, so folding merges them."""
    y = from_presentation("a", ["a", "a"])
    x = from_presentation("a", ["a"])
    bmap = GraphMorphism(
        y.boundary, x.boundary,
        {"p0.0": "p0.0", "p1.0": "p0.0"},
        {"s0.0": "s0.0", "S0.0": "S0.0", "s1.0": "s0.0", "S1.0": "S0.0"})
    return y, x, BranchedMap(y, x, identity_morphism(y.skeleton), bmap)


def collapse_skeleton_map():
    """Valid branched map whose skeleton morphism is not an immersion:
    the square torus face maps onto the <a | aa> face letterwise."""
    y = from_presentation("ab", ["ab"])
    x = projective_plane()
    smap = GraphMorphism(y.skeleton, x.skeleton, {"v0": "v0"},
                         {"a": "a", "A": "A", "b": "a", "B": "A"})
    bmap = GraphMorphism(
        y.boundary, x.boundary,
        {"p0.0": "p0.0", "p0.1": "p0.1"},
        {"s0.0": "s0.0", "S0.0": "S0.0", "s0.1": "s0.1", "S0.1": "S0.1"})
    return y, x, BranchedMap(y, x, smap, bmap)


def fp_branched_immersion(phi):
    """Independent check: skeleton immersion plus the boundary embedding
    into the fibre product of the skeleton map with the target attaching
    map."""
    if not phi.skeleton_map.is_immersion():
        return False
    P, _, _ = fibre_product(phi.skeleton_map, phi.codomain.attach)
    wY = phi.domain.attach
    vimg = [(wY.vmap[u], phi.boundary_map.vmap[u])
            for u in phi.domain.boundary.vertices]
    eimg = [(wY.emap[s], phi.boundary_map.emap[s])
            for s in phi.domain.boundary.edges]
    assert all(p in P._links for p in vimg)
    return (len(set(vimg)) == len(vimg) and len(set(eimg)) == len(eimg))


# construction and validation


def test_presentation_torus_counts():
    x = torus()
    assert x.skeleton.vertices == ("v0",)
    assert len(x.skeleton.geometric_edges()) == 2
    assert x.faces() == ["p0.0"]
    assert x.face_length("p0.0") == 8
    assert x.areas["p0.0"] == 1
    report = validate_complex(x)
    assert report["faces"] == 1 and report["total_area"] == 1


def test_presentation_errors():
    with pytest.raises(EmptyRelator):
        from_presentation("a", [""])
    with pytest.raises(RelatorNotReduced):
        from_presentation("a", ["aA"])
    # cyclic backtrack: the word ends with the inverse of its first letter
    with pytest.raises(RelatorNotReduced):
        from_presentation("ab", ["abA"])
    with pytest.raises(UnknownEdge):
        from_presentation("ab", ["ac"])
    # a single letter is cyclically reduced
    assert from_presentation("a", ["a"]).face_length("p0.0") == 2


def test_area_keys_normalized():
    x = torus()
    same = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.2": "1/1"})
    assert same.areas == {"p0.0": Fraction(1)}
    with pytest.raises(ValueError):
        BranchedComplex(x.skeleton, x.boundary, x.attach,
                        {"p0.0": 1, "p0.1": 1})
    with pytest.raises(ValueError):
        BranchedComplex(x.skeleton, x.boundary, x.attach, {})
    with pytest.raises(UnknownVertex):
        BranchedComplex(x.skeleton, x.boundary, x.attach, {"nope": 1})
    with pytest.raises(TypeError):
        BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": 0.5})
    negative = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": -1})
    with pytest.raises(NegativeArea):
        validate_complex(negative)


def test_boundary_not_circles():
    # a theta graph has two valence-3 vertices, so it is no circle
    skel = rose("pqr")
    t = theta()
    attach = GraphMorphism(t, skel, {"u": "v0", "v": "v0"},
                           {"p": "p", "P": "P", "q": "q", "Q": "Q",
                            "r": "r", "R": "R"})
    x = BranchedComplex(skel, t, attach, {"u": 1})
    with pytest.raises(BoundaryNotCircles):
        validate_complex(x)
    with pytest.raises(BoundaryNotCircles):
        vertex_link(x, "v0")


def test_attaching_not_immersion():
    # the backtracking word a a^-1 glued by hand (from_presentation
    # rejects it outright)
    skel = rose("a")
    boundary = make_graph(["c0", "c1"],
                          [("e0", "E0", "c0", "c1"), ("e1", "E1", "c1", "c0")])
    attach = GraphMorphism(boundary, skel, {"c0": "v0", "c1": "v0"},
                           {"e0": "a", "E0": "A", "e1": "A", "E1": "a"})
    x = BranchedComplex(skel, boundary, attach, {"c0": 1})
    with pytest.raises(AttachingNotImmersion):
        validate_complex(x)


def test_unknown_lookups():
    x = torus()
    with pytest.raises(UnknownVertex):
        vertex_link(x, "nope")
    with pytest.raises(UnknownEdge):
        edge_link(x, "nope")
    with pytest.raises(UnknownVertex):
        x.face_of("a")
    with pytest.raises(UnknownEdge):
        x.face_of_edge("a")
    with pytest.raises(UnknownVertex):
        x.area("v0")


# links


def test_torus_link_is_4_cycle():
    x = torus()
    link = vertex_link(x, "v0")
    assert link.vertices == ("A", "B", "a", "b")
    assert len(link.geometric_edges()) == 4
    # the terminus map of the link is the attaching map
    assert all(link.terminus(s) == x.attach.emap[s] for s in link.edges)
    assert surface_link(link) and irreducible_link(link)


def test_projective_plane_link_is_2_cycle():
    link = vertex_link(projective_plane(), "v0")
    assert link.vertices == ("A", "a")
    assert len(link.geometric_edges()) == 2
    assert surface_link(link)


def test_genus2_frozen():
    x = from_presentation("abcd", ["abABcdCD"])
    link = vertex_link(x, "v0")
    assert len(link.vertices) == 8
    assert surface_link(link)
    assert curvature_quantities(x) == (1, -3, -2, -2)


def test_link_of_vertex_without_faces():
    skel = rose("a")
    empty = SerreGraph([], {}, {})
    x = BranchedComplex(skel, empty, GraphMorphism(empty, skel, {}, {}), {})
    link = vertex_link(x, "v0")
    assert link.vertices == ("A", "a") and not link.edges
    assert curvature_quantities(x) == (0, 0, 0, None)


def test_edge_link_and_opposite():
    x = torus()
    assert edge_link(x, "a") == ["S0.2", "s0.0"]
    forward = opposite_bijection(x, "a")
    backward = opposite_bijection(x, "A")
    assert set(forward) == {"S0.2", "s0.0"}
    assert all(backward[v] == k for k, v in forward.items())
    y = from_presentation("ab", ["aa"])
    assert edge_link(y, "b") == []


def link_corpus():
    """Presentation complexes, the theta sphere, and a realizer with
    many vertices over one of them."""
    from curv2x.pipeline import build_cone, extremize
    from test_acceptance import theta_sphere

    base = from_presentation("ab", ["aaabbb"])
    realizer = extremize(build_cone(base, "irreducible"), "min").realizer
    assert len(realizer.complex.skeleton.vertices) == 4
    return [torus(), projective_plane(), base, theta_sphere(),
            from_presentation("ab", ["abAB", "aa"]),
            from_presentation("abcd", ["abABcdCD"]), realizer.complex]


def test_links_are_kept_and_match_the_scanning_reference():
    for x in link_corpus():
        for v in x.skeleton.vertices:
            link = vertex_link(x, v)
            assert link == gen.reference_vertex_link(x, v)
            assert vertex_link(x, v) is link
        for e in x.skeleton.edges:
            fibre = edge_link(x, e)
            assert fibre == gen.reference_edge_link(x, e)
            fibre.append("changed")
            assert edge_link(x, e) == gen.reference_edge_link(x, e)


def one_bad_vertex():
    """Skeleton vertex u carries a theta graph (two boundary vertices of
    valence 3), skeleton vertex w a circle of one edge."""
    skel = make_graph(["u", "w"],
                      [(x, x.upper(), "u", "u") for x in "pqr"]
                      + [("c", "C", "w", "w")])
    boundary = make_graph(["t0", "t1", "c0"],
                          [(x, x.upper(), "t0", "t1") for x in "pqr"]
                          + [("e0", "E0", "c0", "c0")])
    attach = GraphMorphism(boundary, skel,
                           {"t0": "u", "t1": "u", "c0": "w"},
                           {**{x: x for x in "pqrPQR"}, "e0": "c", "E0": "C"})
    return BranchedComplex(skel, boundary, attach, {"t0": 1, "c0": 1})


def test_a_bad_boundary_vertex_breaks_only_its_own_link():
    x = one_bad_vertex()
    for _ in range(2):
        with pytest.raises(BoundaryNotCircles):
            vertex_link(x, "u")
        with pytest.raises(BoundaryNotCircles):
            gen.reference_vertex_link(x, "u")
        assert vertex_link(x, "w") == gen.reference_vertex_link(x, "w")
        assert vertex_link(x, "w").vertices == ("C", "c")
    assert edge_link(x, "p") == gen.reference_edge_link(x, "p") == ["p"]
    assert edge_link(x, "c") == ["e0"]


def test_unknown_lookups_after_links_are_kept():
    x = torus()
    vertex_link(x, "v0")
    edge_link(x, "a")
    with pytest.raises(UnknownVertex):
        vertex_link(x, "nope")
    with pytest.raises(UnknownEdge):
        edge_link(x, "nope")
    with pytest.raises(UnknownVertex):
        vertex_link(x, "a")
    with pytest.raises(UnknownEdge):
        edge_link(x, "v0")


# branched maps


def test_identity_map_valid():
    x = torus()
    ident = identity_branched_map(x)
    assert ident.multiplicities == {"p0.0": 1}
    report = validate_branched_map(ident)
    assert report["faces"] == 1 and report["multiplicities"] == {"p0.0": 1}
    assert is_branched_immersion(ident) and is_essential(ident)


def test_wrap_double_area():
    y, x, phi = wrap_double()
    assert phi.multiplicities == {"c0": 2}
    assert validate_branched_map(phi)["multiplicities"] == {"c0": 2}
    # same map with the wrong area on the wrapping face
    bad = BranchedComplex(y.skeleton, y.boundary, y.attach, {"c0": 1})
    with pytest.raises(AreaMismatch):
        BranchedMap(bad, x, phi.skeleton_map, phi.boundary_map)


def test_square_not_commuting():
    x = torus()
    rotate = GraphMorphism(
        x.boundary, x.boundary,
        {f"p0.{j}": f"p0.{(j + 1) % 4}" for j in range(4)},
        dict({f"s0.{j}": f"s0.{(j + 1) % 4}" for j in range(4)},
             **{f"S0.{j}": f"S0.{(j + 1) % 4}" for j in range(4)}))
    with pytest.raises(SquareNotCommuting):
        BranchedMap(x, x, identity_morphism(x.skeleton), rotate)


def test_boundary_not_immersion():
    # fold the b-side of the square face back over the a-side
    y = from_presentation("ab", ["ab"])
    x = projective_plane()
    smap = GraphMorphism(y.skeleton, x.skeleton, {"v0": "v0"},
                         {"a": "a", "A": "A", "b": "A", "B": "a"})
    bmap = GraphMorphism(
        y.boundary, x.boundary,
        {"p0.0": "p0.0", "p0.1": "p0.1"},
        {"s0.0": "s0.0", "S0.0": "S0.0", "s0.1": "S0.0", "S0.1": "s0.0"})
    with pytest.raises(BoundaryNotImmersion):
        BranchedMap(y, x, smap, bmap)


def test_branched_map_wiring_errors():
    x, p = torus(), projective_plane()
    with pytest.raises(InvalidMap):
        BranchedMap(x, x, identity_morphism(p.skeleton),
                    identity_morphism(x.boundary))
    with pytest.raises(InvalidMap):
        BranchedMap(x, x, identity_morphism(x.skeleton),
                    identity_morphism(p.boundary))


def test_branched_immersion_skeleton_failure():
    _, _, phi = collapse_skeleton_map()
    assert validate_branched_map(phi)
    assert not is_branched_immersion(phi)


def test_branched_immersion_link_edge_failure():
    # two corners over the same skeleton vertex with one image
    _, _, phi = two_faces_one_image()
    assert phi.skeleton_map.is_immersion()
    assert not is_branched_immersion(phi)


def test_fp_cross_check():
    maps = [identity_branched_map(torus()), wrap_double()[2],
            doubled_edge_map()[2], two_faces_one_image()[2],
            collapse_skeleton_map()[2]]
    cover, f = gen.permutation_cover(torus().skeleton, {"A": [1, 0], "B": [0, 1]})
    maps.append(gen.pullback_complex(torus(), f)[1])
    for phi in maps:
        assert is_branched_immersion(phi) == fp_branched_immersion(phi)


# curvature


def test_curvature_frozen():
    assert curvature_quantities(torus()) == (1, -1, 0, 0)
    assert curvature_quantities(projective_plane()) == (1, 0, 1, 1)


def test_curvature_zero_area():
    x = torus()
    flat = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": 0})
    q = curvature_quantities(flat)
    assert q.area == 0 and q.tau == -1 and q.kappa is None


def test_standard_complex_tau_is_euler_characteristic():
    # with unit areas tau counts vertices - edges + faces
    for x in (torus(), projective_plane(), from_presentation("ab", ["ab", "ba"])):
        q = curvature_quantities(x)
        assert q.tau == (len(x.skeleton.vertices)
                         - len(x.skeleton.geometric_edges()) + len(x.faces()))


# folding


def test_fold_doubled_edge_recovers_torus():
    y, x, phi = doubled_edge_map()
    phi0, folded, phibar = fold_complex(phi)
    assert gen.induced_isomorphism(identity_morphism(folded.skeleton),
                                   phibar.skeleton_map) is not None
    assert len(folded.faces()) == 1
    assert folded.total_area() == 1
    assert folded.face_length(folded.faces()[0]) == 8
    assert is_branched_immersion(phibar)
    # the fold kills the doubled generator, so phi is not essential
    assert not is_essential(phi)


def test_fold_immersion_is_identity_shape():
    _, _, phi = wrap_double()
    x = phi.codomain
    phi0, folded, phibar = fold_complex(phi)
    assert len(folded.skeleton.vertices) == len(phi.domain.skeleton.vertices)
    # the wrapped square pushes down to a single copy of the target face
    assert len(folded.faces()) == 1
    assert folded.total_area() == 1
    assert phi0.multiplicities == {"c0": 2}
    assert phibar.multiplicities == {folded.faces()[0]: 1}
    # the boundary halves under folding, so the wrap map is not essential
    assert not is_essential(phi)


def test_fold_merges_equal_faces():
    y, x, phi = two_faces_one_image()
    phi0, folded, phibar = fold_complex(phi)
    assert len(y.faces()) == 2 and len(folded.faces()) == 1
    assert folded.total_area() == 1
    assert not is_essential(phi)


def test_fold_componentwise():
    skel = make_graph(["u", "v"], [("x", "X", "u", "u"), ("y", "Y", "v", "v")])
    boundary = make_graph(["pA", "pB"],
                          [("sA", "SA", "pA", "pA"), ("sB", "SB", "pB", "pB")])
    attach = GraphMorphism(boundary, skel, {"pA": "u", "pB": "v"},
                           {"sA": "x", "SA": "X", "sB": "y", "SB": "Y"})
    y = BranchedComplex(skel, boundary, attach, {"pA": 1, "pB": 1})
    x = from_presentation("a", ["a"])
    phi = BranchedMap(
        y, x,
        GraphMorphism(skel, x.skeleton, {"u": "v0", "v": "v0"},
                      {"x": "a", "X": "A", "y": "a", "Y": "A"}),
        GraphMorphism(boundary, x.boundary, {"pA": "p0.0", "pB": "p0.0"},
                      {"sA": "s0.0", "SA": "S0.0", "sB": "s0.0", "SB": "S0.0"}))
    phi0, folded, phibar = fold_complex(phi)
    assert len(components(folded.skeleton)) == 2
    assert len(folded.faces()) == 2
    assert is_essential(phi) and is_branched_immersion(phibar)


def test_fold_universal_property():
    # phi = psi . theta with psi a branched immersion; the folded middle
    # complex must factor uniquely through psi
    y, x, phi = doubled_edge_map()
    zskel = rose("cd")
    zbound = make_graph([f"t{j}" for j in range(4)],
                        [(f"u{j}", f"U{j}", f"t{j}", f"t{(j + 1) % 4}")
                         for j in range(4)])
    zword = ["c", "d", "C", "D"]
    zattach = GraphMorphism(
        zbound, zskel, {f"t{j}": "v0" for j in range(4)},
        dict({f"u{j}": zword[j] for j in range(4)},
             **{f"U{j}": zskel.inv[zword[j]] for j in range(4)}))
    z = BranchedComplex(zskel, zbound, zattach, {"t0": 1})
    rename = {"c": "a", "C": "A", "d": "b", "D": "B"}
    psi = BranchedMap(
        z, x,
        GraphMorphism(zskel, x.skeleton, {"v0": "v0"}, rename),
        GraphMorphism(zbound, x.boundary,
                      {f"t{j}": f"p0.{j}" for j in range(4)},
                      dict({f"u{j}": f"s0.{j}" for j in range(4)},
                           **{f"U{j}": f"S0.{j}" for j in range(4)})))
    assert is_branched_immersion(psi)
    word = ["a", "b", "X", "B"]
    zword_for = {"a": "c", "x": "c", "b": "d"}
    theta_map = BranchedMap(
        y, z,
        GraphMorphism(y.skeleton, zskel, {"v0": "v0"},
                      {e: (zword_for[e] if e == e.lower()
                           else zskel.inv[zword_for[e.lower()]])
                       for e in y.skeleton.edges}),
        GraphMorphism(y.boundary, zbound,
                      {f"p0.{j}": f"t{j}" for j in range(4)},
                      dict({f"s0.{j}": f"u{j}" for j in range(4)},
                           **{f"S0.{j}": f"U{j}" for j in range(4)})))
    assert compose_branched(psi, theta_map) == phi
    phi0, folded, phibar = fold_complex(phi)
    # build the factor from theta by pushing through phi0; every value
    # must be independent of the chosen preimage
    hv, he = {}, {}
    for v in y.skeleton.vertices:
        img = phi0.skeleton_map.vmap[v]
        assert hv.setdefault(img, theta_map.skeleton_map.vmap[v]) \
            == theta_map.skeleton_map.vmap[v]
    for e in y.skeleton.edges:
        img = phi0.skeleton_map.emap[e]
        assert he.setdefault(img, theta_map.skeleton_map.emap[e]) \
            == theta_map.skeleton_map.emap[e]
    bv, be = {}, {}
    for u in y.boundary.vertices:
        img = phi0.boundary_map.vmap[u]
        assert bv.setdefault(img, theta_map.boundary_map.vmap[u]) \
            == theta_map.boundary_map.vmap[u]
    for s in y.boundary.edges:
        img = phi0.boundary_map.emap[s]
        assert be.setdefault(img, theta_map.boundary_map.emap[s]) \
            == theta_map.boundary_map.emap[s]
    factor = BranchedMap(folded, z,
                         GraphMorphism(folded.skeleton, zskel, hv, he),
                         GraphMorphism(folded.boundary, zbound, bv, be))
    assert compose_branched(psi, factor) == phibar
    assert compose_branched(factor, phi0) == theta_map
    # uniqueness: psi is invertible here, so the factor is forced
    inverse = BranchedMap(
        x, z,
        GraphMorphism(x.skeleton, zskel, {"v0": "v0"},
                      {v: k for k, v in rename.items()}),
        GraphMorphism(x.boundary, zbound,
                      {f"p0.{j}": f"t{j}" for j in range(4)},
                      dict({f"s0.{j}": f"u{j}" for j in range(4)},
                           **{f"S0.{j}": f"U{j}" for j in range(4)})))
    assert compose_branched(inverse, phibar) == factor


# quotients


def test_quotient_trivial_is_identity():
    y = torus()
    res = quotient_complex(y, trivial_origami(y.skeleton))
    assert res.quotient == y
    assert res.q.multiplicities == {"p0.0": 1}
    assert is_essential(res.q)


def test_quotient_identifies_loops():
    # identify the two loops under the face xy; the result is the
    # projective-plane complex and q folds the vertex link 2-to-1
    y = from_presentation("xy", ["xy"])
    om = Origami(y.skeleton, [["x", "y"]])
    assert is_origami(om) and not om.is_essential()
    res = quotient_complex(y, om)
    assert validate_complex(res.quotient)
    assert curvature_quantities(res.quotient) == (1, 0, 1, 1)
    assert res.quotient.boundary == y.boundary
    assert not is_branched_immersion(res.q)
    assert not is_essential(res.q)


def test_quotient_attach_can_backtrack():
    # same origami under the face x y^-1: after the quotient the face
    # word becomes x x^-1
    y = from_presentation("xy", ["xY"])
    om = Origami(y.skeleton, [["x", "y"]])
    with pytest.raises(AttachingNotImmersionAfterQuotient):
        quotient_complex(y, om)


def test_quotient_preconditions():
    y = torus()
    with pytest.raises(NotAnOrigami):
        quotient_complex(y, Origami(y.skeleton, [["a", "A"]]))
    with pytest.raises(DomainMismatch):
        quotient_complex(y, trivial_origami(rose("xy")))


def test_quotient_essential_origami_gives_essential_q():
    # skeleton: a1, a2 from v0 to m1, m2 and a bridge c; identifying
    # a1 ~ a2 is an essential origami (the quotient is a homotopy
    # equivalence) and the face data is untouched
    skel = make_graph(
        ["v0", "m1", "m2"],
        [("a1", "A1", "v0", "m1"), ("a2", "A2", "v0", "m2"),
         ("c", "G", "m1", "m2"), ("b", "B", "v0", "v0")])
    word = ["a1", "c", "A2", "b"]
    boundary = make_graph(
        [f"p{j}" for j in range(4)],
        [(f"s{j}", f"S{j}", f"p{j}", f"p{(j + 1) % 4}") for j in range(4)])
    wverts = {"p0": "v0", "p1": "m1", "p2": "m2", "p3": "v0"}
    attach = GraphMorphism(
        boundary, skel, wverts,
        dict({f"s{j}": word[j] for j in range(4)},
             **{f"S{j}": skel.inv[word[j]] for j in range(4)}))
    y = BranchedComplex(skel, boundary, attach, {"p0": "3/2"})
    om = Origami(skel, [["a1", "a2"]])
    assert om.is_essential()
    res = quotient_complex(y, om)
    assert validate_complex(res.quotient)
    assert res.quotient.boundary == y.boundary
    assert res.quotient.areas == {"p0": Fraction(3, 2)}
    assert is_essential(res.q)
    compatible_skeleton_factor(om, res.q)


def test_quotient_componentwise_loops():
    # two one-faced components glued into one by an essential origami
    skel = make_graph(["u", "v"], [("x", "X", "u", "u"), ("y", "Y", "v", "v")])
    boundary = make_graph(["pA", "pB"],
                          [("sA", "SA", "pA", "pA"), ("sB", "SB", "pB", "pB")])
    attach = GraphMorphism(boundary, skel, {"pA": "u", "pB": "v"},
                           {"sA": "x", "SA": "X", "sB": "y", "SB": "Y"})
    y = BranchedComplex(skel, boundary, attach, {"pA": 1, "pB": 1})
    om = Origami(skel, [["x", "y"]])
    assert om.is_essential()
    res = quotient_complex(y, om)
    assert len(res.quotient.skeleton.vertices) == 1
    assert len(res.quotient.skeleton.geometric_edges()) == 1
    assert len(res.quotient.faces()) == 2
    assert is_essential(res.q)


# compatibility


def test_compat_trivial_with_branched_immersion():
    x = torus()
    compatible_skeleton_factor(trivial_origami(x.skeleton),
                               identity_branched_map(x))


def test_compat_condition_iv_violated():
    # the skeleton part is compatible with the trivial origami, but two
    # boundary vertices share an image over one vertex-space component
    y, x, phi = two_faces_one_image()
    with pytest.raises(IncompatibleOrigami):
        compatible_skeleton_factor(trivial_origami(y.skeleton), phi)


def test_compat_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compatible_skeleton_factor(trivial_origami(rose("z")),
                                   identity_branched_map(torus()))


# link predicates


def test_link_predicates_frozen():
    assert list(LINK_CONDITIONS) == ["surface", "irreducible"]
    assert (surface_link, 2, 2) == link_predicate("surface")
    assert (irreducible_link, 2, None) == link_predicate("irreducible")
    surf, irr = surface_link, irreducible_link
    assert surf(cycle(4)) and irr(cycle(4))
    assert surf(cycle(1)) and not irr(cycle(1))
    assert not surf(theta()) and irr(theta())
    lonely = SerreGraph(["v"], {}, {})
    assert not surf(lonely) and not irr(lonely)
    two = make_graph(["u", "v"], [("x", "X", "u", "u"), ("y", "Y", "v", "v")])
    assert not surf(two) and not irr(two)


def test_link_predicate_takes_only_a_name():
    for value in ("nonsense", "Surface", "builtin:surface", None,
                  surface_link, LINK_CONDITIONS["surface"], lambda g: True):
        with pytest.raises(ValueError, match="unknown link predicate"):
            link_predicate(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(gen.serre_graphs(), st.integers(1, 6).map(cycle)))
def test_an_accepted_link_has_every_valence_within_the_bounds(g):
    # the block search generates only parts of a size within some
    # condition's bounds, which loses nothing only while this holds
    for name, (test, lo, hi) in LINK_CONDITIONS.items():
        if test(g):
            valences = {g.valence(v) for v in g.vertices}
            assert lo <= min(valences), name
            assert hi is None or max(valences) <= hi, name


def test_to_fraction():
    assert to_fraction("2/3") == Fraction(2, 3)
    assert to_fraction(4) == Fraction(4)
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        to_fraction(True)
    with pytest.raises(TypeError):
        to_fraction(None)


# covers


def test_double_cover_of_torus():
    x = torus()
    cover, f = gen.permutation_cover(x.skeleton, {"A": [1, 0], "B": [0, 1]})
    xhat, proj = gen.pullback_complex(x, f)
    assert validate_complex(xhat)
    assert validate_branched_map(proj)
    assert is_branched_immersion(proj) and is_essential(proj)
    assert xhat.total_area() == 2
    q, qhat = curvature_quantities(x), curvature_quantities(xhat)
    assert qhat.area == 2 * q.area and qhat.chi == 2 * q.chi
    assert qhat.kappa == q.kappa


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3),
       st.sampled_from(["torus", "pp", "mixed"]))
def test_cover_curvature_scaling(seed, degree, which):
    rng = random.Random(seed)
    if which == "torus":
        x = torus()
    elif which == "pp":
        x = projective_plane()
    else:
        x = from_presentation("ab", ["ab", "aabb"])
    cover, f = gen.random_permutation_cover(rng, x.skeleton, degree)
    xhat, proj = gen.pullback_complex(x, f)
    assert validate_complex(xhat)
    assert is_branched_immersion(proj)
    assert is_essential(proj)
    assert is_branched_immersion(proj) == fp_branched_immersion(proj)
    q, qhat = curvature_quantities(x), curvature_quantities(xhat)
    assert qhat.area == degree * q.area
    assert qhat.chi == degree * q.chi
    assert qhat.tau == degree * q.tau
    assert qhat.kappa == q.kappa
    # folding a branched immersion changes nothing
    _, folded, _ = fold_complex(proj)
    assert len(folded.faces()) == len(xhat.faces())
    assert folded.total_area() == xhat.total_area()
