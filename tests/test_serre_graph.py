import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from gen import (
    NotFoldable,
    betti_numbers,
    components,
    core_of,
    fibre_product,
    fold,
    subgraph,
    unfold_graph,
)
import curv2x.serre_graph
from curv2x.errors import (
    DomainNotConnected,
    DomainNotCore,
    FixedPointInvolution,
    InvalidMap,
    NonInvolutive,
    UnknownEdge,
    UnknownVertex,
)
from curv2x.serre_graph import (
    DisjointSets,
    GraphMorphism,
    SerreGraph,
    compose,
    cycle,
    identity_morphism,
    make_graph,
    pi1_injective_oracle,
    rose,
    sort_key,
    stallings_fold,
    theta,
)


def test_rose_structure():
    g = rose(2)
    assert g.vertices == ("v0",)
    assert set(g.edges) == {"a", "A", "b", "B"}
    assert g.inv["a"] == "A" and g.inv["B"] == "b"
    assert g.origin["a"] == "v0" and g.terminus("a") == "v0"
    assert g.valence("v0") == 4
    assert betti_numbers(g) == (2, {"v0": 2})
    assert g.is_core() and g.is_connected()


def test_cycle_structure():
    for n in (1, 2, 5):
        g = cycle(n)
        assert len(g.vertices) == n
        assert len(g.geometric_edges()) == n
        assert all(g.valence(v) == 2 for v in g.vertices)
        assert betti_numbers(g)[0] == 1
        assert g.is_core()
    g = cycle(3)
    assert g.terminus("e0") == "c1" and g.terminus("e2") == "c0"


def test_theta_structure():
    g = theta()
    assert len(g.vertices) == 2
    assert len(g.geometric_edges()) == 3
    assert g.valence("u") == 3 == g.valence("v")
    # two independent cycles through the three strands
    assert betti_numbers(g) == (2, {"u": 2})


def test_graph_validation_errors():
    with pytest.raises(FixedPointInvolution):
        SerreGraph(["v"], {"e": "v"}, {"e": "e"})
    with pytest.raises(NonInvolutive):
        SerreGraph(["v"], {"e": "v", "f": "v"}, {"e": "f", "f": "e", "g": "e"})
    with pytest.raises(NonInvolutive):
        SerreGraph(["v"], {"e": "v", "f": "v", "g": "v"}, {"e": "f", "f": "g", "g": "e"})
    with pytest.raises(UnknownVertex):
        make_graph(["v"], [("e", "E", "v", "w")])
    with pytest.raises(NonInvolutive):
        make_graph(["v"], [("e", "E", "v", "v"), ("e", "F", "v", "v")])


def test_link_and_unknown_lookups():
    g = theta()
    assert g.link("u") == ("p", "q", "r")
    assert g.link("v") == ("P", "Q", "R")
    with pytest.raises(UnknownVertex):
        g.link("w")
    with pytest.raises(UnknownEdge):
        g.check_edge("z")


def test_sort_key_mixed_ids():
    items = ["b", 2, ("x", 1), 1, "a", frozenset([1, 2])]
    assert sorted(items, key=sort_key) == [1, 2, "a", "b", ("x", 1), frozenset([1, 2])]
    with pytest.raises(TypeError):
        sort_key(True)
    with pytest.raises(TypeError):
        sort_key(1.5)


def test_union_find_never_orders(monkeypatch):
    # roots are labels: merging, finding and listing classes compare no ids
    def refuse(x):
        raise AssertionError("sort_key called")

    monkeypatch.setattr(curv2x.serre_graph, "sort_key", refuse)
    items = [frozenset(), frozenset({1}), frozenset({"a", 2}),
             frozenset({("x", 1)}), frozenset({3})]
    ds = DisjointSets(items)
    assert ds.union(items[4], items[1])
    assert ds.union(items[2], items[4])
    assert not ds.union(items[1], items[2])
    assert ds.find(items[1]) == ds.find(items[2]) != ds.find(items[0])
    assert ds.classes() == [(items[0],), (items[1], items[2], items[4]),
                            (items[3],)]


def test_components_and_betti_disconnected():
    g = make_graph(
        ["x", "y", "z", "w"],
        [("p", "P", "x", "y"), ("q", "Q", "x", "y"), ("r", "R", "z", "z")],
    )
    comps = components(g)
    assert comps == [("w",), ("x", "y"), ("z",)]
    total, per = betti_numbers(g)
    assert total == 2
    assert per == {"x": 1, "z": 1, "w": 0}


def test_core_of_strips_trees_and_isolated():
    # lollipop: triangle with a two-edge tail; tail must go, b1 must not
    g = make_graph(
        ["c0", "c1", "c2", "t1", "t2"],
        [
            ("e0", "E0", "c0", "c1"),
            ("e1", "E1", "c1", "c2"),
            ("e2", "E2", "c2", "c0"),
            ("f0", "F0", "c0", "t1"),
            ("f1", "F1", "t1", "t2"),
        ],
    )
    c = core_of(g)
    assert set(c.vertices) == {"c0", "c1", "c2"}
    assert len(c.geometric_edges()) == 3
    assert c.is_core()
    assert betti_numbers(c)[0] == betti_numbers(g)[0] == 1
    # a bare segment cores to the empty graph
    seg = make_graph(["x", "y"], [("e", "E", "x", "y")])
    empty = core_of(seg)
    assert empty.vertices == () and empty.edges == ()
    assert empty.is_core()


def test_fold_inessential_on_rose():
    g = rose(2)
    fd = fold(g, "a", "b")
    assert not fd.essential
    assert fd.merged_edge == "a" and fd.merged_vertex is None
    assert set(fd.after.edges) == {"a", "A"}
    assert betti_numbers(fd.after)[0] == 1
    assert fd.projection.emap["b"] == "a" and fd.projection.emap["B"] == "A"


def test_fold_essential_merges_termini():
    g = make_graph(
        ["u", "v1", "v2"],
        [("p", "P", "u", "v1"), ("q", "Q", "u", "v2")],
    )
    fd = fold(g, "q", "p")  # argument order must not matter
    assert fd.essential
    assert fd.a1 == "p" and fd.a2 == "q"
    assert fd.merged_edge == "p" and fd.merged_vertex == "v1"
    assert set(fd.after.vertices) == {"u", "v1"}
    assert fd.projection.vmap["v2"] == "v1"
    assert betti_numbers(fd.after)[0] == 0


def test_fold_preconditions():
    g = rose(2)
    with pytest.raises(NotFoldable):
        fold(g, "a", "a")
    with pytest.raises(NotFoldable):
        fold(g, "a", "A")
    h = theta()
    with pytest.raises(NotFoldable):
        fold(h, "p", "Q")  # different origins
    with pytest.raises(UnknownEdge):
        fold(h, "p", "z")


def test_stallings_fold_rank_collapse():
    # both petals to the same letter: one inessential fold, rank 2 -> 1
    g = rose(2)
    r1 = rose(1)
    f = GraphMorphism(g, r1, {"v0": "v0"}, {"a": "a", "A": "A", "b": "a", "B": "A"})
    seq = stallings_fold(f)
    assert len(seq.folds) == 1 and not seq.folds[0].essential
    assert not seq.all_essential
    assert betti_numbers(seq.folded)[0] == 1
    assert seq.fbar.is_immersion()
    # factorization f = fbar . f0
    for e in g.edges:
        assert seq.fbar.emap[seq.f0.emap[e]] == f.emap[e]


def test_stallings_fold_theta_collapse_order():
    g = theta()
    r1 = rose(1)
    f = GraphMorphism(
        g, r1, {"u": "v0", "v": "v0"},
        {"p": "a", "P": "A", "q": "a", "Q": "A", "r": "a", "R": "A"},
    )
    seq = stallings_fold(f)
    # capitals sort before lowercase, so the violations at v are seen first
    assert [(fd.a1, fd.a2) for fd in seq.folds] == [("P", "Q"), ("P", "R")]
    assert [fd.essential for fd in seq.folds] == [False, False]
    assert len(seq.folded.geometric_edges()) == 1
    assert betti_numbers(seq.folded)[0] == 0


def test_stallings_fold_immersion_unchanged():
    c2 = cycle(2)
    r1 = rose(1)
    f = GraphMorphism(
        c2, r1, {"c0": "v0", "c1": "v0"},
        {"e0": "a", "E0": "A", "e1": "a", "E1": "A"},
    )
    assert f.is_immersion()
    seq = stallings_fold(f)
    assert seq.folds == []
    assert seq.folded == c2


def test_morphism_validation():
    g, h = rose(1), rose(2)
    with pytest.raises(InvalidMap):
        GraphMorphism(g, h, {}, {"a": "a", "A": "A"})
    with pytest.raises(InvalidMap):
        GraphMorphism(g, h, {"v0": "v0"}, {"a": "a"})
    with pytest.raises(InvalidMap):
        GraphMorphism(g, h, {"v0": "v0"}, {"a": "a", "A": "B"})
    with pytest.raises(UnknownEdge):
        GraphMorphism(g, h, {"v0": "v0"}, {"a": "z", "A": "Z"})
    f = GraphMorphism(g, h, {"v0": "v0"}, {"a": "b", "A": "B"})
    assert f.is_immersion()
    gh = compose(f, identity_morphism(g))
    assert gh.emap == f.emap


def test_unfold_then_fold_restores_graph():
    g = rose(2)
    fd = unfold_graph(g, "a", ["b"], ["B", "a"])
    assert fd.essential and fd.after is g
    assert betti_numbers(fd.before)[0] == 2
    back = fold(fd.before, fd.a1, fd.a2)
    assert back.essential
    assert gen.induced_isomorphism(back.projection, fd.projection) is not None
    ident = identity_morphism(fd.before)  # no map: a1, a2 have one image
    assert gen.induced_isomorphism(fd.projection, ident) is None
    assert gen.induced_isomorphism(ident, fd.projection) is None


def test_unfold_partition_checked():
    g = rose(2)
    with pytest.raises(NotFoldable):
        unfold_graph(g, "a", ["b"], ["B"])  # the loop itself is missing
    with pytest.raises(NotFoldable):
        unfold_graph(g, "a", ["b", "a"], ["B", "a"])  # overlap
    with pytest.raises(NotFoldable):
        unfold_graph(g, "a", ["b", "A"], ["B", "a"])  # reversed edge not splittable


def test_unfold_theta():
    g = theta()
    fd = unfold_graph(g, "p", ["Q"], ["R"])
    b = fd.before
    assert len(b.vertices) == 3 and len(b.geometric_edges()) == 4
    assert betti_numbers(b)[0] == 2
    assert pi1_injective_oracle(fd.projection)


def test_oracle_on_covers_and_collapses():
    r1 = rose(1)
    c2 = cycle(2)
    cover = GraphMorphism(
        c2, r1, {"c0": "v0", "c1": "v0"},
        {"e0": "a", "E0": "A", "e1": "a", "E1": "A"},
    )
    assert pi1_injective_oracle(cover)
    g = rose(2)
    collapse = GraphMorphism(g, r1, {"v0": "v0"}, {"a": "a", "A": "A", "b": "a", "B": "A"})
    assert not pi1_injective_oracle(collapse)
    # commutator-like labeling on theta: immersion already, so injective
    r2 = rose(2)
    f = GraphMorphism(
        theta(), r2, {"u": "v0", "v": "v0"},
        {"p": "a", "P": "A", "q": "b", "Q": "B", "r": "A", "R": "a"},
    )
    assert pi1_injective_oracle(f)


def test_oracle_preconditions():
    r1 = rose(1)
    seg = make_graph(["x", "y"], [("e", "E", "x", "y")])
    f = GraphMorphism(seg, r1, {"x": "v0", "y": "v0"}, {"e": "a", "E": "A"})
    with pytest.raises(DomainNotCore):
        pi1_injective_oracle(f)
    two = make_graph(["x", "y"], [("p", "P", "x", "x"), ("q", "Q", "y", "y")])
    f2 = GraphMorphism(two, r1, {"x": "v0", "y": "v0"},
                       {"p": "a", "P": "A", "q": "a", "Q": "A"})
    with pytest.raises(DomainNotConnected):
        pi1_injective_oracle(f2)


def test_fibre_product_of_double_cover():
    r1 = rose(1)
    c2 = cycle(2)
    f = GraphMorphism(
        c2, r1, {"c0": "v0", "c1": "v0"},
        {"e0": "a", "E0": "A", "e1": "a", "E1": "A"},
    )
    P, pa, pb = fibre_product(f, f)
    assert len(P.vertices) == 4 and len(P.geometric_edges()) == 4
    assert len(components(P)) == 2
    for e in P.edges:
        assert f.emap[pa.emap[e]] == f.emap[pb.emap[e]]


@settings(max_examples=60)
@given(gen.serre_graphs())
def test_structure_invariants(g):
    for e in g.edges:
        assert g.inv[g.inv[e]] == e
        assert g.terminus(g.inv[e]) == g.origin[e]
    assert sum(g.valence(v) for v in g.vertices) == len(g.edges)
    total, per = betti_numbers(g)
    assert total == sum(per.values())
    assert total == len(g.geometric_edges()) - len(g.vertices) + len(components(g))


@settings(max_examples=60)
@given(gen.serre_graphs())
def test_core_invariants(g):
    c = core_of(g)
    assert c.is_core()
    assert betti_numbers(c)[0] == betti_numbers(g)[0]
    again = core_of(c)
    assert again == c


@settings(max_examples=60)
@given(gen.labeled_graphs())
def test_stallings_invariants(gf):
    g, f = gf
    seq = stallings_fold(f)
    assert seq.fbar.is_immersion()
    assert len(seq.folds) == (len(g.edges) - len(seq.folded.edges)) // 2
    for e in g.edges:
        assert seq.fbar.emap[seq.f0.emap[e]] == f.emap[e]
    for v in g.vertices:
        assert seq.fbar.vmap[seq.f0.vmap[v]] == f.vmap[v]
    inessential = sum(1 for fd in seq.folds if not fd.essential)
    assert betti_numbers(seq.folded)[0] == betti_numbers(g)[0] - inessential
    assert len(components(seq.folded)) == len(components(g))


@settings(max_examples=40)
@given(gen.labeled_graphs(max_vertices=4, max_geometric_edges=5))
def test_fibre_product_immersion_invariant(gf):
    g, f = gf
    seq = stallings_fold(f)
    P, pa, pb = fibre_product(seq.fbar, seq.fbar)
    # pullback of an immersion along any map is an immersion
    assert pa.is_immersion() and pb.is_immersion()


def test_random_cover_oracle_agreement():
    rng = random.Random(7)
    base = rose(2)
    for _ in range(20):
        cover, f = gen.random_permutation_cover(rng, base, rng.randint(1, 4))
        comp = components(cover)
        verts = set(comp[0])
        sub = subgraph(
            cover, verts, [e for e in cover.edges if cover.origin[e] in verts]
        )
        g = GraphMorphism(
            sub, base,
            {v: f.vmap[v] for v in sub.vertices},
            {e: f.emap[e] for e in sub.edges},
        )
        assert g.is_immersion()
        assert pi1_injective_oracle(g)


def test_unfold_chain_projections_injective():
    rng = random.Random(11)
    for _ in range(10):
        g, folds = gen.random_unfold_chain(rng, rose(2), 4)
        assert betti_numbers(g)[0] == 2
        proj = None
        for fd in folds:
            proj = fd.projection if proj is None else compose(fd.projection, proj)
        core = core_of(g)
        if core.vertices == g.vertices:
            assert pi1_injective_oracle(proj)


@st.composite
def mixed_id_graphs(draw):
    """A generated graph with its edges renamed to ints, strings, tuples
    and frozensets in a random order."""
    g = draw(gen.serre_graphs())
    perm = draw(st.permutations(range(len(g.edges))))
    name = {e: [n, f"x{n}", (n, "t"), frozenset({n})][n % 4]
            for e, n in zip(g.edges, perm)}
    return SerreGraph(g.vertices, {name[e]: g.origin[e] for e in g.edges},
                      {name[e]: name[g.inv[e]] for e in g.edges})


@settings(max_examples=200)
@given(st.one_of(gen.serre_graphs(), mixed_id_graphs()))
def test_orientation_is_the_sort_key_rule(g):
    def rule(e):
        eb = g.inv[e]
        return e if sort_key(e) < sort_key(eb) else eb

    assert g.geometric_edges() == tuple(e for e in g.edges if rule(e) == e)
    assert [g.orient(e) for e in g.edges] == [rule(e) for e in g.edges]
