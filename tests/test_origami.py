import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curv2x.origami
import gen
from curv2x.errors import (
    DomainMismatch,
    NotCoreOrConnected,
    FoldNotEssential,
    NotAnOrigami,
    OrigamiNotEssential,
    UnknownEdge,
)
from curv2x.origami import (
    Origami,
    certify_pi1_injective,
    factor_through_quotient,
    is_compatible,
    open_separation,
    quotient_graph,
    trivial_origami,
    unfold_origami,
)
from curv2x.serre_graph import (
    GraphMorphism,
    compose,
    cycle,
    make_graph,
    rose,
    sort_key,
    stallings_fold,
    theta,
)


def double_cover_map():
    r1 = rose(1)
    c2 = cycle(2)
    return GraphMorphism(
        c2, r1, {"c0": "v0", "c1": "v0"},
        {"e0": "a", "E0": "A", "e1": "a", "E1": "A"},
    )


def test_trivial_origami_essential():
    for g in (rose(1), rose(2), theta(), cycle(3)):
        om = trivial_origami(g)
        assert gen.is_origami(om)
        assert om.is_essential()
        Q, q = quotient_graph(om)
        assert Q == g
        assert q.vmap == {v: v for v in g.vertices}


def test_origami_canonical_form():
    g = rose(2)
    om1 = Origami(g, [["a", "b"]])
    om2 = Origami(g, [["b", "a"], ["a"]])
    assert om1 == om2
    assert om1.open_map["b"] == "a"
    assert om1.open_classes == (("A",), ("B",), ("a", "b"))
    with pytest.raises(UnknownEdge):
        Origami(g, [["a", "z"]])


def test_closed_relation_via_reversal():
    g = rose(2)
    om = Origami(g, [["a", "b"]])
    # closed class of A is the reversal image of the open class of a:
    # {A, B} with representative A, while a is alone
    assert om.closed_map() == {"A": "A", "B": "A", "a": "a", "b": "b"}


def test_singular_class_rejected():
    g = rose(1)
    om = Origami(g, [["a", "A"]])
    assert not gen.is_origami(om)
    assert "reverse" in om.origami_violation()


def test_global_consistency_violation():
    # two disjoint segments with their forward edges identified
    g = make_graph(
        ["u1", "w1", "u2", "w2"],
        [("p", "P", "u1", "w1"), ("q", "Q", "u2", "w2")],
    )
    om = Origami(g, [["p", "q"]])
    assert "disconnected" in om.origami_violation()


def test_local_consistency_violation():
    # x joins the rest of the vertex space only through the edge e1 that
    # the first class would need to remove
    g = make_graph(
        ["x", "y"],
        [("e1", "r1", "x", "y"), ("e2", "r2", "y", "y"), ("f", "g", "y", "y")],
    )
    om = Origami(g, [["e1", "e2"], ["r1", "g"]])
    reason = om.origami_violation()
    assert reason is not None and "removed" in reason


def test_disjoint_loops_identified_is_essential():
    g = make_graph(["u", "v"], [("x", "X", "u", "u"), ("y", "Y", "v", "v")])
    om = Origami(g, [["x", "y"]])
    assert gen.is_origami(om)
    assert om.is_essential()
    Q, q = quotient_graph(om)
    assert len(Q.vertices) == 1 and len(Q.geometric_edges()) == 1
    assert q.emap["x"] == q.emap["y"]
    f = GraphMorphism(g, rose(1), {"u": "v0", "v": "v0"},
                      {"x": "a", "X": "A", "y": "a", "Y": "A"})
    assert is_compatible(om, f)
    h = factor_through_quotient(om, f)
    assert h.is_immersion()


def test_parallel_edges_origami_not_essential():
    g = make_graph(["u", "v"], [("p", "P", "u", "v"), ("q", "Q", "u", "v")])
    om = Origami(g, [["p", "q"]])
    assert gen.is_origami(om)
    assert not om.is_essential()
    with pytest.raises(OrigamiNotEssential):
        om.validate()
    Q, _ = quotient_graph(om)
    assert len(Q.geometric_edges()) == 1


def test_incompatible_when_images_differ():
    g = make_graph(["u", "v"], [("x", "X", "u", "u"), ("y", "Y", "v", "v")])
    om = Origami(g, [["x", "y"]])
    f = GraphMorphism(g, rose(2), {"u": "v0", "v": "v0"},
                      {"x": "a", "X": "A", "y": "b", "Y": "B"})
    assert not is_compatible(om, f)


def test_incompatible_when_quotient_not_immersed():
    # both petals of the rose map to the same letter; the trivial origami
    # is compatible with nothing that breaks local injectivity
    g = rose(2)
    f = GraphMorphism(g, rose(1), {"v0": "v0"},
                      {"a": "a", "A": "A", "b": "a", "B": "A"})
    assert not is_compatible(trivial_origami(g), f)


def test_factor_domain_mismatch():
    f = double_cover_map()
    with pytest.raises(DomainMismatch):
        factor_through_quotient(trivial_origami(rose(1)), f)


def test_unfold_requires_essential_fold():
    fd = gen.fold(rose(2), "a", "b")
    assert not fd.essential
    with pytest.raises(FoldNotEssential):
        unfold_origami(fd, trivial_origami(fd.after))


def test_unfold_domain_mismatch():
    g = make_graph(["u", "v1", "v2"], [("p", "P", "u", "v1"), ("q", "Q", "u", "v2")])
    fd = gen.fold(g, "p", "q")
    with pytest.raises(DomainMismatch):
        unfold_origami(fd, trivial_origami(rose(1)))


def test_unfold_not_essential_origami():
    g = make_graph(["u", "v1", "v2"],
                   [("p", "P", "u", "v1"), ("q", "Q", "u", "v2"),
                    ("r", "R", "u", "v1"), ("s", "S", "u", "v2")])
    fd = gen.fold(g, "p", "q")
    bad = Origami(fd.after, [["r", "s"]])  # parallel edges: origami but not essential
    assert gen.is_origami(bad) and not bad.is_essential()
    with pytest.raises(OrigamiNotEssential):
        unfold_origami(fd, bad)


def test_unfold_pulls_folded_pair_together():
    g = make_graph(["u", "v1", "v2"],
                   [("p", "P", "u", "v1"), ("q", "Q", "u", "v2"),
                    ("l", "L", "v1", "v1"), ("m", "M", "v2", "v2")])
    fd = gen.fold(g, "p", "q")
    om = unfold_origami(fd, trivial_origami(fd.after))
    assert ("p", "q") in om.open_classes
    assert om.is_essential()
    fd2 = gen.fold(om.graph, "p", "q")
    om2 = gen.push_forward(om, fd2)
    assert fd2.after == fd.after
    assert om2 == trivial_origami(fd.after)


def test_unfold_splits_reverse_class_by_sides():
    # loops l, m end up on opposite sides of the split vertex, so after
    # unfolding their classes must separate the reversed folded edges
    g = make_graph(["u", "v1", "v2"],
                   [("p", "P", "u", "v1"), ("q", "Q", "u", "v2"),
                    ("l", "L", "v1", "v1"), ("m", "M", "v2", "v2")])
    fd = gen.fold(g, "p", "q")
    h = fd.after  # vertices u, v1; edges p, P, l, L, m, M
    om_h = Origami(h, [["P", "l"]])
    if not om_h.is_essential():
        pytest.skip("auxiliary origami not essential")
    om = unfold_origami(fd, om_h)
    assert om.is_essential()
    # l sits at v1, so it must join P's preimage on the v1 side
    assert om.open_map["P"] == om.open_map["l"]
    assert om.open_map["P"] != om.open_map["Q"]


def test_fold_origami_requires_equivalent_pair():
    g = make_graph(["u", "v1", "v2"], [("p", "P", "u", "v1"), ("q", "Q", "u", "v2")])
    om2 = Origami(g, [["p", "q"]])
    fd = gen.fold(g, "p", "q")
    pushed = gen.push_forward(om2, fd)
    assert fd.essential
    assert pushed == trivial_origami(fd.after)


def test_foldable_pairs_listing():
    g = make_graph(["u", "v1", "v2"],
                   [("p", "P", "u", "v1"), ("q", "Q", "u", "v2"),
                    ("r", "R", "v1", "v2")])
    om = Origami(g, [["p", "q"], ["P", "R"]])
    assert gen.foldable_pairs(om) == [("p", "q")]


def test_certify_on_cover_and_collapse():
    f = double_cover_map()
    cert = certify_pi1_injective(f)
    assert cert is not None
    assert cert == trivial_origami(f.domain)
    assert is_compatible(cert, f)

    g = rose(2)
    bad = GraphMorphism(g, rose(1), {"v0": "v0"},
                        {"a": "a", "A": "A", "b": "a", "B": "A"})
    assert certify_pi1_injective(bad) is None


def test_certify_quotient_matches_folded_graph():
    rng = random.Random(3)
    for _ in range(15):
        g, folds = gen.random_unfold_chain(rng, rose(2), 3, keep_core=True)
        proj = None
        for fd in folds:
            proj = fd.projection if proj is None else compose(fd.projection, proj)
        cert = certify_pi1_injective(proj)
        assert cert is not None
        assert cert.is_essential()
        assert is_compatible(cert, proj)
        seq = stallings_fold(proj)
        assert gen.induced_isomorphism(quotient_graph(cert).q,
                                       seq.f0) is not None


def test_round_trip_fold_then_unfold_exact():
    rng = random.Random(9)
    done = 0
    for _ in range(60):
        g, folds = gen.random_unfold_chain(rng, rose(2), rng.randint(1, 3), keep_core=True)
        proj = None
        for fd in folds:
            proj = fd.projection if proj is None else compose(fd.projection, proj)
        om = certify_pi1_injective(proj)
        assert om is not None
        pairs = gen.foldable_pairs(om)
        if not pairs:
            continue
        a1, a2 = pairs[0]
        fd = gen.fold(om.graph, a1, a2)
        pushed = gen.push_forward(om, fd)
        back = unfold_origami(fd, pushed)
        assert back == om
        done += 1
    assert done >= 20


def test_round_trip_unfold_then_fold_exact():
    rng = random.Random(13)
    done = 0
    for _ in range(40):
        g, folds = gen.random_unfold_chain(rng, rose(2), 2)
        proj = None
        for fd in folds:
            proj = fd.projection if proj is None else compose(fd.projection, proj)
        seq = gen.reference_stallings_fold(proj)
        om = trivial_origami(seq.folded)
        for fd in reversed(seq.folds):
            om_up = unfold_origami(fd, om)
            assert om_up.open_map[fd.a1] == om_up.open_map[fd.a2]
            fd2 = gen.fold(om_up.graph, fd.a1, fd.a2)
            om_down = gen.push_forward(om_up, fd2)
            assert fd2.after == fd.after
            assert om_down == om
            om = om_up
            done += 1
    assert done >= 40


@settings(max_examples=50, deadline=None)
@given(gen.labeled_graphs())
def test_certify_agrees_with_oracle(gf):
    g, f = gf
    if not (g.vertices and g.is_connected() and g.is_core()):
        with pytest.raises(NotCoreOrConnected):
            certify_pi1_injective(f)
        return
    cert = certify_pi1_injective(f)
    assert (cert is not None) == gen.reference_injective(f)
    if cert is not None:
        assert cert.is_essential()
        assert is_compatible(cert, f)


@settings(max_examples=40, deadline=None)
@given(gen.labeled_graphs(max_vertices=4, max_geometric_edges=6))
def test_certificate_survives_verification(gf):
    g, f = gf
    if not (g.vertices and g.is_connected() and g.is_core()):
        return
    cert = certify_pi1_injective(f)
    if cert is None:
        return
    cert.validate()
    h = factor_through_quotient(cert, f)
    Q, q = quotient_graph(cert)
    for e in g.edges:
        assert h.emap[q.emap[e]] == f.emap[e]


def least(items):
    return min(items, key=sort_key)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_names_are_least_members(data):
    """Components, open classes and quotients are named by their least
    member, whatever order the classes are given in."""
    g = data.draw(gen.serre_graphs())
    for v in g.vertices:
        seen, stack = {v}, [v]
        while stack:
            for e in g.link(stack.pop()):
                if g.terminus(e) not in seen:
                    seen.add(g.terminus(e))
                    stack.append(g.terminus(e))
        assert g.component_map()[v] == least(seen)

    order = data.draw(st.permutations(g.edges))
    labels = data.draw(st.lists(st.integers(0, len(order)),
                                min_size=len(order), max_size=len(order)))
    given_classes = {}
    for e, label in zip(order, labels):
        given_classes.setdefault(label, []).append(e)
    om = Origami(g, given_classes.values())
    expected = sorted((tuple(sorted(c, key=sort_key))
                       for c in given_classes.values()),
                      key=lambda c: sort_key(c[0]))
    assert om.open_classes == tuple(expected)
    assert all(om.open_map[e] == c[0] for c in expected for e in c)

    if gen.is_origami(om):
        Q, q = quotient_graph(om)
        for w in Q.vertices:
            assert w == least(v for v in g.vertices if q.vmap[v] == w)
        for d in Q.edges:
            assert d == least(e for e in g.edges if q.emap[e] == d)


# -- the one-pass condition check against its reference ----------------------

VIOLATIONS = {"reverse": "meets its reverse",
              "disconnected": "origins disconnected",
              "removed": "open class separated"}


def outcome(reason):
    if reason is None:
        return "valid"
    return next(name for word, name in VIOLATIONS.items() if word in reason)


@st.composite
def perturbed_origamis(draw):
    """An origami on a small labelled graph: the certificate of its map
    when there is one, else the trivial origami, with up to three edges
    moved to another class or a new one."""
    g, f = draw(gen.labeled_graphs(max_vertices=4, max_geometric_edges=6))
    cert = None
    if g.vertices and g.is_connected() and g.is_core():
        cert = certify_pi1_injective(f)
    base = cert if cert is not None else trivial_origami(g)
    label = {e: k for k, cls in enumerate(base.open_classes) for e in cls}
    if g.edges:
        for _ in range(draw(st.integers(0, 3))):
            e = draw(st.sampled_from(g.edges))
            label[e] = draw(st.integers(0, len(g.edges)))
    classes = {}
    for e, k in label.items():
        classes.setdefault(k, []).append(e)
    return Origami(g, classes.values())


def test_conditions_match_the_reference():
    """The one-pass check gives the reference's reason and quotient, and
    the origamis drawn reach every outcome."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(perturbed_origamis())
    def check(om):
        reason, quotient = gen.reference_conditions(om)
        assert om.origami_violation() == reason
        if reason is None:
            Q, q = quotient_graph(om)
            assert (Q, q.vmap, q.emap) == \
                (quotient.quotient, quotient.q.vmap, quotient.q.emap)
        else:
            with pytest.raises(NotAnOrigami) as info:
                quotient_graph(om)
            assert str(info.value) == reason
        seen.add(outcome(reason))

    check()
    assert seen == {"valid", *VIOLATIONS.values()}


@st.composite
def separation_inputs(draw):
    """Edges, each starting at one of up to five vertices and lying in
    one of up to four closed classes, so that the vertex space has
    parallel edges, and a partition of the edges into open classes."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    origin, closed = {}, {}
    for j in range(draw(st.integers(0, 9))):
        origin[f"x{j}"] = draw(st.integers(0, n - 1))
        closed[f"x{j}"] = draw(st.integers(0, k - 1))
    classes = {}
    for eid in origin:
        classes.setdefault(draw(st.integers(0, 4)), []).append(eid)
    return origin, closed, list(classes.values())


def test_open_separation_matches_the_reference():
    """One search finds the class and member the per-member walks find,
    on vertex spaces with parallel edges and classes split across
    components, and reaches every outcome."""
    seen = set()

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(separation_inputs())
    def check(case):
        origin, closed, classes = case
        ref = gen.reference_vertex_space(origin, origin, closed)
        got = open_separation(classes, origin, closed)
        assert got == gen.reference_open_separation(ref, classes, origin)
        if got is None:
            seen.add("none")
        else:
            comp = ref.component_sets()
            apart = len({comp[("V", origin[e])] for e in got[0]}) > 1
            seen.add("components" if apart else "bridge")

    check()
    assert seen == {"none", "bridge", "components"}


def counting_bridges(monkeypatch):
    """Patch the bridge search to list the adjacency map of every vertex
    space it searches, each wrapped to count reads per node."""
    searched = []
    bridges = curv2x.origami._bridges

    class CountingAdj(dict):
        def __init__(self, adj):
            super().__init__(adj)
            self.reads = {}

        def __getitem__(self, n):
            self.reads[n] = self.reads.get(n, 0) + 1
            return dict.__getitem__(self, n)

    def counting(adj):
        searched.append(CountingAdj(adj))
        return bridges(searched[-1])

    monkeypatch.setattr(curv2x.origami, "_bridges", counting)
    return searched


def test_open_separation_walks_the_space_once(monkeypatch):
    """A path of vertices, each with a pendant edge; the k pendant edges
    form one class, which nothing separates.  The search expands each
    node once, where one walk per member would expand it k times."""
    k = 12
    origin, closed = {}, {}
    for i in range(k):
        for e, o, c in ((f"s{i}", i, f"c{i}"), (f"t{i}", i + 1, f"c{i}"),
                        (f"p{i}", i, f"d{i}")):
            origin[e], closed[e] = o, c

    def classes(cls):
        return [cls] + [(e,) for e in origin if e not in cls]

    searched = counting_bridges(monkeypatch)
    pendant = tuple(f"p{i}" for i in range(k))
    assert open_separation(classes(pendant), origin, closed) is None
    assert len(searched) == 1
    assert searched[0].reads and max(searched[0].reads.values()) == 1
    # a member whose removal cuts the path separates its class
    cut = ("s3", "p0", "p5")
    assert open_separation(classes(cut), origin, closed) == (cut, "s3")
    # no class with two distinct origins: no space is built
    assert open_separation([(e,) for e in origin], origin, closed) is None
    assert len(searched) == 2


def test_vertex_space_is_built_only_for_a_split_class(monkeypatch):
    """The origami check builds and searches its vertex-space adjacency
    only when it reaches the separation test with some open class of
    two distinct origins, and its outcome is the reference's; every
    partition of the edges of three small graphs."""
    built = counting_bridges(monkeypatch)
    seen = set()
    for g in (rose(2), cycle(2), theta()):
        for classes in gen.rgs_partitions(list(g.edges)):
            om = Origami(g, classes)
            built.clear()
            reason = om.origami_violation()
            assert reason == gen.reference_conditions(om)[0]
            searched = (reason is None or reason.startswith("open class")) \
                and any(len({g.origin[e] for e in c}) > 1 for c in classes)
            assert len(built) == searched
            seen.add(searched)
    assert seen == {False, True}
