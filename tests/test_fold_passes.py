"""The one-pass fold and pull-back against the fold-by-fold reference.

`stallings_fold` and `certify_pi1_injective` must make the same folds,
the same folded graph and maps, and byte-identical certificates as
`gen.reference_stallings_fold` and `gen.reference_certify`, which fold
one pair at a time and unfold one origami at a time.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings

import curv2x.origami
import curv2x.serre_graph
import gen
from curv2x.cli import cli_main
from curv2x.errors import NotCoreOrConnected
from curv2x.formats import serialize_certificate, serialize_morphism
from curv2x.origami import certify_pi1_injective
from curv2x.serre_graph import GraphMorphism, compose, rose, stallings_fold


def assert_fold_matches(f):
    seq, ref = stallings_fold(f), gen.reference_stallings_fold(f)
    assert ([(fd.a1, fd.a2, fd.essential) for fd in seq.folds]
            == [(fd.a1, fd.a2, fd.essential) for fd in ref.folds])
    assert seq.folded == ref.folded
    for mine, theirs in ((seq.f0, ref.f0), (seq.fbar, ref.fbar)):
        assert mine.domain == theirs.domain
        assert mine.codomain == theirs.codomain
        assert (mine.vmap, mine.emap) == (theirs.vmap, theirs.emap)
    return seq


def assert_certificate_matches(f):
    try:
        ref = gen.reference_certify(f)
    except NotCoreOrConnected:
        with pytest.raises(NotCoreOrConnected):
            certify_pi1_injective(f)
        return None
    cert = certify_pi1_injective(f)
    assert (cert is None) == (ref is None)
    if cert is not None:
        assert serialize_certificate(f, cert) == serialize_certificate(f, ref)
    return cert


def assert_matches(f):
    seq = assert_fold_matches(f)
    cert = assert_certificate_matches(f)
    if cert is not None:
        assert len(cert.open_classes) == len(seq.folded.edges) + len(seq.folds)
    return seq


def chain_map(rng, start, steps):
    """Refolding map of a random unfold chain on `start` that keeps the
    graph core: `steps` unfolds, each adding one geometric edge."""
    _, folds = gen.random_unfold_chain(rng, start, steps, keep_core=True)
    proj = folds[0].projection
    for fd in folds[1:]:
        proj = compose(fd.projection, proj)
    return proj


def connected_cover(rng, base, degree):
    while True:
        cover, f = gen.random_permutation_cover(rng, base, degree)
        if cover.is_connected():
            return f


def rank_drop(f):
    """f followed by the map of its rose target sending every letter to
    a: inessential folds, so not injective when the target has rank 2 or
    more."""
    r1 = rose(1)
    to_a = GraphMorphism(f.codomain, r1, {"v0": "v0"},
                         {e: "a" if e.islower() else "A" for e in f.codomain.edges})
    return compose(to_a, f)


def test_a6_morphisms_match_reference():
    injective = 0
    for f in gen.a6_morphisms(random.Random(20260823), 1000):
        injective += assert_certificate_matches(f) is not None
        assert_fold_matches(f)
    assert 0 < injective < 1000


@pytest.mark.parametrize("edges", [20, 60, 150, 400])
def test_unfold_chains_match_reference(edges):
    rng = random.Random(edges)
    f = chain_map(rng, rose(2), edges - 2)
    assert len(f.domain.geometric_edges()) == edges
    seq = assert_matches(f)
    assert seq.all_essential and len(seq.folds) == edges - 2
    assert not assert_matches(rank_drop(f)).all_essential


@pytest.mark.parametrize("degree", [10, 60, 150])
def test_covers_match_reference(degree):
    rng = random.Random(degree)
    cover = connected_cover(rng, rose(2), degree)
    assert assert_matches(cover).folds == []
    # unfold the cover, then map it down: folds first undo the chain
    f = compose(cover, chain_map(rng, cover.domain, degree // 2))
    assert len(f.domain.geometric_edges()) == 2 * degree + degree // 2
    assert assert_matches(f).all_essential
    assert not assert_matches(rank_drop(f)).all_essential


@settings(max_examples=150, deadline=None)
@given(gen.labeled_graphs(max_vertices=6, max_geometric_edges=10))
def test_labeled_graphs_match_reference(gf):
    _, f = gf
    assert_matches(f)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_matches_reference(tmp_path):
    rng = random.Random(5)
    f = chain_map(rng, rose(2), 40)
    for k, g in enumerate([f, rank_drop(f), connected_cover(rng, rose(3), 7)]):
        path = tmp_path / f"m{k}.curv2x"
        path.write_text(serialize_morphism(g))
        ref = gen.reference_stallings_fold(g)
        essential = "yes" if ref.all_essential else "no"
        assert run("fold-graph", str(path)) == (
            0, serialize_morphism(ref.fbar),
            f"folds={len(ref.folds)} essential={essential}\n")
        cert = gen.reference_certify(g)
        expected = ("NOT_INJECTIVE\n" if cert is None
                    else serialize_certificate(g, cert))
        assert run("certify", str(path)) == (0, expected, "")


@pytest.mark.parametrize("edges", [150, 300])
def test_certify_builds_a_fixed_number_of_objects(monkeypatch, edges):
    """Graphs, morphisms and origamis built while certifying an unfold
    chain: as many for 148 folds as for 298."""
    f = chain_map(random.Random(1), rose(2), edges - 2)
    counts = {}
    for owner, cls in ((curv2x.serre_graph, "SerreGraph"),
                       (curv2x.serre_graph, "GraphMorphism"),
                       (curv2x.origami, "Origami")):
        init = getattr(owner, cls).__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            counts[_cls] = counts.get(_cls, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(getattr(owner, cls), "__init__", counting)
    cert = certify_pi1_injective(f)
    assert cert is not None
    assert counts == {"SerreGraph": 1, "GraphMorphism": 2, "Origami": 1}
