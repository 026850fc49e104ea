"""Cone assembly, exact extremization, and realizer reconstruction.

Frozen values are hand-derived.  Over a one-letter base every
admissible skeleton is a disjoint union of circles, so kappa is
constantly 1; the square-torus base has kappa 0 and the genus-two base
-2 by the same direct count (area 1, skeleton Euler characteristic 0,
-1, -3 respectively).  The mixed base with relators abAB and aa admits
both a full torus-face block (area 1, Euler weight -1, kappa 0) and a
squared-letter circle block (area 1, Euler weight 0, kappa 1), and
every mixture lands in between, so its extrema are exactly 0 and 1.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curv2x.blocks
import curv2x.branched_complex
import curv2x.origami
import curv2x.pipeline
from curv2x.blocks import (VertexBlock, _class_reps, block_census,
                           enumerate_catalogues, enumerate_vertex_blocks,
                           validate_vertex_block)
from curv2x.branched_complex import (BranchedComplex, from_presentation,
                                     irreducible_link, surface_link)
from curv2x.errors import (
    EnumerationBudgetExceeded,
    GluingMismatch,
    VerificationFailed,
    ZeroAreaFace,
)
from curv2x.formats import (canonical_complex, parse_complex,
                            serialize_certificate, serialize_complex)
from curv2x.origami import Origami, trivial_origami
from curv2x.rational_lp import LPProblem
from curv2x.pipeline import (
    INVARIANTS,
    ConeSystem,
    block_area,
    block_chi,
    build_cone,
    build_cones,
    extremize,
    invariants,
    reconstruct,
    verify_realizer,
)

from gen import (
    components,
    cone_contains,
    immersive_block,
    induced_edge_block,
    integer_cone_points,
    mixed_ids,
    opposite_edge_block,
    permutation_cover,
    pullback_complex,
    reference_block_key,
    reference_glue,
    reference_gluing_rows,
    reference_sides,
    reference_open_separation,
    reference_ordered,
    reference_sorted,
    reference_validate_vertex_block,
    reference_vertex_blocks,
    reference_vertex_space,
    rename_boundary,
    sweep_words,
    unfiltered_vertex_blocks,
    upper_link,
)

from test_blocks import a4_double_realizer, abab_realizer


def torus():
    return from_presentation("ab", ["abAB"])


def mixed():
    return from_presentation("ab", ["abAB", "aa"])


ALL = ("rho+", "rho-", "sigma+", "sigma-")


def values(inv):
    return {k: inv[k].value for k in ALL}


# -- Functionals ------------------------------------------------------------

def test_block_functionals_frozen():
    cone = build_cone(torus(), "surface")
    (b,) = cone.blocks
    assert block_area(b) == 1
    assert block_chi(b) == -1
    cone = build_cone(from_presentation("a", ["aa"]), "surface")
    assert block_area(cone.blocks[0]) == 1
    assert block_chi(cone.blocks[0]) == 0
    cone = build_cone(from_presentation("ab", ["abab"]), "surface")
    assert [block_area(b) for b in cone.blocks] == [Fraction(1, 2)] * 2
    assert [block_chi(b) for b in cone.blocks] == [0, 0]
    cone = build_cone(from_presentation("abcd", ["abABcdCD"]), "surface")
    assert block_area(cone.blocks[0]) == 1
    assert block_chi(cone.blocks[0]) == -3


# -- Cone structure ---------------------------------------------------------

def test_torus_cone_shape():
    cone = build_cone(torus(), "surface")
    assert len(cone.variables) == 1
    # the identity block self-matches over both edges: rows cancel
    assert cone.gluing_rows == ()
    k = cone.variables[0]
    assert cone.area_row == {k: 1}
    assert cone.chi_row == {k: -1}
    assert cone.tau_row == {k: 0}


def test_abab_cone_shape():
    cone = build_cone(from_presentation("ab", ["abab"]), "surface")
    assert len(cone.variables) == 2
    assert len(cone.gluing_rows) == 2
    t1, t2 = cone.variables
    for row in cone.gluing_rows:
        assert row.edge == cone.complex.skeleton.orient(row.edge)
        assert row.coefficients in ({t1: 1, t2: -1}, {t1: -1, t2: 1})


def test_mixed_cone_shape():
    x = mixed()
    surf = build_cone(x, "surface")
    irr = build_cone(x, "irreducible")
    assert (len(surf.variables), len(surf.gluing_rows)) == (12, 9)
    assert (len(irr.variables), len(irr.gluing_rows)) == (17, 11)
    for cone in (surf, irr):
        for row in cone.gluing_rows:
            assert row.coefficients
            assert all(v for v in row.coefficients.values())


# -- Invariants, frozen -----------------------------------------------------

def test_torus_invariants_zero():
    inv = invariants(torus())
    assert values(inv) == {k: 0 for k in ALL}
    for k in ALL:
        rep = inv[k]
        assert rep.value == Fraction(0)
        assert len(rep.realizer.transcript) == 9
        assert rep.cone.kappa_of(rep.integer_vector) == 0
    rep = inv["rho+"]
    assert rep.integer_vector == {rep.cone.variables[0]: 1}
    y = rep.realizer.complex
    assert len(y.skeleton.vertices) == 1
    assert len(y.skeleton.geometric_edges()) == 2
    assert y.total_area() == 1


def test_constant_curvature_bases():
    for letters, relators, value in [
        ("a", ["aa"], 1),
        ("a", ["aaaa"], 1),
        ("ab", ["abab"], 1),
        ("abcd", ["abABcdCD"], -2),
    ]:
        inv = invariants(from_presentation(letters, relators))
        assert values(inv) == {k: Fraction(value) for k in ALL}, relators


def test_mixed_invariants():
    inv = invariants(mixed())
    assert values(inv) == {"rho+": 1, "rho-": 0, "sigma+": 1, "sigma-": 0}
    for k in ALL:
        rep = inv[k]
        census = block_census(rep.realizer.map, rep.realizer.origami,
                              rep.cone.predicate)
        assert census == rep.integer_vector
        assert rep.cone.kappa_of(rep.integer_vector) == rep.value
        assert rep.lp.status == "optimal"
        assert rep.lp.value == rep.value


def test_empty_catalog_sentinels():
    inv = invariants(from_presentation("xy", ["xy"]))
    assert values(inv) == {"rho+": "-inf", "rho-": "+inf",
                           "sigma+": "-inf", "sigma-": "+inf"}
    for k in ALL:
        rep = inv[k]
        assert rep.vector is None
        assert rep.integer_vector is None
        assert rep.realizer is None
        assert rep.lp is None


def test_invariants_enumerate_each_predicate_once(monkeypatch):
    """invariants() runs one block search per base vertex, and that
    search serves both catalogues."""
    calls = []
    search = curv2x.blocks._blocks_at_vertex

    def counting(x, v, preds, *args):
        calls.append((v, tuple(preds)))
        return search(x, v, preds, *args)

    monkeypatch.setattr(curv2x.blocks, "_blocks_at_vertex", counting)
    for x in (mixed(), theta_sphere()):
        calls.clear()
        inv = invariants(x)
        assert calls == [(v, (irreducible_link, surface_link))
                         for v in x.skeleton.vertices]
        assert tuple(inv) == tuple(INVARIANTS) == ALL
        assert inv["rho+"].cone is inv["rho-"].cone
        assert inv["sigma+"].cone is inv["sigma-"].cone
        assert inv["rho+"].cone is not inv["sigma+"].cone


TRANSCRIPT = (
    "complex validates", "all links admissible",
    "map is a branched immersion", "origami is essential",
    "origami is compatible", "census equals the vector",
    "area matches the functional",
    "euler characteristic matches the functional",
    "kappa matches the functional")


def test_realizer_checks_build_one_quotient_each(monkeypatch):
    """Each realizer's origami builds its quotient once; every later
    question about it reads the kept one.  On a^4 each cone's max and
    min land on one vector, so two realizers serve the four reports."""
    calls = []
    check = curv2x.origami.Origami._check

    def counting(omega):
        calls.append(omega)
        return check(omega)

    monkeypatch.setattr(curv2x.origami.Origami, "_check", counting)
    inv = invariants(from_presentation("a", ["aaaa"]))
    assert len(calls) == 2
    assert [inv[k].realizer.origami for k in ALL] == \
        [calls[0], calls[0], calls[1], calls[1]]
    assert inv["rho+"].realizer is inv["rho-"].realizer
    assert inv["sigma+"].realizer is inv["sigma-"].realizer
    assert all(inv[k].realizer.transcript == TRANSCRIPT for k in ALL)


def test_realizer_checks_run_once_each(monkeypatch):
    """verify_realizer checks the origami conditions once and the
    compatibility (the factor through the quotient) once per distinct
    (cone, integer vector): 2 on a^4, not one per report."""
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(curv2x.origami.Origami, "_check")
    for module in (curv2x.origami, curv2x.branched_complex):
        count(module, "factor_through_quotient")
    count(curv2x.pipeline, "verify_realizer")
    inv = invariants(from_presentation("a", ["aaaa"]))
    assert all(inv[k].realizer.transcript == TRANSCRIPT for k in ALL)
    assert calls == {"_check": 2, "factor_through_quotient": 2,
                     "verify_realizer": 2}


def test_each_vertex_block_is_keyed_once_at_construction(monkeypatch):
    """Each vertex block computes its key once, in its constructor; the
    cone and every realizer's census read it and key nothing again."""
    keyed = []
    per_block = []
    ordered = curv2x.blocks._ordered
    init = VertexBlock.__init__

    def counting_ordered(kind, *args):
        keyed.append(kind)
        return ordered(kind, *args)

    def counting_init(self, *args):
        before = keyed.count("vertex-block")
        init(self, *args)
        per_block.append(keyed.count("vertex-block") - before)

    monkeypatch.setattr(curv2x.blocks, "_ordered", counting_ordered)
    monkeypatch.setattr(VertexBlock, "__init__", counting_init)
    x = from_presentation("a", ["aaaa"])
    inv = invariants(x)
    assert set(per_block) == {1}
    assert keyed.count("vertex-block") == len(per_block)
    cones = {id(inv[k].cone): inv[k].cone for k in ALL}.values()
    catalogue = sum(len(cone.blocks) for cone in cones)
    census = sum(sum(inv[k].integer_vector.values()) for k in ALL)
    assert (catalogue, census) == (29, 4)

    keyed.clear()
    for cone in cones:
        assert ConeSystem(x, cone.predicate, cone.blocks).variables \
            == cone.variables
    assert keyed == []


def test_census_outside_the_catalogue_fails_the_census_step():
    """A realizer whose block class the cone's catalogue lacks fails
    "census equals the vector": the vector names catalogue keys only."""
    x = from_presentation("a", ["aaaa"])
    rep = invariants(x)["sigma+"]
    (missing,) = rep.integer_vector
    cone = ConeSystem(x, "surface", [
        b for k, b in zip(rep.cone.variables, rep.cone.blocks)
        if k != missing])
    with pytest.raises(VerificationFailed,
                       match="^census equals the vector$"):
        verify_realizer(rep.realizer, cone, {cone.variables[0]: 1})


@pytest.mark.parametrize("gens, relator, which, merge, failed", [
    ("ab", "abab", "rho+", (0, 2), "origami is compatible"),
    ("a", "aaaa", "sigma+", (0, 1), "origami is essential"),
])
def test_realizer_with_merged_classes_fails(gens, relator, which, merge,
                                            failed):
    """Merging two open classes of a realizer's origami gives an
    essential origami the map does not factor through (abab), or an
    origami that is not essential (a^4); each fails its own step."""
    rep = invariants(from_presentation(gens, [relator]))[which]
    omega = rep.realizer.origami
    classes = [list(c) for c in omega.open_classes]
    i, j = merge
    classes[i] += classes.pop(j)
    bad = rep.realizer._replace(origami=Origami(omega.graph, classes))
    with pytest.raises(VerificationFailed, match=f"^{failed}$"):
        verify_realizer(bad, rep.cone, rep.integer_vector)


def isomorphic_rewrites(relators):
    """Relator lists over ab whose presentation complexes are isomorphic
    to that of `relators`, one per kind of rewrite."""
    swap = str.maketrans("abAB", "baBA")
    return {
        "rotate": [relators[0][1:] + relators[0][0]] + relators[1:],
        "invert": [w[::-1].swapcase() for w in relators],
        "reorder": relators[::-1],
        "swap letters": [w.translate(swap) for w in relators],
    }


@pytest.mark.parametrize("relators, expected", [
    (["abab"], (1, 1, 1, 1)),
    (["abAB", "aa"], (1, 0, 1, 0)),
], ids=["abab", "abAB+aa"])
def test_invariants_survive_isomorphic_presentations(relators, expected):
    for rewrite, words in isomorphic_rewrites(relators).items():
        inv = invariants(from_presentation("ab", words))
        assert tuple(inv[k].value for k in ALL) == expected, rewrite


def test_lower_invariants_agree():
    for letters, relators in [("ab", ["abAB"]), ("a", ["aa"]),
                              ("ab", ["abab"]), ("a", ["aaaa"]),
                              ("abcd", ["abABcdCD"]), ("ab", ["abAB", "aa"]),
                              ("xy", ["xy"])]:
        inv = invariants(from_presentation(letters, relators))
        assert inv["rho-"].value == inv["sigma-"].value, relators


# -- Mapped complexes give cone points --------------------------------------

def census_of(phi, cone, omega=None):
    om = omega or trivial_origami(phi.domain.skeleton)
    return block_census(phi, om, cone.predicate)


def test_fixture_censuses_lie_in_the_cone():
    x, y, phi, om = a4_double_realizer()
    cone = build_cone(x, "surface")
    vec = block_census(phi, om, "surface")
    assert cone_contains(cone, vec)
    assert cone.area_of(vec) == y.total_area()
    assert cone.chi_of(vec) == (len(y.skeleton.vertices)
                                - len(y.skeleton.geometric_edges()))

    z, w, psi = abab_realizer()
    zcone = build_cone(z, "surface")
    wec = census_of(psi, zcone)
    assert cone_contains(zcone, wec)
    assert zcone.area_of(wec) == 1
    assert zcone.kappa_of(wec) == 1


def test_reconstruct_unit_torus():
    cone = build_cone(torus(), "surface")
    key = cone.variables[0]
    real = reconstruct({key: 1}, cone)
    y = real.complex
    assert len(y.skeleton.vertices) == 1
    assert len(y.skeleton.geometric_edges()) == 2
    assert y.total_area() == 1
    assert census_of(real.map, cone, real.origami) == {key: 1}
    # derived again from scratch to pin determinism
    again = reconstruct({key: 1}, cone)
    assert again.complex == y
    assert again.origami.open_classes == real.origami.open_classes


def test_reconstruct_doubled_vector_splits():
    cone = build_cone(torus(), "surface")
    key = cone.variables[0]
    real = reconstruct({key: 2}, cone)
    assert len(components(real.complex.skeleton)) == 2
    assert real.complex.total_area() == 2
    assert census_of(real.map, cone, real.origami) == {key: 2}


def test_reconstruct_census_roundtrip():
    x, y, phi, om = a4_double_realizer()
    cone = build_cone(x, "surface")
    vec = block_census(phi, om, "surface")
    real = reconstruct(vec, cone)
    assert census_of(real.map, cone, real.origami) == vec

    z, w, psi = abab_realizer()
    zcone = build_cone(z, "surface")
    wec = census_of(psi, zcone)
    real = reconstruct(wec, zcone)
    assert census_of(real.map, zcone, real.origami) == wec


def test_reconstruct_errors():
    cone = build_cone(from_presentation("ab", ["abab"]), "surface")
    t1, t2 = cone.variables
    with pytest.raises(GluingMismatch, match="breaks the gluing row"):
        reconstruct({t1: 1}, cone)
    with pytest.raises(GluingMismatch, match="breaks the gluing row"):
        reconstruct({t1: 2, t2: 1}, cone)
    with pytest.raises(ValueError):
        reconstruct({}, cone)
    with pytest.raises(ValueError):
        reconstruct({t1: 0, t2: 0}, cone)
    with pytest.raises(ValueError):
        reconstruct({t1: Fraction(1, 2), t2: Fraction(1, 2)}, cone)
    with pytest.raises(ValueError):
        reconstruct({b"nope": 1}, cone)
    with pytest.raises(ValueError):
        reconstruct({t1: -1, t2: -1}, cone)


@pytest.mark.parametrize("name, predicate", [
    ("abab", "surface"), ("abAB+aa", "irreducible"), ("a^4", "surface"),
    ("aab+abb", "irreducible"), ("aaa+bbb", "irreducible"),
    ("theta-sphere", "irreducible")])
def test_reconstruct_rejects_exactly_the_vectors_off_the_gluing_rows(
        name, predicate):
    # reconstruct decides the gluing rows by counting copies on each
    # side of a shadow class; the rows' sums, taken here, are the
    # reference.  Sums of cone points, some pushed off by a few extra
    # copies, reach both outcomes.
    cone = build_cone(corpus_complex(name), predicate)
    points = integer_cone_points(cone, 2)
    rng = random.Random(f"{name} {predicate}")
    outcomes = set()
    for _ in range(40):
        vector = {}
        for _ in range(rng.randint(0, 2)):
            for k, v in rng.choice(points).items():
                vector[k] = vector.get(k, 0) + v
        for k in rng.sample(cone.variables, rng.randint(0, 2)):
            vector[k] = vector.get(k, 0) + rng.randint(1, 2)
        if not vector:
            continue
        broken = any(sum(c * vector.get(k, 0)
                         for k, c in r.coefficients.items())
                     for r in cone.gluing_rows)
        try:
            reconstruct(vector, cone)
        except GluingMismatch:
            assert broken
            outcomes.add("mismatch")
        else:
            assert not broken
            outcomes.add("realized")
    assert outcomes == {"mismatch", "realized"}


def test_integer_cone_points_torus():
    cone = build_cone(torus(), "surface")
    key = cone.variables[0]
    pts = integer_cone_points(cone, 4)
    assert pts == [{key: n} for n in range(1, 5)]
    assert all(cone.kappa_of(p) == 0 for p in pts)


def test_integer_cone_points_bounded_by_extrema():
    x = mixed()
    for pred, bound in (("surface", 4), ("irreducible", 3)):
        cone = build_cone(x, pred)
        lo = extremize(cone, "min").value
        hi = extremize(cone, "max").value
        pts = integer_cone_points(cone, bound)
        assert pts
        for p in pts:
            assert lo <= cone.kappa_of(p) <= hi
    assert len(integer_cone_points(build_cone(x, "surface"), 4)) == 103
    assert len(integer_cone_points(build_cone(x, "irreducible"), 3)) == 79


def test_kappa_projective():
    x, y, phi, om = a4_double_realizer()
    cone = build_cone(x, "surface")
    vec = block_census(phi, om, "surface")
    base = cone.kappa_of(vec)
    for lam in (2, Fraction(1, 3), Fraction(7, 5)):
        scaled = {k: lam * v for k, v in vec.items()}
        assert cone.kappa_of(scaled) == base


# -- Error handling ---------------------------------------------------------

def test_budget_propagates():
    with pytest.raises(EnumerationBudgetExceeded):
        extremize(build_cone(from_presentation("a", ["aaaa"]), "surface",
                             max_candidates=50), "max")


def test_zero_area_rejected():
    x = from_presentation("ab", ["abAB"])
    flat = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": 0})
    with pytest.raises(ZeroAreaFace):
        extremize(build_cone(flat, "surface"), "max")
    with pytest.raises(ZeroAreaFace):
        invariants(flat)


def test_zero_area_checked_before_enumeration(monkeypatch):
    calls = []
    enumerate_blocks = curv2x.pipeline.enumerate_vertex_blocks

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_blocks(*args, **kwargs)

    monkeypatch.setattr(curv2x.pipeline, "enumerate_vertex_blocks", counting)
    x = from_presentation("a", ["aa"])
    flat = BranchedComplex(x.skeleton, x.boundary, x.attach, {"p0.0": 0})
    # a budget of 2 overruns on the first search node
    with pytest.raises(ZeroAreaFace):
        invariants(flat, max_candidates=2)
    assert calls == []


def test_sense_validation():
    cone = build_cone(torus(), "surface")
    with pytest.raises(ValueError):
        extremize(cone, "maximize")
    assert extremize(cone, "max").which == "custom+"
    assert extremize(cone, "min").which == "custom-"


def test_failed_optimum_check_raises(monkeypatch):
    monkeypatch.setattr(curv2x.pipeline, "check_solution",
                        lambda problem, result: False)
    with pytest.raises(VerificationFailed):
        extremize(build_cone(torus(), "surface"), "max")


OPTIMIZED_SCRIPT = """
import sys
import curv2x.pipeline as pipeline
from curv2x.branched_complex import from_presentation
from curv2x.cli import cli_main
from curv2x.errors import VerificationFailed

if __debug__:
    sys.exit("not running under -O")
code = cli_main(["invariant", "--which", "all", sys.argv[1]])
if code:
    sys.exit(code)
pipeline.check_solution = lambda problem, result: False
cone = pipeline.build_cone(from_presentation("ab", ["abAB"]), "surface")
try:
    pipeline.extremize(cone, "max")
except VerificationFailed:
    sys.exit(0)
sys.exit("a failed check_solution went unnoticed")
"""


def test_checks_survive_optimized_python(tmp_path):
    # python -O strips asserts, pytest's included, so the script runs in
    # its own interpreter and reports through its exit code and stdout
    torus_file = tmp_path / "torus.cx"
    torus_file.write_text("curv2x complex 1\npresentation ab\n"
                          "relator abAB\n")
    src = os.path.dirname(os.path.dirname(curv2x.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, str(torus_file)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        f"{name} = 0/1" for name in INVARIANTS]


def test_cone_rejects_unknown_keys():
    cone = build_cone(torus(), "surface")
    with pytest.raises(ValueError):
        cone.kappa_of({b"nope": 1})


# -- Random covers ----------------------------------------------------------

@settings(deadline=None, max_examples=15)
@given(st.data())
def test_cover_censuses_reconstruct(data):
    base = data.draw(st.sampled_from(["torus", "pp"]))
    x = {"torus": torus, "pp": lambda: from_presentation("a", ["aa"])}[base]()
    n = data.draw(st.integers(1, 2))
    perms = {e: list(data.draw(st.permutations(range(n))))
             for e in x.skeleton.geometric_edges()}
    _, f = permutation_cover(x.skeleton, perms)
    xhat, phi = pullback_complex(x, f)
    cone = build_cone(x, "surface")
    vec = census_of(phi, cone)
    assert cone_contains(cone, vec)
    assert cone.area_of(vec) == xhat.total_area()
    real = reconstruct(vec, cone)
    assert census_of(real.map, cone, real.origami) == vec


# -- Pinned catalogues ------------------------------------------------------

def theta_sphere():
    """The sphere cut into three bigons over the theta graph."""
    lines = ["curv2x complex 1", "skeleton-vertex u", "skeleton-vertex v"]
    lines += [f"skeleton-edge {x} {x.upper()} u v" for x in "pqr"]
    for i, (lo, hi) in enumerate((("p", "Q"), ("q", "R"), ("r", "P"))):
        lines += [f"boundary-vertex c{i}.0", f"boundary-vertex c{i}.1",
                  f"boundary-edge e{i}.0 E{i}.0 c{i}.0 c{i}.1",
                  f"boundary-edge e{i}.1 E{i}.1 c{i}.1 c{i}.0",
                  f"attach-edge e{i}.0 {lo}", f"attach-edge e{i}.1 {hi}",
                  f"area c{i}.0 1"]
    return parse_complex("\n".join(lines) + "\n")


CATALOGUE_COMPLEXES = {
    "torus": ("ab", ["abAB"]), "aa": ("a", ["aa"]), "abab": ("ab", ["abab"]),
    "a^4": ("a", ["aaaa"]), "abAB+aa": ("ab", ["abAB", "aa"]),
    "genus2": ("abcd", ["abABcdCD"]), "a^5": ("a", ["aaaaa"]),
    "aaabbb": ("ab", ["aaabbb"]),
    "aab+abb": ("ab", ["aab", "abb"]), "aaa+bbb": ("ab", ["aaa", "bbb"]),
    "xy": ("xy", ["xy"]), "aaab": ("ab", ["aaab"]),
}

# (complex, predicate, blocks, gluing rows, SHA-256 of the concatenated
# canonical block keys in catalogue order)
PINNED_CATALOGUES = [
    ("torus", "surface", 1, 0,
     "d4c04f2bc216f782567e6f181ffb23f085139d01a564419ceda7295ac4e4cbcc"),
    ("torus", "irreducible", 1, 0,
     "d4c04f2bc216f782567e6f181ffb23f085139d01a564419ceda7295ac4e4cbcc"),
    ("aa", "surface", 1, 0,
     "70990880cba325695c6bc5d31c1a339a1a187ecc50ec8c248ef353f4fd542a7a"),
    ("aa", "irreducible", 1, 0,
     "70990880cba325695c6bc5d31c1a339a1a187ecc50ec8c248ef353f4fd542a7a"),
    ("abab", "surface", 2, 2,
     "185ea7923495b2b476814ab9aaa0b3e98f1152bca28cef91a364358f9b9da7ef"),
    ("abab", "irreducible", 2, 2,
     "185ea7923495b2b476814ab9aaa0b3e98f1152bca28cef91a364358f9b9da7ef"),
    ("a^4", "surface", 12, 10,
     "84aa67116f6a0f88d70a69f5acc1eb8d0eed3a52b28e7275fe28db2a01facd29"),
    ("a^4", "irreducible", 17, 14,
     "5db26cf0f1234fbb801bb6452523bf95aff58d17666a056b48730dd0732b7e90"),
    ("abAB+aa", "surface", 12, 9,
     "c37bd5666a290d46251c51c906fb909922cc8de873e9d5fca1d35eeff0474aaf"),
    ("abAB+aa", "irreducible", 17, 11,
     "823044ad60bf1170c6ba20fae741076f28220d84fdf013dbfd2033b59fdba99d"),
    ("genus2", "surface", 1, 0,
     "a562a3d2ef25a5e14b64075c6238245822ccc25dc5bcef1ec1e6df7b0249d63b"),
    ("genus2", "irreducible", 1, 0,
     "a562a3d2ef25a5e14b64075c6238245822ccc25dc5bcef1ec1e6df7b0249d63b"),
    ("a^5", "surface", 40, 40,
     "0ba16a947e53f937f9c1ab92dcef805e3bf35fdd405760fcf5849deaf935413f"),
    ("a^5", "irreducible", 76, 75,
     "cf16a579b8163c20e26077ef6b0c7addcc104fd4413110d8bd4f3574e78b62b6"),
    ("aaabbb", "surface", 6, 6,
     "307693b8977bd25fa7c6b874b7b5b3fe4c67b56c859a1065bbe6e245ca61a45d"),
    ("aaabbb", "irreducible", 13, 8,
     "e5cc71890cc8f78cab649a863c9dc1d60bfd0d96cb6dee48b85ec9824fae2dd8"),
    ("aab+abb", "surface", 6, 6,
     "5c9d41f137ca96f4155ea192405cf55d53b8d8a338473b996e7ccf89f3e8feaf"),
    ("aab+abb", "irreducible", 13, 8,
     "fc3801881ae2b7c9723eb8ec0347a67bd7ee3675f286162f2948d8cc11074709"),
    ("aaa+bbb", "surface", 6, 6,
     "b6f85ae55415ffd655e960c76d4cfe7d9e7ccabc67c1726832d1f1091f23429b"),
    ("aaa+bbb", "irreducible", 8, 6,
     "bf6931ee81bdbeb52b695b4817e8036b28cb817d58b30fd119d2ba0dccd944d9"),
    ("xy", "surface", 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("xy", "irreducible", 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("aaab", "surface", 1, 2,
     "01d3bd7d5a670918b7a94cd9f8450fe780f93321467e35213349e1bbc28475e9"),
    ("aaab", "irreducible", 1, 2,
     "01d3bd7d5a670918b7a94cd9f8450fe780f93321467e35213349e1bbc28475e9"),
    ("theta-sphere", "surface", 2, 3,
     "ef961b7efa628d5c61817a4ab4450f8827ee2523ae8ec623fef91f69920cdb3a"),
    ("theta-sphere", "irreducible", 2, 3,
     "ef961b7efa628d5c61817a4ab4450f8827ee2523ae8ec623fef91f69920cdb3a"),
]


@pytest.mark.parametrize("name, predicate, blocks, rows, digest",
                         PINNED_CATALOGUES,
                         ids=[f"{p[0]}-{p[1]}" for p in PINNED_CATALOGUES])
def test_catalogue_is_pinned(name, predicate, blocks, rows, digest):
    x = corpus_complex(name)
    cone = build_cone(x, predicate)
    assert (len(cone.blocks), len(cone.gluing_rows)) == (blocks, rows)
    assert hashlib.sha256(b"".join(cone.variables)).hexdigest() == digest


def corpus_complex(name):
    return (theta_sphere() if name == "theta-sphere"
            else from_presentation(*CATALOGUE_COMPLEXES[name]))


def catalogue_keys(name, predicate):
    x = corpus_complex(name)
    return [b.key for b in enumerate_vertex_blocks(x, predicate)]


CATALOGUE_NAMES = [*CATALOGUE_COMPLEXES, "theta-sphere"]


def test_block_separation_matches_the_reference():
    """On the vertex space of every corpus block, one search finds what
    the per-member walks find, for the open classes (none separates in
    a catalogue) and, as other classes on the same space, the closed
    ones."""
    found = {None: 0, "separated": 0}
    for name in CATALOGUE_NAMES:
        surface, irreducible = enumerate_catalogues(
            corpus_complex(name), ("surface", "irreducible"))
        for b in {id(b): b for b in surface + irreducible}.values():
            comp = b.component_of
            crep = _class_reps(b.closed_rel)
            ref = reference_vertex_space(b.parts, comp, crep)
            for rel in (b.open_rel, b.closed_rel):
                got = curv2x.origami.open_separation(rel, comp, crep)
                assert got == reference_open_separation(ref, rel, comp)
                assert got is None or rel is b.closed_rel
                found[None if got is None else "separated"] += 1
    assert all(found.values())
SWEEP = sweep_words()


def random_relation(parts, rng):
    """A seeded random partition of the parts into up to len(parts)
    classes, as a list of classes."""
    k = rng.randint(1, len(parts))
    classes = {}
    for p in parts:
        classes.setdefault(rng.randrange(k), []).append(p)
    return list(classes.values())


def test_validator_matches_the_multigraph_reference():
    """validate_vertex_block, whose spaces are union-finds, reports what
    the multigraph validator it replaced reports, under both predicates:
    on every block of the corpus, the sweep and a^6, and on blocks over
    the same parts with seeded random open and closed relations.  Every
    condition but immersive (a property of the parts, which the search
    keeps) is seen both true and false."""
    rng = random.Random(27)
    seen = set()
    complexes = ([corpus_complex(name) for name in CATALOGUE_NAMES]
                 + [from_presentation("ab", [w]) for w in SWEEP]
                 + [from_presentation("a", ["aaaaaa"])])
    for x in complexes:
        catalogues = enumerate_catalogues(x, JOINT)
        for b in {id(b): b for c in catalogues for b in c}.values():
            rebuilt = [VertexBlock(x, b.base_vertex, b.parts,
                                   random_relation(b.parts, rng),
                                   random_relation(b.parts, rng))
                       for _ in range(2)]
            for c in [b, *rebuilt]:
                for predicate in JOINT:
                    report = validate_vertex_block(c, predicate)
                    assert report == reference_validate_vertex_block(
                        c, predicate)
                    seen.update(report.items())
    assert {k for k, ok in seen if ok} == set(report)
    assert {k for k, ok in seen if not ok} == set(report) - {"immersive"}


def both_catalogues(x):
    return [b for predicate in ("surface", "irreducible")
            for b in enumerate_vertex_blocks(x, predicate)]


def shadows(blocks):
    """Every block's reference shadows (`gen.induced_edge_block`) and
    their opposites."""
    out = []
    for b in blocks:
        for e in b.complex.skeleton.link(b.base_vertex):
            g = induced_edge_block(b, e)
            out += [g, opposite_edge_block(g)]
    return out


def assert_keys_match_the_reference(blocks):
    """Each key is the reference key, parts and classes are listed in the
    reference order, and two blocks are equal exactly when their
    reference payloads are."""
    ref = [reference_block_key(b) for b in blocks]
    for b, key in zip(blocks, ref):
        assert b.key == key
        assert list(b.parts) == reference_sorted(b.parts)
        for rel in (b.open_rel, b.closed_rel):
            classes = [frozenset(c) for c in rel]
            assert classes == reference_sorted(classes)
            assert all(list(c) == reference_sorted(c) for c in rel)
    for b1, k1 in zip(blocks, ref):
        for b2, k2 in zip(blocks, ref):
            assert (b1 == b2) == (k1 == k2)


def assert_shadow_keys_name_the_shadows(blocks):
    """Two reference shadows get one key exactly when they are equal, so
    no two shadows share a gluing row by accident."""
    shown = shadows(blocks)
    keys = [reference_block_key(g) for g in shown]
    for g1, k1 in zip(shown, keys):
        for g2, k2 in zip(shown, keys):
            assert (g1 == g2) == (k1 == k2)


def assert_cone_matches_the_reference_shadows(x):
    """The cone keys each shadow straight off its vertex block; the
    reference builds every shadow and its opposite as data and keys
    those.  Both give the same edges, shadow bytes, plus and minus
    blocks and gluing rows, in the same order."""
    for predicate in ("surface", "irreducible"):
        blocks = enumerate_vertex_blocks(x, predicate)
        cone = ConeSystem(x, predicate, blocks)
        sides = reference_sides(x, blocks)
        assert list(cone._sides.items()) == list(sides.items())
        assert list(cone.gluing_rows) == \
            reference_gluing_rows(sides, cone.variables)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_block_keys_match_the_reference(name):
    blocks = both_catalogues(corpus_complex(name))
    assert_keys_match_the_reference(blocks)
    assert_shadow_keys_name_the_shadows(blocks)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_cone_matches_the_reference_shadows(name):
    assert_cone_matches_the_reference_shadows(corpus_complex(name))


@pytest.mark.parametrize("word", SWEEP)
def test_cone_matches_the_reference_shadows_on_the_sweep(word):
    assert_cone_matches_the_reference_shadows(from_presentation("ab", [word]))


def assert_glue_matches_the_reference(x):
    """Reconstruction glues a plus copy to a minus copy part by part in
    shadow-key order (the positions `VertexBlock.shadows` keeps); on
    every plus/minus pair of blocks of every gluing row of both cones,
    that meets each part with the mate the element lookup of
    `gen.reference_glue` finds."""
    def glue(b, can, side):
        return next(positions for c, _, s, positions in b.shadows()
                    if (c, s) == (can, side))

    pairs = 0
    for cone in build_cones(x, ("surface", "irreducible")).values():
        for (can, _), (plus, minus) in cone._sides.items():
            for bi in plus:
                p = cone.blocks[bi]
                for bj in minus:
                    q = cone.blocks[bj]
                    ours = dict(zip(glue(p, can, 0), glue(q, can, 1)))
                    assert ours == reference_glue(p, q, can)
                    pairs += 1
    return pairs


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_glue_matches_the_reference(name):
    assert_glue_matches_the_reference(corpus_complex(name))


@pytest.mark.parametrize("word", SWEEP)
def test_glue_matches_the_reference_on_the_sweep(word):
    assert_glue_matches_the_reference(from_presentation("ab", [word]))


def test_glue_matches_the_reference_on_a6():
    # one block on each side of every shadow either cone pairs
    assert assert_glue_matches_the_reference(
        from_presentation("a", ["aaaaaa"])) == 225 + 437


def test_cone_ranks_each_shadow_once(monkeypatch):
    """The cone ranks one key per (block, direction) pair with parts: a
    shadow over a reverse edge is moved across and ranked once, never
    ranked and then ranked again as its opposite."""
    x = corpus_complex("a^5")
    ordered = curv2x.blocks._ordered
    for predicate in ("surface", "irreducible"):
        blocks = enumerate_vertex_blocks(x, predicate)
        keyed = []

        def counting_ordered(kind, *args):
            keyed.append(kind)
            return ordered(kind, *args)

        monkeypatch.setattr(curv2x.blocks, "_ordered", counting_ordered)
        ConeSystem(x, predicate, blocks)
        monkeypatch.undo()
        shown = sum(1 for b in blocks
                    for e in x.skeleton.link(b.base_vertex) if b.parts_at(e))
        assert keyed == ["edge-block"] * shown


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_keys_match_the_reference_on_mixed_ids(data):
    """Boundary ids of every kind sort_key orders; their key order and
    sort_key's order of the raw ids disagree (a frozenset prints as a
    tagged tuple), so only ranking printed corners matches the key."""
    name = data.draw(st.sampled_from(
        ["torus", "aa", "abab", "a^4", "abAB+aa", "aab+abb", "aaab",
         "theta-sphere"]))
    x = corpus_complex(name)
    sx = x.boundary

    def names(items):
        return dict(zip(items, data.draw(st.lists(
            mixed_ids, min_size=len(items), max_size=len(items),
            unique=True))))

    y = rename_boundary(x, names(sx.edges), names(sx.vertices))
    blocks = both_catalogues(y)
    assert len(blocks) == len(both_catalogues(x))
    assert_keys_match_the_reference(blocks)
    assert_shadow_keys_name_the_shadows(blocks)
    assert_cone_matches_the_reference_shadows(y)
    assert_components_are_the_upper_links(blocks)


def assert_components_are_the_upper_links(blocks):
    """Each block's component_of has the components of its upper link as
    classes, each named by its first part in key order.  The upper
    link names a component by its least part as sort_key orders the raw
    ids, so the two maps are equal outright when the ids are ints and
    strings (asserted on the corpus and the sweep below)."""
    for b in blocks:
        ours, theirs = {}, {}
        for p in b.parts:
            ours.setdefault(b.component_of[p], []).append(p)
        for p, r in upper_link(b).component_map().items():
            theirs.setdefault(r, []).append(p)
        assert all(ps[0] == r for r, ps in ours.items())
        assert set(map(frozenset, ours.values())) == \
            set(map(frozenset, theirs.values()))


@pytest.mark.parametrize("predicate, test",
                         [("surface", surface_link),
                          ("irreducible", irreducible_link)],
                         ids=["surface", "irreducible"])
@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_pruned_search_matches_full_search(name, predicate, test):
    """A built-in predicate generates only parts of the sizes it accepts;
    the same test behind a lambda declares no sizes and searches all."""
    assert catalogue_keys(name, predicate) == \
        catalogue_keys(name, lambda g: test(g))


@pytest.mark.parametrize("predicate, test",
                         [("surface", surface_link),
                          ("irreducible", irreducible_link)],
                         ids=["surface", "irreducible"])
@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_builtin_function_searches_like_its_name(monkeypatch, name,
                                                 predicate, test):
    """Passing the built-in function itself keeps its valence bounds:
    the same catalogue from the same number of search nodes."""
    assert search_nodes(monkeypatch, name, test) == \
        search_nodes(monkeypatch, name, predicate)


def recorded_budgets(monkeypatch):
    """Every per-vertex budget the block search makes from now on."""
    budgets = []

    class Recording(curv2x.blocks._Budget):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(curv2x.blocks, "_Budget", Recording)
    return budgets


def search_nodes(monkeypatch, name, pred):
    """The catalogue's keys and, per base vertex, the search nodes its
    enumeration visited, as (vertex, _Budget.used)."""
    budgets = recorded_budgets(monkeypatch)
    keys = catalogue_keys(name, pred)
    return keys, [(b.vertex, b.used) for b in budgets]


@pytest.mark.parametrize("predicate, used",
                         [("surface", 496), ("irreducible", 1038)],
                         ids=["surface", "irreducible"])
def test_search_node_count_is_pinned(monkeypatch, predicate, used):
    """Where a block condition is decided may not move a search node:
    --max-blocks must cut the search of a^5 at the same node."""
    keys, budgets = search_nodes(monkeypatch, "a^5", predicate)
    assert budgets == [("v0", used)]
    x = corpus_complex("a^5")
    assert [b.key for b in enumerate_vertex_blocks(x, predicate, used)] == \
        keys
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_vertex_blocks(x, predicate, used - 1)


def realizer_text(real):
    """A realizer's canonical complex and certificate, as the CLI emits
    them, and its transcript."""
    y, phi, omega = canonical_complex(real.complex, real.map, real.origami)
    return (serialize_complex(y),
            serialize_certificate(phi.skeleton_map, omega), real.transcript)


def assert_each_optimum_is_realized_once(monkeypatch, x):
    """invariants(x) reconstructs each distinct (cone, integer vector)
    once, and a reused realizer equals a fresh reconstruction.  Returns
    (finite extrema, distinct optima)."""
    built = []
    rebuild = curv2x.pipeline.reconstruct

    def counting(vector, cone):
        built.append((id(cone), frozenset(vector.items())))
        return rebuild(vector, cone)

    monkeypatch.setattr(curv2x.pipeline, "reconstruct", counting)
    inv = invariants(x)
    monkeypatch.undo()
    first = {}
    for rep in (inv[k] for k in ALL if inv[k].realizer is not None):
        seen = (id(rep.cone), frozenset(rep.integer_vector.items()))
        if seen in first:
            assert rep.realizer is first[seen]
            assert realizer_text(rep.realizer) == \
                realizer_text(reconstruct(rep.integer_vector, rep.cone))
        first.setdefault(seen, rep.realizer)
    assert len(built) == len(set(built)) and set(built) == set(first)
    return sum(inv[k].realizer is not None for k in ALL), len(first)


def test_each_corpus_optimum_is_realized_once(monkeypatch):
    """44 finite extrema over the corpus land on 26 distinct optima; on
    abAB+aa each cone's max and min differ, so all four reconstruct."""
    counts = {name: assert_each_optimum_is_realized_once(
        monkeypatch, corpus_complex(name)) for name in CATALOGUE_NAMES}
    assert tuple(map(sum, zip(*counts.values()))) == (44, 26)
    assert counts["abAB+aa"] == (4, 4)
    assert counts["a^4"] == (4, 2)


@pytest.mark.parametrize("word", SWEEP)
def test_each_sweep_optimum_is_realized_once(monkeypatch, word):
    assert_each_optimum_is_realized_once(monkeypatch,
                                         from_presentation("ab", [word]))


def cone_problem_rows(cone):
    return ([(r.coefficients, 0) for r in cone.gluing_rows]
            + [(cone.area_row, 1)])


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_both_senses_share_the_cleared_rows(monkeypatch, name):
    """Each cone clears its LP rows once: its max and min problems share
    one `equalities` tuple, and solve exactly as freshly built ones."""
    problems = []
    cleared = []
    lp_solve = curv2x.pipeline.solve
    clear = LPProblem._cleared

    def solving(p):
        problems.append(p)
        return lp_solve(p)

    def clearing(self, *args):
        cleared.append(self)
        return clear(self, *args)

    monkeypatch.setattr(curv2x.pipeline, "solve", solving)
    monkeypatch.setattr(LPProblem, "_cleared", clearing)
    inv = invariants(corpus_complex(name))
    monkeypatch.undo()
    solved = [k for k in ALL if inv[k].lp is not None]
    assert len(problems) == len(solved)
    by_name = dict(zip(solved, problems))
    cones = {id(inv[k].cone): inv[k].cone for k in solved}.values()
    assert len(cleared) == sum(len(c.gluing_rows) + 2 for c in cones)
    for hi, lo in (("rho+", "rho-"), ("sigma+", "sigma-")):
        if hi in by_name:
            assert by_name[hi].equalities is by_name[lo].equalities
            assert by_name[hi].objective is by_name[lo].objective
            assert (by_name[hi].sense, by_name[lo].sense) == ("max", "min")
    for k in solved:
        cone, sense = inv[k].cone, INVARIANTS[k][1]
        fresh = LPProblem(cone.variables, cone_problem_rows(cone),
                          cone.tau_row, sense)
        assert repr(curv2x.pipeline.solve(fresh)) == repr(inv[k].lp)


JOINT = ("irreducible", "surface")


def joint_keys(x, predicates, *budget):
    return [[b.key for b in blocks]
            for blocks in enumerate_catalogues(x, predicates, *budget)]


def assert_joint_search_matches_each_predicate(monkeypatch, x):
    """One search for both catalogues gives each predicate's catalogue
    key for key, in order.  It ranks only the blocks it keeps, each
    once: one rank per distinct block of the catalogues, and as many as
    the irreducible search alone, so the surface catalogue costs none."""
    ranked = []
    ordered = curv2x.blocks._ordered

    def counting_ordered(kind, *args):
        ranked.append(kind)
        return ordered(kind, *args)

    monkeypatch.setattr(curv2x.blocks, "_ordered", counting_ordered)
    joint = enumerate_catalogues(x, JOINT)
    kept = {id(b) for blocks in joint for b in blocks}
    once = ["vertex-block"] * len(kept)
    assert ranked == once
    assert len(joint) == len(JOINT)
    for predicate, blocks in zip(JOINT, joint):
        ranked.clear()
        alone = enumerate_vertex_blocks(x, predicate)
        assert [b.key for b in blocks] == [b.key for b in alone]
        if predicate == "irreducible":
            assert ranked == once


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_joint_search_matches_each_predicate(monkeypatch, name):
    assert_joint_search_matches_each_predicate(monkeypatch,
                                               corpus_complex(name))


@pytest.mark.parametrize("word", SWEEP)
def test_joint_search_matches_each_predicate_on_the_sweep(monkeypatch, word):
    assert_joint_search_matches_each_predicate(
        monkeypatch, from_presentation("ab", [word]))


def test_joint_search_matches_each_predicate_on_a6(monkeypatch):
    """On a^6 the search tests open separation before it builds a block,
    so it builds exactly the 437 blocks it keeps."""
    x = from_presentation("a", ["aaaaaa"])
    built = []
    init = VertexBlock.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(VertexBlock, "__init__", counting_init)
    joint = enumerate_catalogues(x, JOINT)
    assert len(built) == len({id(b) for c in joint for b in c}) == 437
    monkeypatch.undo()
    assert_joint_search_matches_each_predicate(monkeypatch, x)


def test_joint_search_node_count_is_pinned(monkeypatch):
    """Surface parts are irreducible parts, so the joint search of a^5
    visits the irreducible search's 1038 nodes and no more."""
    x = corpus_complex("a^5")
    budgets = recorded_budgets(monkeypatch)
    keys = joint_keys(x, JOINT)
    assert [(b.vertex, b.used) for b in budgets] == [("v0", 1038)]
    monkeypatch.undo()
    assert joint_keys(x, JOINT, 1038) == keys
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_catalogues(x, JOINT, 1037)


def test_joint_search_node_count_on_genus2_is_pinned(monkeypatch):
    """A corner set with a fibre of one corner admits no part of two or
    more corners, so it costs the joint search one node and no
    partition: genus 2 visits 297 nodes, and both catalogues equal the
    reference search's."""
    x = corpus_complex("genus2")
    budgets = recorded_budgets(monkeypatch)
    keys = joint_keys(x, JOINT)
    assert [(b.vertex, b.used) for b in budgets] == [("v0", 297)]
    monkeypatch.undo()
    assert keys == [[b.key for b in reference_vertex_blocks(x, predicate)]
                    for predicate in JOINT]
    assert joint_keys(x, JOINT, 297) == keys
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_catalogues(x, JOINT, 296)


def test_corners_are_ranked_once_per_complex(monkeypatch):
    """The first block ranked over a complex ranks its boundary edges,
    calling sort_key once per edge; cones built over the same complex
    again call it no more."""
    ranked = []
    sort_key = curv2x.blocks.sort_key

    def counting(value):
        ranked.append(value)
        return sort_key(value)

    monkeypatch.setattr(curv2x.blocks, "sort_key", counting)
    x = from_presentation("a", ["aaaaa"])
    build_cones(x, JOINT)
    assert sorted(ranked) == sorted(x.boundary.edges)
    ranked.clear()
    build_cones(x, JOINT)
    assert ranked == []


def test_both_cones_rank_each_shadow_once(monkeypatch):
    """A block keys its shadows once, whatever cones it is in: the cones
    of both predicates rank one shadow per (block object, direction
    with parts), though the shared blocks are columns of both."""
    x = corpus_complex("a^5")
    keyed = []
    ordered = curv2x.blocks._ordered

    def counting_ordered(kind, *args):
        keyed.append(kind)
        return ordered(kind, *args)

    monkeypatch.setattr(curv2x.blocks, "_ordered", counting_ordered)
    cones = build_cones(x, JOINT)
    columns = [b for cone in cones.values() for b in cone.blocks]
    distinct = {id(b): b for b in columns}.values()

    def shown(blocks):
        return sum(1 for b in blocks
                   for e in x.skeleton.link(b.base_vertex) if b.parts_at(e))

    assert keyed.count("edge-block") == shown(distinct) < shown(columns)


@pytest.mark.parametrize("name", ["a^4", "abAB+aa", "a^5"])
def test_search_builds_a_vertex_space_only_for_a_split_class(monkeypatch,
                                                             name):
    """Each assembled choice of relations is tested for open separation,
    and its vertex space is built and searched only when an open class
    has parts in two upper-link components."""
    tested, built = [], []
    separation = curv2x.blocks.open_separation
    bridges = curv2x.origami._bridges

    def counting_separation(classes, origin, closed_rep):
        tested.append(any(len({origin[p] for p in c}) > 1 for c in classes))
        return separation(classes, origin, closed_rep)

    def counting_bridges(adj):
        built.append(adj)
        return bridges(adj)

    monkeypatch.setattr(curv2x.blocks, "open_separation",
                        counting_separation)
    monkeypatch.setattr(curv2x.origami, "_bridges", counting_bridges)
    enumerate_catalogues(corpus_complex(name), JOINT)
    assert 0 < len(built) == sum(tested) < len(tested)


def outcome(f, *args):
    """f(*args), or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def malformed(parts, rel):
    """The relation broken in each way the VertexBlock constructor
    rejects: an empty class, a class naming a part the block lacks, two
    classes sharing a part, and a relation that leaves a part out."""
    rel = [list(c) for c in rel]
    unknown = next(q for q in [frozenset().union(*parts),
                               *(frozenset([s]) for p in parts for s in p)]
                   if q not in parts)
    yield rel + [[]]
    yield [rel[0] + [unknown]] + rel[1:]
    if len(rel) > 1:
        yield [rel[0], rel[1] + rel[0][:1]] + rel[2:]
    elif len(rel[0]) > 1:
        yield rel + [rel[0][:1]]
    yield rel[1:]


def assert_ordering_matches_the_reference(blocks):
    """Ranking by the corner table gives the parts, relations and key
    that ranking every corner by sort_key gives (`gen.reference_ordered`)
    for each block, listed out of order, and for each of its shadows
    and their opposites; the VertexBlock constructor rejects each
    malformed relation with the reference's error and message."""
    ordered = curv2x.blocks._ordered
    for b in {id(b): b for b in blocks}.values():
        x, v = b.complex, b.base_vertex
        cases = [("vertex-block", v, b.parts[::-1], b.open_rel[::-1],
                  [c[::-1] for c in b.closed_rel])]
        cases += [("edge-block", g.base_edge, g.partition, g.open_rel,
                   g.closed_rel) for g in shadows([b])]
        got = [outcome(ordered, kind, x, *args) for kind, *args in cases]
        assert got == [outcome(reference_ordered, *case) for case in cases]
        assert len(cases) > 1
        broken = [(rel, b.closed_rel)
                  for rel in malformed(b.parts, b.open_rel)]
        broken += [(b.open_rel, rel)
                   for rel in malformed(b.parts, b.closed_rel)]
        raised = [outcome(VertexBlock, x, v, b.parts, *rels)
                  for rels in broken]
        assert raised == [outcome(reference_ordered, "vertex-block", v,
                                  b.parts, *rels) for rels in broken]
        assert all(r[0] is ValueError for r in raised)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_ordering_matches_the_reference(name):
    assert_ordering_matches_the_reference(
        both_catalogues(corpus_complex(name)))


@pytest.mark.parametrize("word", SWEEP)
def test_ordering_matches_the_reference_on_the_sweep(word):
    assert_ordering_matches_the_reference(
        both_catalogues(from_presentation("ab", [word])))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ordering_matches_the_reference_on_mixed_ids(data):
    """Boundary ids of every kind sort_key orders, on which ranking raw
    ids and ranking printed ones disagree."""
    x = corpus_complex(data.draw(st.sampled_from(CATALOGUE_NAMES)))
    sx = x.boundary

    def names(items):
        return dict(zip(items, data.draw(st.lists(
            mixed_ids, min_size=len(items), max_size=len(items),
            unique=True))))

    y = rename_boundary(x, names(sx.edges), names(sx.vertices))
    assert_ordering_matches_the_reference(both_catalogues(y))


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_joint_search_with_a_custom_predicate(monkeypatch, name):
    """A custom predicate declares no valence bounds, so the joint search
    is its full search, and the built-in's catalogue still comes out as
    it does alone."""
    x = corpus_complex(name)
    asked = []

    def custom(g):
        asked.append(g)
        return irreducible_link(g)

    budgets = recorded_budgets(monkeypatch)
    joint = enumerate_catalogues(x, (custom, "surface"))
    nodes = [(b.vertex, b.used) for b in budgets]
    budgets.clear()
    alone = enumerate_vertex_blocks(x, custom)
    assert [(b.vertex, b.used) for b in budgets] == nodes
    assert [b.key for b in joint[0]] == [b.key for b in alone]
    assert [b.key for b in joint[1]] == catalogue_keys(name, "surface")
    for b in joint[0]:
        asked.clear()
        assert validate_vertex_block(b, custom)["valid"] and asked


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_a_shared_block_is_one_object_checked_once(monkeypatch, name):
    """A block two catalogues admit is one object in both, and the
    validator wraps a custom predicate once, so each accepted call runs
    the suitability check once."""
    suitable = curv2x.branched_complex._suitable
    checks = []

    def counting(g):
        checks.append(g)
        return suitable(g)

    accepted = []

    def custom(g):
        # irreducible, without calling the suitability check itself
        ok = (len(g.vertices) >= 2 and g.is_connected()
              and all(g.valence(v) >= 2 for v in g.vertices))
        accepted.append(ok)
        return ok

    x = corpus_complex(name)
    mine, surface = enumerate_catalogues(x, (custom, "surface"))
    by_key = {b.key: b for b in mine}
    assert all(b is by_key[b.key] for b in surface)

    monkeypatch.setattr(curv2x.branched_complex, "_suitable", counting)
    for b in mine:
        checks.clear()
        accepted.clear()
        assert validate_vertex_block(b, custom)["valid"]
        assert len(checks) == sum(accepted) > 0


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_surface_keys_are_irreducible_keys(name):
    assert set(catalogue_keys(name, "surface")) <= \
        set(catalogue_keys(name, "irreducible"))


# -- Immersive blocks -------------------------------------------------------


def test_sweep_is_every_class_of_short_two_letter_words():
    assert len(SWEEP) == 105
    assert (SWEEP[0], SWEEP[-1]) == ("AB", "Abbbbb")
    assert {"AAABAB", "AAAbAb", "ABABBB", "AbAbbb"} <= set(SWEEP)


def assert_search_matches_the_filtered_reference(x):
    """The search gives the reference's keys, in its order.  It checks
    only the block condition its construction leaves open, yet every
    block passes the full validator, and each keeps its upper link's
    component map."""
    for predicate in ("surface", "irreducible"):
        blocks = enumerate_vertex_blocks(x, predicate)
        assert [b.key for b in blocks] == \
            [b.key for b in reference_vertex_blocks(x, predicate)]
        for b in blocks:
            assert validate_vertex_block(b, predicate)["valid"]
            assert b.component_of == upper_link(b).component_map()


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_search_matches_the_filtered_reference(name):
    """Generating only immersive blocks gives the keys, in the order, of
    the unfiltered search with the immersion rule applied after it, and
    blocks that pass every condition."""
    assert_search_matches_the_filtered_reference(corpus_complex(name))


@pytest.mark.parametrize("word", SWEEP)
def test_search_matches_the_filtered_reference_on_the_sweep(word):
    assert_search_matches_the_filtered_reference(
        from_presentation("ab", [word]))


@pytest.mark.parametrize("name", ["a^4", "abAB+aa"])
def test_dropped_blocks_fail_the_immersion_rule_alone(name):
    """The blocks the rule drops pass every other block condition."""
    x = corpus_complex(name)
    for predicate in ("surface", "irreducible"):
        dropped = [b for b in unfiltered_vertex_blocks(x, predicate)
                   if not immersive_block(b)]
        assert dropped
        for b in dropped:
            report = validate_vertex_block(b, predicate)
            assert {k for k, ok in report.items() if not ok} == \
                {"immersive", "valid"}


@pytest.mark.parametrize("word", SWEEP)
def test_every_finite_extremum_on_the_sweep_has_a_verified_realizer(word):
    x = from_presentation("ab", [word])
    for name, rep in invariants(x).items():
        if isinstance(rep.value, str):
            assert rep.realizer is None
            continue
        assert rep.value == rep.cone.kappa_of(rep.integer_vector)
        assert verify_realizer(rep.realizer, rep.cone,
                               rep.integer_vector) == rep.realizer.transcript
