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
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curv2x.pipeline
from curv2x.blocks import block_census
from curv2x.branched_complex import BranchedComplex, from_presentation
from curv2x.errors import (
    EnumerationBudgetExceeded,
    GluingMismatch,
    VerificationFailed,
    ZeroAreaFace,
)
from curv2x.formats import parse_complex
from curv2x.origami import trivial_origami
from curv2x.pipeline import (
    INVARIANTS,
    block_area,
    block_chi,
    build_cone,
    extremize,
    integer_cone_points,
    invariants,
    reconstruct,
)

from gen import permutation_cover, pullback_complex

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
    assert (len(surf.variables), len(surf.gluing_rows)) == (18, 11)
    assert (len(irr.variables), len(irr.gluing_rows)) == (29, 14)
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
                              rep.cone.predicate, classes=rep.cone.blocks)
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
    calls = []
    enumerate_blocks = curv2x.pipeline.enumerate_vertex_blocks

    def counting(x, predicate, *args, **kwargs):
        calls.append(predicate)
        return enumerate_blocks(x, predicate, *args, **kwargs)

    monkeypatch.setattr(curv2x.pipeline, "enumerate_vertex_blocks", counting)
    inv = invariants(mixed())
    assert calls == ["irreducible", "surface"]
    assert tuple(inv) == tuple(INVARIANTS) == ALL
    assert inv["rho+"].cone is inv["rho-"].cone
    assert inv["sigma+"].cone is inv["sigma-"].cone


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
    return block_census(phi, om, cone.predicate, classes=cone.blocks)


def test_fixture_censuses_lie_in_the_cone():
    x, y, phi, om = a4_double_realizer()
    cone = build_cone(x, "surface")
    vec = block_census(phi, om, "surface", classes=cone.blocks)
    assert cone.contains(vec)
    assert cone.area_of(vec) == y.total_area()
    assert cone.chi_of(vec) == (len(y.skeleton.vertices)
                                - len(y.skeleton.geometric_edges()))

    z, w, psi = abab_realizer()
    zcone = build_cone(z, "surface")
    wec = census_of(psi, zcone)
    assert zcone.contains(wec)
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
    assert len(real.complex.skeleton.components()) == 2
    assert real.complex.total_area() == 2
    assert census_of(real.map, cone, real.origami) == {key: 2}


def test_reconstruct_census_roundtrip():
    x, y, phi, om = a4_double_realizer()
    cone = build_cone(x, "surface")
    vec = block_census(phi, om, "surface", classes=cone.blocks)
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
    with pytest.raises(GluingMismatch):
        reconstruct({t1: 1}, cone)
    with pytest.raises(GluingMismatch):
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
    vec = block_census(phi, om, "surface", classes=cone.blocks)
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
    assert cone.contains(vec)
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
    "genus2": ("abcd", ["abABcdCD"]), "aaabbb": ("ab", ["aaabbb"]),
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
    ("a^4", "surface", 18, 12,
     "d0168ef04ae09fd536244aca997159daa994c336e565885e78dd21a7e7a52a41"),
    ("a^4", "irreducible", 29, 17,
     "177766ee24735b80e30db2c2fa719457ba9a7b73ee26be4bce91d97f86436a6b"),
    ("abAB+aa", "surface", 18, 11,
     "ee171b3e0c850a1a1c319602623182ecaf38e071cfb2444b69481f05698776a6"),
    ("abAB+aa", "irreducible", 29, 14,
     "39dbd31838799576322cec698e68fa97a8303c70c26da4693fc75a9d8a1cbcab"),
    ("genus2", "surface", 1, 0,
     "a562a3d2ef25a5e14b64075c6238245822ccc25dc5bcef1ec1e6df7b0249d63b"),
    ("genus2", "irreducible", 1, 0,
     "a562a3d2ef25a5e14b64075c6238245822ccc25dc5bcef1ec1e6df7b0249d63b"),
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
    x = (theta_sphere() if name == "theta-sphere"
         else from_presentation(*CATALOGUE_COMPLEXES[name]))
    cone = build_cone(x, predicate)
    assert (len(cone.blocks), len(cone.gluing_rows)) == (blocks, rows)
    assert hashlib.sha256(b"".join(cone.variables)).hexdigest() == digest
