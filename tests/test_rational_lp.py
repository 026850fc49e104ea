"""Hand-solved linear programs freezing the simplex behaviour.

Each optimum below was worked out on paper from the vertex description
of the feasible set; the solver must reproduce value and vertex exactly.
The sparse solver is also compared with the dense reference
`gen.reference_solve` on random and gluing-cone LPs.
"""

import copy
import importlib.util
import pathlib
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv2x.branched_complex import from_presentation
from curv2x.errors import LPFailure
from curv2x import rational_lp
from curv2x.pipeline import build_cone
from curv2x.rational_lp import (
    LPProblem,
    check_solution,
    scale_to_integer,
    solve,
    to_fraction,
)
from gen import reference_check_solution, reference_solve
from test_acceptance import theta_sphere


F = Fraction


def test_max_on_segment():
    # feasible set: segment (1,0)-(0,1); objective t1+2t2 maximal at (0,1)
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)],
                  {"t1": 1, "t2": 2}, "max")
    r = solve(p)
    assert r.status == "optimal"
    assert r.value == 2
    assert r.vertex == {"t1": 0, "t2": 1}
    assert r.basis == ("t2",)
    assert check_solution(p, r)


def test_min_on_segment():
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)],
                  {"t1": 1, "t2": 2}, "min")
    r = solve(p)
    assert r.value == 1
    assert r.vertex == {"t1": 1, "t2": 0}
    assert check_solution(p, r)


def test_infeasible_negative_rhs():
    p = LPProblem(["t1"], [({"t1": 1}, -1)], {"t1": 1})
    r = solve(p)
    assert r.status == "infeasible"
    assert not check_solution(p, r)


def test_infeasible_contradictory_rows():
    p = LPProblem(["t1", "t2"],
                  [({"t1": 1, "t2": 1}, 1), ({"t1": 1, "t2": 1}, 2)],
                  {"t1": 1})
    assert solve(p).status == "infeasible"


def test_segment_with_symmetry_row():
    # t2 = t3 cuts the triangle down to the segment (1,0,0)-(0,1/2,1/2)
    rows = [({"t1": 1, "t2": 1, "t3": 1}, 1), ({"t2": 1, "t3": -1}, 0)]
    top = solve(LPProblem(["t1", "t2", "t3"], rows, {"t1": 1}, "max"))
    assert top.value == 1 and top.vertex == {"t1": 1, "t2": 0, "t3": 0}
    bottom = solve(LPProblem(["t1", "t2", "t3"], rows, {"t1": 1}, "min"))
    assert bottom.value == 0
    assert bottom.vertex == {"t1": 0, "t2": F("1/2"), "t3": F("1/2")}


def test_balanced_pair():
    # gluing-style row t1 = t2 with normalization t1+t2 = 1
    rows = [({"t1": 1, "t2": -1}, 0), ({"t1": 1, "t2": 1}, 1)]
    r = solve(LPProblem(["t1", "t2"], rows, {"t1": 1}, "max"))
    assert r.value == F("1/2")
    assert r.vertex == {"t1": F("1/2"), "t2": F("1/2")}
    assert check_solution(LPProblem(["t1", "t2"], rows, {"t1": 1}, "max"), r)


def test_fractional_objective():
    # vertices (2,0) and (0,1): values 2/3 and 1/5
    rows = [({"t1": 1, "t2": 2}, 2)]
    obj = {"t1": F("1/3"), "t2": F("1/5")}
    hi = solve(LPProblem(["t1", "t2"], rows, obj, "max"))
    lo = solve(LPProblem(["t1", "t2"], rows, obj, "min"))
    assert hi.value == F("2/3") and hi.vertex == {"t1": 2, "t2": 0}
    assert lo.value == F("1/5") and lo.vertex == {"t1": 0, "t2": 1}


def test_duplicated_row_is_dropped():
    rows = [({"t1": 1, "t2": 1}, 1), ({"t1": 1, "t2": 1}, 1)]
    p = LPProblem(["t1", "t2"], rows, {"t1": 1}, "max")
    r = solve(p)
    assert r.value == 1 and r.vertex == {"t1": 1, "t2": 0}
    assert len(r.dual) == 2
    assert check_solution(p, r)


def test_duals_of_negated_and_redundant_rows():
    # row 0 is negated before phase 1 and row 1 becomes 0 = 0 and is
    # dropped; the duals read off the final tableau must still certify
    rows = [({"t1": -1, "t2": -1}, -1), ({"t1": 1, "t2": 1}, 1),
            ({"t1": 1, "t3": 1}, 1)]
    for sense in ("max", "min"):
        p = LPProblem(["t1", "t2", "t3"], rows, {"t1": 2, "t3": 1}, sense)
        r = solve(p)
        assert r.value == (2 if sense == "max" else 1)
        assert len(r.dual) == 3
        assert check_solution(p, r)


def test_phase1_cleanup_pivots_on_a_negative_entry():
    # row 2 reads -t2 = 0.  Phase 1 enters t1 on row 1 and ends with
    # the artificial of row 2 basic at 0, so the clean-up pivots on the
    # -1 of t2 and the row changes sign.  The feasible set is the
    # segment t1 + t3 = 3/2, t2 = 0; the duals y price the objective
    # c = (1, 5, 2) (negated for min) with zero reduced cost on the
    # basis, and y.b is the value.
    rows = [({"t1": 1, "t2": 1, "t3": 1}, F(3, 2)), ({"t2": -1}, 0)]
    obj = {"t1": 1, "t2": 5, "t3": 2}
    expected = {
        "max": (3, {"t1": 0, "t2": 0, "t3": F(3, 2)}, ("t2", "t3"),
                (2, -3), 3),
        "min": (F(3, 2), {"t1": F(3, 2), "t2": 0, "t3": 0}, ("t1", "t2"),
                (-1, 4), 2),
    }
    for sense, (value, vertex, basis, dual, pivots) in expected.items():
        p = LPProblem(["t1", "t2", "t3"], rows, obj, sense)
        r = solve(p)
        assert (r.value, r.vertex, r.basis, r.dual, r.pivots) \
            == (value, vertex, basis, dual, pivots)
        assert check_solution(p, r)
        assert_same_as_reference(p)


def test_zero_objective_phase1_vertex():
    # Bland's rule enters t1 first in phase 1, so the returned vertex
    # is the (1,0) endpoint
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)], {}, "max")
    r = solve(p)
    assert r.value == 0
    assert r.vertex == {"t1": 1, "t2": 0}
    assert check_solution(p, r)


def test_unbounded_is_an_error():
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": -1}, 0)], {"t1": 1}, "max")
    with pytest.raises(LPFailure):
        solve(p)


def test_three_face_cone():
    # rows force t1 = t2 + t3; with the normalization the maximum of t3
    # sits at (1/2, 0, 1/2)
    rows = [({"t1": 1, "t2": -1, "t3": -1}, 0),
            ({"t1": 1, "t2": 1, "t3": 1}, 1)]
    r = solve(LPProblem(["t1", "t2", "t3"], rows, {"t3": 1}, "max"))
    assert r.value == F("1/2")
    assert r.vertex == {"t1": F("1/2"), "t2": 0, "t3": F("1/2")}


def test_degenerate_vertex():
    # three planes through (1,0,0): the optimum is degenerate but exact
    rows = [({"t1": 1, "t2": 1, "t3": 1}, 1),
            ({"t2": 1, "t3": 1}, 0)]
    r = solve(LPProblem(["t1", "t2", "t3"], rows, {"t1": 2, "t3": 1}, "max"))
    assert r.value == 2
    assert r.vertex == {"t1": 1, "t2": 0, "t3": 0}
    assert check_solution(
        LPProblem(["t1", "t2", "t3"], rows, {"t1": 2, "t3": 1}, "max"), r)


def test_rejects_tampering():
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)],
                  {"t1": 1, "t2": 2}, "max")
    r = solve(p)
    assert check_solution(p, r)
    bumped = dict(r.vertex)
    bumped["t1"] += 1
    assert not check_solution(p, replace(r, vertex=bumped))
    assert not check_solution(p, replace(r, value=r.value + 1))
    negated = {"t1": Fraction(2), "t2": Fraction(-1)}
    assert not check_solution(p, replace(r, vertex=negated))
    # a feasible but suboptimal vertex fails the dual test
    assert not check_solution(p, replace(r, vertex={"t1": 1, "t2": 0},
                                         value=Fraction(1)))
    # with a zero objective every feasible point is optimal with dual 0,
    # so only nonnegativity rules this one out
    flat = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)], {}, "max")
    r = solve(flat)
    assert check_solution(flat, r)
    assert not check_solution(flat, replace(r, vertex={"t1": 2, "t2": -1}))


def test_problem_validation():
    with pytest.raises(ValueError):
        LPProblem(["t", "t"], [], {})
    with pytest.raises(ValueError):
        LPProblem(["t"], [], {}, sense="best")
    with pytest.raises(ValueError):
        LPProblem(["t"], [], {"u": 1})
    with pytest.raises(ValueError):
        LPProblem(["t"], [({"t": 1, "u": 2}, 0)], {})
    # rows and the objective are dicts only; a sequence is refused with
    # a ValueError rather than failing on a missing attribute
    for rows, objective in [([([1], 0)], {}), ([], [1])]:
        with pytest.raises(ValueError, match="dict"):
            LPProblem(["t"], rows, objective)
    with pytest.raises(TypeError):
        LPProblem(["t"], [], {"t": 0.5})


def test_scale_to_integer():
    assert scale_to_integer([F("1/2"), F("1/3")]) == [3, 2]
    assert scale_to_integer([2, 4]) == [1, 2]
    assert scale_to_integer([F("2/3"), F("4/3")]) == [1, 2]
    assert scale_to_integer([0, 0]) == [0, 0]
    assert scale_to_integer({"a": F("1/2"), "b": 1}) == {"a": 1, "b": 2}
    with pytest.raises(ValueError):
        scale_to_integer([F("-1/2")])
    assert scale_to_integer([]) == []


def test_to_fraction_guards():
    assert to_fraction("7/4") == F("7/4")
    with pytest.raises(TypeError):
        to_fraction(1.0)
    with pytest.raises(TypeError):
        to_fraction(True)


def test_determinism():
    rows = [({"a": 1, "b": 2, "c": 1}, 3), ({"b": 1, "c": -1}, 0)]
    p = LPProblem(["a", "b", "c"], rows, {"a": 1, "b": 1}, "max")
    assert solve(p) == solve(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 4),
       st.booleans())
def test_random_feasible_problems(seed, n, m, minimize):
    # feasibility by construction: pick a nonnegative point x0, set the
    # right-hand sides to A.x0, and bound the region with a simplex row
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(n)]
    x0 = {v: Fraction(rng.randint(0, 3)) for v in names}
    rows = []
    for _ in range(m):
        coeffs = {v: Fraction(rng.randint(-3, 3)) for v in names}
        rows.append((coeffs, sum(c * x0[v] for v, c in coeffs.items())))
    rows.append(({v: Fraction(1) for v in names}, sum(x0.values())))
    obj = {v: Fraction(rng.randint(-3, 3)) for v in names}
    p = LPProblem(names, rows, obj, "min" if minimize else "max")
    r = solve(p)
    budget = 10 * (n + m + 2) ** 2
    assert r.pivots <= budget
    assert r.status == "optimal"
    assert check_solution(p, r)
    witness = sum(c * x0[v] for v, c in obj.items())
    if minimize:
        assert r.value <= witness
    else:
        assert r.value >= witness


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_degenerate_duplicates_terminate(seed, n):
    # duplicated and scaled rows create degenerate bases; Bland's rule
    # must still terminate within the budget
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(n)]
    base = {v: Fraction(rng.randint(0, 2)) for v in names}
    if all(c == 0 for c in base.values()):
        base[names[0]] = Fraction(1)
    rows = [(base, 1), (base, 1), ({v: 2 * c for v, c in base.items()}, 2),
            ({v: Fraction(1) for v in names}, 1)]
    obj = {v: Fraction(rng.randint(-2, 2)) for v in names}
    p = LPProblem(names, rows, obj, "max")
    r = solve(p)
    assert r.pivots <= 10 * (n + 6) ** 2
    if r.status == "optimal":
        assert check_solution(p, r)


def test_check_reads_each_dual_entry_over_its_own_row():
    # the dual multiplies the given rows.  Row 0 is stored as twice its
    # given row and row 1 as it is, so the dual of the stored rows, and
    # the dual scaled by row 0's d, must both fail
    rows = [({"t1": 1, "t2": 1, "t3": 1}, F(3, 2)), ({"t2": -1}, 0)]
    p = LPProblem(["t1", "t2", "t3"], rows, {"t1": 1, "t2": 5, "t3": 2})
    assert [d for _, _, d in p.equalities] == [2, 1]
    r = solve(p)
    assert r.dual == (2, -3) and check_solution(p, r)
    for factor in (F(1, 2), 2):
        dual = (r.dual[0] * factor, r.dual[1])
        assert not check_solution(p, replace(r, dual=dual))


def test_vertex_with_an_unknown_variable_is_rejected():
    p = LPProblem(["t1", "t2"], [({"t1": 1, "t2": 1}, 1)],
                  {"t1": 1, "t2": 2}, "max")
    r = solve(p)
    assert check_solution(p, r)
    for extra in (Fraction(0), Fraction(1, 7)):
        ghost = {**r.vertex, "t3": extra}
        assert not check_solution(p, replace(r, vertex=ghost))


def test_rows_are_stored_once_as_nonzero_terms():
    # each row is stored as (terms, rhs, d): its nonzero terms times d in
    # column order, its right-hand side times d, and d, the least common
    # denominator of both; the objective likewise, with right-hand side 0
    p = LPProblem(["t1", "t2", "t3"],
                  [({"t3": 2, "t1": 0, "t2": F("-1/2")}, 1),
                   ({"t2": F("-1/2"), "t3": 2}, "1/3"),
                   ({"t3": F(4), "t1": F(2, 3)}, F(6))],
                  {"t2": F(3, 4), "t1": 0})
    assert p.equalities == ((((1, -1), (2, 4)), 2, 2),
                            (((1, -3), (2, 12)), 2, 6),
                            (((0, 2), (2, 12)), 18, 3))
    assert p.objective == (((1, 3),), 0, 4)
    assert all(type(x) is int
               for terms, rhs, d in p.equalities + (p.objective,)
               for x in (rhs, d, *(a for _, a in terms)))
    assert LPProblem(["t1"], [({"t1": 0}, 0)], {}).equalities \
        == (((), 0, 1),)
    assert not hasattr(p, "terms") and not hasattr(p, "objective_terms")


def assert_same_as_reference(p):
    """solve(p) equals the dense reference in every field (compared by
    repr too, so the types of the entries and the order of the vertex
    keys must match), or both raise the same LPFailure."""
    try:
        expected = reference_solve(p)
    except LPFailure as exc:
        with pytest.raises(LPFailure) as info:
            solve(p)
        assert str(info.value) == str(exc)
        return "unbounded"
    got = solve(p)
    assert got == expected
    assert repr(got) == repr(expected)
    return got.status


def random_lp(rng):
    """A random sparse LP: about a third of the entries nonzero, signed
    right-hand sides, and sometimes a duplicated, scaled or summed row
    or a normalization row."""
    n = rng.randint(1, 7)
    names = [f"t{i}" for i in range(n)]
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for v in names if rng.random() < 0.35}
        rows.append((coeffs, rng.randint(-3, 3)))
    extra = rng.random()
    if extra < 0.2:
        rows.append(rows[rng.randrange(len(rows))])
    elif extra < 0.35:
        row, rhs = rows[rng.randrange(len(rows))]
        rows.append(({v: -2 * a for v, a in row.items()}, -2 * rhs))
    elif extra < 0.5 and len(rows) > 1:
        (r1, b1), (r2, b2) = rng.sample(rows, 2)
        rows.append(({v: r1.get(v, 0) + r2.get(v, 0) for v in names},
                     b1 + b2))
    if rng.random() < 0.5:
        rows.append(({v: 1 for v in names}, rng.randint(0, 3)))
    rng.shuffle(rows)
    obj = {v: rng.randint(-3, 3) for v in names if rng.random() < 0.6}
    return LPProblem(names, rows, obj, rng.choice(("max", "min")))


def test_random_lps_reach_every_outcome():
    # the differential test below draws from these: every outcome of
    # solve, and redundant rows, must come up
    outcomes = set()
    dropped = False
    for seed in range(300):
        p = random_lp(random.Random(seed))
        outcome = assert_same_as_reference(p)
        outcomes.add(outcome)
        if outcome == "optimal":
            dropped |= len(solve(p).basis) < len(p.equalities)
    assert outcomes == {"optimal", "infeasible", "unbounded"}
    assert dropped


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_sparse_solve_matches_the_dense_reference(seed):
    p = random_lp(random.Random(seed))
    if assert_same_as_reference(p) == "optimal":
        assert check_solution(p, solve(p))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97)


def wide_lp(rng):
    """A random LP with wide coefficients: numerators up to ±10^4 over
    prime denominators up to 97, and fractional right-hand sides.  Half
    of them pass through a nonnegative point x0, so they are feasible,
    and most get a positive normalization row, so they are bounded."""
    def wide(lo=-10 ** 4):
        return Fraction(rng.randint(lo, 10 ** 4), rng.choice(PRIMES))

    n = rng.randint(1, 6)
    names = [f"t{i}" for i in range(n)]
    x0 = {v: wide(0) for v in names if rng.random() < 0.7}
    through_x0 = rng.random() < 0.5
    rows = [{v: wide() for v in names if rng.random() < 0.5}
            for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.7:
        rows.append({v: wide(1) for v in names})
    rows = [(row, sum(a * x0.get(v, 0) for v, a in row.items())
             if through_x0 else wide()) for row in rows]
    obj = {v: wide() for v in names if rng.random() < 0.7}
    return LPProblem(names, rows, obj, rng.choice(("max", "min")))


def test_wide_lps_reach_every_outcome():
    # the differential test below draws from these: both outcomes of
    # solve, and optima whose denominators outgrow the input's, must
    # come up
    outcomes = set()
    widest = 0
    for seed in range(60):
        p = wide_lp(random.Random(seed))
        outcome = assert_same_as_reference(p)
        outcomes.add(outcome)
        if outcome == "optimal":
            widest = max(widest, solve(p).value.denominator)
    assert {"optimal", "infeasible"} <= outcomes
    assert widest > 10 ** 6


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_wide_lps_match_the_dense_reference(seed):
    p = wide_lp(random.Random(seed))
    if assert_same_as_reference(p) == "optimal":
        assert check_solution(p, solve(p))


def dependent_lp(rng):
    """A random LP with coefficients other than ±1 and rows that depend
    on the others: scaled copies of a row and combinations of two.  Half
    of them pass through a nonnegative point x0, so they are feasible,
    and most get a normalization row of positive weights, so they are
    bounded."""
    def coefficient():
        return Fraction(rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                        rng.choice((1, 1, 1, 2, 3)))

    n = rng.randint(2, 8)
    names = [f"t{i}" for i in range(n)]
    x0 = {v: Fraction(rng.randint(0, 4), rng.choice((1, 2)))
          for v in names if rng.random() < 0.7}
    rows = [{v: coefficient() for v in names if rng.random() < 0.45}
            for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 3)):
        r1, r2 = rng.choice(rows), rng.choice(rows)
        k1, k2 = coefficient(), rng.choice((0, 0, 1, -2, Fraction(3, 2)))
        rows.append({v: k1 * r1.get(v, 0) + k2 * r2.get(v, 0)
                     for v in names})
    if rng.random() < 0.8:
        rows.append({v: rng.randint(1, 4) for v in names})
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows = [(row, sum(a * x0.get(v, 0) for v, a in row.items()))
                for row in rows]
    else:
        rows = [(row, rng.randint(-3, 3)) for row in rows]
    obj = {v: coefficient() for v in names if rng.random() < 0.7}
    return LPProblem(names, rows, obj, rng.choice(("max", "min")))


def test_dependent_lps_reach_every_outcome(monkeypatch):
    # the differential test below draws from these.  Besides every
    # outcome of solve, three paths of a pivot must come up: a pivot on
    # an entry other than 1 (only such a pivot rescales the reduced
    # costs, calling _lowest_terms after the two set-ups), a row that
    # phase 1 leaves as 0 = 0 (the basis is then shorter than the rows),
    # and a heap entry gone stale other than by entering (a run pivot's
    # entering column is popped once, so more pops than pivots)
    calls = {"_lowest_terms": 0, "heappop": 0}
    for name in calls:
        def counted(*args, real=getattr(rational_lp, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(rational_lp, name, counted)
    outcomes = set()
    scaled = retired = stale = False
    for seed in range(300):
        p = dependent_lp(random.Random(seed))
        before = dict(calls)
        outcome = assert_same_as_reference(p)
        outcomes.add(outcome)
        if outcome == "optimal":
            rescaled = calls["_lowest_terms"] - before["_lowest_terms"]
            pops = calls["heappop"] - before["heappop"]
            r = solve(p)
            scaled |= rescaled > 2
            stale |= pops > r.pivots
            retired |= len(r.basis) < len(p.equalities)
    assert outcomes == {"optimal", "infeasible", "unbounded"}
    assert scaled and retired and stale


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_dependent_lps_match_the_dense_reference(seed):
    p = dependent_lp(random.Random(seed))
    if assert_same_as_reference(p) == "optimal":
        assert check_solution(p, solve(p))


@pytest.mark.parametrize("make", [random_lp, wide_lp, dependent_lp],
                         ids=["random", "wide", "dependent"])
def test_stored_rows_are_the_given_rows_cleared(make, monkeypatch):
    # each stored (terms, rhs, d) is its given row times d, zeros
    # dropped and columns in order, and d is the least denominator that
    # clears the row and its right-hand side
    given = []

    def recorded(variables, rows, objective, sense):
        given.append(list(rows) + [(objective, 0)])
        return rational_lp.LPProblem(variables, rows, objective, sense)

    monkeypatch.setitem(globals(), "LPProblem", recorded)
    for seed in range(100):
        p = make(random.Random(seed))
        rows = given.pop()
        for (row, rhs), (terms, b, d) in zip(
                rows, p.equalities + (p.objective,), strict=True):
            want = {p._index[v]: F(a) for v, a in row.items() if a}
            assert [j for j, _ in terms] == sorted(want)
            assert {j: F(a, d) for j, a in terms} == want
            assert F(b, d) == F(rhs)
            assert d == lcm(F(rhs).denominator,
                            *(a.denominator for a in want.values()))
            assert all(type(x) is int for x in (b, d, *dict(terms).values()))


def tampered(rng, r):
    """The result itself, then the result with one vertex entry, one
    dual entry or the value changed by a random rational."""
    def delta():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                        rng.choice((1, 2, 3, 7, 97)))

    yield r
    v = rng.choice(list(r.vertex))
    yield replace(r, vertex={**r.vertex, v: r.vertex[v] + delta()})
    if r.dual:
        dual = list(r.dual)
        dual[rng.randrange(len(dual))] += delta()
        yield replace(r, dual=tuple(dual))
    yield replace(r, value=r.value + delta())


def assert_checks_agree(p, seed):
    """check_solution and the Fraction reference accept and reject the
    same results; the optimum itself is accepted."""
    r = solve(p)
    verdicts = [(check_solution(p, t), reference_check_solution(p, t))
                for t in tampered(random.Random(seed), r)]
    assert verdicts[0] == (True, True)
    assert all(ours == theirs for ours, theirs in verdicts)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_check_matches_the_fraction_reference(seed):
    p = random_lp(random.Random(seed))
    if assert_same_as_reference(p) == "optimal":
        assert_checks_agree(p, seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_check_matches_the_fraction_reference_on_wide_lps(seed):
    p = wide_lp(random.Random(seed))
    if assert_same_as_reference(p) == "optimal":
        assert_checks_agree(p, seed)


def cone_problem(cone, sense):
    """The LP `pipeline.extremize` solves for a cone."""
    return LPProblem(
        cone.variables,
        [(r.coefficients, 0) for r in cone.gluing_rows]
        + [(cone.area_row, 1)],
        cone.tau_row, sense)


@pytest.fixture(scope="module")
def a5_cones():
    x = from_presentation("a", ["aaaaa"])
    return {pred: build_cone(x, pred) for pred in ("surface", "irreducible")}


@pytest.mark.parametrize("predicate", ["surface", "irreducible"])
@pytest.mark.parametrize("sense", ["max", "min"])
def test_cone_lps_match_the_dense_reference(a5_cones, predicate, sense):
    p = cone_problem(a5_cones[predicate], sense)
    assert assert_same_as_reference(p) == "optimal"


def test_check_rejects_corrupted_cone_optimum(a5_cones):
    # each corruption must fail; the sums that run over the support of
    # the vertex alone must still see entries inside and outside it
    p = cone_problem(a5_cones["irreducible"], "max")
    r = solve(p)
    assert check_solution(p, r)
    support = [v for v in p.variables if r.vertex[v]]
    outside = [v for v in p.variables if not r.vertex[v]]
    assert support and outside
    inside_bumped = {**r.vertex, support[0]: r.vertex[support[0]] + F(1, 7)}
    outside_bumped = {**r.vertex, outside[-1]: F(1, 7)}
    assert not check_solution(p, replace(r, vertex=inside_bumped))
    assert not check_solution(p, replace(r, vertex=outside_bumped))
    # every dual entry, gluing rows (right-hand side 0, so the dual
    # objective is unchanged) and the area row alike
    for i in range(len(r.dual)):
        for delta in (F(1, 7), F(-1, 7)):
            dual = list(r.dual)
            dual[i] += delta
            assert not check_solution(p, replace(r, dual=tuple(dual)))
    assert not check_solution(p, replace(r, value=r.value + F(1, 7)))


@pytest.fixture(scope="module")
def small_cones():
    complexes = {
        "a^4": from_presentation("a", ["aaaa"]),
        "abAB+aa": from_presentation("ab", ["abAB", "aa"]),
        "aaabbb": from_presentation("ab", ["aaabbb"]),
        "theta sphere": theta_sphere(),
    }
    return {(name, pred): build_cone(x, pred)
            for name, x in complexes.items()
            for pred in ("surface", "irreducible")}


@pytest.mark.parametrize("name", ["a^4", "abAB+aa", "aaabbb", "theta sphere"])
@pytest.mark.parametrize("predicate", ["surface", "irreducible"])
@pytest.mark.parametrize("sense", ["max", "min"])
def test_small_cone_lps_match_the_dense_reference(small_cones, name,
                                                  predicate, sense):
    p = cone_problem(small_cones[name, predicate], sense)
    assert assert_same_as_reference(p) == "optimal"


# the phase-1 slot: a call whose rows and variable count equal those of
# the last feasible problem solved starts phase 2 from that problem's
# phase-1 tableau, read in place and copied only before phase 2's first
# pivot, and reuses the slot's pricing when its objective is the same


def cold(p):
    """solve(p) with the phase-1 slot emptied first."""
    rational_lp._phase1 = None
    return solve(p)


def shared(p):
    """solve(p), and whether it reused the slot: a hit leaves the slot
    as it was, a feasible miss replaces it."""
    before = rational_lp._phase1
    r = solve(p)
    return r, rational_lp._phase1 is before


@pytest.fixture(scope="module")
def slot_problems(a5_cones):
    # aaabbbab's irreducible cone pivots in phase 2 in both senses, so
    # the second sense pivots on its copy of the first one's phase 1
    cone = build_cone(from_presentation("ab", ["aaabbbab"]), "irreducible")
    problems = {("A", sense): cone_problem(cone, sense)
                for sense in ("max", "min")}
    problems["B", "max"] = cone_problem(a5_cones["surface"], "max")
    problems["X", "max"] = LPProblem(
        ["t1", "t2"], [({"t1": 1, "t2": 1}, 1), ({"t1": 1, "t2": 1}, 2)],
        {"t1": 1})
    return problems


@pytest.mark.parametrize("order, hits", [
    ([("A", "max"), ("A", "min")], [False, True]),
    ([("A", "min"), ("A", "max")], [False, True]),
    ([("A", "max"), ("A", "max")], [False, True]),
    ([("A", "max"), ("B", "max"), ("A", "min")], [False, False, False]),
    # an infeasible phase 1 is not kept, so the slot still holds A's
    ([("A", "max"), ("X", "max"), ("A", "min")], [False, True, True]),
], ids=["max-min", "min-max", "max-max", "other-cone-between",
        "infeasible-between"])
def test_shared_phase1_gives_the_cold_result(slot_problems, order, hits):
    problems = [slot_problems[key] for key in order]
    expected = [repr(cold(p)) for p in problems]
    rational_lp._phase1 = None
    got = [shared(p) for p in problems]
    assert [repr(r) for r, _ in got] == expected
    assert [hit for _, hit in got] == hits


def test_phase2_pivots_on_the_copy(slot_problems):
    # both senses of A pivot past phase 1, so a second solve of either
    # sense would see the first one's pivots if they reached the slot
    for sense in ("max", "min"):
        r = cold(slot_problems["A", sense])
        assert r.pivots > rational_lp._phase1[-1]


def test_slot_key_is_the_variable_count_and_the_rows():
    def problem(names, sense="max"):
        # fresh Fractions each time, equal to the last call's
        rows = [({"t1": F(1, 2), "t2": F(3)}, F(1)),
                ({"t1": F(1), "t2": F(-1)}, F(0))]
        return LPProblem(names, rows, {"t1": 1, "t2": F(1, 3)}, sense)

    two, three = problem(["t1", "t2"]), problem(["t1", "t2", "t3"])
    assert two.equalities == three.equalities
    rational_lp._phase1 = None
    for p, hit in [(two, False), (problem(["t1", "t2"], "min"), True),
                   (three, False), (problem(["t1", "t2", "t3"]), True),
                   (two, False)]:
        r, reused = shared(p)
        assert reused == hit
        assert repr(r) == repr(cold(p))


@pytest.mark.parametrize("scaled_first", [True, False],
                         ids=["halves-first", "whole-first"])
def test_slot_key_holds_each_row_multiplier(scaled_first):
    # x/2 + y/2 = 1/2 and x + y = 1 store equal terms and right-hand
    # sides but different d, the coefficient of their artificial
    # variable, and their duals differ by that factor
    halves = LPProblem(["x", "y"], [({"x": F(1, 2), "y": F(1, 2)}, F(1, 2))],
                       {"x": 1})
    whole = LPProblem(["x", "y"], [({"x": 1, "y": 1}, 1)], {"x": 1})
    assert halves.equalities[0][:2] == whole.equalities[0][:2]
    problems = [halves, whole] if scaled_first else [whole, halves]
    expected = [repr(cold(p)) for p in problems]
    assert [cold(p).dual for p in (halves, whole)] == [(2,), (1,)]
    rational_lp._phase1 = None
    got = [shared(p) for p in problems]
    assert [repr(r) for r, _ in got] == expected
    assert [hit for _, hit in got] == [False, False]


def test_two_threads_share_one_slot():
    # each thread solves both senses of one cone with phase-2 pivots in
    # turn, so a hit in one thread may copy a slot the other one stored
    cone = build_cone(from_presentation("ab", ["AAABBaB"]), "irreducible")
    problems = {sense: cone_problem(cone, sense) for sense in ("max", "min")}
    expected = {sense: repr(cold(p)) for sense, p in problems.items()}
    assert all(cold(p).pivots > rational_lp._phase1[-1]
               for p in problems.values())
    results = [[], []]

    def work(out):
        for _ in range(20):
            for sense, p in problems.items():
                out.append((sense, repr(solve(p))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,))
                   for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(out) for out in results] == [40, 40]
    assert all(r == expected[sense] for out in results for sense, r in out)


@pytest.mark.parametrize("key", [("A", "max"), ("A", "min"), ("B", "max")],
                         ids=["pivots-max", "pivots-min", "no-pivot"])
def test_a_hit_leaves_the_slot_as_it_was(slot_problems, key):
    # A pivots in phase 2 in both senses, B (the a^5 surface cone) in
    # neither; each hit, in the same sense and in the other, must leave
    # the slot one unchanged object: slot[2:] holds the rows, basis,
    # column sets, row signs, priced objective and phase-1 pivot count
    p = slot_problems[key]
    other = p.with_sense("min" if p.sense == "max" else "max")
    expected = [repr(cold(q)) for q in (other, p)]
    cold(p)
    slot = rational_lp._phase1
    priced = slot[-2][0]
    assert priced is not None
    pivots = slot[-1]
    for q, want in zip((p, other, p, other), expected[::-1] * 2):
        before = copy.deepcopy(slot[2:])
        r, hit = shared(q)
        assert hit
        assert repr(r) == want
        assert slot[2:] == before
        assert slot[-2][0] is priced
        assert (r.pivots > pivots) == (key[0] == "A")


def test_equal_rows_with_other_objectives_are_priced_again(a5_cones):
    # equal rows share phase 1, so each call hits the slot, but a
    # different objective, or the same terms over a different d, must be
    # priced again
    cone = a5_cones["irreducible"]
    base = cone_problem(cone, "max")
    rows = ([(r.coefficients, 0) for r in cone.gluing_rows]
            + [(cone.area_row, 1)])
    halved = {v: F(c) / 2 for v, c in cone.tau_row.items()}
    problems = [base,
                LPProblem(cone.variables, rows, {cone.variables[0]: 1}),
                LPProblem(cone.variables, rows, halved)]
    assert all(q.equalities == base.equalities for q in problems)
    assert problems[2].objective[0] == base.objective[0]
    assert problems[2].objective[2] != base.objective[2]
    problems += [q.with_sense("min") for q in problems]
    expected = {id(q): repr(cold(q)) for q in problems}
    assert len(set(expected.values())) == len(problems)
    for first_q in problems:
        for second_q in problems:
            if first_q.objective == second_q.objective:
                continue
            cold(first_q)
            r, hit = shared(second_q)
            assert hit
            assert repr(r) == expected[id(second_q)]
            assert rational_lp._phase1[-2][0][0] == second_q.objective


def load_perfbench_inputs():
    """perfbench/inputs.py, which reads the stored gluing-cone LPs."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", path / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def stored_cones():
    return {name: {sense: LPProblem(range(n), rows, objective, sense)
                   for sense in ("max", "min")}
            for name, n, rows, objective
            in load_perfbench_inputs().read_cones()}


@pytest.mark.parametrize("order", [("max", "min"), ("min", "max")],
                         ids=["max-min", "min-max"])
def test_stored_cones_through_the_slot_give_the_cold_result(stored_cones,
                                                            order):
    # the dense reference is too slow for the largest cone, a^6 surface
    assert len(stored_cones) == 5
    largest = max(stored_cones,
                  key=lambda name: len(stored_cones[name]["max"].variables))
    for name, senses in stored_cones.items():
        expected = [repr(cold(senses[sense])) for sense in order]
        if name != largest:
            assert expected == [repr(reference_solve(senses[sense]))
                                for sense in order]
        rational_lp._phase1 = None
        got = [shared(senses[sense]) for sense in order]
        assert [repr(r) for r, _ in got] == expected
        assert [hit for _, hit in got] == [False, True]
