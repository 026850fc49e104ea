"""Hand-solved linear programs freezing the simplex behaviour.

Each optimum below was worked out on paper from the vertex description
of the feasible set; the solver must reproduce value and vertex exactly.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv2x.errors import LPFailure
from curv2x.rational_lp import (
    LPProblem,
    _solve_linear,
    check_solution,
    scale_to_integer,
    solve,
    to_fraction,
)


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


def test_singular_basis_is_an_error():
    with pytest.raises(LPFailure):
        _solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(0), F(0)])


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


def test_problem_validation():
    with pytest.raises(ValueError):
        LPProblem(["t", "t"], [], {})
    with pytest.raises(ValueError):
        LPProblem(["t"], [], {}, sense="best")
    with pytest.raises(ValueError):
        LPProblem(["t"], [], {"u": 1})
    with pytest.raises(ValueError):
        LPProblem(["t"], [([1, 2], 0)], {})
    with pytest.raises(TypeError):
        LPProblem(["t"], [], {"t": 0.5})


def test_scale_to_integer():
    assert scale_to_integer([F("1/2"), F("1/3")]) == [3, 2]
    assert scale_to_integer([2, 4]) == [2, 4]
    assert scale_to_integer([2, 4], reduce_gcd=True) == [1, 2]
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
    x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rows.append((coeffs, sum(c * x for c, x in zip(coeffs, x0))))
    rows.append(([Fraction(1)] * n, sum(x0)))
    obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    p = LPProblem(names, rows, obj, "min" if minimize else "max")
    r = solve(p)
    budget = 10 * (n + m + 2) ** 2
    assert r.pivots <= budget
    assert r.status == "optimal"
    assert check_solution(p, r)
    witness = sum(c * x for c, x in zip(obj, x0))
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
    base = [Fraction(rng.randint(0, 2)) for _ in range(n)]
    if all(c == 0 for c in base):
        base[0] = Fraction(1)
    rows = [(base, 1), (base, 1), ([2 * c for c in base], 2),
            ([Fraction(1)] * n, 1)]
    obj = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    p = LPProblem(names, rows, obj, "max")
    r = solve(p)
    assert r.pivots <= 10 * (n + 6) ** 2
    if r.status == "optimal":
        assert check_solution(p, r)
