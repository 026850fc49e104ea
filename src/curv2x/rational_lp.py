"""Exact linear programming over the rationals.

A dense two-phase simplex on Fraction tableaux.  Bland's rule (least
eligible index enters, ties in the ratio test broken by least basic
index) guarantees termination; all arithmetic is exact, so optima are
returned as canonical rationals together with the optimal basis and a
dual vector that lets `check_solution` re-verify optimality without
trusting the solver.  The dual is read from the artificial columns of
the final tableau: their phase-2 reduced costs are the row multipliers,
so no second elimination is needed.

Problems are equality-constrained with nonnegative variables:
maximize or minimize c.t subject to A.t = b, t >= 0.  The intended use
normalizes one row to keep the feasible set compact; a genuinely
unbounded objective raises LPFailure rather than being reported.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import LPFailure


def to_fraction(x):
    """Exact rational from an int, Fraction, or 'p/q' string.

    Floats (and bools) are rejected: the whole pipeline is exact and a
    float would silently poison it.
    """
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact rational required, got {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


class LPProblem:
    """Equality-constrained LP with nonnegative variables.

    Rows may be given as dicts keyed by variable id (missing ids mean
    zero) or as sequences aligned with `variables`.
    """

    __slots__ = ("variables", "equalities", "objective", "sense", "_index")

    def __init__(self, variables, equalities, objective, sense="max"):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable ids")
        self._index = {v: i for i, v in enumerate(self.variables)}
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.objective = self._row(objective)
        self.equalities = tuple(
            (self._row(row), to_fraction(rhs)) for row, rhs in equalities)

    def _row(self, row):
        if isinstance(row, dict):
            out = [Fraction(0)] * len(self.variables)
            for k, v in row.items():
                if k not in self._index:
                    raise ValueError(f"unknown variable {k!r}")
                out[self._index[k]] = to_fraction(v)
            return out
        vals = [to_fraction(v) for v in row]
        if len(vals) != len(self.variables):
            raise ValueError("row length does not match the variable count")
        return vals

    def __repr__(self):
        return (f"LPProblem({len(self.variables)} variables, "
                f"{len(self.equalities)} equalities, {self.sense})")


@dataclass(frozen=True)
class LPResult:
    """status 'optimal' or 'infeasible'; on success `vertex` is a basic
    feasible optimum, `basis` its supporting variables, and `dual` a
    multiplier per equality row (for the maximization form) proving
    optimality."""

    status: str
    value: object
    vertex: dict
    basis: tuple
    dual: tuple
    pivots: int


def solve(p):
    """Two-phase simplex; see the module docstring for conventions."""
    n = len(p.variables)
    m = len(p.equalities)
    sign = 1 if p.sense == "max" else -1
    cost = [sign * x for x in p.objective]

    tab = []
    basis = []
    flip = []
    for i, (row, rhs) in enumerate(p.equalities):
        r, b = list(row), rhs
        flip.append(-1 if b < 0 else 1)
        if b < 0:
            r, b = [-x for x in r], -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(r + art + [b])
        basis.append(n + i)

    pivots = 0

    def pivot(r, c):
        nonlocal pivots
        head = tab[r][c]
        tab[r] = [v / head for v in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        if red[c]:
            f = red[c]
            red[:] = [a - f * b for a, b in zip(red, tab[r])]
        basis[r] = c
        pivots += 1

    def run(allowed):
        while True:
            enter = next((j for j in allowed if red[j] < 0), None)
            if enter is None:
                return
            leave, best = None, None
            for i in range(len(tab)):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best \
                            or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                raise LPFailure(
                    "objective unbounded; expected a compact polytope")
            pivot(leave, enter)

    # phase 1: drive the artificial variables to zero
    red = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for trow in tab:
        red = [a - b for a, b in zip(red, trow)]
    run(range(n))
    if red[-1] != 0:
        return LPResult("infeasible", None, {}, (), (), pivots)
    for i in reversed(range(len(tab))):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tab[i][j] != 0), None)
        if col is None:
            # redundant equality: the row became 0 = 0
            del tab[i], basis[i]
        else:
            pivot(i, col)

    # phase 2: the real objective, artificial columns frozen out
    red = [-x for x in cost] + [Fraction(0)] * (m + 1)
    for i, trow in enumerate(tab):
        if red[basis[i]]:
            f = red[basis[i]]
            red = [a - f * b for a, b in zip(red, trow)]
    run(range(n))

    vertex = {v: Fraction(0) for v in p.variables}
    for i, trow in enumerate(tab):
        vertex[p.variables[basis[i]]] = trow[-1]
    # every pivot is a row operation on [A | I | b], so the reduced cost
    # of artificial column n+i is the multiplier of (possibly negated) row i
    dual = [s * red[n + i] for i, s in enumerate(flip)]
    return LPResult("optimal", sign * red[-1], vertex,
                    tuple(p.variables[j] for j in sorted(basis)),
                    tuple(dual), pivots)


def check_solution(p, r):
    """Re-verify an optimal LPResult from scratch.

    Checks feasibility (equalities, nonnegativity), the reported value,
    and optimality through the dual vector: reduced costs must be
    nonpositive for the maximization form, zero on the support, and the
    dual objective must meet the primal one.
    """
    if r.status != "optimal":
        return False
    x = [r.vertex.get(v, Fraction(0)) for v in p.variables]
    if any(val < 0 for val in x):
        return False
    for row, rhs in p.equalities:
        if sum(a * t for a, t in zip(row, x)) != rhs:
            return False
    if sum(a * t for a, t in zip(p.objective, x)) != r.value:
        return False
    sign = 1 if p.sense == "max" else -1
    if len(r.dual) != len(p.equalities):
        return False
    for j in range(len(p.variables)):
        reduced = sign * p.objective[j] - sum(
            r.dual[i] * p.equalities[i][0][j]
            for i in range(len(p.equalities)))
        if reduced > 0:
            return False
        if x[j] > 0 and reduced != 0:
            return False
    dual_value = sum(r.dual[i] * p.equalities[i][1]
                     for i in range(len(p.equalities)))
    return dual_value == sign * r.value


def scale_to_integer(v, reduce_gcd=False):
    """Clear denominators from a nonnegative rational vector.

    Multiplies by the least common multiple of the denominators; with
    `reduce_gcd` the result is also divided by the gcd of its entries.
    Accepts a dict or a sequence and returns the same shape with ints.
    """
    items = list(v.values()) if isinstance(v, dict) else list(v)
    vals = [to_fraction(x) for x in items]
    if any(x < 0 for x in vals):
        raise ValueError("vector must be nonnegative")
    mult = lcm(*(x.denominator for x in vals)) if vals else 1
    ints = [int(x * mult) for x in vals]
    if reduce_gcd:
        g = gcd(*ints) if ints else 0
        if g > 1:
            ints = [x // g for x in ints]
    if isinstance(v, dict):
        return dict(zip(v.keys(), ints))
    return ints
