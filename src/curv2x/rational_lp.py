"""Exact linear programming over the rationals.

A two-phase simplex on a sparse tableau of integers.  Bland's rule
(least eligible index enters, ties in the ratio test broken by least
basic index) guarantees termination; all arithmetic is exact, so optima
are returned as canonical rationals together with the optimal basis and
a dual vector that lets `check_solution` re-verify optimality without
trusting the solver.

Each tableau row is a dict holding only its nonzero entries, and it is
an integer vector: a positive multiple of the row a Fraction tableau
would hold.  Its basic variable's coefficient is positive but need not
be 1, and a vertex entry is the right-hand side over that coefficient.
A pivot on entry h of row r leaves row r as it is (negated if h < 0,
which happens only when an artificial variable with right-hand side 0
is driven out) and replaces each row with an entry f in the entering
column by h * row - f * (row r).  When h is 1 that keeps each row's
multiple of its Fraction row, so only a pivot with h != 1 divides the
rows it scaled by their gcd.  The reduced costs are one integer dict
over one positive common scale and are updated by the same rule.
Scaling a row by a positive factor changes neither the signs of its
entries nor the order of its ratios, which are compared by
cross-multiplying, so Bland's rule makes exactly the pivots of the
Fraction tableau, without a gcd per entry.

Each structural column keeps the set of rows with a nonzero in it, so
a pivot visits only the rows (and the reduced costs) with a nonzero in
the entering column, and in them only the pivot row's columns, and the
ratio test visits only those rows too.  A pivot costs one
multiply-subtract per (touched row, pivot-row nonzero) pair, plus a gcd
per touched row when h != 1.  The entering column is the least one on
a heap of the columns whose reduced cost went negative.  The
gluing-cone LPs have sparse ±1 rows and one dense area row, so this is
far below the rows × columns of a dense update.  A row that phase 1
leaves as 0 = 0 has no structural entry, so no later pivot touches it;
it stays in place and is skipped when the vertex and basis are read.

The dual is read from the artificial columns of the final tableau:
their phase-2 reduced costs, over the common scale, are the row
multipliers, so no second elimination is needed.

Phase 1 reads only the rows, and the maximum and the minimum over one
gluing cone share them, so its outcome is kept for the next call.  The
slot `_phase1` holds one entry: the rows, basis, column sets, row signs
and pivot count that phase 1 and its clean-up leave on the last
feasible problem solved, keyed by the variable count (which places the
artificial columns) and `equalities`, compared entry by entry rather
than hashed.  A call with the same key skips to phase 2.  Phase 2 runs
on fresh copies of the slot's rows, basis and column sets, never on
the slot itself: its pivots would corrupt the slot for the next call,
and two threads could end up sharing one tableau.  An infeasible
phase 1 is not kept.  A result reads the same whether or not its
phase 1 was shared; `pivots` counts the phase-1 pivots either way.

Problems are equality-constrained with nonnegative variables:
maximize or minimize c.t subject to A.t = b, t >= 0, with each row of
A, and c, stored once as its nonzero terms.  The intended use
normalizes one row to keep the feasible set compact; a genuinely
unbounded objective raises LPFailure rather than being reported.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
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
    zero) or as sequences aligned with `variables`.  Each is stored
    once, as the tuple of its nonzero (column, coefficient) pairs in
    column order: `equalities` holds (terms, rhs) per row and
    `objective` the objective's terms, so memory is linear in the
    nonzeros.
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
        self.objective = self._terms(objective)
        self.equalities = tuple((self._terms(row), to_fraction(rhs))
                                for row, rhs in equalities)

    def _terms(self, row):
        """The nonzero (column, coefficient) pairs of a row."""
        if isinstance(row, dict):
            terms = []
            for k, v in row.items():
                if k not in self._index:
                    raise ValueError(f"unknown variable {k!r}")
                a = to_fraction(v)
                if a:
                    terms.append((self._index[k], a))
            terms.sort()
        else:
            row = [to_fraction(v) for v in row]
            if len(row) != len(self.variables):
                raise ValueError(
                    "row length does not match the variable count")
            terms = [(j, a) for j, a in enumerate(row) if a]
        return tuple(terms)

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


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: a // g for j, a in row.items()}
    return row


def _lowest_terms(red, scale):
    """(red, scale), red holding no zero entry, divided by their gcd."""
    g = gcd(scale, *red.values())
    if g > 1:
        return {j: a // g for j, a in red.items()}, scale // g
    return red, scale


# The outcome of phase 1 and its clean-up on the last feasible problem
# solved: (n, equalities, rows, basis, cols, flip, pivots).  See the
# module docstring.
_phase1 = None


def solve(p):
    """Two-phase simplex; see the module docstring for conventions.

    Rows start from `p.equalities`, cleared of their denominators, so
    setting up either phase's reduced costs costs time linear in the
    nonzeros, and a pivot touches only nonzero entries.  The tableau
    holds only ints; the value, vertex and duals are exact Fractions,
    built once the last pivot is made.  Phase 1 is skipped when
    `_phase1` holds its outcome for the same variable count and rows.
    """
    global _phase1
    n = len(p.variables)
    m = len(p.equalities)
    sign = 1 if p.sense == "max" else -1
    rhs_col = n + m

    def pivot(r, c):
        nonlocal pivots, red, scale
        prow = tab[r]
        head = prow[c]
        if head < 0:
            # only when phase 1's clean-up drives out an artificial
            # variable; its right-hand side is 0, so the row may flip
            prow = tab[r] = {j: -a for j, a in prow.items()}
            head = -head
        entries = [(j, b) for j, b in prow.items() if j != c]
        for i in cols[c]:
            if i == r:
                continue
            row = tab[i]
            f = row.pop(c)
            if head != 1:
                row = {j: head * a for j, a in row.items()}
            for j, b in entries:
                a = row.get(j)
                if a is None:
                    row[j] = -f * b
                    if j < n:
                        cols[j].add(i)
                    continue
                a -= f * b
                if a:
                    row[j] = a
                else:
                    del row[j]
                    if j < n:
                        cols[j].discard(i)
            if head != 1:
                tab[i] = _primitive(row)
        cols[c] = {r}
        f = red.pop(c, None)
        if f:
            if head != 1:
                red = {j: head * a for j, a in red.items()}
                scale *= head
            for j, b in entries:
                old = red.get(j, 0)
                a = old - f * b
                if a:
                    red[j] = a
                    if a < 0 <= old and j < n:
                        heappush(heap, j)
                else:
                    del red[j]
            if head != 1:
                red, scale = _lowest_terms(red, scale)
        basis[r] = c
        pivots += 1

    def run():
        while True:
            while heap and red.get(heap[0], 0) >= 0:
                heappop(heap)
            if not heap:
                return
            enter = heap[0]
            # least rhs/a over the rows with a > 0, compared by
            # cross-multiplying; ties go to the least basic index, so
            # the order the rows are visited in does not matter
            leave = None
            for i in cols[enter]:
                row = tab[i]
                a = row[enter]
                if a < 0:
                    continue
                rhs = row.get(rhs_col, 0)
                if leave is not None:
                    lhs, least = rhs * least_a, least_rhs * a
                    if lhs > least or (lhs == least
                                       and basis[i] > basis[leave]):
                        continue
                leave, least_rhs, least_a = i, rhs, a
            if leave is None:
                raise LPFailure(
                    "objective unbounded; expected a compact polytope")
            pivot(leave, enter)

    slot = _phase1
    if slot is None or slot[0] != n or slot[1] != p.equalities:
        tab = []
        basis = []
        flip = []
        # cols[j]: the rows holding a nonzero in structural column j
        cols = [set() for _ in range(n)]
        for i, (terms, b) in enumerate(p.equalities):
            s = -1 if b.numerator < 0 else 1
            flip.append(s)
            d = lcm(b.denominator, *(a.denominator for _, a in terms))
            row = {j: s * a.numerator * (d // a.denominator) for j, a in terms}
            for j in row:
                cols[j].add(i)
            row[n + i] = d
            if b.numerator:
                row[rhs_col] = s * b.numerator * (d // b.denominator)
            tab.append(_primitive(row))
            basis.append(n + i)

        # reduced costs are red[j] / scale.  Phase 1 prices out the sum of
        # the artificial variables over the lcm of their coefficients; their
        # own reduced costs cancel to zero.
        scale = lcm(*(row[c] for row, c in zip(tab, basis)))
        red = {}
        for row, c in zip(tab, basis):
            f = scale // row[c]
            for j, a in row.items():
                if j != c:
                    red[j] = red.get(j, 0) - f * a
        red, scale = _lowest_terms({j: a for j, a in red.items() if a},
                                   scale)
        # a min-heap holding every structural column with a negative reduced
        # cost, and possibly stale columns, dropped when they reach the top
        heap = [j for j, a in red.items() if a < 0 and j < n]
        heapify(heap)
        pivots = 0

        # phase 1: drive the artificial variables to zero
        run()
        if red.get(rhs_col):
            return LPResult("infeasible", None, {}, (), (), pivots)
        for i in reversed(range(m)):
            if basis[i] < n:
                continue
            col = min((j for j in tab[i] if j < n), default=None)
            if col is not None:
                pivot(i, col)
            # otherwise the equality is redundant: the row became 0 = 0 and,
            # with no structural entry, no later pivot touches it; it stays
            # in place, its basic variable still artificial
        slot = _phase1 = (n, p.equalities, tuple(tab), tuple(basis),
                          tuple(cols), tuple(flip), pivots)

    # phase 2 runs on copies, so nothing ever changes the slot
    _, _, rows, start, columns, flip, pivots = slot
    tab = [dict(row) for row in rows]
    basis = list(start)
    cols = [set(c) for c in columns]

    # phase 2: the real objective, artificial columns frozen out.  The
    # costs are cleared of their common denominator d, and each basic
    # cost is priced out over the lcm k of the basic coefficients it
    # needs, so the scale is d * k.
    d = lcm(*(a.denominator for _, a in p.objective))
    cost = {j: -sign * a.numerator * (d // a.denominator)
            for j, a in p.objective}
    k = lcm(*(row[c] for row, c in zip(tab, basis) if c in cost))
    red = {j: k * a for j, a in cost.items()}
    for row, c in zip(tab, basis):
        f = cost.get(c)
        if f:
            f *= k // row[c]
            for j, a in row.items():
                red[j] = red.get(j, 0) - f * a
    red, scale = _lowest_terms({j: a for j, a in red.items() if a},
                               d * k)
    heap = [j for j, a in red.items() if a < 0 and j < n]
    heapify(heap)
    run()

    zero = Fraction(0)
    vertex = {v: zero for v in p.variables}
    for row, c in zip(tab, basis):
        if c < n:
            vertex[p.variables[c]] = Fraction(row.get(rhs_col, 0), row[c])
    # every pivot is a row operation on [A | I | b], so the reduced cost
    # of artificial column n+i is the multiplier of (possibly negated) row i
    dual = tuple(Fraction(s * red.get(n + i, 0), scale)
                 for i, s in enumerate(flip))
    return LPResult("optimal", Fraction(sign * red.get(rhs_col, 0), scale),
                    vertex, tuple(p.variables[j] for j in sorted(basis)
                                  if j < n),
                    dual, pivots)


def check_solution(p, r):
    """Re-verify an optimal LPResult from scratch.

    Checks that the vertex names only variables of the problem,
    feasibility (equalities, nonnegativity), the reported value, and
    optimality through the dual vector: reduced costs must be
    nonpositive for the maximization form, zero on the support, and the
    dual objective must meet the primal one.

    The arithmetic is on integers.  The vertex and the dual are cleared
    of their denominators once each.  A row is cleared of its own
    denominators for its feasibility sum, and of the common denominator
    of all rows for the reduced costs; no cleared row is kept.  Each sum
    runs over a row's nonzero terms, so a check costs time linear in
    the problem's nonzeros.  It shares no code with `solve`.
    """
    if r.status != "optimal":
        return False
    support = []
    for v, val in r.vertex.items():
        j = p._index.get(v)
        if j is None:
            return False
        if val.numerator < 0:
            return False
        if val.numerator:
            support.append((j, val))
    # the vertex is t / dt, t an integer vector on the support
    dt = lcm(*(val.denominator for _, val in support))
    t = {j: val.numerator * (dt // val.denominator) for j, val in support}

    # each row times its own denominator d: sum a t = rhs dt
    common = 1
    for terms, rhs in p.equalities:
        d = lcm(rhs.denominator, *(a.denominator for _, a in terms))
        common = lcm(common, d)
        lhs = sum(a.numerator * (d // a.denominator) * t[j]
                  for j, a in terms if j in t)
        if lhs != rhs.numerator * (d // rhs.denominator) * dt:
            return False
    d = lcm(*(c.denominator for _, c in p.objective))
    common = lcm(common, d)
    value = sum(c.numerator * (d // c.denominator) * t[j]
                for j, c in p.objective if j in t)
    if Fraction(value, d * dt) != r.value:
        return False
    sign = 1 if p.sense == "max" else -1
    if len(r.dual) != len(p.equalities):
        return False

    # reduced costs times dy * common, the dual being y / dy
    dy = lcm(*(y.denominator for y in r.dual))
    reduced = [0] * len(p.variables)
    for j, c in p.objective:
        reduced[j] = sign * c.numerator * (common // c.denominator) * dy
    dual_value = 0
    for y, (terms, rhs) in zip(r.dual, p.equalities):
        if y:
            y = y.numerator * (dy // y.denominator)
            for j, a in terms:
                reduced[j] -= y * a.numerator * (common // a.denominator)
            dual_value += y * rhs.numerator * (common // rhs.denominator)
    if any(c > 0 for c in reduced):
        return False
    if any(reduced[j] != 0 for j in t):
        return False
    return Fraction(dual_value, dy * common) == sign * r.value


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
