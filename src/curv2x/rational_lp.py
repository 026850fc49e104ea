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

Both phases set up their reduced costs with one routine, `price`:
phase 1 prices cost 1 on every artificial column, phase 2 the negated
objective to maximize, each over the lcm of the basic coefficients it
needs.  The dual is read from the artificial columns of the final
tableau: their phase-2 reduced costs, over the common scale, are the
row multipliers, so no second elimination is needed.

Phase 1 reads only the rows, and the maximum and the minimum over one
gluing cone share them, so its outcome is kept for the next call.  The
slot `_phase1` holds one entry: the rows, basis, column sets, row
signs and pivot count that phase 1 and its clean-up leave on the last
feasible problem solved, keyed by the variable count (which places the
artificial columns) and the stored rows of `equalities`, d included,
compared entry by entry rather than hashed.  A call with the same key
skips to phase 2.  Phase 2 reads the slot's rows, basis and column
sets in place until its first pivot, and copies them just before it,
so a phase 2 that makes no pivot copies nothing, and none ever writes
the slot.  The slot also keeps the reduced costs and scale of the last
objective priced over its basis, with its sense.  A call whose
objective's stored terms and d are equal, compared entry by entry like
the rows, reuses them, negated for the other sense: `price` is linear
in the cost, and negation changes neither the gcd nor the scale.
Phase 2 pivots on its own copy of them.  The slot is one module
global, so two threads may share it: each pivots only on its own
copies, and replaces the priced objective in one assignment.  An
infeasible phase 1 is not kept.  A result reads the same whether or
not its phase 1 or its pricing was shared; `pivots` counts the phase-1
pivots either way.

Problems are equality-constrained with nonnegative variables:
maximize or minimize c.t subject to A.t = b, t >= 0.  `LPProblem`
takes each row of A, and c, as a dict and stores it once, cleared of
its denominators: its nonzero terms as ints, its right-hand side and
the multiplier d that cleared them.  `solve` and `check_solution` read
that form only, and neither clears a row again.  The intended use
normalizes one row to keep the feasible set compact; a genuinely
unbounded objective raises LPFailure rather than being reported.
"""

import copy
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

    Each row, and the objective, is a dict keyed by variable id (missing
    ids mean zero); any other row raises ValueError.  The constructor
    clears each row of its denominators once and stores it as
    (terms, rhs, d): d is the least common denominator of the row and
    its right-hand side, terms the nonzero (column, int) pairs of the
    row times d in column order, and rhs the right-hand side times d.
    `equalities` holds one per row and `objective` the objective in the
    same form, with right-hand side 0, so memory is linear in the
    nonzeros and no reader clears a row again.  `with_sense` gives the
    same problem in the other sense, sharing these stored rows.
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
        self.objective = self._cleared(objective)
        self.equalities = tuple(self._cleared(row, rhs)
                                for row, rhs in equalities)

    def _cleared(self, row, rhs=0):
        """(terms, rhs, d) of a dict row; see the class docstring."""
        if not isinstance(row, dict):
            raise ValueError("a row must be a dict keyed by variable id, "
                             f"not a {type(row).__name__}")
        ratios = []
        for k, v in row.items():
            j = self._index.get(k)
            if j is None:
                raise ValueError(f"unknown variable {k!r}")
            a, q = to_fraction(v).as_integer_ratio()
            if a:
                ratios.append((j, a, q))
        ratios.sort()
        b, bq = to_fraction(rhs).as_integer_ratio()
        d = lcm(bq, *(q for _, _, q in ratios))
        return (tuple((j, a * (d // q)) for j, a, q in ratios),
                b * (d // bq), d)

    def with_sense(self, sense):
        """This problem optimized in `sense`: a shallow copy sharing the
        stored rows and objective, so nothing is cleared again."""
        if sense == self.sense:
            return self
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        q = copy.copy(self)
        q.sense = sense
        return q

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


def _negative_columns(red, n):
    """A min-heap of the structural columns with a negative reduced
    cost.  The simplex pushes columns as their costs turn negative and
    drops stale ones when they reach the top."""
    heap = [j for j, a in red.items() if a < 0 and j < n]
    heapify(heap)
    return heap


# The outcome of phase 1 and its clean-up on the last feasible problem
# solved: (n, equalities, rows, basis, cols, flip, priced, pivots), where
# priced is a one-item list holding the last objective priced over that
# basis, with its sense, reduced costs and scale.  See the module
# docstring.
_phase1 = None


def solve(p):
    """Two-phase simplex; see the module docstring for conventions.

    Rows start from `p.equalities`, already integers, each with its
    multiplier d as the coefficient of its artificial variable, so
    setting up either phase's reduced costs costs time linear in the
    nonzeros, and a pivot touches only nonzero entries.  The tableau
    holds only ints; the value, vertex and duals are exact Fractions,
    built once the last pivot is made, and only for nonzero entries:
    every zero is one Fraction(0).  Phase 1 is skipped when `_phase1`
    holds its outcome for the same variable count and rows; phase 2
    then reads that slot until its first pivot, and skips pricing when
    the slot holds the same objective's reduced costs.
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

    def price(cost, d):
        """The reduced costs red / scale of the objective row cost / d (the
        negated objective to maximize) over the current basis.  Each
        basic cost is priced out over the lcm k of the basic coefficients
        it needs, so the scale is d * k."""
        k = lcm(*(row[c] for row, c in zip(tab, basis) if c in cost))
        red = {j: k * a for j, a in cost.items()}
        for row, c in zip(tab, basis):
            f = cost.get(c)
            if f:
                f *= k // row[c]
                for j, a in row.items():
                    red[j] = red.get(j, 0) - f * a
        return _lowest_terms({j: a for j, a in red.items() if a}, d * k)

    slot = _phase1
    if slot is None or slot[0] != n or slot[1] != p.equalities:
        tab = []
        basis = []
        flip = []
        # cols[j]: the rows holding a nonzero in structural column j
        cols = [set() for _ in range(n)]
        for i, (terms, b, d) in enumerate(p.equalities):
            s = -1 if b < 0 else 1
            flip.append(s)
            row = {j: s * a for j, a in terms}
            for j in row:
                cols[j].add(i)
            # the stored row is d times the given one, so its artificial
            # coefficient d keeps the duals those of the given rows
            row[n + i] = d
            if b:
                row[rhs_col] = s * b
            tab.append(_primitive(row))
            basis.append(n + i)

        # phase 1: drive the artificial variables to zero
        red, scale = price({n + i: 1 for i in range(m)}, 1)
        heap = _negative_columns(red, n)
        pivots = 0
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
                          tuple(cols), tuple(flip), [None], pivots)

    _, _, tab, basis, cols, flip, priced, pivots = slot

    # phase 2: the real objective, artificial columns frozen out; the
    # slot keeps the last objective priced over its basis, and the other
    # sense's reduced costs are their negation over the same scale
    last = priced[0]
    if last is not None and last[0] == p.objective:
        _, last_sign, red, scale = last
        if last_sign != sign:
            red = {j: -a for j, a in red.items()}
    else:
        terms, _, d = p.objective
        red, scale = price({j: -sign * a for j, a in terms}, d)
        priced[0] = (p.objective, sign, red, scale)
    heap = _negative_columns(red, n)
    if heap:
        # phase 2 will pivot, and its pivots write the rows, the basis,
        # the column sets and the reduced costs: it gets copies, so
        # nothing ever changes the slot; without a pivot it reads them
        # in place
        tab = [dict(row) for row in tab]
        basis = list(basis)
        cols = [set(c) for c in cols]
        red = dict(red)
    run()

    zero = Fraction(0)
    vertex = dict.fromkeys(p.variables, zero)
    for row, c in zip(tab, basis):
        if c < n:
            b = row.get(rhs_col)
            if b:
                vertex[p.variables[c]] = Fraction(b, row[c])
    # every pivot is a row operation on [A | I | b], so the reduced cost
    # of artificial column n+i is the multiplier of (possibly negated) row i
    dual = []
    for i, s in enumerate(flip):
        y = red.get(n + i)
        dual.append(Fraction(s * y, scale) if y else zero)
    return LPResult("optimal", Fraction(sign * red.get(rhs_col, 0), scale),
                    vertex, tuple(p.variables[j] for j in sorted(basis)
                                  if j < n),
                    tuple(dual), pivots)


def check_solution(p, r):
    """Re-verify an optimal LPResult from scratch.

    Checks that the vertex names only variables of the problem,
    feasibility (equalities, nonnegativity), the reported value, and
    optimality through the dual vector: reduced costs must be
    nonpositive for the maximization form, zero on the support, and the
    dual objective must meet the primal one.

    The arithmetic is on integers.  The vertex and the dual are cleared
    of their denominators once each, and the rows are read as
    `LPProblem` stored them, already integers; each sum runs over a
    row's nonzero terms, so a check costs time linear in the problem's
    nonzeros.  It shares no code with `solve`.
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

    # each stored row is its given row times d: sum a t = rhs dt
    for terms, rhs, _ in p.equalities:
        if sum(a * t[j] for j, a in terms if j in t) != rhs * dt:
            return False
    objective, _, dc = p.objective
    value = sum(c * t[j] for j, c in objective if j in t)
    if Fraction(value, dc * dt) != r.value:
        return False
    sign = 1 if p.sense == "max" else -1
    if len(r.dual) != len(p.equalities):
        return False

    # y multiplies given row i, so y / d multiplies its stored row; over
    # their common denominator dz, the reduced costs times dc * dz and
    # the dual objective times dz are integers
    dz = lcm(*(y.denominator * d
               for y, (_, _, d) in zip(r.dual, p.equalities) if y))
    reduced = [0] * len(p.variables)
    for j, c in objective:
        reduced[j] = sign * c * dz
    dual_value = 0
    for y, (terms, rhs, d) in zip(r.dual, p.equalities):
        if y:
            z = y.numerator * (dz // (y.denominator * d))
            dual_value += z * rhs
            z *= dc
            for j, a in terms:
                reduced[j] -= z * a
    if any(c > 0 for c in reduced):
        return False
    if any(reduced[j] != 0 for j in t):
        return False
    return Fraction(dual_value, dz) == sign * r.value


def scale_to_integer(v):
    """The primitive integer vector on the ray of a nonnegative rational
    vector.

    Multiplies by the least common multiple of the denominators and
    divides by the gcd of the entries.  Accepts a dict or a sequence
    and returns the same shape with ints.
    """
    items = list(v.values()) if isinstance(v, dict) else list(v)
    vals = [to_fraction(x) for x in items]
    if any(x < 0 for x in vals):
        raise ValueError("vector must be nonnegative")
    mult = lcm(*(x.denominator for x in vals)) if vals else 1
    ints = [int(x * mult) for x in vals]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if isinstance(v, dict):
        return dict(zip(v.keys(), ints))
    return ints
