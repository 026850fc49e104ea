"""Checks on the program's outputs, written apart from the program.

Each check raises CheckFailed with a reason.  None of them compares
against a stored copy of the program's output: values are checked
against hand computation, against properties the method must have, or
by recomputing them from the output's own parts.
"""

import re
from fractions import Fraction

NAMES = ("rho+", "rho-", "sigma+", "sigma-")
PAIRS = (("rho+", "rho-"), ("sigma+", "sigma-"))
_FRACTION = re.compile(r"-?\d+/[1-9]\d*")

ZERO, ONE = Fraction(0), Fraction(1)
# Values known by hand: the torus is flat, so 0 everywhere (acceptance
# check A1); the projective plane aa has (1 + 1 - 1)/1 = 1, genus 2 has
# (1 + 1 - 4)/1 = -2, and xy has an empty catalogue, hence sentinels.
HAND_VALUES = {
    "torus": dict.fromkeys(NAMES, ZERO),
    "aa": dict.fromkeys(NAMES, ONE),
    "genus2": dict.fromkeys(NAMES, Fraction(-2)),
    "xy": {"rho+": "-inf", "rho-": "+inf", "sigma+": "-inf",
           "sigma-": "+inf"},
}


class CheckFailed(Exception):
    pass


def _require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


def _value(token):
    if token in ("+inf", "-inf"):
        return token
    _require(_FRACTION.fullmatch(token) is not None,
             f"value {token!r} is not of the form p/q")
    return Fraction(token)


def printed_values(stdout):
    """{name: Fraction or sentinel} from `invariant --which all` output."""
    lines = stdout.splitlines()
    _require(len(lines) == len(NAMES), f"expected 4 lines, got {lines!r}")
    out = {}
    for name, line in zip(NAMES, lines):
        head, sep, token = line.partition(" = ")
        _require(sep and head == name, f"unexpected line {line!r}")
        out[name] = _value(token)
    return out


def report_values(text):
    """{name: value} from the `invariant` lines of a report document."""
    lines = text.splitlines()
    _require(lines[:1] == ["curv2x report 1"], "report header is missing")
    out = {}
    for line in lines[1:]:
        tokens = line.split()
        if tokens[:1] == ["invariant"]:
            _require(tokens[2:3] == ["value"], f"bad report line {line!r}")
            out[tokens[1]] = _value(tokens[3])
    return out


def check_invariants(name, values, report):
    """Sentinels pair up, min <= max, hand values hold, and the report
    document repeats the printed values."""
    for upper, lower in PAIRS:
        hi, lo = values[upper], values[lower]
        _require((hi == "-inf") == (lo == "+inf"),
                 f"{upper} = {hi} but {lower} = {lo}")
        _require(hi != "+inf" and lo != "-inf",
                 f"{upper} or {lower} has the wrong sentinel")
        if hi != "-inf":
            _require(lo <= hi, f"{lower} = {lo} exceeds {upper} = {hi}")
    for key, expected in HAND_VALUES.get(name, {}).items():
        _require(values[key] == expected,
                 f"{name}: {key} = {values[key]}, expected {expected}")
    _require(report == values,
             f"report document says {report}, output says {values}")


def lower_invariants_agree(values):
    """rho- == sigma-, the identity acceptance check A2 asserts."""
    return values["rho-"] == values["sigma-"]


def realizer_kappa(y):
    """kappa of a complex from its own cells: (area + V - E) / area."""
    area = sum(y.areas.values(), Fraction(0))
    vertices = len(y.skeleton.vertices)
    edges = len(y.skeleton.edges) // 2
    return (area + vertices - edges) / area


def check_lp(rows, objective, sense, result):
    """Exact optimality of an LP result, from its primal and dual parts.

    rows are (coefficients, rhs) with coefficients {index: Fraction},
    for maximize/minimize objective.x subject to rows, x >= 0.  The dual
    y in result.dual is for the maximization form sign*objective: it
    must satisfy A^T y >= sign*c, and b.y must equal sign*value.
    """
    _require(result.status == "optimal", f"status {result.status!r}")
    x = result.vertex
    _require(all(v >= 0 for v in x.values()), "negative primal entry")
    for coefficients, rhs in rows:
        lhs = sum((c * x.get(j, 0) for j, c in coefficients.items()),
                  Fraction(0))
        _require(lhs == rhs, "a primal row does not hold")
    primal = sum((c * x.get(j, 0) for j, c in objective.items()),
                 Fraction(0))
    _require(primal == result.value,
             f"objective at the vertex is {primal}, reported {result.value}")
    y = result.dual
    _require(len(y) == len(rows), "one dual entry per row is required")
    sign = 1 if sense == "max" else -1
    slack = {j: -sign * c for j, c in objective.items()}
    for yi, (coefficients, _) in zip(y, rows):
        if yi:
            for j, c in coefficients.items():
                slack[j] = slack.get(j, 0) + yi * c
    _require(all(s >= 0 for s in slack.values()), "the dual is infeasible")
    dual = sum((yi * rhs for yi, (_, rhs) in zip(y, rows)), Fraction(0))
    _require(dual == sign * result.value,
             f"dual objective {dual} differs from primal {sign * primal}")


def check_cone_senses(values):
    """min <= max on one cone; values is {sense: value}."""
    _require(values["min"] <= values["max"],
             f"min {values['min']} exceeds max {values['max']}")


def _morphism_facts(text):
    """A morphism document as a set of facts that do not depend on which
    orientation of an edge or which row order the document uses."""
    rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
    inv = {}
    section = None
    for row in rows:
        if row[0] in ("domain", "codomain"):
            section = row[0]
        elif row[0] == "edge":
            e, ebar = row[1], row[2]
            inv[section, e], inv[section, ebar] = ebar, e
    facts = set()
    for row in rows:
        key = row[0]
        if key in ("domain", "codomain"):
            section = key
        elif key == "vertex":
            facts.add((section, row[1]))
        elif key == "edge":
            e, ebar, o, t = row[1:]
            facts.update({(section, e, o, t), (section, ebar, t, o)})
        elif key == "map-vertex":
            facts.add((key, row[1], row[2]))
        elif key == "map-edge":
            e, image = row[1:]
            facts.add((key, e, image))
            facts.add((key, inv["domain", e], inv["codomain", image]))
    return facts


def check_verdict(injective, morphism_text, certify_out, verify_out):
    """A certificate for the given map that verifies, or NOT_INJECTIVE.

    verify_out is None when no certificate was issued.
    """
    if not injective:
        _require(certify_out == "NOT_INJECTIVE\n",
                 f"a rank-dropping map got {certify_out[:40]!r}")
        _require(verify_out is None, "a non-injective map was verified")
        return
    _require(certify_out.startswith("curv2x certificate 1\n"),
             f"an injective map got {certify_out[:40]!r}")
    _require(_morphism_facts(certify_out) == _morphism_facts(morphism_text),
             "the certificate is for another map")
    _require(verify_out == "VALID\n", f"verify printed {verify_out!r}")
