"""Write the gluing-cone LPs that the lp-cones workload solves.

Run from the root of the repository:

    python3 perfbench/make_lp_data.py

It rebuilds every cone with the program's own `build_cone` and rewrites
`perfbench/lp_cones.txt`.  Variables are numbered in catalogue order, so
the LP is the one `extremize_cone` solves, column for column: the gluing
rows with right-hand side 0, the area row with right-hand side 1, and the
curvature row tau as the objective.  Enumerating the a^6 surface
catalogue takes about 20 s.

File format, one block per cone:

    cone <name> <variables>
    row <rhs> <index>:<coefficient> ...
    objective <index>:<coefficient> ...
    end

Coefficients are exact integers or p/q; indices not listed are zero.
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "lp_cones.txt")

# (name, generators, relators, predicate), in the order the workload runs.
CONES = (
    ("a5-surface", "a", ["aaaaa"], "surface"),
    ("a5-irreducible", "a", ["aaaaa"], "irreducible"),
    ("aaa+aa-surface", "a", ["aaa", "aa"], "surface"),
    ("aaa+aa-irreducible", "a", ["aaa", "aa"], "irreducible"),
    ("a6-surface", "a", ["aaaaaa"], "surface"),
)


def _q(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _terms(row, index):
    pairs = sorted((index[k], Fraction(v)) for k, v in row.items() if v)
    return " ".join(f"{i}:{_q(v)}" for i, v in pairs)


def cone_block(name, cone):
    """The text block for one cone, ending with a newline."""
    index = {k: i for i, k in enumerate(cone.variables)}
    lines = [f"cone {name} {len(cone.variables)}"]
    for row in cone.gluing_rows:
        lines.append(f"row 0 {_terms(row.coefficients, index)}")
    lines.append(f"row 1 {_terms(cone.area_row, index)}")
    lines.append(f"objective {_terms(cone.tau_row, index)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from curv2x.branched_complex import from_presentation
    from curv2x.pipeline import build_cone

    blocks = ["# Gluing-cone LPs written by perfbench/make_lp_data.py.\n"]
    for name, gens, rels, predicate in CONES:
        cone = build_cone(from_presentation(gens, rels), predicate)
        blocks.append(cone_block(name, cone))
        print(f"{name}: {len(cone.variables)} variables, "
              f"{len(cone.gluing_rows) + 1} rows", file=sys.stderr)
    with open(DATA, "w", encoding="ascii") as fh:
        fh.write("".join(blocks))


if __name__ == "__main__":
    main()
